"""Command-line front end.

    polygauss [--machine] [--bound N] COMMAND FILE.pcp [WORDS...]

Commands:
    collect WORD              normal form of a word
    igs [WORDS...]            canonical igs of the generated subgroup, annotated
    order [WORDS...]          subgroup order (decimal or `infinity`)
    index [WORDS...]          subgroup index in the whole group
    member WORD -- WORDS...   membership of WORD in the generated subgroup
    equal WORDS... -- WORDS...   equality of two generated subgroups
    canonical [WORDS...]      the same as igs
    verify [WORDS...]         replay against the brute-force oracle

Words use the syntax ``g1^2*g3^-1`` (exponent omitted means 1, ``1`` is
the identity).  ``--machine`` switches igs listings to bare
space-separated columns; exit status is 1 for parse or validation
problems and 2 when ``verify`` finds a mismatch.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .elements import INFINITE, collect
from .igs import (Igs, canonical_igs, igs_by_generators, sift,
                  subgroup_index, subgroup_order, subgroups_equal, verify_igs)
from .oracle import (DEFAULT_BOUND, EnumerationBoundExceeded, FiniteGroupTable,
                     enumerate_subgroup, hermite_normal_form)
from .presentation import PcpError, PcPresentation, _integer, load_presentation

COMMANDS = ("collect", "igs", "order", "index", "member", "equal",
            "canonical", "verify")


class UsageError(ValueError):
    pass


class Request(NamedTuple):
    command: str
    path: str
    words: list[str]
    words_after: list[str] | None = None  # tokens after the `--` separator
    machine: bool = False
    bound: int = DEFAULT_BOUND


def parse_args(argv: list[str]) -> Request:
    args = list(argv)
    machine = False
    bound = DEFAULT_BOUND
    while args and args[0].startswith("-") and args[0] != "--":
        flag = args.pop(0)
        if flag == "--machine":
            machine = True
        elif flag == "--bound":
            if not args:
                raise UsageError("--bound needs a value")
            try:
                bound = _integer(args.pop(0), "--bound")
            except PcpError:
                raise UsageError("--bound needs an integer value") from None
            if bound < 1:
                raise UsageError(f"--bound must be positive, got {bound}")
        elif flag in ("-h", "--help"):
            raise UsageError("help")
        else:
            raise UsageError(f"unknown flag {flag}")
    if len(args) < 2:
        raise UsageError("expected: COMMAND FILE [WORDS...]")
    command, path, *rest = args
    if command not in COMMANDS:
        raise UsageError(f"unknown command {command!r}")

    words: list[str] = rest
    words_after: list[str] | None = None
    if "--" in rest:
        cut = rest.index("--")
        words, words_after = rest[:cut], rest[cut + 1:]
        if "--" in words_after:
            raise UsageError("at most one `--` separator")

    if command == "collect" and (len(words) != 1 or words_after is not None):
        raise UsageError("collect takes exactly one word")
    if command == "member":
        if len(words) != 1 or words_after is None:
            raise UsageError("member takes: WORD -- GENERATOR_WORDS...")
    if command == "equal" and words_after is None:
        raise UsageError("equal takes: WORDS... -- WORDS...")
    if command in ("igs", "order", "index", "canonical", "verify") \
            and words_after is not None:
        raise UsageError(f"{command} takes no `--` separator")
    return Request(command, path, words, words_after, machine, bound)


def _igs_lines(seq: Igs, machine: bool) -> str:
    lines = []
    if not machine:
        lines.append(f"igs with {len(seq)} generator{'s' if len(seq) != 1 else ''}")
    for u in seq:
        d, lead, rel = u.depth(), u.leading_exponent(), str(u.relative_order())
        if machine:
            lines.append(f"{d} {lead} {rel} {u}")
        else:
            lines.append(f"  depth {d}  lead {lead}  relorder {rel}  {u}")
    return "\n".join(lines)


def _is_free_abelian(pres: PcPresentation) -> bool:
    return not any(pres.orders) and not any(pres.noncommuting)


def _verify_against_oracle(pres, gens, bound) -> list[str]:
    problems = []
    seq = igs_by_generators(pres, gens)
    if not verify_igs(list(seq.gens)):
        problems.append("igs fails the closure conditions")
    if canonical_igs(seq) != seq:
        problems.append("igs is not reduced to canonical form")
    if all(r > 0 for r in pres.orders):
        table = FiniteGroupTable(pres, bound=bound)
        reference = enumerate_subgroup(pres, gens, bound=bound)
        members = {g for g in table if sift(seq, g).membership}
        if members != reference:
            problems.append("sift membership disagrees with enumeration")
        if subgroup_order(seq) != len(reference):
            problems.append("subgroup order disagrees with enumeration")
        if subgroup_order(seq) * subgroup_index(pres, seq) != table.order:
            problems.append("order times index is not the group order")
    elif _is_free_abelian(pres):
        hnf, pivots = hermite_normal_form([list(g.exponents) for g in gens],
                                          ncols=pres.num_gens)
        if [list(u.exponents) for u in seq.gens] != hnf:
            problems.append("igs differs from the Hermite normal form")
        expected = math.prod(pivots) if len(pivots) == pres.num_gens else INFINITE
        if subgroup_index(pres, seq) != expected:
            problems.append("index differs from the Hermite pivot product")
    else:
        raise UsageError(
            "verify needs a finite or free-abelian group for the oracle replay")
    return problems


def run(request: Request) -> tuple[int, str]:
    """Execute a request; returns (exit status, output text)."""
    try:
        with open(request.path, encoding="utf-8") as handle:
            pres = load_presentation(handle)
        gens = [collect(pres, w) for w in request.words]

        if request.command == "collect":
            return 0, str(gens[0])
        if request.command == "member":
            others = [collect(pres, w) for w in request.words_after]
            seq = igs_by_generators(pres, others)
            return 0, str(sift(seq, gens[0]).membership).lower()
        if request.command == "equal":
            others = [collect(pres, w) for w in request.words_after]
            return 0, str(subgroups_equal(gens, others)).lower()
        if request.command in ("igs", "canonical"):
            return 0, _igs_lines(igs_by_generators(pres, gens), request.machine)
        if request.command == "order":
            return 0, str(subgroup_order(igs_by_generators(pres, gens)))
        if request.command == "index":
            return 0, str(subgroup_index(pres, igs_by_generators(pres, gens)))
        if request.command == "verify":
            problems = _verify_against_oracle(pres, gens, request.bound)
            if problems:
                return 2, "FAIL: " + "; ".join(problems)
            return 0, "PASS"
        raise UsageError(f"unknown command {request.command!r}")
    except (ValueError, OSError, EnumerationBoundExceeded, RecursionError) as exc:
        # carries and passes add no Python frames, but binary powers and
        # memo fills of conjugate images still nest on the interpreter's stack
        return 1, f"error: {exc}"


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        request = parse_args(argv)
    except UsageError as exc:
        if str(exc) == "help":
            print(__doc__.strip())
            return 0
        print(f"error: {exc}", file=sys.stderr)
        print(__doc__.strip(), file=sys.stderr)
        return 1
    code, text = run(request)
    if code == 0:
        if text:
            print(text)
    else:
        print(text, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
