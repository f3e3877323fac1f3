"""The four benchmark workloads.

Each workload is a ``setup(rng, workdir)`` function that returns a
:class:`Case`: the inputs, the timed operation, and a reference check.
Set-up builds fresh presentations from `.pcp` text every time it is
called, so repeating it measures the same work.  The operation goes
through the public entry points of ``polygauss`` by attribute lookup at
call time, so the traced run's wrappers see every call.  The reference
checks use models independent of the library where they can (integer
matrices, matrix enumeration, the Hermite normal form) and run outside
the timed region.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import polygauss as pg
import polygauss.cli

from families import UTModel, carry_chain_pcp, free_abelian_pcp, ut_pcp


@dataclass
class Case:
    inputs: list
    op: Callable[[Any], Any]             # timed; returns a hashable answer
    check: Callable[[Any, Any], bool]    # untimed reference check
    expect: tuple[str, ...]              # count metrics the traced run must see > 0


def load(text: str) -> pg.PcPresentation:
    """Load and self-check a generated presentation."""
    pres = pg.load_presentation(text)
    bad = pg.validate_inverse_tails(pres)
    if bad:
        raise RuntimeError(f"generated presentation has bad invconj tails {bad}")
    return pres


def random_normal_form(rng: random.Random, num_gens: int, spread: int):
    return [(g, e) for g in range(1, num_gens + 1)
            if (e := rng.randint(-spread, spread))]


# -- collect: one multiplication in UT(5, Z) ---------------------------------

COLLECT_INPUTS = 1500


def setup_collect(rng: random.Random, workdir: str) -> Case:
    pres = load(ut_pcp(5))
    n = pres.num_gens
    words = [tuple(random_normal_form(rng, n, 6) + random_normal_form(rng, n, 6))
             for _ in range(COLLECT_INPUTS)]
    model = UTModel(5)

    def op(word):
        return pg.collect(pres, word).exponents

    def check(word, exps):
        return model.key(model.normal_form(exps)) == model.key(model.word(word))

    return Case(words, op, check, ("presentation.load_calls", "elements.collect_calls"))


# -- closure: one CLI request on a small UT(n, Z/p) --------------------------

CLOSURE_INPUTS = 3000
CLOSURE_GROUPS = ((4, 3), (5, 3), (6, 2))   # (n, p) of UT(n, Z/p)
CLOSURE_COMMANDS = ("order", "index", "member", "equal", "canonical")
ENUMERATION_BOUND = 4096


def _parse_word(text: str) -> list[tuple[int, int]]:
    """The `g1^2*g3^-1` syntax, parsed independently of the library."""
    out = []
    for token in text.split("*"):
        base, _, exp = token.partition("^")
        out.append((int(base[1:]), int(exp or 1)))
    return out


def _enumerate(model: UTModel, gens: list[dict]) -> set:
    """The subgroup generated by matrices in a finite UT(n, Z/p)."""
    identity = model.key({})
    seen = {identity}
    frontier = [{}]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = model.mul(x, g)
            key = model.key(y)
            if key not in seen:
                seen.add(key)
                frontier.append(y)
    return seen


def _igs_words(text: str) -> list[tuple[int, str]]:
    """(relative order, word) per line of a human-readable igs listing."""
    out = []
    for line in text.splitlines()[1:]:
        fields = line.split()
        out.append((int(fields[5]), fields[6]))
    return out


def setup_closure(rng: random.Random, workdir: str) -> Case:
    groups = []
    for n, p in CLOSURE_GROUPS:
        path = os.path.join(workdir, f"ut{n}_z{p}.pcp")
        text = ut_pcp(n, p)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        pres = load(text)
        order = p ** pres.num_gens
        groups.append((path, pres, UTModel(n, p), order))

    def syllable(model, low, high):
        return f"g{rng.randint(low, high)}^{rng.randint(1, model.p - 1)}"

    def words(model):
        # The first word leads with one syllable of height 1, the second
        # with one of height 2, and the other syllables lie deeper.  The
        # subgroups then have closures of similar size, so the cost per
        # request is narrow.  With fully random words p99 was 10x p50
        # and moved with the seed.
        heights = [j - i for i, j in model.gens]
        h2, h3, last = heights.index(2) + 1, heights.index(3) + 1, len(heights)
        first = [syllable(model, 1, h2 - 1)] + [syllable(model, h2, last) for _ in range(3)]
        second = [syllable(model, h2, h3 - 1)] + [syllable(model, h3, last) for _ in range(3)]
        return ["*".join(first), "*".join(second)]

    requests = []
    for k in range(CLOSURE_INPUTS):
        # an even mix of groups and commands in every seed
        g = k % len(groups)
        cmd = CLOSURE_COMMANDS[(k // len(groups)) % len(CLOSURE_COMMANDS)]
        path, pres, model, order = groups[g]
        ws = words(model)
        if cmd == "member":
            argv = (cmd, path, "*".join(ws), "--", *ws)
        elif cmd == "equal":
            # a Nielsen move keeps the subgroup: <a, b, ...> = <a*b, b, ...>
            argv = (cmd, path, *ws, "--", ws[0] + "*" + ws[1], *ws[1:])
        else:
            argv = (cmd, path, *ws)
        requests.append((g, argv))

    def op(request):
        _, argv = request
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = polygauss.cli.main(list(argv))
        return code, buf.getvalue()

    def library_igs(pres, words):
        return pg.igs_by_generators(pres, [pg.collect(pres, w) for w in words])

    def check(request, answer):
        g, argv = request
        code, out = answer
        if code != 0:
            return False
        out = out.strip()
        path, pres, model, order = groups[g]
        cmd, words = argv[0], list(argv[2:])
        if cmd in ("member", "equal"):
            if out != "true":   # true by construction
                return False
            words = words[words.index("--") + 1:]
        mats = [model.word(_parse_word(w)) for w in words]
        if order <= ENUMERATION_BOUND:
            sub = _enumerate(model, mats)
            if cmd == "order":
                return out == str(len(sub))
            if cmd == "index":
                return out == str(order // len(sub))
            if cmd == "member":
                return model.key(model.word(_parse_word(argv[2]))) in sub
            if cmd == "equal":
                first = argv[2:argv.index("--")]
                return _enumerate(model, [model.word(_parse_word(w)) for w in first]) == sub
            listed = _igs_words(out)
            gens = [model.word(_parse_word(w)) for _, w in listed]
            return (math.prod(rel for rel, _ in listed) == len(sub)
                    and _enumerate(model, gens) == sub)
        # too large to enumerate: order * index = |G|, and a canonical igs
        # does not depend on the generating set it came from
        if cmd in ("member", "equal"):
            return True
        seq = library_igs(pres, words)
        if cmd == "order":
            return int(out) * int(str(pg.subgroup_index(pres, seq))) == order
        if cmd == "index":
            return int(out) * int(str(pg.subgroup_order(seq))) == order
        moved = [words[0] + "*" + words[1]] + words[1:]
        other = pg.canonical_igs(library_igs(pres, moved))
        return [w for _, w in _igs_words(out)] == [str(u) for u in other]

    return Case(requests, op, check,
                ("presentation.load_calls", "cli.calls", "elements.collect_calls",
                 "igs.closure_calls", "igs.add_calls"))


# -- lattice: canonical igs and index of a random lattice in Z^4 -------------

LATTICE_INPUTS = 1000
LATTICE_DIM = 4
LATTICE_SPREAD = 4


def setup_lattice(rng: random.Random, workdir: str) -> Case:
    pres = load(free_abelian_pcp(LATTICE_DIM))
    inputs = []
    for _ in range(LATTICE_INPUTS):
        rows = [[rng.randint(-LATTICE_SPREAD, LATTICE_SPREAD) for _ in range(LATTICE_DIM)]
                for _ in range(LATTICE_DIM)]
        inputs.append(tuple(pg.Element(pres, row) for row in rows))

    def op(gens):
        seq = pg.canonical_igs(pg.igs_by_generators(pres, gens))
        return tuple(u.exponents for u in seq), str(pg.subgroup_index(pres, seq))

    def check(gens, answer):
        rows, index = answer
        hnf, pivots = pg.hermite_normal_form([g.exponents for g in gens],
                                             ncols=LATTICE_DIM)
        expected = str(math.prod(pivots)) if len(pivots) == LATTICE_DIM else "infinity"
        return [list(r) for r in rows] == hnf and index == expected

    return Case(inputs, op, check,
                ("igs.closure_calls", "igs.add_calls", "elements.mul_calls",
                 "elements.pow_calls"))


# -- membership: sift through prebuilt igs of Z^5 lattices -------------------

MEMBERSHIP_INPUTS = 1500
MEMBERSHIP_DIM = 5
MEMBERSHIP_LATTICES = 64
MEMBERSHIP_SPREAD = 2
MEMBERSHIP_COEFF = 20
# The lattices are part of the workload, like the presentations of the
# others: drawn from this fixed seed, not from --seed.  Sift cost follows
# the size of the igs entries, which varies from lattice to lattice, and
# with lattices drawn per seed p99 moved by over 20% between seeds.
MEMBERSHIP_LATTICE_SEED = 0


def _hnf_member(hnf: list[list[int]], vec) -> bool:
    """Membership in the row lattice of an echelon form, by reduction."""
    v = list(vec)
    for row in hnf:
        c = next(i for i, x in enumerate(row) if x)
        if v[c] % row[c]:
            return False
        q = v[c] // row[c]
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def setup_membership(rng: random.Random, workdir: str) -> Case:
    pres = load(free_abelian_pcp(MEMBERSHIP_DIM))
    lattice_rng = random.Random(MEMBERSHIP_LATTICE_SEED)
    lattices = []
    while len(lattices) < MEMBERSHIP_LATTICES:
        gens = [pg.Element(pres, [lattice_rng.randint(-MEMBERSHIP_SPREAD, MEMBERSHIP_SPREAD)
                                  for _ in range(MEMBERSHIP_DIM)])
                for _ in range(MEMBERSHIP_DIM)]
        seq = pg.igs_by_generators(pres, gens)
        # full rank with a last leading exponent above 1, so a member
        # plus the deepest generator is a non-member found at full depth
        if len(seq) == MEMBERSHIP_DIM and seq.gens[-1].leading_exponent() > 1:
            lattices.append((gens, seq))
    queries = []
    for k in range(MEMBERSHIP_INPUTS):
        which = k % MEMBERSHIP_LATTICES
        coeffs = [rng.randint(-MEMBERSHIP_COEFF, MEMBERSHIP_COEFF) for _ in range(MEMBERSHIP_DIM)]
        # Z^n is abelian: the product of powers is the integer combination
        vec = [sum(c * g.exponents[col] for c, g in zip(coeffs, lattices[which][0]))
               for col in range(MEMBERSHIP_DIM)]
        vec[-1] += k % 2   # odd queries add the deepest generator
        queries.append((which, pg.Element(pres, vec)))
    hnfs: dict[int, list] = {}

    def op(query):
        which, x = query
        return pg.sift(lattices[which][1], x).membership

    def check(query, member):
        which, x = query
        if which not in hnfs:
            hnfs[which] = pg.hermite_normal_form(
                [g.exponents for g in lattices[which][0]], ncols=MEMBERSHIP_DIM)[0]
        return member == _hnf_member(hnfs[which], x.exponents)

    return Case(queries, op, check,
                ("presentation.load_calls", "igs.closure_calls", "igs.sift_calls",
                 "elements.mul_calls", "elements.pow_calls"))


WORKLOADS: dict[str, Callable[[random.Random, str], Case]] = {
    "collect": setup_collect,
    "closure": setup_closure,
    "lattice": setup_lattice,
    "membership": setup_membership,
}


# -- size sweeps for the traced run -------------------------------------------

def heisenberg_power_case(k: int):
    """Collect y^k * x^k in UT(3, Z); returns (thunk, check)."""
    pres = pg.load_presentation(ut_pcp(3))
    model = UTModel(3)
    word = ((2, k), (1, k))

    def thunk():
        return pg.collect(pres, word).exponents

    def check(exps):
        return model.key(model.normal_form(exps)) == model.key(model.word(word))

    return thunk, check


def carry_chain_case(n: int):
    """igs of one depth-1 element of Z/2^n; returns (thunk, check)."""
    pres = pg.load_presentation(carry_chain_pcp(n))
    gen = pg.Element(pres, [1] * n)

    def thunk():
        return str(pg.subgroup_order(pg.igs_by_generators(pres, [gen])))

    def check(order):
        return order == str(2 ** n)

    return thunk, check
