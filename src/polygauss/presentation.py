"""Polycyclic presentations and their on-disk format.

A group is described by generators g_1..g_n, relative orders r_1..r_n
(r_i = 0 meaning infinite) and three families of rewriting relations:

    g_i g_j    = g_j  * tail      for j < i           ("conj" lines)
    g_i g_j^-1 = g_j^-1 * tail    for j < i, r_j = 0  ("invconj" lines)
    g_i^r_i    = tail             for r_i > 0         ("power" lines)

where every tail is a normal-form word in the generators strictly beyond
the left-hand key.  A missing conj/invconj entry means the two generators
commute; a missing power entry means the power is the identity.

The presentation is assumed consistent (every group element has a unique
normal form).  Only structural validation is performed here.  Collection
rewrites past g_j^-1 only when r_j = 0, so no normal form depends on an
invconj entry with r_j > 0; such entries are kept and saved, but not
checked on load.  :func:`validate_inverse_tails` certifies every stored
invconj entry by collection.

File format (UTF-8, line oriented, `#` starts a comment):

    pcp 3
    orders 2 2 2
    conj 2 1 2^1 3^1
    power 2 3^1

Words typed on the command line use a different, denser syntax:
``g1^2*g3^-1`` (exponent omitted means 1, the bare token ``1`` is the
empty word).  :func:`parse_word` turns it into (index, exponent) pairs
with the same syllable parser as the file's tails.
"""

from __future__ import annotations

import operator
from typing import IO, Iterable


class PcpError(ValueError):
    """Base class for presentation file problems."""


class PcpSyntaxError(PcpError):
    """The input text does not match the file grammar."""


class PcpValidationError(PcpError):
    """The input parses but violates a structural invariant."""


Syllable = tuple[int, int]  # (generator index, exponent)


def _int_syllables(entries: Iterable[Syllable]) -> tuple[Syllable, ...]:
    """The pairs as a tuple; an entry that is not an integer is a TypeError."""
    return tuple((operator.index(i), operator.index(e)) for i, e in entries)


def _int_pair_table(table) -> dict[tuple[int, int], tuple[Syllable, ...]]:
    """A conj/invconj table with int keys and tails; anything else is a TypeError."""
    return {(operator.index(i), operator.index(j)): _int_syllables(t)
            for (i, j), t in (table or {}).items()}


def parse_word(text: str) -> tuple[Syllable, ...]:
    """Parse the ``g1^2*g3^-1`` command-line syntax into (index, exponent) pairs.

    The pairs are unreduced: any order, exponents may be negative or
    zero, and indices are checked against a presentation only when the
    word is collected.
    """
    text = text.strip()
    if text in ("", "1"):
        return ()
    bodies = []
    for token in text.split("*"):
        token = token.strip()
        if not token.startswith("g"):
            raise PcpSyntaxError(f"bad word token {token!r} (expected g<i> or g<i>^<e>)")
        bodies.append(token[1:])
    return _tail_tokens(bodies, f"word {text!r}")


def format_word(entries: Iterable[Syllable]) -> str:
    """Render (index, exponent) pairs as ``g1^2*g3^-1``; identity is ``1``."""
    parts = []
    for i, e in entries:
        if e == 0:
            continue
        parts.append(f"g{i}" if e == 1 else f"g{i}^{e}")
    return "*".join(parts) if parts else "1"


class PcPresentation:
    """A consistent polycyclic presentation, immutable after construction.

    Tails are stored as tuples of (index, exponent) syllables with
    strictly increasing indices; they double as normal-form exponent
    data.  Trivial conjugate tails (``g_i`` itself) are normalised away
    so that an absent entry always means "commutes".

    ``noncommuting[i - 1]`` is a bitmask with bit j - 1 set when g_i and
    g_j fail to commute by the presentation (see :meth:`commutes`).

    Collection keeps a private memo here, filled on first use: the
    conjugates of g_k by g_j^(+-2^t) as syllable tuples in the tails' form.
    It is derived from the tables, so the tables must not be mutated
    after construction.  The memo takes no part in equality, hashing,
    copying or pickling: a copy starts with an empty one.
    """

    __slots__ = ("num_gens", "orders", "conjugates", "inv_conjugates", "powers",
                 "noncommuting", "_hash", "_memo")

    def __init__(self, num_gens, orders, conjugates=None, inv_conjugates=None,
                 powers=None):
        self.num_gens = operator.index(num_gens)
        self.orders = tuple(operator.index(r) for r in orders)
        # an explicit trivial conj tail means the same as a commuting pair
        self.conjugates = {k: t for k, t in _int_pair_table(conjugates).items()
                           if t != ((k[0], 1),)}
        self.inv_conjugates = _int_pair_table(inv_conjugates)
        self.powers = {operator.index(k): _int_syllables(t)
                       for k, t in (powers or {}).items()}
        self._validate()
        # an empty power tail is the identity, the same as no entry at all
        self.powers = {k: t for k, t in self.powers.items() if t}
        masks = [0] * self.num_gens
        # collection reads invconj (i, j) only past g_j^-1, which needs r_j = 0
        pairs = list(self.conjugates) + [
            (i, j) for (i, j), t in self.inv_conjugates.items()
            if self.orders[j - 1] == 0 and t != ((i, 1),)]
        for i, j in pairs:
            masks[i - 1] |= 1 << (j - 1)
            masks[j - 1] |= 1 << (i - 1)
        self.noncommuting = tuple(masks)
        self._hash = None  # computed on first use
        self._memo = {}

    def _validate(self):
        n = self.num_gens
        if n < 1:
            raise PcpValidationError(f"need at least one generator, got n={n}")
        if len(self.orders) != n:
            raise PcpValidationError(
                f"expected {n} relative orders, got {len(self.orders)}")
        for i, r in enumerate(self.orders, start=1):
            if r < 0:
                raise PcpValidationError(f"relative order r_{i} = {r} is negative")

        def check_tail(tail, floor, what):
            prev = floor
            for k, e in tail:
                if k <= prev:
                    raise PcpValidationError(
                        f"{what}: tail index {k} not strictly above {prev}")
                if k > n:
                    raise PcpValidationError(f"{what}: tail index {k} exceeds n={n}")
                if e == 0:
                    raise PcpValidationError(f"{what}: zero exponent at index {k}")
                rk = self.orders[k - 1]
                if rk > 0 and not 0 < e < rk:
                    raise PcpValidationError(
                        f"{what}: exponent {e} at index {k} outside 0..{rk - 1}")
                prev = k

        for keyword, table in (("conj", self.conjugates), ("invconj", self.inv_conjugates)):
            for (i, j), tail in sorted(table.items()):
                if not 1 <= j < i <= n:
                    raise PcpValidationError(
                        f"{keyword} key ({i},{j}) needs 1 <= j < i <= n")
                if not tail:
                    raise PcpValidationError(f"{keyword} {i} {j}: empty tail "
                                             f"would conjugate g{i} to the identity")
                check_tail(tail, j, f"{keyword} {i} {j}")
        for i, tail in sorted(self.powers.items()):
            if not 1 <= i <= n:
                raise PcpValidationError(f"power key {i} out of range")
            if self.orders[i - 1] == 0:
                raise PcpValidationError(
                    f"power relation for g{i} but r_{i} = 0 (infinite)")
            check_tail(tail, i, f"power {i}")
        # Collection rewrites past g_j^-1, which occurs exactly when r_j = 0,
        # so each non-commuting pair over such a j needs its inverse tail.
        for (i, j) in sorted(self.conjugates):
            if self.orders[j - 1] == 0 and (i, j) not in self.inv_conjugates:
                raise PcpValidationError(
                    f"missing invconj {i} {j}: r_{j} = 0 and the pair does not commute")

    # -- lookups used by collection ------------------------------------

    def commutes(self, i: int, j: int) -> bool:
        """Symmetric: True when collection reads no nontrivial tail for g_i, g_j."""
        return not self.noncommuting[i - 1] >> (j - 1) & 1

    def conjugate_tail(self, i: int, j: int, sign: int = 1) -> tuple[Syllable, ...]:
        """Normal form of g_i conjugated by g_j**sign, as syllables."""
        if sign > 0:
            return self.conjugates.get((i, j), ((i, 1),))
        tail = self.inv_conjugates.get((i, j))
        if tail is not None:
            return tail
        if (i, j) not in self.conjugates:
            return ((i, 1),)
        # validation guarantees this cannot be reached for r_j = 0
        raise PcpValidationError(f"no inverse conjugate stored for ({i},{j})")

    def power_tail(self, i: int) -> tuple[Syllable, ...]:
        """Normal form of g_i**r_i (empty tuple = identity)."""
        return self.powers.get(i, ())

    # -- value semantics -----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PcPresentation):
            return NotImplemented
        return (self.num_gens == other.num_gens and self.orders == other.orders
                and self.conjugates == other.conjugates
                and self.inv_conjugates == other.inv_conjugates
                and self.powers == other.powers)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num_gens, self.orders,
                               tuple(sorted(self.conjugates.items())),
                               tuple(sorted(self.inv_conjugates.items())),
                               tuple(sorted(self.powers.items()))))
        return self._hash

    def __reduce__(self):
        return (PcPresentation, (self.num_gens, self.orders, self.conjugates,
                                 self.inv_conjugates, self.powers))

    def __repr__(self):
        return f"PcPresentation(n={self.num_gens}, orders={list(self.orders)})"


def _integer(text: str, where: str) -> int:
    """Parse the one integer spelling, ``-`` or nothing then ASCII digits.

    int() alone would also take ``+2``, ``1_0``, `` 1`` and non-ASCII
    digits such as ``٣``; `where` prefixes errors.
    """
    if text.isascii() and text.removeprefix("-").isdigit():
        return int(text)
    raise PcpSyntaxError(f"{where}: bad integer {text!r}")


def _tail_tokens(tokens, where: str) -> tuple[Syllable, ...]:
    """Parse ``i^e`` tokens (exponent omitted means 1); `where` prefixes errors."""
    tail = []
    for token in tokens:
        idx_text, caret, exp_text = token.partition("^")
        tail.append((_integer(idx_text, where),
                     _integer(exp_text, where) if caret else 1))
    return tuple(tail)


def load_presentation(source: str | bytes | IO) -> PcPresentation:
    """Parse and validate a presentation from PCP-format text.

    Accepts a string, bytes, or a readable file object; one leading
    byte-order mark (U+FEFF) is ignored.  Raises
    :class:`PcpSyntaxError` for malformed text and
    :class:`PcpValidationError` for structural violations.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    source = source.removeprefix("\ufeff")

    n = None
    orders = None
    conjugates: dict = {}
    inv_conjugates: dict = {}
    powers: dict = {}

    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword, args = tokens[0], tokens[1:]
        where = f"line {line_no}"
        if keyword == "pcp":
            if n is not None:
                raise PcpSyntaxError(f"{where}: duplicate pcp line")
            if len(args) != 1:
                raise PcpSyntaxError(f"{where}: expected 'pcp <n>'")
            n = _integer(args[0], where)
        elif keyword == "orders":
            if n is None:
                raise PcpSyntaxError(f"{where}: orders before pcp line")
            if orders is not None:
                raise PcpSyntaxError(f"{where}: duplicate orders line")
            orders = tuple(_integer(a, where) for a in args)
        elif keyword in ("conj", "invconj"):
            if orders is None:
                raise PcpSyntaxError(f"{where}: {keyword} before orders line")
            if len(args) < 2:
                raise PcpSyntaxError(f"{where}: expected '{keyword} <i> <j> ...'")
            i, j = _integer(args[0], where), _integer(args[1], where)
            table = conjugates if keyword == "conj" else inv_conjugates
            if (i, j) in table:
                raise PcpSyntaxError(f"{where}: duplicate {keyword} {i} {j}")
            table[(i, j)] = _tail_tokens(args[2:], where)
        elif keyword == "power":
            if orders is None:
                raise PcpSyntaxError(f"{where}: power before orders line")
            if len(args) < 1:
                raise PcpSyntaxError(f"{where}: expected 'power <i> ...'")
            i = _integer(args[0], where)
            if i in powers:
                raise PcpSyntaxError(f"{where}: duplicate power {i}")
            powers[i] = _tail_tokens(args[1:], where)
        else:
            raise PcpSyntaxError(f"{where}: unknown keyword {keyword!r}")

    if n is None or orders is None:
        raise PcpSyntaxError("missing pcp or orders line")
    return PcPresentation(n, orders, conjugates, inv_conjugates, powers)


def save_presentation(pres: PcPresentation) -> str:
    """Serialize back to PCP text; load(save(P)) == P."""
    lines = [f"pcp {pres.num_gens}",
             "orders " + " ".join(str(r) for r in pres.orders)]
    def tail_text(tail):
        return "".join(f" {k}^{e}" for k, e in tail)
    for keyword, table in (("conj", pres.conjugates), ("invconj", pres.inv_conjugates)):
        for (i, j), tail in sorted(table.items()):
            lines.append(f"{keyword} {i} {j}{tail_text(tail)}")
    for i, tail in sorted(pres.powers.items()):
        lines.append(f"power {i}{tail_text(tail)}")
    return "\n".join(lines) + "\n"


def validate_inverse_tails(pres: PcPresentation) -> list[tuple[int, int]]:
    """Spot-check every stored inverse-conjugate tail by collection.

    The relation g_i g_j^-1 = g_j^-1 t is equivalent to
    (g_j^-1 t) g_j = g_i, and the right-hand collection only ever uses
    the forward conjugate tails, so each stored entry can be certified
    independently.  Returns the (i, j) keys that fail; empty means all
    stored entries are consistent.
    """
    from .elements import collect, generator

    bad = []
    for (i, j), tail in sorted(pres.inv_conjugates.items()):
        word = ((j, -1),) + tail + ((j, 1),)
        if collect(pres, word) != generator(pres, i):
            bad.append((i, j))
    return bad
