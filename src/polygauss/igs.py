"""Induced generating sequences for subgroups of polycyclic groups.

The central object is a partial igs: normalised elements in strictly
increasing depth, at most one per depth, held in the same :class:`Igs`
type as a finished igs.  Feeding subgroup generators through
:func:`add_gen_to_pigs` performs a non-commutative analogue of Gaussian
elimination over the slots d = 1..n.  An incoming element h of depth d
either fills an empty slot (after normalisation), or is merged with the
occupant k via an extended-gcd combination of their
leading exponents; in both cases the quotients that raise the depth are
fed back into a work list.  When the gcd of the two leading exponents
equals one of them, the slot update and one of the quotients are skipped.

Every quotient in this module is one division step, as in integer row
reduction: x * u^(-q), where u is an entry of depth d and q is x's
exponent at d divided by u's leading exponent, rounded down.  Elimination
uses it for the residues it feeds back, :func:`sift` for membership and
reduction for the entries themselves.  When u has finite relative order
r and u^r = 1 by the presentation, the step takes u^(r - q) in place of
u^(-q) when r - q <= q, so it needs no inversion by collection.

Entries are kept small by reducing them during elimination, as Kannan and
Bachem do for the Hermite normal form: at each deeper occupied depth e,
an entry's exponent is brought into [0, lead_e) by a division step by the
entry at e.  Each new or merged slot entry is reduced before it is placed.
After the sweep, entries it left untouched are reduced again where the
closure has no work for them.

The occupied slots form an igs when depths strictly increase and the
closure conditions hold: for each entry u, the power u^r(u) of a finite
relative order and the commutators [u, v] with the later entries v sift
to the identity through the later entries.  :func:`_obligations` yields
these powers and commutators, and is the only place that spells them.
It skips a power when the presentation alone shows u^r = 1
(:func:`_power_is_trivial`), and a commutator when every generator in
the support of one entry commutes, by the presentation, with every
generator in the support of the other, so that it is exactly the
identity.  :func:`igs_by_generators` drives elimination to closure by
feeding back the non-identity obligations of every changed slot against
all the other slots.  :func:`verify_igs` decides the closure conditions
by sifting each entry's obligations against the later entries; they
make membership testing by depth-wise division (:func:`sift`) exact.

:func:`igs_by_generators` ends with :func:`canonical_igs`: deepest
entry first, each entry is reduced against the deeper entries, which are
already reduced, exactly as in the Hermite normal form of an integer
matrix.  On an igs the result is unique per subgroup, so the igs it
returns decides equality; in Z^n it is the Hermite normal form.  A
partial igs, such as one :func:`add_gen_to_pigs` returns, is brought to
the same form by :func:`canonical_igs`.  Subgroup order and index read
off directly from an igs as ints or INFINITE.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, NamedTuple

from .elements import INFINITE, Element, _commute, check_binding
from .presentation import PcPresentation


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with g = gcd(a, b) >= 0 and g == u*a + v*b."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        return -old_r, -old_u, -old_v
    return old_r, old_u, old_v


class Igs:
    """Normalised elements in strictly increasing depth, at most one per depth.

    Elimination passes partial igs of this type from step to step; after
    closure (:func:`igs_by_generators`) the entries form an igs.
    """

    __slots__ = ("presentation", "gens")

    def __init__(self, presentation: PcPresentation, gens: Iterable[Element]):
        gens = tuple(gens)
        check_binding(presentation, *gens)
        prev = 0
        for u in gens:
            d = u.depth()
            if d > presentation.num_gens:
                raise ValueError("identity cannot occur in an igs")
            # normalisation makes the leading exponent positive (infinite
            # relative order) respectively a divisor of the relative order
            r = presentation.orders[d - 1]
            lead = u.exponents[d - 1]
            if not (lead > 0 if r == 0 else r % lead == 0):
                raise ValueError(f"igs entry {u} is not normalised")
            if d <= prev:
                raise ValueError("igs depths must strictly increase")
            prev = d
        object.__setattr__(self, "presentation", presentation)
        object.__setattr__(self, "gens", gens)

    @classmethod
    def _wrap(cls, pres: PcPresentation, gens: tuple) -> Igs:
        """Trusted: gens are normalised elements of pres in strictly increasing depth."""
        self = object.__new__(cls)
        object.__setattr__(self, "presentation", pres)
        object.__setattr__(self, "gens", gens)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Igs is immutable")

    def __reduce__(self):
        return (Igs, (self.presentation, self.gens))

    def __iter__(self):
        return iter(self.gens)

    def __len__(self):
        return len(self.gens)

    def __eq__(self, other):
        return (isinstance(other, Igs) and self.gens == other.gens
                and self.presentation == other.presentation)

    def __hash__(self):
        return hash(self.gens)

    def __repr__(self):
        return f"<Igs {', '.join(str(u) for u in self.gens) or 'empty'}>"


def add_gen_to_pigs(pigs: Igs, gen: Element) -> tuple[Igs, dict[int, Element]]:
    """Absorb one element: returns a partial igs generating <pigs, gen>.

    New and merged entries are reduced at every deeper occupied depth, and
    so are untouched entries of infinite relative order whose support
    commutes with every generator.  The second component maps each depth
    whose entry changed to its new entry; it is empty exactly when the
    result equals `pigs`.
    """
    pres = pigs.presentation
    check_binding(pres, gen)
    n = pres.num_gens
    before = _slot_table(pres, pigs.gens)
    slots = list(before)
    # pending[e] is the FIFO work list at depth e; the identity lands in
    # pending[n + 1], which is never swept
    pending = [[] for _ in range(n + 2)]
    pending[gen.depth()].append(gen)

    def push_residue(residue: Element, d: int):
        # residues sink strictly below the slot being worked, so one sweep
        # over the depths meets every element; this is what makes it terminate
        e = residue.depth()
        assert e > d, "residue failed to sink below its slot"
        pending[e].append(residue)

    for d in range(1, n + 1):
        for h in pending[d]:
            k = slots[d - 1]
            if k is None:
                u = _reduced(h.normalised(), d, slots)
                slots[d - 1] = u
                if pres.orders[d - 1] > 0:
                    push_residue(_divided(h, u, d), d)
                continue
            a = h.leading_exponent()
            b = k.leading_exponent()
            if a % b == 0:
                # gcd(a, b) = b: the occupant already covers h modulo depth d
                push_residue(_divided(h, k, d), d)
                continue
            g, u_co, v_co = _xgcd(a, b)
            w = h if g == a else (h ** u_co) * (k ** v_co)
            wn = _reduced(w.normalised(), d, slots)
            assert wn.depth() == d and wn.leading_exponent() == g
            assert b % g == 0 and g != b, "slot leading exponent must shrink properly"
            slots[d - 1] = wn
            if g != a:
                push_residue(_divided(h, wn, d), d)
            push_residue(_divided(k, wn, d), d)

    # Deeper slots may have changed since an untouched entry was reduced.
    # Re-reduce only entries the closure has no work for even as changes:
    # infinite relative order (no power) and a support that commutes with
    # every generator (no commutator), before and after.
    for d in range(n, 0, -1):
        u = slots[d - 1]
        if (u is not None and u is before[d - 1] and not pres.orders[d - 1]
                and not _clash(pres, u.exponents)):
            v = _reduced(u, d, slots)
            if not _clash(pres, v.exponents):
                slots[d - 1] = v

    changes = {d: slots[d - 1] for d in range(1, n + 1)
               if slots[d - 1] != before[d - 1]}
    return Igs._wrap(pres, tuple(u for u in slots if u is not None)), changes


def _slot_table(pres: PcPresentation, gens: Iterable[Element]) -> list:
    """slots[d - 1] is the entry of depth d among `gens`, or None."""
    slots = [None] * pres.num_gens
    for u in gens:
        slots[u.depth() - 1] = u
    return slots


def _support(vec) -> int:
    """Bitmask of the support of `vec`: bit i - 1 set when g_i occurs in it."""
    mask = 0
    for idx, e in enumerate(vec):
        if e:
            mask |= 1 << idx
    return mask


def _clash(pres: PcPresentation, vec) -> int:
    """Bitmask of the generators that fail, by the presentation, to commute with `vec`.

    Bit j - 1 stands for g_j, as in :attr:`PcPresentation.noncommuting`.
    An element whose support misses them commutes with `vec` exactly.
    """
    mask = 0
    for idx, e in enumerate(vec):
        if e:
            mask |= pres.noncommuting[idx]
    return mask


def _power_is_trivial(pres: PcPresentation, vec, k: int) -> bool:
    """Whether u^k = 1 by the presentation alone, for the normal form vec of u.

    True when the generators in u's support commute pairwise, so that
    u^k is u with its exponents times k, and each syllable g_j^e of u has
    r_j > 0 dividing k * e and no power tail, so that g_j^(k e) = 1.
    """
    orders, powers = pres.orders, pres.powers
    syllables = [(j, e) for j, e in enumerate(vec, 1) if e]
    for j, e in syllables:
        r = orders[j - 1]
        if not r or k * e % r or j in powers:
            return False
    return _commute(pres, syllables)


def _divided(x: Element, u: Element, d: int) -> Element:
    """The division step at depth d = depth(u): x * u^(-q), q the floor quotient.

    q is x's exponent at d divided by u's leading exponent, rounded down;
    x itself is returned when q = 0.  When u has finite relative order
    rel and u^rel = 1 by the presentation, u^(-q) = u^(rel - q), and the
    positive power is used when it is no larger: no inversion by
    collection, and for rel = 2 the power is u itself.
    """
    lead = u.exponents[d - 1]
    q = x.exponents[d - 1] // lead
    if not q:
        return x
    pres = u.presentation
    r = pres.orders[d - 1]
    if r:
        rel = r // math.gcd(lead, r)
        k = -q % rel
        if k <= q and _power_is_trivial(pres, u.exponents, rel):
            return x * u ** k
    return x * u ** (-q)


def _reduced(u: Element, d: int, slots: list) -> Element:
    """u, of depth d, divided by each deeper slot entry in increasing depth.

    At each depth e with an entry v, the exponent of the result lies in
    [0, lead(v)).  Multiplying by a power of v leaves the exponents above
    depth e alone, so one pass reduces them all.
    """
    for e in range(d + 1, len(slots) + 1):
        v = slots[e - 1]
        if v is not None:
            u = _divided(u, v, e)
    return u


def _obligations(pres: PcPresentation, u: Element, others: Iterable[Element]):
    """The closure conditions of the entry u: the elements that must sift.

    Yields u^rel for a finite relative order rel, then u's commutator with
    each entry h of `others` in turn, h = u excluded.  The skips are the
    ones the presentation decides: the power when u^rel = 1 by
    :func:`_power_is_trivial`, and the commutator when every generator in
    h's support commutes with every generator in u's, which makes it
    exactly the identity.
    """
    rel = u.relative_order()
    if rel is not INFINITE and not _power_is_trivial(pres, u.exponents, rel):
        yield u ** rel
    clash = _clash(pres, u.exponents)
    if clash:
        for h in others:
            if h is not u and _support(h.exponents) & clash:
                yield u.commutator(h)


def igs_by_generators(pres: PcPresentation, gens: Iterable[Element]) -> Igs:
    """Compute the canonical igs of the subgroup generated by the given elements.

    Every entry is reduced above each deeper leading exponent, so the
    result is unique per subgroup.
    """
    gens = list(gens)
    check_binding(pres, *gens)
    seq = Igs(pres, ())
    queue = deque(g for g in gens if not g.is_identity)
    while queue:
        seq, changes = add_gen_to_pigs(seq, queue.popleft())
        for d in sorted(changes):
            for c in _obligations(pres, changes[d], seq.gens):
                if not c.is_identity:
                    queue.append(c)
    return canonical_igs(seq)


class SiftResult(NamedTuple):
    residue: Element
    membership: bool


def _sift_through(slots: list, g: Element) -> SiftResult:
    residue = g
    n = len(slots)
    while True:
        d = residue.depth()
        if d > n:
            return SiftResult(residue, True)
        u = slots[d - 1]
        # normalisation forces lead | r_d, so divisibility of the plain
        # exponent decides solvability modulo r_d as well
        if u is None or residue.exponents[d - 1] % u.exponents[d - 1]:
            return SiftResult(residue, False)
        residue = _divided(residue, u, d)


def sift(seq: Igs, g: Element) -> SiftResult:
    """Depth-wise division of g by the igs; exact membership for a verified igs."""
    check_binding(seq.presentation, g)
    return _sift_through(_slot_table(seq.presentation, seq.gens), g)


def verify_igs(candidate: Iterable[Element]) -> bool:
    """Decide the igs closure conditions for a depth-sorted, normalised list.

    True iff depths strictly increase and, for each entry u_j, what
    :func:`_obligations` yields against the entries after it sifts to the
    identity through those entries: u_j^r(u_j) for a finite relative
    order, and the commutators [u_j, u_i] with i > j.  Since
    [u_j, u_i] = (u_i^{u_j})^-1 u_i, a commutator lies in
    <u_(j+1), ...> exactly when the conjugate does.  Both the power and
    the commutators lie strictly deeper than u_j, and sifting only goes
    deeper, so they are sifted through all the entries at once.
    """
    elems = list(candidate)
    if not elems:
        return True
    pres = elems[0].presentation
    check_binding(pres, *elems)
    n = pres.num_gens
    depths = [u.depth() for u in elems]
    if depths[-1] > n:
        return False
    if any(d2 <= d1 for d1, d2 in zip(depths, depths[1:])):
        return False
    slots = _slot_table(pres, elems)
    return all(_sift_through(slots, c).membership
               for j, u in enumerate(elems)
               for c in _obligations(pres, u, elems[j + 1:]))


def subgroup_order(seq: Igs):
    """|U|, an int or INFINITE: the product of the entries' relative orders."""
    total = 1
    for u in seq.gens:
        total = total * u.relative_order()
    return total


def subgroup_index(pres: PcPresentation, seq: Igs):
    """[G:U], an int or INFINITE: leading exponents times missed relative orders."""
    check_binding(pres, seq)
    total = 1
    for d, u in enumerate(_slot_table(pres, seq.gens), start=1):
        if u is not None:
            total = total * u.exponents[d - 1]
        else:
            r = pres.orders[d - 1]
            total = total * (INFINITE if r == 0 else r)
    return total


def canonical_igs(seq: Igs) -> Igs:
    """Reduce every entry, deepest first, against deeper entries already reduced.

    Each entry's exponent at every deeper occupied depth is brought into
    [0, lead) of the entry there, exactly as in the Hermite normal form of
    an integer matrix.  Replacing an entry by its product with an element
    of the subgroup the later entries generate keeps depths, leading
    exponents and every closure condition: on an igs the result is an igs
    of the same subgroup, unique per subgroup.  On a partial igs that
    fails :func:`verify_igs` it is still a partial igs of the same
    subgroup, but which one depends on the order of reduction.
    """
    slots = _slot_table(seq.presentation, seq.gens)
    for d in range(len(slots), 0, -1):
        u = slots[d - 1]
        if u is not None:
            slots[d - 1] = _reduced(u, d, slots)
    return Igs._wrap(seq.presentation, tuple(u for u in slots if u is not None))


def subgroups_equal(u_gens: Iterable[Element], v_gens: Iterable[Element]) -> bool:
    """Whether two generating sets span the same subgroup."""
    u_gens, v_gens = list(u_gens), list(v_gens)
    everyone = u_gens + v_gens
    if not everyone:
        return True
    pres = everyone[0].presentation
    check_binding(pres, *everyone)
    return igs_by_generators(pres, u_gens) == igs_by_generators(pres, v_gens)
