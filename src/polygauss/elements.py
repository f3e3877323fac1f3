"""Element arithmetic over a fixed polycyclic presentation.

Elements are stored as normal-form exponent vectors (tuples).  Arbitrary
words are brought to normal form by collection.

The single primitive, :func:`_lmul`, left-multiplies a private mutable
exponent list of known depth by a word, in place, and returns the new
depth.  The word's syllables g_i^x are pushed into the list from right
to left.  Writing d for the current depth there are three cases:

* d > i: the power merges at position i; out-of-range exponents are
  reduced with the power relation g_i^r_i = tail, whose tail uses only
  deeper generators: position i is cleared, the tail's power is pushed
  into the rest, and the reduced exponent is put back.
* d = i: same, after adding the exponents at position i.  Only when the
  leading exponent cancels is the depth looked up again.
* d < i: g_i^x must move right past the leading syllable g_d^f.
  Since conjugation by g_d maps everything beyond depth d to itself,
  g_i^x g_d^f = g_d^f (g_i^{g_d^f})^x.  The pass clears g_d^f, pushes
  the power of the image into the rest, and puts g_d^f back.  When g_i
  and g_d commute by the presentation the image is g_i itself.
  Otherwise conjugation by g_d^f is the composite of the conjugations by
  g_d^(+-2^t) over the set bits t of abs(f), so the conjugate of g_i
  takes at most bitlength(abs(f)) steps.  The images of each generator
  under those conjugations are memoised on the presentation: the image
  at t = 0 is the stored (inverse) conjugate tail itself, and the image
  at t is the image at t - 1 conjugated once more, syllable by syllable,
  with the images at t - 1.

Images and power tails share the presentation's tail form: syllables
(index, exponent) in increasing index.  A power a^k of either whose
support commutes pairwise (:func:`_commute`; every image in UT(n, Z)
does) is a with its exponents scaled by k; any other power, and the
power of g_i in a pass past a commuting g_d, goes by binary powering.

Every operation is one call of the primitive with a different word: a
product a * b pushes the syllables of a into a copy of b, and an inverse
needs no collection of its own, since the inverse of s_1 ... s_m is the
word s_m^-1 ... s_1^-1, pushed into the identity or, for conjugates and
commutators, straight into a * b.
Element powers go by binary powering and carry the depths of their
operands.  Every element made by an operation keeps the depth that
collection returned, so the next operation on it starts without a scan.
The mutable lists never leave the call that made them; exponent vectors
of elements stay tuples, and so do memoised images and power tails.

All exponents are exact Python integers; nothing here is approximate.
A relative order is an int or :data:`INFINITE`, the one value used for
an infinite order.
"""

from __future__ import annotations

import math
import operator
from itertools import chain
from typing import Iterable

from .presentation import PcPresentation, Syllable, format_word, parse_word


class PresentationMismatch(ValueError):
    """Raised when operands are bound to different presentations."""


class _Infinite:
    """The type of :data:`INFINITE`: absorbs ints in a product, prints ``infinity``."""

    __slots__ = ()

    def __mul__(self, other):
        return self if isinstance(other, (int, _Infinite)) else NotImplemented

    __rmul__ = __mul__

    def __str__(self):
        return "infinity"

    def __repr__(self):
        return "INFINITE"

    def __reduce__(self):
        return "INFINITE"  # copy and pickle give back the module's singleton


INFINITE = _Infinite()


def check_binding(pres: PcPresentation, *elems):
    """Raise PresentationMismatch unless each element or igs is bound to pres."""
    for g in elems:
        if g.presentation is not pres and g.presentation != pres:
            raise PresentationMismatch(
                "elements are bound to different presentations")


Vector = tuple[int, ...]


def _depth(vec, start: int = 1) -> int:
    """Index of the first nonzero exponent at or after `start`, len(vec)+1 if none."""
    for k in range(start - 1, len(vec)):
        if vec[k]:
            return k + 1
    return len(vec) + 1


def _unit(pres: PcPresentation, i: int) -> Vector:
    return (0,) * (i - 1) + (1,) + (0,) * (pres.num_gens - i)


def _commute(pres: PcPresentation, syllables) -> bool:
    """Whether the generators of `syllables` commute pairwise, by the presentation."""
    support = clash = 0
    for j, _ in syllables:
        support |= 1 << (j - 1)
        clash |= pres.noncommuting[j - 1]
    return not clash & support


def _word(vec, d: int):
    """Syllables of the normal form `vec` of depth d, from right to left."""
    for k in range(len(vec), d - 1, -1):
        e = vec[k - 1]
        if e:
            yield k, e


def _inverse_word(vec, d: int):
    """Syllables of the inverse of `vec`, from right to left.

    (s_1 ... s_m)^-1 = s_m^-1 ... s_1^-1, so they are the syllables of
    vec from left to right with their exponents negated.
    """
    for k in range(d, len(vec) + 1):
        e = vec[k - 1]
        if e:
            yield k, -e


def _lmul(pres: PcPresentation, vec: list, d: int, word) -> int:
    """Left-multiply the normal form `vec` of depth d by a word, in place.

    `word` is an iterator, not a sequence, over the word's syllables
    (i, x) from right to left; each is pushed into vec in turn.  Returns
    the depth of the product.  vec must be a list private to the caller.

    A pass past g_d^f and a power-tail fold at i clear their position,
    link (word, position, exponent) onto `pending` and go on with the word
    they push into the rest; when a word runs out, the top frame's exponent
    is put back and its word resumes.  So carries and passes add no frames.
    """
    orders = pres.orders
    pending = None
    while True:
        for i, x in word:
            if not x:
                continue
            if d < i:
                # g_i^x g_d^f = g_d^f (g_i^(g_d^f))^x, and the product of the
                # power with the rest lies beyond depth d
                f = vec[d - 1]
                vec[d - 1] = 0
                pending = (word, d, f, pending)
                word = _pass_word(pres, i, x, d, f)
                d = _depth(vec, d + 1)
                break
            y = x + vec[i - 1]
            r = orders[i - 1]
            if r:
                q, y = divmod(y, r)
                if q and i in pres.powers:
                    # g_i^(qr) is the tail to the q, folded into the rest
                    vec[i - 1] = 0
                    d = _depth(vec, i + 1) if d == i else d
                    pending = (word, i, y, pending)
                    word = _power_word(pres, pres.power_tail(i), q)
                    break
            vec[i - 1] = y
            if y:
                d = i
            elif d == i:  # the leading exponent cancelled
                d = _depth(vec, i + 1)
        else:
            if pending is None:
                return d
            word, i, y, pending = pending
            vec[i - 1] = y
            if y:
                d = i


def _pass_word(pres: PcPresentation, i: int, x: int, d: int, f: int):
    """Syllables of (g_i^(g_d^f))^x, right to left, for d < i and f != 0.

    When g_i and g_d commute the image is g_i itself, and its power still
    goes by binary powering: pushing g_i^x as one syllable waits on a
    benchmark whose memory does not grow with throughput (ROADMAP item 1).
    """
    if pres.noncommuting[i - 1] >> (d - 1) & 1:
        return _power_word(pres, _gen_conj_by_power(pres, i, d, f), x)
    p, dp = _pow(pres, _unit(pres, i), i, x)
    return _word(p, dp)


def _power_word(pres: PcPresentation, a, k: int):
    """Syllables of a^k, right to left, for a nonempty syllable tuple a.

    When a's support commutes pairwise, (g_j1^e1 ... g_jm^em)^k =
    g_j1^(e1 k) ... g_jm^(em k), power relations included: a's syllables
    scaled by k.  Otherwise a^k goes by binary powering.
    """
    if _commute(pres, a):
        return ((j, e * k) for j, e in reversed(a))
    vec = [0] * pres.num_gens
    for j, e in a:
        vec[j - 1] = e
    p, dp = _pow(pres, vec, a[0][0], k)
    return _word(p, dp)


def _gen_conj_by_power(pres: PcPresentation, i: int, j: int, f: int):
    """Syllables of g_i conjugated by g_j^f, for j < i.

    The conjugations by g_j^(sign * 2^t) commute with each other, so they
    are applied over the set bits t of abs(f) from the lowest up.
    """
    if f == 0:
        return ((i, 1),)
    sign = 1 if f > 0 else -1
    f = abs(f)
    t = (f & -f).bit_length() - 1
    syl = _image(pres, i, j, sign, t)
    f >>= t + 1
    while f:
        t += 1
        if f & 1:
            syl = _conj_by_image(pres, syl, j, sign, t)
        f >>= 1
    return syl


def _image(pres: PcPresentation, k: int, j: int, sign: int, t: int):
    """Syllables of g_k conjugated by g_j^(sign * 2^t), for j < k.

    Memoised on the presentation under the key (k, j, sign, t); missing
    levels are filled bottom-up, each from the one below, so every level
    from 0 to t is present afterwards.  Each key has one possible value,
    so threads that fill the same level twice store the same syllables.
    """
    if pres.commutes(k, j):
        return ((k, 1),)
    memo = pres._memo
    syl = memo.get((k, j, sign, t))
    if syl is not None:
        return syl
    s = t - 1
    while s >= 0 and (k, j, sign, s) not in memo:
        s -= 1
    if s < 0:
        s = 0
        syl = memo[(k, j, sign, 0)] = pres.conjugate_tail(k, j, sign)
    else:
        syl = memo[(k, j, sign, s)]
    while s < t:
        syl = _conj_by_image(pres, syl, j, sign, s)
        s += 1
        memo[(k, j, sign, s)] = syl
    return syl


def _conj_by_image(pres: PcPresentation, syl, j: int, sign: int, t: int):
    """Conjugate the syllables of an element beyond depth j by g_j^(sign * 2^t)."""
    n = pres.num_gens
    result = [0] * n
    d = n + 1
    for k, e in reversed(syl):
        d = _lmul(pres, result, d, _power_word(pres, _image(pres, k, j, sign, t), e))
    return tuple((k, result[k - 1]) for k in range(d, n + 1) if result[k - 1])


def _collected(pres: PcPresentation, word, b: Vector, db: int):
    """The word times the normal form b of depth db, and its depth; see :func:`_lmul`."""
    vec = list(b)
    d = _lmul(pres, vec, db, word)
    return tuple(vec), d


def _pow(pres: PcPresentation, a, da: int, k: int):
    """a^k and its depth for a normal form a of depth da, by binary powering.

    Every intermediate is a fresh list; `a` itself is only read, and may
    be returned as it is.
    """
    n = pres.num_gens
    if k < 0:
        inv = [0] * n
        da = _lmul(pres, inv, n + 1, _inverse_word(a, da))
        a, k = inv, -k
    result, dr = (0,) * n, n + 1
    while k:
        if k & 1:
            if dr > n:  # the identity times a is a
                result, dr = a, da
            else:
                prod = list(a)
                dr = _lmul(pres, prod, da, _word(result, dr))
                result = prod
        k >>= 1
        if k:
            square = list(a)
            da = _lmul(pres, square, da, _word(a, da))
            a = square
    return result, dr


class Element:
    """A group element in normal form, bound to its presentation.

    Immutable value object; all arithmetic returns fresh elements and
    raises :class:`PresentationMismatch` when operands belong to
    different presentations.  An element made by arithmetic keeps the
    depth that collection returned; one made by the constructor finds its
    depth on first use.
    """

    __slots__ = ("presentation", "exponents", "_depth")

    def __init__(self, presentation: PcPresentation, exponents: Iterable[int]):
        exps = tuple(map(operator.index, exponents))
        if len(exps) != presentation.num_gens:
            raise ValueError(
                f"expected {presentation.num_gens} exponents, got {len(exps)}")
        for idx, r in enumerate(presentation.orders):
            if r and not 0 <= exps[idx] < r:
                raise ValueError(f"exponent {exps[idx]} of g{idx + 1} outside "
                                 f"normal-form range 0..{r - 1}")
        object.__setattr__(self, "presentation", presentation)
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def _wrap(cls, pres: PcPresentation, vec: Vector, d: int) -> Element:
        """Trusted: vec is a normal form of depth d."""
        self = object.__new__(cls)
        object.__setattr__(self, "presentation", pres)
        object.__setattr__(self, "exponents", vec)
        object.__setattr__(self, "_depth", d)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    def __reduce__(self):
        return (Element, (self.presentation, self.exponents))

    # -- basic queries ---------------------------------------------------

    @property
    def is_identity(self) -> bool:
        return self.depth() > len(self.exponents)

    def depth(self) -> int:
        try:
            return self._depth
        except AttributeError:  # made by the constructor, which stays lazy
            d = _depth(self.exponents)
            object.__setattr__(self, "_depth", d)
            return d

    def leading_exponent(self) -> int | None:
        d = self.depth()
        return None if d > len(self.exponents) else self.exponents[d - 1]

    def relative_order(self) -> int | _Infinite | None:
        """Order of the element in the cyclic quotient at its depth, or INFINITE."""
        d = self.depth()
        if d > len(self.exponents):
            return None
        r = self.presentation.orders[d - 1]
        if r == 0:
            return INFINITE
        return r // math.gcd(self.exponents[d - 1], r)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: Element) -> Element:
        pres = self.presentation
        check_binding(pres, other)
        word = _word(self.exponents, self.depth())
        return Element._wrap(pres, *_collected(pres, word, other.exponents, other.depth()))

    def inverse(self) -> Element:
        pres = self.presentation
        n = pres.num_gens
        word = _inverse_word(self.exponents, self.depth())
        return Element._wrap(pres, *_collected(pres, word, (0,) * n, n + 1))

    def __pow__(self, k: int) -> Element:
        k = operator.index(k)
        vec, d = _pow(self.presentation, self.exponents, self.depth(), k)
        return Element._wrap(self.presentation, tuple(vec), d)

    def conjugate(self, other: Element) -> Element:
        """self conjugated by other: other^-1 * self * other."""
        pres = self.presentation
        check_binding(pres, other)
        a, b, db = self.exponents, other.exponents, other.depth()
        word = chain(_word(a, self.depth()), _inverse_word(b, db))
        return Element._wrap(pres, *_collected(pres, word, b, db))

    def commutator(self, other: Element) -> Element:
        """self^-1 * other^-1 * self * other."""
        pres = self.presentation
        check_binding(pres, other)
        a, da, b, db = self.exponents, self.depth(), other.exponents, other.depth()
        word = chain(_word(a, da), _inverse_word(b, db), _inverse_word(a, da))
        return Element._wrap(pres, *_collected(pres, word, b, db))

    def normalised(self) -> Element:
        """The canonical power generating the same cyclic image at this depth.

        For infinite relative order at the depth this is the element or
        its inverse, whichever has positive leading exponent.  For a
        finite relative order r the result is the power whose leading
        exponent is gcd(l, r): writing l = x*y with x = gcd(l, r), the
        exponent y is invertible modulo r/x and the power z = y^-1 mod
        (r/x) satisfies l*z = x + k*r.  (Inverting modulo r itself does
        not work: l = 4, r = 6 gives y = 2, which has no inverse mod 6.)
        An element that is already normalised is returned as it is.
        """
        d = self.depth()
        n = len(self.exponents)
        if d > n:
            raise ValueError("the identity has no normalisation")
        lead = self.exponents[d - 1]
        r = self.presentation.orders[d - 1]
        if r == 0:
            return self if lead > 0 else self.inverse()
        x = math.gcd(lead, r)
        if lead == x:
            return self
        return self ** pow(lead // x, -1, r // x)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (self.exponents == other.exponents
                and (self.presentation is other.presentation
                     or self.presentation == other.presentation))

    def __hash__(self):
        return hash(self.exponents)

    def __str__(self):
        return format_word(enumerate(self.exponents, 1))

    def __repr__(self):
        return f"<Element {self}>"


# -- module-level constructors ------------------------------------------------

def identity(pres: PcPresentation) -> Element:
    return Element._wrap(pres, (0,) * pres.num_gens, pres.num_gens + 1)


def generator(pres: PcPresentation, i: int) -> Element:
    if not 1 <= i <= pres.num_gens:
        raise ValueError(f"generator index {i} out of range 1..{pres.num_gens}")
    return Element._wrap(pres, _unit(pres, i), i)


def generators(pres: PcPresentation) -> list[Element]:
    return [generator(pres, i) for i in range(1, pres.num_gens + 1)]


def collect(pres: PcPresentation, word: str | Iterable[Syllable]) -> Element:
    """Normal form of an arbitrary word: a syntax string or (index, exponent) pairs."""
    # checked in place; copying the pairs on every call makes peak RSS creep up
    entries = parse_word(word) if isinstance(word, str) else list(word)
    for i, e in entries:
        operator.index(e)  # a non-integer exponent is a TypeError
        if not 1 <= operator.index(i) <= pres.num_gens:
            raise ValueError(f"word uses generator index {i}, valid range is "
                             f"1..{pres.num_gens}")
    n = pres.num_gens
    return Element._wrap(pres, *_collected(pres, reversed(entries), (0,) * n, n + 1))

