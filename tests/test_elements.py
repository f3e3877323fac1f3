from __future__ import annotations

import copy
import inspect
import itertools
import math
import pickle
import random
import sys
import threading

import pytest

import helpers
import polygauss as pg
import polygauss.elements as elements
from polygauss import INFINITE
from polygauss.elements import _gen_conj_by_power as _conj


# -- tiny permutation machinery, an oracle wholly independent of collection --

def _pmul(p, q):
    """Apply p, then q; matches the left-to-right product of group words."""
    return tuple(q[x] for x in p)


def _ppow(p, e):
    n = len(p)
    r = tuple(range(n))
    if e < 0:
        inv = [0] * n
        for a, b in enumerate(p):
            inv[b] = a
        return _ppow(tuple(inv), -e)
    for _ in range(e):
        r = _pmul(r, p)
    return r


def _perm_model(pres, images):
    """Map each normal form to its permutation; asserts the model is faithful."""
    table = {}
    for exps in itertools.product(*(range(r) for r in pres.orders)):
        perm = tuple(range(len(images[0])))
        for img, e in zip(images, exps):
            perm = _pmul(perm, _ppow(img, e))
        assert perm not in table, "permutation model is not faithful"
        table[perm] = exps
    return table


def _word_perm(images, word):
    perm = tuple(range(len(images[0])))
    for i, e in word:
        perm = _pmul(perm, _ppow(images[i - 1], e))
    return perm


D8_PERMS = [(2, 1, 0, 3), (1, 2, 3, 0), (2, 3, 0, 1)]  # reflection, quarter, half turn
S4_PERMS = [(1, 0, 2, 3), (1, 2, 0, 3), (1, 0, 3, 2), (2, 3, 0, 1)]


@pytest.mark.parametrize("name,images", [("d8", D8_PERMS), ("s4", S4_PERMS)])
def test_collect_matches_permutation_model(name, images):
    pres = helpers.finite_corpus()[name]
    model = _perm_model(pres, images)
    rng = random.Random(101)
    for _ in range(300):
        word = helpers.random_word(pres, rng, length=6, spread=4)
        expected = model[_word_perm(images, word)]
        assert pg.collect(pres, word).exponents == expected


def test_public_names_resolve():
    # `from polygauss import *` fails on any stale entry of __all__
    missing = [name for name in pg.__all__ if not hasattr(pg, name)]
    assert missing == []


def test_collect_empty_word_is_identity(d8):
    assert pg.collect(d8, tuple([])).is_identity
    assert pg.collect(d8, "1") == pg.identity(d8)


def test_collect_d8_swap(d8):
    # g2 g1 = g1 g2 g3 by the stored conjugate relation
    assert pg.collect(d8, "g2*g1").exponents == (1, 1, 1)


def test_collect_free_abelian(z2):
    assert pg.collect(z2, "g1^3*g2^-1*g1^1").exponents == (4, -1)


def test_collect_rejects_unknown_generator(d8):
    with pytest.raises(ValueError):
        pg.collect(d8, "g4")
    with pytest.raises(ValueError):
        pg.generator(d8, 0)


def test_multiply_inverse_gives_identity(corpus):
    rng = random.Random(7)
    for pres in corpus.values():
        for _ in range(20):
            x = helpers.random_element(pres, rng)
            assert (x * x.inverse()).is_identity
            assert (x.inverse() * x).is_identity


def test_commutator_d8(d8):
    g1, g2, _ = pg.generators(d8)
    assert g2.commutator(g1).exponents == (0, 0, 1)
    model = _perm_model(d8, D8_PERMS)
    rng = random.Random(13)
    for _ in range(50):
        a = helpers.random_element(d8, rng)
        b = helpers.random_element(d8, rng)
        ap = _word_perm(D8_PERMS, [(i + 1, e) for i, e in enumerate(a.exponents)])
        bp = _word_perm(D8_PERMS, [(i + 1, e) for i, e in enumerate(b.exponents)])
        comm = _pmul(_pmul(_ppow(ap, -1), _ppow(bp, -1)), _pmul(ap, bp))
        assert a.commutator(b).exponents == model[comm]


def test_power_reduces_modulo_order():
    z4 = helpers.cyclic(4)
    g1 = pg.generator(z4, 1)
    assert (g1 ** 6).exponents == (2,)
    assert (g1 ** -1).exponents == (3,)
    assert (g1 ** 0).is_identity


def test_stats_identity(d8):
    one = pg.identity(d8)
    assert one.depth() == 4
    assert one.leading_exponent() is None
    assert one.relative_order() is None


def test_stats_finite_depth():
    z6 = helpers.cyclic(6)
    a = pg.Element(z6, (4,))
    assert (a.depth(), a.leading_exponent(), a.relative_order()) == (1, 4, 3)


def test_stats_infinite_depth(z2):
    a = pg.Element(z2, (0, -7))
    assert a.depth() == 2
    assert a.leading_exponent() == -7
    assert a.relative_order() == INFINITE


def test_normalise_negative_lead_infinite(z2):
    a = pg.Element(z2, (-5, 2))
    h = a.normalised()
    assert h == a.inverse()
    assert h.leading_exponent() == 5


def test_normalise_z6_regression():
    # lead 4, r 6: the exponent 2 = 4/gcd(4,6) has no inverse mod 6, the
    # normalising power must be computed modulo 6/gcd = 3
    z6 = helpers.cyclic(6)
    a = pg.Element(z6, (4,))
    h = a.normalised()
    assert h.exponents == (2,)
    assert pg.enumerate_subgroup(z6, [a]) == pg.enumerate_subgroup(z6, [h])


def test_normalise_z5_makes_gcd_lead():
    z5 = helpers.cyclic(5)
    h = pg.Element(z5, (3,)).normalised()
    assert h.exponents == (1,)
    assert pg.enumerate_subgroup(z5, [pg.Element(z5, (3,))]) == \
        set(pg.FiniteGroupTable(z5).elements)


def test_normalise_identity_rejected(d8):
    with pytest.raises(ValueError):
        pg.identity(d8).normalised()


def _tail_generators(pres, depth):
    return [pg.generator(pres, i) for i in range(depth + 1, pres.num_gens + 1)]


def test_normalise_contract_random(corpus):
    rng = random.Random(23)
    for pres in corpus.values():
        for _ in range(25):
            a = helpers.random_element(pres, rng)
            if a.is_identity:
                continue
            h = a.normalised()
            d = a.depth()
            assert h.depth() == d
            assert a.leading_exponent() % h.leading_exponent() == 0
            assert h.normalised() is h  # a normalised element is returned as it is
            r = pres.orders[d - 1]
            if r > 0:
                assert h.leading_exponent() == math.gcd(a.leading_exponent(), r)
            # same subgroup together with everything below the depth
            tail = _tail_generators(pres, d)
            assert pg.enumerate_subgroup(pres, [a] + tail) == \
                pg.enumerate_subgroup(pres, [h] + tail)


def test_power_of_relative_order_sinks(corpus):
    rng = random.Random(29)
    for pres in corpus.values():
        for _ in range(25):
            a = helpers.random_element(pres, rng)
            if a.is_identity:
                continue
            rel = a.relative_order()
            assert rel is not INFINITE
            assert (a ** rel).depth() > a.depth()


def test_collect_is_homomorphism(corpus, heis, dinf, z2):
    rng = random.Random(31)
    groups = list(corpus.values()) + [heis, dinf, z2]
    for pres in groups:
        for _ in range(30):
            u = helpers.random_word(pres, rng)
            v = helpers.random_word(pres, rng)
            combined = tuple(tuple(u) + tuple(v))
            assert pg.collect(pres, combined) == \
                pg.collect(pres, u) * pg.collect(pres, v)
            a = pg.collect(pres, u)
            again = tuple([(i + 1, e) for i, e in enumerate(a.exponents)])
            assert pg.collect(pres, again) == a


def test_multiplication_associative(corpus, heis, dinf):
    rng = random.Random(37)
    for pres in list(corpus.values()) + [heis, dinf]:
        for _ in range(20):
            a = helpers.random_element(pres, rng, spread=4)
            b = helpers.random_element(pres, rng, spread=4)
            c = helpers.random_element(pres, rng, spread=4)
            assert (a * b) * c == a * (b * c)


def test_conjugate_definition(corpus):
    rng = random.Random(41)
    for pres in corpus.values():
        a = helpers.random_element(pres, rng)
        b = helpers.random_element(pres, rng)
        assert a.conjugate(b) == b.inverse() * a * b
        assert a.commutator(b) == a.inverse() * b.inverse() * a * b


def test_mixed_presentation_rejected(d8):
    other = pg.load_presentation(pg.save_presentation(d8))
    assert pg.generator(d8, 1) * pg.generator(other, 1) == pg.generator(d8, 1) ** 2
    z4 = helpers.cyclic(4)
    with pytest.raises(pg.PresentationMismatch):
        pg.generator(d8, 1) * pg.generator(z4, 1)


def test_element_vector_validation(d8):
    with pytest.raises(ValueError):
        pg.Element(d8, (2, 0, 0))
    with pytest.raises(ValueError):
        pg.Element(d8, (0, 0))


def test_element_rejects_float_exponent(z2):
    with pytest.raises(TypeError):
        pg.Element(z2, (1.7, 0))


def test_element_rejects_string_exponent(z2):
    with pytest.raises(TypeError):
        pg.Element(z2, ('3', 0))


def test_collect_rejects_float_exponent(z2):
    with pytest.raises(TypeError):
        pg.collect(z2, [(1, 2.9)])
    with pytest.raises(TypeError):
        pg.collect(z2, [(1.0, 2)])


def test_power_rejects_float(z2):
    x = pg.generator(z2, 1)
    # the exponent is checked up front, not deep inside collection
    with pytest.raises(TypeError, match="as an integer"):
        x ** 2.5


def test_infinite_exponents_grow_exactly(heis):
    # with y^x = y z the commutator [y^b, x^a] collects to z^(a b) exactly
    x, y, _ = pg.generators(heis)
    assert (y ** 50).commutator(x ** 50).exponents == (0, 0, 2500)
    assert (x ** 50).commutator(y ** 50).exponents == (0, 0, -2500)
    assert ((x ** 50) * (y ** 50)).exponents == (50, 50, 0)


# -- conjugation by g_j^f from memoised power-of-two images --------------------

# A self-contained reference collector on exponent vectors that conjugates
# by g_d^f one g_d at a time.  It shares no code with the library's
# collector, so a fault in the memoised images cannot show on both sides.

def _ref_vec(pres, syllables):
    vec = [0] * pres.num_gens
    for k, e in syllables:
        vec[k - 1] = e
    return tuple(vec)


def _ref_syllables(vec):
    return [(k, e) for k, e in enumerate(vec, 1) if e]


def _ref_lmul(pres, i, x, vec):
    """Normal form of g_i^x times the normal form vec."""
    if x == 0:
        return vec
    d = next((k for k, e in _ref_syllables(vec)), pres.num_gens + 1)
    if d < i:
        f, rest = vec[d - 1], vec[:d - 1] + (0,) + vec[d:]
        conj = _ref_vec(pres, [(i, 1)])
        for _ in range(abs(f)):
            conj = _ref_conj_step(pres, conj, d, 1 if f > 0 else -1)
        out = list(_ref_mul(pres, _ref_pow(pres, conj, x), rest))
        out[d - 1] = f
        return tuple(out)
    y, out = x + vec[i - 1], list(vec)
    out[i - 1] = 0
    rest = tuple(out)
    r = pres.orders[i - 1]
    if r:
        q, y = divmod(y, r)
        if q:
            tail = _ref_vec(pres, pres.power_tail(i))
            rest = _ref_mul(pres, _ref_pow(pres, tail, q), rest)
    out = list(rest)
    out[i - 1] = y
    return tuple(out)


def _ref_mul(pres, a, b):
    for k, e in reversed(_ref_syllables(a)):
        b = _ref_lmul(pres, k, e, b)
    return b


def _ref_pow(pres, a, k):
    if k < 0:
        inv = (0,) * pres.num_gens
        for i, e in _ref_syllables(a):
            inv = _ref_lmul(pres, i, -e, inv)
        a, k = inv, -k
    result = (0,) * pres.num_gens
    while k:
        if k & 1:
            result = _ref_mul(pres, result, a)
        k >>= 1
        a = _ref_mul(pres, a, a)
    return result


def _ref_conj_step(pres, vec, j, sign):
    """Conjugate an element beyond depth j by g_j**sign, syllable by syllable."""
    result = (0,) * pres.num_gens
    for k, e in reversed(_ref_syllables(vec)):
        image = _ref_vec(pres, pres.conjugate_tail(k, j, sign))
        result = _ref_mul(pres, _ref_pow(pres, image, e), result)
    return result


def _conj_by_steps(pres, i, j, sign, steps):
    """Yield g_i conjugated by g_j^(sign * f) for f = 1..steps, by the reference."""
    vec = _ref_vec(pres, [(i, 1)])
    for _ in range(steps):
        vec = _ref_conj_step(pres, vec, j, sign)
        yield vec


def _noncommuting_pairs(pres):
    return [(i, j) for i in range(2, pres.num_gens + 1) for j in range(1, i)
            if not pres.commutes(i, j)]


def _shear_heisenberg():
    """Z acting on the Heisenberg group <x, y, z> by x -> x y.

    The image of x is x y, whose syllables do not commute ([y, x] = z),
    so the order in which an image is put together matters.
    """
    return pg.load_presentation("pcp 4\norders 0 0 0 0\n"
                                "conj 2 1 2^1 3^1\ninvconj 2 1 2^1 3^-1\n"
                                "conj 3 2 3^1 4^1\ninvconj 3 2 3^1 4^-1\n")


def _conjugation_corpus():
    groups = {path.stem: helpers.load_data(path.name)
              for path in sorted(helpers.DATA.glob("*.pcp"))}
    groups.update({f"ut{n}": helpers.unitriangular(n) for n in (4, 5, 6)})
    groups["ut4_mod3"] = helpers.unitriangular(4, 3)
    groups["stray_invconj_z8"] = helpers.stray_invconj_z8()
    groups["shear_heisenberg"] = _shear_heisenberg()
    return groups


@pytest.mark.parametrize("name", sorted(_conjugation_corpus()))
def test_conjugation_matches_step_by_step(name):
    pres = _conjugation_corpus()[name]
    for i in range(2, pres.num_gens + 1):
        for j in range(1, i):
            assert _ref_vec(pres, _conj(pres, i, j, 0)) == pg.generator(pres, i).exponents
    for i, j in _noncommuting_pairs(pres):
        # collection conjugates by a negative power of g_j only when r_j = 0
        for sign in (1, -1) if pres.orders[j - 1] == 0 else (1,):
            steps = _conj_by_steps(pres, i, j, sign, 300)
            for f, expected in enumerate(steps, 1):
                assert _ref_vec(pres, _conj(pres, i, j, sign * f)) == expected, (i, j, sign * f)
    if name == "stray_invconj_z8":
        # the stray invconj entry is never read, so every pair commutes
        assert not _noncommuting_pairs(pres)


def _collection_corpus():
    groups = _conjugation_corpus()
    groups["ut5_mod3"] = helpers.unitriangular(5, 3)
    groups["carry_chain_12"] = helpers.carry_chain(12)  # power tails and carries
    return groups


def _ref_collect(pres, word):
    vec = (0,) * pres.num_gens
    for i, e in reversed(word):
        vec = _ref_lmul(pres, i, e, vec)
    return vec


@pytest.mark.parametrize("name", sorted(_collection_corpus()))
def test_collection_matches_reference(name, monkeypatch):
    # every entry point against the reference collector above: 25 rounds
    # of 6 operations on each of 16 groups.  Operands are short words
    # collected by the reference, which stays fast on UT(6, Z).
    pres = _collection_corpus()[name]
    rng = random.Random(sum(map(ord, name)))
    pass_word = elements._pass_word

    def past_leading_syllable(pres, i, x, d, f):
        # every pass, commuting or not, reads f = vec[d - 1]; a stale depth
        # would send g_i past an empty slot d: same product, wasted work
        assert f, f"g{i} passes g{d}^0"
        return pass_word(pres, i, x, d, f)

    monkeypatch.setattr(elements, "_pass_word", past_leading_syllable)

    def operand():
        word = helpers.random_word(pres, rng, length=3, spread=2)
        return pg.Element(pres, _ref_collect(pres, word))

    for _ in range(25):
        word = helpers.random_word(pres, rng, length=4, spread=2)
        collected = pg.collect(pres, word)
        assert collected.exponents == _ref_collect(pres, word), word
        x, y = operand(), operand()
        a, b = x.exponents, y.exponents
        k = rng.choice([-1, 1]) * rng.randint(2, 5)
        ref_ab = _ref_mul(pres, a, b)
        ref_inv_a, ref_inv_b = _ref_pow(pres, a, -1), _ref_pow(pres, b, -1)
        results = [collected, x * y, x.inverse(), x ** k, x.conjugate(y),
                   x.commutator(y)]
        # each result keeps the depth collection returned, unscanned
        assert [u._depth for u in results] == \
            [elements._depth(u.exponents) for u in results]
        product, inverse, power, conjugate, commutator = results[1:]
        assert product.exponents == ref_ab, (a, b)
        assert inverse.exponents == ref_inv_a, a
        assert power.exponents == _ref_pow(pres, a, k), (a, k)
        assert conjugate.exponents == _ref_mul(pres, ref_inv_b, ref_ab), (a, b)
        assert commutator.exponents == _ref_mul(
            pres, ref_inv_a, _ref_mul(pres, ref_inv_b, ref_ab)), (a, b)


def test_collection_stack_depth_is_bounded():
    # carries and passes inside one collection add no Python frames: a
    # carry through all 800 power tails of Z/2^800, and the closure of the
    # all-ones element of Z/2^48, whose powers carry and pass throughout,
    # run with 30 frames to spare
    chain800, chain48 = helpers.carry_chain(800), helpers.carry_chain(48)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        assert pg.collect(chain800, [(1, -1)]).exponents == (1,) * 800
        seq = pg.igs_by_generators(chain48, [pg.Element(chain48, (1,) * 48)])
    finally:
        sys.setrecursionlimit(limit)
    assert pg.subgroup_order(seq) == 2 ** 48


def test_collection_never_writes_into_shared_vectors():
    # in-place collection works on private lists only: operands, power
    # tails and memoised images are never written and stay tuples
    groups = [helpers.unitriangular(4), helpers.unitriangular(4, 3),
              helpers.carry_chain(6), helpers.extraspecial27(), _shear_heisenberg()]
    rng = random.Random(17)
    for pres in groups:
        powers = {i: tuple(t) for i, t in pres.powers.items()}
        operands = [helpers.random_element(pres, rng, spread=5) for _ in range(8)]
        before = [list(x.exponents) for x in operands]
        memo = {}
        for _ in range(2):
            results = []
            for _ in range(40):
                x, y = rng.choice(operands), rng.choice(operands)
                results += [x * y, x.inverse(), x ** rng.randint(-9, 9),
                            x.conjugate(y), x.commutator(y),
                            pg.collect(pres, helpers.random_word(pres, rng, spread=9))]
            operands += results[::7]
            before += [list(u.exponents) for u in results[::7]]
            assert all(type(u.exponents) is tuple for u in results)
            assert [list(x.exponents) for x in operands] == before
            assert all(type(x.exponents) is tuple for x in operands)
            # images memoised in the first round are unchanged in the second
            assert all(type(v) is tuple for v in pres._memo.values())
            assert all(list(pres._memo[key]) == v for key, v in memo.items())
            memo = {key: list(v) for key, v in pres._memo.items()}
            # images share the power tails' form: syllables beyond depth j
            # with strictly increasing indices and exponents in normal form
            for (_, j, _, _), syllables in pres._memo.items():
                assert syllables  # _power_word reads the depth off the first
                prev = j
                for k, e in syllables:
                    r = pres.orders[k - 1]
                    assert k > prev and e and (not r or 0 < e < r), syllables
                    prev = k
        assert memo or not pres.conjugates  # the memo check was not vacuous
        with pytest.raises(AttributeError):
            operands[0].exponents = before[0]
        assert {i: tuple(t) for i, t in pres.powers.items()} == powers
        assert all(type(pres.power_tail(i)) is tuple for i in pres.powers)


def _ut_matrix(n, word, p=0):
    """Left-to-right product of elementary matrices I + e*E_ij in UT(n, Z/p)."""
    pairs = [(i, i + h) for h in range(1, n) for i in range(1, n - h + 1)]
    m = [[int(r == c) for c in range(n)] for r in range(n)]
    for a, e in word:
        i, j = pairs[a - 1]
        for row in m:  # right multiplication adds e * column i to column j
            row[j - 1] += e * row[i - 1]
    return [[v % p for v in row] for row in m] if p else m


def _memo_bound(pres, largest_f):
    return 2 * len(_noncommuting_pairs(pres)) * largest_f.bit_length()


def _record_largest_f(monkeypatch):
    seen = [0]
    conj = elements._gen_conj_by_power

    def recording(pres, i, j, f):
        seen[0] = max(seen[0], abs(f))
        return conj(pres, i, j, f)

    monkeypatch.setattr(elements, "_gen_conj_by_power", recording)
    return seen


def test_conjugation_exact_at_large_exponents(monkeypatch):
    seen = _record_largest_f(monkeypatch)
    ut3 = helpers.unitriangular(3)
    k = 2 ** 64 + 3
    word = ((2, k), (1, k))  # y^k x^k with x = e_12, y = e_23
    result = pg.collect(ut3, word)
    assert result.exponents == (k, k, -k * k)
    assert _ut_matrix(3, word) == _ut_matrix(3, enumerate(result.exponents, 1))
    assert seen[0] == k
    assert len(ut3._memo) <= _memo_bound(ut3, seen[0])

    ut5 = helpers.unitriangular(5)
    rng = random.Random(40)
    for _ in range(20):
        word = [(rng.randint(1, 10), rng.randint(-2 ** 40, 2 ** 40))
                for _ in range(rng.randint(2, 5))]
        result = pg.collect(ut5, word)
        assert _ut_matrix(5, word) == _ut_matrix(5, enumerate(result.exponents, 1)), word
    assert seen[0] >= 2 ** 39
    assert len(ut5._memo) <= _memo_bound(ut5, seen[0])

    ut4_mod3 = helpers.unitriangular(4, 3)
    for _ in range(20):
        word = [(rng.randint(1, 6), rng.randint(-2 ** 40, 2 ** 40))
                for _ in range(rng.randint(2, 6))]
        result = pg.collect(ut4_mod3, word)
        assert _ut_matrix(4, word, 3) == _ut_matrix(4, enumerate(result.exponents, 1), 3)


def _record_pow_operands(monkeypatch):
    """Record the number of syllables of each operand elements._pow powers."""
    sizes = []
    pow_ = elements._pow

    def recording(pres, a, da, k):
        sizes.append(sum(1 for e in a if e))
        return pow_(pres, a, da, k)

    monkeypatch.setattr(elements, "_pow", recording)
    return sizes


def test_images_with_commuting_support_are_scaled(monkeypatch):
    # in UT(n, Z) every conjugate image of a generator has a support that
    # commutes pairwise, so its powers are its exponents scaled
    sizes = _record_pow_operands(monkeypatch)
    ut3 = helpers.unitriangular(3)
    k = 2 ** 64 + 3
    assert pg.collect(ut3, ((2, k), (1, k))).exponents == (k, k, -k * k)
    assert sizes == []

    # a pass past a commuting generator still powers that one generator
    # by squaring; nothing larger is powered
    ut5 = helpers.unitriangular(5)
    rng = random.Random(41)
    for _ in range(20):
        word = [(rng.randint(1, 10), rng.randint(-2 ** 40, 2 ** 40))
                for _ in range(rng.randint(2, 5))]
        result = pg.collect(ut5, word)
        assert _ut_matrix(5, word) == _ut_matrix(5, enumerate(result.exponents, 1)), word
    assert set(sizes) == {1}

    # the image g2 g3 of g2 under g1 has syllables that do not commute
    # ([g3, g2] = g4), so its power goes by squaring
    sizes.clear()
    pres = _shear_heisenberg()
    word = ((2, 37), (1, 11))
    assert pg.collect(pres, word).exponents == _ref_collect(pres, word)
    assert 2 in sizes


def test_memo_is_invisible():
    warm, cold = helpers.unitriangular(4), helpers.unitriangular(4)
    rng = random.Random(5)
    words = [helpers.random_word(warm, rng, length=6, spread=1000) for _ in range(20)]
    results = [pg.collect(warm, w) for w in words]
    assert warm._memo and not cold._memo
    assert warm == cold and hash(warm) == hash(cold)
    assert results == [pg.collect(cold, w) for w in words]


def test_empty_power_relation_is_skipped():
    # UT(3, Z/3) stores no power tails: overflowing exponents just wrap
    pres = helpers.unitriangular(3, 3)
    assert not pres.powers
    word = [(1, 7), (2, 5), (1, -4), (3, 4)]
    result = pg.collect(pres, word)
    assert result.exponents == (0, 2, 0)
    assert _ut_matrix(3, word, 3) == _ut_matrix(3, enumerate(result.exponents, 1), 3)
    assert pres._memo.keys() <= {(2, 1, 1, t) for t in range(3)}
    # a nonempty power tail is still applied: g1^5 = g1 g3 in Z/8
    z8 = helpers.carry_chain(3)
    assert pg.collect(z8, [(1, 5)]).exponents == (1, 0, 1)


@pytest.mark.parametrize("roundtrip", [copy.deepcopy,
                                       lambda x: pickle.loads(pickle.dumps(x))])
def test_values_copy_and_pickle_from_a_warm_memo(roundtrip):
    pres = helpers.unitriangular(4)
    x = pg.collect(pres, [(2, 40), (1, -37), (3, 9)])
    seq = pg.igs_by_generators(pres, [x, pg.generator(pres, 5) ** 3])
    assert pres._memo
    pres2, x2, seq2 = roundtrip((pres, x, seq))
    assert not pres2._memo
    assert (pres2, x2, seq2) == (pres, x, seq)
    assert (hash(pres2), hash(x2), hash(seq2)) == (hash(pres), hash(x), hash(seq))
    assert x2.presentation is pres2 and seq2.presentation is pres2
    word = [(3, -5), (1, 11), (2, 6), (4, 2)]
    assert pg.collect(pres2, word).exponents == pg.collect(pres, word).exponents
    assert (x2 * x2).exponents == (x * x).exponents


def test_memo_shared_across_threads():
    # threads filling one cold memo at once may compute an image twice,
    # but each key has one value, so every result stays exact
    shared, reference = helpers.unitriangular(5), helpers.unitriangular(5)
    rng = random.Random(8)
    words = [helpers.random_word(shared, rng, length=6, spread=10 ** 6)
             for _ in range(12)]
    expected = [pg.collect(reference, w) for w in words]
    results = {}

    def work(worker):
        for n, w in enumerate(words[worker:] + words[:worker]):
            results[worker, (n + worker) % len(words)] = pg.collect(shared, w)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {(k, n): expected[n] for k in range(4) for n in range(len(words))}
    assert shared._memo == reference._memo
