from __future__ import annotations

import itertools
import math
import random

import pytest

import helpers
import polygauss as pg
from polygauss import INFINITE


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
