from __future__ import annotations

import copy
import hashlib
import pickle
import random
import sys
from collections import deque

import pytest

import helpers
import polygauss as pg
from polygauss import INFINITE
from polygauss.igs import _divided, _power_is_trivial, _xgcd


def _subgroup_igs(pres, gens):
    return pg.igs_by_generators(pres, gens)


def test_add_identity_is_noop(d8):
    empty = pg.Igs(d8, ())
    result, changes = pg.add_gen_to_pigs(empty, pg.identity(d8))
    assert result == empty
    assert changes == {}


def test_add_gen_free_abelian_gcd(z2):
    # rows (2,0) and (3,0) combine to the gcd row (1,0); slot 2 stays empty
    state = pg.Igs(z2, ())
    state, _ = pg.add_gen_to_pigs(state, pg.Element(z2, (2, 0)))
    state, changes = pg.add_gen_to_pigs(state, pg.Element(z2, (3, 0)))
    assert list(state) == [pg.Element(z2, (1, 0))]
    assert changes == {1: pg.Element(z2, (1, 0))}
    hnf, pivots = pg.hermite_normal_form([[2, 0], [3, 0]])
    assert hnf == [[1, 0]] and pivots == [1]


def test_add_gen_normalises_and_leaves_no_residue():
    z4 = helpers.cyclic(4)
    state, changes = pg.add_gen_to_pigs(pg.Igs(z4, ()),
                                        pg.Element(z4, (2,)))
    assert list(state) == [pg.Element(z4, (2,))]
    assert changes == {1: pg.Element(z4, (2,))}
    assert pg.enumerate_subgroup(z4, [pg.Element(z4, (2,))]) == \
        {pg.identity(z4), pg.Element(z4, (2,))}


def test_add_gen_preserves_generated_subgroup(corpus):
    rng = random.Random(43)
    for pres in corpus.values():
        state = pg.Igs(pres, ())
        for _ in range(6):
            g = helpers.random_element(pres, rng)
            before = pg.enumerate_subgroup(pres, list(state) + [g])
            state, _ = pg.add_gen_to_pigs(state, g)
            assert pg.enumerate_subgroup(pres, list(state)) == before


def test_igs_of_nothing_is_trivial(d8):
    seq = _subgroup_igs(d8, [])
    assert len(seq) == 0
    assert pg.subgroup_order(seq) == 1
    assert pg.verify_igs(list(seq.gens))


def test_igs_d8_cyclic_part(d8):
    g1, g2, g3 = pg.generators(d8)
    seq = _subgroup_igs(d8, [g2])
    assert [u.exponents for u in seq] == [(0, 1, 0), (0, 0, 1)]
    assert pg.enumerate_subgroup(d8, [g2]) == \
        {g for g in pg.FiniteGroupTable(d8) if pg.sift(seq, g).membership}


def test_igs_d8_whole_group(d8):
    g1, g2, _ = pg.generators(d8)
    seq = _subgroup_igs(d8, [g1, g2])
    assert [u.depth() for u in seq] == [1, 2, 3]
    assert pg.subgroup_order(seq) == 8


def test_identity_generators_skipped(d8):
    seq = _subgroup_igs(d8, [pg.identity(d8), pg.generator(d8, 3)])
    assert [u.exponents for u in seq] == [(0, 0, 1)]


def test_verify_igs_accepts_outputs(corpus):
    rng = random.Random(47)
    for pres in corpus.values():
        for _ in range(10):
            gens = [helpers.random_element(pres, rng) for _ in range(2)]
            seq = _subgroup_igs(pres, gens)
            assert pg.verify_igs(list(seq.gens))
            # elimination builds its Igs unchecked: the checked
            # constructor accepts it, and its entries are normalised
            assert pg.Igs(pres, seq.gens) == seq
            assert all(u.normalised() is u for u in seq)


def test_verify_igs_examples(d8):
    g1, g2, g3 = pg.generators(d8)
    assert pg.verify_igs([]) is True
    # g2^2 = g3 escapes the suffix: condition on relative-order powers fails
    assert pg.verify_igs([g1, g2]) is False
    assert pg.verify_igs([g2, g3]) is True
    # depths must strictly increase
    assert pg.verify_igs([g3, g2]) is False
    assert pg.verify_igs([pg.identity(d8)]) is False


def test_subgroup_order_and_index_d8(d8):
    seq = _subgroup_igs(d8, [pg.generator(d8, 2)])
    assert pg.subgroup_order(seq) == 4
    assert pg.subgroup_index(d8, seq) == 2


def test_subgroup_order_and_index_free_abelian(z2):
    seq = _subgroup_igs(z2, [pg.Element(z2, (2, 1)), pg.Element(z2, (0, 3))])
    assert pg.subgroup_order(seq) == INFINITE
    assert pg.subgroup_index(z2, seq) == 6


def test_empty_igs_in_free_abelian(z2):
    seq = _subgroup_igs(z2, [])
    assert pg.subgroup_order(seq) == 1
    assert pg.subgroup_index(z2, seq) == INFINITE


def test_orders_are_ints_or_infinite(d8, z2):
    seq = _subgroup_igs(d8, [pg.generator(d8, 2)])
    values = [pg.subgroup_order(seq), pg.subgroup_index(d8, seq)]
    values += [u.relative_order() for u in seq]
    assert values == [4, 2, 2, 2] and all(type(v) is int for v in values)
    seq = _subgroup_igs(z2, [pg.Element(z2, (0, 3))])
    assert pg.subgroup_order(seq) is pg.INFINITE
    assert pg.subgroup_index(z2, seq) is pg.INFINITE
    assert seq.gens[0].relative_order() is pg.INFINITE
    assert str(pg.INFINITE) == "infinity" and repr(pg.INFINITE) == "INFINITE"
    assert 3 * pg.INFINITE is pg.INFINITE and pg.INFINITE * pg.INFINITE is pg.INFINITE
    assert copy.deepcopy(pg.INFINITE) is pg.INFINITE
    assert pickle.loads(pickle.dumps(pg.INFINITE)) is pg.INFINITE


def test_sift_examples(d8, z2):
    lattice = _subgroup_igs(z2, [pg.Element(z2, (2, 0)), pg.Element(z2, (0, 3))])
    assert pg.sift(lattice, pg.identity(z2)).membership
    assert pg.sift(lattice, pg.Element(z2, (4, 3))).membership
    assert not pg.sift(lattice, pg.Element(z2, (1, 0))).membership
    cyclic_part = _subgroup_igs(d8, [pg.generator(d8, 2)])
    assert not pg.sift(cyclic_part, pg.generator(d8, 1)).membership


def test_sift_residue_depth_never_decreases(z2):
    lattice = _subgroup_igs(z2, [pg.Element(z2, (2, 0)), pg.Element(z2, (0, 3))])
    res = pg.sift(lattice, pg.Element(z2, (4, 1)))
    assert not res.membership
    assert res.residue == pg.Element(z2, (0, 1))


def test_canonical_reduces_above_pivots(z2):
    seq = pg.Igs(z2, [pg.Element(z2, (2, 5)), pg.Element(z2, (0, 3))])
    reduced = pg.canonical_igs(seq)
    assert [u.exponents for u in reduced] == [(2, 2), (0, 3)]
    assert pg.canonical_igs(reduced) == reduced


def test_canonical_is_idempotent_random(z2):
    rng = random.Random(53)
    for _ in range(50):
        rows = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(3)]
        seq = _subgroup_igs(z2, [pg.Element(z2, r) for r in rows])
        reduced = pg.canonical_igs(seq)
        assert pg.canonical_igs(reduced) == reduced


def test_canonical_same_subgroup_d8(d8):
    g1, g2, g3 = pg.generators(d8)
    seq = pg.Igs(d8, [g2 * g3, g3])
    reduced = pg.canonical_igs(seq)
    assert [u.exponents for u in reduced] == [(0, 1, 0), (0, 0, 1)]
    assert pg.enumerate_subgroup(d8, [g2 * g3, g3]) == \
        pg.enumerate_subgroup(d8, list(reduced.gens))


def test_subgroups_equal_examples(d8, z2):
    assert pg.subgroups_equal(
        [pg.Element(z2, (2, 1)), pg.Element(z2, (0, 3))],
        [pg.Element(z2, (2, 4)), pg.Element(z2, (0, 3))])
    g1, g2, g3 = pg.generators(d8)
    assert pg.subgroups_equal([g2], [g2 * g3])
    assert not pg.subgroups_equal([g1], [g3])
    assert pg.subgroups_equal([], [])


def test_subgroups_equal_reflexive_and_symmetric(corpus):
    rng = random.Random(109)
    for pres in corpus.values():
        us = [helpers.random_element(pres, rng) for _ in range(2)]
        vs = [helpers.random_element(pres, rng) for _ in range(2)]
        assert pg.subgroups_equal(us, us)
        assert pg.subgroups_equal(list(reversed(us)), us)
        assert pg.subgroups_equal(us, vs) == pg.subgroups_equal(vs, us)


def test_add_gen_leaves_input_snapshot_untouched(d8):
    state, _ = pg.add_gen_to_pigs(pg.Igs(d8, ()), pg.generator(d8, 2))
    before = list(state)
    after, changes = pg.add_gen_to_pigs(state, pg.generator(d8, 1))
    assert list(state) == before  # snapshots never mutate
    assert changes and list(after) != before
    with pytest.raises(AttributeError):
        state.gens = ()


def test_subgroups_equal_matches_enumeration(corpus):
    rng = random.Random(59)
    for pres in corpus.values():
        for _ in range(8):
            us = [helpers.random_element(pres, rng) for _ in range(2)]
            vs = [helpers.random_element(pres, rng) for _ in range(2)]
            expected = pg.enumerate_subgroup(pres, us) == \
                pg.enumerate_subgroup(pres, vs)
            assert pg.subgroups_equal(us, vs) == expected


def test_lagrange_on_finite_groups(corpus):
    rng = random.Random(61)
    for pres in corpus.values():
        whole = pg.FiniteGroupTable(pres).order
        for _ in range(8):
            gens = [helpers.random_element(pres, rng)
                    for _ in range(rng.randint(0, 3))]
            seq = _subgroup_igs(pres, gens)
            assert pg.subgroup_order(seq) * pg.subgroup_index(pres, seq) == whole


def test_mutual_sifting(corpus):
    rng = random.Random(67)
    for pres in corpus.values():
        gens = [helpers.random_element(pres, rng) for _ in range(3)]
        seq = _subgroup_igs(pres, gens)
        for g in gens:
            assert pg.sift(seq, g).membership
        rebuilt = _subgroup_igs(pres, list(seq.gens))
        for u in seq:
            assert pg.sift(rebuilt, u).membership


def test_generator_order_does_not_matter(corpus):
    rng = random.Random(71)
    for pres in corpus.values():
        gens = [helpers.random_element(pres, rng) for _ in range(3)]
        seq = _subgroup_igs(pres, gens)
        for _ in range(3):
            rng.shuffle(gens)
            assert _subgroup_igs(pres, gens) == seq


def test_unit_leading_exponents_give_whole_group():
    # every slot ends with leading exponent 1 while the entries above the
    # diagonal stay nonzero; canonical reduction must clear them
    z3 = helpers.free_abelian(3)
    gens = [pg.Element(z3, v) for v in ((1, 5, 7), (0, 1, 9), (0, 0, 1))]
    seq = pg.igs_by_generators(z3, gens)
    assert pg.verify_igs(list(seq))
    assert pg.subgroup_index(z3, seq) == 1
    assert [u.exponents for u in pg.canonical_igs(seq)] == [
        (1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_free_abelian_matches_hnf(z2):
    rng = random.Random(73)
    for _ in range(60):
        rows = [[rng.randint(-20, 20) for _ in range(2)]
                for _ in range(rng.randint(0, 3))]
        seq = pg.canonical_igs(_subgroup_igs(z2, [pg.Element(z2, r) for r in rows]))
        hnf, pivots = pg.hermite_normal_form(rows, ncols=2)
        assert [list(u.exponents) for u in seq] == hnf
        expected = INFINITE
        if len(pivots) == 2:
            expected = pivots[0] * pivots[1]
        assert pg.subgroup_index(z2, seq) == expected


def test_canonical_preserves_membership(corpus):
    rng = random.Random(79)
    for pres in corpus.values():
        gens = [helpers.random_element(pres, rng) for _ in range(2)]
        seq = _subgroup_igs(pres, gens)
        reduced = pg.canonical_igs(seq)
        for g in gens:
            assert pg.sift(reduced, g).membership


def _twisted_infinite_groups():
    # Z^2 twisted by an order-4 rotation of the plane
    rot = pg.PcPresentation(
        3, [0, 0, 0],
        conjugates={(2, 1): [(3, 1)], (3, 1): [(2, -1)]},
        inv_conjugates={(2, 1): [(3, -1)], (3, 1): [(2, 1)]})
    # Klein bottle group: both factors infinite, the top one inverting
    klein = pg.PcPresentation(2, [0, 0], conjugates={(2, 1): [(2, -1)]},
                              inv_conjugates={(2, 1): [(2, -1)]})
    # Z twisted by an order-4 finite top
    zrot = pg.PcPresentation(2, [4, 0], conjugates={(2, 1): [(2, -1)]})
    return [rot, klein, zrot]


def test_igs_closure_on_twisted_infinite_groups():
    rng = random.Random(113)
    for pres in _twisted_infinite_groups():
        assert pg.validate_inverse_tails(pres) == []
        for _ in range(40):
            gens = [helpers.random_element(pres, rng, spread=4)
                    for _ in range(rng.randint(1, 3))]
            seq = pg.igs_by_generators(pres, gens)
            assert pg.verify_igs(list(seq.gens))
            for g in gens:
                assert pg.sift(seq, g).membership


def test_index_in_twisted_infinite_groups():
    rot, klein, zrot = _twisted_infinite_groups()
    a, t = pg.generators(klein)
    assert pg.subgroup_index(klein, pg.igs_by_generators(klein, [a ** 2, t])) == 2
    g1, g2 = pg.generators(zrot)
    assert pg.subgroup_index(zrot, pg.igs_by_generators(zrot, [g1 ** 2, g2])) == 2
    assert pg.subgroup_index(zrot, pg.igs_by_generators(zrot, [g1, g2 ** 3])) == 3
    x, y, z = pg.generators(rot)
    lattice = pg.igs_by_generators(rot, [y ** 2, z])
    assert pg.subgroup_index(rot, lattice) == INFINITE  # depth 1 is missed
    assert pg.subgroup_order(lattice) == INFINITE


def test_igs_binding_mismatch(d8):
    z4 = helpers.cyclic(4)
    with pytest.raises(pg.PresentationMismatch):
        pg.igs_by_generators(d8, [pg.generator(z4, 1)])
    with pytest.raises(pg.PresentationMismatch):
        pg.add_gen_to_pigs(pg.Igs(d8, ()), pg.generator(z4, 1))
    z2 = helpers.free_abelian(2)
    with pytest.raises(pg.PresentationMismatch):
        pg.subgroup_index(d8, pg.igs_by_generators(z2, pg.generators(z2)))
    with pytest.raises(pg.PresentationMismatch):
        pg.subgroup_index(d8, pg.Igs(z2, ()))


def test_partial_igs_slot_validation(d8):
    g2 = pg.generator(d8, 2)
    with pytest.raises(ValueError):
        pg.Igs(d8, (g2, g2))  # two entries of depth 2
    with pytest.raises(ValueError):
        pg.Igs(d8, [pg.identity(d8)])


def test_igs_depth_order_validation(z2):
    with pytest.raises(ValueError):
        pg.Igs(z2, [pg.Element(z2, (0, 1)), pg.Element(z2, (1, 0))])
    with pytest.raises(ValueError):
        pg.Igs(z2, [pg.Element(z2, (-1, 0))])  # not normalised


def _closure_without_skip(pres, gens):
    """Reference closure: the commutator of each changed slot with every other slot."""
    pigs = pg.Igs(pres, ())
    queue = deque(g for g in gens if not g.is_identity)
    while queue:
        pigs, changes = pg.add_gen_to_pigs(pigs, queue.popleft())
        for d in sorted(changes):
            u = changes[d]
            rel = u.relative_order()
            if rel is not INFINITE:
                p = u ** rel
                if not p.is_identity:
                    queue.append(p)
            for h in list(pigs):
                if h.depth() != d:
                    c = u.commutator(h)
                    if not c.is_identity:
                        queue.append(c)
    return _shallowest_first_canonical(pigs)


def test_closure_matches_reference_without_skip():
    # skipping a pair whose commutator is not the identity would drop a
    # queue entry and change the igs
    groups = [helpers.load_data(path.name) for path in sorted(helpers.DATA.glob("*.pcp"))]
    groups += [helpers.free_abelian(4), helpers.carry_chain(10)]
    rng = random.Random(131)
    for pres in groups:
        for _ in range(25):
            gens = [helpers.random_element(pres, rng, spread=4)
                    for _ in range(rng.randint(1, 4))]
            expected = _closure_without_skip(pres, gens)
            got = pg.igs_by_generators(pres, gens)
            assert pg.verify_igs(list(got))
            assert [u.exponents for u in got] == [u.exponents for u in expected]


def _clashing_pairs(seq):
    """Entry pairs whose supports hold a generator pair that fails to commute."""
    pres = seq.presentation
    supports = [[k for k, e in enumerate(u.exponents, start=1) if e] for u in seq]
    return sum(not all(pres.commutes(a, b) for a in s for b in t)
               for j, s in enumerate(supports) for t in supports[j + 1:])


def test_closure_commutator_calls(monkeypatch):
    calls = 0
    original = pg.Element.commutator

    def counted(self, other):
        nonlocal calls
        calls += 1
        return original(self, other)

    monkeypatch.setattr(pg.Element, "commutator", counted)

    def closure_calls(pres, gens):
        # verify_igs computes one commutator per pair the presentation
        # does not decide, the same closure conditions the elimination feeds
        nonlocal calls
        calls = 0
        seq = pg.igs_by_generators(pres, gens)
        made = calls
        calls = 0
        assert pg.verify_igs(list(seq))
        assert calls == _clashing_pairs(seq)
        return made, calls, seq

    z4 = helpers.free_abelian(4)
    rows = [(3, -2, 4, 1), (-1, 4, 0, 2), (2, 2, -3, 4), (4, -1, 1, -4)]
    made, checked, seq = closure_calls(z4, [pg.Element(z4, r) for r in rows])
    assert made == checked == 0 and pg.subgroup_index(z4, seq) != 1

    chain = helpers.carry_chain(10)
    made, checked, seq = closure_calls(
        chain, [pg.Element(chain, (0, 1, 1, 0, 1, 0, 0, 1, 1, 1)),
                pg.Element(chain, (0, 0, 1, 1, 0, 1, 1, 0, 0, 1))])
    assert made == checked == 0 and pg.subgroup_order(seq) == 2 ** 9

    chain = helpers.carry_chain(64)
    g = pg.generators(chain)
    made, checked, seq = closure_calls(chain, [g[0] * g[63], g[5], g[40]])
    assert made == checked == 0 and pg.subgroup_order(seq) == 2 ** 64
    assert [(u.depth(), u.leading_exponent()) for u in seq] == [(d, 1) for d in range(1, 65)]

    heis = helpers.heisenberg()
    x, y, z = pg.generators(heis)
    made, checked, seq = closure_calls(heis, [x ** 2, y ** 3])
    assert made > 0 and checked > 0 and pg.subgroup_index(heis, seq) == 36

    d8 = helpers.dihedral8()
    made, checked, seq = closure_calls(d8, pg.generators(d8)[:2])
    assert made > 0 and checked > 0 and pg.subgroup_order(seq) == 8

    stray = helpers.stray_invconj_z8()
    assert stray.commutes(2, 1) and pg.validate_inverse_tails(stray) == [(2, 1)]
    made, checked, seq = closure_calls(stray, pg.generators(stray)[:2])
    assert made == checked == 0 and pg.subgroup_order(seq) == 8


def _commuting_element(pres, rng):
    """A random element whose support commutes pairwise by the presentation."""
    support = []
    for i in rng.sample(range(1, pres.num_gens + 1), pres.num_gens):
        if all(pres.commutes(i, j) for j in support):
            support.append(i)
    exps = [0] * pres.num_gens
    for i in support[:rng.randint(1, len(support))]:
        r = pres.orders[i - 1]
        exps[i - 1] = rng.randrange(1, r) if r else rng.randint(-3, 3)
    return pg.Element(pres, exps)


def test_power_is_trivial_is_sound():
    # whenever the presentation alone decides u^k = 1, u^k is the identity.
    # The carry chain, d8 and q8 have power tails (g1^2 = g2 in the chain);
    # s4 and the UT groups have non-commuting supports whose powers are not 1
    groups = {path.stem: helpers.load_data(path.name)
              for path in sorted(helpers.DATA.glob("*.pcp"))}
    groups.update({"ut4_mod2": helpers.unitriangular(4, 2),
                   "ut4_mod3": helpers.unitriangular(4, 3),
                   "ut5_mod3": helpers.unitriangular(5, 3),
                   "ut6_mod2": helpers.unitriangular(6, 2),
                   "carry_chain_8": helpers.carry_chain(8)})
    rng = random.Random(181)
    trivial = 0
    for name, pres in groups.items():
        top = 2 * max(pres.orders + (2,))
        elems = [pg.generator(pres, i) for i in range(1, pres.num_gens + 1)]
        elems += [helpers.random_element(pres, rng, spread=3) for _ in range(40)]
        elems += [_commuting_element(pres, rng) for _ in range(40)]
        for u in elems:
            rel = u.relative_order()
            ks = set(rng.sample(range(1, top + 1), 4))
            if rel not in (None, INFINITE):
                ks |= {rel, 2 * rel}
            for k in sorted(ks):
                if _power_is_trivial(pres, u.exponents, k):
                    trivial += 1
                    assert (u ** k).is_identity, (name, u, k)
    assert trivial > 500
    chain = helpers.carry_chain(8)
    assert not _power_is_trivial(chain, pg.generator(chain, 1).exponents, 2)
    assert _power_is_trivial(chain, pg.generator(chain, 8).exponents, 2)


def test_division_by_trivial_power_needs_no_inversion(monkeypatch):
    # UT(6, Z/2) has no power tails, so an entry whose support commutes
    # pairwise has u^2 = 1; dividing by it takes u^1, not u^-1, and no
    # negative exponent reaches the powering for it
    pres = helpers.unitriangular(6, 2)
    assert not pres.powers and set(pres.orders) == {2}
    original = pg.Element.__pow__
    seen = {"inverted": [], "positive": 0}

    def counted(self, k):
        if sys._getframe(1).f_code is _divided.__code__:
            support = [i for i, e in enumerate(self.exponents, 1) if e]
            if all(pres.commutes(i, j) for i in support for j in support):
                if k < 0:
                    seen["inverted"].append((str(self), k))
                else:
                    seen["positive"] += 1
        return original(self, k)

    monkeypatch.setattr(pg.Element, "__pow__", counted)
    rng = random.Random(191)
    for _ in range(40):
        gens = [helpers.random_element(pres, rng) for _ in range(rng.randint(1, 3))]
        seq = pg.igs_by_generators(pres, gens)
        pg.canonical_igs(seq)
        pg.sift(seq, helpers.random_element(pres, rng))
    assert seen["inverted"] == []
    assert seen["positive"] > 100


def test_free_abelian_igs_is_hermite_normal_form():
    # sparse generators made the unreduced entries swell to hundreds of
    # bits; reduced during elimination they are the HNF rows themselves
    for n, seeds in ((12, range(1, 11)), (16, range(1, 6))):
        pres = helpers.free_abelian(n)
        for seed in seeds:
            rows = helpers.sparse_lattice_rows(n, seed)
            seq = pg.igs_by_generators(pres, [pg.Element(pres, r) for r in rows])
            hnf, _ = pg.hermite_normal_form(rows, ncols=n)
            assert [list(u.exponents) for u in seq] == hnf, (n, seed)


def _unreduced_add(pigs, gen):
    """One elimination sweep that never reduces against deeper slots."""
    pres = pigs.presentation
    n = pres.num_gens
    slots = [None] * n
    for u in pigs:
        slots[u.depth() - 1] = u
    before = list(slots)
    pending = [[] for _ in range(n + 2)]
    pending[gen.depth()].append(gen)
    for d in range(1, n + 1):
        for h in pending[d]:
            k = slots[d - 1]
            if k is None:
                u = slots[d - 1] = h.normalised()
                if pres.orders[d - 1] > 0:
                    r = h * u ** (-(h.leading_exponent() // u.leading_exponent()))
                    pending[r.depth()].append(r)
                continue
            a, b = h.leading_exponent(), k.leading_exponent()
            if a % b == 0:
                r = h * k ** (-(a // b))
                pending[r.depth()].append(r)
                continue
            g, x, y = _xgcd(a, b)
            wn = slots[d - 1] = (h if g == a else (h ** x) * (k ** y)).normalised()
            residues = [h * wn ** (-(a // g))] if g != a else []
            for r in residues + [k * wn ** (-(b // g))]:
                pending[r.depth()].append(r)
    changes = {d: slots[d - 1] for d in range(1, n + 1) if slots[d - 1] != before[d - 1]}
    return pg.Igs(pres, [u for u in slots if u is not None]), changes


def _unreduced_closure(pres, gens):
    """igs_by_generators as it was before reduction during elimination."""
    pigs = pg.Igs(pres, ())
    queue = deque(g for g in gens if not g.is_identity)
    while queue:
        pigs, changes = _unreduced_add(pigs, queue.popleft())
        for d in sorted(changes):
            u = changes[d]
            rel = u.relative_order()
            p = u ** rel if rel is not INFINITE else None
            if p is not None and not p.is_identity:
                queue.append(p)
            support = [i for i, e in enumerate(u.exponents, start=1) if e]
            for h in pigs:
                if h is u or all(pres.commutes(i, j) for i in support
                                 for j, e in enumerate(h.exponents, start=1) if e):
                    continue
                c = u.commutator(h)
                if not c.is_identity:
                    queue.append(c)
    return pigs


def test_reduced_elimination_matches_unreduced_reference():
    groups = [helpers.load_data(path.name) for path in sorted(helpers.DATA.glob("*.pcp"))]
    groups += [helpers.unitriangular(4), helpers.free_abelian(4), helpers.carry_chain(10)]
    rng = random.Random(137)
    sets = 0
    for pres in groups:
        for _ in range(75):
            gens = [helpers.random_element(pres, rng, spread=4)
                    for _ in range(rng.randint(1, 3))]
            expected = _unreduced_closure(pres, gens)
            got = pg.igs_by_generators(pres, gens)
            assert pg.verify_igs(list(got))
            assert got == _shallowest_first_canonical(expected)
            for t, u in enumerate(got.gens):
                for v in got.gens[t + 1:]:
                    d = v.depth()
                    assert 0 <= u.exponents[d - 1] < v.exponents[d - 1]
            sets += 1
    assert sets >= 800


def _sliced_sift_through(gens, g):
    """Sift through a list of entries, found by depth in a dict."""
    by_depth = {u.depth(): u for u in gens}
    residue = g
    while not residue.is_identity:
        d = residue.depth()
        u = by_depth.get(d)
        if u is None or residue.exponents[d - 1] % u.exponents[d - 1]:
            return False, residue
        residue = residue * u ** (-(residue.exponents[d - 1] // u.exponents[d - 1]))
    return True, residue


def _sliced_verify_igs(elems):
    """The closure conditions, each sifted through only the entries after it."""
    if not elems:
        return True
    depths = [u.depth() for u in elems]
    if depths[-1] > elems[0].presentation.num_gens:
        return False
    if any(d2 <= d1 for d1, d2 in zip(depths, depths[1:])):
        return False
    for i, u in enumerate(elems):
        rel = u.relative_order()
        if rel is not INFINITE and not _sliced_sift_through(elems[i + 1:], u ** rel)[0]:
            return False
    pres = elems[0].presentation
    supports = [[k for k, e in enumerate(u.exponents, start=1) if e] for u in elems]
    for j in range(len(elems)):
        for i in range(j + 1, len(elems)):
            # a pair that commutes by the presentation gives u_i^{u_j} = u_i
            if all(pres.commutes(a, b) for a in supports[j] for b in supports[i]):
                continue
            if not _sliced_sift_through(elems[j + 1:], elems[i].conjugate(elems[j]))[0]:
                return False
    return True


def _shallowest_first_canonical(seq):
    """Reduce each entry in turn, first to last, against the later entries."""
    gens = list(seq)
    for t in range(len(gens)):
        for k in range(t + 1, len(gens)):
            d = gens[k].depth()
            q = gens[t].exponents[d - 1] // gens[k].exponents[d - 1]
            if q:
                gens[t] = gens[t] * gens[k] ** (-q)
    return pg.Igs(seq.presentation, gens)


# SHA-256 of the igs of every set in the test below.  It pins the output
# of elimination exactly: a change that moves any igs entry fails here,
# and must say why before it updates this value
_RAW_IGS_DIGEST = "43e935313a24d07513912a51a5cfecab934fe1749e398c5d4e63550f542a11ab"


def test_igs_helpers_match_sliced_and_shallowest_first_references():
    groups = [helpers.load_data(path.name) for path in sorted(helpers.DATA.glob("*.pcp"))]
    groups += [helpers.unitriangular(4), helpers.unitriangular(4, 3),
               helpers.unitriangular(5, 3), helpers.unitriangular(6, 2),
               helpers.free_abelian(4), helpers.carry_chain(12), helpers.stray_invconj_z8()]
    rng = random.Random(139)
    digest = hashlib.sha256()
    sets = 0
    for pres in groups:
        for _ in range(54):
            gens = [helpers.random_element(pres, rng, spread=4)
                    for _ in range(rng.randint(1, 3))]
            seq = pg.igs_by_generators(pres, gens)
            digest.update(repr([u.exponents for u in seq]).encode())
            assert pg.Igs(pres, seq.gens) == seq
            assert pg.canonical_igs(seq) == seq == _shallowest_first_canonical(seq)
            assert pg.verify_igs(list(seq)) and _sliced_verify_igs(list(seq))
            partial = pg.Igs(pres, ())
            for g in gens[:rng.randint(1, 2)]:
                partial, _ = pg.add_gen_to_pigs(partial, g)
            assert pg.verify_igs(list(partial)) == _sliced_verify_igs(list(partial))
            for target, g in ((seq, helpers.random_element(pres, rng, spread=8)),
                              (seq, gens[0] * gens[-1] ** -1),
                              (partial, helpers.random_element(pres, rng, spread=8))):
                result = pg.sift(target, g)
                assert (result.membership, result.residue) == \
                    _sliced_sift_through(list(target), g)
            sets += 1
    assert sets >= 800
    assert digest.hexdigest() == _RAW_IGS_DIGEST
