"""Acceptance gate: oracle-based, property-based checks at fixed sizes.

Each test prints one `ACCEPTANCE <k> <name>: PASS/FAIL` line.  All
comparisons are exact (big-integer arithmetic); the only tolerances are
the wall-clock targets of the two oracle-equivalence bulk runs.
"""

from __future__ import annotations

import math
import random
import time

import helpers
import polygauss as pg
from polygauss import INFINITE


class _criterion:
    def __init__(self, num, name):
        self.num, self.name = num, name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.num} {self.name}: {status}")
        return False


_finite_cache = None
_abelian_cache = None


def _finite_instances():
    """510 randomized generator sets over the 15 golden finite groups."""
    global _finite_cache
    if _finite_cache is None:
        rng = random.Random(0xACCE01)
        instances = []
        for name, pres in helpers.finite_corpus().items():
            table = pg.FiniteGroupTable(pres)
            for _ in range(34):
                gens = [helpers.random_element(pres, rng)
                        for _ in range(rng.randint(0, 3))]
                seq = pg.igs_by_generators(pres, gens)
                instances.append((pres, table, gens, seq))
        _finite_cache = instances
    return _finite_cache


def _abelian_instances():
    """500 random integer matrices over Z^n, n = 1..5, entries in [-20, 20]."""
    global _abelian_cache
    if _abelian_cache is None:
        rng = random.Random(0xACCE02)
        instances = []
        for n in range(1, 6):
            pres = helpers.free_abelian(n)
            for _ in range(100):
                rows = [[rng.randint(-20, 20) for _ in range(n)]
                        for _ in range(rng.randint(0, n + 1))]
                seq = pg.igs_by_generators(pres, [pg.Element(pres, r) for r in rows])
                instances.append((pres, rows, seq))
        _abelian_cache = instances
    return _abelian_cache


def test_criterion_1_finite_oracle_equivalence():
    with _criterion(1, "finite oracle equivalence"):
        start = time.monotonic()
        instances = _finite_instances()
        assert len(instances) >= 500
        for pres, table, gens, seq in instances:
            reference = pg.enumerate_subgroup(pres, gens)
            members = {g for g in table if pg.sift(seq, g).membership}
            assert members == reference
            assert pg.subgroup_order(seq) == len(reference)
            assert pg.subgroup_order(seq) * pg.subgroup_index(pres, seq) \
                == table.order
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_2_free_abelian_hnf_equivalence():
    with _criterion(2, "free abelian HNF equivalence"):
        start = time.monotonic()
        instances = _abelian_instances()
        assert len(instances) >= 500
        for pres, rows, seq in instances:
            n = pres.num_gens
            hnf, pivots = pg.hermite_normal_form(rows, ncols=n)
            reduced = pg.canonical_igs(seq)
            assert [list(u.exponents) for u in reduced.gens] == hnf
            expected = INFINITE
            if len(pivots) == n:
                expected = math.prod(pivots)
            assert pg.subgroup_index(pres, seq) == expected
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"


def _mutated_non_closed_lists():
    """Hand-mutated lists that violate one of the igs closure conditions."""
    corpus = helpers.finite_corpus()
    d8, q8, g27, s4 = corpus["d8"], corpus["q8"], corpus["g27"], corpus["s4"]
    heis, dinf = helpers.heisenberg(), helpers.dihedral_infinite()
    z2 = helpers.free_abelian(2)

    def gens(pres):
        return pg.generators(pres)

    d1, d2, d3 = gens(d8)
    q1, q2, _ = gens(q8)
    e1, e2, e3 = gens(g27)
    s1, s2, s3, s4g = gens(s4)
    hx, hy, hz = gens(heis)
    da, dt = gens(dinf)

    return [
        # relative-order powers escaping a truncated suffix
        [d2],                      # g2^2 = g3 missing
        [d2 * d3],                 # (g2 g3)^2 = g3 missing
        [d1, d2],                  # same failure below depth 1
        [q1],                      # in Q8 every i,j,k squares to -1
        [q2],
        [q1 * q2],
        [q1, q2],
        # conjugates escaping (non-normal cyclic parts)
        [e1, e2],                  # [g2, g1] = g3 missing
        [e1, e2 * e3],
        [s2, s3],                  # g3^g2 = g3 g4, g4 missing
        [s1, s2, s3],
        [s1, s4g],                 # g4^g1 = g3 g4, depth 3 missing
        [s2, s4g],                 # g4^g2 = g3, depth 3 missing
        [hx, hy],                  # [g2, g1] = g3 missing
        [hx ** 2, hy ** 3],        # commutator z^6 missing
        [hx, hy * hz],
        # depth ordering violations
        [d3, d2],
        [d2, d2 * d3],
        [s2, s2 ** 2],
        [pg.Element(z2, (0, 3)), pg.Element(z2, (2, 1))],
        [q1, q1 * q2],
        [dt, da],
    ]


def test_criterion_3_closure_self_verification():
    with _criterion(3, "igs closure self-verification"):
        produced = [seq for _, _, _, seq in _finite_instances()]
        produced += [seq for _, _, seq in _abelian_instances()]
        assert len(produced) >= 1000
        for seq in produced:
            assert pg.verify_igs(list(seq.gens))
        mutants = _mutated_non_closed_lists()
        assert len(mutants) >= 20
        for mutant in mutants:
            assert pg.verify_igs(mutant) is False


def test_criterion_4_normalisation_contract():
    with _criterion(4, "normalisation contract"):
        rng = random.Random(0xACCE04)
        checked = 0
        finite = list(helpers.finite_corpus().values())
        infinite = [helpers.free_abelian(n) for n in range(1, 6)]
        infinite += [helpers.heisenberg(), helpers.dihedral_infinite()]
        for pres, rounds in [(p, 52) for p in finite] + [(p, 40) for p in infinite]:
            finite_group = all(r > 0 for r in pres.orders)
            for _ in range(rounds):
                a = helpers.random_element(pres, rng)
                if a.is_identity:
                    a = pg.generator(pres, rng.randint(1, pres.num_gens))
                h = a.normalised()
                d = a.depth()
                assert h.depth() == d
                assert a.leading_exponent() % h.leading_exponent() == 0
                r = pres.orders[d - 1]
                if r > 0:
                    assert h.leading_exponent() == math.gcd(a.leading_exponent(), r)
                else:
                    assert h.leading_exponent() == abs(a.leading_exponent())
                if finite_group:
                    deeper = [pg.generator(pres, i)
                              for i in range(d + 1, pres.num_gens + 1)]
                    assert pg.enumerate_subgroup(pres, [a] + deeper) == \
                        pg.enumerate_subgroup(pres, [h] + deeper)
                checked += 1
        assert checked >= 1000
        # regression: lead 4 with relative order 6; 4/gcd(4,6) = 2 has no
        # inverse modulo 6, the normalising power works modulo 6/2 instead
        z6 = helpers.cyclic(6)
        assert pg.Element(z6, (4,)).normalised().exponents == (2,)


def test_criterion_5_equality_matches_enumeration():
    with _criterion(5, "subgroup equality vs enumeration"):
        rng = random.Random(0xACCE05)
        pairs = 0
        for pres in helpers.finite_corpus().values():
            for case in range(34):
                us = [helpers.random_element(pres, rng)
                      for _ in range(rng.randint(1, 3))]
                seq = pg.igs_by_generators(pres, us)
                reduced = pg.canonical_igs(seq)
                assert pg.canonical_igs(reduced) == reduced
                if case % 2 == 0 and len(seq) > 0:
                    # engineered equal pair: triangular mix of the igs entries
                    base = list(seq.gens)
                    vs = [base[t] * (base[t + 1] ** rng.randint(-2, 2))
                          for t in range(len(base) - 1)] + [base[-1]]
                    rng.shuffle(vs)
                    assert pg.subgroups_equal(us, vs)
                    assert pg.enumerate_subgroup(pres, us) == \
                        pg.enumerate_subgroup(pres, vs)
                else:
                    vs = [helpers.random_element(pres, rng)
                          for _ in range(rng.randint(1, 3))]
                    expected = pg.enumerate_subgroup(pres, us) == \
                        pg.enumerate_subgroup(pres, vs)
                    assert pg.subgroups_equal(us, vs) == expected
                pairs += 1
        assert pairs >= 500


def _coset_partition(pres, seq, transversal, samples, rng):
    # every sampled element must match exactly one transversal representative
    for _ in range(samples):
        w = helpers.random_element(pres, rng, spread=8)
        hits = sum(pg.sift(seq, w * t.inverse()).membership for t in transversal)
        assert hits == 1


def test_criterion_6_infinite_group_smoke():
    with _criterion(6, "infinite polycyclic groups"):
        rng = random.Random(0xACCE06)
        heis = helpers.heisenberg()
        x, y, z = pg.generators(heis)

        seq = pg.igs_by_generators(heis, [x ** 2, y, z])
        assert pg.verify_igs(list(seq.gens))
        assert pg.subgroup_order(seq) == INFINITE
        assert pg.subgroup_index(heis, seq) == 2
        _coset_partition(heis, seq, [pg.identity(heis), x], 100, rng)

        seq36 = pg.igs_by_generators(heis, [x ** 2, y ** 3])
        assert pg.verify_igs(list(seq36.gens))
        assert [u.exponents for u in seq36] == [(2, 0, 0), (0, 3, 0), (0, 0, 6)]
        assert pg.subgroup_index(heis, seq36) == 36
        transversal = [(x ** a) * (y ** b) * (z ** c)
                       for a in range(2) for b in range(3) for c in range(6)]
        for i, t in enumerate(transversal):
            for s in transversal[i + 1:]:
                assert not pg.sift(seq36, t * s.inverse()).membership
        _coset_partition(heis, seq36, transversal, 100, rng)

        dinf = helpers.dihedral_infinite()
        a, t = pg.generators(dinf)
        translations = pg.igs_by_generators(dinf, [t])
        assert pg.verify_igs(list(translations.gens))
        assert pg.subgroup_index(dinf, translations) == 2
        assert pg.subgroup_order(translations) == INFINITE
        mixed = pg.igs_by_generators(dinf, [a, t ** 2])
        assert pg.verify_igs(list(mixed.gens))
        assert pg.subgroup_index(dinf, mixed) == 2
        _coset_partition(dinf, mixed, [pg.identity(dinf), t], 100, rng)


def test_criterion_7_collection_soundness():
    with _criterion(7, "collection soundness"):
        rng = random.Random(0xACCE07)
        groups = dict(helpers.finite_corpus())
        groups["z2_free"] = helpers.free_abelian(2)
        groups["heisenberg"] = helpers.heisenberg()
        groups["dinf"] = helpers.dihedral_infinite()
        for pres in groups.values():
            for _ in range(1000):
                u = helpers.random_word(pres, rng, length=5, spread=4)
                v = helpers.random_word(pres, rng, length=5, spread=4)
                joined = tuple(tuple(u) + tuple(v))
                a, b = pg.collect(pres, u), pg.collect(pres, v)
                assert pg.collect(pres, joined) == a * b
                renormalised = tuple(
                    [(i + 1, e) for i, e in enumerate(a.exponents)])
                assert pg.collect(pres, renormalised) == a
            for _ in range(200):
                a = helpers.random_element(pres, rng, spread=4)
                b = helpers.random_element(pres, rng, spread=4)
                c = helpers.random_element(pres, rng, spread=4)
                assert (a * b) * c == a * (b * c)
