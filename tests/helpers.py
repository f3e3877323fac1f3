"""Shared builders for the test corpus: golden presentations and random data."""

from __future__ import annotations

import random
from pathlib import Path

import polygauss as pg

DATA = Path(__file__).parent / "data"


def load_data(name: str) -> pg.PcPresentation:
    return pg.load_presentation((DATA / name).read_text())


def cyclic(m: int) -> pg.PcPresentation:
    return pg.PcPresentation(1, [m])


def free_abelian(n: int) -> pg.PcPresentation:
    return pg.PcPresentation(n, [0] * n)


def dihedral8() -> pg.PcPresentation:
    return load_data("d8.pcp")


def quaternion8() -> pg.PcPresentation:
    return load_data("q8.pcp")


def extraspecial27() -> pg.PcPresentation:
    return load_data("g27.pcp")


def sym4() -> pg.PcPresentation:
    return load_data("s4.pcp")


def heisenberg() -> pg.PcPresentation:
    return load_data("heis.pcp")


def dihedral_infinite() -> pg.PcPresentation:
    return load_data("dinf.pcp")


def carry_chain(n: int) -> pg.PcPresentation:
    """Z/2^n as n generators of relative order 2 with g_i^2 = g_(i+1)."""
    return pg.PcPresentation(n, [2] * n,
                             powers={i: [(i + 1, 1)] for i in range(1, n)})


def unitriangular(n: int, p: int = 0) -> pg.PcPresentation:
    """UT(n, Z) (p = 0) or UT(n, Z/p) on the elementary matrices e_ij, i < j.

    Generators are ordered by height j - i, then by row.  With
    a^b = a [a, b], the relations are [e_ij, e_jl] = e_il and
    [e_ij, e_ki] = e_kj^-1; conjugating by b^-1 flips the sign.
    """
    pairs = [(i, i + h) for h in range(1, n) for i in range(1, n - h + 1)]
    index = {pair: k for k, pair in enumerate(pairs, start=1)}
    conj, invconj = {}, {}
    for a, (i, j) in enumerate(pairs, start=1):
        for b, (k, l) in enumerate(pairs[:a - 1], start=1):
            if j == k:
                c, sign = index[(i, l)], 1
            elif l == i:
                c, sign = index[(k, j)], -1
            else:
                continue
            conj[(a, b)] = [(a, 1), (c, sign % p if p else sign)]
            if not p:
                invconj[(a, b)] = [(a, 1), (c, -sign)]
    return pg.PcPresentation(len(pairs), [p] * len(pairs), conj, invconj)


def stray_invconj_z8() -> pg.PcPresentation:
    """Z/8 with an invconj entry that collection never reads, as r_1 = 2."""
    return pg.load_presentation("pcp 3\norders 2 2 2\ninvconj 2 1 2^1 3^1\n"
                                "power 1 2^1\npower 2 3^1\n")


def sparse_lattice_rows(n: int, seed: int) -> list[list[int]]:
    """n + 1 rows of Z^n, each with 3 nonzero entries in [-5, 5]."""
    rng = random.Random(seed)
    values = [v for v in range(-5, 6) if v]
    rows = []
    for _ in range(n + 1):
        row = [0] * n
        for col in rng.sample(range(n), 3):
            row[col] = rng.choice(values)
        rows.append(row)
    return rows


_FINITE_CORPUS: dict[str, pg.PcPresentation] | None = None


def finite_corpus() -> dict[str, pg.PcPresentation]:
    """Golden finite groups: Z/2..Z/12, D8, Q8, order 27 extraspecial, S4."""
    global _FINITE_CORPUS
    if _FINITE_CORPUS is None:
        corpus = {f"z{m}": cyclic(m) for m in range(2, 13)}
        corpus["d8"] = dihedral8()
        corpus["q8"] = quaternion8()
        corpus["g27"] = extraspecial27()
        corpus["s4"] = sym4()
        _FINITE_CORPUS = corpus
    return _FINITE_CORPUS


def random_element(pres: pg.PcPresentation, rng: random.Random,
                   spread: int = 6) -> pg.Element:
    """Uniform over normal forms (finite part), bounded at infinite depths."""
    exps = [rng.randrange(r) if r > 0 else rng.randint(-spread, spread)
            for r in pres.orders]
    return pg.Element(pres, exps)


def random_word(pres: pg.PcPresentation, rng: random.Random,
                length: int = 5, spread: int = 6) -> tuple[tuple[int, int], ...]:
    entries = [(rng.randint(1, pres.num_gens), rng.randint(-spread, spread))
               for _ in range(rng.randint(0, length))]
    return tuple(entries)
