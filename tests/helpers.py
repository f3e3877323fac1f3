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
