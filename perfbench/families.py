"""Presentation families as `.pcp` text, plus independent matrix models.

Every family is emitted as text and read back through
``polygauss.load_presentation``, so the loader is on the set-up path.

* UT(n, R): unitriangular n x n matrices over R = Z (p = 0) or Z/p.  The
  generators are the elementary matrices e_ij (i < j), ordered by height
  j - i and then by row i.  With a^b = b^-1 a b = a [a, b] and
  [x, y] = x^-1 y^-1 x y, the relations are [e_ij, e_jl] = e_il and
  [e_ij, e_ki] = e_kj^-1; conjugating by b^-1 instead flips the sign of
  the commutator syllable.  Every e_ij has order p over Z/p, so the power
  tails are empty.
* Z^n: n commuting generators of infinite order.
* Z/2^n carry chain: g_i = x^(2^(i-1)) in a cyclic group of order 2^n,
  so g_i^2 = g_(i+1) and g_n^2 = 1.

The matrix model of UT(n, R) multiplies exponent vectors as matrices and
never calls the library, which makes it a reference for collection.
"""

from __future__ import annotations


def ut_generators(n: int) -> list[tuple[int, int]]:
    """The pairs (i, j), 1 <= i < j <= n, in generator order."""
    return [(i, i + h) for h in range(1, n) for i in range(1, n - h + 1)]


def _commutator(a: tuple[int, int], b: tuple[int, int]):
    """[e_a, e_b] as (pair, sign), or None when e_a and e_b commute."""
    (i, j), (k, l) = a, b
    if j == k:
        return (i, l), 1
    if l == i:
        return (k, j), -1
    return None


def ut_pcp(n: int, p: int = 0) -> str:
    """`.pcp` text of UT(n, Z) (p = 0) or UT(n, Z/p)."""
    gens = ut_generators(n)
    index = {pair: k for k, pair in enumerate(gens, start=1)}
    lines = [f"# UT({n}, {'Z' if p == 0 else f'Z/{p}'})",
             f"pcp {len(gens)}",
             "orders " + " ".join([str(p)] * len(gens))]
    for a_idx, a in enumerate(gens, start=1):
        for b_idx, b in enumerate(gens[:a_idx - 1], start=1):
            comm = _commutator(a, b)
            if comm is None:
                continue
            pair, sign = comm
            c = index[pair]
            lines.append(f"conj {a_idx} {b_idx} {a_idx}^1 {c}^{sign % p if p else sign}")
            if p == 0:
                lines.append(f"invconj {a_idx} {b_idx} {a_idx}^1 {c}^{-sign}")
    return "\n".join(lines) + "\n"


def free_abelian_pcp(n: int) -> str:
    return f"# Z^{n}\npcp {n}\norders " + " ".join(["0"] * n) + "\n"


def carry_chain_pcp(n: int) -> str:
    """Z/2^n with g_i^2 = g_(i+1)."""
    lines = [f"# Z/2^{n} carry chain", f"pcp {n}", "orders " + " ".join(["2"] * n)]
    lines += [f"power {i} {i + 1}^1" for i in range(1, n)]
    return "\n".join(lines) + "\n"


class UTModel:
    """UT(n, R) as matrices, stored as dicts {(i, j): entry} above the diagonal."""

    def __init__(self, n: int, p: int = 0):
        self.n, self.p = n, p
        self.gens = ut_generators(n)

    def _reduce(self, m: dict) -> dict:
        if self.p:
            return {k: v % self.p for k, v in m.items() if v % self.p}
        return {k: v for k, v in m.items() if v}

    def mul(self, a: dict, b: dict) -> dict:
        """(I + A)(I + B) = I + A + B + AB."""
        out = dict(a)
        for k, v in b.items():
            out[k] = out.get(k, 0) + v
        for (i, j), x in a.items():
            for (k, l), y in b.items():
                if j == k:
                    out[(i, l)] = out.get((i, l), 0) + x * y
        return self._reduce(out)

    def syllable(self, g: int, e: int) -> dict:
        """e_ij^e = I + e E_ij for generator number g."""
        return self._reduce({self.gens[g - 1]: e})

    def word(self, entries) -> dict:
        """The matrix of a product of (generator, exponent) syllables."""
        m: dict = {}
        for g, e in entries:
            m = self.mul(m, self.syllable(g, e))
        return m

    def normal_form(self, exponents) -> dict:
        """The matrix of g_1^x_1 ... g_N^x_N."""
        return self.word((g, e) for g, e in enumerate(exponents, start=1) if e)

    def key(self, m: dict) -> tuple:
        return tuple(sorted(m.items()))
