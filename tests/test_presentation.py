from __future__ import annotations

import random

import pytest

import helpers
import polygauss as pg

D8_TEXT = """\
# dihedral group of order 8
pcp 3
orders 2 2 2
conj 2 1 2^1 3^1
power 2 3^1
"""


def test_load_cyclic_no_tails():
    pres = pg.load_presentation("pcp 1\norders 4\n")
    assert pres.num_gens == 1
    assert pres.orders == (4,)
    assert pres.conjugates == {} and pres.powers == {}


def test_load_d8():
    pres = pg.load_presentation(D8_TEXT)
    assert pres.orders == (2, 2, 2)
    assert pres.conjugates == {(2, 1): ((2, 1), (3, 1))}
    assert pres.powers == {2: ((3, 1),)}
    # enumeration oracle: 8 distinct normal forms, closed under the product
    table = pg.FiniteGroupTable(pres)
    assert table.order == 8
    assert len(set(table.elements)) == 8
    closure = pg.enumerate_subgroup(pres, pg.generators(pres))
    assert closure == set(table.elements)


def test_load_accepts_bytes_and_file(tmp_path):
    assert pg.load_presentation(D8_TEXT.encode()) == pg.load_presentation(D8_TEXT)
    path = tmp_path / "d8.pcp"
    path.write_text(D8_TEXT)
    with open(path) as handle:
        assert pg.load_presentation(handle) == pg.load_presentation(D8_TEXT)


@pytest.mark.parametrize("form", ["str", "bytes", "file"])
def test_load_ignores_one_byte_order_mark(tmp_path, form):
    # some editors save UTF-8 text with a leading U+FEFF
    data = b"\xef\xbb\xbf" + D8_TEXT.encode()
    if form == "file":
        path = tmp_path / "d8.pcp"
        path.write_bytes(data)
        with open(path, encoding="utf-8") as handle:
            loaded = pg.load_presentation(handle)
    else:
        loaded = pg.load_presentation(data if form == "bytes" else data.decode("utf-8"))
    assert loaded == pg.load_presentation(D8_TEXT)


def test_tail_index_not_above_key_rejected():
    # tail of conj 2 1 may only use generators beyond g1
    with pytest.raises(pg.PcpValidationError):
        pg.load_presentation("pcp 2\norders 2 2\nconj 2 1 1^1\n")


def test_tail_exponent_out_of_range_rejected():
    with pytest.raises(pg.PcpValidationError):
        pg.load_presentation("pcp 2\norders 2 2\nconj 2 1 2^3\n")
    with pytest.raises(pg.PcpValidationError):
        pg.load_presentation("pcp 2\norders 2 2\npower 1 2^-1\n")


def test_missing_inverse_tail_rejected():
    # r_1 = 0 and g2 does not commute with g1, so invconj 2 1 is required
    with pytest.raises(pg.PcpValidationError):
        pg.load_presentation("pcp 2\norders 0 0\nconj 2 1 2^-1\n")
    ok = pg.load_presentation(
        "pcp 2\norders 0 0\nconj 2 1 2^-1\ninvconj 2 1 2^-1\n")
    assert (2, 1) in ok.inv_conjugates


def test_power_relation_for_infinite_generator_rejected():
    with pytest.raises(pg.PcpValidationError):
        pg.load_presentation("pcp 1\norders 0\npower 1\n")


@pytest.mark.parametrize("text", [
    "",
    "orders 2\n",
    "pcp x\norders 2\n",
    "pcp ²\norders 0\n",
    "pcp 1\norders two\n",
    "pcp 1\norders 2\nfrobnicate 1\n",
    "pcp 2\norders 2 2\nconj 2\n",
    "pcp 2\norders 2 2\nconj 2 1 2^\n",
    "pcp 2\norders 2 2\nconj 2 1 2^1\nconj 2 1 2^1\n",
    "pcp 1\norders 2\npcp 1\n",
    "pcp 1\norders 2\norders 2\n",
    "conj 2 1 2^1\npcp 2\norders 2 2\n",
    "pcp 1\npower 1\norders 2\n",
    "pcp 1\norders 2\npower\n",
    "pcp 1\norders 2\npower x\n",
    "pcp 2\norders 2 2\nconj x 1\n",
    # one integer spelling: an optional '-' and ASCII digits
    "pcp 2\norders 1_0 +2\n",
    "pcp ٣\norders 2 2 2\n",
    "pcp +1\norders 2\n",
    "pcp 1\norders ２\n",
    "pcp 2\norders 2 2\nconj 2 1_0 2^1\n",
    "pcp 2\norders 2 2\nconj ٢ 1 2^1\n",
    "pcp 2\norders 4 2\npower +1 2^1\n",
    "pcp 3\norders 2 2 2\npower 1 2^1 3^+1\n",
    "pcp 2\norders 0 0\nconj 2 1 2^+1\n",
    "pcp 2\norders 0 0\nconj 2 1 2^--1\n",
    "pcp 2\norders 0 0\nconj 2 1 2^-\n",
    # one leading byte-order mark is ignored; a second is text
    "\ufeff\ufeffpcp 1\norders 2\n",
])
def test_malformed_text_rejected(text):
    with pytest.raises(pg.PcpSyntaxError):
        pg.load_presentation(text)


@pytest.mark.parametrize("text", [
    "pcp 0\norders\n",
    "pcp 2\norders 2\n",
    "pcp 2\norders 2 -1\n",
    "pcp 2\norders 2 2\nconj 1 1 2^1\n",
    "pcp 2\norders 2 2\nconj 2 1 3^1\n",
    "pcp 2\norders 2 2\nconj 2 1 2^0\n",
    "pcp 2\norders 2 2\npower 3 \n",
    "pcp 2\norders 2 2\nconj 2 1\n",
    "pcp 2\norders 0 0\nconj 2 1 2^-1\ninvconj 2 1\n",
    "pcp 2\norders 0 0\ninvconj 3 1 2^1\n",
])
def test_invalid_structure_rejected(text):
    with pytest.raises(pg.PcpValidationError):
        pg.load_presentation(text)


def test_trivial_conjugate_tail_means_commuting():
    pres = pg.load_presentation("pcp 2\norders 2 2\nconj 2 1 2^1\n")
    assert pres.conjugates == {}
    assert pres.commutes(2, 1)


def test_commutes_is_symmetric():
    for path in sorted(helpers.DATA.glob("*.pcp")):
        pres = pg.load_presentation(path.read_text())
        gens = range(1, pres.num_gens + 1)
        for i in gens:
            assert pres.commutes(i, i)
            for j in gens:
                assert pres.commutes(i, j) == pres.commutes(j, i), (path.name, i, j)
    d8 = helpers.dihedral8()
    assert not d8.commutes(1, 2) and d8.commutes(1, 3)


def _commutes_pairwise(pres, i, j):
    """The pairwise lookup that the noncommuting masks replace."""
    if i < j:
        i, j = j, i
    if (i, j) in pres.conjugates:
        return False
    inv = pres.inv_conjugates.get((i, j))
    return inv is None or inv == ((i, 1),) or pres.orders[j - 1] > 0


def test_noncommuting_masks_match_pairwise_definition():
    groups = [pg.load_presentation(path.read_text())
              for path in sorted(helpers.DATA.glob("*.pcp"))]
    groups += [helpers.unitriangular(6, 2), helpers.unitriangular(4),
               helpers.stray_invconj_z8()]
    for pres in groups:
        gens = range(1, pres.num_gens + 1)
        assert len(pres.noncommuting) == pres.num_gens
        for i in gens:
            expected = sum(1 << (j - 1) for j in gens if not _commutes_pairwise(pres, i, j))
            assert pres.noncommuting[i - 1] == expected, (pres, i)
            for j in gens:
                assert pres.commutes(i, j) == _commutes_pairwise(pres, i, j)
    assert helpers.stray_invconj_z8().noncommuting == (0, 0, 0)
    assert any(helpers.unitriangular(4).noncommuting)


def test_presentation_rejects_float_entries():
    with pytest.raises(TypeError):
        pg.PcPresentation(2.5, [0, 0])
    with pytest.raises(TypeError):
        pg.PcPresentation(2, [2.0, 0])
    with pytest.raises(TypeError):
        pg.PcPresentation(2, [2, 2], powers={1: [(2, 1.0)]})
    heis_conj, heis_inv = [(2, 1), (3, 1)], [(2, 1), (3, -1)]
    with pytest.raises(TypeError):
        pg.PcPresentation(3, [0, 0, 0], conjugates={(2.0, 1): heis_conj},
                          inv_conjugates={(2, 1): heis_inv})
    with pytest.raises(TypeError):
        pg.PcPresentation(3, [0, 0, 0], conjugates={(2, 1): heis_conj},
                          inv_conjugates={(2, 1.0): heis_inv})


def test_explicit_empty_power_tail_is_identity():
    pres = pg.load_presentation("pcp 1\norders 4\npower 1\n")
    assert pres == pg.load_presentation("pcp 1\norders 4\n")


def test_round_trip_corpus():
    for pres in helpers.finite_corpus().values():
        assert pg.load_presentation(pg.save_presentation(pres)) == pres
    for pres in (helpers.heisenberg(), helpers.dihedral_infinite(),
                 helpers.free_abelian(4)):
        assert pg.load_presentation(pg.save_presentation(pres)) == pres


def _random_presentation(rng: random.Random) -> pg.PcPresentation:
    n = rng.randint(1, 5)
    orders = [rng.choice([0, 2, 3, 4, 5, 6]) for _ in range(n)]

    def random_tail(floor):
        tail = []
        for k in range(floor + 1, n + 1):
            if rng.random() < 0.4:
                r = orders[k - 1]
                e = rng.randint(1, r - 1) if r > 0 else rng.choice([-2, -1, 1, 2])
                tail.append((k, e))
        return tuple(tail)

    conj, invconj, powers = {}, {}, {}
    for i in range(2, n + 1):
        for j in range(1, i):
            if rng.random() < 0.5:
                tail = random_tail(j)
                if tail:
                    conj[(i, j)] = tail
                    if orders[j - 1] == 0:
                        invconj[(i, j)] = random_tail(j) or ((i, 1),)
    for i in range(1, n + 1):
        if orders[i - 1] > 0 and rng.random() < 0.5:
            tail = random_tail(i)
            if tail:
                powers[i] = tail
    return pg.PcPresentation(n, orders, conj, invconj, powers)


def test_round_trip_random_structural():
    # round-trip only needs structural validity, not group consistency
    rng = random.Random(20260810)
    for _ in range(200):
        pres = _random_presentation(rng)
        assert pg.load_presentation(pg.save_presentation(pres)) == pres


def test_randomly_corrupted_text_rejected():
    rng = random.Random(424242)
    sources = [pg.save_presentation(p) for p in
               (*helpers.finite_corpus().values(), helpers.heisenberg())]
    for _ in range(300):
        lines = rng.choice(sources).splitlines()
        pick = rng.randrange(len(lines))
        style = rng.randrange(4)
        if style == 0:      # unknown keyword
            lines[pick] = "zz" + lines[pick]
        elif style == 1:    # junk token appended
            lines[pick] += " 1^^2"
        elif style == 2:    # duplicated statement
            lines.append(lines[pick])
        else:               # a required line dropped
            lines = [l for l in lines if not l.startswith("orders")]
        with pytest.raises(pg.PcpError):
            pg.load_presentation("\n".join(lines))


def test_corpus_presentations_are_consistent():
    # all product-of-orders normal forms are reachable and closed, so each
    # file really presents a group of the advertised size
    for name, pres in helpers.finite_corpus().items():
        table = pg.FiniteGroupTable(pres)
        closure = pg.enumerate_subgroup(pres, pg.generators(pres))
        assert closure == set(table.elements), name


def _element_order(x):
    count, acc = 1, x
    while not acc.is_identity:
        acc = acc * x
        count += 1
    return count


def test_q8_and_d8_fingerprints(d8, q8):
    # Q8 has a single involution, D8 has five
    d8_orders = [_element_order(x) for x in pg.FiniteGroupTable(d8)
                 if not x.is_identity]
    q8_orders = [_element_order(x) for x in pg.FiniteGroupTable(q8)
                 if not x.is_identity]
    assert sorted(d8_orders) == [2, 2, 2, 2, 2, 4, 4]
    assert sorted(q8_orders) == [2, 4, 4, 4, 4, 4, 4]


def test_g27_is_nonabelian_of_exponent_three():
    pres = helpers.extraspecial27()
    g1, g2, _ = pg.generators(pres)
    assert g1 * g2 != g2 * g1
    for x in pg.FiniteGroupTable(pres):
        assert (x ** 3).is_identity


def test_validate_inverse_tails_vacuous(d8):
    assert pg.validate_inverse_tails(d8) == []


def test_validate_inverse_tails_consistent(dinf, heis):
    assert pg.validate_inverse_tails(dinf) == []
    assert pg.validate_inverse_tails(heis) == []


def test_validate_inverse_tails_flags_bad_entry():
    bad = pg.PcPresentation(2, [2, 0], conjugates={(2, 1): [(2, -1)]},
                            inv_conjugates={(2, 1): [(2, 1)]})
    assert pg.validate_inverse_tails(bad) == [(2, 1)]


def test_word_parsing():
    word = pg.parse_word("g1^2*g3^-1")
    assert word == ((1, 2), (3, -1))
    assert pg.parse_word("g2") == tuple([(2, 1)])
    assert pg.parse_word("1") == tuple([])
    assert pg.format_word(pg.parse_word("g1^2*g3^-1")) == "g1^2*g3^-1"
    assert pg.format_word(tuple([])) == "1"
    assert pg.parse_word("g12^-30") == ((12, -30),)
    for bad in ("h1", "g", "g1^", "g1**g2", "g1^2 g3",
                "g1^1_0", "g١^+3", "g 1", "g1^+3", "g+1", "g1^٣", "g1^ 2", "g1^-"):
        with pytest.raises(pg.PcpSyntaxError):
            pg.parse_word(bad)


def test_format_word_drops_zero_exponents():
    assert pg.format_word([(1, 1), (2, 0), (3, -2)]) == "g1*g3^-2"


# the loader's input alphabet: the keywords, small and negative integers,
# tail syllables, and junk near the grammar (other integer spellings, stray
# carets and comment marks, a byte-order mark, a huge number)
_FUZZ_KEYWORDS = ["pcp", "orders"] + ["conj", "invconj", "power"] * 4
_FUZZ_INTEGERS = [str(k) for k in range(-2, 6)]
_FUZZ_SYLLABLES = [f"{i}^{e}" for i in range(-1, 6) for e in (-2, -1, 0, 1, 2, 3)]
_FUZZ_JUNK = ["^", "1^", "^2", "2^^1", "1^2^3", "g1", "+2", "1_0", "٣", "２", "2.0",
              "#", "# x", "\ufeff", "\t", "x", "-", "--1", "10" * 12, "PCP"]


def _fuzz_text(rng):
    def token(pool):
        return rng.choice(pool if rng.random() < 0.95 else _FUZZ_JUNK)

    lines = []
    if rng.random() < 0.8:
        # a header the loader accepts, so the statements behind it are read
        n = rng.randint(1, 4)
        lines += [f"pcp {n}", "orders " + " ".join(rng.choice("0234") for _ in range(n))]
    for _ in range(rng.randint(0, 5)):
        # a statement: keyword, the integers that key it, then a tail
        words = [token(_FUZZ_KEYWORDS)]
        words += [token(_FUZZ_INTEGERS) for _ in range(rng.choice((0, 1, 2, 2, 2)))]
        words += [token(_FUZZ_SYLLABLES) for _ in range(rng.randint(0, 3))]
        lines.append(" ".join(words))
    if rng.random() < 0.1:
        rng.shuffle(lines)
    return rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n"])


def test_loader_fuzz_returns_or_raises_pcp_error():
    rng = random.Random(8086)
    loaded = 0
    for _ in range(3000):
        text = _fuzz_text(rng)
        try:
            pres = pg.load_presentation(text if rng.random() < 0.5 else text.encode())
        except pg.PcpError:
            continue
        loaded += 1
        assert pg.load_presentation(pg.save_presentation(pres)) == pres, text
    # the texts reach past the header checks, and some are presentations
    assert loaded >= 100
