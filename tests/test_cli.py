from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
import polygauss as pg
import polygauss.cli as cli

D8 = str(helpers.DATA / "d8.pcp")
Z2 = str(helpers.DATA / "z2.pcp")
HEIS = str(helpers.DATA / "heis.pcp")


def run_cli(*argv):
    return cli.run(cli.parse_args(list(argv)))


def test_order_golden():
    assert run_cli("order", D8, "g2") == (0, "4")


def test_index_golden():
    assert run_cli("index", Z2, "g1^2*g2^1", "g2^3") == (0, "6")


def test_collect_golden():
    assert run_cli("collect", D8, "g2*g1") == (0, "g1*g2*g3")
    assert run_cli("collect", D8, "g1*g1") == (0, "1")


def test_igs_machine_lines_are_stable():
    code, text = run_cli("--machine", "igs", D8, "g2")
    assert code == 0
    assert text == "2 1 2 g2\n3 1 2 g3"
    code, text = run_cli("--machine", "igs", Z2, "g2^-4")
    assert text == "2 4 infinity g2^4"


def test_igs_human_annotations():
    code, text = run_cli("igs", D8, "g2")
    assert code == 0
    assert text.splitlines() == [
        "igs with 2 generators",
        "  depth 2  lead 1  relorder 2  g2",
        "  depth 3  lead 1  relorder 2  g3",
    ]


def test_empty_igs_output():
    assert run_cli("--machine", "igs", D8) == (0, "")
    assert run_cli("igs", D8) == (0, "igs with 0 generators")


def test_order_infinite_token():
    assert run_cli("order", Z2, "g1") == (0, "infinity")
    assert run_cli("index", Z2, "g1") == (0, "infinity")


def test_member():
    assert run_cli("member", Z2, "g1^4*g2^3", "--", "g1^2", "g2^3") == (0, "true")
    assert run_cli("member", Z2, "g1^1", "--", "g1^2", "g2^3") == (0, "false")


def test_equal():
    assert run_cli("equal", D8, "g2", "--", "g2*g3") == (0, "true")
    assert run_cli("equal", D8, "g1", "--", "g3") == (0, "false")


def test_canonical_golden():
    code, text = run_cli("--machine", "canonical", Z2, "g1^2*g2^5", "g2^3")
    assert code == 0
    assert text == "1 2 infinity g1^2*g2^2\n2 3 infinity g2^3"


def test_canonical_is_igs():
    # the igs is reduced at every depth, the finite ones included
    printed = run_cli("igs", D8, "g3", "g2*g3")
    assert run_cli("canonical", D8, "g3", "g2*g3") == printed
    assert printed[1].splitlines()[1:] == [
        "  depth 2  lead 1  relorder 2  g2",
        "  depth 3  lead 1  relorder 2  g3",
    ]
    rng = random.Random(149)
    for name in ("s4", "g27", "q8"):
        path = str(helpers.DATA / f"{name}.pcp")
        pres = helpers.load_data(f"{name}.pcp")
        for _ in range(10):
            words = ["*".join(f"g{i}^{e}" for i, e in helpers.random_word(pres, rng)) or "1"
                     for _ in range(2)]
            for flags in ((), ("--machine",)):
                assert run_cli(*flags, "igs", path, *words) == \
                    run_cli(*flags, "canonical", path, *words)


def test_verify_pass_finite_and_free_abelian():
    assert run_cli("verify", D8, "g2", "g1") == (0, "PASS")
    assert run_cli("verify", Z2, "g1^2*g2", "g2^3") == (0, "PASS")
    assert run_cli("verify", Z2, "g1") == (0, "PASS")  # index infinity


def test_verify_unsupported_group_is_an_error():
    code, text = run_cli("verify", HEIS, "g1")
    assert code == 1
    assert "error" in text
    code, text = run_cli("verify", str(helpers.DATA / "dinf.pcp"), "g1")  # mixed orders
    assert code == 1
    assert "error" in text


def test_verify_bound_flag():
    big = helpers.DATA / "z4.pcp"
    code, _ = run_cli("--bound", "2", "verify", str(big), "g1")
    assert code == 1  # group order 4 exceeds the bound
    assert run_cli("--bound", "4", "verify", str(big), "g1") == (0, "PASS")


def test_verify_detects_mismatch(monkeypatch):
    # force a lying order computation to exercise the oracle-mismatch path
    monkeypatch.setattr(cli, "subgroup_order", lambda seq: 1)
    code, text = run_cli("verify", D8, "g2")
    assert code == 2
    assert text.startswith("FAIL")


def _lying_igs(monkeypatch, entries):
    """Make the CLI's igs_by_generators return Igs(pres, entries(pres))."""
    monkeypatch.setattr(cli, "igs_by_generators",
                        lambda pres, gens: pg.Igs(pres, entries(pres)))


def _problems(text):
    assert text.startswith("FAIL: ")
    return text[len("FAIL: "):].split("; ")


def test_verify_reports_a_wrong_free_abelian_igs(monkeypatch):
    # the igs of the proper sublattice <g1^2, g2> for the whole of Z^2
    _lying_igs(monkeypatch, lambda z2: [pg.Element(z2, (2, 0)), pg.Element(z2, (0, 1))])
    code, text = run_cli("verify", Z2, "g1", "g2")
    assert code == 2
    assert _problems(text) == ["igs differs from the Hermite normal form",
                               "index differs from the Hermite pivot product"]
    # the right lattice, but not reduced above the leading exponent 2
    _lying_igs(monkeypatch, lambda z2: [pg.Element(z2, (1, 5)), pg.Element(z2, (0, 2))])
    code, text = run_cli("verify", Z2, "g1*g2^5", "g2^2")
    assert code == 2
    assert _problems(text) == ["igs is not reduced to canonical form",
                               "igs differs from the Hermite normal form"]


def test_verify_reports_a_wrong_finite_igs(monkeypatch):
    # the igs of <g2> = {1, g2, g3, g2*g3} for the whole of D8
    _lying_igs(monkeypatch, lambda d8: [pg.generator(d8, 2), pg.generator(d8, 3)])
    code, text = run_cli("verify", D8, "g1", "g2")
    assert code == 2
    assert _problems(text) == ["sift membership disagrees with enumeration",
                               "subgroup order disagrees with enumeration"]
    # g1 and g2 without g3 = [g2, g1]: not closed under conjugation
    _lying_igs(monkeypatch, lambda d8: [pg.generator(d8, 1), pg.generator(d8, 2)])
    code, text = run_cli("verify", D8, "g1", "g2")
    assert code == 2
    assert _problems(text) == ["igs fails the closure conditions",
                               "sift membership disagrees with enumeration",
                               "subgroup order disagrees with enumeration"]


def test_missing_file_is_error():
    code, text = run_cli("order", str(helpers.DATA / "missing.pcp"), "g1")
    assert code == 1 and "error" in text


def test_bad_word_is_error():
    code, text = run_cli("order", D8, "g9")
    assert code == 1
    code, text = run_cli("collect", D8, "q1")
    assert code == 1


def test_parse_args_shapes():
    req = cli.parse_args(["--machine", "igs", D8, "g1", "g2"])
    assert req.machine and req.command == "igs" and req.words == ["g1", "g2"]
    req = cli.parse_args(["member", D8, "g1", "--", "g2", "g3"])
    assert req.words == ["g1"] and req.words_after == ["g2", "g3"]
    req = cli.parse_args(["equal", D8, "--", "g2"])
    assert req.words == [] and req.words_after == ["g2"]
    with pytest.raises(cli.UsageError):
        cli.parse_args(["collect", D8])
    with pytest.raises(cli.UsageError):
        cli.parse_args(["member", D8, "g1"])
    with pytest.raises(cli.UsageError):
        cli.parse_args(["equal", D8, "g1"])
    with pytest.raises(cli.UsageError):
        cli.parse_args(["order"])
    with pytest.raises(cli.UsageError):
        cli.parse_args(["frobnicate", D8])
    for bad in ("x", "1_0", "+5", "٥", " 5", "5.0"):
        with pytest.raises(cli.UsageError):
            cli.parse_args(["--bound", bad, "order", D8])
    for bad in ("-1", "0"):
        with pytest.raises(cli.UsageError, match="positive"):
            cli.parse_args(["--bound", bad, "verify", D8, "g1"])
    assert cli.parse_args(["--bound", "1", "verify", D8, "g1"]).bound == 1
    with pytest.raises(cli.UsageError):
        cli.parse_args(["igs", D8, "g1", "--", "g2"])
    with pytest.raises(cli.UsageError):
        cli.parse_args(["--bound"])
    with pytest.raises(cli.UsageError):
        cli.parse_args(["--frobnicate", "order", D8])
    with pytest.raises(cli.UsageError):
        cli.parse_args(["equal", D8, "g1", "--", "g2", "--", "g3"])


def test_deep_recursion_is_an_error(tmp_path, capsys, monkeypatch):
    # Z/2^800 as a carry chain: g1^-1 is g1*g2*...*g800, one carry through
    # all 800 power tails, which collection makes without growing the stack
    n = 800
    path = tmp_path / "chain.pcp"
    path.write_text(f"pcp {n}\norders {' 2' * n}\n"
                    + "".join(f"power {i} {i + 1}^1\n" for i in range(1, n)))
    assert cli.main(["collect", str(path), "g1^-1"]) == 0
    assert capsys.readouterr().out.strip() == "*".join(f"g{i}" for i in range(1, n + 1))

    # memo fills and powers of conjugate images still nest on the Python
    # stack, so a RecursionError is still an error message, not a traceback
    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "igs_by_generators", too_deep)
    assert cli.main(["order", str(path), "g1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_main_exit_codes(capsys):
    assert cli.main(["order", D8, "g2"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert cli.main(["order", D8, "g9"]) == 1
    assert "error" in capsys.readouterr().err
    assert cli.main(["--help"]) == 0
    assert "polygauss" in capsys.readouterr().out
    assert cli.main(["nope"]) == 1


def test_import_skips_dataclasses():
    # every polygauss process imports the CLI; dataclasses would pull in
    # inspect, ast, dis and tokenize, about a third of its import time
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, polygauss.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def _fuzz_argv(rng, paths):
    """An argv list drawn from the flags, commands, files and words the CLI reads."""
    flags = ["--machine", "--machine", "--bound", "--bound", "-h", "--frob", "-", "--"]
    bounds = ["1", "8", "100", "0", "-3", "x", "1_0", "+5", "٥", "5.0", ""]
    words = ["g1", "g2", "g3^-1", "g2^2*g1", "g1^-3*g3^5", "1", "", " g1 ",
             "g1^18446744073709551617", "--", "--",
             "g0", "g9", "g1^", "^2", "g1**2", "g1^+2", "g1^1_0", "g١", "x", "g1*", "*g2"]
    argv = []
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        flag = rng.choice(flags)
        argv.append(flag)
        if flag == "--bound" and rng.random() < 0.9:
            argv.append(rng.choice(bounds))
    if rng.random() < 0.95:
        argv.append(rng.choice(cli.COMMANDS + ("frobnicate",)))
    if rng.random() < 0.95:
        argv.append(rng.choice(paths))
    argv += [rng.choice(words) for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.05:
        rng.shuffle(argv)
    return argv


def test_main_fuzz_exits_cleanly(tmp_path, capsys):
    # every request ends in an exit status, never in a traceback
    paths = [str(p) for p in sorted(helpers.DATA.glob("*.pcp"))]
    paths += [str(tmp_path / "missing.pcp"), str(helpers.DATA)]
    rng = random.Random(4711)
    codes = []
    for _ in range(3000):
        argv = _fuzz_argv(rng, paths)
        codes.append(cli.main(argv))
        assert codes[-1] in (0, 1, 2), argv
        capsys.readouterr()
    # the requests reach answers and errors alike
    assert codes.count(0) >= 100 and codes.count(1) >= 100
