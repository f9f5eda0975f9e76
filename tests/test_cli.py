import argparse
import contextlib
import functools
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import morava
from morava import cli
from morava.cli import ParseError, parse_element, run_command
from morava.order import OrderElem, from_coeff_rows, from_int
from morava.stabilizer import order3_element
from morava.witt import make_ring


PNM, PN, PPREC, P = ("--p", "--n", "--prec"), ("--p", "--n"), ("--p", "--prec"), ("--p",)
# the shared options each leaf takes besides --json, in help order: those its handler reads
SHARED = {
    ("witt", "trace"): PNM,
    ("witt", "frobenius"): PNM,
    ("witt", "teich"): PNM,
    ("order", "mul"): PNM,
    ("order", "inv"): PNM,
    ("order", "val"): PNM,
    ("order", "digits"): PNM,
    ("stab", "order"): PNM,
    ("stab", "comm"): PNM,
    ("stab", "level"): PNM,
    ("stab", "norm"): PNM,
    ("stab", "split"): PNM,
    ("stab", "inK"): PNM,
    ("grlie", "bracket"): PN,
    ("grlie", "power"): PN,
    ("grlie", "span"): PN,
    ("grlie", "check"): PNM,
    ("grlie", "abelianize"): PN,
    ("homalg", "iwasawa"): PPREC,
    ("homalg", "cyclic"): PPREC,
    ("homalg", "g1"): P,
    ("k1", "e2"): P,
    ("k1", "homotopy"): P,
    ("k1", "ko"): (),
    ("k1", "valuations"): P,
}

# imported after SHARED, which test_cli_fuzz imports from here; its strategies are read at draw time
import test_cli_fuzz  # noqa: E402


def test_parse_order_three_generator():
    ring = make_ring(3, 2, 16)
    assert parse_element("-1/2*(1+w*S)", ring) == order3_element(ring).elem


def test_parse_uniformizer_squares_to_p():
    ring = make_ring(2, 2, 8)
    assert parse_element("1-S^2", ring) == from_int(ring, -1)
    assert parse_element("S*w - w^2*S", ring).is_zero


def test_parse_errors_carry_positions():
    ring = make_ring(3, 2, 8)
    with pytest.raises(ParseError, match="position 2"):
        parse_element("w @", ring)
    with pytest.raises(ParseError, match="trailing input"):
        parse_element("1)", ring)
    with pytest.raises(ParseError, match="expected '\\)'"):
        parse_element("(1+w", ring)
    with pytest.raises(ParseError, match="exponent"):
        parse_element("w^w", ring)
    with pytest.raises(ParseError, match="denominator"):
        parse_element("1/w", ring)
    with pytest.raises(ParseError, match="S is not allowed"):
        parse_element("1+S", ring, allow_s=False)
    # digits are ASCII: a superscript two or an Arabic-Indic three is no number
    with pytest.raises(ParseError, match="unexpected character '\u00b2' at position 1"):
        parse_element("S\u00b2", ring)
    with pytest.raises(ParseError, match="unexpected character '\u0663' at position 0"):
        parse_element("\u0663", ring)
    with pytest.raises(ParseError, match="unexpected character '\u0663' at position 1"):
        parse_element("w\u0663", ring)


def test_format_parse_round_trip():
    ring = make_ring(3, 2, 6)
    rng = random.Random(7)
    for _ in range(20):
        rows = [
            [rng.randrange(3**6) for _ in range(2)],
            [rng.randrange(3**6) for _ in range(2)],
        ]
        x = from_coeff_rows(ring, rows)
        assert parse_element(repr(x), ring) == x


def test_stab_order_line(capsys):
    code = run_command(["stab", "order", "-1/2*(1+w*S)"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "order 3 (at precision S^32)"


def test_stab_torsion_free_line(capsys):
    code = run_command(["stab", "order", "1+S", "--p", "5", "--bound", "40"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.strip() == "no torsion found up to order 40 (at precision S^32)"


def test_grlie_span_line(capsys):
    code = run_command(["grlie", "span", "--p", "2", "--n", "2", "--k", "1", "--l", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "dim 1" in out
    assert "equals ker(tr)" in out


def test_usage_and_domain_exit_codes(capsys):
    assert run_command([]) == 2
    assert run_command(["stab", "nonsense"]) == 2
    capsys.readouterr()
    assert run_command(["order", "inv", "S"]) == 1
    assert "error:" in capsys.readouterr().err
    assert run_command(["witt", "trace", "S"]) == 1
    assert "S is not allowed" in capsys.readouterr().err
    assert run_command(["order", "inv", "1/3"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_stems_are_usage_errors(capsys):
    for group in ("homotopy", "ko"):
        for spec in ("5..-5", "1,,2", "a..3"):
            assert run_command(["k1", group, "--stems", spec]) == 2, (group, spec)
            err = capsys.readouterr().err
            assert "--stems" in err and "Traceback" not in err


def test_composite_p_is_a_domain_error(capsys):
    for argv in (
        ["k1", "homotopy", "--p", "4", "--stems", "0..3"],
        ["homalg", "g1", "--p", "4", "--s", "1", "--t", "6"],
        ["k1", "e2", "--p", "6"],
    ):
        assert run_command(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "p must be prime" in captured.err


def test_edge_inputs_exit_codes(capsys):
    for argv, code in (
        (["stab", "order", "2", "--bound", "-5"], 2),
        (["stab", "order", "2", "--bound", "0"], 2),
        (["k1", "valuations", "--p", "4", "--tmax", "20"], 1),
        (["homalg", "cyclic", "--matrix", "[[1]]", "--order", "0", "--s", "1"], 1),
    ):
        assert run_command(argv) == code, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err


def test_valuation_cli_refuses_huge_bounds_fast():
    src = str(Path(morava.__file__).resolve().parents[1])
    for p, t_max in (("3", "100000000"), ("10007", "100")):
        done = subprocess.run(
            [sys.executable, "-m", "morava.cli", "k1", "valuations", "--p", p, "--tmax", t_max],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=10,
        )
        assert done.returncode == 1 and done.stdout == "", (p, t_max)
        assert "65536-bit bound" in done.stderr and "Traceback" not in done.stderr


@pytest.mark.parametrize("argv", [["k1", "ko", "--stems", "0..8"], ["k1", "homotopy", "--p", "2", "--stems", "3", "--json"]])
def test_closed_stdout_exits_1_without_a_traceback(argv):
    # the read end of the pipe is closed before the command starts: exit 1, stderr empty
    src = str(Path(morava.__file__).resolve().parents[1])
    r, w = os.pipe()
    os.close(r)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "morava.cli", *argv],
            stdout=w, stderr=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=30,
        )
    finally:
        os.close(w)
    assert (done.returncode, done.stderr) == (1, ""), argv


def test_huge_primes_are_refused_fast():
    # 2^61 - 1 is prime; factoring it by trial division takes about 1.5e9 steps
    src = str(Path(morava.__file__).resolve().parents[1])
    big = str(2**61 - 1)
    for argv in (
        ["k1", "valuations", "--p", big, "--tmax", "1"],
        ["homalg", "g1", "--p", big, "--s", "1", "--t", "2"],
    ):
        done = subprocess.run(
            [sys.executable, "-m", "morava.cli", *argv],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=10,
        )
        assert done.returncode == 1 and done.stdout == "", argv
        assert "2^32 bound" in done.stderr and "Traceback" not in done.stderr, argv


def test_oversized_chart_windows_are_domain_errors(capsys):
    stems, cells = "more than 131072 stems requested", "131072-cell bound"
    for argv, refusal in (
        (["k1", "homotopy", "--p", "2", "--stems", "0..2000000"], stems),
        (["k1", "homotopy", "--p", "3", "--stems", "0..2000000000000"], stems),
        (["k1", "homotopy", "--p", "4294967291", "--stems", "0..2000000"], stems),
        (["k1", "ko", "--stems", "-1000000,1000000"], cells),
        (["k1", "e2", "--smax", "1000000000"], cells),
    ):
        start = time.perf_counter()
        assert run_command(argv) == 1, argv
        assert time.perf_counter() - start < 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and refusal in captured.err, argv
        assert "Traceback" not in captured.err, argv


def test_oversized_precision_is_a_domain_error(capsys):
    for argv in (["order", "val", "S", "--prec", "200000"], ["stab", "order", "1+S", "--prec", "1025"]):
        start = time.perf_counter()
        assert run_command(argv) == 1, argv
        assert time.perf_counter() - start < 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "bound of 1024 Witt digits" in captured.err, argv
        assert "Traceback" not in captured.err, argv


@pytest.mark.parametrize(
    "expr", ["(" * 3000 + "1" + ")" * 3000, "-" * 3000 + "1"], ids=["parentheses", "minus"]
)
def test_deep_nesting_is_a_parse_error(capsys, expr):
    assert run_command(["order", "val", expr]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "nesting deeper than 100 at position 100" in captured.err
    ring = make_ring(3, 2, 8)
    w = parse_element("w", ring)
    assert parse_element("(" * 100 + "w" + ")" * 100, ring) == w
    assert parse_element("--" * 50 + "w", ring) == w


@pytest.mark.parametrize(
    "argv",
    [
        ["grlie", "bracket", "--k", "0", "--l", "1", "1", "1"],
        ["grlie", "power", "--k", "0", "3"],
        ["grlie", "span", "--k", "0", "--l", "1"],
        ["grlie", "check", "--k", "1", "--l", "0"],
        ["grlie", "abelianize", "--levels", "0"],
    ],
    ids=lambda argv: argv[1],
)
def test_grlie_level_zero_is_a_usage_error(capsys, argv):
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "expected a positive integer, got '0'" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["grlie", "check", "--k", "1", "--l", "1", "--trials", "-3"],
        ["grlie", "check", "--k", "1", "--l", "1", "--trials", "0"],
        ["grlie", "check", "--k", "1", "--power", "--trials", "0"],
        ["order", "digits", "1", "--count", "-1"],
        ["order", "digits", "1", "--count", "0"],
        ["grlie", "abelianize", "--levels", "-3"],
        # --n and --prec, and k1 valuations --tmax: once refused by the library (exit 1)
        ["order", "val", "S", "--n", "0"],
        ["order", "val", "S", "--prec", "0"],
        ["order", "val", "S", "--n", "-2"],
        ["k1", "valuations", "--tmax", "0"],
        ["k1", "valuations", "--tmax", "-5"],
    ],
    ids=lambda argv: " ".join(argv[1:]),
)
def test_nonpositive_trials_and_count_are_usage_errors(capsys, argv):
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "expected a positive integer" in captured.err


# a complete argv of each leaf that takes fewer than all three shared options
RUNS_WITHOUT = {
    ("grlie", "bracket"): ["--k", "1", "--l", "1", "1", "1"],
    ("grlie", "power"): ["--k", "1", "1"],
    ("grlie", "span"): ["--k", "1", "--l", "1"],
    ("grlie", "abelianize"): ["--levels", "2"],
    ("homalg", "iwasawa"): ["--matrix", "[[81]]"],
    ("homalg", "cyclic"): ["--matrix", "[[1]]", "--order", "2", "--s", "1"],
    ("homalg", "g1"): ["--s", "1", "--t", "4"],
    ("k1", "e2"): [],
    ("k1", "homotopy"): ["--stems", "3"],
    ("k1", "ko"): ["--stems", "0..3"],
    ("k1", "valuations"): [],
}
# the (command, option) pairs once parsed and then ignored: each leaf lacks the ones it never read
REMOVED = [(*key, flag) for key, shared in SHARED.items() for flag in PNM if flag not in shared]


def test_shared_option_counts():
    assert len(SHARED) == 25 and sum(map(len, SHARED.values())) == 58 and len(REMOVED) == 17
    assert {key for key, shared in SHARED.items() if shared != PNM} == set(RUNS_WITHOUT)


@pytest.mark.parametrize("group, leaf", SHARED, ids=[" ".join(key) for key in SHARED])
def test_each_leaf_lists_exactly_its_shared_options(capsys, group, leaf):
    assert run_command([group, leaf, "--help"]) == 0
    listed = re.findall(r"^  (--p|--n|--prec|--json) ", capsys.readouterr().out, re.M)
    assert listed == [*SHARED[(group, leaf)], "--json"]


@pytest.mark.parametrize("group, leaf, flag", REMOVED, ids=[" ".join(pair) for pair in REMOVED])
def test_options_a_command_does_not_read_are_usage_errors(capsys, group, leaf, flag):
    argv = [group, leaf, *RUNS_WITHOUT[(group, leaf)]]
    assert run_command(argv) == 0
    capsys.readouterr()
    # a value the option once took, and one it refused (k1 homotopy --n 0, homalg g1 --prec 0)
    for value in ("5", "0"):
        assert run_command([*argv, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"unrecognized arguments: {flag} {value}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["order", "val", "S", "--n", "abc"],
        ["order", "val", "S", "--prec", "1.5"],
        ["order", "digits", "1", "--count", "x"],
        ["stab", "order", "2", "--bound", "ten"],
        ["grlie", "bracket", "1", "1", "--l", "1", "--k", "abc"],
        ["grlie", "span", "--k", "1", "--l", "abc"],
        ["grlie", "check", "--k", "1", "--l", "1", "--trials", "abc"],
        ["grlie", "abelianize", "--levels", "abc"],
        ["k1", "valuations", "--tmax", "abc"],
    ],
    ids=lambda argv: " ".join(argv[1:]),
)
def test_non_integer_positive_flags_are_usage_errors(capsys, argv):
    # the same message as a value below 1, not argparse's "invalid _positive_int value"
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"expected a positive integer, got {argv[-1]!r}" in captured.err
    assert "_positive_int" not in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["order", "val", "S", "--prec", "9" * 5000], "expected an integer short enough to read"),
        (["grlie", "abelianize", "--levels", "7" * 5000], "expected an integer short enough to read"),
        (["order", "val", "S", "--n", "x" * 5000], "expected a positive integer"),
        (["order", "val", "S", "--prec", "-" + "9" * 5000], "expected a positive integer"),
        (["k1", "ko", "--stems", "9" * 5000], "expected a..b with a <= b or a comma list"),
        (["k1", "homotopy", "--stems", "1.." + "9" * 5000], "expected a..b with a <= b or a comma list"),
    ],
    ids=["prec 9^5000", "levels 7^5000", "n x^5000", "prec -9^5000", "stems 9^5000", "stems 1..9^5000"],
)
def test_long_refused_values_are_cut(capsys, argv, message):
    # a usage error as before, echoing at most 60 characters of the value and its length
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    shown = repr(argv[-1])[:60] + f"... (a string of {len(argv[-1])} characters)"
    assert captured.out == "" and f"{message}, got {shown}\n" in captured.err
    assert len(captured.err) < 1024


@pytest.mark.parametrize(
    "argv, message",
    [
        (["grlie", "check", "--k", "1", "--power", "--l", "5", "--trials", "3"], "not allowed"),
        (["grlie", "check", "--k", "1", "--trials", "3"], "one of the arguments --l --power"),
    ],
    ids=["both", "neither"],
)
def test_grlie_check_needs_exactly_one_of_l_and_power(capsys, argv, message):
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize(
    "window", [["--smax", "-3"], ["--tmin", "10", "--tmax", "0"]], ids=" ".join
)
def test_empty_e2_window_is_a_domain_error(capsys, window):
    assert run_command(["k1", "e2", *window]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "empty chart window" in captured.err


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["witt", "teich", "10", "--p", "3", "--n", "2"], 10),
        (["witt", "teich", "-1", "--p", "3", "--n", "2"], -1),
        (["grlie", "bracket", "--p", "3", "--n", "2", "--k", "1", "--l", "1", "1", "9"], 9),
        (["grlie", "bracket", "--p", "2", "--n", "2", "--k", "1", "--l", "2", "-3", "1"], -3),
        (["grlie", "power", "--p", "5", "--n", "2", "--k", "1", "25"], 25),
    ],
    ids=lambda value: " ".join(value[:2]) if isinstance(value, list) else str(value),
)
def test_residues_outside_the_field_are_domain_errors(capsys, argv, bad):
    assert run_command(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"residue index {bad} outside" in captured.err
    # the largest residue in range still answers
    q = int(argv[argv.index("--p") + 1]) ** int(argv[argv.index("--n") + 1])
    assert run_command([str(q - 1) if x == str(bad) else x for x in argv]) == 0
    assert capsys.readouterr().out


def test_order_mul_json(capsys):
    code = run_command(["order", "mul", "S", "w", "--p", "2", "--n", "2", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p"] == 2
    ring = make_ring(2, 2, 16)
    expected = parse_element("w^2*S", ring)
    assert payload["coeffs"] == expected.to_json()["coeffs"]


def test_order_val_and_digits(capsys):
    assert run_command(["order", "val", "S^3"]) == 0
    assert capsys.readouterr().out.strip() == "v = 3/2"
    assert run_command(["order", "digits", "3", "--count", "4"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "digit 0: 0"


def test_witt_teich_and_trace(capsys):
    assert run_command(["witt", "teich", "2", "--p", "3", "--n", "1", "--prec", "8"]) == 0
    assert capsys.readouterr().out.strip() == "6560"
    assert run_command(["witt", "trace", "w", "--p", "3", "--n", "2", "--prec", "8"]) == 0
    assert capsys.readouterr().out.strip() == "tr = 2695 (mod 3^8)"


def test_homalg_iwasawa_lines(capsys):
    code = run_command(
        ["homalg", "iwasawa", "--matrix", "[[81]]", "--p", "2", "--prec", "12"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "H^0 = 0"
    assert lines[1] == "H^1 = Z/16"


def test_homalg_g1_line(capsys):
    code = run_command(["homalg", "g1", "--p", "3", "--s", "1", "--t", "36"])
    assert code == 0
    assert "Z/27" in capsys.readouterr().out


def test_k1_homotopy_and_ko(capsys):
    code = run_command(["k1", "homotopy", "--p", "2", "--stems", "0..3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "pi_3: Z/8" in out
    assert "hidden extension" in out
    code = run_command(["k1", "ko", "--stems", "-4,0,1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "pi_-4: Z_2" in out
    assert "pi_1: Z/2" in out


def test_k1_valuations_and_e2_json(capsys):
    code = run_command(["k1", "valuations", "--p", "3", "--tmax", "30"])
    assert code == 0
    assert "ok" in capsys.readouterr().out
    code = run_command(
        ["k1", "e2", "--p", "2", "--smax", "3", "--tmin", "0", "--tmax", "8", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    cells = {(c["s"], c["t"]): c["summands"] for c in payload["cells"]}
    assert cells[(1, 4)] == [{"order": 8, "label": "zeta*u^-2"}]


def test_grlie_check_and_abelianize(capsys):
    code = run_command(
        ["grlie", "check", "--p", "3", "--n", "2", "--k", "1", "--l", "2", "--trials", "5"]
    )
    assert code == 0
    assert "0 mismatches" in capsys.readouterr().out
    code = run_command(["grlie", "abelianize", "--p", "3", "--n", "2", "--levels", "8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "H_1 = Z_3 + Z/3 + Z/3" in out


def test_grlie_check_power(capsys):
    argv = ["grlie", "check", "--p", "3", "--n", "2", "--k", "1", "--power", "--trials", "5"]
    assert run_command(argv) == 0
    assert capsys.readouterr().out == "ok: 5 trials, 0 mismatches, 3 degenerate\n"
    assert run_command(argv + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"ok": True, "trials": 5, "mismatches": 0, "degenerate": 3}


def _eager_parser() -> argparse.ArgumentParser:
    """The parser as built before it built one group's leaves: every group, every leaf."""

    def _leaf(sub, group, name):
        parser = sub.add_parser(name)
        parser._negative_number_matcher = cli._DASHED_VALUE
        shared = SHARED[(group, name)]
        if "--p" in shared:
            parser.add_argument("--p", type=_int, default=3, help="the prime (default 3)")
        if "--n" in shared:
            parser.add_argument("--n", type=_positive_int, default=2, help="the height (default 2)")
        if "--prec" in shared:
            parser.add_argument(
                "--prec", type=_positive_int, default=16, help="Witt digits of precision (default 16)"
            )
        parser.add_argument("--json", action="store_true", dest="as_json", help="print a JSON document")
        return parser

    _int, _positive_int, _parse_stems = cli._int, cli._positive_int, cli._parse_stems

    top = argparse.ArgumentParser(
        prog="morava", description="exact arithmetic in small stabilizer groups"
    )
    groups = top.add_subparsers(dest="group", required=True)

    witt = groups.add_parser("witt", help="truncated Witt vector arithmetic")
    wsub = witt.add_subparsers(dest="cmd", required=True)
    wtrace = _leaf(wsub, "witt", "trace")
    wtrace.add_argument("expr")
    wfrob = _leaf(wsub, "witt", "frobenius")
    wfrob.add_argument("expr")
    wteich = _leaf(wsub, "witt", "teich")
    wteich.add_argument("residue", type=_int)

    order = groups.add_parser("order", help="arithmetic in the twisted order")
    osub = order.add_subparsers(dest="cmd", required=True)
    omul = _leaf(osub, "order", "mul")
    omul.add_argument("expr")
    omul.add_argument("other")
    oinv = _leaf(osub, "order", "inv")
    oinv.add_argument("expr")
    oval = _leaf(osub, "order", "val")
    oval.add_argument("expr")
    odig = _leaf(osub, "order", "digits")
    odig.add_argument("expr")
    odig.add_argument("--count", type=_positive_int, default=None)

    stab = groups.add_parser("stab", help="unit group operations")
    ssub = stab.add_subparsers(dest="cmd", required=True)
    sorder = _leaf(ssub, "stab", "order")
    sorder.add_argument("expr")
    sorder.add_argument("--bound", type=_positive_int, default=None)
    scomm = _leaf(ssub, "stab", "comm")
    scomm.add_argument("expr")
    scomm.add_argument("other")
    slevel = _leaf(ssub, "stab", "level")
    slevel.add_argument("expr")
    snorm = _leaf(ssub, "stab", "norm")
    snorm.add_argument("expr")
    ssplit = _leaf(ssub, "stab", "split")
    ssplit.add_argument("expr")
    sink = _leaf(ssub, "stab", "inK")
    sink.add_argument("expr")

    grlie = groups.add_parser("grlie", help="graded Lie formulas and H_1")
    gsub = grlie.add_subparsers(dest="cmd", required=True)
    gbr = _leaf(gsub, "grlie", "bracket")
    gbr.add_argument("--k", type=_positive_int, required=True)
    gbr.add_argument("--l", type=_positive_int, required=True)
    gbr.add_argument("a", type=_int)
    gbr.add_argument("b", type=_int)
    gpw = _leaf(gsub, "grlie", "power")
    gpw.add_argument("--k", type=_positive_int, required=True)
    gpw.add_argument("a", type=_int)
    gsp = _leaf(gsub, "grlie", "span")
    gsp.add_argument("--k", type=_positive_int, required=True)
    gsp.add_argument("--l", type=_positive_int, required=True)
    gch = _leaf(gsub, "grlie", "check")
    gch.add_argument("--k", type=_positive_int, required=True)
    gch_what = gch.add_mutually_exclusive_group(required=True)
    gch_what.add_argument("--l", type=_positive_int)
    gch_what.add_argument("--power", action="store_true")
    gch.add_argument("--trials", type=_positive_int, default=50)
    gab = _leaf(gsub, "grlie", "abelianize")
    gab.add_argument("--levels", type=_positive_int, required=True)

    homalg = groups.add_parser("homalg", help="operator (co)homology")
    hsub = homalg.add_subparsers(dest="cmd", required=True)
    hiw = _leaf(hsub, "homalg", "iwasawa")
    hiw.add_argument("--matrix", required=True, help="operator as a JSON matrix")
    hcy = _leaf(hsub, "homalg", "cyclic")
    hcy.add_argument("--matrix", required=True, help="operator as a JSON matrix")
    hcy.add_argument("--order", type=_int, required=True)
    hcy.add_argument("--s", type=_int, required=True)
    hg1 = _leaf(hsub, "homalg", "g1")
    hg1.add_argument("--s", type=_int, required=True)
    hg1.add_argument("--t", type=_int, required=True)

    k1 = groups.add_parser("k1", help="height-one charts and homotopy")
    ksub = k1.add_subparsers(dest="cmd", required=True)
    ke2 = _leaf(ksub, "k1", "e2")
    ke2.add_argument("--smax", type=_int, default=6)
    ke2.add_argument("--tmin", type=_int, default=-8)
    ke2.add_argument("--tmax", type=_int, default=16)
    kho = _leaf(ksub, "k1", "homotopy")
    kho.add_argument("--stems", type=_parse_stems, required=True, help="a..b or a comma list")
    kko = _leaf(ksub, "k1", "ko")
    kko.add_argument("--stems", type=_parse_stems, required=True, help="a..b or a comma list")
    kva = _leaf(ksub, "k1", "valuations")
    kva.add_argument("--tmax", type=_positive_int, default=200)

    return top


ORACLE_ARGVS = [
    ["--help"],
    *([group, "--help"] for group in dict.fromkeys(group for group, _ in SHARED)),
    *([group, leaf, "--help"] for group, leaf in SHARED),
    [],
    ["nosuch"],
    ["order"],
    ["order", "nosuch"],
    ["--json", "order", "val", "S"],
    ["-h", "order"],
    ["--p", "3"],
    ["order", "val", "S", "x"],
    ["order", "val", "S", "--nosuch"],
    ["grlie", "span", "--k", "1"],
    ["grlie", "check", "--k", "1"],
    ["k1", "homotopy", "--stems", "5..-5"],
    ["order", "val", "S", "--n", "abc"],
    # the plain integer options refuse through cli._int; a clash of --l and --power
    ["witt", "teich", "x"],
    ["order", "val", "S", "--p", "x"],
    ["homalg", "g1", "--s", "1", "--t", "x"],
    ["k1", "e2", "--tmin", "1.5"],
    ["grlie", "check", "--k", "1", "--l", "1", "--power"],
    # argv that parse: the namespaces must agree too
    ["order", "val", "-1/2*(1+w*S)", "--p", "5", "--json"],
    ["grlie", "check", "--k", "1", "--power", "--trials", "3"],
    ["k1", "homotopy", "--p", "2", "--stems", "-8..8"],
    ["homalg", "cyclic", "--matrix", "[[1]]", "--order", "2", "--s", "1"],
]


class _Parsed(Exception):
    """Raised by a stub handler with the namespace run_command parsed."""


def _stop(args):
    raise _Parsed(vars(args))


def _outcome(run, argv):
    """(namespace dict or exit code, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = run(argv)
        except SystemExit as exc:
            result = exc.code
        except _Parsed as parsed:
            result = parsed.args[0]
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", ORACLE_ARGVS, ids=lambda argv: " ".join(argv) or "(empty)")
def test_parser_matches_eager_oracle(monkeypatch, argv):
    # run_command's reading (the command-table reader, else argparse) against the test's own every-leaf parser
    monkeypatch.setenv("COLUMNS", "80")
    stubbed = {name: (*entry[:3], _stop) for name, entry in cli._GROUPS.items()}
    monkeypatch.setattr(cli, "_GROUPS", stubbed)
    eager = _outcome(lambda argv: vars(_eager_parser().parse_args(argv)), argv)
    assert _outcome(run_command, argv) == eager


@functools.lru_cache(maxsize=None)
def _eager() -> argparse.ArgumentParser:
    return _eager_parser()


def _units(argv):
    """The tokens after group and leaf, each flag that takes a value with the token after it."""
    units, rest = [], iter(argv[2:])
    for token in rest:
        takes_value = token.startswith("--") and token not in ("--json", "--power")
        units.append([token, *itertools.islice(rest, takes_value)])
    return units


# tokens argparse reads as options, as the end of options or as values the reader declines, and
# dashed values it reads as values
_INSERTED = ["--", "-h", "-hx", "-", "--p=5", "--pr", "-=5", "--json"]
_DASHED = ["-1/2*(1+w*S)", "-8..8", "-5", "-w", "-1"]


def _perturbed(argv, rnd: random.Random):
    """argv with its units shuffled, then up to three edits: a unit repeated or dropped, a flag
    abbreviated or joined to its value by '=', a token of _INSERTED or an extra positional
    inserted, or a value replaced by a dashed one."""
    units = _units(argv)
    rnd.shuffle(units)
    for _ in range(rnd.randrange(4)):
        edit, at = rnd.randrange(7), rnd.randrange(len(units) + 1)
        unit = units[at] if at < len(units) else None
        if edit == 0 and unit:
            units.insert(rnd.randrange(len(units) + 1), list(unit))
        elif edit == 1 and unit:
            del units[at]
        elif edit == 2 and unit and unit[0].startswith("--"):
            unit[0] = unit[0][: rnd.randint(2, len(unit[0]))]
        elif edit == 3 and unit and len(unit) == 2:
            units[at] = ["=".join(unit)]
        elif edit == 4:
            units.insert(at, [rnd.choice(_INSERTED)])
        elif edit == 5:
            units.insert(at, [rnd.choice(["1", "w", *_DASHED])])
        elif unit:
            unit[-1] = rnd.choice(_DASHED)
    return argv[:2] + [token for unit in units for token in unit]


@st.composite
def _near_valid_argvs(draw):
    return _perturbed(draw(test_cli_fuzz.argvs()), draw(st.randoms(use_true_random=False)))


def _check_reader(argv) -> bool:
    """Whether the reader read argv; when it did, argparse parses argv to the same namespace."""
    read = cli._read_argv(argv)
    if read is None:
        return False
    with contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            parsed = vars(_eager().parse_args(argv))
        except SystemExit:
            pytest.fail(f"the reader read {argv}, which argparse refuses: {err.getvalue()}")
    assert vars(read) == parsed, argv
    return True


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(_near_valid_argvs())
@example(["order", "val", "-1/2*(1+w*S)", "--p", "5", "--json"])
@example(["k1", "homotopy", "--stems", "-8..8", "--p", "2"])
@example(["grlie", "power", "-5", "--k", "1"])
@example(["order", "val", "S", "--pr", "8"])
@example(["order", "val", "S", "--p=5"])
@example(["order", "val", "--", "S"])
@example(["order", "val", "S", "-hx"])
@example(["order", "val", "-"])
@example(["order", "val", "S", "--p"])
@example(["grlie", "check", "--k", "1", "--l", "2", "--power"])
def test_argv_reader_matches_argparse(argv):
    # the reader declines argv or reads the namespace the parser with every leaf makes of it
    _check_reader(argv)


def test_argv_reader_takes_the_corpus_traffic():
    # every command that runs (exit 0 or 1) is read without argparse; every usage error is not
    corpus = json.loads((Path(__file__).parent / "cli_corpus.json").read_text())
    for record in corpus:
        assert _check_reader(record["argv"]) == (record["exit"] != 2), record["argv"]
    assert {record["exit"] for record in corpus} == {0, 1, 2}


# The element reader before the token pattern, kept verbatim as the oracle of parse_element.
def _tokenize(src: str):
    tokens = []
    i = 0
    while i < len(src):
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if "0" <= c <= "9":  # ASCII: isdigit also takes superscript and non-Latin digits
            j = i
            while j < len(src) and "0" <= src[j] <= "9":
                j += 1
            tokens.append(("int", int(src[i:j]), i))
            i = j
            continue
        if c in ("w", "S"):
            tokens.append(("name", c, i))
            i += 1
            continue
        if c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r} at position {i}")
    tokens.append(("end", None, len(src)))
    return tokens


# each parenthesis or unary minus is one level of recursion in _Parser.base
_MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens, ring, allow_s):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.ring = ring
        self.allow_s = allow_s

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self) -> OrderElem:
        out = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> OrderElem:
        out = self.factor()
        while self.peek()[0] == "*":
            self.take()
            out = out * self.factor()
        return out

    def factor(self) -> OrderElem:
        out = self.base()
        if self.peek()[0] == "^":
            self.take()
            kind, value, pos = self.peek()
            if kind != "int":
                raise ParseError(f"expected a nonnegative exponent at position {pos}")
            self.take()
            out = out ** value
        return out

    def nested(self, inner, pos):
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError(f"nesting deeper than {_MAX_NESTING} at position {pos}")
        out = inner()
        self.depth -= 1
        return out

    def base(self) -> OrderElem:
        from morava.order import from_int, from_witt, s_gen

        kind, value, pos = self.peek()
        if kind == "-":
            self.take()
            return self.nested(self.base, pos).scale(-1)
        if kind == "int":
            self.take()
            if self.peek()[0] == "/":
                self.take()
                dkind, dval, dpos = self.peek()
                if dkind != "int":
                    raise ParseError(f"expected a denominator at position {dpos}")
                self.take()
                if dval % self.ring.params.p == 0:  # d = 0 included
                    raise ValueError("not a unit in the order")
                return from_int(self.ring, value * pow(dval, -1, self.ring.params.modulus))
            return from_int(self.ring, value)
        if kind == "name" and value == "w":
            self.take()
            return from_witt(self.ring, self.ring.omega)
        if kind == "name" and value == "S":
            if not self.allow_s:
                raise ParseError(f"S is not allowed here (position {pos})")
            self.take()
            return s_gen(self.ring)
        if kind == "(":
            self.take()
            out = self.nested(self.expr, pos)
            if self.peek()[0] != ")":
                raise ParseError(f"expected ')' at position {self.peek()[2]}")
            self.take()
            return out
        raise ParseError(f"unexpected token at position {pos}")


def _oracle_parse_element(src: str, ring, allow_s: bool = True) -> OrderElem:
    parser = _Parser(_tokenize(src), ring, allow_s)
    out = parser.expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input at position {pos}")
    return out


def _read(parse, src, ring, allow_s):
    """The element's coordinates, or the type and message of what the reader raised."""
    try:
        return parse(src, ring, allow_s).coords
    except Exception as exc:
        return type(exc), str(exc)


# ASCII and Unicode whitespace (U+001C is isspace too), a superscript two, an Arabic-Indic three
_SPACES = " \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u2028\u3000"
_PIECES = st.one_of(
    st.sampled_from(list("0123456789wS+-*/^()" + _SPACES + "\u00b2\u0663@")),
    st.integers(0, 10**40).map(str),
    st.sampled_from(("^2", "^", "/2", "/3", "/", "*w", "+S", "-(", ")", "w^10", "1/0")),
)
_READER_RINGS = (make_ring(3, 2, 4), make_ring(2, 2, 3))


@st.composite
def _expressions(draw):
    """Strings of the reader's alphabet, a third of them nested from 95 to 110 levels deep."""
    body = "".join(draw(st.lists(_PIECES, max_size=30)))
    depth = draw(st.sampled_from((0, 0, draw(st.integers(95, 110)))))
    opener = draw(st.sampled_from(("(", "-", "-(", " ( ")))
    return opener * depth + body + ")" * draw(st.integers(0, depth))


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(_expressions(), st.sampled_from(_READER_RINGS), st.booleans())
@example("1" * 5000, _READER_RINGS[0], True)  # past int's default digit limit where it has one
@example("@" + "1" * 5000, _READER_RINGS[0], True)
@example("1" * 5000 + "@", _READER_RINGS[0], True)
@example("(" * 101 + "w" + ")" * 101 + "\u00b2", _READER_RINGS[0], True)
@example("-" * 3000 + "1", _READER_RINGS[0], False)
@example(" \t 1 + w*S \u3000", _READER_RINGS[0], False)
def test_token_pattern_reader_matches_oracle(src, ring, allow_s):
    assert _read(parse_element, src, ring, allow_s) == _read(_oracle_parse_element, src, ring, allow_s)


def test_token_pattern_whitespace_is_isspace():
    # the pattern skips the whitespace before each token, where the oracle skipped str.isspace
    every = "".join(map(chr, range(0x110000)))
    skipped = "".join(every[m.start() : m.start(1)] for m in re.finditer(cli._TOKEN, every))
    assert skipped == "".join(c for c in every if c.isspace())
