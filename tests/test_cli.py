import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import morava
from morava.cli import ParseError, parse_element, run_command
from morava.order import from_coeff_rows, from_int
from morava.stabilizer import order3_element
from morava.witt import make_ring


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
    for argv in (
        ["k1", "homotopy", "--p", "2", "--stems", "0..2000000"],
        ["k1", "homotopy", "--p", "3", "--stems", "0..2000000000000"],
        ["k1", "ko", "--stems", "-1000000,1000000"],
        ["k1", "e2", "--smax", "1000000000"],
    ):
        start = time.perf_counter()
        assert run_command(argv) == 1, argv
        assert time.perf_counter() - start < 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "131072-cell bound" in captured.err, argv
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
        # the common --n and --prec, and k1 valuations --tmax: once ignored (exit 0) or refused
        # by the library (exit 1)
        ["k1", "homotopy", "--p", "2", "--stems", "3", "--n", "0"],
        ["homalg", "g1", "--p", "3", "--s", "1", "--t", "4", "--prec", "0"],
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
