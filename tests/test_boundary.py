"""The integer boundary: every entry point refuses a non-integer or a too-small integer.

Each integer argument of a library entry point goes through padic.check_int,
so True, 2.0 and "3" are refused as non-integers and lo - 1 as too small,
each with a ValueError that names the argument.  The CLI's own
`_positive_int` flags must agree with check_int on -1, 0 and 1.
"""

import contextlib
import io

import pytest

from morava import cli
from morava.grlie import (
    abelianization_report,
    check_bracket_vs_group,
    check_power_vs_group,
    commutator_span,
    predicted_span,
)
from morava.homalg import ZpModuleWithOperator, cyclic_cohomology, g1_cohomology_E1
from morava.k1 import (
    fiber_groups,
    homotopy_table,
    ko_e2_page,
    ko_table,
    psi_valuation_report,
    sphere_e2_page,
)
from morava.order import from_json, order_one, s_gen
from morava.padic import INF, PadicParams, check_int, check_prime
from morava.stabilizer import StabElem, element_order
from morava.witt import fq_field, make_ring

RING = make_ring(3, 2, 8)
UNIT = StabElem(order_one(RING) + s_gen(RING))
TRIVIAL = ZpModuleWithOperator(PadicParams(3, 8), ((1,),))
ROWS = [[1, 0], [0, 0]]


def _json(p=3, n=2, M=8, coeff=0):
    return from_json({"p": p, "n": n, "M": M, "coeffs": [[1, coeff], [0, 0]]})


# (entry point and argument, the call with that argument set to v, the name in the message, lo);
# lo = -INF marks an argument with no lower bound of its own, so only its type is checked
BOUNDARY = [
    ("check_prime p", check_prime, "p", -INF),
    ("PadicParams M", lambda v: PadicParams(3, v), "precision M", 1),
    ("make_ring p", lambda v: make_ring(v, 2, 8), "p", -INF),
    ("make_ring n", lambda v: make_ring(3, v, 8), "n", 1),
    ("make_ring M", lambda v: make_ring(3, 2, v), "precision M", 1),
    ("fq_field n", lambda v: fq_field(3, v), "n", 1),
    ("Fq.from_idx idx", lambda v: RING.fq.from_idx(v), "residue index", -INF),
    ("from_json p", lambda v: _json(p=v), "p", -INF),
    ("from_json n", lambda v: _json(n=v), "n", 1),
    ("from_json M", lambda v: _json(M=v), "precision M", 1),
    ("from_json coefficient", lambda v: _json(coeff=v), "coefficient", -INF),
    ("OrderElem.s_digits count", lambda v: UNIT.elem.s_digits(v), "digit count", 0),
    ("element_order bound", lambda v: element_order(UNIT, v), "order bound", 1),
    ("check_bracket_vs_group k", lambda v: check_bracket_vs_group(3, 2, v, 1), "graded levels", 1),
    ("check_bracket_vs_group l", lambda v: check_bracket_vs_group(3, 2, 1, v), "graded levels", 1),
    (
        "check_bracket_vs_group trials",
        lambda v: check_bracket_vs_group(3, 2, 1, 1, trials=v),
        "trials",
        1,
    ),
    ("check_power_vs_group k", lambda v: check_power_vs_group(3, 2, v), "graded levels", 1),
    ("check_power_vs_group trials", lambda v: check_power_vs_group(3, 2, 1, trials=v), "trials", 1),
    ("commutator_span k", lambda v: commutator_span(3, 2, v, 1), "graded levels", 1),
    ("commutator_span l", lambda v: commutator_span(3, 2, 1, v), "graded levels", 1),
    ("predicted_span k", lambda v: predicted_span(3, 2, v, 1), "graded levels", 1),
    ("predicted_span l", lambda v: predicted_span(3, 2, 1, v), "graded levels", 1),
    ("abelianization_report L", lambda v: abelianization_report(3, 2, v), "L", 1),
    ("cyclic_cohomology m", lambda v: cyclic_cohomology(TRIVIAL, v, 1), "group order", 1),
    ("cyclic_cohomology s", lambda v: cyclic_cohomology(TRIVIAL, 2, v), "degree s", 0),
    ("g1_cohomology_E1 p", lambda v: g1_cohomology_E1(v, 1, 4), "p", -INF),
    ("g1_cohomology_E1 s", lambda v: g1_cohomology_E1(3, v, 4), "degree s", 0),
    ("g1_cohomology_E1 t", lambda v: g1_cohomology_E1(3, 1, v), "degree t", -INF),
    ("psi_valuation_report t_max", lambda v: psi_valuation_report(3, v), "t_max", 1),
    ("homotopy_table stem", lambda v: homotopy_table(3, [0, v]), "stem", -INF),
    ("ko_table stem", lambda v: ko_table([v, 4]), "stem", -INF),
    ("fiber_groups p", lambda v: fiber_groups(v, [0]), "p", -INF),
    ("fiber_groups stem", lambda v: fiber_groups(3, [0, v]), "stem", -INF),
    ("sphere_e2_page s_max", lambda v: sphere_e2_page(3, v, 0, 8), "s_max", -INF),
    ("sphere_e2_page t_lo", lambda v: sphere_e2_page(3, 2, v, 8), "t_lo", -INF),
    ("ko_e2_page t_hi", lambda v: ko_e2_page(2, 0, v), "t_hi", -INF),
]


def _cases():
    for label, call, name, lo in BOUNDARY:
        bad = [(True, f"{name} must be an integer, got True")]
        bad += [(v, f"{name} must be an integer, got {v!r}") for v in (2.0, "3")]
        if lo != -INF:
            bad.append((lo - 1, f"{name} must be >= {lo}, got {lo - 1}"))
        for value, message in bad:
            yield pytest.param(call, value, message, id=f"{label}={value!r}")


@pytest.mark.parametrize("call, value, message", _cases())
def test_entry_points_refuse_bad_integers(call, value, message):
    with pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "call",
    [
        lambda: make_ring(3, 2, True),
        lambda: element_order(UNIT, 2.5),
        lambda: g1_cohomology_E1(3, 0.5, 4),
        lambda: g1_cohomology_E1(3, 1, 2.5),
        lambda: g1_cohomology_E1(2, 1, 4.0),
        lambda: cyclic_cohomology(TRIVIAL, 2, True),
        lambda: abelianization_report(3, 2, True),
        lambda: check_bracket_vs_group(3, 2, True, 1, trials=True),
        lambda: check_prime(3.0),
        lambda: fq_field(3, 2).from_idx(1.0),
        lambda: from_json({"p": 3, "n": 2, "M": 8.9, "coeffs": ROWS}),
        lambda: from_json({"p": 3, "n": 2, "M": 8, "coeffs": [[1, 2.7], [0, 0]]}),
    ],
    ids=[
        "make_ring M=True", "element_order 2.5", "g1 s=0.5", "g1 t=2.5", "g1 t=4.0",
        "cyclic s=True", "abelianize L=True", "bracket check k=True", "check_prime 3.0",
        "from_idx 1.0", "from_json M=8.9", "from_json coefficient 2.7",
    ],
)
def test_former_holes_raise(call):
    # each of these once answered: a ring mod 3^True, no order, H^0.5 = 0, H^1 = 0 at t = 2.5,
    # H^1 = Z/8 at t = 4.0, a truncated M
    with pytest.raises(ValueError, match="must be an integer"):
        call()


@pytest.mark.parametrize("p", [1, 4, 6, 9])
def test_fiber_groups_refuse_non_primes(p):
    with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
        fiber_groups(p, range(-8, 9))


# a leaf's argv without the flag under test; every `_positive_int` flag lies in one of them
LEAF_ARGV = {
    ("order", "val"): ["order", "val", "S"],
    ("order", "digits"): ["order", "digits", "S"],
    ("stab", "order"): ["stab", "order", "1+S"],
    ("grlie", "bracket"): ["grlie", "bracket", "--k", "1", "--l", "1", "1", "1"],
    ("grlie", "power"): ["grlie", "power", "--k", "1", "1"],
    ("grlie", "span"): ["grlie", "span", "--k", "1", "--l", "1"],
    ("grlie", "check"): ["grlie", "check", "--k", "1", "--l", "1", "--trials", "2"],
    ("grlie", "abelianize"): ["grlie", "abelianize", "--levels", "1"],
    ("k1", "valuations"): ["k1", "valuations"],
}
COMMON = {"--n", "--prec"}  # shared by the leaves that read them; run on `order val` alone


def _positive_flags() -> dict:
    """(group, leaf) -> the flags whose argparse type is cli._positive_int."""
    out = {}
    top = cli._build_parser()
    for group, group_parser in top._subparsers._group_actions[0].choices.items():
        for leaf, parser in group_parser._subparsers._group_actions[0].choices.items():
            flags = {
                opt
                for action in parser._actions
                if action.type is cli._positive_int
                for opt in action.option_strings
            }
            out[(group, leaf)] = flags - COMMON if (group, leaf) != ("order", "val") else flags
    return {key: flags for key, flags in out.items() if flags}


def _with_flag(argv, flag, value):
    """argv with flag set to value, in place of the value it already has."""
    if flag in argv:
        i = argv.index(flag)
        return argv[: i + 1] + [value] + argv[i + 2 :]
    return argv + [flag, value]


def test_positive_int_flags_agree_with_check_int():
    flags = _positive_flags()
    assert set(flags) == set(LEAF_ARGV) and COMMON <= flags[("order", "val")]
    for key, names in sorted(flags.items()):
        for flag in sorted(names):
            for value in (-1, 0, 1):
                argv = _with_flag(LEAF_ARGV[key], flag, str(value))
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run_command(argv)
                try:
                    check_int(flag.lstrip("-"), value)
                    refused = False
                except ValueError:
                    refused = True
                assert (code == 2) == refused, (argv, code, err.getvalue())


@pytest.mark.parametrize(
    "value, shown",
    [
        (-(10**5000), "a negative integer of 16610 bits"),
        (-(10**100), "a negative integer of 333 bits"),
        (1 - 2**192, str(1 - 2**192)),
        ("x" * 5000, "'" + "x" * 59 + "... (a string of 5000 characters)"),
        ([[0] * 3000], "[[0" + ", 0" * 19 + "... (a repr of 9002 characters)"),
    ],
    ids=["-10^5000", "-10^100", "1-2^192", "5000-char string", "3000-entry list"],
)
def test_refusals_show_at_most_60_characters_of_a_value(value, shown):
    # str() of an int past 4300 digits raises; a long repr is cut to its head and length.
    # A coefficient of any size is read mod p^M, so only the non-ints reach it refused.
    calls = [(lambda: check_int("n", value), "n must be ")]
    if type(value) is not int:
        calls.append((lambda: _json(coeff=value), "coefficient must be "))
    for call, message in calls:
        with pytest.raises(ValueError) as exc:
            call()
        text = str(exc.value)
        assert text.startswith(message) and text.endswith(f", got {shown}"), text
        assert len(text) < 130


def test_prime_bound_refusal_of_a_huge_p_is_short():
    with pytest.raises(ValueError, match=r"^p = an integer of 16610 bits is not below the 2\^32 bound"):
        check_prime(10**5000)
    with pytest.raises(ValueError, match=r"^p = 4294967311 is not below the 2\^32 bound on primes$"):
        check_prime(4294967311)
