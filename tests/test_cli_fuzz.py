"""A fuzz of the command line: argv drawn from the command grammar.

Every command must end in exit 0 (an answer), 1 (a domain error) or 2 (a
usage error): never a traceback and never a hang.  The draws keep p, n and
the precision small, each where the command takes it, and mix in zero and
negative counts, malformed element expressions, matrices and stem lists.
Each call runs under a SIGALRM guard and writes at most 1 KB of stderr.
Each prime past 31 bits also runs `k1 homotopy` on valid stems windows, so
the fuzz reaches the stem arithmetic at those primes.  Every plain integer
option also refuses a 5000-character value as a usage error in at most 1 KB
of stderr.
"""

import contextlib
import io
import signal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morava import cli
from morava.cli import run_command
from test_cli import SHARED

# valid values repeat, so that most draws reach the arithmetic
PRIMES = st.sampled_from(["3", "2", "5"] * 4 + ["1", "4", "0", "-3", "2147483647", "4294967291"])
HEIGHTS = st.sampled_from(["2", "1", "3"] * 4 + ["0", "-1"])
PRECS = st.sampled_from(["4", "2", "1"] * 4 + ["0", "-2"])
COUNTS = st.integers(min_value=-3, max_value=8).map(str)
EXPRS = st.sampled_from(
    ["1", "0", "3", "w", "S", "1+S", "w^3*S", "S^3", "-1/2*(1+w*S)", "1/3", "1/0", "2^0",
     "-w", "(1+w", "w @", "", "1)", "S*w - w^2*S", "((w))", "w^w"]
)
MATRICES = st.sampled_from(
    ["[[1]]", "[[81]]", "[[2, 1], [0, 1]]", "[[0, 1], [1, 0]]", "[[1, 2]]", "[]", "[[]]",
     "5", "null", "[1,2]", "[[1.5]]", "[[true]]", '{"1": 1}', "not json", "[" * 5000 + "]" * 5000]
)
STEMS = st.sampled_from(["0..8", "-4..4", "3", "-2,0,2", "5..-5", "1,,2", "a..3", "", "0..2000000"])

# the arguments after "group cmd" for every command, as strategies
COMMANDS = {
    ("witt", "trace"): [EXPRS],
    ("witt", "frobenius"): [EXPRS],
    ("witt", "teich"): [COUNTS],
    ("order", "mul"): [EXPRS, EXPRS],
    ("order", "inv"): [EXPRS],
    ("order", "val"): [EXPRS],
    ("order", "digits"): [EXPRS, st.just("--count"), COUNTS],
    ("stab", "order"): [EXPRS, st.just("--bound"), COUNTS],
    ("stab", "comm"): [EXPRS, EXPRS],
    ("stab", "level"): [EXPRS],
    ("stab", "norm"): [EXPRS],
    ("stab", "split"): [EXPRS],
    ("stab", "inK"): [EXPRS],
    ("grlie", "bracket"): [st.just("--k"), COUNTS, st.just("--l"), COUNTS, COUNTS, COUNTS],
    ("grlie", "power"): [st.just("--k"), COUNTS, COUNTS],
    ("grlie", "span"): [st.just("--k"), COUNTS, st.just("--l"), COUNTS],
    ("grlie", "check"): [
        st.just("--k"), COUNTS, st.sampled_from(["--l", "--power"]), COUNTS,
        st.just("--trials"), COUNTS,
    ],
    ("grlie", "abelianize"): [st.just("--levels"), COUNTS],
    ("homalg", "iwasawa"): [st.just("--matrix"), MATRICES],
    ("homalg", "cyclic"): [
        st.just("--matrix"), MATRICES, st.just("--order"), COUNTS, st.just("--s"), COUNTS,
    ],
    ("homalg", "g1"): [st.just("--s"), COUNTS, st.just("--t"), COUNTS],
    ("k1", "e2"): [st.just("--smax"), COUNTS, st.just("--tmin"), COUNTS, st.just("--tmax"), COUNTS],
    ("k1", "homotopy"): [st.just("--stems"), STEMS],
    ("k1", "ko"): [st.just("--stems"), STEMS],
    ("k1", "valuations"): [st.just("--tmax"), COUNTS],
}


def test_one_list_of_commands():
    # a command added to the cli's table must also be added to the oracle's and the fuzz's
    top = cli._build_parser()
    built = {
        (group, leaf)
        for group, parser in top._subparsers._group_actions[0].choices.items()
        for leaf in parser._subparsers._group_actions[0].choices
    }
    assert built == set(SHARED) == set(COMMANDS)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [*command, *(draw(arg) for arg in COMMANDS[command])]
    for flag in SHARED[command]:  # only the shared options the command takes, so draws reach it
        argv += [flag, draw({"--p": PRIMES, "--n": HEIGHTS, "--prec": PRECS}[flag])]
    return argv + ["--json"] if draw(st.booleans()) else argv


def _timeout(signum, frame):
    raise TimeoutError("command ran longer than 10 s")


def _with_each_big_prime(test):
    """Add examples running k1 homotopy at each prime past 31 bits on valid stems windows: the draws
    reach that pair rarely, and then often with a stems value refused before any arithmetic."""
    for p in ("2147483647", "4294967291"):
        for stems in ("0..8", "-4..4", "-2,0,2"):
            test = example(["k1", "homotopy", "--stems", stems, "--p", p])(test)
    return example(["k1", "homotopy", "--stems", "-4..4", "--p", "4294967291", "--json"])(test)


@_with_each_big_prime
@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(argvs())
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(10)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    assert (code == 0) == (err.getvalue() == ""), argv
    assert len(err.getvalue().encode()) <= 1024, argv


# every plain integer option, and each positional integer, with VALUE in its place
LONG_INT_ARGVS = {
    "order val --p": ["order", "val", "S", "--p", "VALUE"],
    "witt teich residue": ["witt", "teich", "VALUE"],
    "grlie bracket a": ["grlie", "bracket", "--k", "1", "--l", "1", "VALUE", "1"],
    "grlie bracket b": ["grlie", "bracket", "--k", "1", "--l", "1", "1", "VALUE"],
    "grlie power a": ["grlie", "power", "--k", "1", "VALUE"],
    "homalg cyclic --order": ["homalg", "cyclic", "--matrix", "[[1]]", "--order", "VALUE", "--s", "1"],
    "homalg cyclic --s": ["homalg", "cyclic", "--matrix", "[[1]]", "--order", "2", "--s", "VALUE"],
    "homalg g1 --s": ["homalg", "g1", "--s", "VALUE", "--t", "1"],
    "homalg g1 --t": ["homalg", "g1", "--s", "1", "--t", "VALUE"],
    "k1 e2 --smax": ["k1", "e2", "--smax", "VALUE"],
    "k1 e2 --tmin": ["k1", "e2", "--tmin", "VALUE"],
    "k1 e2 --tmax": ["k1", "e2", "--tmax", "VALUE"],
}


@pytest.mark.parametrize(
    "value", ["7" * 5000, "-" + "7" * 4999, "x" * 5000], ids=["7^5000", "-7^4999", "x^5000"]
)
@pytest.mark.parametrize("name", sorted(LONG_INT_ARGVS))
def test_long_integer_values_are_refused_briefly(name, value):
    argv = [value if arg == "VALUE" else arg for arg in LONG_INT_ARGVS[name]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    assert code == 2 and out.getvalue() == "", name
    assert len(err.getvalue().encode()) <= 1024, (name, len(err.getvalue()))
    assert "(a string of 5000 characters)" in err.getvalue(), name
