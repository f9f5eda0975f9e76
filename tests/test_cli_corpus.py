"""A fixed corpus of CLI commands with their exact stdout and exit codes.

cli_corpus.json holds one {"argv", "exit", "stdout"} record per command: the
README examples, order mul/inv/digits under --json, the stab commands,
witt frobenius and teich at n = 1..4, four edge inputs that are usage
or domain errors, the K(1) charts under --json (the sphere at p = 2
and 5, KO, and an E_2 page), order mul, order inv, stab comm and stab
order at heights n = 5..8 (p = 2 and 3), where a product has the most
terms, `homalg g1` on both sides of the height-one exact sequence at
p = 2, 3 and 5, and the E_2 pages at p = 3 and 5.  Eleven more are
the commands CI once pinned line by line: the sphere at p = 2 (stems 1,
3 and 4), p = 3 (stem 11) and p = 5 (stems 6..8), KO at stem 4 and its
p = 5 refusal, `order val S --prec 0`, `grlie span ... --prec 4`, an
order-one `homalg cyclic`, and a height-7 `stab norm`.  The last two are
`grlie abelianize --json` at (p, n, levels) = (2, 6, 12) and (7, 3, 4),
whose generator digits depend on the echelon rows of every D_k.  Three
run the graded checks against the group: the brackets at (p, n, k, l) =
(2, 4, 1, 3) with 20 trials and (5, 3, 2, 2) with 10 under --json, and
the p-th power at (3, 2, 1) with 10 trials.  Four evaluate the graded
maps: `grlie bracket` at (p, n) = (3, 2), `grlie power` at (3, 2) and,
under --json, at (2, 4), and a bracket whose residue index is out of
range, which exits 1.  Four pin `stab norm` on the packed determinant at
(p, n) = (2, 6), (3, 5) under --json, (2, 7) and (5, 4), all at --prec 8;
two pin `grlie abelianize --json` at (p, n, levels) = (7, 3, 9) and
(5, 4, 8), whose additivity pass runs over q = 343 and q = 625; and one
pins `order val S --prec` with a 5000-digit value, a usage error (exit 2)
whose message echoes only the head of the value.  Eight pin the unit
inverse's first guess and the fractions of the expression parser: `order inv
5 --p 5` and `order inv 1/5 --p 5` (both exit 1), `order inv 2+S --p 5 --n
1`, `order inv 2+w*S --p 3 --prec 1`, `order mul 1/3 3 --p 2 --n 3`, `stab
comm 1+S 1+w*S --p 7 --n 2 --prec 1`, `stab norm 1/3+S --p 2 --n 6`, and
`order val S --p` with a 5000-digit value (exit 2).  CI replays every record
through the installed `morava` script and fails on a stderr over 1 KB.  A
refactor that changes any byte of this output changes behaviour and must
say so.
"""

import json
from pathlib import Path

import pytest

from morava.cli import run_command

CORPUS = json.loads((Path(__file__).parent / "cli_corpus.json").read_text())


def _record_id(argv) -> str:
    """The command line, its head and length when it is over 100 characters."""
    text = " ".join(argv)
    return text if len(text) <= 100 else f"{text[:60]}... ({len(text)} characters)"


@pytest.mark.parametrize("record", CORPUS, ids=[_record_id(r["argv"]) for r in CORPUS])
def test_cli_corpus(record, capsys):
    assert run_command(record["argv"]) == record["exit"]
    assert capsys.readouterr().out == record["stdout"]
