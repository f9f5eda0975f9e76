"""Group cohomology at precision: Smith-form kernels, subquotients, assembly."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import morava
import morava.homalg
from morava.cli import run_command
from morava.homalg import (
    CohomologyGroup,
    ZpModuleWithOperator,
    _lambda_valuation,
    _norm,
    cyclic_cohomology,
    g1_cohomology_E1,
    iwasawa_cohomology,
)
from morava.padic import (
    INF,
    CyclicDecomp,
    PadicParams,
    PrecisionError,
    identity_matrix,
    mat_mul,
    nu_p,
)


def _op(p, M, rows):
    return ZpModuleWithOperator(PadicParams(p, M), tuple(tuple(r) for r in rows))


def test_operator_validation():
    with pytest.raises(ValueError, match="square"):
        _op(3, 8, [[1, 2]])
    m = _op(3, 8, [[1, 3], [0, 1]])
    assert m.rank == 2


BAD_MATRICES = ["5", "null", "[1,2]", "[[1.5]]", "[[true]]", '{"1": 1}', '[["1"]]', "[[1], 2]"]


@pytest.mark.parametrize("text", BAD_MATRICES)
def test_operator_must_be_rows_of_ints(text, capsys):
    with pytest.raises(ValueError, match="list of rows of integers"):
        ZpModuleWithOperator(PadicParams(3, 8), json.loads(text))
    for cmd in (["iwasawa"], ["cyclic", "--order", "2", "--s", "1"]):
        assert run_command(["homalg", *cmd, "--matrix", text]) == 1, (cmd, text)
        captured = capsys.readouterr()
        assert captured.out == "" and "list of rows of integers" in captured.err


def _norm_by_loop(g, m, mod):
    """1 + g + ... + g^(m-1) with m - 1 products, as cyclic_cohomology once built it."""
    N = identity_matrix(len(g))
    cur = identity_matrix(len(g))
    for _ in range(m - 1):
        cur = mat_mul(cur, g, mod)
        N = [[(a + b) % mod for a, b in zip(ra, rb)] for ra, rb in zip(N, cur)]
    return N


def _block_operator(mod, m, trivial, regular, sign):
    """g of order dividing m on Z^trivial + Z[Z/m]^regular + Z(sign)^sign."""
    size = trivial + regular * m + sign
    g = [[0] * size for _ in range(size)]
    for i in range(trivial):
        g[i][i] = 1
    for r in range(regular):
        base = trivial + r * m
        for i in range(m):
            g[base + (i + 1) % m][base + i] = 1
    for i in range(size - sign, size):
        g[i][i] = mod - 1
    return g


def test_norm_matches_loop(monkeypatch):
    for p, M in ((2, 10), (3, 6), (5, 4)):
        mod = p ** M
        for m in range(1, 13):
            for blocks in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 1), (0, 2, 0)):
                g = _block_operator(mod, m, *blocks)
                assert _norm(g, m, mod) == _norm_by_loop(g, m, mod), (p, m, blocks)
                if blocks[2] and m % 2:
                    continue  # the sign block is an action of Z/m for even m only
                module = ZpModuleWithOperator(PadicParams(p, M), g)
                got = [cyclic_cohomology(module, m, s) for s in range(1, 5)]
                monkeypatch.setattr(morava.homalg, "_norm", _norm_by_loop)
                assert got == [cyclic_cohomology(module, m, s) for s in range(1, 5)]
                monkeypatch.undo()


def test_cyclic_huge_order_is_fast():
    # with m - 1 products the norm would take about an hour at m = 10^9
    done = _python(
        "-m", "morava.cli", "homalg", "cyclic", "--matrix", "[[1]]", "--order", "1000000000",
        "--s", "1", timeout=10,
    )
    assert done.returncode == 0 and done.stdout == "H^1 = 0\n"


def test_iwasawa_trivial_and_frozen():
    h0, h1 = iwasawa_cohomology(_op(2, 10, [[1]]))
    assert h0.decomp.orders == (INF,) and h0.decomp.precision_caveat
    assert h1.decomp.orders == (INF,)
    # multiplication by 3^4 on Z_2: coker has order 2^v(80) = 16
    h0, h1 = iwasawa_cohomology(_op(2, 10, [[81]]))
    assert h0.decomp.is_zero
    assert h1.decomp.orders == (16,)
    h0, h1 = iwasawa_cohomology(_op(3, 8, [[4]]))
    assert h1.decomp.orders == (3,)


def test_iwasawa_rank_two():
    # (x, y) -> (x + 3y, y): kernel is one line, cokernel Z_3 + Z/3
    h0, h1 = iwasawa_cohomology(_op(3, 8, [[1, 3], [0, 1]]))
    assert h0.decomp.orders == (INF,)
    assert h1.decomp.orders == (INF, 3)
    assert h1.decomp.precision_caveat


def test_cyclic_rejects_wrong_order():
    with pytest.raises(ValueError, match="not a valid action"):
        cyclic_cohomology(_op(3, 8, [[4]]), 2, 1)


def test_cyclic_checks_the_action_on_the_norm():
    # (g - 1) N = g^m - 1, so the norm the resolution builds also checks g^m = 1
    rng = random.Random(4)
    outcomes = set()
    for _ in range(400):
        p, M = rng.choice(((2, 6), (3, 4), (5, 3)))
        mod, m = p**M, rng.randint(1, 8)
        g = _block_operator(mod, m, *rng.choice(((1, 0), (0, 1), (1, 1))), 0)
        if rng.random() < 0.5:  # a nudge that may or may not keep g^m = 1
            g[0][0] = (g[0][0] + rng.choice((1, p ** (M - 1), mod - p))) % mod
        module = _op(p, M, g)
        g_m = identity_matrix(module.rank)
        for _ in range(m):
            g_m = mat_mul(g_m, module.matrix, mod)
        valid = g_m == identity_matrix(module.rank)
        s = rng.randrange(4)
        try:
            got = cyclic_cohomology(module, m, s)
        except ValueError as exc:
            assert not valid and str(exc) == f"not a valid action: operator order does not divide {m}"
        else:
            assert valid and got.s == s
        outcomes.add((valid, m == 1))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}
    # m is checked first, then the action, then s
    bad = _op(3, 8, [[4]])
    with pytest.raises(ValueError, match="group order must be >= 1, got 0"):
        cyclic_cohomology(bad, 0, -1)
    with pytest.raises(ValueError, match="not a valid action"):
        cyclic_cohomology(bad, 1, -1)
    with pytest.raises(ValueError, match="degree s must be >= 0, got -1"):
        cyclic_cohomology(_op(3, 8, [[1]]), 1, -1)
    assert str(cyclic_cohomology(_op(3, 4, [[1]]), 1, 0)) == "H^0 = Z_3 [free part certified at precision only]"


def test_cyclic_rejects_trivial_group_order():
    with pytest.raises(ValueError, match="group order must be >= 1, got 0"):
        cyclic_cohomology(_op(3, 8, [[1]]), 0, 1)


def _python(*args, timeout=60):
    """Run this package in a fresh interpreter; a hang fails by timeout."""
    src = str(Path(morava.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=timeout,
    )


def test_negative_powers_are_refused():
    # a negative exponent once looped forever, so this runs out of process
    done = _python(
        "-m", "morava.cli", "homalg", "cyclic", "--matrix", "[[1]]", "--order", "-2", "--s", "2"
    )
    assert done.returncode == 1 and "group order must be >= 1, got -2" in done.stderr


def test_cyclic_c2_closed_forms():
    pp = PadicParams(2, 10)
    trivial = ZpModuleWithOperator(pp, ((1,),))
    sign = ZpModuleWithOperator(pp, ((pp.modulus - 1,),))
    for s in range(6):
        triv = cyclic_cohomology(trivial, 2, s).decomp
        sgn = cyclic_cohomology(sign, 2, s).decomp
        if s == 0:
            assert triv.orders == (INF,) and sgn.is_zero
        elif s % 2 == 0:
            assert triv.orders == (2,) and sgn.is_zero
        else:
            assert triv.is_zero and sgn.orders == (2,)


def test_cyclic_free_module_is_acyclic():
    # the swap action on Z_2^2 is the regular representation of C_2
    swap = _op(2, 10, [[0, 1], [1, 0]])
    h0 = cyclic_cohomology(swap, 2, 0)
    assert h0.decomp.orders == (INF,)
    for s in (1, 2, 3, 4):
        assert cyclic_cohomology(swap, 2, s).is_zero, s


def test_cyclic_c4_rotation():
    # order-4 rotation on Z_2^2: H^0 = 0, odd degrees Z/2, even positive 0
    mod = 2 ** 10
    rot = _op(2, 10, [[0, mod - 1], [1, 0]])
    assert cyclic_cohomology(rot, 4, 0).is_zero
    assert cyclic_cohomology(rot, 4, 1).decomp.orders == (2,)
    assert cyclic_cohomology(rot, 4, 2).is_zero
    assert cyclic_cohomology(rot, 4, 3).decomp.orders == (2,)


def test_cyclic_mixed_rank_two():
    # C_2 acting by diag(-1, 1) on Z_3^2; -1 and 2 are units mod 3, so all
    # the subquotients collapse and only the invariant line survives
    mod = 3 ** 8
    op = _op(3, 8, [[mod - 1, 0], [0, 1]])
    assert cyclic_cohomology(op, 2, 0).decomp.orders == (INF,)
    assert cyclic_cohomology(op, 2, 1).is_zero
    assert cyclic_cohomology(op, 2, 2).is_zero


def test_g1_odd_p_frozen():
    assert g1_cohomology_E1(3, 1, 12).decomp.orders == (9,)
    assert g1_cohomology_E1(3, 1, 4).decomp.orders == (3,)
    assert g1_cohomology_E1(3, 1, 36).decomp.orders == (27,)
    assert g1_cohomology_E1(5, 1, 8).decomp.orders == (5,)
    assert g1_cohomology_E1(5, 1, 40).decomp.orders == (25,)
    assert g1_cohomology_E1(7, 1, 12).decomp.orders == (7,)
    for (s, t) in [(0, 0), (1, 0)]:
        g = g1_cohomology_E1(3, s, t)
        assert g.decomp.orders == (INF,) and g.decomp.precision_caveat
    assert g1_cohomology_E1(3, 0, 12).is_zero
    assert g1_cohomology_E1(3, 2, 12).is_zero
    assert g1_cohomology_E1(3, 1, 6).is_zero  # 6 is not 0 mod 2(p-1) = 4
    assert g1_cohomology_E1(3, 1, 7).is_zero
    assert g1_cohomology_E1(3, 1, -12).decomp == g1_cohomology_E1(3, 1, 12).decomp


def test_g1_p2_frozen():
    assert g1_cohomology_E1(2, 0, 0).decomp.orders == (INF,)
    assert g1_cohomology_E1(2, 1, 0).decomp.orders == (INF,)
    assert g1_cohomology_E1(2, 1, 4).decomp.orders == (8,)
    assert g1_cohomology_E1(2, 1, 8).decomp.orders == (16,)
    assert g1_cohomology_E1(2, 1, 16).decomp.orders == (32,)
    assert g1_cohomology_E1(2, 1, 2).decomp.orders == (2,)
    assert g1_cohomology_E1(2, 1, 6).decomp.orders == (2,)
    assert g1_cohomology_E1(2, 1, -4).decomp.orders == (8,)
    assert g1_cohomology_E1(2, 0, 4).is_zero
    assert g1_cohomology_E1(2, 0, 2).is_zero
    assert g1_cohomology_E1(2, 1, 3).is_zero
    for s in range(2, 7):
        for t in range(-12, 13, 2):
            assert g1_cohomology_E1(2, s, t).decomp.orders == (2,), (s, t)
        assert g1_cohomology_E1(2, s, 5).is_zero


def _lambda_valuation_by_power(p, m):
    """nu_p((p+1)^m - 1) on the exact big integer; the oracle of the closed form."""
    return nu_p((p + 1) ** m - 1, p)


def test_g1_valuation_matches_big_integers(monkeypatch):
    # m = |t/2| <= 4000 covers the benchmark's chart windows, |t| <= 8000
    for p in (2, 3, 5, 7):
        for m in range(1, 4001):
            assert _lambda_valuation(p, m) == _lambda_valuation_by_power(p, m), (p, m)
    cells = [(p, s, t) for p in (2, 3, 5, 7) for s in range(4) for t in range(-600, 601)]
    got = [g1_cohomology_E1(*cell) for cell in cells]
    monkeypatch.setattr(morava.homalg, "_lambda_valuation", _lambda_valuation_by_power)
    assert got == [g1_cohomology_E1(*cell) for cell in cells]


def _c2_order_by_table(s, t):
    """H^s(C_2, Z_2(t/2)) as an order for even t: Z_2, 0, Z/2, 0, ... or 0, Z/2, 0, Z/2, ..."""
    if (t // 2) % 2 == 0:
        if s == 0:
            return INF
        return 2 if s % 2 == 0 else 1
    return 2 if s % 2 == 1 else 1


def _g1_cohomology_by_records(p, s, t, c2_order=_c2_order_by_table):
    """g1_cohomology_E1 as first written, one record per branch; the oracle of g1_cell."""
    h = morava.homalg
    morava.padic.check_prime(p)
    if s < 0:
        raise ValueError(f"degree s must be >= 0, got {s}")
    zero = CyclicDecomp(p, [])
    if p == 2:
        if t % 2:
            return CohomologyGroup(s, zero, "odd internal degree")

        def psi_ker(order):
            if order == 1:
                return 1
            if order == INF:
                return INF if t == 0 else 1
            return order

        def psi_coker(order):
            if order == 1:
                return 1
            if order == INF:
                return INF if t == 0 else 2 ** h._lambda_valuation(2, abs(t // 2))
            return order

        ker_part = psi_ker(c2_order(s, t))
        coker_part = psi_coker(c2_order(s - 1, t)) if s >= 1 else 1
        if ker_part != 1 and coker_part != 1:
            raise PrecisionError("both sides of the exact sequence are nonzero")
        order = ker_part if ker_part != 1 else coker_part
        if order == 1:
            return CohomologyGroup(s, zero, "zero on both sides")
        if ker_part != 1:
            prov = f"ker(psi - 1) on H^{s}(C_2)"
        else:
            prov = f"coker(psi - 1) on H^{s - 1}(C_2)"
        return CohomologyGroup(s, CyclicDecomp(2, [order], precision_caveat=order == INF), prov)
    if t % (2 * (p - 1)) != 0:
        return CohomologyGroup(s, zero, "torsion character is nontrivial")
    if s == 0:
        if t == 0:
            return CohomologyGroup(
                0, CyclicDecomp(p, [INF], precision_caveat=True), f"ker(psi - 1) on H^0(C_{p - 1})"
            )
        return CohomologyGroup(0, zero, "zero on both sides")
    if s == 1:
        prov = f"coker(psi - 1) on H^0(C_{p - 1})"
        if t == 0:
            return CohomologyGroup(1, CyclicDecomp(p, [INF], precision_caveat=True), prov)
        val = h._lambda_valuation(p, abs(t // 2))
        return CohomologyGroup(1, CyclicDecomp(p, [p ** val]), prov)
    return CohomologyGroup(s, zero, "zero on both sides")


def _g1_outcome(fn, *cell):
    try:
        g = fn(*cell)
    except (ValueError, PrecisionError) as exc:
        return type(exc).__name__, str(exc)
    return g, g.decomp.orders, g.decomp.precision_caveat, g.provenance


def test_g1_cells_match_records(monkeypatch):
    cells = [
        (p, s, t)
        for p in (-3, 1, 2, 3, 4, 5, 7, 11, 2**61 - 1)
        for s in range(-1, 6)
        for t in range(-50, 51)
    ]
    cells += [(p, s, t) for p in (2, 3) for s in (0, 1, 2) for t in (-(10**12), 4 * 3**20, 10**12)]
    outcomes = set()
    for cell in cells:
        got = _g1_outcome(g1_cohomology_E1, *cell)
        assert got == _g1_outcome(_g1_cohomology_by_records, *cell), cell
        outcomes.add(got[0] if isinstance(got[0], str) else str(got[0].decomp))
    assert {"ValueError", "Z_2 [free part certified at precision only]", f"Z/{3**21}", "0"} <= outcomes
    # the exact sequence never has two nonzero sides; force it to reach that branch.  The loop
    # above warmed the shared groups of these cells, and they are keyed on the formula's value
    warm = [g1_cohomology_E1(2, s, t) for s, t in ((1, 0), (3, 6), (2, 4))]
    assert [str(g.decomp) for g in warm] == ["Z_2 [free part certified at precision only]", "Z/2", "Z/2"]
    monkeypatch.setattr(morava.homalg, "cm_order", lambda p, r, t: 2)
    for s, t in ((1, 0), (3, 6), (2, 4)):
        got = _g1_outcome(g1_cohomology_E1, 2, s, t)
        assert got == ("PrecisionError", "both sides of the exact sequence are nonzero")
        assert got == _g1_outcome(_g1_cohomology_by_records, 2, s, t, lambda s, t: 2)
    # a patched valuation law reaches a warm cell too
    monkeypatch.undo()
    monkeypatch.setattr(morava.homalg, "_lambda_valuation", lambda p, m: 7)
    assert _g1_outcome(g1_cohomology_E1, 3, 1, 4) == _g1_outcome(_g1_cohomology_by_records, 3, 1, 4)
    assert g1_cohomology_E1(3, 1, 4).decomp.orders == (3**7,)


def test_g1_huge_stem_is_fast():
    # (p+1)^(t/2) at t = 10^12 would have about 10^12 bits
    code = (
        "from morava.homalg import g1_cohomology_E1\n"
        "for p in (2, 3): print(g1_cohomology_E1(p, 1, 10**12))"
    )
    done = _python("-c", code, timeout=10)
    assert done.returncode == 0
    assert done.stdout == "H^1 = Z/8192\nH^1 = Z/3\n"


def test_g1_rejects_non_prime_p():
    for p in (-3, 0, 1, 4, 6, 9):
        with pytest.raises(ValueError, match="p must be prime"):
            g1_cohomology_E1(p, 1, 6)


def test_g1_p2_les_provenance():
    # exactly one side of the sequence contributes, by parity
    for s in range(2, 8):
        for t in range(-8, 9, 2):
            g = g1_cohomology_E1(2, s, t)
            ker_side = (s % 2 == 0) == (t % 4 == 0)
            if ker_side:
                assert g.provenance == f"ker(psi - 1) on H^{s}(C_2)", (s, t)
            else:
                assert g.provenance == f"coker(psi - 1) on H^{s - 1}(C_2)", (s, t)


def test_cohomology_group_str():
    g = g1_cohomology_E1(3, 1, 12)
    assert str(g) == "H^1 = Z/9"
    assert isinstance(g, CohomologyGroup)
