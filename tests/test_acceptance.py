"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS line (visible under pytest -s) naming the
guarantee and its runtime against the stated budget.  Oracles are written
inline and independently of the library internals they validate.
"""

import random
import time
from fractions import Fraction

import pytest

from morava.padic import INF, PadicInt, nu_p
from morava.witt import DEFAULT_POLYS, fq_field, make_ring, teichmuller
from morava.order import from_coeff_rows, from_int, from_witt, order_one, s_gen
from morava.stabilizer import (
    StabElem,
    element_order,
    filtration_level,
    gr_project,
    order3_element,
    reduced_norm,
    s1_split,
)
from morava.grlie import (
    abelianization_report,
    check_bracket_vs_group,
    check_power_vs_group,
    commutator_span,
    full_space,
    predicted_span,
    trace_kernel,
)
from morava.k1 import homotopy_table, ko_table, psi_valuation_report


def _report(num, budget, start, detail):
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"
    print(f"PASS criterion {num:>2} ({elapsed:6.2f}s < {budget:>3}s): {detail}")


def test_criterion_01_order_three_element():
    start = time.perf_counter()
    ring = make_ring(3, 2, 16)
    a = order3_element(ring)
    x, one = a.elem, order_one(ring)
    assert x != one and x * x != one and x * x * x == one
    assert element_order(a) == 3
    assert a.is_strict
    assert filtration_level(a).value == Fraction(1, 2)
    assert gr_project(a).digit == ring.fq.gen
    _report(1, 1, start, "explicit element of order 3 at (3, 2), level 1/2, digit wb")


def test_criterion_02_uniformizer_relations():
    start = time.perf_counter()
    rng = random.Random(2)
    rings = 0
    for p in (2, 3, 5):
        for n in (1, 2, 3, 4):
            ring = make_ring(p, n, 16)
            s = s_gen(ring)
            assert s ** n == from_int(ring, p)
            for _ in range(1000):
                x = ring.from_coords([rng.randrange(ring.params.modulus) for _ in range(n)])
                assert s * from_witt(ring, x) == from_witt(ring, x.frobenius()) * s
            rings += 1
    _report(2, 10, start, f"S^n = p and S x = sigma(x) S, 1000 random x in {rings} rings")


def test_criterion_03_graded_formulas_match_group():
    start = time.perf_counter()
    combos = 0
    for p in (2, 3, 5):
        for n in (2, 3):
            for k in range(1, 7):
                rep = check_power_vs_group(p, n, k, trials=50, M=16)
                assert rep.ok and rep.mismatches == 0, (p, n, k)
                for l in range(1, 7):
                    rep = check_bracket_vs_group(p, n, k, l, trials=50, M=16)
                    assert rep.ok and rep.mismatches == 0, (p, n, k, l)
                    combos += 1
    _report(3, 60, start, f"bracket and p-power formulas, 50 trials x {combos} level pairs")


def test_criterion_04_commutator_span_lemma():
    start = time.perf_counter()
    kinds = {"full": 0, "ker_tr": 0, "sub_ker_tr": 0, "no_claim": 0}
    for (p, n) in sorted(DEFAULT_POLYS):
        if p ** n > 256:
            continue
        field = fq_field(p, n)
        for k in range(1, n + 1):
            for l in range(k, n + 2):
                kind, predicted = predicted_span(p, n, k, l)
                span = commutator_span(p, n, k, l)
                kinds[kind] += 1
                if kind == "full":
                    assert span == full_space(field), (p, n, k, l)
                elif kind == "ker_tr":
                    assert span == trace_kernel(field), (p, n, k, l)
                elif kind == "sub_ker_tr":
                    assert all(predicted.contains(b) for b in span.basis()), (p, n, k, l)
    assert kinds["full"] and kinds["ker_tr"] and kinds["sub_ker_tr"]
    total = sum(kinds.values())
    _report(4, 30, start, f"span lemma over every table field with q <= 256 ({total} pairs)")


def test_criterion_05_abelianizations():
    start = time.perf_counter()
    targets = {
        (3, 2, 8): (INF, 3, 3),
        (3, 3, 12): (INF, 3, 3, 3),
        (5, 2, 8): (INF, 5, 5),
        (2, 2, 10): (INF, 2, 2, 2),
        (2, 3, 12): (INF, 2, 2, 2, 2),
    }
    for (p, n, L), orders in targets.items():
        report = abelianization_report(p, n, L)
        assert report.decomp.orders == orders, (p, n)
        assert report.decomp.precision_caveat
        rank = n + 2 if p == 2 else n + 1
        assert report.mod_p_decomp.orders == (p,) * rank, (p, n)
    _report(5, 60, start, f"H_1 with mod-p checks for {len(targets)} groups")


def test_criterion_06_reduced_norm():
    start = time.perf_counter()
    rng = random.Random(6)
    for (p, n) in ((3, 2), (2, 3), (5, 2)):
        ring = make_ring(p, n, 8)
        mod = ring.params.modulus

        def random_unit():
            while True:
                rows = [[rng.randrange(mod) for _ in range(n)] for _ in range(n)]
                x = from_coeff_rows(ring, rows)
                if x.is_unit:
                    return x

        for _ in range(20):
            x, y = random_unit(), random_unit()
            assert reduced_norm(x * y) == PadicInt(ring.params, reduced_norm(x).value * reduced_norm(y).value)
            assert reduced_norm(x.galois_sigma()) == reduced_norm(x)
        c = rng.randrange(1, mod)
        assert reduced_norm(from_int(ring, c)).value == pow(c, n, mod)
        sign = mod - p if n % 2 == 0 else p
        assert reduced_norm(s_gen(ring)).value == sign
        if n == 2:
            for _ in range(20):
                x = random_unit()
                a, b = x.parts
                by_hand = a * a.frobenius() - (b.frobenius() * b).scale(p)
                assert reduced_norm(x).value == by_hand.coords[0]
                assert all(c == 0 for c in by_hand.coords[1:])
    a3 = order3_element(make_ring(3, 2, 8))
    assert reduced_norm(a3.elem).value == 1
    _report(6, 10, start, "norm is multiplicative, Galois-stable, correct on scalars and S")


def test_criterion_07_norm_one_splitting():
    start = time.perf_counter()
    rng = random.Random(7)
    for (p, n) in ((3, 2), (5, 2), (2, 3)):
        ring = make_ring(p, n, 16)
        mod = ring.params.modulus

        def random_split_unit():
            while True:
                rows = [[rng.randrange(mod) for _ in range(n)] for _ in range(n)]
                if p != 2:
                    # odd primes need 1-unit scalars for the central root
                    rows[0][0] = 1 + p * rng.randrange(mod // p)
                    rows[0][1:] = [p * rng.randrange(mod // p) for _ in rows[0][1:]]
                x = from_coeff_rows(ring, rows)
                if x.is_unit:
                    return StabElem(x)

        for _ in range(10):
            x = random_split_unit()
            y = random_split_unit()
            x1, z = s1_split(x)
            assert reduced_norm(x1.elem).value == 1
            assert x1.elem.scale(z.value) == x.elem
            assert PadicInt(z.params, z.value ** n) == reduced_norm(x.elem)
            _, zx = s1_split(x)
            _, zy = s1_split(y)
            _, zxy = s1_split(StabElem(x.elem * y.elem))
            assert zx.params == zy.params
            assert zxy == PadicInt(zx.params, zx.value * zy.value)
    _report(7, 10, start, "norm-one splitting round-trips and is multiplicative")


def test_criterion_08_valuation_formulas():
    start = time.perf_counter()
    expected_max = {3: 7, 5: 5, 7: 4, 2: 13}
    for p in (3, 5, 7, 2):
        report = psi_valuation_report(p, 2000)
        assert report.ok
        assert report.checked == 2000
        assert report.max_valuation == expected_max[p]
    _report(8, 10, start, "unit-power valuation formulas exact for all t <= 2000")


def test_criterion_09_ko_pattern():
    start = time.perf_counter()
    table = ko_table(range(-32, 33))
    pattern = {0: "Z_2", 1: "Z/2", 2: "Z/2", 4: "Z_2"}
    for stem in range(-32, 33):
        assert str(table.group(stem).decomp) == pattern.get(stem % 8, "0"), stem
    _report(9, 1, start, "eight-fold real K-theory pattern on stems -32..32")


def test_criterion_10_homotopy_tables():
    start = time.perf_counter()
    stems = range(-200, 201)

    def expected_two(i):
        if i == 0:
            return "Z_2 + Z/2"
        if i == -1:
            return "Z_2"
        r = i % 8
        if r in (4, 5, 6):
            return "0"
        if r == 0 or r == 2:
            return "Z/2"
        if r == 1:
            return "Z/2 + Z/2"
        if r == 3:
            return "Z/8"
        return f"Z/{2 ** (nu_p((i + 1) // 8, 2) + 4)}"

    def expected_odd(p, i):
        if i in (0, -1):
            return f"Z_{p}"
        t = i + 1
        if t % (2 * (p - 1)):
            return "0"
        return f"Z/{p ** (nu_p(abs(t) // (2 * (p - 1)), p) + 1)}"

    table = homotopy_table(2, stems)
    for i in stems:
        assert str(table.group(i).decomp) == expected_two(i), i
        if i % 8 == 3:
            assert table.group(i).joined, i
    for p in (3, 5):
        table = homotopy_table(p, stems)
        for i in stems:
            assert str(table.group(i).decomp) == expected_odd(p, i), (p, i)
    _report(10, 5, start, "homotopy of the local sphere on stems -200..200, p in {2, 3, 5}")


def test_criterion_11_strict_units_are_torsion_free():
    start = time.perf_counter()
    rng = random.Random(11)
    checked = 0
    for (p, n) in ((5, 2), (7, 2)):
        ring = make_ring(p, n, 16)
        one = order_one(ring)
        s = s_gen(ring)
        for j in range(ring.q - 1):
            x = StabElem(one + from_witt(ring, teichmuller(ring, ring.fq.gen ** j)) * s)
            assert x.is_strict
            assert element_order(x, 1000) is None
            checked += 1
    ring = make_ring(5, 2, 16)
    mod = ring.params.modulus
    while checked < 200:
        rows = [[rng.randrange(mod) for _ in range(2)] for _ in range(2)]
        x = StabElem(order_one(ring) + from_coeff_rows(ring, rows) * s_gen(ring))
        assert x.is_strict
        assert element_order(x, 1000) is None
        checked += 1
    _report(11, 30, start, f"{checked} strict units with no torsion up to order 1000")
