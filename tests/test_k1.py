import gc
import hashlib
import random
import re
import time
import tracemalloc
from fractions import Fraction
from functools import cache, partial
from math import comb, prod

import pytest

import morava.homalg
import morava.k1
import morava.specseq
from morava.homalg import g1_cohomology_E1
from morava.padic import INF, CyclicDecomp, nu_p
from morava.specseq import Chart, DifferentialRule, Monomial, Summand
from morava.k1 import (
    HomotopyTable,
    _even_cells,
    fiber_groups,
    homotopy_table,
    ko_e2_page,
    ko_table,
    psi_valuation_report,
    sphere_e2_page,
)


def test_sphere_label_scheme():
    cases = {
        (2, 0, 0): "1",
        (2, 1, 0): "zeta",
        (2, 1, 4): "zeta*u^-2",
        (2, 1, -4): "zeta*u^2",
        (2, 1, 2): "eta",
        (2, 1, 6): "eta*u^-2",
        (2, 2, 2): "eta*zeta",
        (2, 3, 4): "eta^2*zeta",
        (2, 4, 4): "eta^4*u^2",
        (2, 2, 0): "eta^2*u^2",
        (3, 1, 12): "zeta*u^-6",
        (3, 1, 0): "zeta",
    }
    for (p, s, t), text in cases.items():
        (cell,) = sphere_e2_page(p, s, t, t).cell(s, t)
        assert str(cell.label) == text


def _with_u(label, e):
    """Monomial.with_exp("u", e) as it was: a second label, of the same index and core."""
    return Monomial(label.index, label.core, e)


def _sphere_label_by_with_exp(p, s, t):
    """The label scheme as first written, each label built twice; the oracle."""
    if s == 0:
        return Monomial.parse("1")
    if p != 2:
        base = (("zeta", 1),) if s == 1 else (("zeta", 1), ("eta", s - 1))
        return _with_u(Monomial(1, base), -t // 2)
    if s == 1:
        if t % 4 == 0:
            return _with_u(Monomial(1, (("zeta", 1),)), -t // 2)
        return _with_u(Monomial(1, (("eta", 1),)), (2 - t) // 2)
    if (t - 2 * s) % 4 == 0:
        return _with_u(Monomial(1, (("eta", s),)), (2 * s - t) // 2)
    return _with_u(Monomial(1, (("zeta", 1), ("eta", s - 1))), (2 * s - 2 - t) // 2)


def _ko_e2_page_by_with_exp(s_max, t_lo, t_hi):
    """The real K-theory page with its labels built as first written; the oracle."""
    chart = Chart(2)
    for s, t in _even_cells(s_max, t_lo, t_hi):
        if (t - 2 * s) % 4:
            continue
        if s == 0:
            chart.add(0, t, Summand(INF, Monomial(1, (), -t // 2)))
        else:
            label = _with_u(Monomial(1, (("eta", s),)), (2 * s - t) // 2)
            chart.add(s, t, Summand(2, label))
    return chart


def test_labels_match_with_exp_construction():
    for p in (2, 3, 5, 7):
        page = sphere_e2_page(p, 14, -1004, 1018)
        for (s, t), cell in page.entries.items():
            assert [x.label for x in cell] == [_sphere_label_by_with_exp(p, s, t)], (p, s, t)
    assert ko_e2_page(14, -1004, 1018).to_json() == _ko_e2_page_by_with_exp(14, -1004, 1018).to_json()


def test_sphere_chart_frozen_cells_at_two():
    chart = sphere_e2_page(2, 6, -8, 16)
    frozen = {
        (0, 0): (INF, "1"),
        (1, 0): (INF, "zeta"),
        (1, 4): (8, "zeta*u^-2"),
        (1, 8): (16, "zeta*u^-4"),
        (1, 12): (8, "zeta*u^-6"),
        (1, 16): (32, "zeta*u^-8"),
        (1, -4): (8, "zeta*u^2"),
        (1, 2): (2, "eta"),
        (2, 2): (2, "eta*zeta"),
        (4, 4): (2, "eta^4*u^2"),
    }
    for key, (order, label) in frozen.items():
        (cell,) = chart.cell(*key)
        assert cell.order == order
        assert str(cell.label) == label
    assert chart.cell(1, 3) == ()
    assert chart.cell(0, 4) == ()


def test_two_rows_only_for_odd_primes():
    chart = sphere_e2_page(3, 5, -8, 16)
    assert all(s <= 1 for (s, _) in chart.entries)
    (cell,) = chart.cell(1, 12)
    assert cell.order == 9
    assert str(cell.label) == "zeta*u^-6"


def test_homotopy_p2_low_stems():
    table = homotopy_table(2, range(-2, 9))
    expected = {
        -2: "0",
        -1: "Z_2",
        0: "Z_2 + Z/2",
        1: "Z/2 + Z/2",
        2: "Z/2",
        3: "Z/8",
        4: "0",
        5: "0",
        6: "0",
        7: "Z/16",
        8: "Z/2",
    }
    for stem, text in expected.items():
        assert str(table.group(stem).decomp) == text, stem
    assert table.group(3).joined
    assert set(table.group(3).labels) == {"2*zeta*u^-2", "eta^3"}
    assert set(table.group(0).labels) == {"1", "eta*zeta"}


def test_homotopy_p2_image_of_j_tower():
    table = homotopy_table(2, [15, 23, 31])
    assert str(table.group(15).decomp) == "Z/32"
    assert str(table.group(23).decomp) == "Z/16"
    assert str(table.group(31).decomp) == "Z/64"


def test_homotopy_p2_negative_stems():
    table = homotopy_table(2, range(-9, -2))
    assert str(table.group(-9).decomp) == "Z/16"
    assert str(table.group(-5).decomp) == "Z/8"
    assert table.group(-5).joined
    for stem in (-8, -7, -6, -4, -3):
        expected = {-8: "Z/2", -7: "Z/2 + Z/2", -6: "Z/2"}.get(stem, "0")
        assert str(table.group(stem).decomp) == expected, stem


def test_homotopy_odd_primes():
    table = homotopy_table(3, range(-1, 12))
    assert str(table.group(-1).decomp) == "Z_3"
    assert str(table.group(0).decomp) == "Z_3"
    assert str(table.group(3).decomp) == "Z/3"
    assert str(table.group(7).decomp) == "Z/3"
    assert str(table.group(11).decomp) == "Z/9"
    for stem in (1, 2, 4, 5, 6, 8, 9, 10):
        assert table.group(stem).decomp.is_zero, stem
    five = homotopy_table(5, [7, 39])
    assert str(five.group(7).decomp) == "Z/5"
    assert str(five.group(39).decomp) == "Z/25"


def test_ko_table_eight_fold_pattern():
    table = ko_table(range(-8, 9))
    pattern = {0: "Z_2", 1: "Z/2", 2: "Z/2", 4: "Z_2"}
    for stem in range(-8, 9):
        assert str(table.group(stem).decomp) == pattern.get(stem % 8, "0"), stem
    assert table.group(4).labels == ("2*u^-2",)
    assert table.group(-4).labels == ("2*u^2",)
    assert table.group(8).labels == ("u^-4",)
    assert table.group(1).labels == ("eta",)


def test_tables_refuse_empty_stems():
    for stems in ([], range(5, -4)):
        for p in (2, 3):
            with pytest.raises(ValueError, match="no stems"):
                homotopy_table(p, stems)
            with pytest.raises(ValueError, match="no stems"):
                fiber_groups(p, stems)
        with pytest.raises(ValueError, match="no stems"):
            ko_table(stems)


def test_e2_pages_refuse_empty_windows():
    for s_max, t_lo, t_hi in ((-3, -8, 16), (-1, 0, 0), (6, 10, 0), (0, 1, 0)):
        with pytest.raises(ValueError, match="empty chart window"):
            sphere_e2_page(2, s_max, t_lo, t_hi)
        with pytest.raises(ValueError, match="empty chart window"):
            ko_e2_page(s_max, t_lo, t_hi)
    # a window without even t is not empty: it has no cells
    assert not sphere_e2_page(3, 2, 1, 1).entries and not ko_e2_page(2, -3, -3).entries


def test_even_cells_match_filtered_window():
    for s_max in range(4):
        for t_lo in range(-7, 8):
            for t_hi in range(t_lo, t_lo + 7):
                want = [(s, t) for s in range(s_max + 1) for t in range(t_lo, t_hi + 1) if t % 2 == 0]
                assert _even_cells(s_max, t_lo, t_hi) == want, (s_max, t_lo, t_hi)
    for step in (4, 8, 10, 20):
        for t_lo in range(-23, 24):
            for t_hi in (t_lo, t_lo + 9, t_lo + 41):
                want = [(s, t) for s, t in _even_cells(2, t_lo, t_hi) if t % step == 0]
                assert _even_cells(2, t_lo, t_hi, step) == want, (step, t_lo, t_hi)
    for t_lo in range(-9, 10):  # the KO page's cells: t = 2s mod 4
        want = [(s, t) for s, t in _even_cells(3, t_lo, t_lo + 13) if (t - 2 * s) % 4 == 0]
        assert _even_cells(3, t_lo, t_lo + 13, 4, 2) == want, t_lo


def test_odd_p_pages_visit_only_t_divisible_by_2p_minus_2(monkeypatch):
    rng = random.Random(22)
    for p in (3, 5, 7, 11):
        step = 2 * p - 2
        for _ in range(6):
            t_lo = -step * rng.randrange(0, 40) - rng.randrange(1, step)  # not a multiple of the step
            t_hi = rng.randrange(1, 600)
            off_step = [(s, t) for s, t in _even_cells(3, t_lo, t_hi) if t % step]
            assert off_step, (p, t_lo, t_hi)
            for s, t in off_step:
                assert morava.homalg.g1_cell(p, s, t) == (1, "torsion character is nontrivial", None), (p, s, t)
            want = _page_outcome(_sphere_e2_page_by_records, p, 3, t_lo, t_hi)
            visited = []
            real = morava.k1.g1_cell
            monkeypatch.setattr(morava.k1, "g1_cell", lambda p, s, t: visited.append(t) or real(p, s, t))
            assert _page_outcome(sphere_e2_page, p, 3, t_lo, t_hi) == want, (p, t_lo, t_hi)
            monkeypatch.undo()
            assert visited and all(t % step == 0 for t in visited), p
            assert len(visited) == 4 * sum(1 for t in range(t_lo, t_hi + 1) if t % step == 0)


def _sphere_e2_page_by_records(p, s_max, t_lo, t_hi):
    """The E_2 page with one cohomology record per cell, as first written; the oracle."""
    chart = Chart(2)
    for s, t in _even_cells(s_max, t_lo, t_hi):
        orders = g1_cohomology_E1(p, s, t).decomp.orders
        if not orders:
            continue
        if len(orders) != 1:
            raise ValueError(f"chart cells must be cyclic, got {orders} at {(s, t)}")
        chart.add(s, t, Summand(orders[0], _sphere_label_by_with_exp(p, s, t)))
    return chart


def _page_outcome(build, *window):
    try:
        return build(*window).to_json()
    except ValueError as exc:
        return str(exc)


def test_e2_pages_match_records():
    rng = random.Random(10)
    windows = [(p, 14, -8, 16) for p in (2, 3, 5, 7)]
    windows += [(4, 3, -8, 16), (6, 2, 0, 0), (4, -1, 0, 4), (9, 2, 5, 1), (2, 0, 7, 7), (1, 2, -4, 4)]
    windows += [(9, -1, 0, 4), (15, 3, 8, 2), (-5, -2, 0, 0), (True, 0, 3, 2), (2.5, -1, 0, 0)]
    for p in (2, 3, 5, 7):
        for s_max in (1, 5, 14):
            lo = rng.randrange(-900, 0)
            windows.append((p, s_max, lo, rng.randrange(1, 900)))
    for window in windows:
        page = _page_outcome(sphere_e2_page, *window)
        assert page == _page_outcome(_sphere_e2_page_by_records, *window), window
    assert _page_outcome(sphere_e2_page, 4, 3, -8, 16) == "p must be prime, got 4"
    for p in (4, 9, 15, -5, True, 2.5):  # the window is checked before p, whatever step p would give
        assert _page_outcome(sphere_e2_page, p, -1, 0, 4).startswith("empty chart window"), p


def test_ko_page_visits_only_t_equal_to_2s_mod_4(monkeypatch):
    for s in range(16):
        for t in range(-40, 41, 2):
            if (t - 2 * s) % 4:
                assert morava.homalg.cm_order(2, s, t) == 1, (s, t)
    rng = random.Random(23)
    windows = [(14, -8, 16), (2, -3, -3), (0, 1, 0), (-1, 0, 4), (3, 5, 7), (6, 10, 0), (0, -2, -2)]
    windows += [(s_max, rng.randrange(-900, 0), rng.randrange(1, 900)) for s_max in (0, 1, 5, 14)]
    for window in windows:
        assert _page_outcome(ko_e2_page, *window) == _page_outcome(_ko_e2_page_by_with_exp, *window), window
    visited = []
    real = morava.k1.cm_order
    monkeypatch.setattr(morava.k1, "cm_order", lambda p, s, t: visited.append((s, t)) or real(p, s, t))
    ko_e2_page(5, -9, 30)
    assert visited == [(s, t) for s, t in _even_cells(5, -9, 30) if (t - 2 * s) % 4 == 0]


def test_chart_windows_past_the_cell_bound_are_refused_fast():
    stems, cells = "more than 131072 stems requested", "131072-cell bound"
    calls = [
        (lambda: homotopy_table(2, range(0, 2_000_001)), stems),
        (lambda: homotopy_table(3, range(-(10**12), 10**12)), stems),
        (lambda: homotopy_table(2, [-(10**6), 10**6]), cells),
        (lambda: ko_table(range(0, 10**15)), stems),
        (lambda: ko_table(range(10**15, 0, -3)), stems),
        (lambda: sphere_e2_page(2, 10**9, -8, 16), cells),
        (lambda: ko_e2_page(10**9, -8, 16), cells),
    ]
    for call, refusal in calls:
        start = time.perf_counter()
        with pytest.raises(ValueError, match=refusal):
            call()
        assert time.perf_counter() - start < 1
    start = time.perf_counter()
    assert not sphere_e2_page(2, 10**9, 7, 7).entries  # no even t: no cells, at once
    assert time.perf_counter() - start < 1
    # today's widest windows stay far inside the bound
    assert len(_even_cells(14, -4, 2017)) == 15 * 1011
    assert len(_even_cells(1, -4, 8001)) == 2 * 4003


def test_tables_read_ranges_in_any_order():
    for p in (2, 3):
        want = homotopy_table(p, list(range(-9, 12))).to_json()
        assert homotopy_table(p, range(11, -10, -1)).to_json() == want
        assert homotopy_table(p, range(-9, 12)).to_json() == want
    assert ko_table(range(16, -1, -4)).to_json() == ko_table([0, 4, 8, 12, 16]).to_json()


def test_cell_bound_counts_the_cells(monkeypatch):
    monkeypatch.setattr(morava.k1, "_CHART_CELLS", 10)
    assert len(_even_cells(1, 0, 8)) == 10
    assert len(_even_cells(4, -1, 2)) == 10
    for window in ((1, 0, 10), (1, -2, 9), (10, 0, 0)):
        with pytest.raises(ValueError, match="10-cell bound"):
            _even_cells(*window)


def test_cell_bound_counts_the_cells_at_the_step(monkeypatch):
    # a window is refused exactly when its list of cells at the step would pass the bound
    monkeypatch.setattr(morava.k1, "_CHART_CELLS", 12)
    rng = random.Random(35)
    for step in (2, 4, 8, 12):  # 2p - 2 at p = 2, 3, 5, 7
        for shift in (0, 2):
            for _ in range(150):
                s_max, t_lo = rng.randrange(0, 12), rng.randrange(-60, 60)
                t_hi = t_lo + rng.randrange(0, 40)
                window = (s_max, t_lo, t_hi, step, shift)
                cells = [(s, t) for s in range(s_max + 1) for t in range(t_lo, t_hi + 1)
                         if (t - shift * s) % step == 0]
                if len(cells) > 12:
                    with pytest.raises(ValueError, match="12-cell bound"):
                        _even_cells(*window)
                else:
                    assert _even_cells(*window) == cells, window


def test_label_cores_are_checked_once_per_core():
    check = morava.specseq._checked_core
    check.cache_clear()
    homotopy_table(2, range(0, 2000))
    misses = check.cache_info().misses
    page = sphere_e2_page(2, 14, -4, 2017)
    cores = {x.label.core for cell in page.entries.values() for x in cell}
    cores.add(morava.k1._D3.times)
    assert 0 < misses <= len(cores) <= 40, (misses, len(cores))


def _e2_page_by_add(cells, cell):
    """The E_2 page built cell by cell, a validated Monomial and then Chart.add each; the oracle."""
    chart = Chart(2)
    for s, t in cells:
        order, _, row = cell(s, t)
        if order != 1:
            core = (("eta", row),) if row else ()
            if row != s:
                core += (("zeta", 1),)
            chart.add(s, t, Summand(order, Monomial(1, core, row - t // 2)))
    return chart


def _page_cells(chart):
    """Every cell of a page in its order, each label by value, hash, repr and exact type."""
    assert chart.page == 2 and chart.log == []
    return [
        (key, [(x.order, x.label, hash(x.label), repr(x.label), type(x.label) is Monomial) for x in cell])
        for key, cell in chart.entries.items()
    ]


def test_e2_pages_match_the_cell_by_cell_build():
    rng = random.Random(34)
    for _ in range(6):
        for p in (2, 3, 5, 7, 65537):
            step = 2 if p == 2 else 2 * p - 2
            lo = rng.randrange(-3, 3) * step + rng.randrange(-400, 400)  # near a multiple of the step
            window = (rng.randrange(15), lo, lo + rng.randrange(0, 800))
            oracle = _e2_page_by_add(_even_cells(*window, step), partial(morava.homalg.g1_cell, p))
            assert _page_cells(sphere_e2_page(p, *window)) == _page_cells(oracle), (p, window)
        window = (rng.randrange(15), lo, lo + rng.randrange(0, 800))
        oracle = _e2_page_by_add(_even_cells(*window, 4, 2), lambda s, t: (morava.homalg.cm_order(2, s, t), "", s))
        assert _page_cells(ko_e2_page(*window)) == _page_cells(oracle), window
    assert sphere_e2_page(65537, 1, 131070, 131074).entries  # the windows near a multiple of the step hold cells


def test_trusted_labels_equal_checked_ones():
    label = morava.specseq._label
    rng = random.Random(35)
    for _ in range(300):
        names = rng.sample(("eta", "zeta", "x", "y"), rng.randrange(4))
        core = morava.specseq._checked_core(tuple((name, rng.choice((-3, -1, 1, 2, 5))) for name in names))
        index, u = rng.randint(1, 9), rng.randint(-60, 60)
        got, want = label(index, core, u), Monomial(index, core, u)
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want) and str(got) == str(want)
        assert type(got) is Monomial


def test_trusted_summands_equal_checked_ones():
    summand = morava.specseq._summand
    rng = random.Random(38)
    for _ in range(300):
        order = rng.choice((INF, 2, 2**20, rng.randint(2, 2**20)))
        names = rng.sample(("eta", "zeta", "x"), rng.randrange(3))
        core = morava.specseq._checked_core(tuple((name, rng.choice((-2, 1, 3))) for name in names))
        label = Monomial(rng.randint(1, 9), core, rng.randint(-60, 60))
        got, want = summand(order, label), Summand(order, label)
        assert type(got) is Summand and got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert got.label is label and not hasattr(got, "__dict__")


def _with_collector(on: bool, f):
    """f() run with the cyclic collector switched on or off, and whether it was on afterwards."""
    was = gc.isenabled()
    (gc.enable if on else gc.disable)()
    try:
        f()
        return gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()


def _refused_window():
    with pytest.raises(ValueError, match="131072-cell bound"):  # raised by _even_cells, inside the pause
        homotopy_table(2, range(0, 131072))


@pytest.mark.parametrize("on", [True, False])
def test_tables_leave_the_collector_as_they_found_it(on):
    for build in (lambda: homotopy_table(2, range(-40, 41)), lambda: ko_table(range(-40, 41)), _refused_window):
        assert _with_collector(on, build) is on


def _pages_and_tables():
    for p in (2, 3, 5):
        homotopy_table(p, range(-400, 401)).to_json()
    ko_table(range(-400, 401)).to_json()
    page = morava.specseq.apply_differentials(sphere_e2_page(2, 14, -200, 200), [morava.k1._D3])
    assert page.copy().log == page.crop(10, -100, 100).to_json()["log"][:-1]  # the lazy log, read


def test_chart_pages_and_tables_hold_no_cycles():
    # the invariant behind the collector pause in k1._table: refcounting alone frees every page
    found = []

    def build_and_drop():
        _pages_and_tables()
        found.append(gc.collect())

    gc.collect()
    _with_collector(False, build_and_drop)
    assert found == [0]


def test_final_chart_is_collapsed_page_four():
    table = homotopy_table(2, [0, 1])
    assert table.chart.page == 4
    assert any("d_3" in line for line in table.chart.log)
    assert table.notes


def test_table_json_and_render():
    table = homotopy_table(2, [3])
    js = table.to_json()
    assert js["stems"]["3"]["group"] == "Z/8"
    assert js["stems"]["3"]["joined"] is True
    text = table.render_text()
    assert "pi_3: Z/8" in text
    assert "hidden extension" in text


def test_valuation_report_exact():
    for p in (3, 5, 7):
        report = psi_valuation_report(p, 100)
        assert report.ok
        assert report.checked == 100
    two = psi_valuation_report(2, 100)
    assert two.ok
    assert two.formula == "nu_2(3^(2t) - 1) = nu_2(t) + 3"
    assert len(two.unit_residues) == 100
    assert all(r % 2 for r in two.unit_residues)
    # 3^8 - 1 = 6560 = 2^5 * 205
    four = psi_valuation_report(2, 4)
    assert four.max_valuation == 5
    assert four.unit_residues == (1, 1, 1, 1)  # 1, 5, 91, 205 are all odd
    assert four.to_json()["unit_samples"] == [1, 1, 1, 1]
    # 15 = 3*5, 255 = 3*85, 4095 = 9*455
    assert psi_valuation_report(3, 3).unit_residues == (2, 1, 2)
    assert psi_valuation_report(3, 9).max_valuation == 3
    with pytest.raises(ValueError):
        psi_valuation_report(3, 0)
    for p in (4, 6, 1):
        with pytest.raises(ValueError, match="p must be prime"):
            psi_valuation_report(p, 20)


def test_valuation_report_checks_the_law_g1_cell_reads(monkeypatch):
    # the report restates no valuation law: a wrong p = 2 term in homalg's fails it
    assert morava.k1._lambda_valuation is morava.homalg._lambda_valuation
    real = morava.homalg._lambda_valuation
    monkeypatch.setattr(morava.k1, "_lambda_valuation", lambda p, m: real(p, m) + (p == 2 and m % 4 == 0))
    assert psi_valuation_report(2, 20).failures == tuple((t, nu_p(t, 2) + 3) for t in range(2, 21, 2))
    assert psi_valuation_report(3, 20).ok


def test_valuation_report_refuses_powers_past_the_bit_bound():
    # the largest reports in the tests, workloads and CLI corpus stay allowed
    for p, t_max in ((3, 2000), (7, 2000), (7, 500), (2, 2000), (5, 2000)):
        assert psi_valuation_report(p, t_max).ok
    for p, t_max in ((3, 100_000_000), (10007, 100), (3, 11_000), (65521, 1)):
        with pytest.raises(ValueError, match="65536-bit bound"):
            psi_valuation_report(p, t_max)



def _psi_by_exact_powers(p, t_maxes):
    """psi_valuation_report's loop as first written, on exact big integers: the oracle.

    {t_max: (checked, max_valuation, failures, unit_residues)} for each bound in t_maxes.
    """
    e = 2 if p == 2 else p - 1
    offset = 3 if p == 2 else 1
    step = (p + 1) ** e
    cur = 1
    failures = []
    residues = []
    max_val = 0
    out = {}
    for t in range(1, max(t_maxes) + 1):
        cur *= step
        val = nu_p(cur - 1, p)
        max_val = max(max_val, val)
        residues.append((cur - 1) // p**val % p)
        if val != nu_p(t, p) + offset:
            failures.append((t, val))
        if t in t_maxes:
            out[t] = (t, max_val, tuple(failures), tuple(residues))
    return out


def _psi_observed(report):
    return report.checked, report.max_valuation, report.failures, report.unit_residues


# the largest t_max the 65536-bit bound allows: (1 << 16) // (e * bitlength(p + 1))
_PSI_TOPS = {2: 16384, 3: 10922, 5: 5461, 7: 2730, 11: 1638, 13: 1365}


def test_valuation_report_matches_exact_powers():
    for p, top in _PSI_TOPS.items():
        e = 2 if p == 2 else p - 1
        assert e * top * (p + 1).bit_length() <= 1 << 16 < e * (top + 1) * (p + 1).bit_length()
        psi_valuation_report(p, top)
        with pytest.raises(ValueError, match="65536-bit bound"):
            psi_valuation_report(p, top + 1)
        # the exact loop is quadratic (1.3 s at p = 2 up to the top), so p = 2, 3 stop at a quarter;
        # K = 2 * bitlength(t_max) + 8 changes at every power of two
        last = top if p > 3 else top // 4
        t_maxes = {t for t in (*range(1, 40), *(2**k + d for k in range(14) for d in (-1, 0)), last) if t <= last}
        for t_max, expected in _psi_by_exact_powers(p, t_maxes).items():
            assert _psi_observed(psi_valuation_report(p, t_max)) == expected, (p, t_max)


@pytest.mark.parametrize("digits", [1, 2], ids=["every-t", "some-t"])
def test_valuation_report_falls_back_to_exact_powers(monkeypatch, digits):
    # with K = 1 every residue (p+1)^(et) - 1 is 0 mod p, so each t rebuilds the exact power;
    # with K = 2 only the t with nu_p(t) + offset >= 2 do
    monkeypatch.setattr(morava.k1, "_residue_digits", lambda t_max: digits)
    for p in _PSI_TOPS:
        assert _psi_observed(psi_valuation_report(p, 150)) == _psi_by_exact_powers(p, {150})[150], p


def test_table_type_round_trip():
    table = homotopy_table(3, [11])
    assert isinstance(table, HomotopyTable)
    assert table.to_json()["notes"]


# SHA-1 of "\n".join(chart.log) over stems -300..300, recorded before the log was made lazy
_LOG_DIGESTS = {
    "sphere": "18ad73dc80b9cfe0a9e4ec599611c4f6e97c45d5",
    "ko": "15a91fe024f2d1cb97426892ce967c67d5bf65c4",
}


_D3_LINE = re.compile(r"d_3 \[eta\^3\*u\^2\] (?:Z(?:_p|/\d+)\[)?([^\]\s]+)")


def _tower_named(line):
    """A d_3 log line with its bracket naming the eta tower its source label lies on, as when
    each tower had a rule of its own: "u", "eta^a" or "zeta*eta^a"."""
    m = _D3_LINE.match(line)
    if m is None:
        return line
    core = dict(Monomial.parse(m[1]).core)
    a = core.get("eta", 0)
    name = f"zeta*eta^{a}" if "zeta" in core else f"eta^{a}" if a else "u"
    return f"d_3 [{name} tower]" + line[len("d_3 [eta^3*u^2]"):]


def test_chart_logs_are_pinned():
    stems = range(-300, 301)
    for name, table in (("sphere", homotopy_table(2, stems)), ("ko", ko_table(stems))):
        lines = table.chart.log
        assert sum(_D3_LINE.match(line) is not None for line in lines) > 100
        text = "\n".join(map(_tower_named, lines))
        assert hashlib.sha1(text.encode()).hexdigest() == _LOG_DIGESTS[name], name


def test_stem_decompositions_are_shared_and_frozen():
    table = homotopy_table(3, range(-4000, 4000))
    decomps = {id(g.decomp): g.decomp for g in table.groups.values()}
    # one object per distinct group over 8000 stems: 0, Z_3 and Z/3^k for k <= 7
    assert len(decomps) == len({str(d) for d in decomps.values()}) == 9
    for d in decomps.values():
        assert d == CyclicDecomp(3, d.orders)
        with pytest.raises(AttributeError):
            d.orders = ()
    assert g1_cohomology_E1(3, 1, 4).decomp is g1_cohomology_E1(3, 1, 8).decomp
    # equal E_1 cells are one group; a cell of another s or provenance is another
    z3 = g1_cohomology_E1(3, 1, 4)
    assert z3 is g1_cohomology_E1(3, 1, 8) is g1_cohomology_E1(3, 1, -4)
    assert g1_cohomology_E1(3, 0, 4) is g1_cohomology_E1(3, 0, 8) is not g1_cohomology_E1(3, 2, 4)
    assert g1_cohomology_E1(3, 0, 4).decomp is g1_cohomology_E1(3, 2, 4).decomp  # both 0, s differs
    assert g1_cohomology_E1(3, 0, 2) is not g1_cohomology_E1(3, 0, 4)  # 0 for another reason
    ker, coker = g1_cohomology_E1(2, 2, 0), g1_cohomology_E1(2, 2, 2)  # Z/2 off H^2(C_2) and H^1(C_2)
    assert ker is not coker and ker.decomp is coker.decomp and ker.provenance != coker.provenance
    for field, value in (("s", 2), ("decomp", z3.decomp), ("provenance", "")):
        with pytest.raises(AttributeError):
            setattr(z3, field, value)
    assert str(z3) == "H^1 = Z/3" and z3.provenance == "coker(psi - 1) on H^0(C_2)"


@cache
def _bernoulli(count: int) -> tuple:
    """B_0 .. B_count as exact fractions, from sum_(j <= m) C(m + 1, j) B_j = 0 for m >= 1."""
    b = []
    for m in range(count + 1):
        b.append(Fraction(m == 0) - Fraction(sum(comb(m + 1, j) * b[j] for j in range(m)), m + 1))
    return tuple(b)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_image_of_j_matches_bernoulli_denominators(p):
    # Adams, J(X) IV: pi_(4k-1) is cyclic of order the p-part of the denominator of B_2k / 4k;
    # an oracle that reads no chart, against the d_3 rules and the hidden extension at p = 2
    table = homotopy_table(p, range(3, 4 * 79, 4))
    for k in range(1, 80):
        denominator = (_bernoulli(158)[2 * k] / (4 * k)).denominator
        order = p ** nu_p(denominator, p)
        assert table.group(4 * k - 1).decomp.orders == ((order,) if order > 1 else ()), (p, k)


def _hand_chart(*summands):
    """A _table build step that returns a fixed page-4 chart, whatever the window."""

    def build(t_lo, t_hi):
        chart = Chart(4)
        for order, label, s, t in summands:
            chart.add(s, t, Summand(order, Monomial.parse(label)))
        return chart

    return build


def test_table_joins_a_cyclic_stem_of_several_summands():
    # the sequence makes stem 3 cyclic of order 8; the chart's Z/4 + Z/2 there is joined, and the
    # unrequested stem 0 is neither checked nor read
    build = _hand_chart((4, "zeta*u^-2", 1, 4), (2, "eta^3", 3, 6), (INF, "1", 0, 0))
    table = morava.k1._table(2, [3], build, (), partial(fiber_groups, 2), ())
    assert str(table.group(3).decomp) == "Z/8"
    assert table.group(3).joined
    assert set(table.group(3).labels) == {"zeta*u^-2", "eta^3"}
    assert list(table.groups) == [3]


def test_table_refuses_a_free_summand_in_a_cyclic_stem():
    # stem 3 mod 8 is cyclic of finite order, so Z_2 + Z/2 there is refused, not joined
    build = _hand_chart((INF, "1", 0, 3), (2, "eta^3", 3, 6))
    with pytest.raises(ArithmeticError, match="stem 3 assembles to Z_2 \\+ Z/2, but its group is Z/8"):
        morava.k1._table(2, [3], build, (), partial(fiber_groups, 2), ())
    # an empty stem of the chart must be zero in the sequence, and a filled one nonzero
    with pytest.raises(ArithmeticError, match="stem 7 assembles to 0, but its group is Z/16"):
        morava.k1._table(2, [7], _hand_chart(), (), partial(fiber_groups, 2), ())
    with pytest.raises(ArithmeticError, match="stem 4 assembles to Z/2, but its group is 0"):
        morava.k1._table(2, [4], _hand_chart((2, "eta^4*u^2", 4, 8)), (), partial(fiber_groups, 2), ())


def test_d3_on_the_wrong_residue_is_refused(monkeypatch):
    # at the parent of the fiber check these tables built without error
    wrong = DifferentialRule("eta^3*u^2", (("eta", 3),), u_shift=2, u_mod=4, u_res=0)
    monkeypatch.setattr(morava.k1, "_D3", wrong)
    with pytest.raises(ArithmeticError, match="assembles to"):
        homotopy_table(2, range(-40, 41))
    with pytest.raises(ArithmeticError, match="assembles to"):
        ko_table(range(-40, 41))


def _rank_and_order(decomp):
    free = decomp.orders.count(INF)
    return free, prod(decomp.orders[free:])


def test_fiber_groups_match_the_tables():
    stems = range(-600, 601)
    for p in (2, 3, 5, 7):
        table, fiber = homotopy_table(p, stems), fiber_groups(p, stems)
        assert not any(group.is_zero for group, _ in fiber.values())  # zero groups are left out
        zero = (CyclicDecomp(p), False)
        for i in stems:
            group, cyclic = fiber.get(i, zero)
            assert _rank_and_order(table.group(i).decomp) == _rank_and_order(group), (p, i)
            assert table.group(i).joined == (cyclic and len(table.group(i).labels) > 1), (p, i)
            if cyclic:
                assert len(group.orders) == 1, (p, i)
        if p != 2:
            assert not any(g.joined for g in table.groups.values())
            continue
        # the declared policy the sequence replaced: join stems 3 mod 8 of several summands
        policy = {i for i in stems if i % 8 == 3 and len(table.group(i).labels) > 1}
        assert {i for i in stems if table.group(i).joined} == policy and len(policy) == 150
        # both sides are nonzero at stem 0 and in stems 1 mod 8, so the chart's direct sum stays
        for i in [0, *range(-599, 601, 8)]:
            assert not fiber[i][1] and not table.group(i).joined, i
            assert len(table.group(i).labels) == 2, i


def test_fiber_groups_read_any_range_and_list():
    for p in (2, 3, 5):
        full = fiber_groups(p, range(-100, 101))
        for step in (1, 2, 3, 4, 5, 7, 8, 12, -1, -3, -8):
            stems = range(-100, 101, step) if step > 0 else range(100, -101, step)
            assert fiber_groups(p, stems) == {i: full[i] for i in stems if i in full}, (p, step)
            assert fiber_groups(p, list(stems)) == fiber_groups(p, stems), (p, step)
        assert fiber_groups(p, [0]) == {0: full[0]}
        assert fiber_groups(p, [1, 2]) == {i: full[i] for i in (1, 2) if i in full}


def test_fiber_groups_refuse_more_stems_than_a_chart_has_cells(monkeypatch):
    # linear in the stems, so an unbounded request would run for minutes and fill memory
    bound = morava.k1._CHART_CELLS
    assert len(fiber_groups(3, range(bound))) == bound // 4 + 1  # the stems 3 mod 4, and 0
    # repeats count once, so a table on a long list of one stem passes its window and this bound
    assert fiber_groups(3, [7] * (bound + 1)) == fiber_groups(3, [7])
    assert homotopy_table(3, [7] * (bound + 1)).to_json() == homotopy_table(3, [7]).to_json()
    monkeypatch.setattr(morava.k1, "psi_minus_one", lambda *args: pytest.fail("a stem was read"))
    for stems in (range(bound + 1), list(range(-bound, 1)), range(10**10), range(-(10**20), 10**20)):
        for p in (2, 3):
            with pytest.raises(ValueError, match=f"^more than {bound} stems requested$"):
                fiber_groups(p, stems)


def test_fiber_groups_at_primes_past_31_bits():
    # X's order is read by residue: no table of 2p - 2 entries, which at p = 2^31 - 1 fills memory
    for p in (65537, 2147483647, 4294967291):
        table = homotopy_table(p, range(-5, 6))
        text = {i: (str(g.decomp), g.labels) for i, g in table.groups.items()}
        free = {-1: (f"Z_{p}", ("zeta",)), 0: (f"Z_{p}", ("1",))}
        assert text == {i: free.get(i, ("0", ())) for i in range(-5, 6)}, p
    tracemalloc.start()
    try:
        fiber = fiber_groups(1000003, range(-5, 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(fiber) == [-1, 0] and peak < 1 << 20, peak


def test_fiber_groups_read_no_chart(monkeypatch):
    def refuse(*args):
        raise AssertionError("a chart was built")

    for name in ("sphere_e2_page", "ko_e2_page", "g1_cell", "apply_differentials", "assemble_stems"):
        monkeypatch.setattr(morava.k1, name, refuse)
    expected = {-1: "Z_2", 0: "Z_2 + Z/2", 1: "Z/2 + Z/2", 2: "Z/2", 3: "Z/8", 7: "Z/16", 8: "Z/2"}
    fiber = fiber_groups(2, range(-2, 9))
    assert {i: str(g) for i, (g, _) in fiber.items()} == expected
    assert [i for i, (_, cyclic) in sorted(fiber.items()) if not cyclic] == [0, 1]
    three = fiber_groups(3, range(-1, 12))
    assert {i: str(g) for i, (g, _) in three.items()} == {-1: "Z_3", 0: "Z_3", 3: "Z/3", 7: "Z/3", 11: "Z/9"}
