"""Height-one fixed point charts and their stem assembly.

The descent chart for the height-one stabilizer acting on the completed
K-theory line has two rows for odd primes and collapses immediately; at
p = 2 the central order-two subgroup contributes eta towers and a d_3
page turn.  The KO-flavored chart (the order-two subgroup alone) is built
by the same engine.  Each stem is checked against the psi fiber sequence
(Bott's table for KO), which also derives the hidden extension in stems 3 mod 8.
"""

import gc
from functools import cache, partial
from math import gcd, prod

from morava.padic import INF, check_int, check_prime, cyclic_decomp, nu_p, record
from morava.homalg import _lambda_valuation, cm_order, g1_cell, psi_minus_one
from morava.specseq import (
    Chart,
    DifferentialRule,
    StemGroup,
    _checked_core,
    _label,
    _summand,
    apply_differentials,
    assemble_stems,
    collapse_check,
)

# the chart window: rows above KEEP only feed differentials, never stems
_S_BUILD = 14
_S_KEEP = 10
_T_MARGIN = 4

_VALUATION_BITS = 1 << 16  # bound on the bits of the last power psi_valuation_report checks
_CHART_CELLS = 1 << 17  # most cells one chart window may hold


def _even_cells(s_max: int, t_lo: int, t_hi: int, step: int = 2, shift: int = 0) -> list:
    """The cells (s, t) with 0 <= s <= s_max, t in [t_lo, t_hi] and t = shift * s mod the even step.

    Refuses an empty window, and one of more than _CHART_CELLS such cells before building any.
    """
    for name, bound in (("s_max", s_max), ("t_lo", t_lo), ("t_hi", t_hi)):
        check_int(name, bound, -INF)
    window = f"s <= {s_max}, {t_lo} <= t <= {t_hi}"
    if s_max < 0 or t_lo > t_hi:
        raise ValueError(f"empty chart window: {window}")
    period = step // gcd(shift, step)  # rows s and s + period visit the same t
    first = lambda s: t_lo + (shift * s - t_lo) % step
    per_row = lambda s: max(0, (t_hi - first(s)) // step + 1)
    cells = sum(((s_max - r) // period + 1) * per_row(r) for r in range(min(period, s_max + 1)))
    if cells > _CHART_CELLS:
        raise ValueError(f"chart window {window} passes the {_CHART_CELLS}-cell bound")
    rows = [list(range(first(r), t_hi + 1, step)) for r in range(min(period, s_max + 1))]  # a class's rows share t's
    return [(s, t) for s in range(s_max + 1 if cells else 0) for t in rows[s % period]]


def _e2_page(cells, cell) -> Chart:
    """The page 2 chart on the cells, where cell(s, t) = (order, reason, row) as g1_cell gives.

    A cell from H^row(C_m) holds eta^row, times zeta when it comes from the
    cokernel side (row = s - 1), times u^(row - t/2).
    """
    chart = Chart(2)
    entries, cores = chart.entries, {}  # cores by (row, side): each checked once
    for key in cells:  # each cell's tuple is its entry's key
        s, t = key
        order, _, row = cell(s, t)
        if order != 1:
            side = (row, row != s)
            core = cores.get(side)
            if core is None:
                eta = (("eta", row),) if row else ()
                core = cores[side] = _checked_core(eta + ((("zeta", 1),) if row != s else ()))
            entries[key] = (_summand(order, _label(1, core, row - t // 2)),)  # cells are distinct: one write each
    return chart


def sphere_e2_page(p: int, s_max: int, t_lo: int, t_hi: int) -> Chart:
    """Descent chart of the sphere over the given window, page 2; at odd p only t = 0 mod 2(p - 1) is visited."""
    # the window is checked before p, so a p that is no int above 2 takes step 2 and fails check_prime
    cells = _even_cells(s_max, t_lo, t_hi, 2 * p - 2 if type(p) is int and p > 2 else 2)
    check_prime(p)
    return _e2_page(cells, partial(g1_cell, p))


def ko_e2_page(s_max: int, t_lo: int, t_hi: int) -> Chart:
    """The real K-theory chart, fixed points of the order-two subgroup alone: cm_order(2, s, t) at t = 2s mod 4."""
    return _e2_page(_even_cells(s_max, t_lo, t_hi, 4, 2), lambda s, t: (cm_order(2, s, t), "ker", s))


# the one d_3 at p = 2, for the sphere and KO alike; the sphere's bottom zeta class feeds in
# with index one, and its kernel keeps the label with a doubled index
_D3 = DifferentialRule("eta^3*u^2", (("eta", 3),), u_shift=2, u_mod=4, u_res=2)


@record
class HomotopyTable:
    """Assembled stems of a collapsed chart, with the page they came from."""

    p: int
    groups: dict
    chart: Chart
    notes: tuple = ()

    def group(self, stem: int):
        return self.groups[stem]

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "stems": {
                str(i): {
                    "group": str(g.decomp),
                    "labels": list(g.labels),
                    "joined": g.joined,
                }
                for i, g in sorted(self.groups.items())
            },
            "notes": list(self.notes),
        }

    def render_text(self) -> str:
        lines = []
        for i, g in sorted(self.groups.items()):
            body = str(g.decomp)
            if g.labels:
                body += "  <" + ", ".join(g.labels) + ">"
            if g.joined:
                body += "  (one cyclic group: hidden extension)"
            lines.append(f"pi_{i}: {body}")
        lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines)


def _stem_list(stems):
    """The requested stems, sorted: a range without listing it (a huge one would fill memory).

    Refuses an empty list, and one of more than _CHART_CELLS stems before any window is built.
    """
    if isinstance(stems, range):
        stems = stems if stems.step > 0 else stems[::-1]
    else:  # a range holds ints only; any other list is checked, and a repeated stem is kept once
        stems = list(stems)
        for t in stems:
            check_int("stem", t, -INF)
        stems = sorted(set(stems))
    if not stems:
        raise ValueError("no stems requested")
    if len(stems[: _CHART_CELLS + 1]) > _CHART_CELLS:  # a slice: len() overflows on a huge range
        raise ValueError(f"more than {_CHART_CELLS} stems requested")
    return stems


# Bott's pi_n KO_2 by n mod 8 as orders, 1 for zero: the KO table's groups, and X in fiber_groups at p = 2
_BOTT = (INF, 2, 2, 1, INF, 1, 1, 1)


def fiber_groups(p: int, stems) -> dict:
    """{stem: (group, cyclic)} of the K(1)-local sphere on the requested stems whose group is nonzero.

    Reads no chart: the sphere is the fiber of psi - 1 on X = KO_2 at p = 2 and on X = KU_p^(h mu_(p-1))
    at odd p (Z_p in degrees 0 mod 2(p-1)), so stem t sits in coker(psi - 1 on pi_(t+1) X) -> pi_t ->
    ker(psi - 1 on pi_t X).  The group is cyclic when one side is zero, else the sum of the sides.
    """
    check_prime(p)
    stems = _stem_list(stems)
    period = 8 if p == 2 else 2 * p - 2
    # X's order by residue mod period; no period-long table, which at p near 2^31 would fill memory
    x = _BOTT.__getitem__ if p == 2 else lambda r: 1 if r else INF
    # (group, cyclic) from the orders of the two sides, built once per pair
    group = cache(lambda k, c: (cyclic_decomp(p, tuple(o for o in (k, c) if o != 1)), (k == 1) != (c == 1)))
    # one slice per residue class: a range's classes recur every step entries, a list's stems are taken singly
    step = period // gcd(stems.step, period) if isinstance(stems, range) else len(stems)
    runs = [(stems[j] % period, stems[j::step]) for j in range(min(step, len(stems)))]
    out = {}
    for r, run in runs:  # a class's kernel side off degree 0, and its cokernel side's summand
        ker, side = psi_minus_one(p, x(r), r or period)[0], x((r + 1) % period)
        if ker != 1 or side != 1:
            out.update([(t, group(ker, psi_minus_one(p, side, t + 1)[1])) for t in run])
    if 0 in stems:
        out[0] = group(psi_minus_one(p, x(0), 0)[0], psi_minus_one(p, x(1), 1)[1])
    return out


def _table(p: int, stems, build, pages, expected, notes) -> HomotopyTable:
    """Run one chart to its final page and read off the requested stems.

    build(t_lo, t_hi) gives the E_2 page over a window wide enough for every
    differential that reaches the stems; pages holds the rules of d_2, d_3,
    ... in turn.  No differential is applied after the last page with rules,
    so the chart must collapse from there on.  Each stem's direct sum must have the rank and
    order of its group in expected(stems), as fiber_groups gives, and joins it where it is cyclic.
    """
    stems = _stem_list(stems)
    # pages hold no reference cycles: collections would rescan them for nothing (a caller's off stays off)
    collecting = gc.isenabled()
    gc.disable()
    try:
        chart = build(stems[0] - _T_MARGIN, stems[-1] + _S_BUILD + _T_MARGIN)
        r_from = chart.page
        for rules in pages:
            chart = apply_differentials(chart, rules)
            if rules:
                r_from = chart.page
        chart = chart.crop(s_max=_S_KEEP, t_min=stems[0] - 1, t_max=stems[-1] + _S_KEEP + 1)
        if not collapse_check(chart, r_from):
            raise ArithmeticError(f"chart does not collapse at page {r_from}")
        groups, want, zero = assemble_stems(chart, p, stems), expected(stems), (cyclic_decomp(p), False)
        size = lambda d: (d.orders.count(INF), prod(o for o in d.orders if o != INF))
        for i in groups.keys() & {t - s for s, t in chart.entries}.union(want):
            (group, cyclic), g = want.get(i, zero), groups[i]
            if g.decomp is not group and size(g.decomp) != size(group):
                raise ArithmeticError(f"stem {i} assembles to {g.decomp}, but its group is {group}")
            if cyclic and len(g.labels) > 1:
                groups[i] = StemGroup(group, g.labels, joined=True)
        return HomotopyTable(p, groups, chart, notes)
    finally:
        if collecting:
            gc.enable()


def ko_table(stems) -> HomotopyTable:
    """Run the real K-theory chart through d_3 and read off the stems, checked against Bott's table."""
    notes = ("d_3 doubles the u tower in stems 4 mod 8",)
    bott = lambda stems: {t: (cyclic_decomp(2, (_BOTT[t % 8],)), True) for t in stems if _BOTT[t % 8] > 1}
    return _table(2, stems, partial(ko_e2_page, _S_BUILD), ([], [_D3]), bott, notes)


def homotopy_table(p: int, stems) -> HomotopyTable:
    """Homotopy of the height-one local sphere on the requested stems, checked against fiber_groups."""
    if p != 2:
        notes = ("two rows only, so every differential vanishes and the chart collapses",)
        return _table(p, stems, partial(sphere_e2_page, p, 1), ([],), partial(fiber_groups, p), notes)
    notes = (
        "d_3 adds three etas and two powers of u where the u-exponent is 2 mod 4",
        "stems 3 mod 8 carry a hidden extension joining the two summands",
    )
    expected = partial(fiber_groups, 2)
    return _table(2, stems, partial(sphere_e2_page, 2, _S_BUILD), ([], [_D3]), expected, notes)


@record
class ValuationReport:
    """Exact check of the unit-power valuation formula driving the zeta tower.

    unit_residues[t-1] is the cofactor ((p+1)^e - 1) / p^valuation reduced
    mod p; keeping the residue instead of the multi-kilobyte integer still
    witnesses that the valuation was exact.
    """

    p: int
    t_max: int
    formula: str
    checked: int
    max_valuation: int
    failures: tuple = ()
    unit_residues: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "t_max": self.t_max,
            "formula": self.formula,
            "checked": self.checked,
            "max_valuation": self.max_valuation,
            "failures": list(self.failures),
            "unit_samples": list(self.unit_residues[:16]),
            "ok": self.ok,
        }


def _residue_digits(t_max: int) -> int:
    """K for psi_valuation_report: powers are kept mod p^K, far above nu_p(t) + 3 for t <= t_max."""
    return 2 * t_max.bit_length() + 8


def psi_valuation_report(p: int, t_max: int) -> ValuationReport:
    """Verify nu_p((p+1)^(et) - 1) = homalg._lambda_valuation(p, et) exactly, t <= t_max.

    e = p - 1, where the law reads nu_p(t) + 1; at p = 2 the generator is
    3 = p + 1 but squaring replaces the (p-1) power, e = 2, and the law reads
    nu_2(3^(2t) - 1) = nu_2(t) + 3.  g1_cell reads its orders off the same
    _lambda_valuation, so this report checks the E_2 pages' valuations.  Powers are
    accumulated mod p^K, K = _residue_digits(t_max), one multiply per step:
    a nonzero residue of (p+1)^(et) - 1 gives its exact valuation (below K)
    and its exact cofactor mod p.  A power that is 1 mod p^K is rebuilt as
    an exact integer.  A t_max is refused when e * t_max * bitlength(p+1),
    which bounds the bits of that integer, passes _VALUATION_BITS.
    """
    check_prime(p)
    check_int("t_max", t_max)
    e = 2 if p == 2 else p - 1
    if e * t_max * (p + 1).bit_length() > _VALUATION_BITS:
        raise ValueError(f"t_max = {t_max}: (p+1)^({e}t_max) may pass the {_VALUATION_BITS}-bit bound")
    mod = p ** _residue_digits(t_max)
    step = pow(p + 1, e, mod)
    if p == 2:
        formula = "nu_2(3^(2t) - 1) = nu_2(t) + 3"
    else:
        formula = f"nu_{p}({p + 1}^({p - 1}t) - 1) = nu_{p}(t) + 1"
    cur = 1
    failures = []
    residues = []
    max_val = 0
    for t in range(1, t_max + 1):
        cur = cur * step % mod
        x = cur - 1 or (p + 1) ** (e * t) - 1  # (p+1)^(et) = 1 mod p^K: the residue knows too little
        val = nu_p(x, p)
        max_val = max(max_val, val)
        residues.append(x // p**val % p)
        if val != _lambda_valuation(p, e * t):
            failures.append((t, val))
    return ValuationReport(p, t_max, formula, t_max, max_val, tuple(failures), tuple(residues))
