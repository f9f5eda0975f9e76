import random
import re
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morava import k1
from morava.k1 import homotopy_table, ko_e2_page, ko_table, sphere_e2_page
from morava.padic import INF, CyclicDecomp, record
from morava.specseq import (
    Chart,
    DifferentialRule,
    Monomial,
    StemGroup,
    Summand,
    apply_differentials,
    assemble_stems,
    collapse_check,
)


def test_monomial_parse_format_round_trip():
    for text in ["1", "2", "zeta", "eta^3", "u^-2", "2*zeta*u^-2", "eta^3*u^4"]:
        m = Monomial.parse(text)
        assert m.format() == text
        assert Monomial.parse(m.format()) == m


def test_monomial_normalizes_factor_order():
    assert Monomial.parse("u^-2*zeta*2") == Monomial.parse("2*zeta*u^-2")
    assert str(Monomial.parse("u*eta")) == "eta*u"


def test_monomial_accessors():
    m = Monomial.parse("2*eta^3*u^-2")
    assert (m.index, m.core, m.u) == (2, (("eta", 3),), -2)
    assert m.scaled(2) == Monomial.parse("4*eta^3*u^-2")
    assert Monomial(1, (("eta", 3),), -2) == Monomial.parse("eta^3*u^-2")
    assert Monomial(1, (("zeta", 1), ("eta", 1))) == Monomial.parse("eta*zeta") == Monomial(1, [("eta", 1), ("zeta", 1)])
    assert Monomial(1, ()) == Monomial() == Monomial.parse("1")
    assert repr(Monomial(3, (("zeta", 1), ("eta", 2)), 1)) == "Monomial(index=3, core=(('eta', 2), ('zeta', 1)), u=1)"


def test_monomial_rejects_garbage():
    with pytest.raises(ValueError):
        Monomial.parse("")
    with pytest.raises(ValueError):
        Monomial.parse("eta^")
    for text in ("u*u", "u^0", "eta*u^2*u^-2"):
        with pytest.raises(ValueError, match="u must appear once, with a nonzero exponent"):
            Monomial.parse(text)
    with pytest.raises(ValueError):
        Monomial.parse("Eta")
    # "eta\n" passed a $-anchored match, and its label printed a newline
    with pytest.raises(ValueError, match="bad class name"):
        Monomial(1, (("eta\n", 1),))
    with pytest.raises(ValueError):
        Monomial(0, ())
    with pytest.raises(ValueError, match="may not name u"):
        Monomial(1, (("u", 2),))


def test_label_u_is_an_int():
    # a float or bool u once printed as "u^2.0" or "u"
    for u in (2.0, True, False, "2", None, INF):
        with pytest.raises(ValueError, match=f"u must be an integer, got {re.escape(repr(u))}"):
            Monomial(1, (("x", 1),), u)
    assert str(Monomial(1, (("x", 1),), 2)) == "x*u^2"


def test_label_index_is_a_positive_int():
    # a float or bool index once printed as "2.5*x", "2.0*x" or passed as 1
    for index in (2.5, 2.0, True, False, INF, "2", None):
        with pytest.raises(ValueError, match="index must be a positive integer"):
            Monomial(index, (("x", 1),))
    with pytest.raises(ValueError, match="index must be a positive integer"):
        Monomial.parse("x").scaled(INF)
    assert str(Monomial(2, (("x", 1),))) == "2*x"


@record
class _MonomialByLoop:
    """Monomial as first written, checking and sorting every label; the oracle.

    It takes the three fields of Monomial and refuses what Monomial refuses,
    one check at a time, but caches nothing and keeps the factors as one list.
    """

    index: int = 1
    core: tuple = ()
    u: int = 0

    def __post_init__(self):
        if type(self.index) is not int or self.index < 1:
            raise ValueError("index must be a positive integer")
        if type(self.u) is not int:
            raise ValueError(f"u must be an integer, got {self.u!r}")
        seen = set()
        for name, e in self.core:
            if not re.fullmatch(r"[a-z]+", name):
                raise ValueError(f"bad class name {name!r}")
            if name == "u":
                raise ValueError("a core may not name u: the u-exponent is kept apart")
            if name in seen:
                raise ValueError(f"repeated class name {name!r}")
            if e == 0:
                raise ValueError("zero exponents must be dropped")
            seen.add(name)
        exps = self.core + ((("u", self.u),) if self.u else ())
        ordered = sorted(exps, key=lambda pair: (pair[0] == "u", pair[0]))
        object.__setattr__(self, "core", tuple(ordered))

    def format(self):
        """Monomial.format as first written: one factor string per exponent, every call."""
        parts = [str(self.index)] if self.index != 1 or not self.core else []
        for name, e in self.core:
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def observed(self):
        u = next((e for nm, e in self.core if nm == "u"), 0)
        core = tuple((nm, e) for nm, e in self.core if nm != "u")
        return self.index, core, u, self.format()


def _label_outcome(build):
    try:
        m = build()
    except ValueError as exc:
        return "error", str(exc)
    if isinstance(m, Monomial):
        return m.index, m.core, m.u, str(m)
    return m.observed()


_FACTORS = st.tuples(
    st.sampled_from(["eta", "zeta", "u", "x", "Eta", "", "a1", "eta\n"]),
    st.integers(min_value=-3, max_value=3),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(
    st.integers(min_value=-1, max_value=3),
    st.lists(_FACTORS, max_size=4).map(tuple),
    st.integers(min_value=-2, max_value=2),
)
def test_labels_match_loop_check(index, exps, u):
    assert _label_outcome(lambda: Monomial(index, exps)) == _label_outcome(
        lambda: _MonomialByLoop(index, exps)
    )
    assert _label_outcome(lambda: Monomial(index, exps, u)) == _label_outcome(
        lambda: _MonomialByLoop(index, exps, u)
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    st.integers(min_value=1, max_value=3),
    st.lists(_FACTORS, max_size=4).map(tuple),
    st.sampled_from([-2, -1, 0, 1, 2, 3, 8, INF]),
)
def test_scaled_matches_full_construction(index, exps, m):
    try:
        label = Monomial(index, exps)
    except ValueError:
        return
    got = _label_outcome(lambda: label.scaled(m))
    assert got == _label_outcome(lambda: Monomial(label.index * m, label.core, label.u)), (index, exps, m)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(st.text(alphabet="abuzAZéßǅª09_\n", max_size=4))
def test_class_name_check_matches_regex(name):
    # the string methods that replaced the compiled [a-z]+ accept exactly what it accepts
    try:
        Monomial(1, ((name, 1),))
        refused = False
    except ValueError as exc:
        refused = str(exc).startswith("bad class name")
    assert refused == (re.fullmatch(r"[a-z]+", name) is None), name


@pytest.mark.parametrize("name", [5, None, b"eta"])
def test_non_str_class_name_raises_type_error(name):
    # as the regex did
    with pytest.raises(TypeError):
        re.fullmatch(r"[a-z]+", name)
    with pytest.raises(TypeError):
        Monomial(1, ((name, 1),))


def test_label_checks_reach_every_error():
    rng = random.Random(3)
    names = ["eta", "zeta", "u", "x", "Eta", "", "a1"]
    seen = set()
    for _ in range(3000):
        exps = tuple((rng.choice(names), rng.randrange(-2, 3)) for _ in range(rng.randrange(4)))
        index, u = rng.randrange(-1, 3), rng.randrange(-1, 2)
        for build, oracle in (
            (lambda: Monomial(index, exps), lambda: _MonomialByLoop(index, exps)),
            (lambda: Monomial(index, exps, u), lambda: _MonomialByLoop(index, exps, u)),
        ):
            got = _label_outcome(build)
            assert got == _label_outcome(oracle), (index, exps, u)
            seen.add(got[1].split(" '")[0].split(":")[0] if got[0] == "error" else "ok")
    assert seen == {
        "ok", "index must be a positive integer", "bad class name", "repeated class name",
        "zero exponents must be dropped", "a core may not name u",
    }


def test_summand_validation_and_stem():
    # a summand is (order, label); its position, and so its stem, is the key of its chart cell
    x = Summand(8, Monomial.parse("zeta"))
    assert x.describe() == "Z/8[zeta]"
    assert not any(hasattr(x, name) for name in ("s", "t", "stem"))
    chart = Chart(2)
    chart.add(1, 4, x)
    assert [t - s for (s, t), cell in chart.entries.items() if x in cell] == [3]
    assert Summand(INF, Monomial.parse("1")).describe() == "Z_p[1]"
    with pytest.raises(ValueError):
        Summand(1, Monomial.parse("1"))
    with pytest.raises(ValueError):
        Summand(-4, Monomial.parse("1"))


def test_chart_add_and_duplicate_label():
    chart = Chart(2)
    chart.add(1, 2, Summand(2, Monomial.parse("eta")))
    chart.add(1, 2, Summand(2, Monomial.parse("eta*u^2")))
    assert len(chart.cell(1, 2)) == 2
    with pytest.raises(ValueError):
        chart.add(1, 2, Summand(4, Monomial.parse("eta")))


def test_chart_crop_and_json_and_render():
    chart = Chart(4)
    chart.add(0, 0, Summand(INF, Monomial.parse("1")))
    chart.add(1, 2, Summand(2, Monomial.parse("eta")))
    chart.add(9, 10, Summand(2, Monomial.parse("eta^9")))
    cropped = chart.crop(s_max=5, t_min=-4, t_max=4)
    assert (9, 10) not in cropped.entries
    assert (1, 2) in cropped.entries
    assert any("crop" in line for line in cropped.log)
    js = cropped.to_json()
    assert js["page"] == 4
    assert {"order": "INF", "label": "1"} in js["cells"][0]["summands"]
    text = chart.render_text()
    assert "E_4 page" in text
    assert "Z/2[eta]" in text


def _toy_rule():
    # x * u^k onto y * u^(k+2); it asks every label of index one, and a y finds no target
    return DifferentialRule(name="toy", times=(("x", -1), ("y", 1)), u_shift=2)


def test_differential_partial_kill_keeps_kernel():
    chart = Chart(3)
    chart.add(1, 4, Summand(8, Monomial.parse("x*u^2")))
    chart.add(4, 6, Summand(2, Monomial.parse("y*u^4")))
    nxt = apply_differentials(chart, [_toy_rule()])
    assert nxt.page == 4
    assert nxt.cell(4, 6) == ()
    (kernel,) = nxt.cell(1, 4)
    assert kernel.order == 4
    assert str(kernel.label) == "2*x*u^2"
    assert any("kills" in line for line in nxt.log)


def test_differential_exact_kill_removes_both():
    chart = Chart(3)
    chart.add(0, 0, Summand(2, Monomial.parse("x")))
    chart.add(3, 2, Summand(2, Monomial.parse("y*u^2")))
    nxt = apply_differentials(chart, [_toy_rule()])
    assert nxt.entries == {}


def test_differential_free_source_stays_free():
    chart = Chart(3)
    chart.add(0, 0, Summand(INF, Monomial.parse("x")))
    chart.add(3, 2, Summand(2, Monomial.parse("y*u^2")))
    nxt = apply_differentials(chart, [_toy_rule()])
    (kernel,) = nxt.cell(0, 0)
    assert kernel.order == INF
    assert str(kernel.label) == "2*x"


def test_differential_rejects_impossible_kill():
    chart = Chart(3)
    chart.add(0, 0, Summand(2, Monomial.parse("x")))
    chart.add(3, 2, Summand(4, Monomial.parse("y*u^2")))
    with pytest.raises(ValueError, match="inconsistent differential"):
        apply_differentials(chart, [_toy_rule()])


@pytest.mark.parametrize("source_order", [2, 8, INF])
def test_differential_onto_a_free_target_is_refused(source_order):
    # a free source onto a free target once left the kernel label "inf*x"
    chart = Chart(3)
    chart.add(0, 0, Summand(source_order, Monomial.parse("x")))
    chart.add(3, 2, Summand(INF, Monomial.parse("y*u^2")))
    for apply in (apply_differentials, _apply_differentials_by_scan):
        with pytest.raises(ValueError, match=r"inconsistent differential: Z.*\[x\] onto Z_p\[y\*u\^2\]"):
            apply(chart.copy(), [_toy_rule()])


def test_differential_unmatched_source_is_logged_and_kept():
    chart = Chart(3)
    chart.add(0, 0, Summand(2, Monomial.parse("x")))
    nxt = apply_differentials(chart, [_toy_rule()])
    assert len(nxt.cell(0, 0)) == 1
    assert any("left in place" in line for line in nxt.log)


def test_differential_u_congruence_gates_matching():
    rule = DifferentialRule(name="gated", times=(("x", -1), ("y", 1)), u_shift=2, u_mod=4, u_res=2)
    chart = Chart(3)
    chart.add(0, 0, Summand(2, Monomial.parse("x*u^4")))
    chart.add(3, 2, Summand(2, Monomial.parse("y*u^6")))
    nxt = apply_differentials(chart, [rule])
    assert len(nxt.cell(3, 2)) == 1
    chart2 = Chart(3)
    chart2.add(0, 0, Summand(2, Monomial.parse("x*u^2")))
    chart2.add(3, 2, Summand(2, Monomial.parse("y*u^4")))
    assert apply_differentials(chart2, [rule]).entries == {}


def test_differential_source_and_target_overlap_is_an_error():
    rules = [
        _toy_rule(),
        DifferentialRule(name="chain", times=(("y", -1), ("z", 1)), u_shift=2),
    ]
    chart = Chart(3)
    chart.add(0, 0, Summand(2, Monomial.parse("x")))
    chart.add(3, 2, Summand(2, Monomial.parse("y*u^2")))
    chart.add(6, 4, Summand(2, Monomial.parse("z*u^4")))
    with pytest.raises(ValueError, match="both source and target"):
        apply_differentials(chart, rules)


@pytest.mark.parametrize("bystander", [False, True])
def test_two_sources_onto_one_target_are_refused(bystander):
    # the second hit once found the target gone: a KeyError when the target was alone in its
    # cell, and otherwise one Z/2 killed both sources
    rules = [_toy_rule(), DifferentialRule("w", (("w", -1), ("y", 1)), u_shift=2)]
    chart = Chart(3)
    chart.add(0, 0, Summand(2, Monomial.parse("x")))
    chart.add(0, 0, Summand(2, Monomial.parse("w")))
    chart.add(3, 2, Summand(2, Monomial.parse("y*u^2")))
    if bystander:
        chart.add(3, 2, Summand(2, Monomial.parse("z")))
    for apply in (apply_differentials, _apply_differentials_by_scan):
        with pytest.raises(ValueError, match=r"target of two sources on page 3: \{\(3, 2, Monomial\(index=1"):
            apply(chart.copy(), rules)


def test_one_record_at_two_cells_turns_as_two_equal_records():
    # a record holds no position, so one object may sit in two cells; the page turn tells summands
    # apart by (s, t, label): by id() this legal kill read as "both source and target"
    rule = DifferentialRule("same", (), u_shift=0)
    x = Summand(4, Monomial.parse("x"))
    shared, twins = Chart(3), Chart(3)
    for chart, second in ((shared, x), (twins, Summand(4, Monomial.parse("x")))):
        chart.add(0, 0, x)
        chart.add(3, 2, second)
        chart.add(3, 2, Summand(2, Monomial.parse("y")))
    assert shared.to_json() == twins.to_json()
    for chart in (shared, twins):
        out = apply_differentials(chart, [rule])
        assert out.entries == {(3, 2): (Summand(2, Monomial.parse("y")),)}
        assert out.to_json()["log"] == [
            "d_3 [same] x at (s=3,t=2): no target x at (6, 4); left in place",
            "d_3 [same] y at (s=3,t=2): no target y at (6, 4); left in place",
            "d_3 [same] Z/4[x] at (s=0,t=0) kills Z/4[x] at (s=3,t=2)",
        ]
        assert _turn(apply_differentials, chart, [rule]) == _turn(_apply_differentials_by_scan, chart, [rule])


@pytest.mark.parametrize(
    "cells, error",
    [
        # two hits share a target id but not its (s, t, label): the ids alone would refuse this turn
        ([(3, 2), (3, 4)], None),
        # the record at (3, 2) is hit and hits (6, 4): ids and (s, t, label) both clash, and the
        # refusal is worded by (s, t, label)
        ([(3, 2), (6, 4)], f"summand is both source and target on page 3: {({(3, 2, Monomial.parse('x'))})}"),
    ],
    ids=["turned", "refused"],
)
def test_one_record_in_two_cells_turns_as_the_scan_does(cells, error):
    # one Z/2[x] record in every cell of cells, hit from a Z/4[x] at (0, t - 2) where s = 3
    rule, x, chart = DifferentialRule("same", (), u_shift=0), Summand(2, Monomial.parse("x")), Chart(3)
    for s, t in cells:
        chart.add(s, t, x)
        if s == 3:
            chart.add(0, t - 2, Summand(4, Monomial.parse("x")))
    outcome = _assert_same_turn(chart, [rule])
    if error:
        assert outcome[:2] == ("error", error)
    else:
        kernel = (Summand(2, Monomial.parse("2*x")),)
        assert apply_differentials(chart, [rule]).entries == {(0, 0): kernel, (0, 2): kernel}


def test_rules_refuse_cores_that_name_u():
    # a factor of u would belong in u_shift
    for times in ((("x", 1), ("u", 2)), (("u", 1), ("y", 1)), (("u", 1),)):
        with pytest.raises(ValueError, match="a core may not name u"):
            DifferentialRule("with u", times, u_shift=2)


@pytest.mark.parametrize(
    "core, error",
    [
        ((("eta", 0),), "zero exponents must be dropped"),
        ((("eta", 1), ("eta", 2)), "repeated class name 'eta'"),
        ((("Eta", 1),), "bad class name 'Eta'"),
        ((("eta\n", 1),), "bad class name 'eta\\\\n'"),
    ],
)
def test_rule_cores_pass_the_label_check(core, error):
    with pytest.raises(ValueError, match=error):
        DifferentialRule("bad times", core, u_shift=2)


def test_rule_cores_are_sorted_in_place():
    rule = DifferentialRule("sorted", [("zeta", 1), ("eta", 2)], u_shift=2)
    assert rule.times == (("eta", 2), ("zeta", 1))
    assert rule.matches(Monomial.parse("x^3*y*u^5")) and not rule.matches(Monomial.parse("2*x"))
    assert rule.target_label(Monomial.parse("x^3*y*u^5")) == Monomial.parse("eta^2*x^3*y*zeta*u^7")
    # exponents add, and a factor whose exponent reaches zero drops out
    assert rule.target_label(Monomial.parse("eta^-2*zeta")) == Monomial.parse("zeta^2*u^2")


@pytest.mark.parametrize(
    "kwargs, error",
    [
        ({"u_mod": 0}, "u_mod must be >= 1, got 0"),
        ({"u_mod": -4}, "u_mod must be >= 1, got -4"),
        ({"u_mod": 4.0}, "u_mod must be an integer, got 4.0"),
        ({"u_mod": True}, "u_mod must be an integer, got True"),
        ({"u_res": 2.0}, "u_res must be an integer, got 2.0"),
        ({"u_res": None}, "u_res must be an integer, got None"),
        ({"u_shift": "2"}, "u_shift must be an integer, got '2'"),
        ({"u_shift": 2.5}, "u_shift must be an integer, got 2.5"),
    ],
)
def test_rule_integer_fields_are_checked(kwargs, error):
    # u_mod = 0 once built, and the page turn died on a ZeroDivisionError
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        DifferentialRule("bad", (("y", 1),), **{"u_shift": 2, **kwargs})
    assert DifferentialRule("ok", (("y", 1),), u_shift=-2, u_mod=4, u_res=-1).u_res == -1


def test_empty_rules_only_turn_the_page():
    chart = Chart(2)
    chart.add(0, 0, Summand(INF, Monomial.parse("1")))
    nxt = apply_differentials(chart, [])
    assert nxt.page == 3
    assert nxt.entries == chart.entries


def test_collapse_check():
    chart = Chart(4)
    chart.add(0, 0, Summand(2, Monomial.parse("x")))
    chart.add(3, 2, Summand(2, Monomial.parse("y")))
    assert not collapse_check(chart, 2)
    assert not collapse_check(chart, 3)
    assert collapse_check(chart, 4)
    lone = Chart(4)
    lone.add(0, 0, Summand(2, Monomial.parse("x")))
    assert collapse_check(lone, 2)


def quadratic_collapse_check(chart, r_from):
    """The all-pairs scan that collapse_check replaced; the oracle."""
    keys = [k for k, cell in chart.entries.items() if cell]
    for (s1, t1) in keys:
        for (s2, t2) in keys:
            ds = s2 - s1
            if ds >= r_from and (t2 - t1) == ds - 1:
                return False
    return True


def test_collapse_check_matches_quadratic_scan():
    rng = random.Random(11)
    outcomes = set()
    for _ in range(3000):
        chart = Chart(2)
        for _ in range(rng.randrange(12)):
            key = (rng.randrange(9), rng.randrange(-6, 13))
            chart.entries[key] = () if rng.random() < 0.1 else (Summand(2, Monomial()),)
        r_from = rng.randint(1, 5)
        expected = quadratic_collapse_check(chart, r_from)
        assert collapse_check(chart, r_from) == expected, (sorted(chart.entries), r_from)
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_assemble_direct_sum():
    chart = Chart(10)
    chart.add(1, 4, Summand(4, Monomial.parse("zeta*u^-2")))
    chart.add(3, 6, Summand(2, Monomial.parse("eta^3")))
    chart.add(0, 0, Summand(INF, Monomial.parse("1")))
    plain = assemble_stems(chart, 2, [0, 3, 5])
    assert str(plain[3].decomp) == "Z/4 + Z/2"
    assert not plain[3].joined
    assert str(plain[0].decomp) == "Z_2"
    assert plain[5].decomp.is_zero


def test_zero_stems_share_one_group():
    chart = Chart(4)
    chart.add(1, 2, Summand(2, Monomial.parse("eta")))
    groups = assemble_stems(chart, 2, range(-5, 6))
    assert list(groups) == list(range(-5, 6))
    zero = groups[0]
    assert zero.decomp.is_zero and zero.labels == () and not zero.joined
    assert all(g is zero for i, g in groups.items() if i != 1)
    assert groups[1].labels == ("eta",)
    for table in (homotopy_table(2, range(-300, 301)), homotopy_table(5, range(-300, 301)), ko_table(range(300))):
        zeros = {id(g) for g in table.groups.values() if g.decomp.is_zero}
        assert len(zeros) == 1, table.p


def test_page_turn_leaves_the_incoming_log_alone():
    for build in (partial(sphere_e2_page, 2), ko_e2_page):
        page = apply_differentials(build(14, -40, 40), [])
        before = list(page.log)
        first, second = apply_differentials(page, [k1._D3]), apply_differentials(page, [k1._D3])
        assert page.log == before == []
        assert first.log == second.log
        assert any("no target" in line for line in first.log)
        assert any("kills" in line for line in first.log)


def _apply_differentials_by_scan(chart, rules):
    """The page turn as first written: each target label built and compared whole, each log line
    formatted at once; the oracle.

    Only matches and target_label are read, so it runs the tower rules of _CoreRule as well.
    """
    r = chart.page
    hits, misses = [], []
    sources = set()
    targets = set()
    for (s, t), cell in chart.entries.items():
        for summand in cell:
            for rule in rules:
                if not rule.matches(summand.label):
                    continue
                tkey = (s + r, t + r - 1)
                tlabel = rule.target_label(summand.label)
                match = next(
                    (x for x in chart.entries.get(tkey, ()) if x.label == tlabel), None
                )
                if match is None:
                    misses.append(
                        f"d_{r} [{rule.name}] {summand.label} at (s={s},t={t}):"
                        f" no target {tlabel} at {tkey}; left in place"
                    )
                    continue
                hits.append(((s, t), summand, tkey, match, rule))
                sources.add((s, t, summand.label))
                targets.add((tkey[0], tkey[1], tlabel))
                break
    overlap = sources & targets
    if overlap:
        raise ValueError(f"summand is both source and target on page {r}: {overlap}")
    hit = [(*tkey, y.label) for _, _, tkey, y, _ in hits]
    twice = {key for key in hit if hit.count(key) > 1}
    if twice:
        raise ValueError(f"summand is the target of two sources on page {r}: {twice}")

    out = chart.copy()
    out.page = r + 1
    out.log.extend(misses)
    for skey, source, tkey, target, rule in hits:
        out.entries[tkey] = tuple(x for x in out.entries[tkey] if x is not target)
        if not out.entries[tkey]:
            del out.entries[tkey]
        if target.order == INF:  # no kernel label can say what a map onto Z_p leaves
            raise ValueError(
                f"inconsistent differential: {source.describe()} onto {target.describe()}"
            )
        if source.order == INF:
            kernel = Summand(INF, source.label.scaled(target.order))
        else:
            if source.order % target.order:
                raise ValueError(
                    f"inconsistent differential: {source.describe()} onto {target.describe()}"
                )
            q = source.order // target.order
            kernel = (
                Summand(q, source.label.scaled(target.order))
                if q > 1
                else None
            )
        cell = tuple(x for x in out.entries[skey] if x is not source)
        if kernel is not None:
            cell = cell + (kernel,)
        if cell:
            out.entries[skey] = cell
        else:
            del out.entries[skey]
        out.log.append(
            f"d_{r} [{rule.name}] {source.describe()} at (s={skey[0]},t={skey[1]})"
            f" kills {target.describe()} at (s={tkey[0]},t={tkey[1]})"
        )
    return out


@record
class _CoreRule:
    """A differential rule as first written, for one fixed source core onto one fixed target core.

    It applies to labels of index one whose core is source_core and whose
    u-exponent is u_res mod u_mod; the target has target_core and the shifted
    u-exponent.  Built from it, the per-tower d_3 rules are the oracle for the
    one rule of the p = 2 tables.
    """

    name: str
    source_core: tuple
    target_core: tuple
    u_shift: int
    u_mod: int = 1
    u_res: int = 0

    def __post_init__(self):
        object.__setattr__(self, "source_core", Monomial(1, self.source_core).core)
        object.__setattr__(self, "target_core", Monomial(1, self.target_core).core)

    def matches(self, label):
        return (
            label.index == 1
            and label.core == self.source_core
            and label.u % self.u_mod == self.u_res % self.u_mod
        )

    def target_label(self, label):
        return Monomial(1, self.target_core, label.u + self.u_shift)


def _eta_towers(s_max, zeta=False):
    """d_3 on the towers eta^a (times zeta when asked), 0 <= a <= s_max, one rule per tower."""
    times = (("zeta", 1),) if zeta else ()
    rules = []
    for a in range(s_max + 1):
        name = f"zeta*eta^{a}" if zeta else f"eta^{a}" if a else "u"
        source = ((("eta", a),) if a else ()) + times
        target = (("eta", a + 3),) + times
        rules.append(_CoreRule(f"{name} tower", source, target, u_shift=2, u_mod=4, u_res=2))
    return rules


def _sphere_towers(s_max):
    """The sphere's d_3 as 2 * (s_max + 1) tower rules: KO's towers and the zeta * eta towers."""
    return _eta_towers(s_max) + _eta_towers(s_max, zeta=True)


def sphere_d3_rules(s_max):
    """The d_3 page the p = 2 sphere table passes, for every chart height: k1's one rule."""
    return [k1._D3]


ko_d3_rules = sphere_d3_rules  # the KO table passes the same page


_BRACKET = re.compile(r"^(d_\d+) \[[^\]]*\]")


def _masked(lines):
    """Log lines with each rule name in brackets blanked."""
    return [_BRACKET.sub(r"\1 []", line) for line in lines]


def _turn(apply, chart, rules):
    """(outcome, page or error, input log) of one page turn on a copy of chart."""
    chart = chart.copy()
    try:
        out = apply(chart, rules).to_json()
    except ValueError as exc:
        return "error", str(exc), chart.log
    return "ok", out, chart.log


def _assert_same_turn(chart, rules):
    new = _turn(apply_differentials, chart, rules)
    assert new == _turn(_apply_differentials_by_scan, chart, rules)
    assert new[2] == chart.log  # the incoming page's log is left as it was
    return new


def _assert_same_as_towers(chart, towers):
    """The one d_3 rule turns the page as the scan over the tower rules does, but for the brackets."""
    new = _turn(apply_differentials, chart, [k1._D3])
    old = _turn(_apply_differentials_by_scan, chart, towers)
    new[1]["log"], old[1]["log"] = _masked(new[1]["log"]), _masked(old[1]["log"])
    assert new[0] == old[0] == "ok"
    assert (new[1], _masked(new[2])) == (old[1], _masked(old[2]))
    return new


def test_page_turn_matches_scan_on_sphere_and_ko_windows():
    rng = random.Random(8)
    for _ in range(4):
        lo = rng.randrange(-3000, 1000)
        page = apply_differentials(sphere_e2_page(2, 14, lo, lo + 300), [])
        kind, out, _ = _assert_same_turn(page, sphere_d3_rules(14))
        assert kind == "ok" and any("kills" in line for line in out["log"])
        _assert_same_as_towers(page, _sphere_towers(14))
        page = apply_differentials(ko_e2_page(14, lo, lo + 300), [])
        kind, out, _ = _assert_same_turn(page, ko_d3_rules(14))
        assert kind == "ok" and any("kills" in line for line in out["log"])
        _assert_same_as_towers(page, _eta_towers(14))


_NAMES = ("x", "y", "z")


def _random_core(rng):
    return tuple((name, rng.choice((1, 2))) for name in rng.sample(_NAMES, rng.randrange(3)))


def _random_page(rng):
    """A small page and rule list built so that rules share u residues, labels carry
    indices > 1, some targets are missing and some targets are also sources."""
    cores = [_random_core(rng) for _ in range(3)]
    rules = [
        DifferentialRule(
            f"r{i}", rng.choice(cores), rng.randrange(-2, 3),
            u_mod=rng.choice((1, 2, 4)), u_res=rng.randrange(4),
        )
        for i in range(rng.randrange(1, 7))
    ]
    chart = Chart(rng.choice((2, 3)))
    r = chart.page

    def add(order, label, s, t):
        if all(x.label != label for x in chart.cell(s, t)):
            chart.add(s, t, Summand(order, label))

    for _ in range(rng.randrange(1, 12)):
        s, t, u = rng.randrange(5), rng.randrange(-3, 6), rng.randrange(-3, 4)
        label = Monomial(rng.choice((1, 1, 1, 2)), rng.choice(cores), u)
        if rng.random() < 0.6:  # often give it the target some rule asks for
            add(rng.choice((2, 4, INF)), rng.choice(rules).target_label(label), s + r, t + r - 1)
        add(rng.choice((2, 4, 8, INF)), label, s, t)
    return chart, rules


def _share_a_summand(rng, chart):
    """Place one summand object of chart in a second cell as well, r off its own or anywhere;
    a cell that already holds its label is left alone, so labels stay distinct within a cell."""
    r, placed = chart.page, [(key, x) for key, cell in chart.entries.items() for x in cell]
    (s, t), x = rng.choice(placed)
    key = rng.choice(((s + r, t + r - 1), (s - r, t - r + 1), (rng.randrange(5), rng.randrange(-3, 6))))
    if key != (s, t) and all(y.label != x.label for y in chart.cell(*key)):
        chart.add(*key, x)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.randoms(use_true_random=False))
def test_page_turn_matches_scan_on_drawn_charts(rng):
    _assert_same_turn(*_random_page(rng))
    chart, rules = _random_page(rng)  # a second page, one of whose summand objects sits in two cells
    _share_a_summand(rng, chart)
    _assert_same_turn(chart, rules)


def test_drawn_charts_reach_every_case():
    # the cases the hypothesis comparison is meant to cover all occur
    seen = set()
    for seed in range(300):
        chart, rules = _random_page(random.Random(seed))
        kind, out, _ = _assert_same_turn(chart, rules)
        r, placed = chart.page, [(key, x) for key, cell in chart.entries.items() for x in cell]
        for (s, t), x in placed:
            index_one = Monomial(1, x.label.core, x.label.u)
            asked = [rule for rule in rules if rule.matches(index_one)]
            if x.label.index > 1 and asked:
                seen.add("index > 1")
            if x.label.index > 1 or len(asked) < 2:
                continue
            seen.add("shared residue")
            found = [
                any(y.label == rule.target_label(x.label) for y in chart.cell(s + r, t + r - 1))
                for rule in asked
            ]
            if not found[0] and any(found[1:]):
                seen.add("missing target, then a hit")
        if kind == "ok" and any("left in place" in line for line in out["log"]):
            seen.add("missing target")
        if kind == "ok" and any("kills" in line for line in out["log"]):
            seen.add("hit")
        if kind == "error" and "both source and target" in out:
            seen.add("overlap")
        if kind == "error" and "two sources" in out:
            seen.add("two sources")
    assert seen == {
        "index > 1", "shared residue", "missing target", "missing target, then a hit", "hit", "overlap",
        "two sources",
    }


def _assemble_stems_by_summands(chart, p, stems):
    """assemble_stems as first written, one summand at a time in key order: the oracle."""
    by_stem = {}
    for s, t in sorted(chart.entries):
        for x in chart.entries[(s, t)]:
            by_stem.setdefault(t - s, []).append(x)
    out = {}
    for i in stems:
        cell = by_stem.get(i, [])
        orders = [x.order for x in cell]
        labels = tuple(str(x.label) for x in cell)
        out[i] = StemGroup(CyclicDecomp(p, orders), labels)
    return out


def _assembled(assemble, *args):
    try:
        groups = assemble(*args)
    except ValueError as exc:
        return "error", str(exc)
    return "ok", [(i, g, str(g.decomp), g.labels) for i, g in groups.items()]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.randoms(use_true_random=False))
def test_assemble_matches_summand_scan_on_drawn_charts(rng):
    chart, rules = _random_page(rng)
    pages = [chart]
    try:
        pages.append(apply_differentials(chart.copy(), rules))
    except ValueError:
        pass
    stems = sorted(rng.sample(range(-8, 10), rng.randrange(1, 10)))
    for page in pages:
        expected = _assembled(_assemble_stems_by_summands, page, 2, stems)
        assert _assembled(assemble_stems, page, 2, stems) == expected


def test_assemble_matches_summand_scan_on_sphere_and_ko_windows():
    rng = random.Random(13)
    for _ in range(3):
        lo = rng.randrange(-3000, 1000)
        for page, rules in (
            (sphere_e2_page(2, 14, lo - 4, lo + 218), sphere_d3_rules(14)),
            (ko_e2_page(14, lo - 4, lo + 218), ko_d3_rules(14)),
        ):
            final = apply_differentials(apply_differentials(page, []), rules).crop(10, lo - 1, lo + 211)
            stems = range(lo, lo + 200)
            expected = _assembled(_assemble_stems_by_summands, final, 2, stems)
            assert expected[0] == "ok"
            assert _assembled(assemble_stems, final, 2, stems) == expected


def _eager_chart(build, rules, stems):
    """A k1 table's final chart from the eager scan oracle followed by crop."""
    page = build(stems[0] - k1._T_MARGIN, stems[-1] + k1._S_BUILD + k1._T_MARGIN)
    final = _apply_differentials_by_scan(_apply_differentials_by_scan(page, []), rules)
    return final.crop(k1._S_KEEP, stems[0] - 1, stems[-1] + k1._S_KEEP + 1)


def test_table_logs_are_formatted_only_when_read(monkeypatch):
    def refuse(*args):
        raise AssertionError("a log line was formatted before the log was read")

    stems = range(-200, 201)
    monkeypatch.setattr(Summand, "describe", refuse)  # "kills" lines
    monkeypatch.setattr(DifferentialRule, "target_label", refuse)  # "no target" lines
    sphere, ko = homotopy_table(2, stems), ko_table(stems)
    monkeypatch.undo()
    for table, build, rules in (
        (sphere, lambda lo, hi: sphere_e2_page(2, k1._S_BUILD, lo, hi), sphere_d3_rules(k1._S_BUILD)),
        (ko, lambda lo, hi: ko_e2_page(k1._S_BUILD, lo, hi), ko_d3_rules(k1._S_BUILD)),
    ):
        log = table.chart.log
        assert any(" kills " in line for line in log)
        assert log[-1] == f"crop: s <= {k1._S_KEEP}, -201 <= t <= 211"
        assert log == _eager_chart(build, rules, stems).log
        assert table.chart.log is log  # formatted once


def _chart_json(chart):
    out = chart.to_json()
    out["log"] = _masked(out["log"])
    return out


def test_one_rule_tables_match_the_tower_rules():
    # the sphere's towers once included KO's u tower, which never fires there: its only class
    # with no eta or zeta is 1, at u^0; so both lists give the one rule's chart
    stems = range(-600, 601)
    sphere = lambda lo, hi: sphere_e2_page(2, k1._S_BUILD, lo, hi)
    ko = lambda lo, hi: ko_e2_page(k1._S_BUILD, lo, hi)
    towers = _sphere_towers(k1._S_BUILD)
    assert len(towers) == 30 and towers[0].name == "u tower"
    two = homotopy_table(2, stems)
    for table, build, rules in (
        (two, sphere, towers),
        (two, sphere, towers[1:]),
        (ko_table(stems), ko, _eta_towers(k1._S_BUILD)),
    ):
        expected = _chart_json(_eager_chart(build, rules, stems))
        assert sum(" kills " in line for line in expected["log"]) > 1000
        assert _chart_json(table.chart) == expected
