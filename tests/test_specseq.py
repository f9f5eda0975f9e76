import random

import pytest

from morava.padic import INF
from morava.specseq import (
    Chart,
    DifferentialRule,
    Monomial,
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
    assert m.index == 2
    assert m.exp("eta") == 3
    assert m.exp("u") == -2
    assert m.exp("zeta") == 0
    assert m.core() == (("eta", 3),)
    assert m.with_exp("u", 0) == Monomial.parse("2*eta^3")
    assert m.scaled(2) == Monomial.parse("4*eta^3*u^-2")


def test_monomial_rejects_garbage():
    with pytest.raises(ValueError):
        Monomial.parse("")
    with pytest.raises(ValueError):
        Monomial.parse("eta^")
    with pytest.raises(ValueError):
        Monomial.parse("u*u")
    with pytest.raises(ValueError):
        Monomial.parse("Eta")
    with pytest.raises(ValueError):
        Monomial(0, ())
    with pytest.raises(ValueError):
        Monomial(1, (("u", 0),))


def test_summand_validation_and_stem():
    x = Summand(8, Monomial.parse("zeta"), 1, 4)
    assert x.stem == 3
    assert x.describe() == "Z/8[zeta]"
    assert Summand(INF, Monomial.parse("1"), 0, 0).describe() == "Z_p[1]"
    with pytest.raises(ValueError):
        Summand(1, Monomial.parse("1"), 0, 0)
    with pytest.raises(ValueError):
        Summand(-4, Monomial.parse("1"), 0, 0)


def test_chart_add_and_duplicate_label():
    chart = Chart(2)
    chart.add(Summand(2, Monomial.parse("eta"), 1, 2))
    chart.add(Summand(2, Monomial.parse("eta*u^2"), 1, 2))
    assert len(chart.cell(1, 2)) == 2
    with pytest.raises(ValueError):
        chart.add(Summand(4, Monomial.parse("eta"), 1, 2))


def test_chart_crop_and_json_and_render():
    chart = Chart(4)
    chart.add(Summand(INF, Monomial.parse("1"), 0, 0))
    chart.add(Summand(2, Monomial.parse("eta"), 1, 2))
    chart.add(Summand(2, Monomial.parse("eta^9"), 9, 10))
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
    return DifferentialRule(
        name="toy", source_core=(("x", 1),), target_core=(("y", 1),), u_shift=2
    )


def test_differential_partial_kill_keeps_kernel():
    chart = Chart(3)
    chart.add(Summand(8, Monomial.parse("x*u^2"), 1, 4))
    chart.add(Summand(2, Monomial.parse("y*u^4"), 4, 6))
    nxt = apply_differentials(chart, [_toy_rule()])
    assert nxt.page == 4
    assert nxt.cell(4, 6) == ()
    (kernel,) = nxt.cell(1, 4)
    assert kernel.order == 4
    assert str(kernel.label) == "2*x*u^2"
    assert any("kills" in line for line in nxt.log)


def test_differential_exact_kill_removes_both():
    chart = Chart(3)
    chart.add(Summand(2, Monomial.parse("x"), 0, 0))
    chart.add(Summand(2, Monomial.parse("y*u^2"), 3, 2))
    nxt = apply_differentials(chart, [_toy_rule()])
    assert nxt.entries == {}


def test_differential_free_source_stays_free():
    chart = Chart(3)
    chart.add(Summand(INF, Monomial.parse("x"), 0, 0))
    chart.add(Summand(2, Monomial.parse("y*u^2"), 3, 2))
    nxt = apply_differentials(chart, [_toy_rule()])
    (kernel,) = nxt.cell(0, 0)
    assert kernel.order == INF
    assert str(kernel.label) == "2*x"


def test_differential_rejects_impossible_kill():
    chart = Chart(3)
    chart.add(Summand(2, Monomial.parse("x"), 0, 0))
    chart.add(Summand(4, Monomial.parse("y*u^2"), 3, 2))
    with pytest.raises(ValueError, match="inconsistent differential"):
        apply_differentials(chart, [_toy_rule()])


def test_differential_unmatched_source_is_logged_and_kept():
    chart = Chart(3)
    chart.add(Summand(2, Monomial.parse("x"), 0, 0))
    nxt = apply_differentials(chart, [_toy_rule()])
    assert len(nxt.cell(0, 0)) == 1
    assert any("left in place" in line for line in nxt.log)


def test_differential_u_congruence_gates_matching():
    rule = DifferentialRule(
        name="gated",
        source_core=(("x", 1),),
        target_core=(("y", 1),),
        u_shift=2,
        u_mod=4,
        u_res=2,
    )
    chart = Chart(3)
    chart.add(Summand(2, Monomial.parse("x*u^4"), 0, 0))
    chart.add(Summand(2, Monomial.parse("y*u^6"), 3, 2))
    nxt = apply_differentials(chart, [rule])
    assert len(nxt.cell(3, 2)) == 1
    chart2 = Chart(3)
    chart2.add(Summand(2, Monomial.parse("x*u^2"), 0, 0))
    chart2.add(Summand(2, Monomial.parse("y*u^4"), 3, 2))
    assert apply_differentials(chart2, [rule]).entries == {}


def test_differential_source_and_target_overlap_is_an_error():
    rules = [
        _toy_rule(),
        DifferentialRule(
            name="chain", source_core=(("y", 1),), target_core=(("z", 1),), u_shift=2
        ),
    ]
    chart = Chart(3)
    chart.add(Summand(2, Monomial.parse("x"), 0, 0))
    chart.add(Summand(2, Monomial.parse("y*u^2"), 3, 2))
    chart.add(Summand(2, Monomial.parse("z*u^4"), 6, 4))
    with pytest.raises(ValueError, match="both source and target"):
        apply_differentials(chart, rules)


def test_empty_rules_only_turn_the_page():
    chart = Chart(2)
    chart.add(Summand(INF, Monomial.parse("1"), 0, 0))
    nxt = apply_differentials(chart, [])
    assert nxt.page == 3
    assert nxt.entries == chart.entries


def test_collapse_check():
    chart = Chart(4)
    chart.add(Summand(2, Monomial.parse("x"), 0, 0))
    chart.add(Summand(2, Monomial.parse("y"), 3, 2))
    assert not collapse_check(chart, 2)
    assert not collapse_check(chart, 3)
    assert collapse_check(chart, 4)
    lone = Chart(4)
    lone.add(Summand(2, Monomial.parse("x"), 0, 0))
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
            chart.entries[key] = () if rng.random() < 0.1 else (Summand(2, Monomial(), *key),)
        r_from = rng.randint(1, 5)
        expected = quadratic_collapse_check(chart, r_from)
        assert collapse_check(chart, r_from) == expected, (sorted(chart.entries), r_from)
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_assemble_direct_sum_and_join():
    chart = Chart(10)
    chart.add(Summand(4, Monomial.parse("zeta*u^-2"), 1, 4))
    chart.add(Summand(2, Monomial.parse("eta^3"), 3, 6))
    chart.add(Summand(INF, Monomial.parse("1"), 0, 0))
    plain = assemble_stems(chart, 2, [0, 3, 5])
    assert str(plain[3].decomp) == "Z/4 + Z/2"
    assert str(plain[0].decomp) == "Z_2"
    assert plain[5].decomp.is_zero
    joined = assemble_stems(chart, 2, [3], extensions={"modulus": 8, "join": {3}})
    assert str(joined[3].decomp) == "Z/8"
    assert joined[3].joined
    assert set(joined[3].labels) == {"zeta*u^-2", "eta^3"}


def test_assemble_refuses_to_join_free_summands():
    chart = Chart(10)
    chart.add(Summand(INF, Monomial.parse("1"), 0, 3))
    chart.add(Summand(2, Monomial.parse("eta^3"), 3, 6))
    with pytest.raises(ValueError, match="cannot join"):
        assemble_stems(chart, 2, [3], extensions={"modulus": 8, "join": {3}})
