"""The package's value classes behave exactly as their @dataclass versions did.

Each class made by `morava.padic.record` has a twin below, written with the
stdlib `@dataclass(frozen=True)` and the same fields, defaults,
`__post_init__` and body methods.  The twins are the oracle: on
seeded field values both sides must agree on the constructor signature,
defaults and keyword construction, `__post_init__` errors, `==` (also across
classes), `hash`, `repr`, and assignment and deletion.  Unlike the twins, the
records are slotted: no instance has a `__dict__`, and copy and pickle still
agree with the twins.
"""

import copy
import inspect
import pickle
import random
import subprocess
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import pytest

from morava import grlie, homalg, k1, order, padic, specseq, stabilizer
from morava.padic import INF
from morava.witt import fq_field


@dataclass(frozen=True)
class PadicParams:
    p: int
    M: int
    __post_init__ = padic.PadicParams.__post_init__
    modulus = padic.PadicParams.modulus


@dataclass(frozen=True)
class PadicInt:
    params: padic.PadicParams
    value: int
    __post_init__ = padic.PadicInt.__post_init__
    __repr__ = padic.PadicInt.__repr__


@dataclass(frozen=True)
class SmithForm:
    params: padic.PadicParams
    shape: tuple
    diag: tuple
    U: tuple
    V: tuple


@dataclass(frozen=True)
class CyclicDecomp:
    p: int
    orders: tuple = ()
    precision_caveat: bool = False
    __post_init__ = padic.CyclicDecomp.__post_init__


@dataclass(frozen=True)
class SValuation:
    numerator: int
    denominator: int
    at_precision_cap: bool = False
    value = order.SValuation.value
    __hash__ = order.SValuation.__hash__

    def __eq__(self, other):
        # order.SValuation.__eq__ with the twin in place of the class
        if isinstance(other, SValuation):
            return (self.value, self.at_precision_cap) == (other.value, other.at_precision_cap)
        return self.value == other and not self.at_precision_cap


@dataclass(frozen=True)
class GrElem:
    k: int
    digit: object
    level = stabilizer.GrElem.level
    __repr__ = stabilizer.GrElem.__repr__


@dataclass(frozen=True)
class CheckReport:
    p: int
    n: int
    k: int
    l: int | None
    trials: int
    mismatches: int
    degenerate: int


@dataclass(frozen=True)
class AbelianizationReport:
    p: int
    n: int
    L: int
    decomp: padic.CyclicDecomp
    mod_p_decomp: padic.CyclicDecomp
    quotient_dims: dict
    chains: list
    generators: list


@dataclass(frozen=True)
class ZpModuleWithOperator:
    params: padic.PadicParams
    matrix: tuple
    __post_init__ = homalg.ZpModuleWithOperator.__post_init__


@dataclass(frozen=True)
class CohomologyGroup:
    s: int
    decomp: padic.CyclicDecomp
    provenance: str = ""


@dataclass(frozen=True)
class Monomial:
    index: int = 1
    core: tuple = ()
    u: int = 0
    __post_init__ = specseq.Monomial.__post_init__


@dataclass(frozen=True)
class Summand:
    order: object
    label: specseq.Monomial
    __post_init__ = specseq.Summand.__post_init__


@dataclass(frozen=True)
class DifferentialRule:
    name: str
    times: tuple
    u_shift: int
    u_mod: int = 1
    u_res: int = 0
    __post_init__ = specseq.DifferentialRule.__post_init__


@dataclass(frozen=True)
class StemGroup:
    decomp: padic.CyclicDecomp
    labels: tuple
    joined: bool = False


@dataclass(frozen=True)
class HomotopyTable:
    p: int
    groups: dict
    chart: specseq.Chart
    notes: tuple = ()


@dataclass(frozen=True)
class ValuationReport:
    p: int
    t_max: int
    formula: str
    checked: int
    max_valuation: int
    failures: tuple = ()
    unit_residues: tuple = ()


CHART = specseq.Chart(3)


def _decomp_args(rng):
    p = rng.choice((2, 3))
    orders = [rng.choice((INF, 1, p, p**2, p**3)) for _ in range(rng.randrange(4))]
    return p, tuple(orders), rng.random() < 0.5


def _decomp(rng):
    return padic.CyclicDecomp(*_decomp_args(rng))


def _monomial_args(rng):
    names = rng.sample(("u", "eta", "zeta", "x"), rng.randrange(3))
    exps = tuple((nm, rng.choice((-2, 1, 3))) for nm in names)
    return rng.randint(1, 3), tuple(pair for pair in exps if pair[0] != "u"), dict(exps).get("u", 0)


def _monomial(rng):
    return specseq.Monomial(*_monomial_args(rng))


def _params(rng):
    return padic.PadicParams(rng.choice((2, 3, 5)), rng.randint(1, 6))


# name -> (record class, twin, seeded field values, field values __post_init__ rejects)
CASES = {
    "PadicParams": (
        padic.PadicParams,
        PadicParams,
        lambda r: (r.choice((2, 3, 5, 7)), r.randint(1, 8)),
        [(4, 2), (3, 0)],
    ),
    "PadicInt": (padic.PadicInt, PadicInt, lambda r: (_params(r), r.randint(-500, 500)), []),
    "SmithForm": (
        padic.SmithForm,
        SmithForm,
        lambda r: (_params(r), (2, 2), (1, r.randrange(9)), ((1, 0), (0, 1)), ((r.randrange(3), 1), (1, 0))),
        [],
    ),
    "CyclicDecomp": (
        padic.CyclicDecomp,
        CyclicDecomp,
        _decomp_args,
        [(3, (6,)), (2, (0,)), (2, (-4,))],
    ),
    "SValuation": (
        order.SValuation,
        SValuation,
        lambda r: (r.randint(0, 12), r.choice((1, 2, 3)), r.random() < 0.3),
        [],
    ),
    "GrElem": (
        stabilizer.GrElem,
        GrElem,
        lambda r: (r.randint(1, 6), fq_field(3, 2).from_idx(r.randrange(9))),
        [],
    ),
    "CheckReport": (
        grlie.CheckReport,
        CheckReport,
        lambda r: (3, 2, r.randint(1, 4), r.choice((None, 1, 2)), 5, r.randrange(2), r.randrange(3)),
        [],
    ),
    "AbelianizationReport": (
        grlie.AbelianizationReport,
        AbelianizationReport,
        lambda r: (2, 2, r.randint(4, 9), _decomp(r), _decomp(r), {1: r.randrange(3)}, [{"nodes": [1]}], []),
        [],
    ),
    "ZpModuleWithOperator": (
        homalg.ZpModuleWithOperator,
        ZpModuleWithOperator,
        lambda r: (_params(r), ((r.randint(-9, 99), 1), (0, r.randrange(50)))),
        [(padic.PadicParams(3, 2), ((1, 2),))],
    ),
    "CohomologyGroup": (
        homalg.CohomologyGroup,
        CohomologyGroup,
        lambda r: (r.randrange(3), _decomp(r), r.choice(("", "E1"))),
        [],
    ),
    "Monomial": (
        specseq.Monomial,
        Monomial,
        _monomial_args,
        [
            (0, ()), (2.0, ()), (1, (("X1", 1),)), (1, (("u", 1),)), (1, (("eta", 0),)), (1, (("x", 1), ("x", 2))),
            (1, (), 2.0), (1, (), True), (1, (("eta\n", 1),)),
        ],
    ),
    "Summand": (
        specseq.Summand,
        Summand,
        lambda r: (r.choice((INF, 2, 4, 9)), _monomial(r)),
        [(1, specseq.Monomial()), ("Z/2", specseq.Monomial())],
    ),
    "DifferentialRule": (
        specseq.DifferentialRule,
        DifferentialRule,
        lambda r: (
            "d3", r.choice(((), (("eta", 3),), (("zeta", 1), ("eta", -1)))),
            r.choice((-2, 2)), r.choice((1, 4)), r.randrange(4),
        ),
        [
            ("d3", (("eta", 0),), 2), ("d3", (("u", 1),), 2),
            ("d3", (), 2, 0), ("d3", (), 2.0), ("d3", (), 2, 4, True),
        ],
    ),
    "StemGroup": (
        specseq.StemGroup,
        StemGroup,
        lambda r: (_decomp(r), ("eta", "u"), r.random() < 0.5),
        [],
    ),
    "HomotopyTable": (
        k1.HomotopyTable,
        HomotopyTable,
        lambda r: (2, {r.randrange(3): "Z/2"}, CHART, ("hidden extension",)),
        [],
    ),
    "ValuationReport": (
        k1.ValuationReport,
        ValuationReport,
        lambda r: (3, 30, "nu(t)+1", 30, r.randrange(5), tuple(r.sample(range(9), r.randrange(2))), (1, 2)),
        [],
    ),
}
NAMES = sorted(CASES)
SEEDS = range(6)


def _outcome(f):
    """The result of f(), or the exception it raised as (base type, message)."""
    try:
        return "ok", f()
    except (AttributeError, TypeError, ValueError) as exc:
        kind = next(k for k in (AttributeError, TypeError, ValueError) if isinstance(exc, k))
        return kind.__name__, str(exc)


def _pair(name, seed):
    rec, twin, make, _ = CASES[name]
    args = make(random.Random(f"{name}-{seed}"))
    return rec(*args), twin(*args)


def test_every_record_class_has_a_twin():
    assert len(CASES) == 16
    for name, (rec, twin, _, _) in CASES.items():
        assert rec.__qualname__ == twin.__qualname__ == name
        assert tuple(rec.__annotations__) == tuple(f.name for f in fields(twin))
        # what a twin borrows is the class body's own code, not a generated method
        for attr, value in vars(twin).items():
            code = getattr(value, "fget", value)
            if callable(code):
                assert code.__qualname__ == f"{name}.{attr}", (name, attr)


@pytest.mark.parametrize("name", NAMES)
def test_signature_defaults_and_keywords(name):
    rec, twin, make, _ = CASES[name]

    def sig(cls):
        return [(q.name, q.kind, q.default) for q in inspect.signature(cls).parameters.values()]

    assert sig(rec) == sig(twin)
    for seed in SEEDS:
        args = make(random.Random(f"{name}-{seed}"))
        kwargs = dict(zip(rec.__annotations__, args))
        assert repr(rec(**kwargs)) == repr(twin(**kwargs)) == repr(rec(*args))
        required = [q.name for q in inspect.signature(rec).parameters.values() if q.default is q.empty]
        short = {k: kwargs[k] for k in required}
        assert repr(rec(**short)) == repr(twin(**short))
        too_many = _outcome(lambda: rec(*args, 0))
        assert too_many[0] == "TypeError" and too_many == _outcome(lambda: twin(*args, 0))


@pytest.mark.parametrize("name", NAMES)
def test_post_init_errors(name):
    rec, twin, _, bad = CASES[name]
    for args in bad:
        got = _outcome(lambda: rec(*args))
        assert got[0] == "ValueError"
        assert got == _outcome(lambda: twin(*args))


@pytest.mark.parametrize("name", NAMES)
def test_eq_hash_repr(name):
    for seed in SEEDS:
        x, tx = _pair(name, seed)
        y, ty = _pair(name, seed)
        assert x == y and tx == ty and not (x != y)
        assert repr(x) == repr(tx)
        assert _outcome(lambda: hash(x)) == _outcome(lambda: hash(tx))
        if name != "SValuation":
            # == holds only within one class
            assert x != tx and tx != x
        for other in SEEDS:
            z, tz = _pair(name, other)
            assert (x == z) == (tx == tz)
            assert _outcome(lambda: hash(x) == hash(z)) == _outcome(lambda: hash(tx) == hash(tz))


def test_body_eq_wins():
    # SValuation compares values, not fields, and equals plain numbers
    for a, b in (((2, 1), (4, 2)), ((3, 2, True), (6, 4, True)), ((1, 2), (1, 3)), ((2, 1), (2, 1, True))):
        assert (order.SValuation(*a) == order.SValuation(*b)) == (SValuation(*a) == SValuation(*b))
        assert hash(order.SValuation(*a)) == hash(SValuation(*a))
    assert order.SValuation(2, 1) == order.SValuation(4, 2) == 2


def test_frozen_hash_is_the_field_tuple_hash():
    for name in NAMES:
        if name in ("SValuation", "AbelianizationReport", "HomotopyTable"):
            continue
        x, _ = _pair(name, 0)
        assert hash(x) == hash(tuple(getattr(x, f) for f in type(x).__annotations__))


def test_eq_across_classes():
    for a in NAMES:
        for b in NAMES:
            for seed in SEEDS[:2]:
                x, tx = _pair(a, seed)
                y, ty = _pair(b, seed)
                assert (x == y) == (tx == ty), (a, b, seed)
                assert (x != y) == (tx != ty), (a, b, seed)


def _mutations(obj, field):
    value = getattr(obj, field)  # the same value again: only a refusal shows
    return (
        _outcome(lambda: setattr(obj, field, value)),
        _outcome(lambda: delattr(obj, field)),
        _outcome(lambda: setattr(obj, "extra", 1)),
    )


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion(name):
    x, tx = _pair(name, 0)
    field = next(iter(type(x).__annotations__))
    got = _mutations(x, field)
    assert got == _mutations(tx, field)
    assert got == (
        ("AttributeError", f"cannot assign to field {field!r}"),
        ("AttributeError", f"cannot delete field {field!r}"),
        ("AttributeError", "cannot assign to field 'extra'"),
    )


@pytest.mark.parametrize("name", NAMES)
def test_records_are_slotted(name):
    x, _ = _pair(name, 0)
    fields = tuple(type(x).__annotations__)
    assert not hasattr(x, "__dict__") and "__dict__" not in dir(type(x))
    assert type(x).__slots__[: len(fields)] == fields
    for attempt in (lambda: setattr(x, "extra", 1), lambda: object.__setattr__(x, "extra", 1)):
        assert _outcome(attempt)[0] == "AttributeError"
    assert not hasattr(x, "extra")


@pytest.mark.parametrize("name", NAMES)
def test_records_copy_and_pickle(name):
    # slots are filled past the refusing __setattr__, as the twin's __dict__ is
    x, tx = _pair(name, 1)
    str(x)  # fills the cached text, where the class keeps one
    shallow = copy.copy(x)
    assert all(getattr(shallow, f) is getattr(x, f) for f in type(x).__annotations__)
    for dup in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        y, ty = dup(x), dup(tx)
        assert type(y) is type(x) and getattr(y, "_text", None) == getattr(x, "_text", None)
        assert _outcome(lambda: y == x) == _outcome(lambda: ty == tx)


def _decomp_text(p, orders, caveat):
    """str(CyclicDecomp) written out: the cleaned orders, INF first, then the caveat if a free part has one."""
    orders = sorted((o for o in orders if o != 1), key=lambda o: -o)
    text = " + ".join(f"Z_{p}" if o == INF else f"Z/{o}" for o in orders) or "0"
    return text + " [free part certified at precision only]" * (caveat and INF in orders)


def test_decomp_text_is_computed_once_and_kept_out_of_eq_and_hash():
    for seed in range(60):
        args = _decomp_args(random.Random(f"text-{seed}"))
        x, y = padic.CyclicDecomp(*args), padic.CyclicDecomp(*args)
        assert str(x) == _decomp_text(*args) == str(x), args
        assert x == y and hash(x) == hash(y) and repr(x) == repr(y)  # y has no text yet
        assert str(x) is str(x) and str(y) == str(x)
    x = padic.CyclicDecomp(5, (25, INF), True)
    text = str(x)
    assert _outcome(lambda: setattr(x, "_text", "0")) == ("AttributeError", "cannot assign to field '_text'")
    assert str(x) is text == "Z_5 + Z/25 [free part certified at precision only]"


def test_report_with_a_dict_field_is_unhashable():
    # frozen like every record, but its quotient_dims field is a dict
    x, tx = _pair("AbelianizationReport", 1)
    assert _outcome(lambda: hash(x)) == _outcome(lambda: hash(tx)) == ("TypeError", "unhashable type: 'dict'")
    report = grlie.abelianization_report(3, 2, 4)
    assert _outcome(lambda: setattr(report, "L", 99)) == ("AttributeError", "cannot assign to field 'L'")
    assert report.L == 4


def test_cli_import_loads_no_dataclasses():
    """A cold `import morava.cli` stays clear of the costly stdlib modules."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import morava.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'typing', 'random'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_init_code_is_shared_per_shape():
    # one compiled __init__ per (field count, __post_init__), renamed to each class's fields
    shapes = set()
    for rec, _, _, _ in CASES.values():
        fields = tuple(rec.__annotations__)
        assert rec.__init__.__code__.co_varnames == ("self", *fields)
        shapes.add((len(fields), hasattr(rec, "__post_init__")))
    # counted in a fresh interpreter: test modules here build records of their own
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); "
        "from morava import grlie, homalg, k1, order, padic, specseq, stabilizer; "
        "print(padic._init_code.cache_info().currsize)"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert int(out.stdout) == len(shapes) < len(CASES)


def test_a_field_without_a_default_after_one_with_a_default_is_refused():
    # the shared __init__ code takes defaults for its last arguments, so a class must list them last
    class Late:
        a: int = 1
        b: int

    with pytest.raises(TypeError, match="Late: a field without a default follows one with a default"):
        padic.record(Late)
    with pytest.raises(TypeError):  # as the twin's decorator refuses it
        dataclass(frozen=True)(Late)
