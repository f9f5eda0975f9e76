"""Graded brackets, the power operator, span laws, abelianization."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import morava
from morava import grlie, stabilizer
from morava.cli import run_command
from morava.grlie import (
    AbelianizationReport,
    GrElem,
    GrSubspace,
    abelianization_report,
    check_bracket_vs_group,
    check_power_vs_group,
    commutator_span,
    full_space,
    gr_bracket,
    gr_power,
    predicted_span,
    trace_kernel,
)
from morava.order import OrderElem
from morava.padic import INF, CyclicDecomp
from morava.witt import DEFAULT_POLYS, Fq, PrecisionError, fq_field

# every default field the kept oracles below are compared on
SMALL_FIELDS = sorted((p, n) for (p, n) in DEFAULT_POLYS if p**n <= 625)


def _elements(space):
    """All p^dim members of an F_p-subspace, as field elements."""
    field = space.field
    out = [field.zero]
    for b in space.basis():
        multiples = []
        m = field.zero
        for _ in range(field.p):
            multiples.append(m)
            m = m + b
        out = [x + mult for x in out for mult in multiples]
    return out


def brute_force_span(p, n, k, l):
    """The q^2 index-level enumeration that commutator_span replaced; the oracle."""
    field = fq_field(p, n)
    q = field.q
    span = GrSubspace(field)
    mul, frob = field.mul_idx, field.frob_idx
    for ai in range(1, q):
        fa = frob(ai, l)
        for bi in range(1, q):
            d = field.add_idx(mul(ai, frob(bi, k)), field.neg_idx(mul(bi, fa)))
            if d and span.insert(field.from_idx(d)) and span.dim == n:
                return span
    return span


def _commutator_span_all_pairs(p, n, k, l):
    """The n^2 basis-pair brackets, every one inserted, as commutator_span once ran: the oracle."""
    field = fq_field(p, n)
    basis = full_space(field).basis()
    span = GrSubspace(field)
    for a in basis:
        for b in basis:
            span.insert(gr_bracket(GrElem(k, a), GrElem(l, b)).digit)
    return span


class _GrSubspaceByList:
    """The dense RREF GrSubspace kept before padic.Echelon; the oracle."""

    def __init__(self, field):
        self.field = field
        self._rows = []  # coefficient tuples over F_p, RREF, pivots ascending

    @property
    def dim(self) -> int:
        return len(self._rows)

    def copy(self):
        out = _GrSubspaceByList(self.field)
        out._rows = list(self._rows)
        return out

    def _reduce(self, vec: list) -> list:
        p = self.field.p
        for row in self._rows:
            piv = next(i for i, c in enumerate(row) if c)
            if vec[piv]:
                mult = vec[piv]
                vec = [(v - mult * r) % p for v, r in zip(vec, row)]
        return vec

    def contains(self, x) -> bool:
        return not any(self._reduce(list(x.coeffs)))

    def insert(self, x) -> bool:
        p = self.field.p
        vec = self._reduce(list(x.coeffs))
        if not any(vec):
            return False
        piv = next(i for i, c in enumerate(vec) if c)
        inv = pow(vec[piv], -1, p)
        vec = [v * inv % p for v in vec]
        self._rows = [
            [(r[i] - r[piv] * vec[i]) % p for i in range(len(r))] if r[piv] else r
            for r in self._rows
        ]
        self._rows.append(vec)
        self._rows.sort(key=lambda r: next(i for i, c in enumerate(r) if c))
        return True

    def basis(self) -> list:
        return [self.field.element(r) for r in self._rows]

    def __eq__(self, other):
        return (
            isinstance(other, _GrSubspaceByList)
            and self.field is other.field
            and self._rows == other._rows
        )


def _full_space_by_inserts(field):
    out = _GrSubspaceByList(field)
    for i in range(field.n):
        out.insert(field.element([1 if j == i else 0 for j in range(field.n)]))
    return out


def _trace_table(field):
    """The q-entry trace table Fq.trace_idx once built on first use; the oracle."""
    table = []
    for idx in range(field.q):
        acc = 0
        conj = idx
        for _ in range(field.n):
            acc = field.add_idx(acc, conj)
            conj = field.frob_idx(conj)
        coeffs = field._decode(acc)
        assert not any(coeffs[1:])
        table.append(coeffs[0])
    return table


def _trace_kernel_by_enumeration(field):
    """ker(tr) from the trace table, element by element; the oracle."""
    table = _trace_table(field)
    out = _GrSubspaceByList(field)
    for x in field.elements():
        if table[x.idx] == 0:
            if out.insert(x) and out.dim == field.n - 1:
                break
    return out


def _coeffs(space):
    return [b.coeffs for b in space.basis()]


def test_subspace_matches_list_oracle():
    rng = random.Random(20261018)
    for (p, n) in SMALL_FIELDS:
        field = fq_field(p, n)
        for trial in range(6):
            new, old = GrSubspace(field), _GrSubspaceByList(field)
            snapshots = []
            for _ in range(3 * n):
                op = rng.randrange(4)
                if op == 0 and new.dim:  # a combination of the basis: inside the space
                    x = field.zero
                    for b in new.basis():
                        x = x + b * field.from_idx(rng.randrange(p))
                else:
                    x = field.from_idx(rng.randrange(field.q) if op else rng.randrange(p))
                if op == 3:
                    assert new.contains(x) == old.contains(x), (p, n, x)
                    continue
                assert new.insert(x) == old.insert(x), (p, n, x)
                assert new.dim == old.dim and _coeffs(new) == _coeffs(old), (p, n)
                snapshots.append((new.copy(), old.copy()))
            # == agrees with the oracle's == on every pair of snapshots
            for (a, a_old) in snapshots[::3]:
                for (b, b_old) in snapshots[::2]:
                    assert (a == b) == (a_old == b_old), (p, n)
        # the same span inserted in reverse is equal, and copies are independent
        elems = [field.from_idx(rng.randrange(field.q)) for _ in range(n)]
        fwd, rev = GrSubspace(field), GrSubspace(field)
        for x in elems:
            fwd.insert(x)
        for x in reversed(elems):
            rev.insert(x)
        assert fwd == rev and _coeffs(fwd) == _coeffs(rev)
        cp = GrSubspace(field).copy()
        cp.insert(field.one)
        assert cp.dim == 1 and GrSubspace(field).dim == 0


def test_trace_idx_matches_table():
    for (p, n) in SMALL_FIELDS:
        field = fq_field(p, n)
        table = _trace_table(field)
        assert [field.trace_idx(i) for i in range(field.q)] == table, (p, n)
        assert [x.trace() for x in field.elements()] == table, (p, n)


def test_trace_outside_the_prime_field_is_refused_on_every_call():
    field = Fq(3, 2, DEFAULT_POLYS[(3, 2)])  # a private copy: its Frobenius is broken below
    field.frob_idx = lambda i, k=1: i  # the trace becomes n * x
    assert field.trace_idx(1) == 2
    for _ in range(2):
        with pytest.raises(PrecisionError, match="outside the prime field"):
            field.trace_idx(field.gen_idx)


def test_trace_kernel_matches_enumeration():
    for (p, n) in SMALL_FIELDS:
        field = fq_field(p, n)
        new, old = trace_kernel(field), _trace_kernel_by_enumeration(field)
        assert new.dim == n - 1 and _coeffs(new) == _coeffs(old), (p, n)
        assert _coeffs(full_space(field)) == _coeffs(_full_space_by_inserts(field))


def test_spans_and_reports_match_list_oracle(monkeypatch):
    def outputs(p, n):
        spans = [
            (k, l, _coeffs(commutator_span(p, n, k, l)), predicted_span(p, n, k, l)[0])
            for k in range(1, n + 2)
            for l in range(k, n + 3)
        ]
        reports = [abelianization_report(p, n, L).to_json() for L in (1, n + 1, 2 * n + 1)]
        return spans, reports

    for (p, n) in SMALL_FIELDS:
        new = outputs(p, n)
        monkeypatch.setattr(grlie, "GrSubspace", _GrSubspaceByList)
        monkeypatch.setattr(grlie, "full_space", _full_space_by_inserts)
        monkeypatch.setattr(grlie, "trace_kernel", _trace_kernel_by_enumeration)
        old = outputs(p, n)
        monkeypatch.undo()
        assert new == old, (p, n)


def test_foreign_field_elements_are_refused():
    f9, f27, f4 = fq_field(3, 2), fq_field(3, 3), fq_field(2, 2)
    space = GrSubspace(f9)
    space.insert(f9.gen)
    before = space.copy()
    for x in (f27.gen, f27.one, f4.one, f4.gen):
        with pytest.raises(ValueError, match="not of F_9"):
            space.insert(x)
        with pytest.raises(ValueError, match="not of F_9"):
            space.contains(x)
    assert space == before and space.dim == 1
    assert _coeffs(space) == _coeffs(before)
    assert space.insert(f9.one) and space.dim == 2


def test_levels_below_one_are_refused(monkeypatch):
    # refused before any field or ring is built
    monkeypatch.setattr(grlie, "fq_field", lambda *a: pytest.fail("built a field"))
    monkeypatch.setattr(grlie, "make_ring", lambda *a: pytest.fail("built a ring"))
    for bad in (0, -1):
        for call in (
            lambda: commutator_span(3, 2, bad, 1),
            lambda: commutator_span(3, 2, 1, bad),
            lambda: predicted_span(3, 2, bad, 2),
            lambda: predicted_span(3, 2, 2, bad),
            lambda: check_bracket_vs_group(3, 2, bad, 1, trials=5),
            lambda: check_bracket_vs_group(3, 2, 1, bad, trials=5),
            lambda: check_power_vs_group(3, 2, bad, trials=5),
        ):
            with pytest.raises(ValueError, match=f"graded levels must be >= 1, got {bad}$"):
                call()


def test_subspace_basics():
    f = fq_field(3, 2)
    sp = GrSubspace(f)
    assert sp.dim == 0 and not sp.contains(f.one)
    assert sp.contains(f.zero)
    assert sp.insert(f.element([2, 1]))
    assert not sp.insert(f.element([1, 2]))  # scalar multiple
    assert sp.contains(f.element([1, 2]))
    assert sp.insert(f.one)
    assert sp.dim == 2 and sp.contains(f.gen)
    other = GrSubspace(f)
    other.insert(f.one)
    other.insert(f.gen)
    assert sp == other  # RREF is canonical
    cp = other.copy()
    third = GrSubspace(f)
    third.insert(f.one)
    assert cp == other and cp != third
    assert len(_elements(third)) == 3


def test_trace_kernel_and_full():
    for (p, n) in [(2, 2), (3, 2), (2, 3), (5, 2)]:
        f = fq_field(p, n)
        ker = trace_kernel(f)
        assert ker.dim == n - 1
        assert all(x.trace() == 0 for x in _elements(ker))
        assert full_space(f).dim == n


def test_bracket_frozen_f4():
    # at (2, 2) every nonzero bracket digit between levels 1/2 and 1/2 is 1
    f = fq_field(2, 2)
    vals = set()
    for a in f.elements():
        for b in f.elements():
            if a.is_zero or b.is_zero:
                continue
            d = gr_bracket(GrElem(1, a), GrElem(1, b))
            assert d.k == 2
            vals.add(d.digit)
    assert vals == {f.zero, f.one}


def test_bracket_antisymmetry():
    f = fq_field(3, 2)
    for a in f.elements():
        for b in f.elements():
            lhs = gr_bracket(GrElem(1, a), GrElem(2, b))
            rhs = gr_bracket(GrElem(2, b), GrElem(1, a))
            assert lhs.digit == -rhs.digit and lhs.k == rhs.k


def test_power_three_cases():
    # below the boundary: k(p-1) < n, digit is the twisted norm at level pk
    f8 = fq_field(2, 3)
    a = f8.gen
    low = gr_power(GrElem(1, a))
    assert low.k == 2 and low.digit == a * a.frobenius()
    # on the boundary: k(p-1) = n, the contributions add; kills wb at (3, 2)
    f9 = fq_field(3, 2)
    w = f9.gen
    mid = gr_power(GrElem(1, w))
    assert mid.k == 3
    assert mid.digit == w + w ** 13
    assert mid.digit.is_zero
    # above: digit passes through unchanged to level k + n
    high = gr_power(GrElem(2, w))
    assert high.k == 4 and high.digit == w


def test_power_boundary_not_always_zero():
    # the boundary map at (3, 2) is a + a^13; nonzero somewhere
    f9 = fq_field(3, 2)
    images = {gr_power(GrElem(1, a)).digit for a in f9.elements() if a}
    assert any(not d.is_zero for d in images)


def test_bracket_matches_group():
    for (p, n, k, l) in [(3, 2, 1, 1), (3, 2, 1, 2), (2, 2, 1, 2), (2, 3, 2, 3)]:
        rep = check_bracket_vs_group(p, n, k, l, trials=20, seed=3)
        assert rep.ok, (p, n, k, l, rep)
        assert rep.trials == 20


def test_power_matches_group():
    for (p, n, k) in [(3, 2, 1), (3, 2, 2), (2, 3, 1), (2, 3, 3), (2, 2, 2), (5, 2, 1)]:
        rep = check_power_vs_group(p, n, k, trials=20, seed=5)
        assert rep.ok, (p, n, k, rep)


def test_group_checks_catch_a_wrong_formula(monkeypatch, capsys):
    def off_by_one(formula):  # a wrong graded formula: 1 added to the digit
        def wrong(*args):
            out = formula(*args)
            return GrElem(out.k, out.digit + out.digit.field.one)

        return wrong

    monkeypatch.setattr(grlie, "gr_bracket", off_by_one(gr_bracket))
    monkeypatch.setattr(grlie, "gr_power", off_by_one(gr_power))
    rep = check_bracket_vs_group(3, 2, 1, 2, trials=5)
    assert (rep.trials, rep.mismatches, rep.degenerate, rep.ok) == (5, 5, 1, False)
    rep = check_power_vs_group(3, 2, 1, trials=5)
    assert (rep.trials, rep.mismatches, rep.degenerate, rep.ok) == (5, 5, 1, False)
    # a failed check is a finding, not an error: the CLI prints FAILED and exits 0
    argv = ["grlie", "check", "--p", "3", "--n", "2", "--k", "1", "--l", "2", "--trials", "5"]
    assert run_command(argv) == 0
    assert capsys.readouterr().out == "FAILED: 5 trials, 5 mismatches, 1 degenerate\n"


# (trials, mismatches, degenerate) at the (p, n) pairs of the unit-group benchmark, seed = the
# pair's index, as each trial once computed [x, y] with an inversion and projected it
_GROUP_CHECK_COUNTS = {
    (2, 2, 1, 2): (20, 0, 5), (2, 2, 2, 3): (20, 0, 5), (2, 2, 1): (20, 0, 0),
    (3, 2, 1, 2): (20, 0, 9), (3, 2, 2, 3): (20, 0, 4), (3, 2, 2): (20, 0, 0),
    (5, 2, 1, 2): (20, 0, 3), (5, 2, 2, 3): (20, 0, 4), (5, 2, 3): (20, 0, 0),
    (7, 2, 1, 2): (20, 0, 4), (7, 2, 2, 3): (20, 0, 2), (7, 2, 4): (20, 0, 0),
    (2, 3, 1, 2): (20, 0, 4), (2, 3, 2, 3): (20, 0, 4), (2, 3, 1): (20, 0, 0),
    (3, 3, 1, 2): (20, 0, 1), (3, 3, 2, 3): (20, 0, 2), (3, 3, 2): (20, 0, 0),
    (5, 3, 1, 2): (20, 0, 1), (5, 3, 2, 3): (20, 0, 1), (5, 3, 3): (20, 0, 0),
    (2, 4, 1, 2): (20, 0, 0), (2, 4, 2, 3): (20, 0, 1), (2, 4, 4): (20, 0, 3),
}


def test_group_checks_invert_nothing(monkeypatch, capsys):
    # gr[x, y] is read off xy - yx and gr(x^p) off x^p - 1: no inverse, no group commutator
    def refuse(*args):
        raise AssertionError("a graded group check inverted")

    monkeypatch.setattr(OrderElem, "inverse", refuse)
    monkeypatch.setattr(stabilizer, "commutator", refuse)
    assert not {"StabElem", "commutator", "gr_project"} & set(vars(grlie))
    got = {}
    for index, (p, n) in enumerate([(2, 2), (3, 2), (5, 2), (7, 2), (2, 3), (3, 3), (5, 3), (2, 4)]):
        for k, l in ((1, 2), (2, 3)):
            rep = check_bracket_vs_group(p, n, k, l, trials=20, M=16, seed=index)
            got[p, n, k, l] = (rep.trials, rep.mismatches, rep.degenerate)
        rep = check_power_vs_group(p, n, 1 + index % 4, trials=20, M=16, seed=index)
        got[p, n, 1 + index % 4] = (rep.trials, rep.mismatches, rep.degenerate)
    assert got == _GROUP_CHECK_COUNTS
    argv = ["grlie", "check", "--p", "3", "--n", "2", "--k", "1", "--l", "2", "--trials", "5"]
    assert run_command(argv) == 0
    assert capsys.readouterr().out == "ok: 5 trials, 0 mismatches, 0 degenerate\n"


def test_check_guards():
    with pytest.raises(ValueError, match="exceed precision"):
        check_bracket_vs_group(3, 2, 20, 20, M=16)
    with pytest.raises(ValueError, match="exceed precision"):
        check_power_vs_group(3, 2, 40, M=16)
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            check_bracket_vs_group(3, 2, 1, 1, trials=trials)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            check_power_vs_group(3, 2, 1, trials=trials)


def test_span_frozen_cases():
    # integer total level with a level-1 factor: exactly the trace kernel
    assert commutator_span(2, 2, 1, 1) == trace_kernel(fq_field(2, 2))
    assert commutator_span(3, 2, 1, 1) == trace_kernel(fq_field(3, 2))
    assert commutator_span(3, 2, 1, 3) == trace_kernel(fq_field(3, 2))
    # non-integer total level with a level-1 factor: everything
    assert commutator_span(3, 2, 1, 2) == full_space(fq_field(3, 2))
    assert commutator_span(2, 3, 1, 1) == full_space(fq_field(2, 3))
    # general integer case: contained in the trace kernel
    f9 = fq_field(3, 2)
    sp = commutator_span(3, 2, 2, 2)
    ker = trace_kernel(f9)
    assert all(ker.contains(b) for b in sp.basis())


def test_span_matches_brute_force():
    cases = 0
    for (p, n) in DEFAULT_POLYS:
        if p**n > 32:
            continue
        for k in range(1, n + 3):
            for l in range(k, n + 3):
                assert commutator_span(p, n, k, l) == brute_force_span(p, n, k, l), (p, n, k, l)
                cases += 1
    assert cases == 133


def test_span_matches_all_pairs_oracle():
    fields = cases = 0
    for (p, n) in sorted(DEFAULT_POLYS):
        if p**n > 1 << 12:
            continue
        fields += 1
        for k in range(1, n + 2):
            for l in range(k, n + 2):
                assert commutator_span(p, n, k, l) == _commutator_span_all_pairs(p, n, k, l), (p, n, k, l)
                cases += 1
    assert (fields, cases) == (21, 287)


def _inserts(monkeypatch):
    """Record (subspace, its dim) at every GrSubspace.insert, and every subspace copy() made."""
    inserts, copies = [], []
    real_insert, real_copy = GrSubspace.insert, GrSubspace.copy
    monkeypatch.setattr(GrSubspace, "insert", lambda self, x: inserts.append((self, self.dim)) or real_insert(self, x))
    monkeypatch.setattr(GrSubspace, "copy", lambda self: copies.append(real_copy(self)) or copies[-1])
    return inserts, copies


def test_spans_stop_at_full_rank(monkeypatch):
    # no bracket is inserted into a span that is already F_q, neither in
    # commutator_span nor in the D_k fill of abelianization_report
    inserts, copies = _inserts(monkeypatch)
    full = full_levels = 0
    for (p, n) in SMALL_FIELDS:
        for k in range(1, n + 2):
            for l in range(k, n + 2):
                inserts.clear()
                span = commutator_span(p, n, k, l)
                assert all(d < n for _, d in inserts), (p, n, k, l)
                full += span.dim == n
        inserts.clear()
        rep = abelianization_report(p, n, 2 * n + 2)
        full_levels += sum(d == 0 for d in rep.quotient_dims.values())
        # copies are the image and generator probes, which run on to the whole basis
        assert all(d < n for sp, d in inserts if not any(sp is c for c in copies)), (p, n)
    assert full > 100 and full_levels > 20, (full, full_levels)
    # a real D_k is full after its first span or never; seeded spans also fill it midway
    rng = random.Random(20261019)
    for (p, n) in [(2, 2), (3, 2), (2, 3), (5, 2)]:
        for L in range(2, 3 * n + 2):
            fake, made = _seeded_spans(rng), []
            monkeypatch.setattr(grlie, "commutator_span", lambda *a: made.append(fake(*a)) or made[-1])
            inserts.clear()
            try:
                abelianization_report(p, n, L)
            except ValueError:  # seeded spans need not be P-stable; the fill came first
                pass
            others = made + copies
            assert all(d < n for sp, d in inserts if not any(sp is o for o in others)), (p, n, L)


def test_subspace_copy_is_independent():
    rng = random.Random(20261019)
    for (p, n) in SMALL_FIELDS:
        field = fq_field(p, n)
        sp = GrSubspace(field)
        for _ in range(rng.randrange(n)):
            sp.insert(field.from_idx(rng.randrange(field.q)))
        before = sp.basis()
        cp = sp.copy()
        for _ in range(2 * n):
            cp.insert(field.from_idx(rng.randrange(field.q)))
        assert sp.basis() == before and sp.dim == len(before), (p, n)


def test_predicted_span():
    kind, space = predicted_span(3, 2, 1, 2)
    assert kind == "full" and space == full_space(fq_field(3, 2))
    kind, space = predicted_span(3, 2, 1, 3)
    assert kind == "ker_tr" and space == trace_kernel(fq_field(3, 2))
    kind, _ = predicted_span(3, 2, 2, 2)
    assert kind == "sub_ker_tr"
    kind, space = predicted_span(3, 2, 2, 3)
    assert kind == "no_claim" and space is None


def test_brute_force_guard():
    # spans need no enumeration of the field; the abelianization checks still do
    big = tuple([1, 0, 0, 1] + [0] * 13 + [1])  # x^17 + x^3 + 1, primitive
    assert commutator_span(2, 17, 1, 1, poly=big) == full_space(fq_field(2, 17, big))
    with pytest.raises(ValueError, match="out of range"):
        abelianization_report(2, 17, 1, poly=big)


def test_abelianization_odd_p():
    rep = abelianization_report(3, 2, 8)
    assert isinstance(rep, AbelianizationReport)
    assert rep.decomp.orders == (INF, 3, 3)
    assert rep.decomp.precision_caveat
    assert rep.mod_p_decomp.orders == (3, 3, 3)
    assert rep.quotient_dims[1] == 2
    assert all(rep.quotient_dims[k] == 1 for k in (2, 4, 6, 8))
    assert all(rep.quotient_dims[k] == 0 for k in (3, 5, 7))
    ends = {tuple(ch["nodes"]): ch["ends"] for ch in rep.chains}
    assert ends == {(1,): "zero", (2, 4, 6, 8): "truncated"}


def test_abelianization_p2():
    rep = abelianization_report(2, 2, 10)
    assert rep.decomp.orders == (INF, 2, 2, 2)
    assert rep.mod_p_decomp.orders == (2, 2, 2, 2)
    ends = {tuple(ch["nodes"]): ch["ends"] for ch in rep.chains}
    # level 1 dies into the norm (inside the trace kernel), level n = 2 dies
    # on the boundary, the integer chain starts at 2n = 4
    assert ends == {(1,): "zero", (2,): "zero", (4, 6, 8, 10): "truncated"}
    rep23 = abelianization_report(2, 3, 12)
    assert rep23.decomp.orders == (INF, 2, 2, 2, 2)
    assert rep23.mod_p_decomp.orders == (2,) * 5


def test_abelianization_n1():
    rep3 = abelianization_report(3, 1, 6)
    assert rep3.decomp.orders == (INF,)
    assert rep3.decomp.precision_caveat
    rep2 = abelianization_report(2, 1, 6)
    assert rep2.decomp.orders == (INF, 2)


def test_abelianization_short_window():
    # chains that never reach a zero edge stay free with the caveat; at L = 2
    # even the level-1 relation (target level 3) is past the window
    rep = abelianization_report(3, 2, 2)
    assert rep.quotient_dims == {1: 2, 2: 1}
    assert rep.decomp.orders == (INF, INF, INF)
    assert rep.decomp.precision_caveat


def test_abelianization_json():
    rep = abelianization_report(3, 2, 8)
    data = rep.to_json()
    assert data["integral"]["orders"] == ["INF", 3, 3]
    assert data["mod_p"]["orders"] == [3, 3, 3]
    assert {c["ends"] for c in data["chains"]} == {"zero", "truncated"}
    gens = data["generators"]
    assert all(set(g) == {"level", "digit", "order"} for g in gens)
    levels = [g["level"] for g in gens]
    assert "1/2" in levels and "2/2" in levels


def _bracket_spaces(p, n, L, poly=None):
    """D_k, the span of the brackets landing at level k, for k = 1..L.

    One span per level pair (k1, k - k1): the loop abelianization_report
    replaced by one span per pair of levels mod n; the oracle.
    """
    D = {}
    for k in range(1, L + 1):
        D[k] = GrSubspace(fq_field(p, n, poly))
        for k1 in range(1, k // 2 + 1):
            for b in grlie.commutator_span(p, n, k1, k - k1, poly).basis():
                D[k].insert(b)
    return D


def _abelianization_by_enumeration(p, n, L, poly=None):
    """The q^2 enumeration that abelianization_report replaced; the oracle.

    Checks well-definedness over F_q x D_k and additivity over F_q x F_q, and
    classifies each edge and the mod-p images element by element.
    """
    field = fq_field(p, n, poly)
    D = _bracket_spaces(p, n, L, poly)
    qdim = {k: n - D[k].dim for k in range(1, L + 1)}
    nonzero = [k for k in range(1, L + 1) if qdim[k] > 0]

    power = lambda k, a: grlie.gr_power(GrElem(k, a)).digit
    all_elems = list(field.elements())
    edges = {}
    for k in nonzero:
        t = grlie._phi(p, n, k)
        if t > L:
            edges[k] = ("truncated", t)
            continue
        if qdim.get(t, 0) == 0:
            edges[k] = ("zero", t)
            continue
        for a in all_elems:
            pa = power(k, a)
            for d in _elements(D[k]):
                if not D[t].contains(power(k, a + d) - pa):
                    raise ValueError(f"power operator not well-defined at level {k}/{n}")
        for a in all_elems:
            pa = power(k, a)
            for b in all_elems:
                if not D[t].contains(power(k, a + b) - pa - power(k, b)):
                    raise ValueError(f"power operator not additive at level {k}/{n}")
        if all(D[t].contains(power(k, a)) for a in all_elems):
            edges[k] = ("zero", t)
        elif qdim[k] == qdim[t] and all(
            D[t].contains(power(k, a)) == D[k].contains(a) for a in all_elems
        ):
            edges[k] = ("iso", t)
        else:
            raise ValueError(f"induced power map at level {k}/{n} is neither zero nor iso")

    iso_targets = {t for (kind, t) in edges.values() if kind == "iso"}
    chains, orders, generators = [], [], []
    caveat = False
    for k in nonzero:
        if k in iso_targets:
            continue
        nodes = [k]
        while edges[nodes[-1]][0] == "iso":
            nodes.append(edges[nodes[-1]][1])
        kind = edges[nodes[-1]][0]
        if kind == "truncated":
            factor, caveat, label = INF, True, "Z_p"
        else:
            factor = p ** len(nodes)
            label = f"Z/{factor}"
        chains.append({"nodes": nodes, "ends": kind, "factor": label, "dim": qdim[k]})
        orders.extend([factor] * qdim[k])
        probe = D[k].copy()
        for i in range(n):
            e = field.element([1 if j == i else 0 for j in range(n)])
            if probe.insert(e):
                generators.append((k, e, label))

    mod_rank = 0
    for k in nonzero:
        sub = D[k].copy()
        for j in nonzero:
            if edges[j][1] == k and edges[j][0] != "truncated":
                for a in all_elems:
                    sub.insert(power(j, a))
        mod_rank += n - sub.dim
    return AbelianizationReport(
        p, n, L, CyclicDecomp(p, orders, precision_caveat=caveat),
        CyclicDecomp(p, [p] * mod_rank), qdim, chains, generators,
    )


def test_abelianization_matches_enumeration():
    cases = 0
    for (p, n) in DEFAULT_POLYS:
        if p**n > 64:
            continue
        for L in range(1, 2 * n + 3):
            new = abelianization_report(p, n, L).to_json()
            assert new == _abelianization_by_enumeration(p, n, L).to_json(), (p, n, L)
            cases += 1
    assert cases == 92
    # the abelianize benchmark reports, one of them with q = 343
    for (p, n, L) in [
        (2, 2, 4), (2, 3, 6), (2, 4, 8), (2, 5, 10), (2, 6, 12), (3, 2, 3),
        (3, 3, 4), (3, 4, 5), (5, 2, 3), (5, 3, 4), (7, 2, 3), (7, 3, 4),
    ]:
        new = abelianization_report(p, n, L).to_json()
        assert new == _abelianization_by_enumeration(p, n, L).to_json(), (p, n, L)


def test_abelianization_spans_once_per_residue_pair(monkeypatch):
    # every field with q <= 64 at L = 1..3n against the per-pair oracle
    cases = 0
    for (p, n) in DEFAULT_POLYS:
        if p**n > 64:
            continue
        for L in range(1, 3 * n + 1):
            calls = []
            real = grlie.commutator_span
            monkeypatch.setattr(grlie, "commutator_span", lambda *a: calls.append(a) or real(*a))
            new = abelianization_report(p, n, L).to_json()
            monkeypatch.undo()
            assert len(calls) <= n * n, (p, n, L, len(calls))
            assert new == _abelianization_by_enumeration(p, n, L).to_json(), (p, n, L)
            cases += 1
    assert cases == 99


def test_long_abelianization_is_fast():
    # with one span per level pair (k1, k - k1) this took 25 s on a 2-CPU Linux VM
    code = (
        "from morava.grlie import abelianization_report\n"
        "print(abelianization_report(3, 2, 1000).to_json()['integral'])\n"
    )
    src = str(Path(morava.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=5,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "{'p': 3, 'orders': ['INF', 3, 3], 'precision_caveat': True}\n"


class _Reached(Exception):
    """Raised by a patched first step of the work: the call passed its bounds."""


def _reached(*args):
    raise _Reached


def test_work_bounds_refuse_before_any_work(monkeypatch):
    monkeypatch.setattr(grlie, "GrSubspace", _reached)  # a report's first step
    monkeypatch.setattr(grlie, "make_ring", _reached)  # a check's first step
    # levels times field elements against 2^17: 14563 levels of F_9 pass, 14564 do not
    with pytest.raises(_Reached):
        abelianization_report(3, 2, 14563)
    with pytest.raises(ValueError, match=r"^L = 14564 levels of F_9 pass the 131072-unit bound$"):
        abelianization_report(3, 2, 14564)
    # trials times n^2 (M + 64) bitlength(p) against 2^22: 640 units a trial at (3, 2, 16)
    with pytest.raises(_Reached):
        check_bracket_vs_group(3, 2, 1, 1, trials=6553)
    refusal = r"^6554 trials at \(p, n, M\) = \(3, 2, 16\) pass the 4194304-unit bound$"
    with pytest.raises(ValueError, match=refusal):
        check_bracket_vs_group(3, 2, 1, 1, trials=6554)
    # 52224 units a trial at (7, 4, 1024), where a power trial costs most
    with pytest.raises(_Reached):
        check_power_vs_group(7, 4, 1, trials=80, M=1024)
    with pytest.raises(ValueError, match="81 trials at"):
        check_power_vs_group(7, 4, 1, trials=81, M=1024)
    # p is checked before it sizes a trial
    with pytest.raises(ValueError, match="^p must be prime, got 4$"):
        check_bracket_vs_group(4, 2, 1, 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["grlie", "abelianize", "--p", "3", "--n", "2", "--levels", "2000000"],
        ["grlie", "check", "--p", "3", "--n", "2", "--k", "1", "--l", "1", "--trials", "100000000"],
    ],
    ids=["levels", "trials"],
)
def test_unbounded_counts_exit_1_at_once(argv):
    # each of these once ran past a 10 s timeout
    src = str(Path(morava.__file__).resolve().parents[1])
    code = "import sys\nfrom morava.cli import run_command\nsys.exit(run_command(sys.argv[1:]))\n"
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=2,
    )
    assert done.returncode == 1 and done.stdout == "", (done.stdout, done.stderr)
    assert "-unit bound" in done.stderr and "Traceback" not in done.stderr, done.stderr


def _report_line_events(L):
    """Lines executed in abelianization_report's own frame at (3, 2, L)."""
    code, count = grlie.abelianization_report.__code__, [0]

    def local(frame, event, arg):
        count[0] += event == "line"
        return local

    before = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        grlie.abelianization_report(3, 2, L)
    finally:
        sys.settrace(before)
    return count[0]


def test_abelianization_report_is_linear_in_levels():
    # the mod-p pass once scanned every edge for each target level: 3.6x from L = 500 to 1000
    small, large = _report_line_events(500), _report_line_events(1000)
    assert large <= 2.1 * small, (small, large)


def _seeded_spans(rng):
    """A fake commutator_span: a seeded subspace of dimension 0..2 per pair of levels mod n.

    Like the real span it depends on the levels only mod n, which is all that
    abelianization_report assumes when it builds each span once.
    """
    spans = {}

    def fake(p, n, k, l, poly=None):
        key = (k % n, l % n)
        if key not in spans:
            field = fq_field(p, n, poly)
            spans[key] = GrSubspace(field)
            for _ in range(rng.choice([0, 0, 1, 2])):
                spans[key].insert(field.from_idx(rng.randrange(field.q)))
        return spans[key]

    return fake


def _seeded_power_maps(p, n, L, kind, rng):
    """A fake gr_power: per level k, a seeded digit map F_q -> F_q with 0 -> 0.

    'linear' is F_p-linear; 'linear+D' adds a non-additive error inside D_t,
    t the target level of k; 'quadratic' adds c_i c_j v for coordinates
    c_i, c_j (one basis direction cannot see it when neither is that
    direction); 'table' is an arbitrary table.
    """
    field = fq_field(p, n)
    D = _bracket_spaces(p, n, L)
    tables = {}
    for k in range(1, L + 1):
        if kind == "table":
            tables[k] = [0] + [rng.randrange(field.q) for _ in range(field.q - 1)]
            continue
        # zero and identity matrices often enough that whole reports pass
        choice = rng.randrange(4)
        if choice == 0:
            mat = [[0] * n for _ in range(n)]
        elif choice == 1:
            mat = [[int(i == j) for j in range(n)] for i in range(n)]
        else:
            mat = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        i, j = sorted(rng.randrange(n) for _ in range(2))
        v = field.from_idx(rng.randrange(field.q))
        table = []
        for idx in range(field.q):
            c = field.from_idx(idx).coeffs
            x = field.element([sum(m * y for m, y in zip(row, c)) % p for row in mat])
            if kind == "quadratic":
                x = x + field.element([c[i] * c[j] * vc for vc in v.coeffs])
            table.append(x)
        t = grlie._phi(p, n, k)
        if kind == "linear+D" and t <= L:
            span = _elements(D[t])
            table = [x if i == 0 else x + rng.choice(span) for i, x in enumerate(table)]
        tables[k] = [x.idx for x in table]

    def fake(x):
        return GrElem(grlie._phi(p, n, x.k), field.from_idx(tables[x.k][x.digit.idx]))

    return fake


def test_abelianization_mutated_power_maps(monkeypatch):
    # old and new agree on seeded maps, over the real bracket spaces and over
    # seeded ones (which also give edges with qdim[k] < qdim[t])
    rng = random.Random(20261018)
    kinds = ("linear", "linear+D", "quadratic", "table")
    outcomes = {kind: {"accepted": 0, "refused": 0} for kind in kinds}
    growing = 0  # accepted edges k -> t with qdim[k] < qdim[t]
    for (p, n) in [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)]:
        for L in range(1, 2 * n + 3):
            for kind in kinds:
                for trial in range(8):
                    if trial % 2:
                        monkeypatch.setattr(grlie, "commutator_span", _seeded_spans(rng))
                    fake = _seeded_power_maps(p, n, L, kind, rng)
                    monkeypatch.setattr(grlie, "gr_power", fake)
                    try:
                        new = abelianization_report(p, n, L).to_json()
                    except ValueError:
                        new = None
                    try:
                        old = _abelianization_by_enumeration(p, n, L).to_json()
                    except ValueError:
                        old = None
                    monkeypatch.undo()
                    assert new == old, (p, n, L, kind, trial)
                    outcomes[kind]["accepted" if new is not None else "refused"] += 1
                    dims = {int(k): d for k, d in (new or {}).get("quotient_dims", {}).items()}
                    growing += sum(0 < d < dims.get(grlie._phi(p, n, k), 0) for k, d in dims.items())
    assert all(o["accepted"] and o["refused"] for o in outcomes.values()), outcomes
    assert growing, "no edge with qdim[k] < qdim[t] was exercised"


def test_abelianization_power_calls_are_linear_in_q(monkeypatch):
    # one additivity pass over F_q per checked edge (P(a) against the linear map built from
    # the basis images), then only bases; H_1 (x) F_p is read off the chains, with no power
    # digit and no subspace copy after the chain walk
    real_power, real_copy = grlie.gr_power, GrSubspace.copy
    for (p, n, L) in [(2, 6, 12), (3, 3, 4), (2, 4, 15), (3, 2, 9), (5, 2, 9), (3, 3, 12)]:
        calls, copies = [], []
        monkeypatch.setattr(grlie, "gr_power", lambda x: calls.append(x.k) or real_power(x))
        monkeypatch.setattr(GrSubspace, "copy", lambda self: copies.append(self) or real_copy(self))
        rep = abelianization_report(p, n, L)
        monkeypatch.undo()
        dims, q = rep.quotient_dims, p**n
        checked = [
            k for k in dims
            if dims[k] and grlie._phi(p, n, k) <= L and dims[grlie._phi(p, n, k)]
        ]
        assert checked, (p, n, L)
        # per checked edge: q for additivity, n basis images, dim D_k for well-definedness
        assert len(calls) == sum(q + n + n - dims[k] for k in checked), (p, n, L)
        assert len(copies) == len(checked) + len(rep.chains), (p, n, L)


def _mod_p_rank_by_images(p, n, L, D):
    """The mod-p pass abelianization_report replaced by reading the chains; the oracle.

    Sums dim Q_k modulo the image of P on every level j with P: j -> k, over
    every nonzero level k <= L, without assuming that such a j is unique.
    """
    field = fq_field(p, n)
    basis = full_space(field).basis()
    nonzero = [k for k in range(1, L + 1) if D[k].dim < n]
    rank = 0
    for k in nonzero:
        sub = D[k].copy()
        for j in nonzero:
            if grlie._phi(p, n, j) == k:
                for e in basis:
                    sub.insert(grlie.gr_power(GrElem(j, e)).digit)
        rank += n - sub.dim
    return rank


def test_abelianization_mod_p_matches_images():
    cases = 0
    for (p, n) in SMALL_FIELDS:
        top = 3 * n + 3
        D = _bracket_spaces(p, n, top)
        for L in range(1, top + 1):
            rep = abelianization_report(p, n, L)
            rank = _mod_p_rank_by_images(p, n, L, D)
            assert rep.mod_p_decomp == CyclicDecomp(p, [p] * rank), (p, n, L)
            cases += 1
    assert cases == 261
