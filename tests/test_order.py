"""Order arithmetic: the S relations, valuations, digits, inversion."""

import random
from fractions import Fraction
from functools import cache
from operator import add, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morava.cli import parse_element
from morava.order import (
    OrderElem,
    SValuation,
    from_coeff_rows,
    from_digits,
    from_int,
    from_json,
    from_witt,
    order_one,
    s_gen,
)
from morava.padic import binary_power
from morava.witt import DEFAULT_POLYS, CoordElem, PrecisionError, WittElem, make_ring, teichmuller
from test_witt import _vec_mul


def _random_order_elem(ring, rng):
    mod = ring.params.modulus
    return from_coeff_rows(
        ring, [[rng.randrange(mod) for _ in range(ring.n)] for _ in range(ring.n)]
    )


def _random_witt_elem(ring, rng):
    return ring.from_coords([rng.randrange(ring.params.modulus) for _ in range(ring.n)])


def _parts_product(x, y):
    """The product on Witt coefficients, sum_(i,k) a_i sigma^i(b_k) S^(i+k): the oracle."""
    ring = x.ring
    n, p = ring.n, ring.params.p
    acc = [ring.zero() for _ in range(n)]
    for i, ai in enumerate(x.parts):
        for k, bk in enumerate(y.parts):
            term = ai * bk.frobenius(i)
            if i + k >= n:
                term = term.scale(p)
            acc[(i + k) % n] = acc[(i + k) % n] + term
    return from_coeff_rows(ring, [a.coords for a in acc])


@cache
def _twisted_table(ring):
    """table[i][l][m][j]: coordinate m of w^j sigma^i(w^l), the n^3 products behind the order."""
    n, mod, pows = ring.n, ring.params.modulus, ring._omega_pows
    return [
        [tuple(zip(*(_vec_mul(pows[j], col, pows, n, mod) for j in range(n)))) for col in zip(*sig)]
        for sig in ring._sigma_pows
    ]


def _twisted_table_product(x, y):
    """The structure-table loop the packed product replaced, 2 n^4 multiply-adds: the second oracle."""
    ring = x.ring
    n, p = ring.n, ring.params.p
    acc = [0] * (n * n)
    for i, mats in enumerate(_twisted_table(ring)):
        a = x.coords[n * i : n * i + n]
        # (a S^i)(b w^l S^k) = b a sigma^i(w^l) S^(i+k), and S^n = p
        twisted = [[sum(map(mul, row, a)) for row in mat] for mat in mats]
        for k in range(n):
            start, c = (n * (i + k), 1) if i + k < n else (n * (i + k - n), p)
            for l, b in enumerate(y.coords[n * k : n * k + n]):
                for m, t in enumerate(twisted[l]):
                    acc[start + m] += c * b * t
    return OrderElem(ring, tuple(v % ring.params.modulus for v in acc))


def _factor_kinds(ring, rng):
    """Zero, sparse, random, and all coordinates p^M - 1, which fills the packed slots most."""
    mod, size = ring.params.modulus, ring.n * ring.n
    dense = _random_order_elem(ring, rng)
    sparse = OrderElem(ring, tuple(c * (rng.random() < 0.3) for c in dense.coords))
    return [OrderElem(ring, (0,) * size), sparse, dense, OrderElem(ring, (mod - 1,) * size)]


def test_product_matches_parts_oracle():
    rng = random.Random(53)
    for (p, n) in sorted(DEFAULT_POLYS):
        for M in (1, 2, 16, 40):
            ring = make_ring(p, n, M)
            kinds = _factor_kinds(ring, rng) + _factor_kinds(ring, rng)[1:3]
            for x in kinds:
                for y in kinds:
                    want = _parts_product(x, y)
                    assert x * y == want == _twisted_table_product(x, y), (p, n, M, x, y)


def test_flat_representation():
    ring = make_ring(2, 3, 4)
    x = _random_order_elem(ring, random.Random(59))
    assert isinstance(x, OrderElem)
    assert len(x.coords) == 9 and all(type(c) is int for c in x.coords)
    assert x.to_json()["coeffs"] == [list(x.coords[3 * i : 3 * i + 3]) for i in range(3)]
    assert [a.coords for a in x.parts] == [x.coords[0:3], x.coords[3:6], x.coords[6:9]]
    assert x ** 0 == order_one(ring) and x ** 1 == x and x ** 3 == x * x * x


_UNIT_RINGS = [make_ring(3, 2, 6), make_ring(2, 3, 6), make_ring(5, 2, 6)]


@st.composite
def _units(draw):
    ring = draw(st.sampled_from(_UNIT_RINGS))
    n, p, mod = ring.n, ring.params.p, ring.params.modulus
    coords = st.lists(st.integers(0, mod - 1), min_size=n * n, max_size=n * n)
    units = coords.filter(lambda c: any(v % p for v in c[:n]))
    return [OrderElem(ring, tuple(draw(units))) for _ in range(3)]


@settings(max_examples=60, deadline=None)
@given(_units())
def test_product_ring_axioms(units):
    x, y, z = units
    ring = x.ring
    one, s = order_one(ring), s_gen(ring)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z
    assert s * x == x.galois_sigma() * s
    inv = x.inverse()
    assert x * inv == one and inv * x == one


def test_s_conjugates_omega():
    ring = make_ring(3, 2, 8)
    s = s_gen(ring)
    w = from_witt(ring, ring.omega)
    w_cubed = from_witt(ring, ring.omega ** 3)
    assert s * w == w_cubed * s


def test_s_power_is_p():
    for (p, n) in [(2, 1), (2, 3), (3, 2), (5, 2), (2, 4)]:
        ring = make_ring(p, n, 8)
        assert s_gen(ring) ** n == from_int(ring, p)


def test_s_commutation_rule():
    rng = random.Random(23)
    for (p, n) in [(3, 2), (2, 3)]:
        ring = make_ring(p, n, 8)
        s = s_gen(ring)
        mod = ring.params.modulus
        for _ in range(20):
            w = ring.from_coords([rng.randrange(mod) for _ in range(n)])
            assert s * from_witt(ring, w) == from_witt(ring, w.frobenius()) * s


def test_associativity_and_distributivity():
    rng = random.Random(29)
    for (p, n) in [(3, 2), (2, 3)]:
        ring = make_ring(p, n, 6)
        for _ in range(10):
            x, y, z = (_random_order_elem(ring, rng) for _ in range(3))
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert (x + y) * z == x * z + y * z


def test_s_valuation():
    ring = make_ring(3, 2, 8)
    s = s_gen(ring)
    assert s.s_valuation() == SValuation(1, 2)
    assert from_int(ring, 3).s_valuation() == SValuation(2, 2)
    assert from_witt(ring, ring.omega).s_valuation() == SValuation(0, 2)
    assert (s + from_int(ring, 3)).s_valuation() == SValuation(1, 2)
    assert (s * s.scale(3)).s_valuation() == SValuation(4, 2)
    cap = from_int(ring, 0).s_valuation()
    assert cap.at_precision_cap and cap.numerator == 16
    assert str(cap) == ">= 8"
    assert str(SValuation(1, 2)) == "1/2"
    assert SValuation(1, 2) < SValuation(2, 2) < SValuation(5, 2)
    # valuation is multiplicative-additive where exact
    rng = random.Random(31)
    for _ in range(10):
        x, y = _random_order_elem(ring, rng), _random_order_elem(ring, rng)
        if x.is_zero or y.is_zero:
            continue
        vx, vy, vxy = x.s_valuation(), y.s_valuation(), (x * y).s_valuation()
        if not vxy.at_precision_cap:
            assert vxy.value >= vx.value + vy.value


def test_s_digits():
    ring = make_ring(3, 2, 8)
    s = s_gen(ring)
    digs = s.s_digits(4)
    assert [d.idx for d in digs] == [0, ring.fq.one.idx, 0, 0]
    # digit at position i + j*n is the j-th p-adic digit of coefficient i
    x = from_int(ring, 3)
    digs = x.s_digits(4)
    assert [bool(d) for d in digs] == [False, False, True, False]


def test_digits_round_trip():
    rng = random.Random(37)
    for (p, n) in [(3, 2), (2, 3)]:
        ring = make_ring(p, n, 6)
        count = n * ring.params.M
        for _ in range(8):
            x = _random_order_elem(ring, rng)
            assert from_digits(ring, x.s_digits(count)) == x
        # and digit sequences assemble to elements with those digits
        digs = [rng.choice(list(ring.fq.elements())) for _ in range(count)]
        y = from_digits(ring, digs)
        assert y.s_digits(count) == digs
    with pytest.raises(ValueError, match="exceeds precision"):
        order_one(make_ring(3, 2, 6)).s_digits(13)
    with pytest.raises(ValueError, match="digit count must be >= 0"):
        order_one(make_ring(3, 2, 6)).s_digits(-1)
    assert order_one(make_ring(3, 2, 6)).s_digits(0) == []


def _from_digits_every_digit(ring, digits):
    """from_digits as it was, one Teichmuller lift per digit, zeros included: the oracle."""
    n, p = ring.n, ring.params.p
    coords = [0] * (n * n)
    for k, d in enumerate(digits):
        i, j = k % n, k // n
        if j >= ring.params.M:
            raise ValueError("digit count exceeds precision")
        for m, c in enumerate(teichmuller(ring, d).coords):
            coords[n * i + m] += c * p ** j
    return OrderElem(ring, tuple(c % ring.params.modulus for c in coords))


def test_from_digits_skips_zero_digits(monkeypatch):
    import morava.order

    rng = random.Random(20261019)
    for (p, n, M) in [(2, 1, 5), (3, 2, 6), (2, 3, 4), (5, 2, 3), (7, 3, 2), (2, 4, 3)]:
        ring = make_ring(p, n, M)
        zero, elems = ring.fq.zero, list(ring.fq.elements())
        for _ in range(25):
            count = rng.randrange(n * M + 1)
            share = rng.choice([0.0, 0.5, 0.9, 1.0])  # share of zero digits
            digits = [zero if rng.random() < share else rng.choice(elems) for _ in range(count)]
            assert from_digits(ring, digits) == _from_digits_every_digit(ring, digits), (p, n, M)
        # the precision check still sees every digit index, zeros included
        for digits in ([zero] * (n * M + 1), [ring.fq.one] + [zero] * (n * M)):
            for build in (from_digits, _from_digits_every_digit):
                with pytest.raises(ValueError, match="exceeds precision"):
                    build(ring, digits)
    # 1 + teich(a) S^k asks for two lifts, not k + 1
    ring = make_ring(3, 2, 6)
    lifts = []
    real = morava.order.teichmuller
    monkeypatch.setattr(morava.order, "teichmuller", lambda r, d: lifts.append(d) or real(r, d))
    a = ring.fq.gen
    for k in range(1, 2 * 6):
        lifts.clear()
        x = from_digits(ring, [ring.fq.one] + [ring.fq.zero] * (k - 1) + [a])
        assert lifts == [ring.fq.one, a], k
        assert x == order_one(ring) + from_witt(ring, teichmuller(ring, a)) * s_gen(ring) ** k, k
    # a zero of another field is still refused
    with pytest.raises(ValueError, match="different field"):
        from_digits(ring, [make_ring(5, 2, 6).fq.zero])


def test_inverse():
    rng = random.Random(41)
    for (p, n) in [(3, 2), (2, 3), (5, 1)]:
        ring = make_ring(p, n, 8)
        one = order_one(ring)
        found = 0
        while found < 10:
            x = _random_order_elem(ring, rng)
            if not x.is_unit:
                continue
            found += 1
            y = x.inverse()
            assert x * y == one and y * x == one
            assert x ** -3 == (x ** 3).inverse()
    ring = make_ring(3, 2, 8)
    with pytest.raises(ValueError, match="not a unit"):
        (s_gen(ring) + from_int(ring, 3)).inverse()
    with pytest.raises(ValueError, match="not a unit"):
        s_gen(ring) ** -3


def _power_from_identity(x, e):
    """Square-and-multiply started from the identity, as powers were once taken: the oracle."""
    result = type(x)(x.ring, (1,) + (0,) * (len(x.coords) - 1))
    base = x
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


def test_power_products(monkeypatch):
    rng = random.Random(43)
    # floor(log2 e) + popcount(e) - 1 products: none is spent on the identity
    expected = {1: 0, 2: 1, 3: 2, 5: 3, 24: 5}
    for cls, make in ((OrderElem, _random_order_elem), (WittElem, _random_witt_elem)):
        for (p, n) in [(3, 2), (2, 3), (5, 1)]:
            ring = make_ring(p, n, 6)
            x = make(ring, rng)
            for e, count in expected.items():
                want = _power_from_identity(x, e)
                calls = []
                mul = cls.__mul__
                monkeypatch.setattr(cls, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
                got = x ** e
                monkeypatch.undo()
                assert got == want and len(calls) == count, (cls.__name__, p, n, e)
            assert x ** 0 == _power_from_identity(x, 0)
    # binary_power itself, on integers and on strings under concatenation
    for e in range(1, 301):
        calls = []
        got = binary_power(3, e, lambda a, b: calls.append(1) or a * b)
        assert got == 3 ** e and len(calls) == e.bit_length() + bin(e).count("1") - 2, e
        assert binary_power("ab", e, str.__add__) == "ab" * e


def _witt_inverse_by_loop(x):
    """The Newton loop WittElem.inverse once carried: the oracle."""
    ring = x.ring
    y = ring.from_coords(x.residue().inverse().coeffs)
    one = ring.one()
    for _ in range(ring.params.M.bit_length() + 2):
        err = one - x * y
        if err.is_zero:
            break
        y = y + y * err
    if x * y != one:
        raise PrecisionError("unit inversion failed to converge")
    return y


def _order_inverse_by_loop(x):
    """The Newton loop OrderElem.inverse once carried, Witt inverse of a_0 included."""
    ring = x.ring
    y = from_witt(ring, _witt_inverse_by_loop(x.parts[0]))
    one = order_one(ring)
    for _ in range((ring.n * ring.params.M).bit_length() + 2):
        err = one - x * y
        if err.is_zero:
            break
        y = y + y * err
    if x * y != one or y * x != one:
        raise PrecisionError("unit inversion failed to converge")
    return y


def _counted(monkeypatch, fn, x):
    """fn(x) with the numbers of Witt and of order products it took."""
    calls = []
    for cls in (WittElem, OrderElem):
        monkeypatch.setattr(cls, "__mul__", lambda a, b, m=cls.__mul__: calls.append(type(a)) or m(a, b))
    try:
        return fn(x), calls.count(WittElem), calls.count(OrderElem)
    finally:
        monkeypatch.undo()


def test_newton_inverse_matches_loops(monkeypatch):
    rng = random.Random(47)
    fewer = 0
    for (p, n) in [(2, 1), (3, 2), (2, 3), (5, 1), (7, 2), (2, 4), (3, 3)]:
        for M in (1, 3, 8):
            ring = make_ring(p, n, M)
            units = [order_one(ring), from_witt(ring, ring.omega)]
            while len(units) < 8:
                x = _random_order_elem(ring, rng)
                if x.is_unit:
                    units.append(x)
            for x in units:
                # started from the Witt inverse of a_0, the inverse took 2 products fewer than
                # the oracle, which checks x y = 1 again after err == 0; started from the guess
                # exact mod p it takes no Witt product and at most that many order products
                got, witt_muls, muls = _counted(monkeypatch, OrderElem.inverse, x)
                want, *oracle_muls = _counted(monkeypatch, _order_inverse_by_loop, x)
                assert got == want and witt_muls == 0 and muls <= sum(oracle_muls) - 2, (p, n, M, x)
                fewer += muls < sum(oracle_muls) - 2
                # one Newton loop, ending on err == 0
                got, muls, _ = _counted(monkeypatch, WittElem.inverse, x.parts[0])
                want, oracle_muls, _ = _counted(monkeypatch, _witt_inverse_by_loop, x.parts[0])
                assert got == want and muls == oracle_muls - 1, (p, n, M, x)
    assert fewer > 0


def test_inverse_guess_is_exact_mod_p(monkeypatch):
    """The first guess OrderElem.inverse hands to Newton solves x y = 1 in O/p."""
    guesses, newton = [], CoordElem._newton_inverse
    monkeypatch.setattr(OrderElem, "_newton_inverse", lambda x, y, k: guesses.append(y) or newton(x, y, k))
    rng = random.Random(83)
    rings = [make_ring(p, n, M) for (p, n) in sorted(DEFAULT_POLYS) for M in (1, 3, 16)]
    # a supplied polynomial: x^3 + x^2 + 1, not the default x^3 + x + 1
    rings += [make_ring(2, 3, M, poly=(1, 0, 1, 1)) for M in (1, 3, 16)]
    for ring in rings:
        p, one = ring.params.p, order_one(ring)
        units = [one, from_witt(ring, ring.omega)]
        while len(units) < 6:
            x = _random_order_elem(ring, rng)
            if x.is_unit:
                units.append(x)
        for x in units:
            x.inverse()
            y = guesses.pop()
            assert all(0 <= c < p for c in y.coords)
            err = one - x * y
            assert all(c % p == 0 for c in err.coords), (ring, x)
            # one Newton step squares the error: 1 - x (y + y err) = err^2
            assert all(c % p**2 == 0 for c in (one - x * (y + y * err)).coords), (ring, x)


def test_newton_inverse_checks_the_product():
    ring = make_ring(3, 2, 8)
    x = from_int(ring, 4)
    with pytest.raises(PrecisionError, match="failed to converge"):
        x._newton_inverse(from_int(ring, 1), 0)
    with pytest.raises(PrecisionError, match="failed to converge"):
        x.parts[0]._newton_inverse(ring.one(), 2)
    assert x._newton_inverse(from_int(ring, 1), 3) * x == order_one(ring)


def test_mixed_operands_are_refused():
    ring = make_ring(3, 2, 8)
    s, w = s_gen(ring), ring.omega
    for a, b in ((s, w), (w, s), (s, 3), (3, s), (w, 3), (3, w)):
        for op in (add, sub, mul):
            with pytest.raises(TypeError):
                op(a, b)
        assert not a == b and a != b
    with pytest.raises(ValueError, match="incompatible rings"):
        s * s_gen(make_ring(3, 2, 4))


def test_constructors_keep_coordinates_reduced():
    ring = make_ring(2, 3, 4)
    mod = ring.params.modulus
    rows = [[-1, mod, 3 * mod + 5], [-mod - 2, 0, 2 * mod], [7, -17, mod - 1]]
    elems = [
        from_coeff_rows(ring, rows),
        from_json({"p": 2, "n": 3, "M": 4, "coeffs": rows}),
        parse_element("-1 - 17*w*S + (99 - w^2)*S^2 - 35*w^5", ring),
        parse_element("-(1 + w*S)^5 - 3/5", ring),
    ]
    for x in elems:
        assert all(0 <= c < mod for c in x.coords), x.coords
    assert elems[0] == elems[1]
    assert elems[0].coords == (15, 0, 5, 14, 0, 0, 7, 15, 15)


def test_geometric_series_inverse():
    # (1 + S)^-1 = 1 - S + S^2 - ... truncated at S^(nM)
    ring = make_ring(3, 2, 6)
    s = s_gen(ring)
    x = order_one(ring) + s
    acc = from_int(ring, 0)
    term = order_one(ring)
    for k in range(2 * 6):
        acc = acc + term if k % 2 == 0 else acc - term
        term = term * s
    assert x.inverse() == acc


def test_galois_sigma():
    ring = make_ring(3, 2, 8)
    s = s_gen(ring)
    rng = random.Random(43)
    for _ in range(10):
        x = _random_order_elem(ring, rng)
        # conjugation by S is the coefficientwise Frobenius
        assert s * x == x.galois_sigma() * s
        assert x.galois_sigma(2) == x


def test_s_valuation_hash_matches_equality():
    assert SValuation(6, 4) == SValuation(3, 2) == Fraction(3, 2)
    assert hash(SValuation(6, 4)) == hash(SValuation(3, 2)) == hash(Fraction(3, 2))
    assert len({SValuation(3, 2), Fraction(3, 2)}) == 1
    assert len({SValuation(4, 2), 2}) == 1
    capped = SValuation(3, 2, at_precision_cap=True)
    assert capped != Fraction(3, 2) and len({capped, SValuation(3, 2)}) == 2


def test_json_input_errors():
    with pytest.raises(ValueError, match="'M'"):
        from_json({"p": 3, "n": 2, "coeffs": [[1, 0], [0, 0]]})
    with pytest.raises(ValueError, match="'coeffs'"):
        from_json('{"p": 3, "n": 2, "M": 8}')
    with pytest.raises(ValueError, match="need 2 coefficient rows"):
        from_json({"p": 3, "n": 2, "M": 8, "coeffs": [[1, 0]]})
    for doc in ("5", "[1, 2]", '"p n M coeffs"', "null", 7, [["p", "n", "M", "coeffs"]]):
        with pytest.raises(ValueError, match="must be an object"):
            from_json(doc)
    for coeffs in (5, [1, 0], "ab", [[1, 0], 3], {"0": [1, 0]}):
        with pytest.raises(ValueError, match="'coeffs' must be a list of lists"):
            from_json({"p": 3, "n": 2, "M": 8, "coeffs": coeffs})
    with pytest.raises(ValueError, match="nested too deeply"):
        from_json("[" * 5000 + "]" * 5000)
    with pytest.raises(ValueError, match="nested too deeply"):
        from_json('{"p": 3, "n": 2, "M": 8, "coeffs": ' + "[" * 5000 + "]" * 5000 + "}")
    # the depth is counted before parsing, so the refusal does not wait on a recursion limit
    with pytest.raises(ValueError, match="over 100 levels"):
        from_json("[" * 101 + "]" * 101)
    with pytest.raises(ValueError, match="lacks 'M'"):
        from_json('{"p": 3, "n": 2, "note": "' + "[" * 200 + '", "coeffs": [[1, 0], [0, 0]]}')


def test_json_round_trip():
    ring = make_ring(3, 2, 8)
    rng = random.Random(47)
    x = _random_order_elem(ring, rng)
    d = x.to_json()
    assert d["p"] == 3 and d["n"] == 2 and d["M"] == 8
    assert from_json(d) == x
    assert from_json('{"p": 3, "n": 2, "M": 8, "coeffs": [[1, 0], [0, 1]]}') == order_one(
        ring
    ) + from_witt(ring, ring.omega) * s_gen(ring)


def test_repr():
    ring = make_ring(3, 2, 8)
    s = s_gen(ring)
    w = from_witt(ring, ring.omega)
    assert repr(order_one(ring) + w * s) == "1 + w*S"
    assert repr(from_int(ring, 0)) == "0"
    assert repr(s * s) == "3"


def test_n_equals_one_order_is_zp():
    ring = make_ring(5, 1, 6)
    s = s_gen(ring)
    assert s == from_int(ring, 5)
    assert s.s_valuation() == SValuation(1, 1)
    x = from_int(ring, 7)
    assert (x * x.inverse()) == order_one(ring)
