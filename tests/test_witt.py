"""Witt ring construction, Teichmuller lifts, Frobenius, traces, digits."""

import itertools
import random

import pytest

from morava import witt
from morava.padic import PadicParams, _prime_factors, binary_power, invert_matrix, mat_vec
from morava.witt import (
    DEFAULT_POLYS,
    PrecisionError,
    _power_table,
    _product,
    fq_field,
    make_ring,
    teichmuller,
)


def _vec_mul(a, b, pows, n, mod):
    """The schoolbook product on a power basis, as ring construction once took it: the oracle."""
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    out = list(prod[:n])
    for d in range(n, 2 * n - 1):
        c = prod[d] % mod
        if c:
            red = pows[d]
            for i in range(n):
                out[i] += c * red[i]
    return tuple(v % mod for v in out)


def _schoolbook_table(top, n, mod):
    """y^0 .. y^max(n, 2n-2) given y^n = top, each power y times the last through _vec_mul."""
    pows = [tuple(int(i == d) for i in range(n)) for d in range(n)] + [tuple(c % mod for c in top)]
    while len(pows) < 2 * n - 1:
        pows.append(_vec_mul(pows[1], pows[-1], pows, n, mod))
    return pows


def _pol_mul_mod(a, b, f, p):
    """Schoolbook product mod (f, p), as polynomial validation once took it: the oracle."""
    n = len(f) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(len(prod) - 1, n - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for i in range(n):
                prod[d - n + i] = (prod[d - n + i] - c * f[i]) % p
    out = prod[:n]
    out.extend([0] * (n - len(out)))
    return out


def _x_vector(n, f, p):
    if n == 1:
        return [(-f[0]) % p]
    return [0, 1] + [0] * (n - 2)


def validate_poly_mod_p(p, n, poly):
    """Irreducibility by x^(p^n) = x and no smaller field, then primitivity by
    x^((q-1)/ell) != 1 for every prime ell | q - 1: the check that the F_q
    table build replaced, kept as the oracle.  Returns the reduced tuple.
    """
    f = tuple(int(c) % p for c in poly)
    if len(f) != n + 1 or f[n] != 1:
        raise ValueError(f"need a monic degree-{n} polynomial, got {poly}")
    x = _x_vector(n, f, p)
    x_pow = lambda e: binary_power(x, e, lambda a, b: _pol_mul_mod(a, b, f, p))
    if n > 1:
        if x_pow(p ** n) != x:
            raise ValueError(f"{poly} is reducible mod {p}")
        for ell in _prime_factors(n):
            if x_pow(p ** (n // ell)) == x:
                raise ValueError(f"{poly} is reducible mod {p}")
    one = [1] + [0] * (n - 1)
    q1 = p ** n - 1
    if q1 > 0:
        if x_pow(q1) != one:
            raise ValueError(f"{poly} is not primitive mod {p}")
        for ell in _prime_factors(q1):
            if x_pow(q1 // ell) == one:
                raise ValueError(f"{poly} is not primitive mod {p}")
    return f


def test_default_table_constructs():
    # every table entry passes the constructor's exactness checks at M=6
    for (p, n) in sorted(DEFAULT_POLYS):
        ring = make_ring(p, n, 6)
        assert ring.defining_poly[n] == 1
        assert tuple(c % p for c in ring.defining_poly) == DEFAULT_POLYS[(p, n)]


def test_poly_validation():
    # x^2 - 1 = (x-1)(x+1) mod 3
    with pytest.raises(ValueError, match="not irreducible and primitive mod 3"):
        fq_field(3, 2, (2, 0, 1))
    # x^2 + 1 is irreducible mod 3 but x has order 4, not 8
    with pytest.raises(ValueError, match="not irreducible and primitive mod 3"):
        fq_field(3, 2, (1, 0, 1))
    with pytest.raises(ValueError, match="not irreducible and primitive mod 3"):
        make_ring(3, 2, 4, poly=(4, 3, 1))  # a lift of x^2 + 1
    with pytest.raises(ValueError, match="monic"):
        fq_field(3, 1, (1, 2))
    with pytest.raises(ValueError, match="no default polynomial"):
        make_ring(11, 9, 4)
    # a user-supplied polynomial works when valid: x^2 + x + 2 mod 5
    ring = make_ring(5, 2, 4, poly=(2, 1, 1))
    assert ring.omega ** 24 == ring.one()


def test_field_boundary_edge_inputs():
    for p, n, poly in [(0, 1, (1, 1)), (4, 2, (1, 1, 1)), (1, 1, (1, 1)), (-3, 1, (1, 1))]:
        with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
            fq_field(p, n, poly)
    with pytest.raises(ValueError, match="2\\^32 bound"):
        fq_field(2**61 - 1, 1, (1, 1))
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        fq_field(2, 0, (1,))
    with pytest.raises(ValueError, match="n must be >= 1, got -1"):
        make_ring(3, -1, 4)
    # the leading coefficient must be exactly 1, not 1 mod p or mod p^M
    with pytest.raises(ValueError, match="monic"):
        fq_field(3, 2, (5, 2, 4))
    with pytest.raises(ValueError, match="monic"):
        make_ring(3, 2, 2, (2, 2, 10))
    with pytest.raises(ValueError, match="monic"):
        make_ring(3, 2, 2, (2, 2))
    # a lift and its reduction share one field, checked once
    assert make_ring(3, 2, 8, poly=(5, 2, 1)).fq is fq_field(3, 2)
    assert fq_field(3, 2, (-1, -7, 1)) is fq_field(3, 2) is make_ring(3, 2, 8).fq


def test_table_build_accepts_exactly_the_primitive_polynomials():
    cases = accepted = 0
    for (p, n) in sorted(DEFAULT_POLYS):
        q = p ** n
        if q > 625:
            continue
        for low in itertools.product(range(p), repeat=n):
            poly = low + (1,)
            try:
                validate_poly_mod_p(p, n, poly)
                want = True
            except ValueError:
                want = False
            try:
                field = fq_field(p, n, poly)
                got = True
            except ValueError as exc:
                assert "not irreducible and primitive" in str(exc), (p, n, poly)
                got = False
            assert got == want, (p, n, poly)
            if got:
                assert sorted(field.exp) == list(range(1, q)) and field.exp[1 % (q - 1)] == field.gen_idx
                accepted += 1
            cases += 1
    assert cases == 2052 and accepted == 209  # the sum of phi(q - 1)/n over the fields


def test_frozen_ring_3_2():
    ring = make_ring(3, 2, 8)
    assert ring.defining_poly == (6560, 3866, 1)
    # sigma(w) = w^3 = 2695 - w
    assert ring.frobenius_matrix == ((1, 2695), (0, 6560))
    w = ring.omega
    assert w ** 8 == ring.one()
    assert w.frobenius() == w ** 3
    assert w.trace().value == 2695


def test_frozen_ring_2_2():
    # w is a cube root of unity, so its minimal polynomial is exactly y^2+y+1
    ring = make_ring(2, 2, 8)
    assert ring.defining_poly == (1, 1, 1)
    w = ring.omega
    assert (w * w + w + ring.one()).is_zero
    assert w.frobenius() == w * w
    assert w.trace().value == 255


def test_omega_is_minus_one_at_n_1():
    ring = make_ring(3, 1, 8)
    assert ring.omega == ring.from_int(-1)
    ring5 = make_ring(5, 1, 6)
    w = ring5.omega
    assert w ** 4 == ring5.one()
    assert w ** 2 != ring5.one()


def test_teichmuller_fixed_points():
    ring = make_ring(3, 2, 8)
    for x in ring.fq.elements():
        t = teichmuller(ring, x)
        assert t ** 9 == t
        assert t.residue() == x
    assert teichmuller(ring, ring.fq.zero).is_zero
    assert teichmuller(ring, ring.fq.one) == ring.one()


def _teichmuller_by_iteration(ring, x):
    """The z -> z^q fixed-point iteration that the discrete-log lift replaced; the oracle."""
    z = ring.from_coords(x.coeffs)
    for _ in range(ring.params.M + 2):
        nxt = z ** ring.q
        if nxt == z:
            return z
        z = nxt
    raise PrecisionError("Teichmuller iteration did not stabilize")


def test_teichmuller_matches_iteration():
    rng = random.Random(7)
    cases = 0
    for (p, n) in sorted(DEFAULT_POLYS):
        for M in (1, 3, 8):
            ring = make_ring(p, n, M)
            residues = list(ring.fq.elements())
            if ring.q > 729:  # (7, 4): a seeded sample keeps the oracle fast
                residues = [ring.fq.zero, ring.fq.one] + rng.sample(residues, 300)
            for x in residues:
                lift = teichmuller(ring, x)
                assert lift == _teichmuller_by_iteration(ring, x), (p, n, M, x)
                assert teichmuller(ring, x) is lift
                cases += 1
    assert cases == 6156 + 3 * 302


def test_omega_exact_order():
    for (p, n) in [(2, 3), (3, 2), (5, 2)]:
        ring = make_ring(p, n, 8)
        q1 = p ** n - 1
        w = ring.omega
        assert w ** q1 == ring.one()
        for k in range(1, q1):
            if q1 % k == 0:
                assert w ** k != ring.one()


def test_frobenius_is_ring_map():
    rng = random.Random(7)
    for (p, n) in [(2, 3), (3, 2), (5, 2)]:
        ring = make_ring(p, n, 8)
        mod = ring.params.modulus
        for _ in range(25):
            x = ring.from_coords([rng.randrange(mod) for _ in range(n)])
            y = ring.from_coords([rng.randrange(mod) for _ in range(n)])
            assert (x * y).frobenius() == x.frobenius() * y.frobenius()
            assert (x + y).frobenius() == x.frobenius() + y.frobenius()
            z = x
            for _ in range(n):
                z = z.frobenius()
            assert z == x
            # reduces to the p-power map on residues
            assert x.frobenius().residue() == x.residue().frobenius()


def test_frobenius_on_teichmuller():
    ring = make_ring(5, 2, 6)
    for x in ring.fq.elements():
        assert teichmuller(ring, x).frobenius() == teichmuller(ring, x.frobenius())


def test_trace():
    rng = random.Random(11)
    ring = make_ring(3, 3, 8)
    mod = ring.params.modulus
    for _ in range(20):
        x = ring.from_coords([rng.randrange(mod) for _ in range(3)])
        y = ring.from_coords([rng.randrange(mod) for _ in range(3)])
        assert (x + y).trace().value == (x.trace().value + y.trace().value) % mod
        assert x.frobenius().trace().value == x.trace().value
        assert x.trace().value % 3 == x.residue().trace()


def test_teich_digits_frozen():
    ring = make_ring(3, 1, 8)
    digits = ring.from_int(2).teich_digits(5)
    assert [d.coeffs[0] for d in digits] == [2, 1, 0, 0, 0]


def test_teich_digits_round_trip():
    rng = random.Random(13)
    for (p, n) in [(3, 2), (2, 3)]:
        ring = make_ring(p, n, 8)
        mod = ring.params.modulus
        for _ in range(10):
            x = ring.from_coords([rng.randrange(mod) for _ in range(n)])
            digits = x.teich_digits(8)
            acc = ring.zero()
            for j, d in enumerate(reversed(digits)):
                acc = acc.scale(p) + teichmuller(ring, d)
            assert acc == x
    with pytest.raises(ValueError, match="exceeds precision"):
        make_ring(3, 2, 8).one().teich_digits(9)


def test_ring_axioms():
    rng = random.Random(17)
    for (p, n) in [(2, 2), (3, 2), (5, 1)]:
        ring = make_ring(p, n, 8)
        mod = ring.params.modulus
        for _ in range(15):
            x, y, z = (
                ring.from_coords([rng.randrange(mod) for _ in range(n)]) for _ in range(3)
            )
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x * y == y * x
            assert x * ring.one() == x


def test_inverse():
    rng = random.Random(19)
    ring = make_ring(3, 2, 10)
    mod = ring.params.modulus
    found = 0
    while found < 15:
        x = ring.from_coords([rng.randrange(mod) for _ in range(2)])
        if not x.is_unit:
            continue
        found += 1
        y = x.inverse()
        assert x * y == ring.one()
        assert y * x == ring.one()
        assert x ** -3 == (x ** 3).inverse()
    with pytest.raises(ValueError, match="not a unit"):
        ring.from_int(3).inverse()
    with pytest.raises(ValueError, match="not a unit"):
        ring.from_int(3) ** -3


def test_work_bounds_refuse_before_building(monkeypatch):
    monkeypatch.setattr(witt, "_fq_field_cached", lambda *a: pytest.fail("built a field"))
    monkeypatch.setattr(witt, "_make_ring_cached", lambda *a: pytest.fail("built a ring"))
    # 2^40 by the degree alone, and 3^11 = 177147 > 2^17 > 3^10 by the size
    for p, n in ((2, 40), (3, 11)):
        poly = (1,) * (n + 1)
        with pytest.raises(ValueError, match=f"F_{p}\\^{n} is above the bound of 131072 field elements"):
            fq_field(p, n, poly)
        with pytest.raises(ValueError, match="131072 field elements"):
            make_ring(p, n, 4, poly)
    for M in (witt._PRECISION_LIMIT + 1, 200000):
        with pytest.raises(ValueError, match=f"precision M = {M} is above the bound of 1024 Witt digits"):
            make_ring(3, 2, M)
    monkeypatch.undo()
    # the edges build: M = 1024 here, and q = 2^17 in test_grlie.test_brute_force_guard
    assert make_ring(2, 1, witt._PRECISION_LIMIT).params.M == 1024


def test_fq_arithmetic_against_oracle():
    # F_4 on x^2 + x + 1: wb^2 = wb + 1, trace(x) = x + x^2
    fq = fq_field(2, 2)
    wb = fq.gen
    assert wb * wb == wb + fq.one
    assert (wb ** 3) == fq.one
    traces = {x.idx: x.trace() for x in fq.elements()}
    for x in fq.elements():
        expected = x + x.frobenius()
        assert traces[x.idx] == expected.coeffs[0]
    assert fq.zero.trace() == 0 and fq.one.trace() == 0
    assert wb.trace() == 1


def test_fq_edge_cases():
    fq = fq_field(3, 2)
    assert (fq.zero ** 0) == fq.one
    assert (fq.zero ** 5).is_zero
    with pytest.raises(ZeroDivisionError):
        fq.zero.inverse()
    x = fq.element([2, 1])
    assert x * x.inverse() == fq.one
    assert x ** -2 == (x.inverse()) ** 2
    # field with q = 2: the unit group is trivial
    f2 = fq_field(2, 1)
    assert f2.one * f2.one == f2.one
    # residue indices name the q elements 0..q-1 and nothing else
    for field in (fq, f2, fq_field(5, 3)):
        assert [field.from_idx(i).idx for i in range(field.q)] == list(range(field.q))
        for idx in (field.q, field.q + 1, 99 * field.q, -1, -field.q):
            with pytest.raises(ValueError, match=rf"^residue index {idx} outside \[0, {field.q}\)$"):
                field.from_idx(idx)


def test_ring_identity_cached():
    assert make_ring(3, 2, 8) is make_ring(3, 2, 8)
    assert make_ring(3, 2, 8) is not make_ring(3, 2, 10)
    # a lift of the default polynomial gives the same ring, so one object
    lifted = make_ring(3, 2, 8, poly=(5, 2, 1))
    assert lifted is make_ring(3, 2, 8) is make_ring(3, 2, 8, poly=(-1, -7, 1))
    assert lifted.one() + make_ring(3, 2, 8).one() == lifted.one() + lifted.one()
    with pytest.raises(ValueError, match="incompatible"):
        make_ring(3, 2, 8).one() + make_ring(3, 2, 10).one()


def _pol_pow_from_identity(a, e, f, p):
    """Powers mod (f, p) from the identity, as polynomial validation once took them: the oracle."""
    n = len(f) - 1
    result = [1] + [0] * (n - 1)
    base = list(a)
    while e:
        if e & 1:
            result = _pol_mul_mod(result, base, f, p)
        e >>= 1
        base = _pol_mul_mod(base, base, f, p)
    return result


def _vec_pow_from_identity(a, e, pows, n, mod):
    """Powers on the power basis from the identity, as ring construction once took them."""
    result = tuple(1 if i == 0 else 0 for i in range(n))
    base = a
    while e:
        if e & 1:
            result = _vec_mul(result, base, pows, n, mod)
        e >>= 1
        base = _vec_mul(base, base, pows, n, mod)
    return result


def _exponents(p, n, rng):
    """Every exponent polynomial validation and ring construction use, and a few random ones."""
    q = p ** n
    exps = {1, 2, 3, p, q, q - 1, *(p ** (n // ell) for ell in _prime_factors(n))}
    exps |= {(q - 1) // ell for ell in _prime_factors(q - 1)}
    return sorted(exps | {rng.randrange(1, 4 * q) for _ in range(4)})


def test_polynomial_powers_match_loop():
    rng = random.Random(61)
    for (p, n), poly in sorted(DEFAULT_POLYS.items()):
        f = validate_poly_mod_p(p, n, poly)
        mul = lambda a, b: _pol_mul_mod(a, b, f, p)
        for a in [_x_vector(n, f, p), *([rng.randrange(p) for _ in range(n)] for _ in range(3))]:
            for e in _exponents(p, n, rng):
                assert binary_power(a, e, mul) == _pol_pow_from_identity(a, e, f, p), (p, n, a, e)


def test_power_basis_powers_match_loop():
    rng = random.Random(62)
    for (p, n) in sorted(DEFAULT_POLYS):
        ring = make_ring(p, n, 3)
        mod, pows, mul = ring.params.modulus, ring._omega_pows, ring._mul
        for a in [pows[1], *(tuple(rng.randrange(mod) for _ in range(n)) for _ in range(3))]:
            for e in _exponents(p, n, rng):
                want = _vec_pow_from_identity(a, e, pows, n, mod)
                assert binary_power(a, e, mul) == want, (p, n, a, e)


def test_packed_product_matches_schoolbook():
    """Every default ring at M = 1, 8, 16, on its w-power and x-power tables; the zero
    vector and all coordinates p^M - 1, the widest slots, among the factors."""
    rng = random.Random(63)
    for (p, n), poly in sorted(DEFAULT_POLYS.items()):
        for M in (1, 8, 16):
            ring = make_ring(p, n, M)
            mod = ring.params.modulus
            vecs = [(0,) * n, (mod - 1,) * n]
            vecs += [tuple(rng.randrange(mod) for _ in range(n)) for _ in range(5)]
            x_top = tuple(-c for c in poly[:n])
            assert _power_table(x_top, n, mod) == _schoolbook_table(x_top, n, mod)
            assert ring._omega_pows == _schoolbook_table(ring._omega_pows[n], n, mod)
            for pows, mul in [
                (ring._omega_pows, ring._mul),
                (_schoolbook_table(x_top, n, mod), _product(_power_table(x_top, n, mod), n, mod)),
            ]:
                for a in vecs:
                    for b in vecs:
                        assert mul(a, b) == _vec_mul(a, b, pows, n, mod), (p, n, M, a, b)
            for a in vecs:
                x = ring.from_coords(a)
                assert (x * x).coords == _vec_mul(a, a, ring._omega_pows, n, mod), (p, n, M, a)


def test_fq_tables_match_schoolbook_walk():
    for (p, n), poly in sorted(DEFAULT_POLYS.items()):
        field = fq_field(p, n)
        pows = _schoolbook_table(tuple(-c for c in poly[:n]), n, p)
        x = pows[1]
        encode = lambda v: sum(c * p**i for i, c in enumerate(v))
        exp, cur = [], pows[0]
        for _ in range(field.q - 1):
            exp.append(encode(cur))
            cur = _vec_mul(x, cur, pows, n, p)
        assert cur == pows[0], (p, n)
        log = [None] * field.q
        for k, idx in enumerate(exp):
            log[idx] = k
        assert (field.exp, field.log, field.gen_idx) == (exp, log, encode(x)), (p, n)


def _times_x(v, top, mod):
    """y v on the power basis, given y^n = top: the companion shift witt once walked F_q by."""
    carry = v[-1]
    return tuple((s + carry * t) % mod for s, t in zip((0,) + v[:-1], top))


def _fq_tables_by_times_x(p, n, poly):
    """(exp, log, gen_idx) by the walk Fq.__init__ once took: each power of x a coefficient
    tuple, shifted by _times_x and encoded; it refuses what that walk refused.  The oracle."""
    q = p ** n
    top = tuple(-c for c in poly[:n])
    one = (1,) + (0,) * (n - 1)
    encode = lambda v: sum(c * p**i for i, c in enumerate(v))
    exp, log, cur = [0] * (q - 1), [None] * q, one
    for k in range(q - 1):
        idx = encode(cur)
        if idx == 0 or log[idx] is not None:
            cur = None  # zero or a repeat before q - 1 steps
            break
        exp[k], log[idx] = idx, k
        cur = _times_x(cur, top, p)
    if cur != one:
        raise ValueError(f"{poly} is not irreducible and primitive mod {p}")
    return exp, log, exp[1 % (q - 1)]


def _outcome(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


def test_index_walk_refuses_what_the_tuple_walk_refuses():
    # every monic polynomial of degree <= 5 over F_2, <= 3 over F_3 and F_5, <= 2 over F_7
    cases, accepted = 0, 0
    for p, top_degree in ((2, 5), (3, 3), (5, 3), (7, 2)):
        for n in range(1, top_degree + 1):
            for low in itertools.product(range(p), repeat=n):
                poly = low + (1,)
                want = _outcome(lambda: _fq_tables_by_times_x(p, n, poly))
                got = _outcome(lambda: witt.Fq(p, n, poly))
                if isinstance(got, witt.Fq):
                    got = (got.exp, got.log, got.gen_idx)
                    accepted += 1
                assert got == want, (p, n, poly)
                cases += 1
    assert (cases, accepted) == (62 + 39 + 155 + 56, 12 + 7 + 26 + 10)  # accepted: phi(q - 1)/n summed


def _ring_by_iteration(p, n, M, poly, invert=invert_matrix):
    """The ring make_ring built before the Newton lift: z -> z^q from z = x until it
    stabilizes, then w^n = B^-1 z^n with B^-1 from `invert`.  poly is reduced mod p.
    The Frobenius tables are read as make_ring reads them.  The oracle."""
    params = PadicParams(p, M)
    mod = params.modulus
    fq = fq_field(p, n, poly)
    f_pows = _power_table(tuple(-c for c in poly[:n]), n, mod)
    f_mul = _product(f_pows, n, mod)
    z = f_pows[1]
    for _ in range(M + 2):
        nxt = binary_power(z, fq.q, f_mul)
        if nxt == z:
            break
        z = nxt
    else:
        raise PrecisionError("Teichmuller iteration did not stabilize")
    cols = [f_pows[0]]
    for _ in range(n):
        cols.append(f_mul(cols[-1], z))
    omega_n = cols.pop()
    c = mat_vec(invert([list(row) for row in zip(*cols)], params), list(omega_n), mod)
    omega_pows = _power_table(tuple(c), n, mod)
    w_mul = _product(omega_pows, n, mod)
    wp = binary_power(omega_pows[1], p, w_mul)
    cols = [omega_pows[0]]
    for _ in range(n - 1):
        cols.append(w_mul(cols[-1], wp))
    defining_poly = tuple([(-cj) % mod for cj in c] + [1])
    return witt.WittRing(params, n, defining_poly, omega_pows, tuple(zip(*cols)), fq)


def _ring_tables(ring):
    return ring.defining_poly, ring._omega_pows, ring.frobenius_matrix, ring._sigma_pows, ring.fq


def test_newton_lift_builds_the_iterated_rings():
    for (p, n), poly in sorted(DEFAULT_POLYS.items()):
        field = fq_field(p, n)
        assert (field.exp, field.log, field.gen_idx) == _fq_tables_by_times_x(p, n, poly), (p, n)
        for M in (1, 2, 3, 8, 16, 33):
            old = _ring_by_iteration(p, n, M, poly)
            assert _ring_tables(make_ring(p, n, M)) == _ring_tables(old), (p, n, M)
    # a supplied polynomial, and the precision bound on the widest default field with p = 2
    big = (1, 0, 0, 1, 0, 1)  # x^5 + x^3 + 1
    assert _ring_tables(make_ring(2, 5, 20, big)) == _ring_tables(_ring_by_iteration(2, 5, 20, big))
    old = _ring_by_iteration(2, 8, witt._PRECISION_LIMIT, DEFAULT_POLYS[(2, 8)])
    assert _ring_tables(make_ring(2, 8, witt._PRECISION_LIMIT)) == _ring_tables(old)


def test_teichmuller_lift_takes_logarithmically_many_powers(monkeypatch):
    # the z -> z^q iteration took a power per Witt digit; Newton doubles the digits per step
    calls = []
    monkeypatch.setattr(witt, "binary_power", lambda *a: calls.append(a) or binary_power(*a))
    for M in (16, 64, 256, 1024):
        calls.clear()
        ring = witt._make_ring_cached.__wrapped__(7, 4, M, DEFAULT_POLYS[(7, 4)])
        assert len(calls) <= M.bit_length() + 3, (M, len(calls))
        assert ring.omega ** 2400 == ring.one()


def _neg_idx_by_coeffs(field, i):
    """-x by negating each F_p coefficient, as Fq.neg_idx once did: the oracle."""
    return field._encode([(-c) % field.p for c in field._decode(i)])


def _add_idx_by_coeffs(field, i, j):
    """x + y by adding the F_p coefficients, as Fq.add_idx once did: the oracle."""
    return field._encode([(a + b) % field.p for a, b in zip(field._decode(i), field._decode(j))])


def test_add_idx_matches_coefficient_sum():
    # every pair of every default field with q <= 256, and seeded pairs on the larger ones
    rng = random.Random(64)
    for (p, n) in sorted(DEFAULT_POLYS):
        field = fq_field(p, n)
        if field.q <= 256:
            pairs = itertools.product(range(field.q), repeat=2)
        else:
            pairs = [(rng.randrange(field.q), rng.randrange(field.q)) for _ in range(3000)]
            pairs += [(0, field.q - 1), (field.q - 1, field.q - 1), (field.q - 1, 0)]
        for i, j in pairs:
            assert field.add_idx(i, j) == _add_idx_by_coeffs(field, i, j), (p, n, i, j)


def test_neg_idx_matches_coefficient_negation():
    # -1 = x^((q-1)/2) at odd p: one log-table step; at p = 2, -x = x
    fields = 0
    for (p, n) in sorted(DEFAULT_POLYS):
        field = fq_field(p, n)
        got = [field.neg_idx(i) for i in range(field.q)]
        assert got == [_neg_idx_by_coeffs(field, i) for i in range(field.q)], (p, n)
        assert all(field.add_idx(i, j) == 0 for i, j in enumerate(got)), (p, n)
        fields += p > 2
    assert fields == 13
