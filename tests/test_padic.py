import random

import pytest

from morava import padic
from morava.homalg import _kernel_indices
from morava.padic import (
    INF,
    PRIME_BOUND,
    CyclicDecomp,
    PadicInt,
    PadicParams,
    _is_prime,
    _prime_factors,
    check_prime,
    invert_matrix,
    mat_mul,
    nth_root_one_unit,
    nu_p,
    smith_normal_form,
    unit_inverse,
)


def test_nu_p_frozen_values():
    assert nu_p(6560, 2) == 5  # 6560 = 2^5 * 205
    assert nu_p(15, 3) == 1
    assert nu_p(1, 5) == 0
    assert nu_p(-24, 2) == 3


def test_nu_p_zero_rejected():
    with pytest.raises(ValueError):
        nu_p(0, 3)


def test_nu_p_matches_direct_division():
    rng = random.Random(7)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        v = rng.randrange(0, 9)
        u = rng.randrange(1, 10 ** 6)
        while u % p == 0:
            u += 1
        assert nu_p(u * p ** v, p) == v


def test_unit_inverse_frozen_values():
    assert unit_inverse(PadicInt(PadicParams(3, 2), 2)).value == 5
    assert unit_inverse(PadicInt(PadicParams(2, 3), 3)).value == 3
    assert unit_inverse(PadicInt(PadicParams(5, 1), 4)).value == 4


def test_unit_inverse_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        params = PadicParams(rng.choice([2, 3, 5, 7]), rng.randrange(1, 20))
        x = PadicInt(params, rng.randrange(1, params.modulus))
        if not x.is_unit:
            with pytest.raises(ValueError):
                unit_inverse(x)
            continue
        assert (x * unit_inverse(x)).value == 1


def test_nth_root_exhaustive_oracle_p3():
    # all square roots of 4 mod 9: {2, 7}; the one = 1 mod 3 is 7
    roots = [y for y in range(9) if y * y % 9 == 4 and y % 3 == 1]
    assert roots == [7]
    got = nth_root_one_unit(PadicInt(PadicParams(3, 2), 4), 2)
    assert got.value == 7


def test_nth_root_exhaustive_oracle_p2():
    roots = [y for y in range(16) if pow(y, 3, 16) == 9]
    assert roots == [9]
    got = nth_root_one_unit(PadicInt(PadicParams(2, 4), 9), 3)
    assert got.value == 9


def test_nth_root_properties():
    rng = random.Random(13)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        M = rng.randrange(1, 12)
        params = PadicParams(p, M)
        n = rng.randrange(1, 50)
        while n % p == 0:
            n += 1
        if p == 2:
            x = PadicInt(params, rng.randrange(0, params.modulus) * 2 + 1)
        else:
            x = PadicInt(params, 1 + p * rng.randrange(0, params.modulus // p + 1))
        y = nth_root_one_unit(x, n)
        assert (y ** n).value == x.value
        if p != 2:
            assert y.value % p == 1


def test_nth_root_rejects_degree_divisible_by_p():
    with pytest.raises(ValueError):
        nth_root_one_unit(PadicInt(PadicParams(3, 4), 1), 6)
    with pytest.raises(ValueError):
        nth_root_one_unit(PadicInt(PadicParams(3, 4), 2), 2)  # x != 1 mod 3


def _check_snf(matrix, params):
    sf = smith_normal_form(matrix, params)
    mod = params.modulus
    r, c = sf.shape
    D = mat_mul(mat_mul([list(row) for row in sf.U], matrix, mod), [list(row) for row in sf.V], mod)
    for i in range(r):
        for j in range(c):
            expect = sf.diag[i] if i == j and i < len(sf.diag) else 0
            assert D[i][j] % mod == expect % mod
    # U, V invertible mod p^M
    invert_matrix([list(row) for row in sf.U], params)
    invert_matrix([list(row) for row in sf.V], params)
    # divisibility chain
    vals = [params.M if d == 0 else nu_p(d, params.p) for d in sf.diag]
    assert vals == sorted(vals)
    return sf


def test_snf_frozen_examples():
    params = PadicParams(3, 5)
    sf = _check_snf([[3]], params)
    assert sf.diag == (3,)
    assert sf.cokernel_orders() == [3]
    assert _kernel_indices(sf) == []

    sf = _check_snf([[0]], params)
    assert sf.diag == (0,)
    assert sf.cokernel_orders() == [INF]
    assert len(_kernel_indices(sf)) == 1

    params2 = PadicParams(2, 5)
    sf = _check_snf([[2, 0], [0, 8]], params2)
    assert sf.diag == (2, 8)
    assert sorted(sf.cokernel_orders()) == [2, 8]


def test_snf_cokernel_against_enumeration():
    # brute-force image size in (Z/2^3)^2 for small matrices
    params = PadicParams(2, 3)
    mod = params.modulus
    rng = random.Random(17)
    for _ in range(40):
        A = [[rng.randrange(mod) for _ in range(2)] for _ in range(2)]
        image = {
            tuple((A[i][0] * x + A[i][1] * y) % mod for i in range(2))
            for x in range(mod)
            for y in range(mod)
        }
        coker_size = mod ** 2 // len(image)
        sf = _check_snf(A, params)
        size = 1
        for o in sf.cokernel_orders():
            size *= mod if o == INF else o
        assert size == coker_size


def test_snf_random_shapes():
    rng = random.Random(19)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        params = PadicParams(p, rng.randrange(1, 8))
        r = rng.randrange(1, 5)
        c = rng.randrange(1, 5)
        A = [[rng.randrange(params.modulus) for _ in range(c)] for _ in range(r)]
        _check_snf(A, params)


def test_cyclic_decomp_normalization():
    d = CyclicDecomp(3, (3, INF, 9, 1), precision_caveat=True)
    assert d.orders == (INF, 9, 3)
    assert d.orders.count(INF) == 1
    assert d.precision_caveat
    assert str(d).startswith("Z_3 + Z/9 + Z/3")
    assert CyclicDecomp(3, ()).is_zero
    assert str(CyclicDecomp(3, ())) == "0"
    # caveat only meaningful with a free part
    assert not CyclicDecomp(2, (4, 2), precision_caveat=True).precision_caveat
    with pytest.raises(ValueError):
        CyclicDecomp(3, (6,))


def test_cyclic_decomp_json():
    d = CyclicDecomp(2, (INF, 8), precision_caveat=True)
    assert d.to_json() == {"p": 2, "orders": ["INF", 8], "precision_caveat": True}


def _is_prime_by_loop(p):
    """Trial division stopping at the first divisor, as primality was once tested: the oracle."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_loop():
    for p in range(-5, 5001):
        assert _is_prime(p) == _is_prime_by_loop(p), p


def test_check_prime_bounds_before_factoring(monkeypatch):
    for p in (2, 3, 65537, 2**31 - 1, 2**32 - 5):
        check_prime(p)
    for p in (-7, 0, 1, 4, 2**32 - 1):
        with pytest.raises(ValueError, match=f"p must be prime, got {p}$"):
            check_prime(p)
    # 2^61 - 1 is prime, but trial division would take about 1.5e9 steps
    monkeypatch.setattr(padic, "_is_prime", lambda p: pytest.fail(f"factored {p}"))
    for p in (PRIME_BOUND, PRIME_BOUND + 15, 2**61 - 1, 2**127 - 1):
        with pytest.raises(ValueError, match="2\\^32 bound"):
            check_prime(p)
        with pytest.raises(ValueError, match="2\\^32 bound"):
            PadicParams(p, 2)
    assert PRIME_BOUND == 2**32


def test_prime_factors():
    assert _prime_factors(1) == set() and _prime_factors(0) == set() and _prime_factors(-7) == set()
    assert _prime_factors(80) == {2, 5} and _prime_factors(3**8 - 1) == {2, 5, 41}
    rng = random.Random(11)
    for m in [rng.randrange(2, 10**6) for _ in range(200)] + [2**31 - 1, 2**7 * 3**5]:
        factors = _prime_factors(m)
        assert all(_is_prime_by_loop(ell) and m % ell == 0 for ell in factors), m
        rest = m
        for ell in factors:
            while rest % ell == 0:
                rest //= ell
        assert rest == 1, m
