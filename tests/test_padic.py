import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morava import padic
from morava.homalg import _kernel_indices
from morava.padic import (
    INF,
    PRIME_BOUND,
    CyclicDecomp,
    Echelon,
    PadicInt,
    PadicParams,
    _is_prime,
    _prime_factors,
    check_prime,
    cyclic_decomp,
    identity_matrix,
    invert_matrix,
    mat_mul,
    nth_root_one_unit,
    nu_p,
    smith_normal_form,
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
        assert pow(y.value, n, params.modulus) == x.value
        if p != 2:
            assert y.value % p == 1


def test_nth_root_rejects_degree_divisible_by_p():
    with pytest.raises(ValueError):
        nth_root_one_unit(PadicInt(PadicParams(3, 4), 1), 6)
    with pytest.raises(ValueError):
        nth_root_one_unit(PadicInt(PadicParams(3, 4), 2), 2)  # x != 1 mod 3


def _invert_by_gauss_jordan(A, params):
    """The Gauss-Jordan elimination invert_matrix replaced by the Smith form; the oracle."""
    p, mod = params.p, params.modulus
    k = len(A)
    work = [list(row) + irow for row, irow in zip(A, identity_matrix(k))]
    for col in range(k):
        piv = next((i for i in range(col, k) if work[i][col] % p != 0), None)
        if piv is None:
            raise ValueError("matrix not invertible mod p")
        work[col], work[piv] = work[piv], work[col]
        inv = pow(work[col][col], -1, mod)
        work[col] = [v * inv % mod for v in work[col]]
        for i in range(k):
            if i != col and work[i][col]:
                f = work[i][col]
                work[i] = [(v - f * w) % mod for v, w in zip(work[i], work[col])]
    return [row[k:] for row in work]


def _check_snf(matrix, params):
    sf = smith_normal_form(matrix, params)
    mod = params.modulus
    r, c = sf.shape
    D = mat_mul(mat_mul([list(row) for row in sf.U], matrix, mod), [list(row) for row in sf.V], mod)
    for i in range(r):
        for j in range(c):
            expect = sf.diag[i] if i == j and i < len(sf.diag) else 0
            assert D[i][j] % mod == expect % mod
    # U, V invertible mod p^M, by the elimination invert_matrix does not use
    _invert_by_gauss_jordan([list(row) for row in sf.U], params)
    _invert_by_gauss_jordan([list(row) for row in sf.V], params)
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


def _smith_with_full_column_pass(matrix, params):
    """smith_normal_form as it was when the column pass also cleared A; the oracle."""
    p, M, mod = params.p, params.M, params.modulus
    A = [[int(x) % mod for x in row] for row in matrix]
    r = len(A)
    c = len(A[0]) if r else 0
    U, V, diag = identity_matrix(r), identity_matrix(c), []
    for t in range(min(r, c)):
        best, bestv = None, M
        for i in range(t, r):
            for j in range(t, c):
                if A[i][j] and nu_p(A[i][j], p) < bestv:
                    best, bestv = (i, j), nu_p(A[i][j], p)
            if best is not None and bestv == 0:
                break
        if best is None:
            diag.extend([0] * (min(r, c) - t))
            break
        i0, j0 = best
        A[t], A[i0], U[t], U[i0] = A[i0], A[t], U[i0], U[t]
        for row in A + V:
            row[t], row[j0] = row[j0], row[t]
        piv = p**bestv
        inv_unit = pow(A[t][t] // piv, -1, mod)
        A[t] = [v * inv_unit % mod for v in A[t]]
        U[t] = [v * inv_unit % mod for v in U[t]]
        for i in range(t + 1, r):
            f = A[i][t] // piv
            A[i] = [(v - f * w) % mod for v, w in zip(A[i], A[t])]
            U[i] = [(v - f * w) % mod for v, w in zip(U[i], U[t])]
        for j in range(t + 1, c):
            f = A[t][j] // piv
            for row in A + V:
                row[j] = (row[j] - f * row[t]) % mod
        # every row of A is now zero off the diagonal in columns up to t
        assert all(A[i][j] == 0 for i in range(r) for j in range(t + 1) if i != j)
        diag.append(piv % mod)
    return (r, c), tuple(diag), tuple(map(tuple, U)), tuple(map(tuple, V))


def test_snf_column_pass_matches_full_pass():
    rng = random.Random(12)
    shapes = [(k, k) for k in range(1, 7)] + [(2, 5), (5, 2), (1, 4), (4, 1), (3, 6), (6, 3)]
    cases = singular = 0
    for p in (2, 3, 5, 7):
        for M in (1, 4, 16):
            params = PadicParams(p, M)
            mod = params.modulus
            for r, c in shapes:
                for deficient in (False, True):
                    A = [[rng.randrange(mod) for _ in range(c)] for _ in range(r)]
                    if deficient and r > 1:
                        # a row that is a combination of the others, and a column of p-multiples
                        coeffs = [rng.randrange(mod) for _ in range(r - 1)]
                        A[-1] = [sum(x * row[j] for x, row in zip(coeffs, A)) % mod for j in range(c)]
                        for row in A:
                            row[0] = row[0] * p % mod
                    sf = smith_normal_form(A, params)
                    assert (sf.shape, sf.diag, sf.U, sf.V) == _smith_with_full_column_pass(A, params), (A, params)
                    cases += 1
                    singular += 0 in sf.diag
    assert cases == 4 * 3 * len(shapes) * 2 and singular > 50, (cases, singular)


def _random_square(rng, p, k, mod, singular):
    """A k x k matrix mod p^M; a singular one has a last row that is a combination of the others mod p."""
    A = [[rng.randrange(mod) for _ in range(k)] for _ in range(k)]
    if singular:
        coeffs = [rng.randrange(p) for _ in range(k - 1)]
        A[-1] = [
            (sum(c * row[j] for c, row in zip(coeffs, A)) + p * rng.randrange(mod)) % mod
            for j in range(k)
        ]
    return A


def test_invert_matrix_matches_gauss_jordan():
    rng = random.Random(23)
    seen = {"inverted": 0, "refused": 0}
    for trial in range(400):
        p = rng.choice([2, 3, 5, 7])
        params = PadicParams(p, rng.randrange(1, 12))
        k = rng.randrange(1, 7)
        A = _random_square(rng, p, k, params.modulus, singular=trial % 3 == 0)
        try:
            expected = _invert_by_gauss_jordan(A, params)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                invert_matrix(A, params)
            seen["refused"] += 1
            continue
        got = invert_matrix(A, params)
        assert got == expected, (A, params)
        assert mat_mul(A, got, params.modulus) == identity_matrix(k)
        seen["inverted"] += 1
    assert seen["inverted"] > 150 and seen["refused"] > 150, seen
    assert invert_matrix([], PadicParams(3, 2)) == [] == _invert_by_gauss_jordan([], PadicParams(3, 2))


def test_invert_matrix_refuses_non_square():
    params = PadicParams(3, 4)
    for A in ([[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]], [[1, 2]]):
        with pytest.raises(ValueError, match="^matrix not invertible mod p$"):
            invert_matrix(A, params)


def test_rings_match_gauss_jordan_basis_change():
    # make_ring's change of basis to Teichmuller powers against the oracle ring build,
    # which inverts the basis matrix by Gauss-Jordan elimination
    from morava import witt
    from test_witt import _ring_by_iteration

    for (p, n), poly in sorted(witt.DEFAULT_POLYS.items()):
        for M in (1, 8, 16):
            ring = witt.make_ring(p, n, M)
            old = _ring_by_iteration(p, n, M, poly, invert=_invert_by_gauss_jordan)
            assert ring.defining_poly == old.defining_poly, (p, n, M)
            assert ring._omega_pows == old._omega_pows, (p, n, M)
            assert ring.frobenius_matrix == old.frobenius_matrix, (p, n, M)


def _dense_rank(rows, ncols, p):
    """Rank mod p by plain Gaussian elimination on dense lists; the oracle."""
    work = [[row.get(j, 0) % p for j in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], -1, p)
        work[rank] = [v * inv % p for v in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col]
                work[i] = [(v - f * w) % p for v, w in zip(work[i], work[rank])]
        rank += 1
    return rank


def _random_sparse_rows(rng, p, nrows, ncols):
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:  # a combination of earlier rows, so the rank can stall
            row = {}
            for other in rng.sample(rows, min(len(rows), 2)):
                f = rng.randrange(p)
                for c, v in other.items():
                    row[c] = (row.get(c, 0) + f * v) % p
        else:
            row = {c: rng.randrange(-p, 3 * p) for c in rng.sample(range(ncols), rng.randrange(ncols + 1))}
        rows.append(row)
    return rows


def test_echelon_matches_dense_oracle():
    rng = random.Random(29)
    for trial in range(400):
        p = (2, 3, 5, 7)[trial % 4]
        ncols = rng.randrange(1, 12)
        rows = _random_sparse_rows(rng, p, rng.randrange(0, 14), ncols)
        ech = Echelon(p)
        for i, row in enumerate(rows):
            grew = _dense_rank(rows[: i + 1], ncols, p) > _dense_rank(rows[:i], ncols, p)
            assert ech.insert(row) == grew, (p, rows[: i + 1])
            assert ech.reduce(row) == {}
        rank = _dense_rank(rows, ncols, p)
        assert len(ech.rows) == rank
        # reduced echelon form: 1 at the pivot, nothing before it or at another pivot, no zeros
        for col, row in ech.rows.items():
            assert row[col] == 1 and min(row) == col and all(0 < v < p for v in row.values())
            assert not any(c in ech.rows for c in row if c != col)
        kernel = ech.kernel(ncols)
        assert len(kernel) == ncols - rank
        assert _dense_rank(kernel, ncols, p) == len(kernel)
        for vec in kernel:
            for row in rows:
                assert sum(v * vec.get(c, 0) for c, v in row.items()) % p == 0, (p, rows, vec)
        # a random vector reduces to {} exactly when it adds nothing to the rank
        probe = {c: rng.randrange(p) for c in range(ncols)}
        assert (ech.reduce(probe) == {}) == (_dense_rank(rows + [probe], ncols, p) == rank)


def test_echelon_rows_are_canonical():
    # the same span from rows in another order, scaled, gives equal rows
    rng = random.Random(31)
    for trial in range(100):
        p = (2, 3, 5, 7)[trial % 4]
        rows = _random_sparse_rows(rng, p, 6, 8)
        first, second = Echelon(p), Echelon(p)
        for row in rows:
            first.insert(row)
        for row in reversed(rows):
            f = rng.randrange(1, p)
            second.insert({c: f * v for c, v in row.items()})
        assert first.rows == second.rows


def test_echelon_never_changes_a_row_in_place():
    # a shallow copy of rows, and every input vector, outlive later inserts unchanged
    rng = random.Random(20261019)
    changed = 0  # back-substitutions that replaced a row the alias still holds
    for trial in range(200):
        p = (2, 3, 5, 7)[trial % 4]
        ncols = rng.randrange(1, 12)
        rows = _random_sparse_rows(rng, p, rng.randrange(1, 14), ncols)
        ech = Echelon(p)
        cut = rng.randrange(len(rows) + 1)
        for row in rows[:cut]:
            ech.insert(row)
        snapshot = {c: dict(r) for c, r in ech.rows.items()}
        alias = dict(ech.rows)
        inputs = [dict(row) for row in rows[cut:]]
        for row in rows[cut:]:
            ech.reduce(row)
            ech.insert(row)
        assert {c: dict(r) for c, r in alias.items()} == snapshot, (p, rows, cut)
        assert rows[cut:] == inputs, (p, rows, cut)
        changed += any(ech.rows[c] != r for c, r in snapshot.items())
    assert changed > 20, changed


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


def _decomp_by_loop(p, orders, precision_caveat):
    """CyclicDecomp's cleaning as first written, run on every construction: the oracle."""
    cleaned = []
    for o in orders:
        if o == INF:
            cleaned.append(INF)
            continue
        o = int(o)
        if o == 1:
            continue
        if o <= 0 or p ** nu_p(o, p) != o:
            raise ValueError(f"order {o} is not a power of p = {p}")
        cleaned.append(o)
    cleaned.sort(reverse=True)
    return tuple(cleaned), precision_caveat if any(o == INF for o in cleaned) else False


def _decomp_outcome(build):
    try:
        orders, caveat = build()
    except ValueError as exc:
        return "error", str(exc)
    return orders, [type(o) for o in orders], caveat


# INF, 1, 0, negatives, non-powers, big powers, and values equal to ints (True, 2.0) that
# share a cache key with them
_ORDERS = st.one_of(
    st.integers(min_value=-4, max_value=30),
    st.sampled_from([INF, float("inf"), True, False, 1.0, 2.0, 3.0, 4.0, 9.0, 8.0, 6.0, 2**70, 3**45, 5**30, 10**20]),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(st.sampled_from([2, 3, 5]), st.lists(_ORDERS, max_size=5), st.sampled_from([False, True, 1]))
def test_cyclic_decomp_matches_cleaning_loop(p, orders, caveat):
    expected = _decomp_outcome(lambda: _decomp_by_loop(p, orders, caveat))
    # the record itself, then the shared one twice: the second cyclic_decomp call reads its cache
    for build in (CyclicDecomp, cyclic_decomp, cyclic_decomp):
        fields = lambda: (lambda d: (d.orders, d.precision_caveat))(build(p, tuple(orders), caveat))
        assert _decomp_outcome(fields) == expected, (p, orders, caveat)


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


def test_record_reads_its_fields_through_the_class_annotations():
    # From Python 3.14 an annotated class body keeps only a lazy __annotate__ in its
    # __dict__; a metaclass property gives the same shape on every Python.
    class Lazy(type):
        @property
        def __annotations__(cls):
            return {"a": int, "b": int}

    Pair = padic.record(Lazy("Pair", (), {"b": 2}))
    assert "__annotations__" not in Lazy("Bare", (), {}).__dict__
    assert Pair.__slots__ == ("a", "b")
    assert Pair(1) == Pair(1, 2) != Pair(1, 3)
    assert repr(Pair(1)) == "Pair(a=1, b=2)"
