"""Unit group structure: filtration, torsion, commutators, norms, splitting."""

import random
from fractions import Fraction
from math import gcd
from operator import lshift

import pytest

from morava.order import (
    SValuation,
    from_coeff_rows,
    from_digits,
    from_int,
    from_witt,
    order_one,
    s_gen,
)
from morava.stabilizer import (
    GrElem,
    StabElem,
    _det,
    _det_kernel,
    commutator,
    element_order,
    filtration_level,
    gr_project,
    in_K,
    leading_term,
    order3_element,
    reduced_norm,
    s1_split,
    torus_embed,
)
from morava.witt import DEFAULT_POLYS, WittElem, fq_field, make_ring
from test_witt import _vec_mul


def _random_unit(ring, rng):
    mod = ring.params.modulus
    while True:
        x = from_coeff_rows(
            ring, [[rng.randrange(mod) for _ in range(ring.n)] for _ in range(ring.n)]
        )
        if x.is_unit:
            return StabElem(x)


def test_non_unit_rejected():
    ring = make_ring(3, 2, 8)
    with pytest.raises(ValueError, match="not a unit"):
        StabElem(s_gen(ring))


def test_order3_element():
    ring = make_ring(3, 2, 16)
    a = order3_element(ring)
    x, one = a.elem, order_one(ring)
    assert x != one and x * x != one and x * x * x == one
    assert element_order(a) == 3
    assert a.is_strict
    assert filtration_level(a) == SValuation(1, 2)
    g = gr_project(a)
    assert g.level == Fraction(1, 2) and g.digit == ring.fq.gen
    with pytest.raises(ValueError, match="p = 3, n = 2"):
        order3_element(make_ring(5, 2, 8))


def test_graded_piece_prints_its_level_as_its_fraction_does():
    # repr reduces k/n by the Euclid helper SValuation prints with; level stays the Fraction
    for p, n in ((2, 4), (3, 2), (5, 3), (2, 6)):
        digit = fq_field(p, n).gen
        for k in range(1, 4 * n + 1):
            g = GrElem(k, digit)
            assert repr(g) == f"gr[{g.level}]({digit!r})" and g.level == Fraction(k, n)


def test_torsion_orders():
    ring = make_ring(2, 2, 12)
    minus_one = StabElem(from_int(ring, -1))
    assert element_order(minus_one) == 2
    # Teichmuller units have the order of their residue
    ring32 = make_ring(3, 2, 12)
    t = torus_embed(ring32, ring32.fq.gen)
    assert element_order(t) == 8
    assert element_order(StabElem(order_one(ring32))) == 1


def test_no_small_torsion_at_5_2():
    ring = make_ring(5, 2, 8)
    x = StabElem(order_one(ring) + from_witt(ring, ring.omega) * s_gen(ring))
    assert element_order(x, 24) is None
    for bound in (0, -5):
        with pytest.raises(ValueError, match=f"order bound must be >= 1, got {bound}$"):
            element_order(x, bound)


def _order_by_loop(x, bound):
    """The smallest m <= bound with x^m = 1, by repeated multiplication: the oracle."""
    one = order_one(x.elem.ring)
    cur = x.elem
    for m in range(1, bound + 1):
        if cur == one:
            return m
        cur = cur * x.elem
    return None


def _laplace_det(m, ring):
    """Laplace expansion along the first row, about e n! products: the oracle."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = ring.zero()
    for j in range(n):
        if m[0][j].is_zero:
            continue
        minor = [[m[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = m[0][j] * _laplace_det(minor, ring)
        total = total + term if j % 2 == 0 else total - term
    return total


def test_element_order_matches_loop():
    rng = random.Random(73)
    rings = [(2, 1), (5, 1), (2, 2), (3, 2), (5, 2), (7, 2), (2, 3), (3, 3), (2, 4)]
    assert all(key in DEFAULT_POLYS for key in rings)
    cases = 0
    for (p, n) in rings:
        for M in (1, 2, 3):
            ring = make_ring(p, n, M)
            one = order_one(ring)
            units = [_random_unit(ring, rng) for _ in range(3)]
            # strict units 1 + yS have p-power order
            units += [StabElem(one + _random_unit(ring, rng).elem * s_gen(ring)) for _ in range(2)]
            for x in units:
                for bound in (1, 7, 50, 2000):
                    assert element_order(x, bound) == _order_by_loop(x, bound), (p, n, M, bound)
                    cases += 1
            for j in range(ring.q - 1):
                t = torus_embed(ring, ring.fq.gen ** j)
                assert element_order(t, 50) == _order_by_loop(t, 50), (p, n, M, j)
                assert element_order(t) == _order_by_loop(t, ring.q - 1) == (ring.q - 1) // gcd(j, ring.q - 1)
                cases += 2
    ring = make_ring(3, 2, 16)
    a = order3_element(ring)
    for bound in (1, 2, 3, 7, 50, 2000):
        assert element_order(a, bound) == _order_by_loop(a, bound)
    assert cases > 900


def test_exact_order_of_strict_unit():
    ring = make_ring(5, 2, 16)
    x = StabElem(order_one(ring) + s_gen(ring))
    o = element_order(x, 5 ** 40)
    assert o == 5 ** 16
    one = order_one(ring)
    assert x.elem ** o == one and x.elem ** (o // 5) != one


def _packed(m, ring):
    """A matrix of Witt elements as _det takes it, each entry packed with the _det_kernel shifts."""
    shifts = _det_kernel(ring, len(m))[0]
    return [[sum(map(lshift, e.coords, shifts)) for e in row] for row in m]


def test_det_matches_laplace():
    rng = random.Random(79)
    for ring in (make_ring(3, 2, 4), make_ring(2, 3, 3), make_ring(5, 1, 6), make_ring(3, 5, 3)):
        mod, p, n = ring.params.modulus, ring.params.p, ring.n
        # every coordinate p^M - 1: the largest reduced entries
        top = [[ring.from_coords([mod - 1] * n)] * 7 for _ in range(7)]
        assert _det(_packed(top, ring), ring) == _laplace_det(top, ring), ring.params
        for size in range(1, 8):
            shifts = _det_kernel(ring, size)[0]
            for trial in range(4 if size < 7 else 1):
                m = [[ring.from_coords([rng.randrange(mod) for _ in range(n)])
                      for _ in range(size)] for _ in range(size)]
                if trial == 1:
                    # non-units: entries divisible by p, and zeros
                    m = [[e.scale(p * (rng.random() < 0.7)) for e in row] for row in m]
                if trial == 2:
                    # a repeated row makes the determinant vanish
                    m[-1] = list(m[0])
                if trial == 3:
                    # unreduced entries as the norm packs them, slots up to p n p^(2M): the largest
                    big = [[[p * n * mod * mod - rng.randrange(mod) for _ in range(n)]
                            for _ in range(size)] for _ in range(size)]
                    packed = [[sum(map(lshift, e, shifts)) for e in row] for row in big]
                    m = [[ring.from_coords(e) for e in row] for row in big]
                    assert _det(packed, ring) == _laplace_det(m, ring), (ring.params, size, trial)
                    continue
                assert _det(_packed(m, ring), ring) == _laplace_det(m, ring), (ring.params, size, trial)


def _norm_matrix(x):
    """The matrix reduced_norm once built entry by entry: (k, i) is sigma^i(a_(k-i)),
    times p where k - i wraps below 0.  The oracle for the packed entries."""
    ring, n, a = x.ring, x.ring.n, x.parts
    p = ring.params.p
    return [[a[k - i].frobenius(i).scale(p if k < i else 1) for i in range(n)] for k in range(n)]


def _norm_cases(ring, rng):
    """Two random units, the unit with every coordinate p^M - 1, and three non-units:
    S, p times a unit, and an element with a_0 = 0 mod p."""
    n, p, mod = ring.n, ring.params.p, ring.params.modulus
    xs = [_random_unit(ring, rng).elem for _ in range(2)]
    xs.append(from_coeff_rows(ring, [[mod - 1] * n] * n))
    xs += [s_gen(ring), _random_unit(ring, rng).elem.scale(p)]
    rows = [[rng.randrange(mod) for _ in range(n)] for _ in range(n)]
    rows[0] = [p * c % mod for c in rows[0]]
    xs.append(from_coeff_rows(ring, rows))
    return xs


def test_reduced_norm_matches_laplace():
    """The packed entries against the entry-by-entry matrix and Laplace expansion; (2, 7, 8)
    and (3, 5, 3) hold the largest slots."""
    rng = random.Random(89)
    for (p, n, M) in [(2, 1, 16), (5, 1, 3), (3, 2, 8), (2, 2, 100), (5, 3, 4), (2, 4, 16),
                      (3, 5, 3), (2, 7, 8)]:
        ring = make_ring(p, n, M)
        xs = _norm_cases(ring, rng)
        assert sum(x.is_unit for x in xs) == 3
        for x in xs:
            want = _laplace_det(_norm_matrix(x), ring)
            assert not any(want.coords[1:])
            assert reduced_norm(x).value == want.coords[0], (p, n, M, repr(x))


def test_commutator_identities():
    ring = make_ring(3, 2, 8)
    rng = random.Random(53)
    one = StabElem(order_one(ring))
    for _ in range(6):
        x, y = _random_unit(ring, rng), _random_unit(ring, rng)
        assert commutator(x, x) == one
        assert commutator(x, one) == one
        lhs = commutator(x, y)
        assert lhs.elem * y.elem * x.elem == x.elem * y.elem
        # inverse law [x, y]^-1 = [y, x]
        assert lhs.elem.inverse() == commutator(y, x).elem


def test_frozen_commutator_chain():
    # a the order 3 unit, b = [a, teich], c = [a, b]
    ring = make_ring(3, 2, 16)
    a = order3_element(ring)
    b = commutator(a, torus_embed(ring, ring.fq.gen))
    assert filtration_level(b) == SValuation(1, 2)
    assert gr_project(b).digit == ring.fq.one
    assert in_K(b)
    c = commutator(a, b)
    assert filtration_level(c) == SValuation(2, 2)
    assert gr_project(c).digit == ring.fq.element([2, 2])


def test_gr_project_trivial():
    ring = make_ring(3, 2, 8)
    with pytest.raises(ValueError, match="trivial"):
        gr_project(StabElem(order_one(ring)))


@pytest.mark.parametrize("p, n, M", [(2, 1, 12), (3, 2, 8), (2, 2, 8), (5, 2, 4), (2, 3, 6), (3, 3, 4), (7, 4, 3)])
def test_gr_project_reads_the_digit_s_digits_gives(p, n, M):
    # the leading digit read directly, against s_digits(v + 1)[v] as gr_project first read it
    ring = make_ring(p, n, M)
    rng = random.Random(p * 100 + n * 10 + M)
    one, s = order_one(ring), s_gen(ring)
    for _ in range(60):
        x = _random_unit(ring, rng)
        k = rng.randrange(n * M)
        for y in (x, StabElem(one + (x.elem - one) * s**k)):  # any unit, then one deeper
            diff = y.elem - one
            if diff.is_zero:
                continue
            v = diff.s_valuation().numerator
            assert gr_project(y) == GrElem(v, diff.s_digits(v + 1)[v]), (p, n, M, y)


def test_leading_term_of_xy_minus_yx_is_the_graded_commutator():
    # [x, y] - 1 = (xy - yx)(yx)^-1 with (yx)^-1 = 1 mod S, so for x = 1 + teich(a) S^k and
    # y = 1 + teich(b) S^l the two have one leading term and vanish together; commutator and
    # gr_project, which invert, are the oracle, and s_digits checks the digit read off xy - yx
    rng = random.Random(28)
    cases = trivial = 0
    for p, n in sorted(f for f in DEFAULT_POLYS if f[0] ** f[1] <= 256):
        for M in (1, 2, 4, 16):
            ring = make_ring(p, n, M)
            one, fq = StabElem(order_one(ring)), ring.fq
            for k in range(1, n + 3):
                for l in range(1, n + 3):
                    if k + l >= n * M:
                        continue
                    for _ in range(3):
                        a, b = fq.from_idx(rng.randrange(1, fq.q)), fq.from_idx(rng.randrange(1, fq.q))
                        x = from_digits(ring, [fq.one] + [fq.zero] * (k - 1) + [a])
                        y = from_digits(ring, [fq.one] + [fq.zero] * (l - 1) + [b])
                        d, c = x * y - y * x, commutator(StabElem(x), StabElem(y))
                        case = (p, n, M, k, l, a, b)
                        cases += 1
                        assert d.is_zero == (c == one), case
                        if d.is_zero:
                            trivial += 1
                            continue
                        got = leading_term(d)
                        assert got == gr_project(c), case
                        digits = d.s_digits(got.k + 1)
                        assert not any(digits[:-1]) and digits[-1] == got.digit, case
    assert (cases, trivial) == (4713, 496)


def test_reduced_norm_frozen():
    ring = make_ring(3, 2, 16)
    p16 = 3 ** 16
    assert reduced_norm(s_gen(ring)).value == p16 - 3
    assert reduced_norm(from_int(ring, 3)).value == 9
    assert reduced_norm(order3_element(ring).elem).value == 1
    # odd n picks up no sign
    r23 = make_ring(2, 3, 8)
    assert reduced_norm(s_gen(r23)).value == 2
    assert reduced_norm(from_int(r23, 2)).value == 8


def test_reduced_norm_multiplicative():
    rng = random.Random(59)
    for (p, n) in [(3, 2), (2, 3), (5, 2)]:
        ring = make_ring(p, n, 8)
        for _ in range(8):
            x, y = _random_unit(ring, rng), _random_unit(ring, rng)
            nx, ny = reduced_norm(x.elem), reduced_norm(y.elem)
            assert reduced_norm(x.elem * y.elem).value == nx.value * ny.value % ring.params.modulus
            assert reduced_norm(x.elem.galois_sigma()).value == nx.value


def _det_by_products(m, ring):
    """The subset DP with one schoolbook product and one reduction per term: the oracle."""
    pows, n, mod = ring._omega_pows, ring.n, ring.params.modulus
    partial = {1 << c: entry.coords for c, entry in enumerate(m[0]) if not entry.is_zero}
    for row in m[1:]:
        nxt = {}
        for mask, acc in partial.items():
            for c, entry in enumerate(row):
                if mask >> c & 1 or entry.is_zero:
                    continue
                term = _vec_mul(acc, entry.coords, pows, n, mod)
                if bin(mask >> c).count("1") & 1:
                    term = tuple(-t % mod for t in term)
                key = mask | 1 << c
                nxt[key] = tuple((a + b) % mod for a, b in zip(nxt.get(key, (0,) * n), term))
        partial = nxt
    return WittElem(ring, partial.get((1 << len(m)) - 1, (0,) * ring.n))


def test_reduced_norms_match_schoolbook_products():
    """Norms at the benchmark's norm fields, packed and then by the per-product oracle."""
    rng = random.Random(71)
    for (p, n, M) in [(2, 5, 8), (2, 6, 8), (2, 7, 8), (3, 4, 8), (3, 5, 8), (5, 4, 8), (7, 3, 8)]:
        ring = make_ring(p, n, M)
        xs = _norm_cases(ring, rng)
        assert sum(x.is_unit for x in xs) == 3
        for x in xs:
            want = _det_by_products(_norm_matrix(x), ring)
            assert reduced_norm(x).value == want.coords[0] and not any(want.coords[1:]), repr(x)


def test_reduced_norm_two_by_two_formula():
    # n = 2: N(a + bS) = a sigma(a) - p sigma(b) b
    rng = random.Random(61)
    ring = make_ring(3, 2, 10)
    mod = ring.params.modulus
    for _ in range(10):
        a = ring.from_coords([rng.randrange(mod), rng.randrange(mod)])
        b = ring.from_coords([rng.randrange(mod), rng.randrange(mod)])
        x = from_witt(ring, a) + from_witt(ring, b) * s_gen(ring)
        direct = a * a.frobenius() - (b.frobenius() * b).scale(3)
        assert not any(direct.coords[1:])
        assert reduced_norm(x).value == direct.coords[0]


def test_s1_split():
    rng = random.Random(67)
    for (p, n) in [(3, 2), (5, 2), (2, 3)]:
        ring = make_ring(p, n, 10)
        for _ in range(6):
            x = _random_unit(ring, rng)
            if p != 2 and not x.is_strict:
                continue
            x1, z = s1_split(x)
            assert reduced_norm(x1.elem).value == 1
            assert x1.elem.scale(z.value) == x.elem
            # z^n recovers the norm
            assert z.params == ring.params
            assert pow(z.value, n, z.params.modulus) == reduced_norm(x.elem).value


def test_s1_split_errors():
    with pytest.raises(ValueError, match="divides"):
        s1_split(StabElem(order_one(make_ring(3, 3, 8))))
    with pytest.raises(ValueError, match="divides"):
        s1_split(StabElem(order_one(make_ring(2, 2, 8))))
    # at odd p a unit whose norm is not a one-unit has no scalar root
    ring = make_ring(3, 2, 8)
    t = torus_embed(ring, ring.fq.gen)
    with pytest.raises(ValueError, match="1 mod p"):
        s1_split(t)


def test_in_K():
    ring = make_ring(3, 2, 16)
    a = order3_element(ring)
    b = commutator(a, torus_embed(ring, ring.fq.gen))
    assert in_K(b)
    assert in_K(StabElem(order_one(ring)))
    # a has norm one but digit w at level 1/2, so it is not in K
    assert reduced_norm(a.elem).value == 1
    assert not in_K(a)
    with pytest.raises(ValueError, match="norm-one"):
        in_K(torus_embed(ring, ring.fq.gen))
    with pytest.raises(ValueError, match="p = 3, n = 2"):
        in_K(StabElem(order_one(make_ring(5, 2, 8))))


def test_strictness():
    ring = make_ring(2, 3, 8)
    s = s_gen(ring)
    assert StabElem(order_one(ring) + s).is_strict
    t = torus_embed(ring, ring.fq.gen)
    assert not t.is_strict
    # commutators of strict units are strict
    rng = random.Random(71)
    x, y = _random_unit(ring, rng), _random_unit(ring, rng)
    assert commutator(x, y).is_strict
