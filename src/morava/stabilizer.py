"""The unit group of the order: filtration, commutators, norms, splitting.

A unit is strict when it is congruent to 1 mod S; the S-adic valuation of
x - 1 defines the filtration, and the leading S-digit of x - 1 is the image
of x in the associated graded group (an F_q line at each level k/n).
"""

from functools import cache
from math import lcm
from operator import lshift, mul

from morava.order import OrderElem, SValuation, _fraction_text, from_digits, order_one
from morava.padic import PadicInt, _prime_factors, check_int, nth_root_one_unit, record
from morava.witt import FqElem, PrecisionError, WittElem, WittRing, _kernel


class StabElem:
    """A unit of the order, checked once here; its arithmetic is that of .elem."""

    __slots__ = ("elem",)

    def __init__(self, elem: OrderElem):
        if not elem.is_unit:
            raise ValueError("not a unit, so not in the stabilizer group")
        self.elem = elem

    @property
    def is_strict(self) -> bool:
        """True when x = 1 mod S, i.e. the filtration level is positive."""
        return self.elem.parts[0].residue() == self.elem.ring.fq.one

    def __eq__(self, other):
        return isinstance(other, StabElem) and self.elem == other.elem

    def __hash__(self):
        return hash(self.elem)

    def __repr__(self):
        return repr(self.elem)


@record
class GrElem:
    """A graded piece: level k/n together with the leading S-digit of x - 1."""

    k: int
    digit: FqElem

    @property
    def level(self) -> "Fraction":
        from fractions import Fraction  # here, not at the top: it loads decimal

        return Fraction(self.k, self.digit.field.n)

    def __repr__(self):
        return f"gr[{_fraction_text(self.k, self.digit.field.n)}]({self.digit!r})"  # self.level, with no Fraction


def commutator(x: StabElem, y: StabElem) -> StabElem:
    """x y x^-1 y^-1, computed as (xy)(yx)^-1 with a single inversion."""
    return StabElem(x.elem * y.elem * (y.elem * x.elem).inverse())


def filtration_level(x: StabElem) -> SValuation:
    return (x.elem - order_one(x.elem.ring)).s_valuation()


def leading_term(d: OrderElem) -> GrElem:
    """The S-valuation k of d and its leading S-digit, the residue of a_(k mod n) / p^(k div n)."""
    v = d.s_valuation()
    if v.at_precision_cap:
        raise ValueError("element is trivial at this precision; no graded image")
    j, i = divmod(v.numerator, d.ring.n)
    ppow = d.ring.params.p ** j
    return GrElem(v.numerator, d.ring.fq.element(tuple(c // ppow for c in d.parts[i].coords)))


def gr_project(x: StabElem) -> GrElem:
    return leading_term(x.elem - order_one(x.elem.ring))


def default_order_bound(ring: WittRing) -> int:
    """Torsion bound: prime-to-p part divides q - 1, p-part dies past precision."""
    p, M, n = ring.params.p, ring.params.M, ring.n
    ppow = 1
    while ppow < n * M:
        ppow *= p
    return min(lcm(ring.q - 1, ppow), 1000)


def element_order(x: StabElem, bound: int | None = None) -> int | None:
    """Smallest m <= bound with x^m = 1 at precision, else None.

    The unit group of O/p^M has order (q - 1) q^(nM - 1), so x^(q-1) is a
    strict unit of p-power order p^j, and x^(p^j) has order d dividing q - 1;
    the order of x is d p^j.
    """
    x = x.elem
    if bound is None:
        bound = default_order_bound(x.ring)
    check_int("order bound", bound)
    p, q = x.ring.params.p, x.ring.q
    one = order_one(x.ring)
    y, ppow = x ** (q - 1), 1
    while y != one:
        ppow *= p
        if ppow > bound:
            return None
        y = y ** p
    z, d = x ** ppow, q - 1
    for ell in _prime_factors(q - 1):
        while d % ell == 0 and z ** (d // ell) == one:
            d //= ell
    return d * ppow if d * ppow <= bound else None


def torus_embed(ring: WittRing, x: FqElem) -> StabElem:
    """Teichmuller lift of a nonzero residue, embedded along the maximal torus."""
    if x.is_zero:
        raise ValueError("zero has no Teichmuller unit")
    return StabElem(from_digits(ring, [x]))


def order3_element(ring: WittRing) -> StabElem:
    """The unit -(1 + wS)/2 of the (3, 2) order, which has exact order 3."""
    p, n = ring.params.p, ring.n
    if (p, n) != (3, 2):
        raise ValueError("defined for p = 3, n = 2 only")
    return StabElem(from_digits(ring, [ring.fq.one, ring.fq.gen]).scale(pow(-2, -1, ring.params.modulus)))


def reduced_norm(x: OrderElem) -> PadicInt:
    """Determinant of right multiplication by x on the S-power basis.

    The result is Galois-invariant, so it lies in Z_p; a non-scalar
    determinant means the construction lost exactness and raises.
    """
    ring, n, p = x.ring, x.ring.n, x.ring.params.p
    cols, a = _det_kernel(ring, n)[3], [x.coords[j : j + n] for j in range(0, n * n, n)]
    # entry (k, i) is sigma^i(a_(k-i)), packed from the columns sigma^i(w^c), times p where k - i wraps
    m = [[sum(map(mul, a[k - i], cols[i])) * (p if k < i else 1) for i in range(n)] for k in range(n)]
    det = _det(m, ring)
    if any(det.coords[1:]):
        raise PrecisionError("reduced norm not Galois-invariant at precision")
    return PadicInt(ring.params, det.coords[0])


def _det(m, ring: WittRing) -> WittElem:
    """Division-free determinant: signed sums over column subsets, row by row.

    partial[mask] sums the signed products of rows 0..r-1 over the columns in
    mask; column c of row r adds one inversion per used column above c.  Entries come
    packed with the _det_kernel shifts, slots in [0, p n p^(2M)]; row 0 is reduced once,
    top - x packs -x with no slot below 0, a subset's raw products are reduced once.
    """
    shifts, reduce, top, _ = _det_kernel(ring, len(m))
    partial = {1 << c: reduce(e) for c, e in enumerate(m[0]) if e}
    for row in m[1:]:
        cols = [(c, pos, top - pos) for c, pos in enumerate(row) if pos]
        nxt = {}
        for mask, coords in partial.items():
            acc = sum(map(lshift, coords, shifts))
            for c, pos, neg in cols:
                if not mask >> c & 1:
                    key = mask | 1 << c
                    nxt[key] = nxt.get(key, 0) + acc * (neg if (mask >> c).bit_count() & 1 else pos)
        partial = {key: reduce(raw) for key, raw in nxt.items()}
    return WittElem(ring, partial.get((1 << len(m)) - 1, (0,) * ring.n))


@cache
def _det_kernel(ring: WittRing, size: int) -> tuple:
    """(shifts, reduce, top, cols) for _det on size x size matrices; cols[i][c] packs sigma^i(w^c), so
    sum(map(mul, a, cols[i])) packs sigma^i(a) in slots below n p^(2M): times p, below E = p n p^(2M),
    the slot of top, a multiple of p^M.  A reduced partial times an entry has slots below n p^M E, a
    subset sums `size` of them, folding multiplies by at most n p^M: below p size n^3 p^(4M), so
    B = 4 bitlen(p^M) + bitlen(p size n^3), which is 4 bitlen(p^M) + bitlen(p n^4) for the norm."""
    n, p, mod = ring.n, ring.params.p, ring.params.modulus
    bits = 4 * mod.bit_length() + (p * size * n**3).bit_length()
    shifts, reduce = _kernel(ring._omega_pows, n, mod, 1, bits)
    cols = tuple(tuple(sum(map(lshift, col, shifts)) for col in zip(*sig)) for sig in ring._sigma_pows)
    return shifts, reduce, sum((p * n * mod * mod) << s for s in shifts), cols


def s1_split(x: StabElem) -> tuple:
    """Factor x = x1 * z with z a central scalar and N(x1) = 1 exactly.

    Needs p not dividing n (take the central n-th root of the norm).
    Returns (x1, z) with z a PadicInt.
    """
    x = x.elem
    p, n = x.ring.params.p, x.ring.n
    if n % p == 0:
        raise ValueError("splitting undefined when p divides n")
    norm = reduced_norm(x)
    z = nth_root_one_unit(norm, n)
    # z is a unit: n-th roots are taken in the unit group only
    x1 = x.scale(pow(z.value, -1, z.params.modulus))
    if reduced_norm(x1).value != 1:
        raise PrecisionError("norm-one factor failed to normalize")
    return StabElem(x1), z


def in_K(x: StabElem) -> bool:
    """Membership in the kernel subgroup K of the (3, 2) norm-one group.

    A norm-one unit lies in K when the level-1/2 digit of x - 1 is in the
    prime field F_3 inside F_9.
    """
    x = x.elem
    if (x.ring.params.p, x.ring.n) != (3, 2):
        raise ValueError("defined for p = 3, n = 2 only")
    if reduced_norm(x).value != 1:
        raise ValueError("not in the norm-one subgroup")
    d1 = (x - order_one(x.ring)).s_digits(2)[1]
    return d1.coeffs[1] == 0
