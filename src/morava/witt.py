"""Truncated Witt vectors W(F_q) mod p^M on the Teichmuller power basis.

A ring is built from a monic lift f of a primitive irreducible polynomial
over F_p.  The only check on f is the build of the F_q log table: the
powers of x in F_p[x]/(f) must be nonzero and distinct for q - 1 steps and
x^(q-1) must be 1.  Then every nonzero element is a unit, so F_p[x]/(f) is a
field and x generates its units: f is irreducible and primitive.  The
Teichmuller lift w of the residue generator is found by Newton's method
on z^(q-1) = 1 from z = x, whose error's valuation doubles each step, the
basis is changed to 1, w, ..., w^(n-1), and the Frobenius lift sigma with
sigma(w) = w^p is stored as an n x n matrix mod p^M.  On this
basis sigma has exact order n and w^(q-1) = 1 exactly, so all downstream
identities (S^n = p, Sx = sigma(x)S, ...) hold on the nose at precision.
"""

from __future__ import annotations

from functools import lru_cache
from operator import lshift, mul

from morava.padic import (
    INF,
    PadicInt,
    PadicParams,
    PrecisionError,
    binary_power,
    check_int,
    check_prime,
    identity_matrix,
    mat_mul,
    mat_vec,
)

# Monic lifts of Conway polynomials, coefficients lowest degree first.
# Every entry is verified irreducible and primitive mod p by the F_q table build.
DEFAULT_POLYS = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (5, 1): (3, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (5, 4): (2, 4, 4, 0, 1),
    (7, 1): (4, 1),
    (7, 2): (3, 6, 1),
    (7, 3): (4, 0, 6, 1),
    (7, 4): (3, 4, 5, 0, 1),
}
_FIELD_LIMIT = 1 << 17  # most elements an Fq table holds: F_2^17 builds in 0.04 s (2-CPU Xeon)
_PRECISION_LIMIT = 1024  # most Witt digits make_ring builds: (7, 4) takes 0.1 s there, (2, 17) 0.6-0.9 s


def _poly_repr(coeffs, name: str) -> str:
    """c_0 + c_1*name + c_2*name^2 + ..., zero terms left out; "0" when all are."""
    terms = []
    for i, c in enumerate(coeffs):
        if c:
            pw = name if i == 1 else f"{name}^{i}"
            terms.append(str(c) if i == 0 else pw if c == 1 else f"{c}*{pw}")
    return " + ".join(terms) or "0"


# ---------------------------------------------------------------------------
# products on a power basis: F_p[x]/(f) for the field, Z[x]/(f, p^M) for the ring


def _power_table(top: tuple, n: int, mod: int) -> list:
    """Vectors for y^d, d = 0 .. max(n, 2n-2), given y^n = top in the power basis."""
    pows = [(1,) + (0,) * (n - 1)]
    for _ in range(max(n, 2 * n - 2)):
        v = pows[-1]  # y v is the companion shift
        pows.append(tuple((s + v[-1] * t) % mod for s, t in zip((0,) + v[:-1], top)))
    return pows


def _kernel(pows, n: int, mod: int, blocks: int = 1, bits: int | None = None):
    """(shifts, reduce): the Kronecker packing behind every product on a power basis.

    A packed integer holds `blocks` blocks of 2n - 1 B-bit slots, slot d of a
    block holding a y^d coefficient; coordinate c sits at bit shifts[c].
    reduce(acc) folds each slot d >= n back with the packed y^d = pows[d], then
    reads every slot mod `mod`.  Coordinates must lie in [0, mod): the default
    B bounds a slot of one product, n^2 mod^3, so no slot carries.
    """
    bits = bits or 3 * mod.bit_length() + (n * n).bit_length()
    width, mask = 2 * n - 1, (1 << bits) - 1
    shifts = tuple(bits * (width * m + j) for m in range(blocks) for j in range(n))
    slot0 = sum(mask << (bits * width * m) for m in range(blocks))
    low = sum(slot0 << s for s in shifts[:n])
    fold = tuple((bits * d, sum(map(lshift, pows[d], shifts))) for d in range(n, width))

    def reduce(acc: int) -> tuple:
        red = acc & low
        for s, pw in fold:
            red += ((acc >> s) & slot0) * pw
        return tuple(((red >> s) & mask) % mod for s in shifts)

    return shifts, reduce


def _product(pows, n: int, mod: int):
    """The product a, b -> a b of reduced coordinate tuples, one integer product each."""
    shifts, reduce = _kernel(pows, n, mod)
    return lambda a, b: reduce(sum(map(lshift, a, shifts)) * sum(map(lshift, b, shifts)))


# ---------------------------------------------------------------------------
# the residue field F_q


class Fq:
    """F_q = F_p[x]/(f) with discrete-log tables on the class of x.

    Elements are addressed by index sum(c_i p^i); the generator wb (the
    residue of the Teichmuller generator) has index p for n > 1.
    """

    def __init__(self, p: int, n: int, poly: tuple):
        self.p = p
        self.n = n
        self.poly = poly
        self.q = q = p ** n
        # building the tables is the check on poly: x must have order exactly q - 1.  x v on
        # indices: v's low n - 1 digits shift up, and its top digit c adds tops[c], c x^n
        high = p ** (n - 1)
        tops = [self._encode([-c * t % p for t in poly[:n]]) for c in range(p)]
        exp, log, cur = [0] * (q - 1), [None] * q, 1
        for k in range(q - 1):
            if cur == 0 or log[cur] is not None:
                cur = 0  # zero or a repeat before q - 1 steps
                break
            exp[k], log[cur] = cur, k
            c, low = divmod(cur, high)
            cur = self.add_idx(low * p, tops[c]) if c else low * p
        if cur != 1:
            raise ValueError(f"{poly} is not irreducible and primitive mod {p}")
        self.exp = exp
        self.log = log
        self.gen_idx = exp[1 % (q - 1)]  # x^1, which is 1 when q = 2

    def _encode(self, coeffs) -> int:
        idx = 0
        for c in reversed(coeffs):
            idx = idx * self.p + c
        return idx

    def _decode(self, idx: int) -> tuple:
        out = []
        for _ in range(self.n):
            idx, c = divmod(idx, self.p)
            out.append(c)
        return tuple(out)

    # index-level arithmetic -------------------------------------------------

    def add_idx(self, i: int, j: int) -> int:
        p = self.p
        if p == 2:
            return i ^ j
        out, s = i + j, p  # the digit sums, less p^(k+1) for each digit k whose sum passes p
        while j:
            i, a = divmod(i, p)
            j, b = divmod(j, p)
            if a + b >= p:
                out -= s
            s *= p
        return out

    def neg_idx(self, i: int) -> int:
        if self.p == 2 or i == 0:
            return i
        return self.exp[(self.log[i] + (self.q - 1) // 2) % (self.q - 1)]  # -1 = x^((q-1)/2)

    def mul_idx(self, i: int, j: int) -> int:
        if i == 0 or j == 0:
            return 0
        return self.exp[(self.log[i] + self.log[j]) % (self.q - 1)]

    def pow_idx(self, i: int, e: int) -> int:
        if i == 0:
            if e == 0:
                return 1  # the index of 1
            if e < 0:
                raise ZeroDivisionError("inverse of zero in F_q")
            return 0
        return self.exp[(self.log[i] * e) % (self.q - 1)]

    def frob_idx(self, i: int, k: int = 1) -> int:
        return self.pow_idx(i, self.p ** (k % self.n))

    def trace_idx(self, i: int) -> int:
        """Trace to F_p, the sum of the n conjugates, returned as an int in [0, p)."""
        acc = 0
        for _ in range(self.n):
            acc, i = self.add_idx(acc, i), self.frob_idx(i)
        if acc >= self.p:  # a coefficient past the constant one
            raise PrecisionError("trace landed outside the prime field")
        return acc

    # element-level API ------------------------------------------------------

    def element(self, coeffs) -> "FqElem":
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) != self.n:
            raise ValueError(f"need {self.n} coefficients")
        return FqElem(self, self._encode(coeffs))

    def from_idx(self, idx: int) -> "FqElem":
        check_int("residue index", idx, -INF)
        if not 0 <= idx < self.q:
            raise ValueError(f"residue index {idx} outside [0, {self.q})")
        return FqElem(self, idx)

    @property
    def zero(self) -> "FqElem":
        return FqElem(self, 0)

    @property
    def one(self) -> "FqElem":
        return FqElem(self, 1)

    @property
    def gen(self) -> "FqElem":
        """The residue wb of the Teichmuller generator."""
        return FqElem(self, self.gen_idx)

    def elements(self):
        return (FqElem(self, i) for i in range(self.q))

    def __repr__(self):
        return f"F_{self.q}"


class FqElem:
    """An element of F_q in the power basis 1, wb, ..., wb^(n-1)."""

    __slots__ = ("field", "idx")

    def __init__(self, field: Fq, idx: int):
        self.field = field
        self.idx = idx

    @property
    def coeffs(self) -> tuple:
        return self.field._decode(self.idx)

    @property
    def is_zero(self) -> bool:
        return self.idx == 0

    def __bool__(self):
        return self.idx != 0

    def _check(self, other):
        if self.field is not other.field:
            raise ValueError("elements of different fields")

    def __add__(self, other):
        self._check(other)
        return FqElem(self.field, self.field.add_idx(self.idx, other.idx))

    def __sub__(self, other):
        self._check(other)
        return FqElem(self.field, self.field.add_idx(self.idx, self.field.neg_idx(other.idx)))

    def __neg__(self):
        return FqElem(self.field, self.field.neg_idx(self.idx))

    def __mul__(self, other):
        self._check(other)
        return FqElem(self.field, self.field.mul_idx(self.idx, other.idx))

    def __pow__(self, e: int):
        return FqElem(self.field, self.field.pow_idx(self.idx, e))

    def inverse(self):
        return self ** -1

    def frobenius(self, k: int = 1):
        return FqElem(self.field, self.field.frob_idx(self.idx, k))

    def trace(self) -> int:
        return self.field.trace_idx(self.idx)

    def __eq__(self, other):
        return isinstance(other, FqElem) and self.field is other.field and self.idx == other.idx

    def __hash__(self):
        return hash((id(self.field), self.idx))

    def __repr__(self):
        return _poly_repr(self.coeffs, "wb")


def fq_field(p: int, n: int, poly=None) -> Fq:
    """The residue field, cached on poly mod p: an integer lift and its reduction share one Fq."""
    return _fq_field_cached(p, n, tuple(c % p for c in _normalize_poly(p, n, poly)))


def _normalize_poly(p: int, n: int, poly) -> tuple:
    """The one input check on (p, n, poly): p prime, n >= 1, poly the default or monic of degree n.

    Whether poly is irreducible and primitive mod p is decided by building its Fq,
    which a supplied poly reaches only for p^n <= _FIELD_LIMIT.
    """
    check_prime(p)
    check_int("n", n)
    if poly is None:
        if (p, n) not in DEFAULT_POLYS:
            raise ValueError(
                f"no default polynomial for (p, n) = ({p}, {n}); supply a primitive irreducible one"
            )
        return DEFAULT_POLYS[(p, n)]
    if n >= _FIELD_LIMIT.bit_length() or p**n > _FIELD_LIMIT:  # p^n > 2^n, so n bounds it first
        raise ValueError(f"F_{p}^{n} is above the bound of {_FIELD_LIMIT} field elements")
    poly = tuple(int(c) for c in poly)
    if len(poly) != n + 1 or poly[n] != 1:
        raise ValueError(f"need a monic degree-{n} polynomial, got {poly}")
    return poly


_fq_field_cached = lru_cache(maxsize=None)(Fq)


# ---------------------------------------------------------------------------
# the Witt ring


class WittRing:
    """W(F_{p^n}) mod p^M on the basis 1, w, ..., w^(n-1), w Teichmuller."""

    def __init__(self, params, n, defining_poly, omega_pows, frobenius_matrix, fq):
        self.params = params
        self.n = n
        self.q = params.p ** n
        self.defining_poly = defining_poly
        self._omega_pows = omega_pows
        self.frobenius_matrix = frobenius_matrix
        self.fq = fq
        sig = [identity_matrix(n)]
        for _ in range(n - 1):
            sig.append(mat_mul([list(r) for r in frobenius_matrix], sig[-1], params.modulus))
        self._sigma_pows = [tuple(tuple(r) for r in m) for m in sig]
        self._mul = _product(omega_pows, n, params.modulus)
        self._teich_cache = {}

    # constructors ----------------------------------------------------------

    def from_coords(self, coords) -> "WittElem":
        coords = tuple(int(c) % self.params.modulus for c in coords)
        if len(coords) != self.n:
            raise ValueError(f"need {self.n} coordinates")
        return WittElem(self, coords)

    def from_int(self, c: int) -> "WittElem":
        return WittElem(self, (c % self.params.modulus,) + (0,) * (self.n - 1))

    def zero(self) -> "WittElem":
        return self.from_int(0)

    def one(self) -> "WittElem":
        return self.from_int(1)

    @property
    def omega(self) -> "WittElem":
        # for n = 1 the table entry at degree 1 is the Teichmuller scalar itself
        return WittElem(self, self._omega_pows[1])

    def apply_sigma(self, coords: tuple, k: int = 1) -> tuple:
        if k % self.n == 0:
            return coords
        return tuple(mat_vec(self._sigma_pows[k % self.n], coords, self.params.modulus))

    def __repr__(self):
        return f"W(F_{self.q}) mod {self.params.p}^{self.params.M}"


class CoordElem:
    """A ring and one tuple of coordinates mod p^M: the arithmetic that is linear.

    Subclasses supply __mul__ and inverse; powers and Newton inversion go through them.
    """

    __slots__ = ("ring", "coords")

    def __init__(self, ring: WittRing, coords: tuple):
        self.ring = ring
        self.coords = coords

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.ring is not other.ring:
            raise ValueError("incompatible rings")

    def __add__(self, other):
        self._check(other)
        mod = self.ring.params.modulus
        return type(self)(self.ring, tuple((a + b) % mod for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        mod = self.ring.params.modulus
        return type(self)(self.ring, tuple((a - b) % mod for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        mod = self.ring.params.modulus
        return type(self)(self.ring, tuple((-a) % mod for a in self.coords))

    def scale(self, c: int):
        mod = self.ring.params.modulus
        return type(self)(self.ring, tuple(a * c % mod for a in self.coords))

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        if e == 0:
            # the identity is the first basis vector in both the Witt ring and the order
            return type(self)(self.ring, (1,) + (0,) * (len(self.coords) - 1))
        return binary_power(self, e, mul)

    def _newton_inverse(self, y, steps: int):
        """Refine a first guess y of the inverse by y <- y + y(1 - xy); checks x y = 1."""
        one = self ** 0
        for _ in range(steps):
            err = one - self * y
            if err.is_zero:  # x y = 1 is checked
                return y
            y = y + y * err
        if self * y != one:
            raise PrecisionError("unit inversion failed to converge")
        return y

    def __eq__(self, other):
        return type(other) is type(self) and self.ring is other.ring and self.coords == other.coords

    def __hash__(self):
        return hash((id(self.ring), self.coords))

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)


class WittElem(CoordElem):
    """An element of the truncated Witt ring, coordinates on the w-power basis.

    Coordinates are kept reduced, in [0, p^M); the packed product's slot width relies on it.
    """

    __slots__ = ()

    def __mul__(self, other):
        self._check(other)
        return WittElem(self.ring, self.ring._mul(self.coords, other.coords))

    @property
    def is_unit(self) -> bool:
        return not self.residue().is_zero

    def residue(self) -> FqElem:
        p = self.ring.params.p
        return self.ring.fq.element(tuple(c % p for c in self.coords))

    def frobenius(self, k: int = 1) -> "WittElem":
        return WittElem(self.ring, self.ring.apply_sigma(self.coords, k))

    def trace(self) -> PadicInt:
        """Sum of the n Frobenius conjugates; lands in Z_p exactly."""
        acc = self
        for k in range(1, self.ring.n):
            acc = acc + self.frobenius(k)
        if any(acc.coords[1:]):
            raise PrecisionError("trace not Galois-invariant at precision")
        return PadicInt(self.ring.params, acc.coords[0])

    def inverse(self) -> "WittElem":
        """Newton iteration y <- y(2 - xy) from a lift of the residue inverse."""
        r = self.residue()
        if r.is_zero:
            raise ValueError("not a unit in W")
        y = self.ring.from_coords(r.inverse().coeffs)
        return self._newton_inverse(y, self.ring.params.M.bit_length() + 2)

    def div_exact_p(self) -> "WittElem":
        p = self.ring.params.p
        if any(c % p for c in self.coords):
            raise ValueError("not divisible by p")
        return WittElem(self.ring, tuple(c // p for c in self.coords))

    def teich_digits(self, count: int) -> list:
        """First `count` Teichmuller digits: w = sum_j teich(d_j) p^j."""
        if count > self.ring.params.M:
            raise ValueError("digit count exceeds precision")
        out = []
        w = self
        for _ in range(count):
            d = w.residue()
            out.append(d)
            w = (w - teichmuller(self.ring, d)).div_exact_p()
        return out

    def __repr__(self):
        return _poly_repr(self.coords, "w")


def teichmuller(ring: WittRing, x: FqElem) -> WittElem:
    """The Teichmuller lift of x = gen^j: omega^j, as omega^(q-1) = 1 exactly."""
    if x.field is not ring.fq:
        raise ValueError("residue from a different field")
    cached = ring._teich_cache.get(x.idx)
    if cached is not None:
        return cached
    z = ring.zero() if x.is_zero else ring.omega ** ring.fq.log[x.idx]
    ring._teich_cache[x.idx] = z
    return z


def make_ring(p: int, n: int, M: int, poly=None) -> WittRing:
    """Build W(F_{p^n}) mod p^M.

    (p, n) must be in the default table, or `poly` a monic degree-n integer
    polynomial whose reduction mod p is irreducible and primitive, and M at
    most _PRECISION_LIMIT.  Rings are cached on poly mod p, so equal rings
    are the identical object.
    """
    poly = tuple(c % p for c in _normalize_poly(p, n, poly))
    check_int("precision M", M)  # before the cache, where M = True would find the ring of M = 1
    if M > _PRECISION_LIMIT:
        raise ValueError(f"precision M = {M} is above the bound of {_PRECISION_LIMIT} Witt digits")
    return _make_ring_cached(p, n, M, poly)


@lru_cache(maxsize=None)
def _make_ring_cached(p: int, n: int, M: int, poly: tuple) -> WittRing:
    params = PadicParams(p, M)
    mod = params.modulus
    fq = _fq_field_cached(p, n, poly)  # make_ring has checked and reduced poly

    # arithmetic in the x-power basis of Z[x]/(f, p^M)
    f_pows = _power_table(tuple(-c for c in poly[:n]), n, mod)
    f_mul = _product(f_pows, n, mod)
    # Newton on z^(q-1) = 1 from z = x, reading z^(q-1) as 1 in the derivative
    z, one, scale = f_pows[1], f_pows[0], pow(1 - fq.q, -1, mod)
    for _ in range(M.bit_length() + 2):
        err = binary_power(z, fq.q - 1, f_mul)
        if err == one:
            break
        zerr = f_mul(z, tuple((e - u) * scale % mod for e, u in zip(err, one)))
        z = tuple((a + b) % mod for a, b in zip(z, zerr))
    else:
        raise PrecisionError("Teichmuller iteration did not stabilize")

    # change of basis to powers of the Teichmuller generator: solve B c = z^n, where
    # B's columns z^j are x^j mod p, so B = I mod p and every diagonal pivot is a unit
    cols = [one]
    for _ in range(n):
        cols.append(f_mul(cols[-1], z))
    rows = [list(row) for row in zip(*cols)]  # [B | z^n]
    for j, piv in enumerate(rows):
        inv = pow(piv[j], -1, mod)
        piv[:] = [a * inv % mod for a in piv]
        for row in rows:
            if row is not piv and (f := row[j]):
                row[:] = [(a - f * b) % mod for a, b in zip(row, piv)]
    c = [row[n] for row in rows]  # w^n = sum c_j w^j
    defining_poly = tuple([(-cj) % mod for cj in c] + [1])
    omega_pows = _power_table(tuple(c), n, mod)

    # Frobenius matrix: columns are coordinates of (w^p)^j
    w_mul = _product(omega_pows, n, mod)
    wp = binary_power(omega_pows[1], p, w_mul)
    cols = [omega_pows[0]]
    for _ in range(n - 1):
        cols.append(w_mul(cols[-1], wp))

    if tuple(cc % p for cc in defining_poly) != fq.poly:
        raise PrecisionError("basis change drifted mod p")
    ring = WittRing(params, n, defining_poly, omega_pows, tuple(zip(*cols)), fq)

    # exactness checks: sigma^n = id and w^(q-1) = 1 on the nose
    Fn = mat_mul(
        [list(r) for r in ring.frobenius_matrix],
        [list(r) for r in ring._sigma_pows[n - 1]],
        mod,
    )
    if Fn != identity_matrix(n):
        raise PrecisionError("Frobenius matrix does not have exact order n")
    if ring.omega ** (fq.q - 1) != ring.one():
        raise PrecisionError("Teichmuller generator order check failed")
    return ring
