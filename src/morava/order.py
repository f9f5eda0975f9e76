"""The noncommutative order W<S>/(S^n = p, S a = sigma(a) S) over a Witt ring.

Elements are written sum_{i<n} a_i S^i with a_i in W(F_q) mod p^M.  The two
relations make S-adic valuation v(S) = 1/n the basic filtration tool: every
element has v = min_i (i + n nu_p(a_i)) / n, and its S-adic Teichmuller digit
expansion interleaves the p-adic Teichmuller digits of the coefficients.
"""

from __future__ import annotations

from functools import cache, total_ordering
from operator import lshift, mul

from morava.padic import INF, check_int, load_json, nu_p, record
from morava.witt import CoordElem, PrecisionError, WittElem, WittRing, _kernel, make_ring, teichmuller


@total_ordering
@record
class SValuation:
    """v(x) = numerator / denominator with denominator = n.

    at_precision_cap marks an element indistinguishable from 0 mod p^M,
    where only the bound v >= n M / n = M is known.
    """

    numerator: int
    denominator: int
    at_precision_cap: bool = False

    @property
    def value(self) -> "Fraction":
        from fractions import Fraction  # here, not at the top: it loads decimal

        return Fraction(self.numerator, self.denominator)

    def __eq__(self, other):
        if isinstance(other, SValuation):
            return (self.value, self.at_precision_cap) == (other.value, other.at_precision_cap)
        return self.value == other and not self.at_precision_cap

    def __lt__(self, other):
        if isinstance(other, SValuation):
            return self.value < other.value
        return self.value < other

    def __hash__(self):
        # an uncapped valuation equals its Fraction, so it must hash like one
        return hash((self.value, True)) if self.at_precision_cap else hash(self.value)

    def __str__(self):
        v = self.value
        text = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        return f">= {text}" if self.at_precision_cap else text


class OrderElem(CoordElem):
    """sum a_i S^i, 0 <= i < n, stored flat: coords[n*i + j] is the w^j S^i coefficient.

    Coordinates are kept reduced, in [0, p^M); the packed product's slot width relies on it.
    """

    __slots__ = ()

    @property
    def parts(self) -> tuple:
        """The Witt coefficients a_0, ..., a_(n-1), as read-only views."""
        n = self.ring.n
        return tuple(WittElem(self.ring, self.coords[i : i + n]) for i in range(0, n * n, n))

    def __mul__(self, other):
        self._check(other)
        ring, n = self.ring, self.ring.n
        rows, shifts, reduce = _packing(ring)
        acc = 0
        for i, row in enumerate(rows):
            a = self.coords[n * i : n * i + n]
            if any(a):
                # (a S^i) y = a sigma^i(y) S^i; the first n shifts pack a
                acc += sum(map(lshift, a, shifts)) * sum(map(mul, other.coords, row))
        return OrderElem(ring, reduce(acc))

    @property
    def is_unit(self) -> bool:
        p = self.ring.params.p
        return any(c % p for c in self.coords[: self.ring.n])

    def galois_sigma(self, k: int = 1) -> "OrderElem":
        """Coefficientwise Frobenius; this is conjugation by S."""
        return _from_parts(self.ring, [a.frobenius(k) for a in self.parts])

    def s_valuation(self) -> SValuation:
        n, p = self.ring.n, self.ring.params.p
        v = min((idx // n + n * nu_p(c, p) for idx, c in enumerate(self.coords) if c), default=None)
        if v is None:
            return SValuation(n * self.ring.params.M, n, at_precision_cap=True)
        return SValuation(v, n)

    def s_digits(self, count: int) -> list:
        """First `count` S-adic Teichmuller digits, elements of F_q."""
        n = self.ring.n
        check_int("digit count", count, 0)
        if count > n * self.ring.params.M:
            raise ValueError("digit count exceeds precision")
        cols = [a.teich_digits((count - i + n - 1) // n) for i, a in enumerate(self.parts)]
        return [cols[k % n][k // n] for k in range(count)]

    def inverse(self) -> "OrderElem":
        """Two-sided inverse of a unit, by Newton iteration y <- y(2 - xy) from the inverse y = sum b_m S^m
        in O/p = F_q<S>/(S^n), lifted: 1 - xy is divisible by p, so M.bit_length() steps square it away.
        On residues x y = 1 reads b_0 = a_0^-1 and b_m = -a_0^-1 sum_(0<i<=m) a_i sigma^i(b_(m-i))."""
        if not self.is_unit:
            raise ValueError("not a unit in the order")
        ring, n, p, fq = self.ring, self.ring.n, self.ring.params.p, self.ring.fq
        a = [fq._encode([c % p for c in self.coords[k : k + n]]) for k in range(0, n * n, n)]
        b = [fq.pow_idx(a[0], -1)]
        for m in range(1, n):
            acc = 0
            for i in range(1, m + 1):
                acc = fq.add_idx(acc, fq.mul_idx(a[i], fq.frob_idx(b[m - i], i)))
            b.append(fq.mul_idx(fq.neg_idx(b[0]), acc))
        y = OrderElem(ring, tuple(c for idx in b for c in fq._decode(idx)))
        y = self._newton_inverse(y, ring.params.M.bit_length() + 2)
        if y * self != order_one(ring):
            raise PrecisionError("unit inversion failed to converge")
        return y

    def to_json(self) -> dict:
        return {
            "p": self.ring.params.p,
            "n": self.ring.n,
            "M": self.ring.params.M,
            "coeffs": [list(a.coords) for a in self.parts],
        }

    def __repr__(self):
        terms = []
        for i, a in enumerate(self.parts):
            if a.is_zero:
                continue
            body = repr(a)
            if i == 0:
                terms.append(body)
                continue
            sp = "S" if i == 1 else f"S^{i}"
            if body == "1":
                terms.append(sp)
            else:
                wrapped = f"({body})" if " + " in body else body
                terms.append(f"{wrapped}*{sp}")
        return " + ".join(terms) if terms else "0"


@cache
def _packing(ring: WittRing) -> tuple:
    """(rows, shifts, reduce): the witt._kernel packing with one block per power of S.

    rows[i][n k + l] is sigma^i(w^l) S^k moved past S^i, in block i + k or times p
    in block i + k - n.  B bounds a slot, p n^4 p^(4M) for coordinates in [0, p^M).
    """
    n, p, mod = ring.n, ring.params.p, ring.params.modulus
    bits = 4 * mod.bit_length() + (p * n**4).bit_length()
    shifts, reduce = _kernel(ring._omega_pows, n, mod, n, bits)
    rows = []
    for i, sig in enumerate(ring._sigma_pows):
        cols = [sum(map(lshift, col, shifts)) for col in zip(*sig)]
        rows.append(tuple(
            (col if i + k < n else p * col) << shifts[n * ((i + k) % n)]
            for k in range(n) for col in cols
        ))
    return tuple(rows), shifts, reduce


# constructors ---------------------------------------------------------------


def _from_parts(ring: WittRing, parts) -> OrderElem:
    return OrderElem(ring, tuple(c for a in parts for c in a.coords))


def order_one(ring: WittRing) -> OrderElem:
    return from_witt(ring, ring.one())


def from_witt(ring: WittRing, w: WittElem) -> OrderElem:
    return OrderElem(ring, w.coords + (0,) * (ring.n * ring.n - ring.n))


def from_int(ring: WittRing, c: int) -> OrderElem:
    return from_witt(ring, ring.from_int(c))


def s_gen(ring: WittRing) -> OrderElem:
    """The uniformizer S; equal to p when n = 1."""
    if ring.n == 1:
        return from_int(ring, ring.params.p)
    return OrderElem(ring, (0,) * ring.n + (1,) + (0,) * (ring.n * ring.n - ring.n - 1))


def from_coeff_rows(ring: WittRing, rows) -> OrderElem:
    rows = list(rows)
    if len(rows) != ring.n:
        raise ValueError(f"need {ring.n} coefficient rows")
    return _from_parts(ring, [ring.from_coords(r) for r in rows])


def from_digits(ring: WittRing, digits) -> OrderElem:
    """Assemble sum teich(d_k) S^k from S-adic digits (F_q elements)."""
    n, p, zero = ring.n, ring.params.p, ring.fq.zero
    coords = [0] * (n * n)
    for k, d in enumerate(digits):
        i, j = k % n, k // n
        if j >= ring.params.M:
            raise ValueError("digit count exceeds precision")
        if d == zero:  # teich(0) = 0; a zero of another field still meets teichmuller's refusal
            continue
        for m, c in enumerate(teichmuller(ring, d).coords):
            coords[n * i + m] += c * p ** j
    mod = ring.params.modulus
    return OrderElem(ring, tuple(c % mod for c in coords))


def from_json(data) -> OrderElem:
    if isinstance(data, str):
        data = load_json(data)
    if not isinstance(data, dict):
        raise ValueError(f"order element JSON must be an object, got {type(data).__name__}")
    missing = [key for key in ("p", "n", "M", "coeffs") if key not in data]
    if missing:
        raise ValueError(f"order element JSON lacks {', '.join(map(repr, missing))}")
    if not isinstance(data["coeffs"], list) or not all(isinstance(row, list) for row in data["coeffs"]):
        raise ValueError("order element JSON 'coeffs' must be a list of lists")
    ring = make_ring(data["p"], data["n"], data["M"])
    for c in (c for row in data["coeffs"] for c in row):
        check_int("coefficient", c, -INF)
    return from_coeff_rows(ring, data["coeffs"])
