"""Reference answers written from the mathematics, without importing morava.

Every check the benchmark makes compares a library output with a value from
this module.  The functions here use plain integers and their own small
F_q arithmetic (polynomials over F_p modulo the table's defining polynomial,
the same basis 1, wb, ..., wb^(n-1) the library addresses by index), so a
library defect cannot hide by agreeing with itself.
"""

from __future__ import annotations

from math import gcd

INF = float("inf")

# Monic lifts of the Conway polynomials, lowest degree first.  This is the
# library's default table, restated so the references depend on data only.
POLYS = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (5, 4): (2, 4, 4, 0, 1),
    (7, 2): (3, 6, 1),
    (7, 3): (4, 0, 6, 1),
    (7, 4): (3, 4, 5, 0, 1),
}


def nu(x: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def floor_log(m: int, p: int) -> int:
    """Largest e with p^e <= m, for m >= 1."""
    e = 0
    while p ** (e + 1) <= m:
        e += 1
    return e


# ---------------------------------------------------------------------------
# F_q = F_p[x]/(f), elements as coefficient tuples, lowest degree first


class Field:
    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self.q = p ** n
        self.f = tuple(c % p for c in POLYS[(p, n)])

    def decode(self, idx: int) -> tuple:
        out = []
        for _ in range(self.n):
            idx, c = divmod(idx, self.p)
            out.append(c)
        return tuple(out)

    def one(self) -> tuple:
        return (1,) + (0,) * (self.n - 1)

    def add(self, a, b) -> tuple:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b) -> tuple:
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b) -> tuple:
        p, n, f = self.p, self.n, self.f
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        for d in range(2 * n - 2, n - 1, -1):
            c = prod[d] % p
            if c:
                for i in range(n):
                    prod[d - n + i] -= c * f[i]
        return tuple(c % p for c in prod[:n])

    def pow(self, a, e: int) -> tuple:
        out = self.one()
        while e:
            if e & 1:
                out = self.mul(out, a)
            e >>= 1
            a = self.mul(a, a)
        return out

    def frob(self, a, k: int) -> tuple:
        return self.pow(a, self.p ** (k % self.n))

    def trace(self, a) -> int:
        acc = (0,) * self.n
        for k in range(self.n):
            acc = self.add(acc, self.frob(a, k))
        if any(acc[1:]):
            raise ArithmeticError("trace left the prime field")
        return acc[0]

    def norm(self, a) -> int:
        """N_{F_q/F_p}(a) = a^((q-1)/(p-1)), as an int in [0, p)."""
        out = self.pow(a, (self.q - 1) // (self.p - 1))
        if any(out[1:]):
            raise ArithmeticError("norm left the prime field")
        return out[0]


def rref(vectors, p: int) -> tuple:
    """Reduced row echelon form over F_p of the span of the vectors."""
    rows = []
    for vec in vectors:
        vec = [c % p for c in vec]
        for row in rows:
            piv = next(i for i, c in enumerate(row) if c)
            if vec[piv]:
                m = vec[piv]
                vec = [(v - m * r) % p for v, r in zip(vec, row)]
        if not any(vec):
            continue
        piv = next(i for i, c in enumerate(vec) if c)
        inv = pow(vec[piv], -1, p)
        vec = [v * inv % p for v in vec]
        rows = [[(r[i] - r[piv] * vec[i]) % p for i in range(len(r))] if r[piv] else r for r in rows]
        rows.append(vec)
    rows.sort(key=lambda r: next(i for i, c in enumerate(r) if c))
    return tuple(tuple(r) for r in rows)


# ---------------------------------------------------------------------------
# graded Lie data


def bracket_digit(F: Field, k: int, a, l: int, b) -> tuple:
    """[a at level k, b at level l] = a sigma^k(b) - b sigma^l(a)."""
    return F.sub(F.mul(a, F.frob(b, k)), F.mul(b, F.frob(a, l)))


def power_digit(F: Field, k: int, a) -> tuple:
    """(level, digit) of the p-th power of 1 + teich(a) S^k on gr."""
    p, n = F.p, F.n
    if k * (p - 1) > n:
        return k + n, tuple(a)
    norm = a
    for j in range(1, p):
        norm = F.mul(norm, F.frob(a, j * k))
    if k * (p - 1) < n:
        return p * k, norm
    return p * k, F.add(a, norm)


def span_rref(p: int, n: int, k: int, l: int) -> tuple:
    """Span of all brackets between levels k and l.

    The bracket is F_p-bilinear, so the brackets of basis pairs span it.
    """
    F = Field(p, n)
    basis = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    return rref([bracket_digit(F, k, a, l, b) for a in basis for b in basis], p)


def h1_orders(p: int, n: int) -> tuple:
    """H_1 of the strict units: Z_p + (Z/p)^n, one more Z/2 at p = 2."""
    return (INF,) + (p,) * (n + (1 if p == 2 else 0))


def h1_mod_p_rank(p: int, n: int) -> int:
    return n + 1 + (1 if p == 2 else 0)


# ---------------------------------------------------------------------------
# unit group


def torus_order(q: int, j: int) -> int:
    """Order of teich(wb^j): wb generates F_q^*, of order q - 1."""
    return (q - 1) // gcd(j, q - 1)


ORDER_THREE = 3


def strict_unit_order(p: int, n: int):
    """Strict units form a pro-p group with p-torsion only when (p - 1) | n,
    so otherwise no strict unit other than 1 has finite order: None."""
    if n % (p - 1) == 0:
        raise ValueError("strict units have p-torsion when (p - 1) divides n")
    return None


def teich_int(c: int, p: int, M: int) -> int:
    """The Teichmuller representative in Z/p^M of c in F_p^*."""
    return pow(c, p ** (M - 1), p ** M)


def norm_one_plus_teich_s(F: Field, a, M: int) -> int:
    """Nrd(1 + teich(a) S) = 1 - (-1)^n p teich(N(a)) mod p^M.

    (teich(a) S)^n = N(teich(a)) p, so teich(a) S has reduced characteristic
    polynomial X^n - p N(teich(a)).
    """
    p, n = F.p, F.n
    mod = p ** M
    na = F.norm(a)
    t = teich_int(na, p, M) if na else 0
    return (1 - (-1) ** n * p * t) % mod


# ---------------------------------------------------------------------------
# charts


def sphere_group(p: int, i: int) -> str:
    """pi_i of the K(1)-local sphere, as the library prints decompositions."""
    if p == 2:
        if i == 0:
            return "Z_2 + Z/2"
        if i == -1:
            return "Z_2"
        r = i % 8
        if r in (4, 5, 6):
            return "0"
        if r in (0, 2):
            return "Z/2"
        if r == 1:
            return "Z/2 + Z/2"
        if r == 3:
            return "Z/8"
        return f"Z/{2 ** (nu((i + 1) // 8, 2) + 4)}"
    if i in (0, -1):
        return f"Z_{p}"
    t = i + 1
    if t % (2 * (p - 1)):
        return "0"
    return f"Z/{p ** (nu(abs(t) // (2 * (p - 1)), p) + 1)}"


def ko_group(i: int) -> str:
    """Real K-theory: Z, Z/2, Z/2, 0, Z, 0, 0, 0 with period 8."""
    return {0: "Z_2", 1: "Z/2", 2: "Z/2", 4: "Z_2"}.get(i % 8, "0")


def psi_max_valuation(p: int, t_max: int) -> int:
    """max over t <= t_max of nu_p((p+1)^((p-1)t) - 1) = nu_p(t) + 1 (+3 at p = 2)."""
    return floor_log(t_max, p) + (3 if p == 2 else 1)


def g1_orders(p: int, s: int, t: int) -> tuple:
    """H^s(G_1, E_t) at height one, orders with INF for Z_p.

    Odd p: G_1 = mu_(p-1) x Z_p with the generator acting by (p+1)^(t/2);
    nu_p((p+1)^m - 1) = nu_p(m) + 1.  p = 2: the centre C_2 gives Z_2, 0,
    Z/2, ... on trivial weights and 0, Z/2, ... on sign weights, and psi = 3
    with nu_2(3^m - 1) = nu_2(m) + 2 for even m.
    """
    if t % 2:
        return ()
    if p == 2:
        if s == 0:
            return (INF,) if t == 0 else ()
        if s == 1:
            if t == 0:
                return (INF,)
            return (2 ** (nu(t, 2) + 1),) if t % 4 == 0 else (2,)
        return (2,)
    if t % (2 * (p - 1)):
        return ()
    if s in (0, 1) and t == 0:
        return (INF,)
    if s == 1:
        return (p ** (nu(t // (2 * (p - 1)), p) + 1),)
    return ()


# ---------------------------------------------------------------------------
# operator cohomology


def bareiss_det(matrix) -> int:
    """Exact integer determinant by fraction-free elimination."""
    a = [list(r) for r in matrix]
    k = len(a)
    sign, prev = 1, 1
    for c in range(k - 1):
        if a[c][c] == 0:
            swap = next((r for r in range(c + 1, k) if a[r][c]), None)
            if swap is None:
                return 0
            a[c], a[swap] = a[swap], a[c]
            sign = -sign
        for i in range(c + 1, k):
            for j in range(c + 1, k):
                a[i][j] = (a[i][j] * a[c][c] - a[i][c] * a[c][j]) // prev
        prev = a[c][c]
    return sign * a[k - 1][k - 1]


def iwasawa_h1_order(g, p: int) -> int:
    """|H^1| = |coker(g - 1)| = p^nu_p(det(g - 1)) when g - 1 is nonsingular."""
    d = bareiss_det([[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(g)])
    if d == 0:
        raise ValueError("g - 1 is singular")
    return p ** nu(d, p)


def cyclic_orders(p: int, m: int, s: int, trivial: int, regular: int, sign: int) -> tuple:
    """H^s(Z/m, M) for M = Z_p^trivial + Z_p[Z/m]^regular + Z_p(sign)^sign.

    Regular blocks are induced, so only H^0 sees them.  A trivial block has
    H^even = Z/m, H^odd = 0; the sign block (m even) has H^odd = Z_p/2.
    """
    if s == 0:
        return (INF,) * (trivial + regular)
    if s % 2 == 0:
        v = nu(m, p)
        return (p ** v,) * trivial if v else ()
    return (2,) * sign if p == 2 else ()
