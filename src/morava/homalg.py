"""Continuous cohomology of small profinite groups on finite-rank Z_p-modules.

Everything is computed at precision p^M through Smith normal forms.  A
kernel at precision means a diagonal entry indistinguishable from zero mod
p^M; such summands are reported as free with the precision caveat rather
than as spurious large torsion.
"""

from functools import lru_cache

from morava.padic import (
    INF,
    CyclicDecomp,
    PadicParams,
    PrecisionError,
    binary_power,
    check_int,
    check_prime,
    cyclic_decomp,
    identity_matrix,
    invert_matrix,
    mat_mul,
    mat_vec,
    nu_p,
    record,
    smith_normal_form,
)


@record
class ZpModuleWithOperator:
    """Z_p^rank mod p^M together with one endomorphism."""

    params: PadicParams
    matrix: tuple

    def __post_init__(self):
        ints = lambda r: isinstance(r, (list, tuple)) and all(type(c) is int for c in r)
        if not (isinstance(self.matrix, (list, tuple)) and all(map(ints, self.matrix))):
            raise ValueError("operator matrix must be a list of rows of integers")
        rows = tuple(tuple(c % self.params.modulus for c in r) for r in self.matrix)
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("operator matrix must be square")
        object.__setattr__(self, "matrix", rows)

    @property
    def rank(self) -> int:
        return len(self.matrix)


@record
class CohomologyGroup:
    """One cohomology group: degree, decomposition, and where it came from."""

    s: int
    decomp: CyclicDecomp
    provenance: str = ""

    @property
    def is_zero(self) -> bool:
        return self.decomp.is_zero

    def __str__(self):
        return f"H^{self.s} = {self.decomp}"


def _sub(A, B, mod):
    return [[(a - b) % mod for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def _norm(g, m: int, mod: int) -> list:
    """N_m = 1 + g + ... + g^(m-1), from (g, 1)^m = (g^m, N_m) under (A, N)(B, L) = (AB, N + AL)."""

    def compose(x, y):
        gn = mat_mul(x[0], y[1], mod)
        n_sum = [[(a + b) % mod for a, b in zip(*rows)] for rows in zip(x[1], gn)]
        return mat_mul(x[0], y[0], mod), n_sum

    return binary_power((g, identity_matrix(len(g))), m, compose)[1]


def _kernel_indices(snf) -> list:
    cols = snf.shape[1]
    return [j for j in range(cols) if j >= len(snf.diag) or snf.diag[j] == 0]


def _subquotient_orders(kernel_of, image_of, params: PadicParams) -> list:
    """Orders of ker(A)/im(B) in Z_p^r at precision.

    B's columns must land in ker(A).  Their coordinates on the kernel basis
    (columns of V at zero diagonal positions) present the quotient; the
    coordinates at nonzero positions are truncation noise of size at least
    p^(M - e) and are dropped.
    """
    mod = params.modulus
    snf = smith_normal_form(kernel_of, params)
    idx = _kernel_indices(snf)
    if not idx:
        return []
    V = [list(r) for r in snf.V]
    V_inv = invert_matrix(V, params)
    relations = []
    for j in range(len(image_of[0])):
        b = [image_of[i][j] % mod for i in range(len(image_of))]
        c = mat_vec(V_inv, b, mod)
        relations.append([c[i] for i in idx])
    R = [[rel[i] for rel in relations] for i in range(len(idx))]
    return list(smith_normal_form(R, params).cokernel_orders())


def _invariants(gm1_snf, p: int) -> CohomologyGroup:
    """H^0 = ker(g - 1), read off the Smith normal form of g - 1."""
    k = len(_kernel_indices(gm1_snf))
    h0 = CyclicDecomp(p, [INF] * k, precision_caveat=k > 0)
    return CohomologyGroup(0, h0, "kernel of g - 1 at precision")


def iwasawa_cohomology(module: ZpModuleWithOperator) -> tuple:
    """H^0 and H^1 of a pro-cyclic p-adic group acting through one operator g.

    H^0 = ker(g - 1) and H^1 = coker(g - 1); higher degrees vanish.
    """
    params = module.params
    mod = params.modulus
    A = _sub(module.matrix, identity_matrix(module.rank), mod)
    snf = smith_normal_form(A, params)
    h1_orders = list(snf.cokernel_orders())
    h1 = CyclicDecomp(params.p, h1_orders, precision_caveat=INF in h1_orders)
    return _invariants(snf, params.p), CohomologyGroup(1, h1, "cokernel of g - 1")


def cyclic_cohomology(module: ZpModuleWithOperator, m: int, s: int) -> CohomologyGroup:
    """H^s of Z/m acting through g with g^m = 1.

    Standard periodic resolution: H^0 = ker(g-1), odd H^s = ker(N)/im(g-1),
    even H^s = ker(g-1)/im(N), with N = 1 + g + ... + g^(m-1).
    """
    check_int("group order", m)
    params = module.params
    mod = params.modulus
    gm1 = _sub(module.matrix, identity_matrix(module.rank), mod)
    N = _norm(module.matrix, m, mod)
    if any(map(any, mat_mul(gm1, N, mod))):  # (g - 1) N = g^m - 1
        raise ValueError(f"not a valid action: operator order does not divide {m}")
    check_int("degree s", s, 0)
    if s == 0:
        return _invariants(smith_normal_form(gm1, params), params.p)
    if s % 2:
        orders = _subquotient_orders(N, gm1, params)
        prov = "ker(norm) / im(g - 1)"
    else:
        orders = _subquotient_orders(gm1, N, params)
        prov = "ker(g - 1) / im(norm)"
    return CohomologyGroup(
        s, CyclicDecomp(params.p, orders, precision_caveat=INF in orders), prov
    )


# ---------------------------------------------------------------------------
# the height-one arithmetic: cohomology of the units acting on E_t


def cm_order(p: int, r: int, t: int) -> object:
    """H^r(C_m, E_t) for even t and r >= 0 as an order: INF, 2, or 1 (zero).

    C_m is the torsion of Z_p^x (m = 2 at p = 2, else p - 1), acting on the
    weight-t/2 line through its character, which is trivial when m divides t/2.
    At p = 2 the trivial action gives Z_2, 0, Z/2, 0, Z/2, ... and the sign
    action 0, Z/2, 0, Z/2, ...; at odd p, m is prime to p and only H^0 survives.
    """
    if r == 0:
        return INF if t % (4 if p == 2 else 2 * p - 2) == 0 else 1
    return 2 if p == 2 and (r % 2 == 0) == (t % 4 == 0) else 1


def _lambda_valuation(p: int, m: int) -> int:
    """nu_p((p+1)^m - 1) for m >= 1 by lifting the exponent (psi_valuation_report checks it)."""
    if p == 2 and m % 2:
        return 1
    return nu_p(m, p) + (2 if p == 2 else 1)


def psi_minus_one(p: int, order, t: int) -> tuple:
    """(ker, coker) of psi - 1 on one cyclic summand of the given order (1 zero, INF free) in degree t."""
    # psi - 1 is 0 on a finite summand and on Z_p at t = 0; on Z_p at t != 0 it is (p+1)^(t/2) - 1
    if order != INF or not t:
        return order, order
    return 1, p ** _lambda_valuation(p, abs(t // 2))


def g1_cell(p: int, s: int, t: int) -> tuple:
    """(order, reason, row) of H^s(G_1, E_t) for s >= 0: order 1 is zero, INF free.

    G_1 = C_m x Z_p, and the quotient by C_m is pro-cyclic on psi = p + 1,
    giving for each s a short exact sequence coker(psi - 1 on H^(s-1)(C_m))
    -> H^s(G_1) -> ker(psi - 1 on H^s(C_m)).  psi acts by (p+1)^(t/2) on
    H^0(C_m) and trivially on the torsion layers, and only one side is ever
    nonzero.  reason is a constant, "ker" or "coker" for the side or why the cell
    is zero; row is the degree of the C_m class the cell comes from (None if zero).
    """
    if p == 2:
        if t % 2:
            return 1, "odd internal degree", None
    elif t % (2 * p - 2):
        return 1, "torsion character is nontrivial", None
    ker_part = cm_order(p, s, t)
    coker_part = cm_order(p, s - 1, t) if s else 1
    if s == 0:  # psi - 1 moves H^0(C_m) only: the kernel side of row 0, the cokernel side of row 1
        ker_part = psi_minus_one(p, ker_part, t)[0]
    elif s == 1:
        coker_part = psi_minus_one(p, coker_part, t)[1]
    if ker_part != 1 and coker_part != 1:
        raise PrecisionError("both sides of the exact sequence are nonzero")
    if ker_part != 1:
        return ker_part, "ker", s
    if coker_part != 1:
        return coker_part, "coker", s - 1
    return 1, "zero on both sides", None


@lru_cache(maxsize=1024)  # one group per distinct cell value: an E_1 grid holds few
def _g1_group(p: int, s: int, order, reason: str, row) -> CohomologyGroup:
    if row is not None:
        reason = f"{reason}(psi - 1) on H^{row}(C_{2 if p == 2 else p - 1})"
    return CohomologyGroup(s, cyclic_decomp(p, (order,), order == INF), reason)


def g1_cohomology_E1(p: int, s: int, t: int) -> CohomologyGroup:
    """H^s of the height-one stabilizer on the weight-t/2 line: g1_cell, free parts certified at precision.

    Every call checks its input and runs g1_cell; the group is then shared, frozen, between
    the cells of equal value (p, s, order, reason, row), keyed on what the formula returned.
    """
    check_prime(p)
    check_int("degree s", s, 0)
    if type(t) is not int:  # a test, not a call: every E_1 cell passes here
        check_int("degree t", t, -INF)
    return _g1_group(p, s, *g1_cell(p, s, t))
