"""The graded Lie structure on the unit filtration and its abelianization.

Each graded piece of the strict unit filtration is a copy of F_q indexed by
a level k/n.  Commutators induce a bracket, the p-th power map induces an
operator P between levels, and both are verified here by brute force against
the group operations.  For strict units, [x, y] - 1 = (xy - yx)(yx)^-1 with
(yx)^-1 = 1 mod S, so gr[x, y] is the leading term of xy - yx at every
precision, and [x, y] = 1 exactly when xy = yx.  The abelianization report
assembles H_1 from the level quotients Q_k = F_q / D_k (D_k the span of
incoming brackets) chained together by the induced P operators.
"""

from morava.order import OrderElem, from_digits, order_one
from morava.padic import INF, CyclicDecomp, Echelon, check_int, check_prime, record
from morava.stabilizer import GrElem, leading_term
from morava.witt import Fq, FqElem, fq_field, make_ring

_BRUTE_FORCE_LIMIT = 1 << 16
_REPORT_WORK = 1 << 17  # most L * q a report takes: 1-15 us a unit, 1.4 s at (2, 1) (2-CPU Xeon)
_CHECK_WORK = 1 << 22  # most trials * n^2 (M + 64) bitlength(p) a check takes: 0.15-0.8 us a unit


# ---------------------------------------------------------------------------
# F_p-subspaces of F_q


class GrSubspace:
    """An F_p-subspace of F_q: coefficient vectors kept in one padic.Echelon."""

    def __init__(self, field: Fq):
        self.field = field
        self._echelon = Echelon(field.p)

    @property
    def dim(self) -> int:
        return len(self._echelon.rows)

    def copy(self) -> "GrSubspace":
        out = GrSubspace(self.field)
        out._echelon.rows = dict(self._echelon.rows)
        return out

    def _vector(self, x: FqElem) -> dict:
        if x.field is not self.field:
            raise ValueError(f"element of {x.field!r}, not of {self.field!r}")
        return dict(enumerate(x.coeffs))

    def contains(self, x: FqElem) -> bool:
        return not self._echelon.reduce(self._vector(x))

    def insert(self, x: FqElem) -> bool:
        """Add x to the space; True when the dimension grew."""
        return self._echelon.insert(self._vector(x))

    def basis(self) -> list:
        """The reduced row echelon basis, pivots ascending."""
        rows, n = self._echelon.rows, self.field.n
        return [self.field.element([rows[c].get(i, 0) for i in range(n)]) for c in sorted(rows)]

    def __eq__(self, other):
        return (
            isinstance(other, GrSubspace)
            and self.field is other.field
            and self._echelon.rows == other._echelon.rows
        )

    def __repr__(self):
        return f"<subspace of {self.field!r}, dim {self.dim}>"


def trace_kernel(field: Fq) -> GrSubspace:
    """ker(tr): the kernel of the trace row [tr(wb^j)], j < n, in the power basis."""
    trace = Echelon(field.p)
    trace.insert({j: field.trace_idx(field.p**j) for j in range(field.n)})
    out = GrSubspace(field)
    for vec in trace.kernel(field.n):
        out._echelon.insert(vec)
    return out


def full_space(field: Fq) -> GrSubspace:
    out = GrSubspace(field)
    out._echelon.rows = {i: {i: 1} for i in range(field.n)}
    return out


# ---------------------------------------------------------------------------
# the bracket and the power operator on graded pieces


def gr_bracket(x: GrElem, y: GrElem) -> GrElem:
    """[x, y] at level (k+l)/n: a b^(p^k) - b a^(p^l) on digits."""
    a, b = x.digit, y.digit
    if a.field is not b.field:
        raise ValueError("digits from different fields")
    digit = a * b.frobenius(x.k) - b * a.frobenius(y.k)
    return GrElem(x.k + y.k, digit)


def gr_power(x: GrElem) -> GrElem:
    """Image of the p-th power map on the level k/n piece.

    Below the boundary k(p-1) = n the digit is the twisted norm
    a^(1 + p^k + ... + p^((p-1)k)) at level pk/n; on the boundary the two
    contributions collide and add; above it only the additive part
    survives and the digit passes to level (k+n)/n unchanged.
    """
    a = x.digit
    p, n = a.field.p, a.field.n
    boundary = x.k * (p - 1)
    if boundary > n:
        return GrElem(x.k + n, a)
    norm = a
    for j in range(1, p):
        norm = norm * a.frobenius(j * x.k)
    if boundary < n:
        return GrElem(p * x.k, norm)
    return GrElem(p * x.k, a + norm)


def _one_plus_digit(ring, digit: FqElem, k: int) -> OrderElem:
    """The unit 1 + teich(digit) S^k, from its S-adic digits."""
    return from_digits(ring, [ring.fq.one] + [ring.fq.zero] * (k - 1) + [digit])


@record
class CheckReport:
    """Brute-force comparison of a graded formula against the group."""

    p: int
    n: int
    k: int
    l: int | None
    trials: int
    mismatches: int
    degenerate: int

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


def _check_vs_group(p, n, M, trials, seed, top, sample) -> tuple:
    """(mismatches, degenerate) over trials of sample(ring, draw): d and its expected leading term.

    draw() gives a random nonzero residue; top is the highest level the check reaches.  Refuses
    trials * n^2 (M + 64) bitlength(p) above _CHECK_WORK before building the ring.
    """
    check_int("trials", trials)
    check_int("n", n)
    check_int("precision M", M)  # make_ring checks them too, but only after the refusals below
    if top >= n * M:
        raise ValueError("levels exceed precision; raise M")
    check_prime(p)  # before p sizes a trial
    if trials * n * n * (M + 64) * p.bit_length() > _CHECK_WORK:
        raise ValueError(
            f"{trials} trials at (p, n, M) = ({p}, {n}, {M}) pass the {_CHECK_WORK}-unit bound"
        )
    import random  # here, not at the top: a cold command need not load it

    ring = make_ring(p, n, M)
    rng = random.Random(seed)
    draw = lambda: ring.fq.from_idx(rng.randrange(1, ring.q))
    mismatches = degenerate = 0
    for _ in range(trials):
        d, expected = sample(ring, draw)
        if expected.digit.is_zero:  # levels over the shared n; a zero d lies above all
            degenerate += 1
            mismatches += not d.is_zero and leading_term(d).k <= expected.k
        elif d.is_zero or leading_term(d) != expected:
            mismatches += 1
    return mismatches, degenerate


def check_bracket_vs_group(p, n, k, l, trials=50, M=16, seed=0) -> CheckReport:
    """Compare gr_bracket with gr[x, y] read off xy - yx: [x, y] - 1 = (xy - yx)(yx)^-1, (yx)^-1 = 1 mod S."""
    check_int("graded levels", k)
    check_int("graded levels", l)

    def sample(ring, draw):
        a, b = draw(), draw()
        x, y = _one_plus_digit(ring, a, k), _one_plus_digit(ring, b, l)
        return x * y - y * x, gr_bracket(GrElem(k, a), GrElem(l, b))

    return CheckReport(p, n, k, l, trials, *_check_vs_group(p, n, M, trials, seed, k + l, sample))


def check_power_vs_group(p, n, k, trials=50, M=16, seed=0) -> CheckReport:
    """Compare gr_power against p-th powers of 1 + teich(a) S^k."""
    check_int("graded levels", k)

    def sample(ring, draw):
        a = draw()
        return _one_plus_digit(ring, a, k) ** p - order_one(ring), gr_power(GrElem(k, a))

    counts = _check_vs_group(p, n, M, trials, seed, _phi(p, n, k), sample)
    return CheckReport(p, n, k, None, trials, *counts)


# ---------------------------------------------------------------------------
# spans of brackets


def commutator_span(p, n, k, l, poly=None) -> GrSubspace:
    """F_p-span of all bracket digits between levels k/n and l/n.

    The bracket is F_p-bilinear, so the brackets of the n^2 pairs of F_p-basis
    elements span the same space as the brackets of all q^2 pairs; the walk
    over them stops once the span is all of F_q.
    """
    check_int("graded levels", k)
    check_int("graded levels", l)
    field = fq_field(p, n, poly)
    basis = [field.from_idx(p**i) for i in range(n)]  # the power basis 1, wb, ..., wb^(n-1)
    span = GrSubspace(field)
    for a in basis:
        for b in basis:
            if span.insert(gr_bracket(GrElem(k, a), GrElem(l, b)).digit) and span.dim == n:
                return span
    return span


def predicted_span(p, n, k, l):
    """What the bracket span should be: ('full'|'ker_tr'|'sub_ker_tr', space).

    Exact answers hold when one level is 1; for general levels summing to
    an integer the span is only bounded above by the trace kernel.
    """
    check_int("graded levels", k)
    check_int("graded levels", l)
    field = fq_field(p, n)
    if (k + l) % n != 0:
        return ("full", full_space(field)) if min(k, l) == 1 else ("no_claim", None)
    if min(k, l) == 1:
        return ("ker_tr", trace_kernel(field))
    return ("sub_ker_tr", trace_kernel(field))


# ---------------------------------------------------------------------------
# abelianization


@record
class AbelianizationReport:
    """H_1 of the strict unit group, assembled from graded data up to level L.

    decomp is the integral answer; any free summand is certified only up to
    the truncation level and carries the precision caveat.  mod_p_decomp is
    H_1 tensored with Z/p.  generators maps each cyclic factor to a level
    and a leading digit witnessing it.
    """

    p: int
    n: int
    L: int
    decomp: CyclicDecomp
    mod_p_decomp: CyclicDecomp
    quotient_dims: dict
    chains: list
    generators: list

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "L": self.L,
            "integral": self.decomp.to_json(),
            "mod_p": self.mod_p_decomp.to_json(),
            "quotient_dims": {str(k): d for k, d in self.quotient_dims.items()},
            "chains": [
                {
                    "levels": [f"{k}/{self.n}" for k in ch["nodes"]],
                    "ends": ch["ends"],
                    "factor": ch["factor"],
                    "multiplicity": ch["dim"],
                }
                for ch in self.chains
            ],
            "generators": [
                {"level": f"{k}/{self.n}", "digit": repr(d), "order": o}
                for (k, d, o) in self.generators
            ],
        }


def _phi(p: int, n: int, k: int) -> int:
    return min(p * k, k + n)


def abelianization_report(p: int, n: int, L: int, poly=None) -> AbelianizationReport:
    """Assemble H_1 of the strict units from levels 1..L.

    Builds D_k as the span of all bracket digits landing at level k, taking
    spans only until D_k is all of F_q, and forms the quotients Q_k.  For each
    edge k -> t of the power operator P it checks P(a) - P'(a) in D_t for every
    a in F_q, P' the F_p-linear map that agrees with P on the basis e_j, built
    by index: P'(i) = P'(i - p^j) + P(e_j) for p^j <= i < p^(j+1).  This holds
    exactly when P(a + e) - P(a) - P(e) is in D_t for every a and basis vector
    e (a = 0 gives P(0) in D_t), so P is additive mod D_t; it is the only check
    that enumerates the field.  The rest is linear algebra on bases: P(D_k)
    lies in D_t (well-defined), and the rank of P(basis) modulo D_t classifies
    the induced map as zero or an isomorphism.  A chain of isos that ends in a
    zero map gives cyclic factors of order p^length, one that runs past L free
    summands certified only at this precision; H_1 tensored with Z/p is one
    Z/p per summand, read off the chains.  L q above _REPORT_WORK is refused first.
    """
    field = fq_field(p, n, poly)
    if field.q > _BRUTE_FORCE_LIMIT:
        raise ValueError("brute force out of range for this field size")
    check_int("L", L)
    if L * field.q > _REPORT_WORK:
        raise ValueError(f"L = {L} levels of F_{field.q} pass the {_REPORT_WORK}-unit bound")

    spans, D = {}, {}
    for k in range(1, L + 1):
        acc = GrSubspace(field)
        for k1 in range(1, min(k // 2, n) + 1):  # brackets see levels only mod n
            if acc.dim == n:  # a full D_k takes no more spans
                break
            key = (k1 % n, (k - k1) % n)
            if key not in spans:
                spans[key] = commutator_span(p, n, k1, k - k1, poly).basis()
            for b in spans[key]:
                if acc.insert(b) and acc.dim == n:
                    break
        D[k] = acc
    qdim = {k: n - D[k].dim for k in range(1, L + 1)}
    nonzero = [k for k in range(1, L + 1) if qdim[k] > 0]

    basis = full_space(field).basis()
    edges = {}
    for k in nonzero:
        t = _phi(p, n, k)
        if t > L:
            edges[k] = ("truncated", t)
            continue
        if qdim.get(t, 0) == 0:
            edges[k] = ("zero", t)
            continue
        images = [gr_power(GrElem(k, e)).digit for e in basis]
        linear = [field.zero]  # P' by index, one new digit per step
        for j, pe in enumerate(images):
            for i in range(p**j, p ** (j + 1)):
                linear.append(linear[i - p**j] + pe)
        for a, la in zip(field.elements(), linear):
            if not D[t].contains(gr_power(GrElem(k, a)).digit - la):
                raise ValueError(f"power operator not additive at level {k}/{n}")
        if not all(D[t].contains(gr_power(GrElem(k, d)).digit) for d in D[k].basis()):
            raise ValueError(f"power operator not well-defined at level {k}/{n}")
        image = D[t].copy()
        rank = sum(image.insert(x) for x in images)
        if rank == 0:
            edges[k] = ("zero", t)
        elif rank == qdim[k] == qdim[t]:
            edges[k] = ("iso", t)
        else:
            raise ValueError(f"induced power map at level {k}/{n} is neither zero nor iso")

    iso_targets = {t for (kind, t) in edges.values() if kind == "iso"}
    chains = []
    orders = []
    caveat = False
    generators = []
    for k in nonzero:
        if k in iso_targets:
            continue
        nodes = [k]
        while edges[nodes[-1]][0] == "iso":
            nodes.append(edges[nodes[-1]][1])
        kind = edges[nodes[-1]][0]
        d = qdim[k]
        if kind == "truncated":
            factor = INF
            caveat = True
            label = "Z_p"
        else:
            factor = p ** len(nodes)
            label = f"Z/{factor}"
        chains.append({"nodes": nodes, "ends": kind, "factor": label, "dim": d})
        orders.extend([factor] * d)
        # complement basis of D_k gives coset representatives generating the chain
        probe = D[k].copy()
        for e in basis:
            if probe.insert(e):
                generators.append((k, e, label))

    decomp = CyclicDecomp(p, orders, precision_caveat=caveat)
    # phi is injective, so Q_k mod its (at most one) incoming image is Q_k or 0
    mod_p_decomp = CyclicDecomp(p, [p] * len(orders))
    return AbelianizationReport(p, n, L, decomp, mod_p_decomp, qdim, chains, generators)
