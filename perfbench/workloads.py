"""The four workloads: seeded task lists, the calls they make, their checks.

A task is one library call together with its check.  Task lists are plain
tuples of ints built from the seed before morava is imported; the library
objects are built inside the task.  Every in-process runner returns
(result, observed, expected): result is the library's output, compared
between traced and untraced runs; observed must equal expected, which comes
from refs and never from morava.

The library is reached through module attributes at call time
(mv.grlie.commutator_span, ...), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import json
import random

import refs

INF = refs.INF


def _unit_rows(rng, p, n, M):
    """Witt coordinate rows of a random unit of the order (a_0 a unit)."""
    mod = p ** M
    rows = [[rng.randrange(mod) for _ in range(n)] for _ in range(n)]
    if rows[0][0] % p == 0:
        rows[0][0] += 1
    return rows


def _residue(rows, p):
    return tuple(c % p for c in rows[0])


# ---------------------------------------------------------------------------
# unit-group: order and Witt arithmetic at M = 16, norms up to n = 7 at M = 8

UG_PAIRS = [(2, 2), (3, 2), (5, 2), (7, 2), (2, 3), (3, 3), (5, 3), (2, 4)]
# four norms at n = 6: p90 falls among them, not between task kinds
UG_NORM_FIELDS = [(2, 5), (2, 6), (2, 6), (2, 6), (2, 6), (2, 7), (3, 4), (3, 5), (5, 4), (7, 3)]
UG_TRIALS = 4


def unit_group_tasks(rng, tiny):
    pairs = UG_PAIRS[:2] if tiny else UG_PAIRS
    tasks = [("order3",)]
    for index, (p, n) in enumerate(pairs):
        q = p ** n
        # the levels are fixed so that the work per round is; the digits are seeded
        for k, l in ((1, 2), (2, 3)):
            tasks.append(("bracket", p, n, k, l, rng.randrange(1 << 30)))
        tasks.append(("power", p, n, 1 + index % 4, rng.randrange(1 << 30)))
        for _ in range(2):
            tasks.append(("torus", p, n, rng.randrange(q - 1)))
        for _ in range(1 if tiny else 4):
            tasks.append(("inverse", p, n, _unit_rows(rng, p, n, 16)))
        tasks.append(("norm", p, n, 16, _unit_rows(rng, p, n, 16)))
        c = rng.randrange(p ** 16)
        tasks.append(("norm_s", p, n, rng.randrange(1, q), c if c % p else c + 1))
        if n % (p - 1):
            for _ in range(2):
                mod = p ** 16
                tasks.append(("strict", p, n, [[rng.randrange(mod) for _ in range(n)] for _ in range(n)]))
        if n % p:
            for _ in range(2):
                tasks.append(("split", p, n, _split_rows(rng, p, n)))
    if not tiny:
        for p, n in UG_NORM_FIELDS:
            tasks.append(("norm", p, n, 8, _unit_rows(rng, p, n, 8)))
    rng.shuffle(tasks)
    return tasks


def _split_rows(rng, p, n):
    mod = p ** 16
    rows = _unit_rows(rng, p, n, 16)
    if p != 2:
        # odd p needs a 1-unit scalar part for the central n-th root
        rows[0][0] = 1 + p * rng.randrange(mod // p)
        rows[0][1:] = [p * rng.randrange(mod // p) for _ in rows[0][1:]]
    return rows


def unit_group_setup(mv, tasks):
    keys = {(3, 2, 16) if t[0] == "order3" else (t[1], t[2], t[3] if t[0] == "norm" else 16) for t in tasks}
    return {key: mv.witt.make_ring(*key) for key in sorted(keys)}


def unit_group_run(mv, env, task):
    kind = task[0]
    if kind == "order3":
        x = mv.stabilizer.order3_element(env[(3, 2, 16)])
        found = mv.stabilizer.element_order(x)
        return found, found, refs.ORDER_THREE
    p, n = task[1], task[2]
    if kind in ("bracket", "power"):
        if kind == "bracket":
            k, l, seed = task[3:]
            rep = mv.grlie.check_bracket_vs_group(p, n, k, l, trials=UG_TRIALS, M=16, seed=seed)
        else:
            k, seed = task[3:]
            rep = mv.grlie.check_power_vs_group(p, n, k, trials=UG_TRIALS, M=16, seed=seed)
        out = (rep.trials, rep.mismatches, rep.degenerate)
        return out, out[:2], (UG_TRIALS, 0)
    if kind == "norm":
        M, rows = task[3], task[4]
        x = mv.order.from_coeff_rows(env[(p, n, M)], rows)
        value = mv.stabilizer.reduced_norm(x).value
        # the norm matrix is triangular mod p with diagonal sigma^i(a_0)
        return value, value % p, refs.Field(p, n).norm(_residue(rows, p))
    ring = env[(p, n, 16)]
    if kind == "torus":
        j = task[3]
        found = mv.stabilizer.element_order(mv.stabilizer.torus_embed(ring, ring.fq.gen ** j))
        return found, found, refs.torus_order(ring.q, j)
    if kind == "strict":
        one = mv.order.order_one(ring)
        y = mv.order.from_coeff_rows(ring, task[3]) * mv.order.s_gen(ring)
        x = mv.stabilizer.StabElem(one + y)
        found = mv.stabilizer.element_order(x, 1000)
        return found, (x.is_strict, found), (True, refs.strict_unit_order(p, n))
    if kind == "inverse":
        rows = task[3]
        x = mv.order.from_coeff_rows(ring, rows)
        y = x.inverse()
        one = mv.order.order_one(ring)
        F = refs.Field(p, n)
        y_res = tuple(c % p for c in y.parts[0].coords)
        observed = (x * y == one, y * x == one, F.mul(_residue(rows, p), y_res))
        return y.to_json()["coeffs"], observed, (True, True, F.one())
    if kind == "norm_s":
        a_idx, c = task[3], task[4]
        one = mv.order.order_one(ring)
        lift = mv.witt.teichmuller(ring, ring.fq.from_idx(a_idx))
        x = (one + mv.order.from_witt(ring, lift) * mv.order.s_gen(ring)).scale(c)
        value = mv.stabilizer.reduced_norm(x).value
        F = refs.Field(p, n)
        expected = pow(c, n, p ** 16) * refs.norm_one_plus_teich_s(F, F.decode(a_idx), 16) % p ** 16
        return value, value, expected
    if kind == "split":
        rows = task[3]
        x = mv.stabilizer.StabElem(mv.order.from_coeff_rows(ring, rows))
        x1, z = mv.stabilizer.s1_split(x)
        observed = (x1.elem.scale(z.value) == x.elem, pow(z.value, n, p))
        return (x1.elem.to_json()["coeffs"], z.value), observed, (True, refs.Field(p, n).norm(_residue(rows, p)))
    raise ValueError(f"unknown task {kind}")


# ---------------------------------------------------------------------------
# abelianize: F_q index arithmetic and graded Lie spans, no order arithmetic

# (p, n, L): the smallest L that reaches every chain end (2n at p = 2, n + 1 otherwise)
AB_REPORTS = [
    (2, 2, 4), (2, 3, 6), (2, 4, 8), (2, 5, 10), (2, 6, 12),
    (3, 2, 3), (3, 3, 4), (3, 4, 5), (5, 2, 3), (5, 3, 4), (7, 2, 3),
    (7, 3, 4),
]
AB_SPAN_FIELDS = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)]


def abelianize_tasks(rng, tiny):
    reports = AB_REPORTS[:3] if tiny else AB_REPORTS
    fields = AB_SPAN_FIELDS[:3] if tiny else AB_SPAN_FIELDS
    tasks = []
    for p, n, L in reports:
        # small fields also take a level more; their cost barely changes
        extra = rng.randrange(2) if p ** n <= 64 else 0
        tasks.append(("report", p, n, L + extra))
    for p, n in fields:
        # every level pair; one level further on the fields with q <= 64
        top = n + 1 if p ** n <= 64 else n
        for k in range(1, n + 1):
            for l in range(k, top + 1):
                tasks.append(("span", p, n, k, l))
    rng.shuffle(tasks)
    return tasks


def abelianize_setup(mv, tasks):
    return {(t[1], t[2]): mv.witt.fq_field(t[1], t[2]) for t in tasks}


def abelianize_run(mv, env, task):
    kind, p, n = task[:3]
    if kind == "report":
        r = mv.grlie.abelianization_report(p, n, task[3])
        observed = (r.decomp.orders, r.decomp.precision_caveat, r.mod_p_decomp.orders)
        expected = (refs.h1_orders(p, n), True, (p,) * refs.h1_mod_p_rank(p, n))
        return r.to_json(), observed, expected
    if kind == "span":
        k, l = task[3:]
        span = mv.grlie.commutator_span(p, n, k, l)
        observed = refs.rref([b.coeffs for b in span.basis()], p)
        return observed, observed, refs.span_rref(p, n, k, l)
    raise ValueError(f"unknown task {kind}")


# ---------------------------------------------------------------------------
# charts: chart engine, K(1) tables, cohomology, valuations; no Witt arithmetic


def _elementary(rng, size, mod, steps):
    """A random matrix of determinant 1 over Z and its inverse, mod mod."""
    P = [[int(i == j) for j in range(size)] for i in range(size)]
    Pinv = [row[:] for row in P]
    for _ in range(steps if size > 1 else 0):
        i, j = rng.sample(range(size), 2)
        c = rng.randrange(1, 7)
        # P <- E P with E = I + c e_ij; P^-1 <- P^-1 E^-1
        P[i] = [(a + c * b) % mod for a, b in zip(P[i], P[j])]
        for row in Pinv:
            row[j] = (row[j] - c * row[i]) % mod
    return P, Pinv


def _matmul(A, B, mod):
    return [[sum(a * b for a, b in zip(row, col)) % mod for col in zip(*B)] for row in A]


def _iwasawa_matrix(rng, p, M, size):
    mod = p ** M
    while True:
        # rows divisible by p^0, p^0, p^1, p^2, ...: fixed, so the cost per seed is
        A = [[rng.randrange(mod) * p ** (0, 0, 1, 2)[i % 4] % mod for _ in range(size)] for i in range(size)]
        g = [[(a + (i == j)) % mod for j, a in enumerate(row)] for i, row in enumerate(A)]
        d = refs.bareiss_det([[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(g)])
        if d and refs.nu(d, p) < M:
            return g


def _cyclic_module(rng, p, M, m, trivial, regular, sign):
    """g of order m on Z_p^trivial + Z_p[Z/m]^regular + Z_p(sign)^sign, randomly conjugated."""
    mod = p ** M
    size = trivial + regular * m + sign
    g0 = [[0] * size for _ in range(size)]
    for i in range(trivial):
        g0[i][i] = 1
    for r in range(regular):
        base = trivial + r * m
        for i in range(m):
            g0[base + (i + 1) % m][base + i] = 1
    for i in range(size - sign, size):
        g0[i][i] = mod - 1
    P, Pinv = _elementary(rng, size, mod, 3 * size)
    return _matmul(_matmul(P, g0, mod), Pinv, mod)


def charts_tasks(rng, tiny):
    """Window offsets, operator entries and conjugations are random; task
    sizes are fixed, so the work per round does not depend on the seed.

    The sizes also place p50 and p90 inside groups of equal tasks (the
    p = 3, 5 E_1 grids; eight p = 3 valuation reports right below the ten
    tables), so that neither lands on a boundary between task kinds.
    """
    tasks = []
    width2 = 200 if tiny else 2000
    for p, count, width in ((2, 1, width2), (3, 2, 4 * width2), (5, 2, 4 * width2)):
        for _ in range(count):
            lo = rng.randrange(-3000, 1000)
            tasks.append(("sphere", p, lo, lo + width - 1))
    for _ in range(2):
        lo = rng.randrange(-3000, 1000)
        tasks.append(("ko", lo, lo + width2 // 2 - 1))
    for p in (2, 5, 7):
        tasks.append(("psi", p, 500))
    for _ in range(1 if tiny else 8):
        tasks.append(("psi", 3, 2000))
    for i in range(3 if tiny else 40):
        t_lo = rng.randrange(-1000, 1000)
        tasks.append(("g1", 2 if i % 10 < 3 else (3, 5)[i % 2], 4, t_lo, t_lo + 199))
    for i in range(3 if tiny else 24):
        p, size = (2, 3, 5)[i % 3], 3 + i % 4
        tasks.append(("iwasawa", p, 12, _iwasawa_matrix(rng, p, 12, size)))
    shapes = [(m, blocks) for m in (2, 3, 4, 6) for blocks in ((1, 0, 0), (2, 1, 0), (1, 1, m % 2 == 0))]
    for i in range(3 if tiny else 20):
        p, (m, blocks) = (2, 3, 5)[i % 3], shapes[i % len(shapes)]
        blocks = tuple(int(b) for b in blocks)
        g = _cyclic_module(rng, p, 10, m, *blocks)
        tasks.append(("cyclic", p, 10, m, i % 5, g, blocks))
    rng.shuffle(tasks)
    return tasks


def charts_setup(mv, tasks):
    return {}


def charts_run(mv, env, task):
    kind = task[0]
    if kind in ("sphere", "ko"):
        if kind == "sphere":
            p, lo, hi = task[1:]
            table = mv.k1.homotopy_table(p, range(lo, hi + 1))
            ref = lambda i: refs.sphere_group(p, i)  # noqa: E731
        else:
            lo, hi = task[1:]
            table = mv.k1.ko_table(range(lo, hi + 1))
            ref = refs.ko_group
        stems = range(lo, hi + 1)
        observed = [str(table.group(i).decomp) for i in stems]
        expected = [ref(i) for i in stems]
        if kind == "sphere" and table.p == 2:
            # stems 3 mod 8 assemble as one cyclic group
            observed.append([table.group(i).joined for i in stems if i % 8 == 3])
            expected.append([True for i in stems if i % 8 == 3])
        return observed, observed, expected
    if kind == "psi":
        p, t_max = task[1:]
        rep = mv.k1.psi_valuation_report(p, t_max)
        observed = (rep.ok, rep.checked, rep.max_valuation)
        return rep.unit_residues, observed, (True, t_max, refs.psi_max_valuation(p, t_max))
    if kind == "g1":
        p, s_max, t_lo, t_hi = task[1:]
        cells = [(s, t) for s in range(s_max + 1) for t in range(t_lo, t_hi + 1)]
        observed = [mv.homalg.g1_cohomology_E1(p, s, t).decomp.orders for s, t in cells]
        return observed, observed, [refs.g1_orders(p, s, t) for s, t in cells]
    if kind == "iwasawa":
        p, M, g = task[1:]
        module = mv.homalg.ZpModuleWithOperator(mv.padic.PadicParams(p, M), tuple(map(tuple, g)))
        h0, h1 = mv.homalg.iwasawa_cohomology(module)
        size = 1
        for o in h1.decomp.orders:
            size *= o
        observed = (h0.decomp.orders, size)
        return (h0.decomp.orders, h1.decomp.orders), observed, ((), refs.iwasawa_h1_order(g, p))
    if kind == "cyclic":
        p, M, m, s, g, blocks = task[1:]
        module = mv.homalg.ZpModuleWithOperator(mv.padic.PadicParams(p, M), tuple(map(tuple, g)))
        observed = mv.homalg.cyclic_cohomology(module, m, s).decomp.orders
        return observed, observed, refs.cyclic_orders(p, m, s, *blocks)
    raise ValueError(f"unknown task {kind}")


IN_PROCESS = {
    "unit-group": (unit_group_tasks, unit_group_setup, unit_group_run),
    "abelianize": (abelianize_tasks, abelianize_setup, abelianize_run),
    "charts": (charts_tasks, charts_setup, charts_run),
}


# ---------------------------------------------------------------------------
# cli: one fresh interpreter per command; checks read the --json payload


def parse_decomp(text: str) -> tuple:
    """Orders of a printed decomposition such as "Z_2 + Z/8"; INF for Z_p."""
    text = text.split(" [", 1)[0].strip()
    if text == "0":
        return ()
    out = []
    for part in text.split(" + "):
        out.append(INF if part.startswith("Z_") else int(part.split("/", 1)[1]))
    return tuple(out)


def _stems(lo, hi):
    return f"{lo}..{hi}"


def cli_tasks(rng, tiny):
    """(kind, argv, params): the README examples plus seeded commands."""
    j = rng.randrange(1, 24)
    k, l = rng.randint(1, 3), rng.randint(1, 3)
    a, b = rng.randrange(1, 27), rng.randrange(1, 27)
    kp, ap = rng.randint(1, 3), rng.randrange(1, 25)
    np_ = rng.choice(((3, 2), (5, 2), (2, 3), (3, 3), (2, 4)))
    gp = rng.choice((2, 3, 5))
    g = _iwasawa_matrix(rng, gp, 10, 3)
    lo = rng.randrange(-600, 200)
    klos = [rng.randrange(-600, 200) for _ in range(4)]
    tasks = [
        ("order3", ["stab", "order", "-1/2*(1+w*S)"], ()),
        ("valuation", ["order", "val", "S^3"], ()),
        ("inverse_1s", ["order", "inv", "1+S", "--p", "5"], ()),
        ("trace", ["witt", "trace", "w", "--prec", "8"], ()),
        ("span", ["grlie", "span", "--p", "2", "--n", "2", "--k", "1", "--l", "1"], (2, 2, 1, 1)),
        ("abelianize", ["grlie", "abelianize", "--p", "3", "--n", "2", "--levels", "8"], (3, 2)),
        ("iwasawa", ["homalg", "iwasawa", "--matrix", "[[81]]", "--p", "2", "--prec", "12"], (2, [[81]])),
        ("sphere", ["k1", "homotopy", "--p", "2", "--stems", "-8..8"], (2, -8, 8)),
        ("ko", ["k1", "ko", "--stems", "0..16"], (0, 16)),
        ("psi", ["k1", "valuations", "--p", "3", "--tmax", "500"], (3, 500)),
        ("strict", ["stab", "order", "1+S", "--p", "5"], (5, 2)),
        ("norm_s", ["stab", "norm", "1+w*S", "--p", "2", "--n", "6", "--prec", "8"], (2, 6, 8)),
        ("sphere", ["k1", "homotopy", "--p", "2", "--stems", "-600..600"], (2, -600, 600)),
        ("g1", ["homalg", "g1", "--p", "3", "--s", "1", "--t", "36"], (3, 1, 36)),
        ("torus", ["stab", "order", f"w^{j}", "--p", "5"], (25, j)),
        ("bracket", ["grlie", "bracket", "--p", "3", "--n", "3", "--k", str(k), "--l", str(l), str(a), str(b)], (3, 3, k, a, l, b)),
        ("power", ["grlie", "power", "--p", "5", "--n", "2", "--k", str(kp), str(ap)], (5, 2, kp, ap)),
        ("norm_s", ["stab", "norm", "1+w*S", "--p", str(np_[0]), "--n", str(np_[1]), "--prec", "8"], (*np_, 8)),
        ("iwasawa", ["homalg", "iwasawa", "--matrix", json.dumps(g), "--p", str(gp), "--prec", "10"], (gp, g)),
        ("sphere", ["k1", "homotopy", "--p", "3", "--stems", _stems(lo, lo + 400)], (3, lo, lo + 400)),
        ("psi", ["k1", "valuations", "--p", "2", "--tmax", str(rng.randrange(200, 600))], (2, None)),
    ]
    # four KO windows of equal width: p90 falls among them, not between kinds
    tasks += [("ko", ["k1", "ko", "--stems", _stems(k, k + 200)], (k, k + 200)) for k in klos]
    if tiny:
        tasks = tasks[:3] + tasks[14:16]
    tasks = [(kind, argv + ["--json"], params) for kind, argv, params in tasks]
    rng.shuffle(tasks)
    return tasks


def cli_check(kind, argv, params, payload):
    """(observed, expected) for one command's JSON payload."""
    if kind == "order3":
        return (payload["order"], payload["precision"]), (refs.ORDER_THREE, 32)
    if kind == "valuation":
        return payload["valuation"], "3/2"
    if kind == "inverse_1s":
        # (1 + S)(1 - S) = 1 - S^2 = 1 - 5, so (1 + S)^-1 = (1 - S) / (1 - 5)
        mod = 5 ** 16
        c = pow(-4, -1, mod)
        return payload["coeffs"], [[c, 0], [(-c) % mod, 0]]
    if kind == "trace":
        # w has order 8 in W(F_9): tr(w)^2 = w^2 + 2 w^4 + w^6 = -2
        t, mod = payload["trace"], 3 ** 8
        return (t * t % mod, t % 3), ((-2) % mod, refs.Field(3, 2).trace((0, 1)))
    if kind == "span":
        p, n, k, l = params
        return (payload["dim"], payload["claim"]), (len(refs.span_rref(p, n, k, l)), "ker_tr")
    if kind == "abelianize":
        p, n = params
        observed = (payload["integral"]["orders"], len(payload["mod_p"]["orders"]))
        expected = (["INF" if o == INF else o for o in refs.h1_orders(p, n)], refs.h1_mod_p_rank(p, n))
        return observed, expected
    if kind == "iwasawa":
        p, g = params
        size = 1
        for o in parse_decomp(payload["H1"]):
            size *= o
        return (payload["H0"], size), ("0", refs.iwasawa_h1_order(g, p))
    if kind in ("sphere", "ko"):
        if kind == "sphere":
            p, lo, hi = params
            ref = lambda i: refs.sphere_group(p, i)  # noqa: E731
        else:
            lo, hi = params
            ref = refs.ko_group
        stems = payload["stems"]
        return [stems[str(i)]["group"] for i in range(lo, hi + 1)], [ref(i) for i in range(lo, hi + 1)]
    if kind == "psi":
        p = params[0]
        t_max = payload["t_max"]
        observed = (payload["ok"], payload["checked"], payload["max_valuation"], t_max)
        return observed, (True, t_max, refs.psi_max_valuation(p, t_max), int(argv[argv.index("--tmax") + 1]))
    if kind == "strict":
        return (payload["order"], payload["bound"]), (refs.strict_unit_order(*params), 1000)
    if kind == "norm_s":
        p, n, M = params
        F = refs.Field(p, n)
        return payload["norm"], refs.norm_one_plus_teich_s(F, F.decode(p), M)
    if kind == "g1":
        p, s, t = params
        return parse_decomp(payload[f"H{s}"]), refs.g1_orders(p, s, t)
    if kind == "torus":
        q, j = params
        return payload["order"], refs.torus_order(q, j)
    if kind == "bracket":
        p, n, k, a, l, b = params
        F = refs.Field(p, n)
        return (payload["k"], tuple(payload["digit"])), (k + l, refs.bracket_digit(F, k, F.decode(a), l, F.decode(b)))
    if kind == "power":
        p, n, k, a = params
        F = refs.Field(p, n)
        return (payload["k"], tuple(payload["digit"])), refs.power_digit(F, k, F.decode(a))
    raise ValueError(f"unknown command kind {kind}")


def task_rng(seed: int, workload: str):
    return random.Random(f"{workload}:{seed}")
