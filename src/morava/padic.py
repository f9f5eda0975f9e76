"""Exact arithmetic in Z/p^M: valuations, unit roots, Smith normal form, F_p echelon form.

Everything works with plain Python ints reduced mod p^M.  p-adic integers
only ever appear at this fixed finite precision; an "infinite" order found
at precision M is reported with the INF marker and a caveat flag, never
silently promoted to an exact statement.
"""

from functools import lru_cache
from operator import attrgetter
from types import FunctionType

INF = float("inf")


class PrecisionError(ArithmeticError):
    """An identity that must hold exactly at precision p^M failed."""


def _frozen(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _getstate(self):
    return {f: getattr(self, f) for f in self.__slots__ if hasattr(self, f)}  # an unfilled cache is left out


def _setstate(self, state):
    for f, value in state.items():
        object.__setattr__(self, f, value)


@lru_cache(maxsize=None)  # one per shape, (field count, post): far fewer than records
def _init_code(count: int, post: bool):
    """record's __init__ for count fields, argument i set through global _si: record renames the arguments."""
    lines = [f"_s{i}(self, _{i})" for i in range(count)] + ["self.__post_init__()"] * post
    ns = {}
    exec(f"def __init__(self, {', '.join(f'_{i}' for i in range(count))}):\n    " + "\n    ".join(lines), ns)
    return ns["__init__"].__code__


def record(cls):
    """Class decorator for value classes, in the manner of @dataclass(frozen=True).

    The annotated names of the class body are the fields, in order; class
    attributes give defaults.  Adds an __init__ that ends by calling
    __post_init__ if defined, a repr QualName(field=value, ...) and == on the
    field tuples of one class, unless the body defines them.  A record hashes
    as its field tuple and refuses assignment and deletion with
    AttributeError.  The class is rebuilt with __slots__, as @dataclass(slots=True)
    does: the fields, then any __slots__ the body declares for values that are not
    fields (a cache, say).  So a record has no __dict__.
    """
    annotations = cls.__annotations__  # not the body's: from 3.14 the body holds a lazy __annotate__
    body = {**cls.__dict__, "__annotations__": annotations}
    names = tuple(annotations)
    extra = tuple(body.pop("__slots__", ()))
    defaults = {f: body.pop(f) for f in names if f in body}
    for name in (*extra, "__dict__", "__weakref__"):  # descriptors of the class being replaced
        body.pop(name, None)
    qualname = cls.__qualname__
    cls = type(cls)(cls.__name__, cls.__bases__, {**body, "__slots__": names + extra})
    cls.__qualname__ = qualname
    if tuple(defaults) != names[len(names) - len(defaults):]:
        raise TypeError(f"{qualname}: a field without a default follows one with a default")
    code = _init_code(len(names), hasattr(cls, "__post_init__")).replace(co_varnames=("self", *names))
    setters = {f"_s{i}": cls.__dict__[f].__set__ for i, f in enumerate(names)}  # each slot's own setter
    cls.__init__ = FunctionType(code, setters, "__init__", tuple(defaults.values()) or None)
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    get = attrgetter(*names)  # a tuple: every record has two fields or more
    if "__eq__" not in body:
        cls.__eq__ = lambda a, b: get(a) == get(b) if b.__class__ is a.__class__ else NotImplemented
    if "__repr__" not in body:
        items = lambda a: ", ".join(f"{f}={getattr(a, f)!r}" for f in names)
        cls.__repr__ = lambda a: f"{type(a).__qualname__}({items(a)})"
    if body.get("__hash__") is None:
        cls.__hash__ = lambda a: hash(get(a))
    cls.__setattr__ = cls.__delattr__ = _frozen
    cls.__getstate__, cls.__setstate__ = _getstate, _setstate  # copy and pickle would set slots through _frozen
    return cls


def _prime_factors(m: int) -> set:
    """The primes dividing m, by trial division; empty for m < 2."""
    out = set()
    d = 2
    while d * d <= m:
        while m % d == 0:
            out.add(d)
            m //= d
        d += 1
    if m > 1:
        out.add(m)
    return out


@lru_cache(maxsize=256)  # every chart cell checks its p, and each factoring builds a set
def _is_prime(p: int) -> bool:
    return _prime_factors(p) == {p}


# primes are tested by trial division, about sqrt(p) steps: 65536 at most below this bound
PRIME_BOUND = 2**32


def brief(value) -> str:
    """repr(value) for a refusal: past 60 characters, its head and the value's length."""
    if type(value) is int and value.bit_length() > 192:  # str() raises past 4300 digits
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
    text = repr(value)
    size = f"a string of {len(value)}" if type(value) is str else f"a repr of {len(text)}"
    return text if len(text) <= 60 else f"{text[:60]}... ({size} characters)"


def check_int(name: str, value, lo=1) -> None:
    """The one integer check on inputs: ValueError unless value is an int, not a bool, and >= lo."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {brief(value)}")
    if value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {brief(value)}")


def check_prime(p: int) -> None:
    """The one prime check on inputs: ValueError unless p is a prime int below PRIME_BOUND."""
    if type(p) is not int or p >= PRIME_BOUND:  # a test, not a call: every E_1 cell passes here
        check_int("p", p, -INF)
        raise ValueError(f"p = {brief(p)} is not below the 2^32 bound on primes")
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def load_json(text: str):
    """The one JSON reader on inputs: json.loads, with a document nested over 100 levels a
    ValueError, counted first since where json.loads runs out of recursion varies by version."""
    import json  # here, not at the top: only the JSON inputs need it
    import re
    from itertools import accumulate

    bare = re.sub(r'"(?:[^"\\]|\\.)*"', "", text)  # brackets inside strings do not nest
    if max(accumulate((c in "[{") - (c in "]}") for c in bare), default=0) > 100:
        raise ValueError("JSON input nested too deeply (over 100 levels)")
    try:
        return json.loads(text)
    except RecursionError:  # a backstop: the count above refuses these first
        raise ValueError("JSON input nested too deeply") from None


def binary_power(x, e: int, mul):
    """x^e for e >= 1 from the lowest set bit of e: floor(log2 e) + popcount(e) - 1 products."""
    while not e & 1:
        x = mul(x, x)
        e >>= 1
    result = x
    e >>= 1
    while e:
        x = mul(x, x)
        if e & 1:
            result = mul(result, x)
        e >>= 1
    return result


@record
class PadicParams:
    """The prime p and the working precision M; arithmetic happens in Z/p^M."""

    __slots__ = ("_modulus",)
    p: int
    M: int

    def __post_init__(self):
        check_prime(self.p)
        check_int("precision M", self.M)
        object.__setattr__(self, "_modulus", self.p ** self.M)

    @property
    def modulus(self) -> int:
        return self._modulus


def nu_p(x: int, p: int) -> int:
    """p-adic valuation of a nonzero integer (exact, big-int loop)."""
    if x == 0:
        raise ValueError("valuation of zero undefined")
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


@record
class PadicInt:
    """A labelled element of Z/p^M, its representative in [0, p^M); arithmetic is on .value."""

    params: PadicParams
    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.params.modulus)

    def __repr__(self):
        return f"{self.value} (mod {self.params.p}^{self.params.M})"


def nth_root_one_unit(x: PadicInt, n: int) -> PadicInt:
    """The unique y with y^n = x, for gcd(n, p) = 1.

    For odd p requires x = 1 mod p and returns the root in 1 + pZ/p^M
    (raising to the n-th power is an automorphism of that group, so the
    root is y = x^(n^-1 mod p^(M-1))).  For p = 2 requires n odd and x a
    unit; n-th powering is then an automorphism of the whole unit group
    of order 2^(M-1).
    """
    p, M = x.params.p, x.params.M
    if n < 1 or n % p == 0:
        raise ValueError(f"root degree {n} not coprime to p = {p}")
    v = x.value
    if p == 2:
        if v % 2 == 0:
            raise ValueError("n-th root requires a unit")
        group_order = 2 ** (M - 1)
    else:
        if v % p != 1:
            raise ValueError("n-th root requires x = 1 mod p for odd p")
        group_order = p ** (M - 1)
    e = pow(n, -1, group_order)
    return PadicInt(x.params, pow(v, e, x.params.modulus))


# ---------------------------------------------------------------------------
# small exact linear algebra mod p^M


def identity_matrix(k: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def mat_mul(A, B, mod: int) -> list[list[int]]:
    rb = len(B)
    cb = len(B[0]) if rb else 0
    out = []
    for row in A:
        acc = [0] * cb
        for k, a in enumerate(row):
            if a:
                brow = B[k]
                for j in range(cb):
                    acc[j] += a * brow[j]
        out.append([v % mod for v in acc])
    return out


def mat_vec(A, v, mod: int) -> list[int]:
    return [sum(a * x for a, x in zip(row, v)) % mod for row in A]


def invert_matrix(A, params: PadicParams) -> list[list[int]]:
    """Inverse of a square matrix invertible mod p: U * A * V = 1 in Smith form gives V * U."""
    sf = smith_normal_form(A, params)
    if sf.shape[0] != sf.shape[1] or any(d != 1 for d in sf.diag):
        raise ValueError("matrix not invertible mod p")
    return mat_mul(sf.V, sf.U, params.modulus)


def _minus(out: dict, f: int, v: dict, p: int) -> dict:
    """out - f * v over F_p, written into out and returned, with no zero entries.

    out must be a dict the caller owns: Echelon passes only dicts it has just
    built, never a stored row.  f is a unit mod p and v has no zero entries,
    so an entry that cancels was already in out.
    """
    for c, x in v.items():
        if y := (out.get(c, 0) - f * x) % p:
            out[c] = y
        else:
            del out[c]
    return out


class Echelon:
    """The one elimination over F_p: a reduced row echelon form on sparse vectors {column: coeff}.

    rows maps each pivot column to its row: 1 at its pivot, 0 at every other
    pivot and before its own.  So a vector reduces in one pass, equal spans
    have equal rows, and the rank is len(rows).  Work happens in dicts the
    echelon owns: reduce builds a fresh dict and eliminates into it, and a
    stored row that changes is replaced by a new dict, never mutated.  So a
    copy of the dict rows is a copy of the echelon.
    """

    def __init__(self, p: int):
        self.p = p
        self.rows = {}

    def reduce(self, vec: dict) -> dict:
        """vec minus its combination of rows: empty exactly when vec lies in the span."""
        out = {c: v % self.p for c, v in vec.items() if v % self.p}
        for col in [c for c in out if c in self.rows]:  # rows vanish at the other pivots
            _minus(out, out[col], self.rows[col], self.p)
        return out

    def insert(self, vec: dict) -> bool:
        """Add vec to the span; True when the rank grew."""
        vec = self.reduce(vec)
        if not vec:
            return False
        piv = min(vec)
        inv = pow(vec[piv], -1, self.p)
        vec = {c: v * inv % self.p for c, v in vec.items()}
        for col, row in self.rows.items():
            if piv in row:
                self.rows[col] = _minus(dict(row), row[piv], vec, self.p)
        self.rows[piv] = vec
        return True

    def kernel(self, ncols: int) -> list:
        """A basis of {x in F_p^ncols : row . x = 0 for every row}, one vector per free column."""
        free = [j for j in range(ncols) if j not in self.rows]
        return [{j: 1, **{c: -r[j] % self.p for c, r in self.rows.items() if j in r}} for j in free]


@record
class SmithForm:
    """U * A * V = D over Z/p^M, with U, V of unit determinant.

    diag holds the diagonal of D: exact powers of p in ascending order of
    valuation, with 0 once the remaining block vanishes mod p^M.
    """

    params: PadicParams
    shape: tuple
    diag: tuple
    U: tuple
    V: tuple

    def cokernel_orders(self) -> list:
        """Orders of the cyclic summands of coker(A) on Z_p^rows, INF for full ones."""
        rows, cols = self.shape
        out = []
        for i in range(rows):
            if i >= len(self.diag) or self.diag[i] == 0:
                out.append(INF)
            else:
                e = nu_p(self.diag[i], self.params.p)
                if e > 0:
                    out.append(self.params.p ** e)
        return out


def smith_normal_form(matrix, params: PadicParams) -> SmithForm:
    """Smith normal form over the local ring Z/p^M.

    Pivots are chosen by minimal p-valuation, normalized to exact powers
    of p (the unit part is divided out), so the diagonal satisfies the
    divisibility chain and cokernel/kernel readings are immediate.  The
    column pass updates V alone, as no later step reads row t of A.
    """
    p, M, mod = params.p, params.M, params.modulus
    A = [[int(x) % mod for x in row] for row in matrix]
    r = len(A)
    c = len(A[0]) if r else 0
    if any(len(row) != c for row in A):
        raise ValueError("ragged matrix")
    U = identity_matrix(r)
    V = identity_matrix(c)
    diag = []
    for t in range(min(r, c)):
        best, bestv = None, M
        for i in range(t, r):
            for j in range(t, c):
                a = A[i][j]
                if a:
                    v = nu_p(a, p)
                    if v < bestv:
                        best, bestv = (i, j), v
            if best is not None and bestv == 0:
                break
        if best is None:
            diag.extend([0] * (min(r, c) - t))
            break
        i0, j0 = best
        if i0 != t:
            A[t], A[i0] = A[i0], A[t]
            U[t], U[i0] = U[i0], U[t]
        if j0 != t:
            for row in A:
                row[t], row[j0] = row[j0], row[t]
            for row in V:
                row[t], row[j0] = row[j0], row[t]
        piv = p ** bestv
        inv_unit = pow(A[t][t] // piv, -1, mod)
        A[t] = [v * inv_unit % mod for v in A[t]]
        U[t] = [v * inv_unit % mod for v in U[t]]
        for i in range(t + 1, r):
            x = A[i][t]
            if x:
                f = x // piv
                A[i] = [(v - f * w) % mod for v, w in zip(A[i], A[t])]
                U[i] = [(v - f * w) % mod for v, w in zip(U[i], U[t])]
        for j in range(t + 1, c):
            x = A[t][j]
            if x:
                f = x // piv
                for row in V:
                    row[j] = (row[j] - f * row[t]) % mod
        diag.append(piv % mod)
    return SmithForm(
        params=params,
        shape=(r, c),
        diag=tuple(diag),
        U=tuple(tuple(row) for row in U),
        V=tuple(tuple(row) for row in V),
    )


def _clean_orders(p: int, orders) -> tuple:
    """orders as ints with the 1s dropped, sorted descending (INF first); ValueError on a non-power of p."""
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
    return tuple(cleaned)


@record
class CyclicDecomp:
    """A finite direct sum of cyclic p-groups, INF marking free-at-precision factors.

    Orders are powers of p sorted descending with INF entries first.  The
    precision_caveat flag records that INF factors were certified only at
    the working precision.
    """

    __slots__ = ("_text",)  # str(self), once asked for; == and hash read the fields alone
    p: int
    orders: tuple = ()
    precision_caveat: bool = False

    def __post_init__(self):
        orders = _clean_orders(self.p, self.orders)
        object.__setattr__(self, "orders", orders)
        if INF not in orders:
            object.__setattr__(self, "precision_caveat", False)

    @property
    def is_zero(self) -> bool:
        return not self.orders

    def __str__(self):
        try:
            return self._text
        except AttributeError:  # the first call: tables print one shared decomposition per stem
            pass
        s = " + ".join([f"Z_{self.p}" if o == INF else f"Z/{o}" for o in self.orders]) or "0"
        if self.precision_caveat:
            s += " [free part certified at precision only]"
        object.__setattr__(self, "_text", s)
        return s

    def to_json(self):
        return {
            "p": self.p,
            "orders": ["INF" if o == INF else o for o in self.orders],
            "precision_caveat": self.precision_caveat,
        }


@lru_cache(maxsize=1024)  # one object per (p, orders, caveat) that charts and E_1 grids assemble
def cyclic_decomp(p: int, orders: tuple = (), precision_caveat: bool = False) -> CyclicDecomp:
    """CyclicDecomp(p, orders, precision_caveat), shared between callers: records are frozen."""
    return CyclicDecomp(p, orders, precision_caveat)
