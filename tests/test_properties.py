"""Property tests on random elements of the order over the default fields.

Elements are drawn as Witt coordinate rows mod p^M, units and non-units
alike, over every default (p, n) with q <= 625 at M in {1, 2, 5}.  Three
identities must hold exactly:

- the printed form parses back: parse_element(repr(x), ring) == x;
- the reduced norm is multiplicative: Nrd(x y) = Nrd(x) Nrd(y) mod p^M;
- the packed product equals the two loops it is checked against in
  test_order (on Witt coefficients, and on the order's structure table).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from morava.cli import parse_element
from morava.order import from_coeff_rows
from morava.stabilizer import reduced_norm
from morava.witt import DEFAULT_POLYS, make_ring
from test_order import _parts_product, _twisted_table_product

FIELDS = sorted((p, n) for (p, n) in DEFAULT_POLYS if p**n <= 625)
PRECISIONS = (1, 2, 5)


@st.composite
def rings(draw):
    p, n = draw(st.sampled_from(FIELDS))
    return make_ring(p, n, draw(st.sampled_from(PRECISIONS)))


@st.composite
def elements(draw, ring):
    """Coefficient rows mod p^M; a third are non-units (a_0 = 0 mod p), a third sparse."""
    p, n, mod = ring.params.p, ring.n, ring.params.modulus
    kind = draw(st.sampled_from(("unit", "non-unit", "sparse")))
    coord = st.integers(0, mod - 1)
    if kind == "sparse":
        coord = st.sampled_from((0, 0, 0, 1, p, mod - 1))
    rows = [draw(st.lists(coord, min_size=n, max_size=n)) for _ in range(n)]
    if kind == "unit" and rows[0][0] % p == 0:
        rows[0][0] = (rows[0][0] + 1) % mod
    if kind == "non-unit":
        rows[0][0] = rows[0][0] * p % mod
    return from_coeff_rows(ring, rows)


@st.composite
def element_pairs(draw):
    ring = draw(rings())
    return draw(elements(ring)), draw(elements(ring))


SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@SETTINGS
@given(element_pairs())
def test_repr_parses_back(pair):
    for x in pair:
        assert parse_element(repr(x), x.ring) == x, repr(x)


@SETTINGS
@given(element_pairs())
def test_reduced_norm_is_multiplicative(pair):
    x, y = pair
    mod = x.ring.params.modulus
    nx, ny = reduced_norm(x).value, reduced_norm(y).value
    assert reduced_norm(x * y).value == nx * ny % mod, (repr(x), repr(y))


@SETTINGS
@given(element_pairs())
def test_product_matches_oracles(pair):
    x, y = pair
    assert x * y == _parts_product(x, y) == _twisted_table_product(x, y), (repr(x), repr(y))
