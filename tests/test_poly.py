"""Polynomial ring, determinant and Pfaffian basics.

Frozen expected values here were derived by hand (cofactor/permutation
expansion on paper) before the implementation existed; they pin down sign
and exponent conventions.
"""

import gc
import weakref
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from treeminor.poly import (
    ExactPoly,
    PolyMatrix,
    det,
    det_permutation,
    divide_exact,
    pfaffian,
    _principal_minors,
    _zdiv,
)
from treeminor.cyclekernel import cycle_sums
from treeminor.tree import random_tree

F = Fraction
t = ExactPoly.t_power


def tp(e, c=1):
    return ExactPoly.t_power(e, c)


# ---------------------------------------------------------------------------
# construction / canonical form


def test_zero_and_one():
    assert ExactPoly.zero().is_zero()
    assert not ExactPoly.one().is_zero()
    assert ExactPoly.one() == ExactPoly.constant(1)
    assert ExactPoly.zero() == ExactPoly.from_terms([])


def test_rejects_a_non_integer_exponent_key():
    with pytest.raises(ValueError, match="exponent key 1/2 is not an integer"):
        ExactPoly(1, {F(1, 2): 1})
    with pytest.raises(ValueError, match="exponent key 1.9 is not an integer"):
        ExactPoly(2, {1.9: 3})
    assert ExactPoly(2, {F(4, 2): 3}) == tp(1, 3)


def test_terms_cancel_to_zero():
    p = tp(2) - tp(2)
    assert p.is_zero()
    assert p == ExactPoly.zero()


def test_shared_denominator_is_minimal():
    p = tp(F(1, 2)) + tp(F(3, 2))
    q = tp(F(2, 4)) + tp(F(6, 4))
    assert p == q
    assert hash(p) == hash(q)


def test_constant_hashes_like_its_coefficient():
    for c in (0, 7, F(-3, 2)):
        p = ExactPoly.constant(c)
        assert p == c
        assert hash(p) == hash(c)
        assert len({p, c}) == 1


def test_leading_and_trailing():
    p = 2 * tp(6) - 3 * tp(4) + ExactPoly.one()
    assert p.leading_term() == (F(6), F(2))
    assert p.trailing_term() == (F(0), F(1))
    with pytest.raises(ValueError):
        ExactPoly.zero().leading_term()


# ---------------------------------------------------------------------------
# rendering


def test_str_canonical():
    p = 2 * tp(6) - 3 * tp(4) + ExactPoly.one()
    assert str(p) == "2*t^6 - 3*t^4 + 1"


def test_str_fractional_and_negative_exponents():
    assert str(tp(F(3, 2))) == "t^(3/2)"
    assert str(tp(-1, F(-1, 8))) == "-(1/8)*t^(-1)"
    assert str(tp(1)) == "t"
    assert str(ExactPoly.zero()) == "0"


# ---------------------------------------------------------------------------
# arithmetic


def test_binomial_square():
    p = (ExactPoly.one() - tp(2)) ** 2
    assert p == ExactPoly.from_terms([(0, 1), (2, -2), (4, 1)])


def test_power_substitute():
    p = ExactPoly.one() - 3 * tp(4) + 2 * tp(6)
    dual = p.power_substitute(-1)
    assert dual == ExactPoly.one() - 3 * tp(-4) + 2 * tp(-6)
    half = p.power_substitute(F(1, 2))
    assert half == ExactPoly.one() - 3 * tp(2) + 2 * tp(3)


def test_divide_exact_roundtrip():
    a = tp(3) + tp(1, 2) - tp(0, 5)
    b = tp(-2) + tp(1)
    assert divide_exact(a * b, b) == a
    with pytest.raises(ArithmeticError):
        divide_exact(tp(2) + ExactPoly.one(), tp(1) + ExactPoly.one())


# ---------------------------------------------------------------------------
# property tests

exponents = st.fractions(
    min_value=-5, max_value=5, max_denominator=3
)
coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def polys(draw, max_terms=4):
    pairs = draw(
        st.lists(st.tuples(exponents, coeffs), min_size=0, max_size=max_terms)
    )
    return ExactPoly.from_terms(pairs)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ExactPoly.zero() == a
    assert a * ExactPoly.one() == a
    assert a - a == ExactPoly.zero()


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), coeffs, st.integers(2, 6), st.randoms(use_true_random=False))
def test_canonical_form_does_not_depend_on_the_route(p, b, c, m, rnd):
    terms = list(p.terms())
    shuffled = list(terms)
    rnd.shuffle(shuffled)
    if shuffled:
        e, v = shuffled[0]
        shuffled[:1] = [(e, v / 3), (e, v - v / 3)]
    den = lcm(*(e.denominator for e, _ in terms))
    stretched = {e.numerator * (den * m // e.denominator): v for e, v in terms}
    halves = ExactPoly.from_terms((e, v / 2) for e, v in terms)
    routes = [
        ExactPoly.from_terms(shuffled),
        ExactPoly(den * m, stretched),
        (p + b) - b,
        2 * halves,
    ]
    for q in routes:
        assert q == p
        assert hash(q) == hash(p)
        assert str(q) == str(p)
    for const in (ExactPoly.constant(c), p - p + c, ExactPoly.one() * c):
        assert const == c
        assert hash(const) == hash(c)


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_leading_term_multiplicative(a, b):
    if a.is_zero() or b.is_zero():
        assert (a * b).is_zero()
        return
    ea, ca = a.leading_term()
    eb, cb = b.leading_term()
    e, c = (a * b).leading_term()
    assert e == ea + eb
    assert c == ca * cb


@settings(max_examples=40, deadline=None)
@given(polys(max_terms=3), polys(max_terms=3))
def test_divide_exact_property(a, b):
    if b.is_zero():
        return
    assert divide_exact(a * b, b) == a


# ---------------------------------------------------------------------------
# matrices


def star_matrix():
    # pairwise distance 2 between three leaves of a unit star
    one, t2 = ExactPoly.one(), tp(2)
    return PolyMatrix([[one, t2, t2], [t2, one, t2], [t2, t2, one]])


def test_det_star_frozen():
    # cofactor expansion by hand: 1 - 3 t^4 + 2 t^6
    expected = ExactPoly.from_terms([(0, 1), (4, -3), (6, 2)])
    m = star_matrix()
    assert det(m) == expected
    assert det_permutation(m) == expected


def test_det_singular():
    one = ExactPoly.one()
    m = PolyMatrix([[one, one], [one, one]])
    assert det(m).is_zero()


def test_det_zero_pivot_needs_row_swap():
    z, one = ExactPoly.zero(), ExactPoly.one()
    m = PolyMatrix([[z, one], [one, z]])
    assert det(m) == -one


def test_det_through_row_exchanges_at_every_step():
    # P U with U upper triangular and P a permutation: every step whose
    # pivot P moved off the diagonal needs an exchange, so each of the 24
    # orders of 4 rows checks the exchanges' signs and later pivots
    n = 4
    u = [[tp(F(i + j, 2), i - j + 5) if j >= i else ExactPoly.zero() for j in range(n)] for i in range(n)]
    u[1][3] = u[1][3] + ExactPoly.one()
    for perm in permutations(range(n)):
        m = PolyMatrix([u[r] for r in perm])
        assert det(m) == det_permutation(m)


def test_matrix_kind_validation():
    # a PolyMatrix declares no structure; pfaffian checks skewness itself
    one, z = ExactPoly.one(), ExactPoly.zero()
    with pytest.raises(ValueError, match="zero diagonal at 0"):
        pfaffian(PolyMatrix([[one, one], [-one, z]]))
    with pytest.raises(ValueError, match=r"not skew at \(0,1\)"):
        pfaffian(PolyMatrix([[z, one], [one, z]]))
    with pytest.raises(ValueError):
        PolyMatrix([[one], [one]])


def skew_from_upper(upper):
    n = len(upper) + 1
    z = ExactPoly.zero()
    m = [[z] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = upper[i][j - i - 1]
            m[j][i] = -upper[i][j - i - 1]
    return PolyMatrix(m)


def test_pfaffian_frozen_path_order():
    # entries t^{|i-j|} above the diagonal; by the three-pairings expansion
    # b12*b34 - b13*b24 + b14*b23 = t*t - t^2*t^2 + t^3*t = t^2
    m = skew_from_upper([[tp(1), tp(2), tp(3)], [tp(1), tp(2)], [tp(1)]])
    assert pfaffian(m) == tp(2)


def test_pfaffian_empty_and_2x2():
    assert pfaffian(PolyMatrix([])) == ExactPoly.one()
    m = skew_from_upper([[tp(5, 7)]])
    assert pfaffian(m) == tp(5, 7)


def test_pfaffian_odd_size_rejected():
    z = ExactPoly.zero()
    m = PolyMatrix([[z]])
    with pytest.raises(ValueError):
        pfaffian(m)


class _Labels(list):
    """A list a weak reference can point at."""


def test_recursive_walks_free_their_tables_without_the_cyclic_collector():
    # _principal_minors, pfaffian and cycle_sums each recurse through a
    # closure; one that kept a reference to itself would hold its tables
    # (and the labels) until the cyclic collector ran
    tree = random_tree(7, seed=3, weights="rational")
    skew = skew_from_upper([[tp(i + j, j - i) for j in range(i + 1, 6)] for i in range(5)])
    ones = [[{0: 2 if i == j else 1} for j in range(3)] for i in range(3)]
    gc.collect()
    gc.disable()
    try:
        labels = _Labels("abc")
        alive = weakref.ref(labels)
        assert len(_principal_minors(ones, labels, 3)) == 7
        del labels
        assert alive() is None
        for _ in range(50):
            cycle_sums(tree, tree.vertices[:5])
            pfaffian(skew)
        assert gc.collect() == 0
    finally:
        gc.enable()


small_entries = st.integers(min_value=-3, max_value=3)


@st.composite
def poly_matrices(draw, n):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            c0 = draw(small_entries)
            c1 = draw(small_entries)
            row.append(ExactPoly.from_terms([(0, c0), (draw(st.integers(1, 3)), c1)]))
        rows.append(row)
    return PolyMatrix(rows)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4).flatmap(poly_matrices))
def test_det_paths_agree(m):
    d = det(m)
    assert d == det_permutation(m)


@st.composite
def skew_matrices(draw, half_n):
    """Skew matrices of size 2 half_n with rational Laurent entries."""
    n = 2 * half_n
    z = ExactPoly.zero()
    rows = [[z] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            p = draw(polys(max_terms=2))
            rows[i][j] = p
            rows[j][i] = -p
    return PolyMatrix(rows)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4).flatmap(skew_matrices))
def test_pfaffian_squares_to_det(m):
    pf = pfaffian(m)
    assert pf * pf == det(m)


@st.composite
def laurent_matrices(draw):
    """n <= 5 matrices with negative and rational exponents and rational
    coefficients; optionally the top of the first column is zeroed (the
    first pivot needs a row swap, or the column vanishes) and a row is zero."""
    n = draw(st.integers(1, 5))
    rows = [[draw(polys(max_terms=2)) for _ in range(n)] for _ in range(n)]
    for i in range(draw(st.integers(0, n))):
        rows[i][0] = ExactPoly.zero()
    if draw(st.integers(0, 3)) == 0:
        rows[draw(st.integers(0, n - 1))] = [ExactPoly.zero()] * n
    return PolyMatrix(rows)


@settings(max_examples=80, deadline=None)
@given(laurent_matrices())
def test_det_matches_permutation_sum_on_laurent_matrices(m):
    assert det(m) == det_permutation(m)


def test_kernel_division_is_exact_or_raises():
    # integer-coefficient maps {exponent: coefficient}
    one_plus_t = {0: 1, 1: 1}
    assert _zdiv({0: 1, 2: -1}, one_plus_t) == {0: 1, 1: -1}
    assert _zdiv({3: 6, 5: -4}, {1: -2}) == {2: -3, 4: 2}
    with pytest.raises(ArithmeticError):
        _zdiv({0: 1, 2: 1}, one_plus_t)  # 1 + t^2 is not a multiple of 1 + t
    with pytest.raises(ArithmeticError):
        _zdiv({0: 1, 1: 1}, {0: 2, 1: 2})  # quotient 1/2 is not an integer
    with pytest.raises(ArithmeticError):
        _zdiv({0: 3}, {0: 2})
    with pytest.raises(ZeroDivisionError):
        _zdiv({0: 1}, {})


@st.composite
def repeated_row_matrices(draw):
    """Symmetric integer matrices m_ij = b[f(i)][f(j)], b symmetric and f
    a map onto fewer rows, so rows repeat and minors vanish; with a size
    limit for the walk."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    b = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            b[i][j] = b[j][i] = draw(st.integers(-3, 3))
    f = [draw(st.integers(0, k - 1)) for _ in range(n)]
    return [[b[f[i]][f[j]] for j in range(n)] for i in range(n)], draw(st.integers(1, n))


@settings(max_examples=150, deadline=None)
@given(repeated_row_matrices())
def test_principal_minor_walk_below_a_zero_minor(case):
    m, max_size = case
    n = len(m)
    labels = "abcdef"[:n]
    got = _principal_minors([[{0: x} if x else {} for x in row] for row in m], labels, max_size)
    minor = {
        xs: det_permutation(PolyMatrix([[ExactPoly.constant(m[i][j]) for j in xs] for i in xs]))
        for r in range(1, max_size + 1)
        for xs in combinations(range(n), r)
    }
    # the walk builds nothing below a zero minor: the sets that extend
    # one by two or more later rows are the missing ones, and only they
    missing = {
        xs + more
        for xs, d in minor.items() if d.is_zero()
        for r in range(2, max_size - len(xs) + 1)
        for more in combinations(range(xs[-1] + 1, n), r)
    }
    present = [xs for xs in minor if xs not in missing]
    assert set(got) == {tuple(labels[i] for i in xs) for xs in present}
    for xs in present:
        assert ExactPoly._make(1, 1, got[tuple(labels[i] for i in xs)]) == minor[xs]
