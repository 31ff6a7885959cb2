"""Polynomial ring, determinant and Pfaffian basics.

Frozen expected values here were derived by hand (cofactor/permutation
expansion on paper) before the implementation existed; they pin down sign
and exponent conventions.
"""

import gc
import weakref
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial, lcm

import pytest
from hypothesis import given, settings, strategies as st

from treeminor.poly import (
    ExactPoly,
    PolyMatrix,
    det,
    det_permutation,
    divide_exact,
    pfaffian,
    _Form,
    _bareiss,
    _integer_rows,
    _istep,
    _kernel,
    _maps,
    _packed,
    _sylvester,
    _word_bits,
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
    # _sylvester, pfaffian and cycle_sums each recurse through a
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
        assert len(_sylvester(_kernel(ones, 3), labels, 3)) == 7
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
    maps = [[{0: x} if x else {} for x in row] for row in m]
    got = _sylvester(_kernel(maps, max_size), labels, max_size)
    # the star check's route: the walk on the ints themselves
    ints = _sylvester(_Form(m, 1, _istep, int), labels, max_size)
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
    assert set(got) == set(ints) == {tuple(labels[i] for i in xs) for xs in present}
    for xs in present:
        key = tuple(labels[i] for i in xs)
        assert ExactPoly._make(1, 1, got[key]) == minor[xs] == ints[key]


# ---------------------------------------------------------------------------
# the two forms of the oracle walks: packed ints at t = 2^B and the maps


def _both_forms(a, size):
    """(maps form, packed form) of one integer matrix; packing needs
    exponents >= 0."""
    return _maps(a), _packed(a, _word_bits(a, size))


@st.composite
def kernel_matrices(draw):
    """n <= 5 matrices with rational coefficients, negative and rational
    exponents and negative coefficients.  The spread of the exponents puts
    them on either side of the packing crossover (spread 0: constants), and
    zeroed entries, a zero row or a repeated row force row exchanges and
    singular matrices."""
    n = draw(st.integers(0, 5))
    spread = draw(st.sampled_from([0, 1, 40]))
    exps = st.builds(lambda e, q: F(e * spread, q), st.integers(-2, 3), st.sampled_from([1, 2]))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    rows = [
        [ExactPoly.from_terms(draw(st.lists(st.tuples(exps, coeff), max_size=2))) for _ in range(n)]
        for _ in range(n)
    ]
    if n:
        for i in range(draw(st.integers(0, n))):
            rows[i][0] = ExactPoly.zero()
        if n > 1 and draw(st.booleans()):
            rows[draw(st.integers(1, n - 1))] = list(rows[0])
    return PolyMatrix(rows)


@settings(max_examples=150, deadline=None)
@given(kernel_matrices())
def test_bareiss_packed_and_maps_agree(m):
    a, den, scale, shift = _integer_rows(m)
    maps, packed = _both_forms(a, len(a))
    d = _bareiss(maps)
    assert _bareiss(packed) == d
    assert ExactPoly._make(den, scale, {k + shift: c for k, c in d.items()}) == det_permutation(m)
    assert det(m) == det_permutation(m)


@st.composite
def symmetric_kernel_matrices(draw):
    """Symmetric n <= 5 integer maps with exponents >= 0, dense, sparse or
    constant, and a walk size; some rows repeat, so minors vanish."""
    n = draw(st.integers(0, 5))
    spread = draw(st.sampled_from([0, 1, 40]))
    entry = st.dictionaries(st.integers(0, 3).map(lambda e: e * spread), st.integers(-3, 3), max_size=2)
    m = [[{}] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = {k: c for k, c in draw(entry).items() if c}
    if n > 2 and draw(st.booleans()):
        m[2] = list(m[0])
        for i in range(n):
            m[i][2] = m[i][0]
    return m, draw(st.integers(0, max(n, 1)))


@settings(max_examples=150, deadline=None)
@given(symmetric_kernel_matrices())
def test_sylvester_packed_and_maps_agree(case):
    m, max_size = case
    labels = range(len(m))
    maps, packed = _both_forms(m, max_size)
    table = _sylvester(maps, labels, max_size)
    assert _sylvester(packed, labels, max_size) == table
    assert _sylvester(_kernel(m, max_size), labels, max_size) == table
    for xs, got in table.items():
        sub = PolyMatrix([[ExactPoly._make(1, 1, m[i][j]) for j in xs] for i in xs])
        assert ExactPoly._make(1, 1, got) == det_permutation(sub)


def test_packing_holds_a_coefficient_at_the_bound():
    # diag(1, ..., k) t^(e_i), rows reversed: det is +-k! t^(sum e), the
    # bound of _word_bits exactly; the pivots need row exchanges, and at
    # k = 20, 21, 26 the bound sits just below 2^63, above it, and at 2^89
    for k in (1, 2, 5, 20, 21, 26):
        a = [[{i % 3: i + 1} if i == j else {} for j in range(k)] for i in range(k)][::-1]
        bits = _word_bits(a, k)
        assert factorial(k) < 2 ** (bits - 1) <= 2 ** 8 * factorial(k)
        sign = (-1) ** (k // 2)  # the reversal is k // 2 transpositions
        want = {sum(i % 3 for i in range(k)): sign * factorial(k)}
        maps, packed = _both_forms(a, k)
        assert _bareiss(maps) == _bareiss(packed) == want
    # entries whose 1-norm is 2^(B - 1) - 1 fit in B bits, with digits of
    # either sign; a 1-norm of 2^(B - 1) moves to the next word size
    for bits in (8, 16, 32, 64, 72, 96):
        top, half = 2 ** (bits - 1) - 1, 2 ** (bits - 2)
        for entry in ({3: top}, {3: -top}, {0: half, 2: 2 - half, 5: 1}, {0: -half, 2: half - 2, 5: -1}):
            assert _word_bits([[entry]], 1) == bits
            assert _bareiss(_both_forms([[entry]], 1)[1]) == entry
        assert _word_bits([[{1: top + 1}]], 1) > bits


def test_empty_and_one_by_one_in_both_forms():
    for form in _both_forms([], 0):
        assert _bareiss(form) == {0: 1}
        assert _sylvester(form, (), 3) == {}
    for entry in ({}, {0: -7}, {3: 2, 9: -1}):
        for form in _both_forms([[entry]], 1):
            assert _bareiss(form) == entry
            assert _sylvester(form, "a", 1) == {("a",): entry}


def test_kernel_packs_unit_tree_distances_and_keeps_sparse_maps():
    # unit weights: every distance 0..diameter occurs, so the exponents are
    # dense; exponents 0, 40, 80 leave 39 of every 40 slots empty
    tree = random_tree(12, seed=2)
    dist, _ = tree._distance_ints(tree.vertices)
    assert _kernel([[{d: 1} for d in row] for row in dist], 12).one == 1
    sparse = [[{40 * ((i + j) % 3): 1} for j in range(6)] for i in range(6)]
    assert _kernel(sparse, 6).one == {0: 1}
    assert _kernel([[{0: 3}, {0: -1}], [{0: -1}, {0: 3}]], 2).one == 1
    assert _kernel([[{-1: 1}]], 1).one == {0: 1}  # a negative exponent cannot be packed
