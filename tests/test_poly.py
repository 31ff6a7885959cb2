"""Polynomial ring, determinant and Pfaffian basics.

Frozen expected values here were derived by hand (cofactor/permutation
expansion on paper) before the implementation existed; they pin down sign
and exponent conventions.
"""

import gc
import re
import weakref
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial, lcm, prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from treeminor.poly import (
    ExactPoly,
    PolyMatrix,
    det,
    det_permutation,
    divide_exact,
    pfaffian,
    _MAX_DIGITS,
    _Form,
    _as_fraction,
    _bareiss,
    _coefficient_bounds,
    _integer_rows,
    _istep,
    _kernel,
    _maps,
    _pack,
    _packed,
    _sylvester,
    _top_digit,
    _unpack,
    _word_bits,
    _word_for,
    _zdiv,
    _zmul,
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
# reading rationals from text


def test_reader_sizes_a_decimal_before_fraction_builds_it():
    # 10^4299 and 10^-4299 have 4,300 digits, Python's default int-to-str
    # limit; one more digit is refused before Fraction builds 10^e in full
    assert _MAX_DIGITS == 4300
    assert _as_fraction("1e4299") == 10**4299
    assert _as_fraction("1e-4299") == F(1, 10**4299)
    assert len(str(_as_fraction("1e4299"))) == _MAX_DIGITS
    for tok in ("1e4300", "1e-4300", "1e5000", "1e-5000", "0.5e4300", "1.5e-4299",
                "0e4300", "0." + "0" * 4400 + "1", "1e100000000", "-1E+100000000"):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            _as_fraction(tok)


_DIGITS = st.text("0123456789", max_size=6)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["", "+", "-", " ", " -"]),
    _DIGITS,
    st.none() | _DIGITS,
    st.none() | st.tuples(st.sampled_from(["e", "E"]), st.integers(-50, 50), st.booleans()),
    st.sampled_from(["", " "]),
)
def test_reader_reads_a_decimal_as_fraction_does(sign, whole, decimals, exponent, pad):
    tok = sign + whole + ("" if decimals is None else "." + decimals)
    if exponent is not None:
        e, shift, plus = exponent
        tok += e + ("+" if plus and shift >= 0 else "") + str(shift)
    tok += pad
    try:
        want = F(tok)
    except ValueError:  # no digits at all
        with pytest.raises(ValueError):
            _as_fraction(tok)
    else:
        assert _as_fraction(tok) == want, tok


@settings(max_examples=300, deadline=None)
@given(st.text("0123456789+-._eE/ x\u0663", max_size=10))
def test_reader_refuses_a_malformed_token_as_fraction_does(tok):
    # exponents of at most three digits: the size check has nothing to refuse
    assume(not re.search(r"[eE][+-]?[\d_]{4}", tok))
    try:
        want = F(tok)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            _as_fraction(tok)
    else:
        assert _as_fraction(tok) == want, tok


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


def fraction_str(p):
    """p rendered from its terms as Fractions: the reference for the
    int-map rendering of ExactPoly.__str__."""

    def coeff(c):
        return str(c.numerator) if c.denominator == 1 else f"({c})"

    def exponent(e):
        return str(e.numerator) if e.denominator == 1 and e >= 0 else f"({e})"

    parts = []
    for e, c in p.terms():
        mag = abs(c)
        if e == 0:
            body = coeff(mag)
        else:
            tpart = "t" if e == 1 else f"t^{exponent(e)}"
            body = tpart if mag == 1 else f"{coeff(mag)}*{tpart}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts) or "0"


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=-7, max_value=7, max_denominator=6),
            st.one_of(st.sampled_from([F(1), F(-1)]), st.fractions(-9, 9, max_denominator=6)),
        ),
        max_size=6,
    )
)
def test_str_matches_the_fraction_rendering(pairs):
    # zero, negative and fractional exponents, coefficients +-1 and
    # fractions whose denominators reduce apart from the others'
    p = ExactPoly.from_terms(pairs)
    assert str(p) == fraction_str(p)


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
    # _sylvester and pfaffian each recurse through a closure, and
    # cycle_sums builds nested tables; one that kept a reference to itself
    # would hold its tables (and the labels) until the cyclic collector ran
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
def symmetric_bareiss_matrices(draw):
    """Symmetric n <= 5 integer maps with exponents >= 0, dense, sparse or
    constant.  Some diagonal entries are zero, and in some matrices
    a_00 = 1 and a_11 = a_01^2, so the leading 2 x 2 minor vanishes: the
    walk makes one symmetric step and then needs a row exchange."""
    n = draw(st.integers(0, 5))
    spread = draw(st.sampled_from([0, 1, 40]))
    entry = st.dictionaries(st.integers(0, 3).map(lambda e: e * spread), st.integers(-3, 3), max_size=2)
    m = [[{}] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = {k: c for k, c in draw(entry).items() if c}
    for i in draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)):
        m[i][i] = {}
    if n > 2 and draw(st.booleans()):
        m[0][0] = {0: 1}
        m[1][1] = _zmul(m[0][1], m[0][1])
    return m


@settings(max_examples=200, deadline=None)
@given(symmetric_bareiss_matrices())
# one symmetric step, then row 2 exchanged up for the zero pivot (1, 1)
@example([[{0: 1}, {1: 1}, {0: 2}], [{1: 1}, {2: 1}, {3: 1}], [{0: 2}, {3: 1}, {1: -1}]])
def test_symmetric_bareiss_matches_the_permutation_sum(m):
    want = det_permutation(PolyMatrix([[ExactPoly._make(1, 1, p) for p in row] for row in m]))
    for form in _both_forms(m, len(m)):
        assert ExactPoly._make(1, 1, _bareiss(form)) == want


def test_bareiss_steps_on_half_a_symmetric_matrix():
    # (min(i, j) + 1) is symmetric and each of its leading minors is 1;
    # raising its top right entry changes no pivot but breaks the symmetry
    for n in range(2, 7):
        symmetric = [[{0: min(i, j) + 1} for j in range(n)] for i in range(n)]
        skewed = [list(row) for row in symmetric]
        skewed[0][n - 1] = {0: 2}
        for a, steps in (
            (symmetric, sum(m * (m + 1) // 2 for m in range(1, n))),
            (skewed, sum(m * m for m in range(1, n))),
        ):
            want = det_permutation(PolyMatrix([[ExactPoly._make(1, 1, p) for p in row] for row in a]))
            for form in _both_forms(a, n):
                calls = []

                def step(*args, inner=form.step):
                    calls.append(args)
                    return inner(*args)

                assert ExactPoly._make(1, 1, _bareiss(form._replace(step=step))) == want
                assert len(calls) == steps


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


@settings(max_examples=150, deadline=None)
@given(symmetric_kernel_matrices())
def test_the_hadamard_word_is_never_above_the_product_bounds(case):
    # the product bound: the smaller of the product of the size largest row
    # 1-norms and size! times the product of the size largest row peaks,
    # each at least 1; _kernel judges density at its word
    m, size = case
    s = min(size, len(m))
    weights = [[sum(map(abs, p.values())) for p in row] for row in m]
    norms = sorted((max(sum(row), 1) for row in weights), reverse=True)
    peaks = sorted((max(row + [1]) for row in weights), reverse=True)
    product = min(prod(norms[:s]), factorial(s) * prod(peaks[:s]))
    bound, judged = _coefficient_bounds(m, size)
    assert judged == product and bound <= product
    assert _word_bits(m, size) == _word_for(bound) <= _word_for(product)


def sylvester_hadamard(r):
    """Sylvester's r x r matrix of +-1 with orthogonal rows, r a power of 2."""
    h = [[1]]
    while len(h) < r:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


def test_the_word_is_tight_on_hadamard_matrices():
    # r rows of constant maps +-1, each row's squared 1-norms summing to r:
    # Hadamard's bound r^(r/2) is the determinant's size, so _word_bits is
    # exactly its word, 16 at r = 8 where 8! = 40,320 took 24
    for r, bits, product in ((4, 8, 8), (8, 16, 24)):
        a = [[{0: x} for x in row] for row in sylvester_hadamard(r)]
        assert _coefficient_bounds(a, r) == (r ** (r // 2), factorial(r))
        assert _word_bits(a, r) == _word_for(r ** (r // 2)) == bits
        assert _word_for(factorial(r)) == product
        maps, packed = _both_forms(a, r)
        d = _bareiss(maps)
        assert _bareiss(packed) == d and list(d) == [0] and abs(d[0]) == r ** (r // 2)
        if r <= 6:
            m = PolyMatrix([[ExactPoly.constant(x) for x in row] for row in sylvester_hadamard(r)])
            assert det_permutation(m) == ExactPoly._make(1, 1, d) == det(m)


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
    for bits in (8, 16, 24, 32, 40, 64, 72, 96):
        top, half = 2 ** (bits - 1) - 1, 2 ** (bits - 2)
        for entry in ({3: top}, {3: -top}, {0: half, 2: 2 - half, 5: 1}, {0: -half, 2: half - 2, 5: -1}):
            assert _word_bits([[entry]], 1) == bits
            assert _bareiss(_both_forms([[entry]], 1)[1]) == entry
        assert _word_bits([[{1: top + 1}]], 1) > bits


@st.composite
def signed_digit_maps(draw):
    """(B, p): a map of signed base-2^B digits at a width that struct does
    not read, with negative digits side by side and, often, a top +-1 just
    above a borrow or a carry."""
    bits = draw(st.sampled_from((24, 40, 48, 56)))
    big = 2 ** (bits - 1) - 1
    digit = st.one_of(st.integers(-big, big), st.sampled_from((-big, -1, 1, big)))
    low = draw(st.lists(digit, max_size=8))
    top = draw(st.one_of(st.sampled_from((1, -1)), digit.filter(bool)))
    return bits, {k: c for k, c in enumerate(low + [top]) if c}


@settings(max_examples=200, deadline=None)
@given(signed_digit_maps())
@example((24, {0: -5, 1: -7, 2: 1}))  # a top 1 above two negative digits
@example((40, {1: 2 ** 39 - 1, 2: 5, 3: -1}))  # a top -1 above a carry
@example((48, {0: -(2 ** 47 - 1), 1: -(2 ** 47 - 1)}))
@example((56, {4: -1}))
def test_pack_unpack_and_top_digit_at_whole_byte_widths(case):
    bits, p = case
    value = _pack(bits, p)
    assert _unpack(bits, value) == p
    top = max(p)
    assert _top_digit(bits, value) == (top, p[top])
    # one byte wider: 32 and 64 go through struct, 48 and 56 by slices
    assert _unpack(bits + 8, _pack(bits + 8, p)) == p


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
