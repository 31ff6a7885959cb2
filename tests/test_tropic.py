from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treeminor.matroid import _rooted_maps, default_window, rooted_matrix
from treeminor.poly import ExactPoly, PolyMatrix, _kernel, _sylvester
from treeminor.radicals import QRad
from treeminor.tree import Tree, random_tree
from treeminor.tropic import PrecisionError, PuiseuxTrunc, cholesky, ldl, series_det

F = Fraction


# --- QRad --------------------------------------------------------------------


def test_qrad_square_extraction():
    assert str(QRad.sqrt_of(8)) == "2*sqrt(2)"
    assert str(QRad.sqrt_of(F(3, 2))) == "(1/2)*sqrt(6)"
    assert QRad.sqrt_of(9) == F(3)
    assert QRad.sqrt_of(0) == 0


def test_qrad_requires_squarefree_radicands():
    with pytest.raises(ValueError):
        QRad({4: F(1)})
    with pytest.raises(ValueError):
        QRad.sqrt_of(F(-1, 2))


def test_qrad_rejects_a_non_integer_radicand_key():
    with pytest.raises(ValueError, match="radicand key 5/2 is not an integer"):
        QRad({F(5, 2): 1})
    assert QRad({F(4, 2): 3}) == QRad.sqrt_of(18)


def test_qrad_rejects_a_float_coefficient():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError, match="expected a rational, got float"):
        QRad({2: 0.1})
    with pytest.raises(TypeError, match="expected a rational, got float"):
        QRad.sqrt_of(0.5)
    with pytest.raises(TypeError, match="expected a rational, got float"):
        QRad.of(0.5)
    assert QRad({2: "1/10"}) == QRad({2: F(1, 10)})
    assert QRad({2: True}) == QRad.sqrt_of(2)


def test_qrad_products_do_not_nest():
    r2, r3 = QRad.sqrt_of(2), QRad.sqrt_of(3)
    assert r2 * r2 == 2
    assert r2 * r3 == QRad.sqrt_of(6)
    assert (1 + r2) * (1 - r2) == -1
    assert 2 * r2 + QRad.sqrt_of(8) == QRad.sqrt_of(32)


def test_qrad_inverse():
    r2, r3 = QRad.sqrt_of(2), QRad.sqrt_of(3)
    assert (1 + r2).inverse() == r2 - 1
    x = r2 + r3
    assert x * x.inverse() == 1
    y = QRad.of(F(1, 2)) + r2 + QRad.sqrt_of(6)
    assert y * y.inverse() == 1
    assert (QRad.of(1) / (1 + r2)) == r2 - 1
    with pytest.raises(ZeroDivisionError):
        QRad().inverse()


def test_qrad_exact_sign_near_zero():
    r2 = QRad.sqrt_of(2)
    # 577/408 is a convergent of sqrt(2), a hair above it
    assert (r2 - F(577, 408)).sign() == -1
    assert (r2 - F(1)).sign() == 1
    assert QRad().sign() == 0
    assert r2 > F(14, 10)
    assert r2 < F(15, 10)


def test_qrad_as_fraction():
    assert QRad.of(F(3, 2)).as_fraction() == F(3, 2)
    with pytest.raises(ValueError):
        QRad.sqrt_of(2).as_fraction()


# --- series basics -------------------------------------------------------------


def test_series_rejects_a_float_coefficient_or_exponent():
    with pytest.raises(TypeError, match="expected a rational, got float"):
        PuiseuxTrunc.constant(0.1)
    with pytest.raises(TypeError, match="expected a rational, got float"):
        PuiseuxTrunc.from_terms([(F(1), 0.5)])
    with pytest.raises(TypeError, match="expected a rational, got float"):
        PuiseuxTrunc.from_terms([(0.1, 1)])
    assert PuiseuxTrunc.constant(F(1, 10)) == F(1, 10)
    assert PuiseuxTrunc.constant(QRad.of(3)) == 3


def test_series_rendering():
    s = PuiseuxTrunc.from_terms(
        [(F(3, 2), 2), (F(0), 1), (F(-1), F(-1, 8))]
    ).truncate(F(-5, 2))
    assert str(s) == "2*t^(3/2) + 1 - (1/8)*t^(-1) + O(t^(-5/2))"
    assert str(PuiseuxTrunc.zero()) == "0"
    assert str(PuiseuxTrunc.t_power(1).truncate(0)) == "t + O(1)"
    assert str(PuiseuxTrunc.zero().truncate(-2)) == "0"  # exact zero stays exact


def test_series_rejects_a_non_integer_exponent_key():
    with pytest.raises(ValueError, match="exponent key 1/2 is not an integer"):
        PuiseuxTrunc(2, {F(1, 2): 1, 3: 2})
    assert PuiseuxTrunc(2, {F(4, 2): 1, 3: 2}) == PuiseuxTrunc.from_terms(
        [(F(1), 1), (F(3, 2), 2)]
    )


def test_series_valuation_and_precision():
    s = PuiseuxTrunc.from_poly(ExactPoly.t_power(3) - ExactPoly.t_power(1))
    assert s.valuation() == 3
    assert s.sign() == 1
    assert PuiseuxTrunc.zero().valuation() is None
    hidden = PuiseuxTrunc.constant(1).truncate(2)  # the 1 fell below the cutoff
    assert not hidden.terms() and hidden.cutoff == 2
    with pytest.raises(PrecisionError, match="insufficient precision"):
        hidden.valuation()
    with pytest.raises(PrecisionError):
        hidden.sign()
    with pytest.raises(ValueError):
        PuiseuxTrunc.zero().leading()


def test_exact_series_hashes_like_what_it_equals():
    p = ExactPoly.t_power(F(3, 2), F(2, 3)) - ExactPoly.t_power(-1) + 5
    r = QRad.sqrt_of(2)
    for s, x in [
        (PuiseuxTrunc.constant(3), 3),
        (PuiseuxTrunc.constant(F(-1, 2)), F(-1, 2)),
        (PuiseuxTrunc.zero(), 0),
        (PuiseuxTrunc.constant(r), r),
        (PuiseuxTrunc.from_poly(p), p),
    ]:
        assert s == x
        assert hash(s) == hash(x)
        assert len({s, x}) == 1
    # a truncated series equals no exact value; its hash only has to be stable
    cut = PuiseuxTrunc.from_poly(p).truncate(F(-2))
    assert cut != p
    assert hash(cut) == hash(PuiseuxTrunc.from_poly(p).truncate(F(-2)))


def test_series_mul_cutoff_propagation():
    a = PuiseuxTrunc.constant(1).truncate(F(-1))  # 1 + O(t^-1)
    b = PuiseuxTrunc.t_power(2)  # exact
    p = a * b
    assert p.terms() == [(F(2), F(1))]
    assert p.cutoff == F(1)


def test_series_comparison():
    a = PuiseuxTrunc.from_poly(ExactPoly.t_power(2) - ExactPoly.t_power(1))
    b = PuiseuxTrunc.t_power(1)
    assert a > b
    assert b < a
    t_trunc = PuiseuxTrunc.t_power(1).truncate(0)
    with pytest.raises(PrecisionError):
        t_trunc < PuiseuxTrunc.t_power(1)


def test_series_division_frozen():
    num = PuiseuxTrunc.t_power(1)
    den = PuiseuxTrunc.from_terms([(F(1), 1), (F(0), 1)])  # t + 1
    q = num / den.truncate(F(-3))
    assert str(q) == "1 - t^(-1) + t^(-2) - t^(-3) + O(t^(-4))"
    with pytest.raises(ValueError):
        num / den  # exact non-monomial divisor without a cutoff
    assert str(num / PuiseuxTrunc.t_power(3, 2)) == "(1/2)*t^(-2)"


def test_series_sqrt_frozen():
    s = PuiseuxTrunc.from_terms([(F(2), 1), (F(1), 1)])  # t^2 + t
    r = s.truncate(F(-1)).sqrt()
    assert str(r) == "t + 1/2 - (1/8)*t^(-1) + O(t^(-2))"
    assert str(PuiseuxTrunc.t_power(2, 4).sqrt()) == "2*t"
    assert str(PuiseuxTrunc.t_power(1).sqrt()) == "t^(1/2)"
    resq = r * r - s
    assert not resq.terms()  # zero up to the carried cutoff


def test_series_sqrt_irrational_lead():
    s = PuiseuxTrunc.from_terms([(F(2), F(3, 2)), (F(0), 1)])
    r = s.truncate(F(0)).sqrt()
    e, c = r.leading()
    assert e == 1
    assert c == QRad.sqrt_of(F(3, 2))
    assert "sqrt(6)" in str(r)
    with pytest.raises(ArithmeticError):
        PuiseuxTrunc.from_terms([(F(2), F(-1))]).sqrt()
    # the root of a radical series would nest, exact or truncated
    for radical in (r, PuiseuxTrunc.t_power(2, QRad.sqrt_of(2))):
        with pytest.raises(ArithmeticError, match="nested radical"):
            radical.sqrt()


@st.composite
def small_polys(draw):
    n = draw(st.integers(0, 4))
    terms = []
    for _ in range(n):
        e = F(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
        c = F(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        terms.append((e, c))
    return ExactPoly.from_terms(terms)


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys())
def test_series_exact_ops_match_poly(a, b):
    sa, sb = PuiseuxTrunc.from_poly(a), PuiseuxTrunc.from_poly(b)
    assert sa + sb == PuiseuxTrunc.from_poly(a + b)
    assert sa * sb == PuiseuxTrunc.from_poly(a * b)
    assert sa - sb == PuiseuxTrunc.from_poly(a - b)


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys())
def test_series_division_roundtrip(a, b):
    if not list(b.terms()):
        return
    prod = PuiseuxTrunc.from_poly(a * b)
    lead_b = b.leading_term()[0]
    got = prod / PuiseuxTrunc.from_poly(b).truncate(lead_b - 6)
    diff = got - PuiseuxTrunc.from_poly(a)
    assert not diff.terms()
    assert diff.is_exact_zero() or diff.cutoff is not None


def naive_mul(a: PuiseuxTrunc, b: PuiseuxTrunc) -> PuiseuxTrunc:
    """The product as one Fraction or QRad product per pair of known terms,
    fed to the constructor: the reference for PuiseuxTrunc.__mul__."""
    if a.is_exact_zero() or b.is_exact_zero():
        return PuiseuxTrunc.zero()
    ta, tb = a.terms(), b.terms()
    r = lcm(1, *(e.denominator for e, _ in ta + tb))
    terms = {}
    for ea, ca in ta:
        for eb, cb in tb:
            k = int((ea + eb) * r)
            terms[k] = terms.get(k, F(0)) + ca * cb
    # error terms: known(a) * O(b), known(b) * O(a), O(a) * O(b)
    cuts = []
    if b.cutoff is not None and ta:
        cuts.append(ta[0][0] + b.cutoff)
    if a.cutoff is not None and tb:
        cuts.append(tb[0][0] + a.cutoff)
    if a.cutoff is not None and b.cutoff is not None:
        cuts.append(a.cutoff + b.cutoff)
    return PuiseuxTrunc(r, terms, max(cuts) if cuts else None)


RADICANDS = (1, 2, 3, 6)
fractions = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def coefficients(draw, radicand=None):
    """A rational c as a Fraction or a QRad, or c sqrt(d) for one of the
    radicands d (the given one, if any), zero included."""
    d = draw(st.sampled_from(RADICANDS)) if radicand is None else radicand
    if d == 1 and draw(st.booleans()):
        return draw(fractions)
    return QRad({d: draw(fractions)})


@st.composite
def series(draw, radicand=None):
    """Exact zeros, truncated zeros, exact series and truncated series, each
    over one radicand (the given one, if any)."""
    ram = draw(st.sampled_from((1, 2, 3, 6)))
    d = draw(st.sampled_from(RADICANDS)) if radicand is None else radicand
    keys = draw(st.lists(st.integers(-12, 12), max_size=6, unique=True))
    terms = {k: draw(coefficients(d)) for k in keys}
    cutoff = draw(
        st.none() | st.builds(F, st.integers(-30, 15), st.sampled_from((1, 2, 3, 4, 6)))
    )
    return PuiseuxTrunc(ram, terms, cutoff)


scalars = st.one_of(
    st.integers(-5, 5),
    fractions,
    coefficients(),
    small_polys(),
)


def _as_series(x) -> PuiseuxTrunc:
    if isinstance(x, ExactPoly):
        return PuiseuxTrunc.from_poly(x)
    return PuiseuxTrunc.constant(x)


@settings(max_examples=300, deadline=None)
@given(series(), series())
def test_series_mul_matches_the_pairwise_product(a, b):
    want = naive_mul(a, b)
    for got in (a * b, b * a):
        assert got == want
        assert str(got) == str(want)


@settings(max_examples=100, deadline=None)
@given(series(), scalars)
def test_series_mul_by_a_scalar_on_either_side(a, x):
    want = naive_mul(a, _as_series(x))
    for got in (a * x, x * a):
        assert got == want
        assert str(got) == str(want)


def naive_add(a: PuiseuxTrunc, b: PuiseuxTrunc) -> PuiseuxTrunc:
    """The sum as one Fraction or QRad sum per exponent of known terms, fed
    to the constructor: the reference for PuiseuxTrunc.__add__."""
    ta, tb = a.terms(), b.terms()
    r = lcm(1, *(e.denominator for e, _ in ta + tb))
    terms = {}
    for e, c in ta + tb:
        k = int(e * r)
        terms[k] = terms.get(k, F(0)) + c
    cuts = [c for c in (a.cutoff, b.cutoff) if c is not None]
    return PuiseuxTrunc(r, terms, max(cuts) if cuts else None)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_series_add_matches_the_termwise_sum(data):
    a = data.draw(series())
    b = data.draw(series(a._rad) | series())
    if a.terms() and b.terms() and a._rad != b._rad:
        # a series holds one radicand, so such a sum has no representation
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="two radicands"):
                x + y
        return
    want = naive_add(a, b)
    for got in (a + b, b + a):
        assert got == want
        assert str(got) == str(want)


@settings(max_examples=150, deadline=None)
@given(series(), st.sampled_from((1, 2, 3)))
def test_series_canonical_form_is_the_same_from_every_constructor(s, m):
    # hashes are compared within one process: an exact series with an
    # irrational term hashes its cutoff None, whose hash may differ between
    # processes
    terms = s.terms()
    r = lcm(1, *(e.denominator for e, _ in terms))
    same = [PuiseuxTrunc(r * m, {int(e * r * m): c for e, c in terms}, s.cutoff)]
    if terms or s.cutoff is None:  # a truncated zero has no terms to rebuild
        rebuilt = PuiseuxTrunc.from_terms(terms)
        same.append(rebuilt if s.cutoff is None else rebuilt.truncate(s.cutoff))
    for t in same:
        assert t == s
        assert hash(t) == hash(s)
        assert str(t) == str(s)


@settings(max_examples=100, deadline=None)
@given(small_polys())
def test_series_from_poly_matches_from_terms(p):
    s = PuiseuxTrunc.from_poly(p)
    t = PuiseuxTrunc.from_terms(p.terms())
    assert s == t
    assert hash(s) == hash(t)


def _truncated_unless_monomial(s: PuiseuxTrunc) -> PuiseuxTrunc:
    """s itself, or an exact non-monomial s truncated six below its lead."""
    if s.cutoff is None and len(s.terms()) > 1:
        return s.truncate(s.valuation() - 6)
    return s


@settings(max_examples=100, deadline=None)
@given(series())
def test_series_inverse_of_a_radical_series(s):
    assume(s.terms())  # a certified nonzero lead
    s = _truncated_unless_monomial(s)
    assert not (s * s.inverse() - 1).terms()


@st.composite
def truncated_series(draw):
    """A truncated series, rational or over one irrational radicand, with
    at least two known terms, so inverse() expands it."""
    ram = draw(st.sampled_from((1, 2, 3, 6)))
    d = draw(st.sampled_from(RADICANDS))
    keys = draw(st.lists(st.integers(-40, 40), min_size=2, max_size=8, unique=True))
    terms = {k: QRad({d: draw(fractions.filter(bool))}) for k in keys}
    cutoff = draw(st.integers(-120 * ram, min(keys) - 1))
    return PuiseuxTrunc(ram, terms, F(cutoff, ram) - F(draw(st.integers(0, 5)), 6))


@settings(max_examples=200, deadline=None)
@given(truncated_series())
def test_rational_inverse_equals_the_binomial_expansion(s):
    # inverse() runs the recurrence of 1/(1 + u) on every series, a radical
    # one times sqrt(d)/d; the binomial expansion, which sqrt still runs,
    # gives the same terms, radicand, cutoff and canonical form
    lead_e, lead_c = s.leading()
    expanded = s._binomial(F(-1), PuiseuxTrunc.t_power(-lead_e, 1 / lead_c))
    got = s.inverse()
    assert (got._ram, got._den, got._rad, got._terms, got.cutoff) == (
        expanded._ram, expanded._den, expanded._rad, expanded._terms, expanded.cutoff
    )
    assert not (s * got - 1).terms()


@settings(max_examples=100, deadline=None)
@given(series(1))
def test_series_sqrt_of_a_radical_series(s):
    # the root of a rational series is a radical series
    assume(s.terms())
    s = s if s.sign() > 0 else -s
    r = _truncated_unless_monomial(s).sqrt()
    assert not (r * r - s).terms()


def test_series_holds_one_radicand():
    r2, r3 = QRad.sqrt_of(2), QRad.sqrt_of(3)
    with pytest.raises(ValueError, match="several radicands"):
        PuiseuxTrunc.constant(1 + r2)
    with pytest.raises(ValueError, match="several radicands"):
        PuiseuxTrunc(1, {0: 1, 1: r2 + r3})
    with pytest.raises(ValueError, match="two radicands"):
        PuiseuxTrunc(1, {0: r2, 1: r3})
    with pytest.raises(ValueError, match="two radicands"):
        PuiseuxTrunc.from_terms([(F(1), 1), (F(0), r2)])
    # zero coefficients carry no radicand
    assert PuiseuxTrunc(1, {0: r2, 1: QRad(), 2: F(0)}) == PuiseuxTrunc.constant(r2)


def test_series_product_of_two_radicands_is_one_radicand():
    # (sqrt 2 t + sqrt 2)(sqrt 3 t - 2 sqrt 3) = sqrt 6 (t^2 - t - 2)
    r2, r3, r6 = QRad.sqrt_of(2), QRad.sqrt_of(3), QRad.sqrt_of(6)
    a = PuiseuxTrunc(1, {1: r2, 0: r2})
    b = PuiseuxTrunc(1, {1: r3, 0: -2 * r3})
    p = a * b
    assert p._rad == 6
    assert p == PuiseuxTrunc(1, {2: r6, 1: -r6, 0: -2 * r6})
    # sqrt 6 sqrt 2 = 2 sqrt 3
    assert p * a == PuiseuxTrunc(1, {3: 2 * r3, 1: -6 * r3, 0: -4 * r3})


# --- matrices ------------------------------------------------------------------


def test_series_det_matches_poly():
    a = ExactPoly.t_power(2) + ExactPoly.one()
    b = ExactPoly.t_power(1)
    c = ExactPoly.t_power(3)
    d = ExactPoly.constant(F(1, 2))
    grid = [[PuiseuxTrunc.from_poly(x) for x in row] for row in [[a, b], [c, d]]]
    assert series_det(grid) == PuiseuxTrunc.from_poly(a * d - b * c)
    assert series_det([]) == PuiseuxTrunc.constant(1)
    with pytest.raises(ValueError, match="matrix is not square"):
        series_det(grid[:1])


def test_cholesky_exact_integer_factor():
    t = ExactPoly.t_power(1)
    one, zero = ExactPoly.one(), ExactPoly.zero()
    a = [[ExactPoly.constant(2), zero, zero], [t, one, zero], [one, t, ExactPoly.constant(3)]]
    m = [[sum((a[i][k] * a[j][k] for k in range(3)), zero) for j in range(3)] for i in range(3)]
    sym = PolyMatrix(m)
    low = cholesky(sym.entries)
    for i in range(3):
        for j in range(3):
            assert low[i][j] == PuiseuxTrunc.from_poly(a[i][j])


def test_cholesky_identity_and_diagonal():
    one, zero = ExactPoly.one(), ExactPoly.zero()
    low = cholesky([[one, zero], [zero, one]])
    assert low[0][0] == PuiseuxTrunc.constant(1)
    assert low[1][0].is_exact_zero()
    d = cholesky([[ExactPoly.constant(4), zero], [zero, ExactPoly.t_power(2)]])
    assert d[0][0] == PuiseuxTrunc.constant(2)
    assert d[1][1] == PuiseuxTrunc.t_power(1)


def test_cholesky_rejects_an_asymmetric_matrix():
    # only the lower triangle is read, so an unchecked first input would
    # factor as diag(2, 3), whose L L^T is not that input
    four, nine, t = ExactPoly.constant(4), ExactPoly.constant(9), ExactPoly.t_power(1)
    zero = ExactPoly.zero()
    with pytest.raises(ValueError, match=r"not symmetric at \(0,1\)"):
        cholesky([[four, t], [zero, nine]])
    with pytest.raises(ValueError, match=r"not symmetric at \(0,1\)"):
        cholesky([[four, zero], [t, nine]], window=F(4))
    with pytest.raises(ValueError, match=r"not symmetric at \(1,2\)"):
        cholesky(
            [[four, zero, zero], [zero, nine, t], [zero, -t, four]], window=F(4)
        )


def test_cholesky_with_window():
    t2p1 = ExactPoly.t_power(2) + ExactPoly.one()
    t = ExactPoly.t_power(1)
    m = [[t2p1, t], [t, ExactPoly.constant(4)]]
    low = cholesky(m, window=F(8))
    assert low[0][0].leading() == (F(1), F(1))
    assert low[0][0].terms()[1] == (F(-1), F(1, 2))
    # residual L L^T - m vanishes to the working precision
    for i in range(2):
        for j in range(2):
            got = sum(
                (low[i][k] * low[j][k] for k in range(2)), PuiseuxTrunc.zero()
            )
            diff = got - PuiseuxTrunc.from_poly(m[i][j])
            assert not diff.terms()


def test_cholesky_of_a_rooted_matrix_reproduces_it_above_the_window():
    T = random_tree(7, seed=1)
    g = tuple(v for v in T.vertices if v != 6)
    M = rooted_matrix(T, 6, g)
    low = cholesky([[-e for e in row] for row in M.entries], window=default_window(M))
    n = len(g)
    # irrational pivots: the products run on QRad coefficients
    assert any(
        isinstance(c, QRad) for row in low for x in row for _, c in x.terms()
    )
    for i in range(n):
        for j in range(n):
            got = sum((low[i][k] * low[j][k] for k in range(n)), PuiseuxTrunc.zero())
            diff = got + PuiseuxTrunc.from_poly(M[i, j])
            assert not diff.terms()
            assert diff.cutoff is not None and diff.cutoff < M[i, j].leading_term()[0]


def test_cholesky_failure_modes():
    zero = ExactPoly.zero()
    with pytest.raises(ArithmeticError, match="negative"):
        cholesky([[ExactPoly.constant(-4)]])
    with pytest.raises(ArithmeticError, match="singular"):
        cholesky([[zero]])
    with pytest.raises(PrecisionError):
        cholesky(
            [[ExactPoly.one(), zero], [zero, ExactPoly.t_power(-20)]],
            window=F(4),
        )
    with pytest.raises(ValueError):
        cholesky([[ExactPoly.one() + ExactPoly.t_power(2)]])  # needs a window


@pytest.mark.parametrize("factor", [cholesky, ldl], ids=["cholesky", "ldl"])
def test_factor_rejects_a_radical_grid_before_any_work(factor):
    # eliminating [[1, sqrt 2, sqrt 3], [sqrt 2, 4, 1], [sqrt 3, 1, 9]] meets
    # 1 - sqrt 6 at (2,1), a sum over two radicands: the grid is refused
    # before the first pivot instead
    c = PuiseuxTrunc.constant
    r2, r3 = c(QRad.sqrt_of(2)), c(QRad.sqrt_of(3))
    with pytest.raises(ValueError, match=r"entry \(0,1\) is not rational"):
        factor([[c(1), r2, r3], [r2, c(4), c(1)], [r3, c(1), c(9)]])


def _known_valuation(x: PuiseuxTrunc):
    """x's valuation (None for an exact zero), or "unknown" when the
    window truncated it to zero."""
    try:
        return x.valuation()
    except PrecisionError:
        return "unknown"


@pytest.mark.parametrize("weights", ["unit", "rational"])
def test_ldl_pivots_and_entries_match_cholesky_on_rooted_matrices(weights):
    # cholesky shares no elimination step with ldl: L = L1 diag(sqrt d), so
    # each pivot has L_jj's sign and twice its valuation, and each entry
    # below it L1's valuation plus half the pivot's
    checked = 0
    for seed in range(4):
        T = random_tree(6, seed=seed, weights=weights)
        root = T.vertices[seed % len(T.vertices)]
        g = tuple(v for v in T.vertices if v != root)
        M = rooted_matrix(T, root, g)
        neg = [[-e for e in row] for row in M.entries]
        w = default_window(M)
        low = cholesky(neg, window=w)
        unit, pivots = ldl(neg, window=w)
        n = len(g)
        assert len(pivots) == n
        for j, d in enumerate(pivots):
            assert d.sign() == low[j][j].sign() == 1
            assert d.valuation() == 2 * low[j][j].valuation()
            assert unit[j][j] == PuiseuxTrunc.constant(1)
            assert all(unit[j][i].is_exact_zero() for i in range(j + 1, n))
            for i in range(j + 1, n):
                v1, v = _known_valuation(unit[i][j]), _known_valuation(low[i][j])
                if "unknown" in (v1, v):
                    continue
                if v1 is None or v is None:
                    assert v1 is v is None
                else:
                    assert v1 + d.valuation() / 2 == v
                    checked += 1
    assert checked > 0


@pytest.mark.parametrize("weights", ["unit", "rational"])
def test_ldl_pivots_match_ratios_of_exact_leading_minors(weights):
    # an oracle sharing no code with ldl or cholesky: pivot j of -M is
    # det(-M[:j+1]) / det(-M[:j]), so its sign and valuation follow from the
    # top terms of two exact leading minors of M, read off one Sylvester
    # walk over M's integer maps
    checked = 0
    for seed in range(12):
        T = random_tree(7, seed=seed, weights=weights)
        g = tuple(sorted(T.leaves()))
        for root in (v for v in T.vertices if v not in g):
            maps, den = _rooted_maps(T, root, g)
            minors = _sylvester(_kernel(maps, len(g)), g, len(g))
            M = rooted_matrix(T, root, g)
            _, pivots = ldl([[-e for e in row] for row in M.entries], window=default_window(M))
            for j, d in enumerate(pivots):
                hi = minors[g[: j + 1]]
                lo = minors[g[:j]] if j else {0: 1}
                top_hi, top_lo = max(hi), max(lo)
                # det(-M[:j+1]) / det(-M[:j]) = -det M[:j+1] / det M[:j]
                sign = -1 if (hi[top_hi] > 0) == (lo[top_lo] > 0) else 1
                assert d.sign() == sign
                assert d.valuation() == F(top_hi - top_lo, den)
                checked += 1
    assert checked > 100


def test_ldl_factor_reproduces_a_rooted_matrix_above_the_window():
    T = random_tree(7, seed=1)
    g = tuple(v for v in T.vertices if v != 6)
    M = rooted_matrix(T, 6, g)
    unit, pivots = ldl([[-e for e in row] for row in M.entries], window=default_window(M))
    n = len(g)
    # no square roots: every coefficient stays rational
    assert all(
        isinstance(c, Fraction) for row in unit for x in row for _, c in x.terms()
    )
    for i in range(n):
        for j in range(n):
            got = sum(
                (unit[i][k] * pivots[k] * unit[j][k] for k in range(n)), PuiseuxTrunc.zero()
            )
            diff = got + PuiseuxTrunc.from_poly(M[i, j])
            assert not diff.terms()
            assert diff.cutoff is not None and diff.cutoff < M[i, j].leading_term()[0]


def test_ldl_exact_factor_and_failure_modes():
    t = ExactPoly.t_power(1)
    one, zero = ExactPoly.one(), ExactPoly.zero()
    # diag(4, t^2): exact, with pivots the diagonal itself
    unit, pivots = ldl([[ExactPoly.constant(4), zero], [zero, ExactPoly.t_power(2)]])
    assert pivots == [PuiseuxTrunc.constant(4), PuiseuxTrunc.t_power(2)]
    assert unit[1][0].is_exact_zero()
    # [[4, 2t], [2t, t^2 + 1]] = L1 diag(4, 1) L1^T, L1[1][0] = t / 2
    unit, pivots = ldl([[ExactPoly.constant(4), 2 * t], [2 * t, t * t + one]])
    assert unit[1][0] == PuiseuxTrunc.t_power(1, F(1, 2))
    assert pivots[1] == PuiseuxTrunc.constant(1)
    # a pivot of the wrong sign: the second leading minor of
    # [[1, t], [t, 1]] is 1 - t^2, negative for large t
    with pytest.raises(ArithmeticError, match="pivot 1 is negative"):
        ldl([[one, t], [t, one]], window=F(4))
    with pytest.raises(ArithmeticError, match="pivot 0 is negative"):
        ldl([[ExactPoly.constant(-4)]])
    with pytest.raises(ArithmeticError, match="singular"):
        ldl([[zero]])
    # the second pivot t^(-20) lies below a window of 4 under the top entry
    with pytest.raises(PrecisionError):
        ldl([[one, zero], [zero, ExactPoly.t_power(-20)]], window=F(4))
    with pytest.raises(ValueError, match=r"not symmetric at \(0,1\)"):
        ldl([[ExactPoly.constant(4), t], [zero, ExactPoly.constant(9)]])
    with pytest.raises(ValueError, match="window must be positive"):
        ldl([[one]], window=0)


def test_ldl_small_window_on_a_rooted_matrix_raises_precision_error():
    # root 0, leaves 3 and 4 below the path 0-1-2: -M has entries t^6 - 1
    # and t^6 - t^2, and its second pivot is 2 t^2 + ..., which a window of
    # 4 under the top exponent 6 cannot tell from zero; 9/2 can
    M = rooted_matrix(Tree([(0, 1), (1, 2), (2, 3), (2, 4)]), 0, (3, 4))
    neg = [[-e for e in row] for row in M.entries]
    for factor in (cholesky, ldl):
        with pytest.raises(PrecisionError):
            factor(neg, window=F(4))
    _, pivots = ldl(neg, window=F(9, 2))
    assert pivots[1].leading() == (F(2), F(2))
    assert cholesky(neg, window=F(9, 2))[1][1].valuation() == 1
