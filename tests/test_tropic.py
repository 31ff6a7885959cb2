from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeminor.matroid import default_window, rooted_matrix
from treeminor.poly import ExactPoly, PolyMatrix
from treeminor.radicals import QRad
from treeminor.tree import random_tree
from treeminor.tropic import PrecisionError, PuiseuxTrunc, cholesky, series_det

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
    q = num.divide(den.truncate(F(-3)))
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
    got = prod.divide(PuiseuxTrunc.from_poly(b).truncate(lead_b - 6))
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
def coefficients(draw):
    """A Fraction or a QRad over the radicands, zero included."""
    if draw(st.booleans()):
        return draw(fractions)
    ds = draw(st.lists(st.sampled_from(RADICANDS), min_size=1, max_size=3, unique=True))
    return QRad({d: draw(fractions) for d in ds})


@st.composite
def series(draw):
    """Exact zeros, truncated zeros, exact series and truncated series."""
    ram = draw(st.sampled_from((1, 2, 3, 6)))
    keys = draw(st.lists(st.integers(-12, 12), max_size=6, unique=True))
    terms = {k: draw(coefficients()) for k in keys}
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


# --- matrices ------------------------------------------------------------------


def test_series_det_matches_poly():
    a = ExactPoly.t_power(2) + ExactPoly.one()
    b = ExactPoly.t_power(1)
    c = ExactPoly.t_power(3)
    d = ExactPoly.constant(F(1, 2))
    grid = [[PuiseuxTrunc.from_poly(x) for x in row] for row in [[a, b], [c, d]]]
    assert series_det(grid) == PuiseuxTrunc.from_poly(a * d - b * c)


def test_cholesky_exact_integer_factor():
    t = ExactPoly.t_power(1)
    one, zero = ExactPoly.one(), ExactPoly.zero()
    a = [[ExactPoly.constant(2), zero, zero], [t, one, zero], [one, t, ExactPoly.constant(3)]]
    m = [[sum((a[i][k] * a[j][k] for k in range(3)), zero) for j in range(3)] for i in range(3)]
    sym = PolyMatrix(m)
    low = cholesky(sym)
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
