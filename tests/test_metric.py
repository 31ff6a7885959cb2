import hashlib
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import isqrt, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from treeminor import metric, poly
from treeminor.metric import (
    MINUS_INF,
    check_4pc,
    check_dissimilarity,
    format_matrix_csv,
    hpp_eigen_check,
    inertia,
    parse_matrix_csv,
    power_entry,
    power_matrix,
    random_symmetric_matrix,
    random_tree_metric,
    realize_tree,
    spectral_signature,
    split_potentials,
    square_cycle_metric,
    star_condition_check,
)
from treeminor.radicals import QRad
from treeminor.tree import Tree, format_tree, random_tree

F = Fraction


def tree_distance_matrix(t, pts):
    return [
        [F(0) if a == b else t.dist(a, b) for b in pts] for a in pts
    ]


# --- four-point condition ----------------------------------------------------


def test_4pc_accepts_tree_metrics():
    for seed in (1, 2, 3):
        t = random_tree(8, seed=seed, weights="rational")
        d = tree_distance_matrix(t, list(t.vertices))
        assert check_4pc(d) is None


def test_4pc_rejects_square_cycle_with_certificate():
    bad = check_4pc(square_cycle_metric())
    assert bad is not None
    assert bad.quadruple == (0, 1, 2, 3)
    assert max(bad.sums) == 4
    assert sorted(bad.sums) == [2, 2, 4]
    assert "maximum" in str(bad)


def test_4pc_repetition_catches_triangle_violation():
    d = [[0, 5, 1], [5, 0, 1], [1, 1, 0]]
    bad = check_4pc(d)
    assert bad is not None
    assert len(set(bad.quadruple)) < 4  # needs a repeated point


def test_dissimilarity_validation():
    with pytest.raises(ValueError, match="symmetric"):
        check_dissimilarity([[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="diagonal"):
        check_dissimilarity([[1, 1], [1, 0]])
    with pytest.raises(ValueError, match="negative"):
        check_dissimilarity([[0, -1], [-1, 0]])
    with pytest.raises(ValueError, match="square"):
        check_dissimilarity([[0, 1]])


# --- potentials ---------------------------------------------------------------


def test_split_join_potentials():
    w = [[F(2), F(5)], [F(5), F(4)]]
    d, p = split_potentials(w)
    assert p == [F(1), F(2)]
    assert d == [[F(0), F(2)], [F(2), F(0)]]
    assert [[d[i][j] + p[i] + p[j] for j in range(2)] for i in range(2)] == w


def test_split_join_random_roundtrip():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 6)
        d = random_symmetric_matrix(n, seed=rng.randint(0, 10**6))
        p = [F(rng.randint(-4, 8), rng.choice((1, 2))) for _ in range(n)]
        w = [[d[i][j] + p[i] + p[j] for j in range(n)] for i in range(n)]
        d2, p2 = split_potentials(w)
        assert (d2, p2) == (d, p)


# --- realization ----------------------------------------------------------------


def test_realize_quartet():
    t = Tree([(1, 5), (2, 5), (5, 6), (3, 6), (4, 6)])
    d = tree_distance_matrix(t, [1, 2, 3, 4])
    built, vertex_of = realize_tree(d)
    assert built.n == 6  # two interior vertices forced
    assert vertex_of == [1, 2, 3, 4]
    for i in range(4):
        for j in range(4):
            if i != j:
                assert built.dist(vertex_of[i], vertex_of[j]) == d[i][j]


def test_realize_collinear_points_needs_no_interior():
    d = [[0, 1, 3], [1, 0, 2], [3, 2, 0]]
    built, _ = realize_tree(d)
    assert built.n == 3


def test_realize_merges_zero_distance_points():
    t = Tree([(1, 2), (2, 3)])
    d = tree_distance_matrix(t, [1, 1, 3])
    built, vertex_of = realize_tree(d)
    assert vertex_of[0] == vertex_of[1]
    assert built.dist(vertex_of[0], vertex_of[2]) == 2


def test_realize_degenerate_sizes():
    built, vertex_of = realize_tree([[0]])
    assert built.n == 1 and vertex_of == [1]
    built, vertex_of = realize_tree([[F(0), F(0)], [F(0), F(0)]])
    assert built.n == 1 and vertex_of[0] == vertex_of[1]


def test_realize_rejects_an_empty_matrix():
    with pytest.raises(ValueError, match="empty matrix"):
        realize_tree([])


def test_realize_rejects_non_tree_metric():
    with pytest.raises(ValueError, match="not a tree metric"):
        realize_tree(square_cycle_metric())


@pytest.mark.parametrize("seed", range(6))
def test_realize_random_roundtrip(seed):
    d = random_tree_metric(7, seed=seed, half_integers=(seed % 2 == 0))
    built, vertex_of = realize_tree(d)  # postcondition is checked inside
    n = len(d)
    for i in range(n):
        for j in range(n):
            got = (
                F(0)
                if vertex_of[i] == vertex_of[j]
                else built.dist(vertex_of[i], vertex_of[j])
            )
            assert got == d[i][j]


_QUARTET = Tree([(1, 5, 1), (2, 5, 2), (5, 6, F(1, 2)), (3, 6, 3), (4, 6, 1)])


@pytest.mark.parametrize(
    "d, text, placement",
    [
        # the third point splits the edge 1-2 at the fresh label 5, the
        # fourth the edge 5-3 at 6
        (
            tree_distance_matrix(_QUARTET, [1, 2, 3, 4]),
            "6\n1 5\n2 5 2\n3 6 3\n4 6\n5 6 1/2\n",
            [1, 2, 3, 4],
        ),
        # path 1-2-3 with the points in the order 1, 3, 2: the last point
        # claims the fresh label 4 of the middle vertex
        (tree_distance_matrix(Tree([(1, 2), (2, 3)]), [1, 3, 2]), "3\n1 3\n2 3\n", [1, 2, 3]),
        # a star whose centre comes last and claims the fresh label 5
        (
            tree_distance_matrix(Tree([(1, 4, 2), (2, 4, 1), (3, 4, 3)]), [1, 2, 3, 4]),
            "4\n1 4 2\n2 4\n3 4 3\n",
            [1, 2, 3, 4],
        ),
        # the fifth and sixth points claim the fresh labels 9 and 8, and the
        # seventh hangs below the fifth
        (
            tree_distance_matrix(Tree([*_QUARTET.edges(), (6, 7)]), [1, 2, 3, 4, 6, 5, 7]),
            "7\n1 6\n2 6 2\n3 5 3\n4 5\n5 6 1/2\n5 7\n",
            [1, 2, 3, 4, 5, 6, 7],
        ),
        # points at distance zero share the label of the first of them; the
        # last point claims the fresh label 7
        (
            tree_distance_matrix(
                Tree([(1, 2), (2, 3, F(3, 2)), (2, 4, 2)]), [3, 1, 3, 4, 1, 2]
            ),
            "4\n1 6 3/2\n2 6\n4 6 2\n",
            [1, 2, 1, 4, 2, 6],
        ),
        ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], "1\n", [1, 1, 1]),
        ([[0]], "1\n", [1]),
        ([[0, F(5, 2)], [F(5, 2), 0]], "2\n1 2 5/2\n", [1, 2]),
    ],
)
def test_realize_labels_are_pinned(d, text, placement):
    built, vertex_of = realize_tree(d)
    assert format_tree(built) == text
    assert vertex_of == placement


def _pinned_realization_cases():
    """Tree metrics with weights over 3, 4 and 6 on points drawn with
    repetition from all vertices (zero distances, points on interior
    vertices that claim a fresh label), a single point, an all-zero matrix,
    and the same metrics with potentials over 3 and 4 added."""
    rng = random.Random(11)
    metrics = [[[F(0)]], [[F(0)] * 4 for _ in range(4)]]
    for _ in range(40):
        n = rng.randint(2, 14)
        t = Tree(
            [(rng.randint(1, v - 1), v, F(rng.randint(1, 12), rng.choice((3, 4, 6))))
             for v in range(2, n + 1)]
        )
        pts = [rng.choice(t.vertices) for _ in range(rng.randint(1, 12))]
        metrics.append(tree_distance_matrix(t, pts))
    potentials = []
    for d in metrics:
        p = [F(rng.randint(-6, 9), rng.choice((3, 4))) for _ in d]
        potentials.append(
            [[x + p[i] + p[j] for j, x in enumerate(row)] for i, row in enumerate(d)]
        )
    return metrics, potentials


# sha256 of the repr of every realization (edges and placement) and every
# split of the cases above, taken before realize_tree and split_potentials
# moved from Fractions to the integer form
PINNED_REALIZATIONS = "fdd0d689b1cd394eed0d03e79644f3d67a945e53ceffe51bf62c91a0bd48df57"


def test_realizations_and_splits_are_pinned():
    metrics, potentials = _pinned_realization_cases()
    out = []
    for d in metrics:
        built, placement = realize_tree(d)
        out.append((built.edges(), placement))
    out.extend(split_potentials(w) for w in potentials)
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == PINNED_REALIZATIONS


# --- powered matrices and signatures ---------------------------------------------


def _qrad(x):
    """x as a QRad, a pair a + b sqrt(r) of `metric._power` built through
    QRad's own square root: the pair walk's independent oracle."""
    if isinstance(x, metric._Surd):
        return QRad.of(x.a) + x.b * QRad.sqrt_of(x.r)
    return QRad.of(x)


def test_power_entry_exact():
    assert power_entry(10, 3) == 1000
    assert power_entry(10, F(-2)) == F(1, 100)
    assert _qrad(power_entry(10, F(3, 2))) == 10 * QRad.sqrt_of(10)
    assert power_entry(100, F(1, 2)) == 10
    assert _qrad(power_entry(10, F(-1, 2))) == QRad.sqrt_of(10) / 10
    assert _qrad(power_entry(F(3, 2), F(-3, 2))) == F(2, 3) / QRad.sqrt_of(F(3, 2))
    with pytest.raises(ValueError, match="root"):
        power_entry(10, F(1, 3))


def test_power_matrix_subset_validation():
    d = [[F(0), F(1), F(2)], [F(1), F(0), F(1)], [F(2), F(1), F(0)]]
    assert spectral_signature(d, 10, [2, 0]) == inertia([[1, 100], [100, 1]])
    assert spectral_signature(d, 10, []) == (0, 0, 0)
    for bad in ([3], [-1], [0, 0]):
        with pytest.raises(ValueError, match="distinct indices in 0..2"):
            spectral_signature(d, 10, bad)
    c4 = power_matrix(square_cycle_metric(), 10)
    assert star_condition_check(c4, [[3, 1]]) is None
    for bad in ([-1], [0, 0], [7]):
        with pytest.raises(ValueError, match="distinct indices in 0..3"):
            star_condition_check(c4, [[0], bad])


def test_inertia_small_cases():
    assert inertia([[F(1), F(0)], [F(0), F(-2)]]) == (1, 1, 0)
    assert inertia([[F(0), F(3)], [F(3), F(0)]]) == (1, 1, 0)
    assert inertia([[F(0)]]) == (0, 0, 1)
    assert inertia([[F(2), QRad.sqrt_of(2)], [QRad.sqrt_of(2), F(1)]]) == (1, 0, 1)
    with pytest.raises(ValueError, match="symmetric"):
        inertia([[F(0), F(1)], [F(2), F(0)]])
    with pytest.raises(ValueError, match="matrix is not square"):
        inertia([[F(0), F(1)], [F(1)]])
    # as exponents: at tau = 1 every entry powers to 1, so only they show it
    for tau in (1, 2):
        with pytest.raises(ValueError, match=r"not symmetric at \(1,0\)"):
            spectral_signature([[0, 1], [2, 0]], tau)


def test_floats_are_rejected_before_an_elimination():
    # the float 1/3 lies just below 1/3, so det = 3 * (1/3) - 1 < 0 exactly;
    # float arithmetic rounds the second pivot 1/3 - 1/3 to 0: (1, 0, 1)
    m = [[3.0, 1.0], [1.0, 1 / 3]]
    assert inertia([[F(x) for x in row] for row in m]) == (1, 1, 0)
    with pytest.raises(TypeError):
        inertia(m)
    with pytest.raises(TypeError):
        star_condition_check(m)
    # exponents still convert exactly, float or not
    assert power_matrix([[0.0, 1.5], [1.5, 0.0]], 4) == power_matrix([[0, F(3, 2)], [F(3, 2), 0]], 4)
    assert hpp_eigen_check([[0.0, 2.5], [2.5, 0.0]]) is None


def _leading_minor_signature(m):
    """Jacobi's rule: when every leading principal minor is nonzero, the
    negatives count sign flips along the minor sequence."""
    n = len(m)
    dets = [F(1)]
    for k in range(1, n + 1):
        sub = [row[:k] for row in m[:k]]
        dets.append(_fraction_det(sub))
    if any(d == 0 for d in dets[1:]):
        return None
    neg = sum(1 for a, b in zip(dets, dets[1:]) if (a > 0) != (b > 0))
    return n - neg, neg, 0


def _fraction_det(rows):
    a = [list(r) for r in rows]
    n = len(a)
    sign = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return F(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            for j in range(c, n):
                a[r][j] -= f * a[c][j]
    out = F(sign)
    for i in range(n):
        out *= a[i][i]
    return out


def test_inertia_matches_jacobi_rule():
    rng = random.Random(17)
    checked = 0
    while checked < 25:
        n = rng.randint(2, 5)
        m = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = F(rng.randint(-6, 6))
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = F(rng.randint(-6, 6))
        want = _leading_minor_signature(m)
        if want is None:
            continue
        assert inertia(m) == want
        checked += 1


def test_tree_metric_signature():
    t = random_tree(6, seed=9)
    d = tree_distance_matrix(t, list(t.vertices))
    assert spectral_signature(d, 10) == (1, 5, 0)
    assert spectral_signature(d, 10, subset=[0, 2, 4]) == (1, 2, 0)
    assert spectral_signature(d, 100) == (1, 5, 0)


def test_square_cycle_signature_fails():
    d = square_cycle_metric()
    assert spectral_signature(d, 10) == (2, 2, 0)
    assert spectral_signature(d, 100) == (2, 2, 0)
    assert star_condition_check(power_matrix(d, 10)) == (0, 1, 2, 3)


def test_alternating_minor_signs_on_tree_metric():
    t = random_tree(5, seed=23)
    d = tree_distance_matrix(t, list(t.vertices))
    for r in range(1, len(d) + 1):
        for xs in combinations(range(len(d)), r):
            # one positive eigenvalue and no zero one: sign det = (-1)^(|X|+1)
            assert spectral_signature(d, 10, xs) == (1, r - 1, 0)


def test_half_integer_signature_stays_exact():
    t = random_tree(5, seed=31)  # unit weights, so halving keeps denominator 2
    d = [[x / 2 for x in row] for row in tree_distance_matrix(t, list(t.vertices))]
    assert any(x.denominator == 2 for row in d for x in row)
    assert spectral_signature(d, 10) == (1, 4, 0)
    assert spectral_signature(d, 100) == (1, 4, 0)


# --- csv ------------------------------------------------------------------------


def test_matrix_csv_roundtrip():
    m = [[F(0), F(3, 2), MINUS_INF], [F(3, 2), F(0), F(4)], [MINUS_INF, F(4), F(0)]]
    text = format_matrix_csv(m)
    assert "-inf" in text and "3/2" in text
    assert parse_matrix_csv(text) == m


def test_matrix_csv_errors():
    with pytest.raises(ValueError, match="line 2"):
        parse_matrix_csv("0,1\n1,zebra\n")
    with pytest.raises(ValueError, match="square"):
        parse_matrix_csv("0,1\n")
    with pytest.raises(ValueError, match="empty"):
        parse_matrix_csv("# just a comment\n")


def test_matrix_csv_reads_each_token_as_fraction_does():
    # the int fast path for n and n/d must accept, refuse and value every
    # token exactly as Fraction(token) does, with the same error text
    tokens = [
        "0", "7", "-7", "+3", " 2 ", "007", "3/2", "-3/2", "+3/4", "6/4", "0/5",
        "1/0", "-0/1", "2.5", "-2.5e3", "1e2", "1_0", "1_0/2_0", "\u0663",
        "\u0661/\u0662", "\uff13", "3 /4", "3/ 4", "3/-4", "--3", "+", "-", "/", "3/",
        "/4", "1/2/3", "0x10", "zebra", "nan", "inf", "-inf",
    ]
    for tok in tokens:
        try:
            want = [[MINUS_INF if tok == "-inf" else F(tok.strip())]]
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ValueError) as got:
                parse_matrix_csv(f"{tok}\n")
            assert str(got.value) == f"line 1: bad entry {tok.strip()!r}"
        else:
            assert parse_matrix_csv(f"{tok}\n") == want, tok


def test_matrix_csv_shares_one_value_per_token_text():
    # repeated, padded and decimal or exponent tokens: each entry is what
    # Fraction gives for its stripped text
    toks = ["3", " 3 ", "3", "-inf", " -inf ", "2.5", "1e1", " 1e1", "3/6", "1/2", "0", "-0"]
    n = len(toks)
    text = "\n".join(",".join(toks[(i + k) % n] for k in range(n)) for i in range(n))
    got = parse_matrix_csv(text)
    for i, row in enumerate(got):
        for k, x in enumerate(row):
            tok = toks[(i + k) % n].strip()
            if tok == "-inf":
                assert x == MINUS_INF and type(x) is float
            else:
                assert x == F(tok) and type(x) is F, tok


def test_matrix_csv_bad_entry_names_its_line_after_good_repeats():
    for bad in ("x", "1/0"):
        texts = [
            f"{bad},1,2\n1,0,1\n2,1,0\n",
            f"0,1,2\n {bad},0,1\n2,1,0\n",
            f"0,1,2\n1,0,1\n2, {bad},0\n",
        ]
        for k, text in enumerate(texts, start=1):
            with pytest.raises(ValueError) as got:
                parse_matrix_csv(text)
            assert str(got.value) == f"line {k}: bad entry {bad!r}"


_CSV_TOKENS = st.sampled_from(
    ["0", "1", "-1", "3/2", "6/4", "2.5", "1e1", "-2.5e-1", "007", "1_0", "-inf", "x", "1/0", "nan"]
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(
                st.tuples(_CSV_TOKENS, st.sampled_from(["", " ", "  "])), min_size=n, max_size=n
            ),
            min_size=n,
            max_size=n,
        )
    )
)
def test_matrix_csv_matches_a_plain_fraction_parse(grid):
    lines = [",".join(pad + tok + pad[:1] for tok, pad in row) for row in grid]
    text = "\n".join(lines) + "\n"
    want = []
    for lineno, row in enumerate(grid, start=1):
        try:
            want.append([MINUS_INF if tok == "-inf" else F(tok) for tok, _ in row])
        except (ValueError, ZeroDivisionError):
            bad = next(tok for tok, _ in row if tok in ("x", "1/0", "nan"))
            with pytest.raises(ValueError) as got:
                parse_matrix_csv(text)
            assert str(got.value) == f"line {lineno}: bad entry {bad!r}"
            return
    assert parse_matrix_csv(text) == want


def test_random_generators_shape():
    d = random_tree_metric(6, seed=4)
    assert check_4pc(d) is None
    m = random_symmetric_matrix(5, seed=4)
    check_dissimilarity(m)
    assert any(x.denominator == 2 for row in m for x in row)


# --- star condition and eigenvalue-count checks -------------------------------


def test_star_condition_tracks_4pc():
    t = random_tree(5, seed=21)
    d = tree_distance_matrix(t, list(t.vertices))
    for tau in (10, 100):
        assert star_condition_check(power_matrix(d, tau)) is None
    assert star_condition_check(power_matrix(square_cycle_metric(), 10)) is not None


def test_star_condition_weak_inequalities():
    # the identity fails at any pair (det 1 > 0 on an even subset)...
    eye = [[F(1), F(0)], [F(0), F(1)]]
    assert star_condition_check(eye) == (0, 1)
    # ...but zero minors are fine on either parity
    flat = [[F(1), F(1)], [F(1), F(1)]]
    assert star_condition_check(flat) is None
    with pytest.raises(ValueError):
        star_condition_check([[F(0)] * 13 for _ in range(13)])


def test_star_condition_names_the_asymmetric_pair_of_the_whole_matrix():
    m = power_matrix(tree_distance_matrix(random_tree(4, seed=2), [1, 2, 3, 4]), 10)
    m[2][3] += 1
    with pytest.raises(ValueError, match=r"not symmetric at \(3,2\)"):
        star_condition_check(m)


def test_hpp_eigen_check_tree_metric_ok():
    t = random_tree(6, seed=8, weights="rational")
    d = tree_distance_matrix(t, list(t.vertices))
    assert hpp_eigen_check(d) is None


def test_hpp_eigen_check_square_cycle_fails_at_large_base():
    out = hpp_eigen_check(square_cycle_metric())
    assert out == 10  # (tau^d) already has two positive eigenvalues there


def test_hpp_eigen_check_minus_inf_diagonal():
    # a pair function with -inf self-values: powers to zero diagonal entries
    w = [[MINUS_INF, F(1)], [F(1), MINUS_INF]]
    assert hpp_eigen_check(w) is None
    with pytest.raises(ValueError):
        hpp_eigen_check([[F(0), MINUS_INF], [MINUS_INF, F(0)]])
    with pytest.raises(ValueError):
        hpp_eigen_check([[F(0), F(1)], [F(2), F(0)]])


def test_hpp_eigen_check_degenerate_sizes():
    assert hpp_eigen_check([[F(5)]]) is None
    assert hpp_eigen_check([]) is None


# --- the exact fast paths against plain oracles --------------------------------


def _plain_four_point_scan(m):
    """First quadruple whose largest pair sum is strictly above the other
    two, on the entries themselves (-inf stays a float)."""
    n = len(m)
    for q in combinations_with_replacement(range(n), 4):
        i, j, k, l = q
        s = (m[i][j] + m[k][l], m[i][k] + m[j][l], m[i][l] + m[j][k])
        lo, mid, top = sorted(s)
        if mid < top:
            return q, s
    return None


_DENOMINATORS = st.integers(1, 3)


@st.composite
def _pair_value_matrices(draw):
    """Symmetric matrices with -inf, zero or rational diagonal entries and
    rational entries off it, denominators 1-3.  Half of them are tree
    metrics plus potentials, which pass the four-point condition."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        d = random_tree_metric(n, seed=draw(st.integers(0, 10**6)))
        den = draw(_DENOMINATORS)
        p = [F(draw(st.integers(-6, 6)), den) for _ in range(n)]
        m = [[d[i][j] / den + p[i] + p[j] for j in range(n)] for i in range(n)]
    else:
        m = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = F(draw(st.integers(-4, 8)), draw(_DENOMINATORS))
    for i in range(n):
        m[i][i] = draw(
            st.one_of(
                st.just(MINUS_INF),
                st.just(m[i][i]),
                st.builds(F, st.integers(-6, 6), _DENOMINATORS),
            )
        )
    return m


@settings(max_examples=300, deadline=None)
@given(_pair_value_matrices())
def test_integer_four_point_scan_matches_a_plain_fraction_scan(m):
    got = _scan(m)
    want = _plain_four_point_scan(m)
    assert (got and (got.quadruple, got.sums)) == want


def _scan(m):
    """`_four_point_scan` on m's integer form, as its callers hand it."""
    return metric._four_point_scan(*metric._integers(metric.as_matrix(m)))


@st.composite
def _four_point_inputs(draw):
    """Matrices of 0-9 points, denominators 1-2: tree metrics (points may
    repeat), tree metrics with one pair perturbed, random symmetric ones,
    and tree metrics plus potentials off the diagonal, with -inf, zero,
    twice the potential or a perturbed diagonal entry; the last fail, if at
    all, only on quadruples with a repeated index."""
    n = draw(st.integers(0, 9))
    kind = draw(st.sampled_from(["tree", "perturbed", "symmetric", "potentials"]))
    seed = draw(st.integers(0, 10**6))
    den = draw(st.integers(1, 2))
    if kind == "symmetric":
        m = random_symmetric_matrix(n, seed=seed, half_integers=den == 2, high=6)
    else:
        m = [[x / den for x in row] for row in random_tree_metric(n, seed=seed)]
    if kind == "perturbed" and n >= 2:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        m[i][j] = m[j][i] = max(F(0), m[i][j] + F(draw(st.integers(-2, 2)), den))
    if kind == "potentials":
        p = [F(draw(st.integers(-3, 3)), den) for _ in range(n)]
        m = [[m[i][j] + p[i] + p[j] for j in range(n)] for i in range(n)]
        for i in range(n):
            m[i][i] = draw(st.sampled_from([MINUS_INF, F(0), 2 * p[i], 2 * p[i] + F(1, den)]))
    return m


def _grower_holds(m):
    """The four-point verdict of `hpp_eigen_check`: whether `_grow`
    certifies the realizing tree of m's integer form, potentials reduced
    and a -inf diagonal entry read as the sentinel of `_sentineled`."""
    return metric._tree_points(metric._integers(m)[0]) is not None


@settings(max_examples=400, deadline=None)
@given(_four_point_inputs())
@example([])
def test_fast_four_point_test_agrees_with_the_scan(m):
    assert _grower_holds(m) == (_scan(m) is None)


def _repeated_index_cases():
    """(matrix, certificate): matrices that pass on every quadruple of
    distinct points and fail first at {a, a, b, b} or at {a, a, b, c}."""
    path = Tree([(v, v + 1, 1) for v in range(1, 6)])
    d = tree_distance_matrix(path, [1, 1, 2, 3, 4, 5])
    aabb = [row[:] for row in d]
    aabb[0][0] = aabb[1][1] = F(1)  # points 0 and 1 coincide
    # potentials off the diagonal, zero on it: point 2 lies between 1 and 3
    d = tree_distance_matrix(path, list(path.vertices))
    p = [0, -1, 0, 0, 0, 0]
    aabc = [[F(0) if i == j else d[i][j] + p[i] + p[j] for j in range(6)] for i in range(6)]
    minus_inf = [row[:] for row in aabc]
    minus_inf[0][0] = MINUS_INF
    # a caterpillar, spine 1-6 with edges 2 and leaves 7-11 on it, and a
    # point a on leaf 12, hung from spine vertex 3 by an edge 1, with w_aa
    # = 3: {a, a, b, c} fails exactly when the path b-c passes vertex 3.
    # The first failing pair holds neither a nor the point before it,
    # cyclically, so a test that reads one base point next to a misses it
    cat = Tree(
        [(v, v + 1, 2) for v in range(1, 6)]
        + [(1, 7, 1), (2, 8, 3), (4, 9, 1), (5, 10, 2), (6, 11, 1), (3, 12, 1)]
    )
    away = []
    for a, pts in [
        (0, [12, 1, 7, 8, 2, 4, 9, 5, 10, 11]),
        (5, [7, 1, 9, 6, 10, 12, 2, 8, 4, 5, 11]),
    ]:
        m = tree_distance_matrix(cat, pts)
        m[a][a] = F(3)
        away.append(m)
    return [
        ([[F(1), F(0)], [F(0), F(1)]], (0, 0, 1, 1)),
        (aabb, (0, 0, 1, 1)),
        (aabc, (0, 1, 1, 2)),
        (minus_inf, (0, 1, 1, 2)),
        ([[F(0), F(1), F(5)], [F(1), F(0), F(1)], [F(5), F(1), F(0)]], (0, 1, 1, 2)),
        (away[0], (0, 0, 1, 5)),
        (away[1], (0, 2, 5, 5)),
    ]


@pytest.mark.parametrize("m, certificate", _repeated_index_cases())
def test_fast_four_point_test_sees_violations_at_repeated_indices(m, certificate):
    bad = _scan(m)
    assert bad.quadruple == certificate
    for i, j, k, l in combinations(range(len(m)), 4):
        sums = sorted([m[i][j] + m[k][l], m[i][k] + m[j][l], m[i][l] + m[j][k]])
        assert sums[1] == sums[2]
    assert not _grower_holds(m)


@st.composite
def _tree_metrics_with_potentials(draw):
    """Tree metrics of 10-24 points, denominators 1-3, plus potentials on
    one or two points off the diagonal, and diagonal entries -inf, 2 p_i or
    2 p_i + 1/den."""
    n = draw(st.integers(10, 24))
    den = draw(st.integers(1, 3))
    d = random_tree_metric(n, seed=draw(st.integers(0, 10**6)))
    p = [F(0)] * n
    for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True)):
        p[i] = F(draw(st.integers(-4, 4)), den)
    m = [[d[i][j] / den + p[i] + p[j] for j in range(n)] for i in range(n)]
    for i in range(n):
        m[i][i] = draw(st.sampled_from([MINUS_INF, 2 * p[i], 2 * p[i] + F(1, den)]))
    return m


@settings(max_examples=60, deadline=None)
@given(_tree_metrics_with_potentials())
def test_fast_four_point_test_agrees_with_the_scan_on_larger_tree_metrics(m):
    assert _grower_holds(m) == (_scan(m) is None)


def _qrad_inertia(a):
    return metric._inertia([[_qrad(x) for x in row] for row in a])


def _integer_powered_form(w, scale, tau):
    """The powered matrix as `_powered_form` splits it, integers, or None
    when it falls back to `_power`'s entries as ints and pairs of ints."""
    a = metric._powered_form(w, scale, tau)
    return a if all(type(x) is int for row in a for x in row) else None


def _integer_exact_form(m):
    """m as `_exact_form` splits it, integers, or None when it falls back
    to pairs of ints or QRads."""
    a = metric._exact_form(m)
    return a if all(type(x) is int for row in a for x in row) else None


_TAUS = [F(1), F(4), F(10), F(12), F(100), F(3, 2), F(9, 4)]


@settings(max_examples=200, deadline=None)
@given(_four_point_inputs(), st.sampled_from(_TAUS))
def test_integer_powered_form_has_the_inertia_of_the_qrad_matrix(m, tau):
    w, scale = metric._integers(m)
    a = _integer_powered_form(w, scale, tau)
    want = _qrad_inertia(metric._power(*metric._integers(m), tau))
    if a is None:
        # half-integer exponents on an odd cycle of parities; squares never
        assert scale == 2 and tau not in (1, 4, 100, F(9, 4))
        return
    assert all(isinstance(x, int) for row in a for x in row)
    assert metric._inertia(a) == want


def test_odd_parity_cycle_falls_back_to_square_roots():
    # three points at distance 1/2: every parity edge is odd
    odd = [[F(0) if i == j else F(1, 2) for j in range(3)] for i in range(3)]
    w, scale = metric._integers(odd)
    assert _integer_powered_form(w, scale, F(10)) is None
    assert _integer_powered_form(w, scale, F(9, 4)) is not None
    for tau in (10, F(3, 2), F(9, 4)):
        want = _qrad_inertia(power_matrix(odd, tau))
        assert spectral_signature(odd, tau) == want == inertia(power_matrix(odd, tau))
    assert want == (1, 2, 0)
    assert hpp_eigen_check(odd, [10, F(3, 2)]) is None


def test_odd_parity_cycle_fallback_skips_the_rational_form(monkeypatch):
    # the split reads the exponents, so once it fails the square-root
    # entries go straight to the elimination: no pair or QRad reaches the split
    split = metric._rational_form

    def exponents_only(parts, d):
        assert not any(isinstance(c, (QRad, metric._Surd)) for row in parts for c, _ in row)
        assert split(parts, d) is None
        return None

    def unreachable(a):
        raise AssertionError("_exact_form reached")

    monkeypatch.setattr(metric, "_rational_form", exponents_only)
    monkeypatch.setattr(metric, "_exact_form", unreachable)
    odd = [[F(0) if i == j else F(1, 2) for j in range(3)] for i in range(3)]
    # the same triangle and a far point: two positive eigenvalues
    far = [
        [F(0), F(1, 2), F(1, 2), F(5)],
        [F(1, 2), F(0), F(1, 2), F(1)],
        [F(1, 2), F(1, 2), F(0), F(1)],
        [F(5), F(1), F(1), F(0)],
    ]
    for m in (odd, far):
        for tau in (10, F(3, 2)):
            want = _qrad_inertia(metric._power(*metric._integers(m), F(tau)))
            assert spectral_signature(m, tau) == want
            assert spectral_signature(m, tau, [2, 0, 1]) == _qrad_inertia(
                metric._power(*metric._integers(m, [2, 0, 1]), F(tau))
            )
            assert hpp_eigen_check(m, [tau]) == (F(tau) if want[0] > 1 else None)
    assert spectral_signature(far, 10) == (2, 2, 0)


def test_hollow_matrix_splits_to_a_primitive_integer_form():
    # hollow3 of CI: exponents 1, 2 and -inf on the diagonal; the split is
    # divided by the gcd of its ints, so it is not tau times wider
    hollow = metric.as_matrix([[MINUS_INF, 1, 2], [1, MINUS_INF, 1], [2, 1, MINUS_INF]])
    w, scale = metric._integers(hollow)
    assert metric._powered_form(w, scale, F(10)) == [[0, 1, 10], [1, 0, 1], [10, 1, 0]]
    assert metric._powered_form(w, scale, F(3, 2)) == [[0, 2, 3], [2, 0, 2], [3, 2, 0]]


def test_exponents_beyond_half_integers_keep_their_error():
    third = [[F(0), F(1, 3)], [F(1, 3), F(0)]]
    message = "exponent 1/3 needs a 3-th root; only 2 is supported"
    for check in (lambda: spectral_signature(third, 10), lambda: hpp_eigen_check(third)):
        with pytest.raises(ValueError) as err:
            check()
        assert str(err.value) == message


def test_exact_roots_of_a_perfect_power_base():
    # 8^(k/3) = 2^k and (27/8)^(k/3) = (3/2)^k: thirds are powered exactly
    assert power_entry(8, F(1, 3)) == 2
    assert power_entry(F(27, 8), F(-2, 3)) == F(4, 9)
    assert power_entry(4, F(3, 2)) == 8
    assert metric._exact_root(F(2**64, 3**128), 64) == F(2, 9)
    assert metric._exact_root(F(10), 3) is None
    assert metric._exact_root(F(8), 10**9) is None
    t = random_tree(7, seed=2)
    thirds = [[x / 3 for x in row] for row in tree_distance_matrix(t, list(t.vertices))]
    whole = [[3 * x for x in row] for row in thirds]
    sym = [[x / 3 for x in row] for row in random_symmetric_matrix(5, seed=4, half_integers=False)]
    for m in (thirds, sym, [[F(0), F(1, 3)], [F(1, 3), F(0)]]):
        for tau, root in ((8, 2), (F(27, 8), F(3, 2))):
            w, scale = metric._integers(m)
            assert scale == 3
            a = _integer_powered_form(w, scale, F(tau))
            assert all(isinstance(x, int) for row in a for x in row)
            want = spectral_signature([[3 * x for x in row] for row in m], root)
            assert spectral_signature(m, tau) == want
            assert spectral_signature(m, tau, [1, 0]) == spectral_signature(
                [[3 * x for x in row] for row in m], root, [1, 0]
            )
    assert spectral_signature(thirds, 8) == (1, 6, 0)
    assert hpp_eigen_check(thirds, [8, F(27, 8)]) is None
    assert hpp_eigen_check(whole, [2]) is None


def test_hpp_eigen_check_names_the_first_minus_inf_off_the_diagonal():
    m = [[F(0)] * 4 for _ in range(4)]
    m[2][2] = MINUS_INF
    for i, j in ((3, 1), (2, 3)):
        m[i][j] = m[j][i] = MINUS_INF
    message = "-inf off the diagonal at (1,3); only diagonal entries may be -inf"
    with pytest.raises(ValueError) as err:
        hpp_eigen_check(m)
    assert str(err.value) == message


def test_base_is_checked_before_any_entry_is_powered():
    for rows in ([[MINUS_INF]], [], [[F(0), F(1)], [F(1), F(0)]]):
        for check in (
            lambda: power_matrix(rows, -1),
            lambda: spectral_signature(rows, 0),
            lambda: hpp_eigen_check(rows, [10, F(-1, 2)]),
        ):
            with pytest.raises(ValueError, match="base must be positive"):
                check()
    with pytest.raises(ValueError, match="base must be positive"):
        spectral_signature([[F(0), F(1)], [F(1), F(0)]], -2, [])


# --- the tree route of spectral_signature and hpp_eigen_check ----------------


def _walk(m, subset, tau):
    """The route's oracle: the walk on the powered matrix, as for any input."""
    idx = range(len(m)) if subset is None else subset
    return metric._inertia(metric._powered_form(*metric._integers(metric.as_matrix(m), idx), tau))


_ROUTE_TAUS = [F(1), F(10), F(4), F(16), F(3, 2), F(9, 4), F(81, 16), F(1, 2), F(1, 4), F(4, 9)]


@st.composite
def _tree_route_inputs(draw):
    """Tree metrics on 1-10 points drawn with repetition from the vertices
    of a random tree of 1-12 vertices, weights k or k/2, then potentials
    over 1, 2 or 4 or none, and an index subset in any order or none."""
    size = draw(st.integers(1, 12))
    den = draw(st.sampled_from([1, 2]))
    t = Tree(
        [(draw(st.integers(1, v - 1)), v, F(draw(st.integers(1, 8)), den)) for v in range(2, size + 1)],
        vertices=range(1, size + 1),
    )
    pts = draw(st.lists(st.sampled_from(t.vertices), min_size=1, max_size=10))
    m = tree_distance_matrix(t, pts)
    pden = draw(st.sampled_from([None, 1, 2, 4]))
    if pden is not None:
        p = [F(draw(st.integers(-6, 6)), pden) for _ in pts]
        m = [[x + p[i] + p[j] for j, x in enumerate(row)] for i, row in enumerate(m)]
    order = draw(st.permutations(range(len(pts))))
    subset = draw(st.none() | st.integers(0, len(pts)).map(lambda r: order[:r]))
    return m, subset


@settings(max_examples=300, deadline=None)
@given(_tree_route_inputs(), st.sampled_from(_ROUTE_TAUS))
def test_tree_route_matches_the_walk(case, tau):
    def outcome(f):
        # quarter potentials at a base with no fourth root: the walk's refusal
        try:
            return f()
        except ValueError as exc:
            return str(exc)

    m, subset = case
    assert outcome(lambda: spectral_signature(m, tau, subset)) == outcome(lambda: _walk(m, subset, tau))
    assert outcome(lambda: hpp_eigen_check(m, [tau])) == outcome(
        lambda: tau if _walk(m, None, tau)[0] > 1 else None
    )


def _steiner_edge_metrics():
    """(name, metric): the leaves of a quartet and of random trees, whose
    realized trees join fresh (Steiner) vertices by an edge, and tri.csv,
    three points at distance 1/2, realized as a star of quarter edges."""
    out = [("quartet", tree_distance_matrix(_QUARTET, [1, 2, 3, 4]))]
    for seed in (0, 1, 2, 4):
        t = random_tree(14, seed=seed)
        d = tree_distance_matrix(t, t.leaves())
        out.append((f"leaves{seed}", [[x / (1 + seed % 2) for x in row] for row in d]))
    out.append(("tri", [[F(0) if i == j else F(1, 2) for j in range(3)] for i in range(3)]))
    return out


@pytest.mark.parametrize("name, d", _steiner_edge_metrics())
def test_tree_route_on_steiner_steiner_and_quarter_edges(name, d):
    built, _ = realize_tree(d)
    n = len(d)
    if name == "tri":
        assert {w for _, _, w in built.edges()} == {F(1, 4)}
    else:
        assert any(u > n and v > n for u, v, _ in built.edges())
    for tau in _ROUTE_TAUS + [F(2**61 - 1)]:
        if tau.denominator == 1 and tau > 100:
            want = (1, n - 1, 0)  # the walk would factorise tau
        else:
            want = _walk(d, None, tau)
        assert spectral_signature(d, tau) == want
        assert spectral_signature(d, tau, [2, 0]) == _walk(d, [2, 0], tau)
        assert hpp_eigen_check(d, [tau]) == (tau if want[0] > 1 else None)


def test_tree_route_leaves_every_other_input_to_the_walk(monkeypatch):
    walked = []
    walk = metric._inertia
    monkeypatch.setattr(metric, "_inertia", lambda a: walked.append(len(a)) or walk(a))
    t = random_tree(6, seed=1)
    d = tree_distance_matrix(t, [1, 2, 3, 3, 5, 6])
    # tree metrics at tau != 1: no walk, 5 distinct points of 6
    assert spectral_signature(d, 10) == (1, 4, 1)
    assert spectral_signature(d, F(1, 3)) == (5, 0, 1)
    assert spectral_signature(d, F(1, 3), [3, 0, 2]) == (2, 0, 1)
    assert hpp_eigen_check(d, [10, 100]) is None
    assert hpp_eigen_check(d, [10, F(1, 2)]) == F(1, 2)
    assert walked == []
    # tau = 1 powers every entry to 1
    assert spectral_signature(d, 1) == (1, 0, 5)
    assert hpp_eigen_check(d, [1]) is None
    assert walked == [6, 6]
    walked.clear()
    # not a tree metric
    assert spectral_signature(square_cycle_metric(), 10) == (2, 2, 0)
    assert hpp_eigen_check(square_cycle_metric(), [10]) == 10
    # -inf off the diagonal (spectral_signature alone accepts it) and on it
    off = [row[:] for row in d]
    off[0][4] = off[4][0] = MINUS_INF
    assert spectral_signature(off, 10) == walk(metric._powered_form(*metric._integers(off), F(10)))
    hollow = [row[:] for row in d]
    hollow[0][0] = MINUS_INF
    assert hpp_eigen_check(hollow, [10]) is None
    assert walked == [4, 4, 6, 6]


def test_a_tree_metric_the_grower_refuses_falls_back_to_the_scan_and_the_walk(monkeypatch):
    # a refusal proves nothing: the scan and the walk decide, as for any input
    d = tree_distance_matrix(random_tree(6, seed=1), [1, 2, 3, 3, 5, 6])
    w = [[x + i + j for j, x in enumerate(row)] for i, row in enumerate(d)]
    monkeypatch.setattr(metric, "_grow", lambda w: None)
    assert check_4pc(d) is None
    for m in d, w:
        for tau in F(10), F(1, 3):
            walk = _walk(m, None, tau)
            assert spectral_signature(m, tau) == walk
            assert spectral_signature(m, tau, [3, 0, 2]) == _walk(m, [3, 0, 2], tau)
            assert hpp_eigen_check(m, [tau]) == (tau if walk[0] > 1 else None)
    with pytest.raises(AssertionError):
        realize_tree(d)


def _qrad_star_violator(m):
    """First subset, by size and then lexicographically, whose determinant
    sign from one QRad elimination of its block breaks the star rule."""
    n = len(m)
    for r in range(1, n + 1):
        for xs in combinations(range(n), r):
            _, q, z = metric._inertia([[_qrad(m[i][j]) for j in xs] for i in xs])
            sign = 0 if z else (-1) ** q
            if sign < 0 if r % 2 else sign > 0:
                return xs
    return None


@st.composite
def _star_inputs(draw):
    kind = draw(st.sampled_from(["tree", "repeated", "symmetric", "cycle"]))
    seed = draw(st.integers(0, 10**6))
    n = draw(st.integers(1, 7))
    if kind == "tree":
        d = _tree_metric_on_distinct_points(n, seed)
    elif kind == "repeated":
        d = random_tree_metric(n, seed=seed, half_integers=True)
    elif kind == "symmetric":
        d = random_symmetric_matrix(n, seed=seed, high=4)
    else:
        d = square_cycle_metric()
    return power_matrix(d, draw(st.sampled_from([10, 2, F(1, 3), 4])))


def _tree_metric_on_distinct_points(n, seed):
    t = random_tree(n + 3, seed=seed)
    pts = random.Random(seed).sample(list(t.vertices), n)
    return [[x / 2 for x in row] for row in tree_distance_matrix(t, pts)]


@settings(max_examples=120, deadline=None)
@given(_star_inputs())
def test_star_condition_walk_matches_per_subset_qrad_eliminations(m):
    assert star_condition_check(m) == _qrad_star_violator(m)


def test_star_condition_walk_reads_minors_beneath_a_zero_pivot():
    # det of {0} is 0, yet {0,1} has det -1 and {0,1,2} det -1 < 0
    m = [[F(0), F(1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(1)]]
    assert star_condition_check(m) == (0, 1, 2) == _qrad_star_violator(m)
    # two equal points: every pair holding both has a zero minor
    d = tree_distance_matrix(random_tree(5, seed=3), [1, 2, 2, 4, 5])
    pm = power_matrix([[x / 2 for x in row] for row in d], 10)
    assert _qrad_star_violator(pm) is None
    assert star_condition_check(pm) is None


def test_star_condition_walks_its_own_ints_past_the_packed_kernel(monkeypatch):
    # integers with a zero pivot, the powered square cycle (integers, a
    # violation on all four points) and a powered half-integer tree metric,
    # whose sqrt(10) entries split as D R D
    t = random_tree(7, seed=4)
    d = tree_distance_matrix(t, list(t.vertices))
    pm = power_matrix([[x / 2 for x in row] for row in d], 10)
    assert any(not _qrad(x).is_rational() for row in pm for x in row)
    assert _integer_exact_form(pm) is not None
    cases = ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], power_matrix(square_cycle_metric(), 10), pm)
    want = [_qrad_star_violator(m) for m in cases]
    assert want == [(0, 1, 2), (0, 1, 2, 3), None]

    def refuse(*args):
        raise AssertionError("the star check reached the packed kernel")

    for name in ("_kernel", "_word_bits", "_unpack"):
        monkeypatch.setattr(poly, name, refuse)
    assert [star_condition_check(m) for m in cases] == want


_ROOT2, _ROOT3 = QRad.sqrt_of(2), QRad.sqrt_of(3)


@st.composite
def _radical_matrices(draw):
    """(matrix, splits): a symmetric matrix of rationals and rational
    multiples of sqrt 2 (and of sqrt 3 when two radicands are drawn), and
    whether it was built as D R D."""
    n = draw(st.integers(1, 5))
    rational = st.builds(F, st.integers(-4, 4), _DENOMINATORS)
    mode = draw(st.sampled_from(["split", "any", "two radicands"]))
    parity = [draw(st.integers(0, 1)) for _ in range(n)]
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            c = draw(rational)
            if mode == "split":
                x = c * 2 if parity[i] and parity[j] else c
                x = x * _ROOT2 if parity[i] != parity[j] else x
            elif mode == "any":
                x = c * _ROOT2 if i != j and draw(st.booleans()) else c
            else:
                x = c * draw(st.sampled_from([1, _ROOT2, _ROOT3])) if i != j else c
            m[i][j] = m[j][i] = x
    return m, mode == "split"


@settings(max_examples=200, deadline=None)
@given(_radical_matrices())
def test_inertia_by_congruence_matches_the_qrad_elimination(case):
    m, splits = case
    if splits:
        assert _integer_exact_form(m) is not None
    assert inertia(m) == metric._inertia([[QRad.of(x) for x in row] for row in m])


def _descartes_inertia(m):
    """(positive, negative, zero) from the characteristic polynomial
    det(xI - m) = sum_k (-1)^k e_k x^(n-k), e_k the sum of the principal
    k-minors (by _fraction_det).  A real symmetric matrix has only real
    eigenvalues, so Descartes' rule of signs counts the positive roots of
    p(x) and the negative ones, the positive roots of p(-x), exactly."""
    n = len(m)
    e = [
        sum((_fraction_det([[m[i][j] for j in xs] for i in xs]) for xs in combinations(range(n), k)), F(0))
        for k in range(n + 1)
    ]
    descending = [(-1) ** k * c for k, c in enumerate(e)]
    mirrored = [(-1) ** (n - k) * c for k, c in enumerate(descending)]

    def sign_changes(coefficients):
        signs = [(c > 0) - (c < 0) for c in coefficients if c != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    pos, neg = sign_changes(descending), sign_changes(mirrored)
    return pos, neg, n - pos - neg


@st.composite
def _oracle_matrices(draw):
    """(matrix, has a rational form): symmetric rational matrices with zero
    diagonals, repeated rows, hyperbolic-only blocks [[0, B], [B^T, 0]], a
    zero pivot after a nonzero one, or a nonzero first pivot whose Schur
    complement S has S_00 = S_11 = 0 != S_22, an all-zero diagonal or no
    nonzero entry; and matrices of rational multiples of sqrt 2 (an odd
    cycle of them) or of sqrt 2 and sqrt 3, which have no rational form."""
    schur = ["pivot, then far swap", "pivot, then hollow", "pivot, then zero"]
    kinds = ["plain", "zero diagonal", "repeated", "hyperbolic", "pivot, then hyperbolic", *schur]
    kind = draw(st.sampled_from(kinds + ["odd cycle", "two radicands"]))
    least = {"pivot, then far swap": 4, "pivot, then zero": 2}
    n = draw(st.integers(1 if kind in kinds[:4] else least.get(kind, 3), 5))
    entry = st.builds(F, st.integers(-4, 4), _DENOMINATORS)
    nonzero = st.builds(F, st.integers(1, 4) | st.integers(-4, -1), _DENOMINATORS)
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(entry)
    if kind in ("zero diagonal", "hyperbolic"):
        for i in range(n):
            m[i][i] = F(0)
    if kind == "hyperbolic":
        h = n // 2
        for i in range(n):
            for j in range(n):
                if (i < h) == (j < h):
                    m[i][j] = F(0)
    if kind == "repeated":
        for _ in range(draw(st.integers(1, 2))):
            src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            for j in range(n):
                m[dst][j] = m[src][j]
            for j in range(n):
                m[j][dst] = m[dst][j]
            m[dst][dst] = m[src][src]
    if kind == "odd cycle":
        for i in range(n):
            for j in range(i + 1, n):
                if draw(st.booleans()):
                    m[i][j] = m[j][i] = m[i][j] * _ROOT2
        for i, j in ((0, 1), (1, 2), (0, 2)):
            m[i][j] = m[j][i] = draw(nonzero) * _ROOT2
    if kind == "two radicands":
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = m[i][j] * draw(st.sampled_from([1, _ROOT2, _ROOT3]))
        m[0][1] = m[1][0] = draw(nonzero) * _ROOT2
        m[1][2] = m[2][1] = draw(nonzero) * _ROOT3
    if kind == "pivot, then hyperbolic":
        # U^T B U, B = (d) + [[0, b], [b, 0]] + a diagonal rest and U upper
        # unitriangular: the first pivot is d, and the Schur complement of
        # it, V^T B[1:, 1:] V with V = U[1:, 1:], starts with a zero
        b = [[F(0)] * n for _ in range(n)]
        b[0][0] = draw(nonzero)
        b[1][2] = b[2][1] = draw(nonzero)
        for i in range(3, n):
            b[i][i] = draw(entry)
        u = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                u[i][j] = F(draw(st.integers(-2, 2)))
        bu = [[sum(b[i][k] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        m = [[sum(u[k][i] * bu[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    if kind in schur:
        # [[d, r^T], [r, S + r r^T / d]]: the pivot d leaves d S, whose zero
        # pivot at k = 1 takes a swap over the band k < j < m = 3, the
        # congruence, or ends the walk
        s = [row[1:] for row in m[1:]]
        if kind == "pivot, then zero":
            s = [[F(0)] * (n - 1) for _ in range(n - 1)]
        elif kind == "pivot, then hollow":
            for i in range(n - 1):
                s[i][i] = F(0)
            pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n - 1)]
            i, j = draw(st.sampled_from(pairs))
            s[i][j] = s[j][i] = draw(nonzero)
        else:
            s[0][0] = s[1][1] = F(0)
            s[2][2] = draw(nonzero)
        d, r = draw(nonzero), [draw(entry) for _ in range(n - 1)]
        rest = [[x + r[i] * r[j] / d for j, x in enumerate(row)] for i, row in enumerate(s)]
        m = [[d, *r]] + [[r_i, *row] for r_i, row in zip(r, rest)]
    return m, kind not in ("odd cycle", "two radicands")


@settings(max_examples=300, deadline=None)
@given(_oracle_matrices())
def test_inertia_matches_the_characteristic_polynomial(case):
    m, rational = case
    assert (_integer_exact_form(m) is not None) == rational
    assert inertia(m) == _descartes_inertia(m)


def _scalar_kinds(m, rational):
    """m as each scalar kind `_inertia` runs on: its own entries (Fractions,
    with QRads when it has no rational form), QRads, and, when it is
    rational, ints, m times the lcm of its denominators."""
    forms = [m, [[QRad.of(x) for x in row] for row in m]]
    if rational:
        s = lcm(*(x.denominator for row in m for x in row))
        forms.append([[int(x * s) for x in row] for row in m])
    return forms


@settings(max_examples=200, deadline=None)
@given(_oracle_matrices())
def test_inertia_walk_matches_the_characteristic_polynomial_on_every_scalar_kind(case):
    m, rational = case
    want = _descartes_inertia(m)
    for a in _scalar_kinds(m, rational):
        assert metric._inertia([row[:] for row in a]) == want


def test_inertia_resumes_at_a_zero_pivot_with_the_last_pivot():
    # U^T B U with B = (-1) + [[0, 1], [1, 0]] + (1): the walk pivots on -1,
    # then meets a zero; resumed with prev = 1, each later sign would flip
    # and read the rest, inertia (2, 1), as (1, 2)
    b = [[-1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    u = [[1, 1, -1, 2], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
    m = [
        [sum(u[k][i] * b[k][l] * u[l][j] for k in range(4) for l in range(4)) for j in range(4)]
        for i in range(4)
    ]
    assert m[0][0] * m[1][1] - m[0][1] ** 2 == 0
    fm = [[F(x) for x in row] for row in m]
    assert _descartes_inertia(fm) == (2, 2, 0)
    for a in _scalar_kinds(fm, True):
        assert metric._inertia([row[:] for row in a]) == (2, 2, 0)


def test_rational_form_refuses_what_does_not_split():
    r2 = QRad.sqrt_of(2)
    # an odd cycle of sqrt 2 entries: no parities p_i + p_j = 1 on all three
    cycle = [[F(1), r2, r2], [r2, F(1), r2], [r2, r2, F(1)]]
    assert _integer_exact_form(cycle) is None
    assert inertia(cycle) == metric._inertia([row[:] for row in cycle])
    two = [[F(0), r2, F(1)], [r2, F(0), QRad.sqrt_of(3)], [F(1), QRad.sqrt_of(3), F(0)]]
    assert _integer_exact_form(two) is None
    assert _integer_exact_form([[r2]]) is None  # irrational diagonal
    assert _integer_exact_form([[r2 + 1]]) is None  # two terms in one entry


# --- pairs a + b sqrt(r): the scalars of a powered matrix that does not split --


def _bracket_sign(a, b, r):
    """The sign of a + b sqrt(r), r no square, read off sqrt(r 4^k) in
    (s, s + 1), s = isqrt(r 4^k), at ever finer scales 2^k: the pair's
    sign oracle, which never compares a^2 with b^2 r."""
    if a == b == 0:
        return 0
    k = 0
    while True:
        s = isqrt(r << 2 * k)
        ends = (a << k) + b * s, (a << k) + b * (s + 1)
        if min(ends) > 0:
            return 1
        if max(ends) < 0:
            return -1
        k += 16


@st.composite
def _surds(draw):
    """(a, b, r): r strictly between two squares or a Mersenne prime, and a
    near -b sqrt(r) as often as not, where a^2 and b^2 r nearly tie."""
    k = draw(st.integers(1, 10**20))
    r = draw(st.integers(k * k + 1, k * k + 2 * k) | st.sampled_from([2**61 - 1, 2**127 - 1]))
    b = draw(st.integers(-(10**30), 10**30))
    a = draw(
        st.integers(-(10**40), 10**40)
        | st.integers(-2, 2).map(lambda e: isqrt(b * b * r) + e)
        | st.integers(-2, 2).map(lambda e: -isqrt(b * b * r) + e)
    )
    return a, b, r


@settings(max_examples=400, deadline=None)
@given(_surds())
@example((0, 0, 2))
@example((3, -2, 2))  # 9 > 8: positive
@example((-3, 2, 2))
@example((2, -3, 2))  # 4 < 18: negative
@example((1, -1, 2**61 - 1))
def test_pair_sign_matches_an_isqrt_bracketing(case):
    a, b, r = case
    assert metric._surd_sign(a, b, r) == _bracket_sign(a, b, r)


def _pairs(m, r):
    """m, a matrix of (a, b) tuples of ints, as ints (b = 0) and pairs."""
    return [[metric._Surd(a, b, r) if b else a for a, b in row] for row in m]


def _congruent(m, u, r):
    """u^T m u over Z[sqrt(r)], m and u matrices of (a, b) tuples."""

    def mul(x, y):
        return x[0] * y[0] + r * x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    def dot(xs, ys):
        out = (0, 0)
        for x, y in zip(xs, ys):
            p = mul(x, y)
            out = out[0] + p[0], out[1] + p[1]
        return out

    n = len(m)
    cols = [[u[k][j] for k in range(n)] for j in range(n)]
    mu = [[dot(m[i], cols[j]) for j in range(n)] for i in range(n)]
    return [[dot(cols[i], [mu[k][j] for k in range(n)]) for j in range(n)] for i in range(n)]


@st.composite
def _pair_walk_inputs(draw):
    """(matrix of ints and pairs, r, its inertia or None): u^T m u for
    the rational kinds of `_oracle_matrices`, scaled to ints, and u unit
    upper triangular over Z[sqrt(r)], whose leading minors, zero pivots
    among them, and inertia are m's; hollow pair matrices, whose walk
    starts with e_m -> e_m + e_j; and powered matrices with an odd parity
    cycle, at tau on both sides of 1 (inertia None: the oracles decide)."""
    kind = draw(st.sampled_from(["congruent", "hollow", "powered"]))
    if kind == "powered":
        n = draw(st.integers(3, 5))
        m = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = F(draw(st.integers(0, 8)), 2)
        m[0][1] = m[1][0] = m[1][2] = m[2][1] = m[0][2] = m[2][0] = F(1, 2)  # an odd cycle
        for i in range(n):
            m[i][i] = draw(st.sampled_from([F(0), MINUS_INF]))
        tau = draw(st.sampled_from([F(10), F(3, 2), F(2, 3), F(1, 10), F(12)]))
        w, scale = metric._integers(metric.as_matrix(m))
        a = metric._powered_form(w, scale, tau)
        r = tau.numerator * tau.denominator
        assert any(type(x) is metric._Surd for row in a for x in row)
        return a, r, None
    r = draw(st.sampled_from([2, 3, 10, 12]))
    small = st.integers(-3, 3)
    if kind == "hollow":
        n = draw(st.integers(2, 5))
        m = [[(0, 0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = (draw(small), draw(small))
        return _pairs(m, r), r, None
    q, _ = draw(_oracle_matrices().filter(lambda case: case[1]))
    n = len(q)
    s = lcm(*(x.denominator for row in q for x in row))
    m = [[(int(x * s), 0) for x in row] for row in q]
    u = [[(int(i == j), 0) if i >= j else (draw(small), draw(small)) for j in range(n)] for i in range(n)]
    return _pairs(_congruent(m, u, r), r), r, _descartes_inertia(q)


@settings(max_examples=300, deadline=None)
@given(_pair_walk_inputs())
def test_pair_walk_matches_qrads_and_the_characteristic_polynomial(case):
    a, r, want = case
    qrads = [[_qrad(x) for x in row] for row in a]
    if want is None:
        want = _descartes_inertia(qrads)
    assert metric._inertia([row[:] for row in qrads]) == want
    assert metric._inertia([row[:] for row in a]) == want
    assert inertia(a) == want


def test_pair_walk_settles_zero_pivots_on_pairs():
    # hollow: every diagonal entry is zero, so the walk starts with
    # e_m -> e_m + e_j; then a zero pivot with a nonzero diagonal below it,
    # a swap; a_01 = 1 + sqrt 2 makes both run on pairs
    r = 2
    hollow = _pairs([[(0, 0), (1, 1), (0, 1)], [(1, 1), (0, 0), (2, 0)], [(0, 1), (2, 0), (0, 0)]], r)
    swap = _pairs([[(0, 0), (1, 1), (0, 0)], [(1, 1), (0, 0), (0, 0)], [(0, 0), (0, 0), (3, -1)]], r)
    # the leading block of swap is hyperbolic, and 3 - sqrt 2 > 0
    for m, want in ((hollow, None), (swap, (2, 1, 0))):
        qrads = [[_qrad(x) for x in row] for row in m]
        want = want or _descartes_inertia(qrads)
        assert metric._inertia([row[:] for row in m]) == want == metric._inertia(qrads)


def test_a_pair_is_not_hashable_and_compares_by_value():
    x = power_entry(F(2**61 - 1), F(1, 2))
    assert isinstance(x, metric._Surd) and (x.a, x.b, x.r) == (0, 1, 2**61 - 1)
    with pytest.raises(TypeError):
        hash(x)
    assert metric._Surd(0, 2, 2) == metric._Surd(0, 1, 8) != metric._Surd(0, -1, 8)
    assert metric._Surd(F(3, 2), 0, 5) == F(3, 2) and metric._Surd(1, 1, 5) != 1


def test_exact_form_refuses_what_the_pair_walk_cannot_read():
    x = power_entry(10, F(1, 2))
    with pytest.raises(TypeError):
        inertia([[x, 1.5], [1.5, x]])
    with pytest.raises(TypeError):
        inertia([[F(0), x], [x, power_entry(3, F(1, 2))]])


def test_star_condition_scan_decides_a_full_table_without_the_ordered_walk(monkeypatch):
    # a powered tree metric on distinct points: every minor is in the table
    # and none breaks the rule, so no subset is listed; a violation is
    # named by the ordered walk
    t = random_tree(7, seed=4)
    d = tree_distance_matrix(t, list(t.vertices))
    pm = power_matrix([[x / 2 for x in row] for row in d], 10)

    def refuse(*args):
        raise AssertionError("the ordered walk ran")

    monkeypatch.setattr(metric, "combinations", refuse)
    assert star_condition_check(pm) is None
    with pytest.raises(AssertionError, match="the ordered walk ran"):
        star_condition_check(power_matrix(square_cycle_metric(), 10))


@settings(max_examples=120, deadline=None)
@given(_star_inputs())
def test_star_condition_table_scan_matches_the_listed_subsets(m):
    n = len(m)
    every = [xs for r in range(1, n + 1) for xs in combinations(range(n), r)]
    assert star_condition_check(m) == star_condition_check(m, every)
