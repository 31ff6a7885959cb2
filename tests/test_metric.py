import hashlib
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

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


def test_power_entry_exact():
    assert power_entry(10, 3) == 1000
    assert power_entry(10, F(-2)) == F(1, 100)
    assert power_entry(10, F(3, 2)) == 10 * QRad.sqrt_of(10)
    assert power_entry(100, F(1, 2)) == 10
    assert power_entry(10, F(-1, 2)) == QRad.sqrt_of(10) / 10
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
    got = metric._four_point_scan(m)
    want = _plain_four_point_scan(m)
    assert (got and (got.quadruple, got.sums)) == want


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


@settings(max_examples=400, deadline=None)
@given(_four_point_inputs())
def test_fast_four_point_test_agrees_with_the_scan(m):
    assert metric._four_point_holds(metric._integers(m)[0]) == (metric._four_point_scan(m) is None)


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
    return [
        ([[F(1), F(0)], [F(0), F(1)]], (0, 0, 1, 1)),
        (aabb, (0, 0, 1, 1)),
        (aabc, (0, 1, 1, 2)),
        (minus_inf, (0, 1, 1, 2)),
        ([[F(0), F(1), F(5)], [F(1), F(0), F(1)], [F(5), F(1), F(0)]], (0, 1, 1, 2)),
    ]


@pytest.mark.parametrize("m, certificate", _repeated_index_cases())
def test_fast_four_point_test_sees_violations_at_repeated_indices(m, certificate):
    bad = metric._four_point_scan(m)
    assert bad.quadruple == certificate
    for i, j, k, l in combinations(range(len(m)), 4):
        sums = sorted([m[i][j] + m[k][l], m[i][k] + m[j][l], m[i][l] + m[j][k]])
        assert sums[1] == sums[2]
    assert not metric._four_point_holds(metric._integers(m)[0])


def _qrad_inertia(a):
    return metric._inertia([[QRad.of(x) for x in row] for row in a])


_TAUS = [F(1), F(4), F(10), F(12), F(100), F(3, 2), F(9, 4)]


@settings(max_examples=200, deadline=None)
@given(_four_point_inputs(), st.sampled_from(_TAUS))
def test_integer_powered_form_has_the_inertia_of_the_qrad_matrix(m, tau):
    w, scale = metric._integers(m)
    a = metric._powered_ints(w, scale, tau)
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
    assert metric._powered_ints(w, scale, F(10)) is None
    assert metric._powered_ints(w, scale, F(9, 4)) is not None
    for tau in (10, F(3, 2), F(9, 4)):
        want = _qrad_inertia(power_matrix(odd, tau))
        assert spectral_signature(odd, tau) == want == inertia(power_matrix(odd, tau))
    assert want == (1, 2, 0)
    assert hpp_eigen_check(odd, [10, F(3, 2)]) is None


def test_odd_parity_cycle_fallback_skips_the_rational_form(monkeypatch):
    # after _powered_ints finds no split, the square-root entries go
    # straight to the elimination
    def unreachable(a):
        raise AssertionError("_rational_form reached")

    monkeypatch.setattr(metric, "_rational_form", unreachable)
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


def test_exponents_beyond_half_integers_keep_their_error():
    third = [[F(0), F(1, 3)], [F(1, 3), F(0)]]
    message = "exponent 1/3 needs a 3-th root; only 2 is supported"
    for check in (lambda: spectral_signature(third, 10), lambda: hpp_eigen_check(third)):
        with pytest.raises(ValueError) as err:
            check()
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


def _qrad_star_violator(m):
    """First subset, by size and then lexicographically, whose determinant
    sign from one QRad elimination of its block breaks the star rule."""
    n = len(m)
    for r in range(1, n + 1):
        for xs in combinations(range(n), r):
            _, q, z = metric._inertia([[QRad.of(m[i][j]) for j in xs] for i in xs])
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
    assert any(isinstance(x, QRad) for row in pm for x in row)
    assert metric._rational_form(pm) is not None
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
        assert metric._rational_form(m) is not None
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
    diagonals, repeated rows or hyperbolic-only blocks [[0, B], [B^T, 0]],
    and matrices of rational multiples of sqrt 2 (an odd cycle of them) or
    of sqrt 2 and sqrt 3, which have no rational form."""
    kind = draw(st.sampled_from(["plain", "zero diagonal", "repeated", "hyperbolic", "odd cycle", "two radicands"]))
    n = draw(st.integers(3 if kind in ("odd cycle", "two radicands") else 1, 5))
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
    return m, kind not in ("odd cycle", "two radicands")


@settings(max_examples=300, deadline=None)
@given(_oracle_matrices())
def test_inertia_matches_the_characteristic_polynomial(case):
    m, rational = case
    assert (metric._rational_form(m) is not None) == rational
    assert inertia(m) == _descartes_inertia(m)


def test_rational_form_refuses_what_does_not_split():
    r2 = QRad.sqrt_of(2)
    # an odd cycle of sqrt 2 entries: no parities p_i + p_j = 1 on all three
    cycle = [[F(1), r2, r2], [r2, F(1), r2], [r2, r2, F(1)]]
    assert metric._rational_form(cycle) is None
    assert inertia(cycle) == metric._inertia([row[:] for row in cycle])
    two = [[F(0), r2, F(1)], [r2, F(0), QRad.sqrt_of(3)], [F(1), QRad.sqrt_of(3), F(0)]]
    assert metric._rational_form(two) is None
    assert metric._rational_form([[r2]]) is None  # irrational diagonal
    assert metric._rational_form([[r2 + 1]]) is None  # two terms in one entry
