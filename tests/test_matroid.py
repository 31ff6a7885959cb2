"""Dissimilarity maps, exchange checks, and the two matrix representations.

Frozen values, each computed by hand:
  * quartet tree (two cherries on an edge, unit weights): subtree weights
    D2({1,2}) = 2, D2({1,3}) = 3, D3 = 4 on every leaf triple, D4 = 5;
  * 4-path, unit weights: odd-edge totals 0 on the empty set, 1 on {1,2},
    3 on {1,4}, and 2 on the full vertex set ({(1,2),(3,4)} survive);
  * square-cycle metric: the pair map violates the fixed-rank exchange
    (both diagonals beat the sides, so no swap can cover 1+1 vs 2+2...
    in fact f(X)+f(Y) = 2+2 for the sides against max swap 1+3 = 4 is
    fine -- the failing pivot is the diagonal pair versus the sides).

The rooted representation's exact polynomial path carries *doubled*
exponents: a single diagonal entry 1 - t^(2h) already shows the doubling,
and the Cholesky square root is what brings the series path back down to
the subtree weights themselves.  The tests pin both scales.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from treeminor import matroid
from treeminor.matroid import (
    ExchangeViolation,
    OddRepresentation,
    ValuatedFn,
    check_delta_matroid,
    check_valuated_matroid,
    default_window,
    exponent_spread,
    k_dissimilarity,
    odd_dissimilarity,
    represent_odd,
    rooted_k_dissimilarity,
    rooted_matrix,
    verify_rooted_representation,
)
from treeminor.metric import MINUS_INF, square_cycle_metric
from treeminor.minors import minor_oracle
from treeminor.pfaffian import build_skew_matrix
from treeminor.poly import ExactPoly, PolyMatrix, det, pfaffian
from treeminor.tree import Tree, random_tree
from treeminor.tropic import cholesky

F = Fraction


def path_tree(n, w=1):
    return Tree([(i, i + 1, F(w)) for i in range(1, n)])


def star_tree(k):
    return Tree([(0, i) for i in range(1, k + 1)])


def quartet_tree():
    # leaves 1,2 hang off 5; leaves 3,4 hang off 6; middle edge (5,6)
    return Tree([(1, 5), (2, 5), (5, 6), (3, 6), (4, 6)])


# ---------------------------------------------------------------------------
# ValuatedFn container


def test_valuated_fn_basic_lookup():
    fn = ValuatedFn([1, 2, 3], {(1, 2): F(5, 2), (1, 3): 0}, k=2)
    assert fn.value([1, 2]) == F(5, 2)
    assert fn.value((3, 1)) == 0
    assert fn.value([2, 3]) == MINUS_INF
    assert fn.support() == [frozenset({1, 2}), frozenset({1, 3})]


def test_valuated_fn_validates():
    with pytest.raises(ValueError):
        ValuatedFn([1, 1, 2], {})
    with pytest.raises(ValueError):
        ValuatedFn([1, 2], {(1, 3): 0})
    with pytest.raises(ValueError):
        ValuatedFn([1, 2, 3], {(1, 2): 0, (3,): 1}, k=2)
    with pytest.raises(TypeError):  # a float is not exact
        ValuatedFn([1, 2], {(1, 2): 0.5})
    fn = ValuatedFn([1, 2], {(1, 2): 0})
    with pytest.raises(ValueError):
        fn.value([1, 7])


def test_valuated_fn_minus_inf_values_are_dropped():
    fn = ValuatedFn([1, 2], {(1,): MINUS_INF, (2,): 3}, k=1)
    assert fn.value([1]) == MINUS_INF
    assert fn.support() == [frozenset({2})]


def test_valuated_fn_negate():
    fn = ValuatedFn([1, 2], {(1,): F(3), (2,): F(-1, 2)}, k=1)
    neg = fn.negate()
    assert neg.value([1]) == -3
    assert neg.value([2]) == F(1, 2)
    assert neg.negate() == fn


def test_valuated_fn_json_roundtrip():
    fn = ValuatedFn([0, 2, 5], {(): 0, (0, 2): F(7, 3), (2, 5): -2})
    data = fn.to_json()
    assert data["values"][""] == "0"
    assert data["values"]["0,2"] == "7/3"
    assert ValuatedFn.from_json(data) == fn
    # string input and explicit -inf entries are tolerated
    text = '{"ground": [1, 2], "k": 1, "values": {"1": "4", "2": "-inf"}}'
    fn2 = ValuatedFn.from_json(text)
    assert fn2.k == 1
    assert fn2.value([1]) == 4
    assert fn2.value([2]) == MINUS_INF


# ---------------------------------------------------------------------------
# exchange checkers


def test_matroid_exchange_accepts_pair_distances_of_a_path():
    T = path_tree(4)
    fn = k_dissimilarity(T, 2, ground=(1, 2, 3, 4))
    assert check_valuated_matroid(fn) is None


def test_matroid_exchange_rejects_handmade_map():
    # both "diagonal" pairs are heavy, every swap is worthless
    vals = {(1, 2): 10, (3, 4): 10, (1, 3): 0, (1, 4): 0, (2, 3): 0, (2, 4): 0}
    fn = ValuatedFn([1, 2, 3, 4], vals, k=2)
    bad = check_valuated_matroid(fn)
    assert isinstance(bad, ExchangeViolation)
    assert bad.axiom == "matroid"
    assert {bad.X, bad.Y} == {(1, 2), (3, 4)}
    assert bad.lhs == 20 and bad.best == 0
    assert "exceeds" in str(bad)


def test_matroid_exchange_needs_one_size():
    fn = ValuatedFn([1, 2, 3], {(1,): 0, (1, 2): 0})
    with pytest.raises(ValueError):
        check_valuated_matroid(fn)
    assert check_valuated_matroid(ValuatedFn([1, 2], {})) is None


def test_delta_exchange_accepts_and_rejects():
    ok = ValuatedFn([1, 2, 3, 4], {(): 0, (1, 2): 1, (1, 3): 1, (2, 3): 1})
    # any two pair-sets here exchange through the empty set or each other
    assert check_delta_matroid(ok) is None

    bad_vals = {(): 0, (1, 2): 0, (3, 4): 0, (1, 2, 3, 4): 10}
    bad = check_delta_matroid(ValuatedFn([1, 2, 3, 4], bad_vals))
    assert isinstance(bad, ExchangeViolation)
    assert bad.axiom == "delta"
    assert bad.lhs == 10


def test_exchange_checks_survive_a_value_too_large_for_a_float():
    # a Fraction plus the float -inf goes through float, which overflows at
    # 1e400; every swap of the pivot meets a -inf value, so best = -inf
    huge = Fraction("1e400")
    vals = {(1, 2): 0, (3, 4): 0, (2, 3): huge}
    bad = check_valuated_matroid(ValuatedFn([1, 2, 3, 4], vals, k=2))
    assert (bad.axiom, bad.X, bad.Y, bad.pivot) == ("matroid", (1, 2), (3, 4), 1)
    assert bad.lhs == 0 and bad.best == MINUS_INF
    bad = check_delta_matroid(ValuatedFn([1, 2, 3, 4], {(): 0, **vals}))
    assert (bad.axiom, bad.X, bad.Y, bad.pivot) == ("delta", (1, 2), (3, 4), 1)
    assert bad.lhs == 0 and bad.best == MINUS_INF


def test_pair_map_matches_four_point_condition_on_distinct_quadruples():
    # the fixed-rank exchange on pair values is exactly the four-point
    # inequality over distinct indices, so the two tests must agree
    def fourpoint_distinct_ok(d):
        n = len(d)
        for i, j, kk, l in combinations(range(n), 4):
            for (a, b), (c, e) in (
                ((i, j), (kk, l)),
                ((i, kk), (j, l)),
                ((i, l), (j, kk)),
            ):
                others = [
                    d[a][c] + d[b][e],
                    d[a][e] + d[b][c],
                ]
                if d[a][b] + d[c][e] > max(others):
                    return False
        return True

    def pair_fn(d):
        n = len(d)
        vals = {(i, j): d[i][j] for i, j in combinations(range(n), 2)}
        return ValuatedFn(range(n), vals, k=2)

    rng = random.Random(7)
    agree_ok = agree_bad = 0
    for _ in range(120):
        n = rng.choice((4, 5))
        d = [[F(0)] * n for _ in range(n)]
        for i, j in combinations(range(n), 2):
            d[i][j] = d[j][i] = F(rng.randint(1, 8), rng.choice((1, 2)))
        good = fourpoint_distinct_ok(d)
        assert (check_valuated_matroid(pair_fn(d)) is None) == good
        agree_ok += good
        agree_bad += not good
    assert agree_ok and agree_bad  # both outcomes exercised

    # the square cycle fails: both diagonals strictly dominate
    sq = square_cycle_metric()
    assert check_valuated_matroid(pair_fn(sq)) is not None


# ---------------------------------------------------------------------------
# dissimilarity maps from trees


def test_k_dissimilarity_quartet_frozen():
    T = quartet_tree()
    d2 = k_dissimilarity(T, 2)
    assert d2.ground == (1, 2, 3, 4)
    assert d2.value([1, 2]) == 2
    assert d2.value([1, 3]) == 3
    d3 = k_dissimilarity(T, 3)
    assert all(v == 4 for _, v in d3.items())
    d4 = k_dissimilarity(T, 4)
    assert d4.value([1, 2, 3, 4]) == 5


def test_k_dissimilarity_range_checks():
    T = quartet_tree()
    with pytest.raises(ValueError):
        k_dissimilarity(T, 0)
    with pytest.raises(ValueError):
        k_dissimilarity(T, 5)


def test_k_dissimilarity_is_a_valuated_matroid():
    for seed in range(6):
        T = random_tree(8, seed=seed, weights="rational" if seed % 2 else "unit")
        for k in (2, 3):
            if len(T.leaves()) < k:
                continue
            assert check_valuated_matroid(k_dissimilarity(T, k)) is None


def test_rooted_k_dissimilarity_values():
    T = star_tree(4)
    fn = rooted_k_dissimilarity(T, 0, 2)
    assert all(v == 2 for _, v in fn.items())
    P = path_tree(4)
    fn1 = rooted_k_dissimilarity(P, 2, 1, ground=(1, 4))
    assert fn1.value([1]) == 1
    assert fn1.value([4]) == 2


def test_rooted_k_dissimilarity_root_stays_outside():
    P = path_tree(4)
    with pytest.raises(ValueError):
        rooted_k_dissimilarity(P, 1, 1)  # vertex 1 is a leaf
    with pytest.raises(ValueError):
        rooted_k_dissimilarity(P, 2, 1, ground=(1, 2, 4))


def test_odd_dissimilarity_path4_frozen():
    fn = odd_dissimilarity(path_tree(4))
    assert fn.value([]) == 0
    assert fn.value([1, 2]) == 1
    assert fn.value([1, 3]) == 2
    assert fn.value([1, 4]) == 3
    assert fn.value([1, 2, 3, 4]) == 2
    assert fn.value([1]) == MINUS_INF
    assert fn.value([1, 2, 3]) == MINUS_INF


def test_odd_dissimilarity_and_negative_are_delta_matroids():
    for seed in (0, 1, 2):
        T = random_tree(6, seed=seed, weights="rational" if seed == 2 else "unit")
        fn = odd_dissimilarity(T)
        assert check_delta_matroid(fn) is None
        assert check_delta_matroid(fn.negate()) is None


# ---------------------------------------------------------------------------
# the skew (Pfaffian) representation


def test_represent_odd_matches_map_exhaustively():
    for seed, mode in ((0, "unit"), (3, "rational")):
        T = random_tree(6, seed=seed, weights=mode)
        fn = odd_dissimilarity(T)
        rep = represent_odd(T)
        for r in range(0, 7):
            for X in combinations(T.vertices, r):
                assert rep.value(X) == fn.value(X)
                neg = fn.value(X)
                assert rep.dual_value(X) == (
                    MINUS_INF if neg == MINUS_INF else -neg
                )


def test_dual_value_matches_the_pfaffian_of_the_inverted_matrix():
    # the reference: build the t -> 1/t image and read its top exponent.
    # A shuffled order is not nice, so its Pfaffians need not be monomials.
    rng = random.Random(5)
    for n, seed, mode in ((6, 0, "unit"), (7, 1, "unit"), (6, 3, "rational"), (7, 4, "rational")):
        T = random_tree(n, seed=seed, weights=mode)
        shuffled = rng.sample(T.vertices, n)
        for rep in (
            represent_odd(T),
            OddRepresentation(T, tuple(shuffled)),
        ):
            image = PolyMatrix(
                [[e.power_substitute(-1) for e in row] for row in rep.matrix.entries]
            )
            pairs = rep.value_pairs()  # read off one table of Pfaffians
            assert len(pairs) == 2 ** (n - 1)
            for r in range(0, n + 1, 2):
                for pos in combinations(range(n), r):
                    X = [rep.order[p] for p in pos]
                    p = pfaffian(image.principal_submatrix(pos))
                    want = MINUS_INF if p.is_zero() else p.leading_term()[0]
                    assert rep.dual_value(X) == want
                    assert pairs[tuple(X)] == rep.value_pair(X)


def test_represent_odd_builds_its_matrix_only_when_read(monkeypatch):
    T = random_tree(7, seed=1, weights="rational")

    def refuse(*args):
        raise AssertionError("the skew matrix was built")

    with monkeypatch.context() as patch:
        patch.setattr(matroid, "build_skew_matrix", refuse)
        rep = represent_odd(T)
        pairs = rep.value_pairs()
        assert len(pairs) == 2 ** 6
        for X, pair in pairs.items():
            assert rep.value_pair(X) == pair
    want = build_skew_matrix(T, rep.order)
    assert rep.matrix.entries == want.entries
    assert str(rep.matrix) == str(want)


def test_represent_odd_small_cases():
    rep = represent_odd(path_tree(4))
    assert rep.value([]) == 0
    assert rep.dual_value([]) == 0
    assert rep.value([1, 2, 3]) == MINUS_INF
    with pytest.raises(ValueError):
        rep.value([1, 9])


# ---------------------------------------------------------------------------
# the rooted (determinant / Cholesky) representation


def test_rooted_matrix_entries(entry_trees):
    T = star_tree(3)
    M = rooted_matrix(T, 0, (1, 2, 3))
    one = ExactPoly.one()
    tp = ExactPoly.t_power
    assert M[0, 0] == one - tp(2)
    # leaf-to-leaf distance equals the sum of the depths: entry vanishes
    assert M[0, 1].is_zero()
    for T in entry_trees:
        root, *rest = T.vertices[::-1]
        # the root inside the ground gives a zero row and column
        for ground in (rest, T.vertices):
            M = rooted_matrix(T, root, ground)
            for i, a in enumerate(ground):
                for j, b in enumerate(ground):
                    want = tp(T.dist(a, b)) - tp(T.dist(root, a) + T.dist(root, b))
                    assert M[i, j] == want
                    assert str(M[i, j]) == str(want)
        assert all(M[T.vertices.index(root), j].is_zero() for j in range(T.n))


def _first_bad_leading_minor(M):
    """The paper's alternation, sign(top coefficient of det M[1..j]) =
    (-1)^j, by one det per leading block: the first failing size, or None."""
    for j in range(1, M.n + 1):
        d = det(M.principal_submatrix(range(j)))
        if d.is_zero() or (d.leading_term()[1] > 0) != (j % 2 == 0):
            return j
    return None


def _factor_negated(M):
    """cholesky(-M) at the window represent-rooted defaults to."""
    return cholesky([[-e for e in row] for row in M.entries], window=default_window(M))


def test_alternating_leading_minors():
    T = quartet_tree()
    M = rooted_matrix(T, 5, (1, 2, 3, 4))
    assert _first_bad_leading_minor(M) is None
    assert len(_factor_negated(M)) == 4
    flat = PolyMatrix([[ExactPoly.one()]])
    assert _first_bad_leading_minor(flat) == 1
    with pytest.raises(ArithmeticError, match="pivot 0 is negative"):
        _factor_negated(flat)


def _congruent(diagonal, seed):
    """L D L^T, L unit lower triangular with random Laurent entries, so
    det of the leading j-block is the product of the first j of D."""
    rng = random.Random(seed)
    n = len(diagonal)
    tp = ExactPoly.t_power
    L = [
        [
            ExactPoly.one() if i == k else tp(F(rng.randint(-2, 3), 2), rng.randint(-2, 2))
            if k < i else ExactPoly.zero()
            for k in range(n)
        ]
        for i in range(n)
    ]
    return [
        [sum((L[i][k] * diagonal[k] * L[j][k] for k in range(n)), ExactPoly.zero()) for j in range(n)]
        for i in range(n)
    ]


def test_alternating_leading_minors_names_the_first_failing_size():
    # the Cholesky pivots of -M are the certificate: they fail exactly when
    # the reference finds a bad size, and a wrong sign names its pivot
    tp = ExactPoly.t_power
    n = 5
    for seed in range(3):
        good = [tp(F(i, 2), -1 - i) for i in range(n)]  # negative pivots
        M = PolyMatrix(_congruent(good, seed))
        assert _first_bad_leading_minor(M) is None
        assert len(_factor_negated(M)) == n
        for j in (2, 3, 4):
            zero_minor = good[: j - 1] + [ExactPoly.zero()] + good[j:]
            wrong_sign = good[: j - 1] + [-good[j - 1]] + good[j:]
            zero_row = _congruent(good, seed)
            zero_row[j - 1] = [ExactPoly.zero()] * n
            for row in zero_row:
                row[j - 1] = ExactPoly.zero()
            for rows in (_congruent(zero_minor, seed), zero_row):
                M = PolyMatrix(rows)
                assert _first_bad_leading_minor(M) == j
                with pytest.raises(ArithmeticError):
                    _factor_negated(M)
            M = PolyMatrix(_congruent(wrong_sign, seed))
            assert _first_bad_leading_minor(M) == j
            with pytest.raises(ArithmeticError, match=f"pivot {j - 1} is negative"):
                _factor_negated(M)


def test_rooted_matrices_pass_the_alternation_check():
    # the paper's definiteness lemma, on grounds with interior vertices too
    for seed in range(6):
        T = random_tree(9, seed=seed, weights="rational" if seed % 2 else "unit")
        rng = random.Random(seed)
        root = rng.choice(T.vertices)
        rest = [v for v in T.vertices if v != root]
        for ground in (rest, sorted(rng.sample(rest, 5))):
            M = rooted_matrix(T, root, ground)
            assert _first_bad_leading_minor(M) is None
            assert len(_factor_negated(M)) == len(ground)
        assert any(T.degree(v) > 1 for v in rest)


def test_exponent_spread_and_default_window():
    T = quartet_tree()
    M = rooted_matrix(T, 5, (1, 2, 3, 4))
    # diagonal entry 1 - t^(2 depth) has the widest gap: depth of 3 is 2
    assert exponent_spread(M) == 4
    assert default_window(M) == 16


def test_exact_minor_valuations_are_doubled_subtree_weights():
    rng = random.Random(11)
    for seed in range(5):
        T = random_tree(6, seed=seed, weights="rational" if seed % 2 else "unit")
        root = next(v for v in T.vertices if T.degree(v) >= 2)
        ground = [v for v in T.leaves() if v != root]
        if len(ground) < 2:
            continue
        k = 2
        rep = verify_rooted_representation(
            T, root, k, ground=ground, seed=rng.randint(0, 99)
        )[0]
        fn = rooted_k_dissimilarity(T, root, k, ground=ground)
        for Y in combinations(ground, k):
            assert rep.exact_minor_valuation(Y) == 2 * fn.value(Y)
            assert rep.exact_minor_valuation(Y) / 2 == fn.value(Y)


def test_series_valuations_recover_rooted_map():
    T = quartet_tree()
    rep, reseeds = verify_rooted_representation(T, 5, 2)
    assert reseeds <= 5
    assert ValuatedFn(rep.ground, rep.valuations, k=2) == rooted_k_dissimilarity(T, 5, 2)

    # diagonal case: the root is adjacent to every ground vertex
    S = star_tree(4)
    rep2, _ = verify_rooted_representation(S, 0, 2)
    assert ValuatedFn(rep2.ground, rep2.valuations, k=2) == rooted_k_dissimilarity(S, 0, 2)


def test_series_valuations_random_trees():
    for seed in (1, 4, 9):
        T = random_tree(6, seed=seed, weights="rational" if seed == 9 else "unit")
        root = next(v for v in T.vertices if T.degree(v) >= 2)
        ground = [v for v in T.leaves() if v != root]
        if len(ground) < 2:
            continue
        rep, reseeds = verify_rooted_representation(T, root, 2, ground=ground)
        assert reseeds <= 5
        want = rooted_k_dissimilarity(T, root, 2, ground=ground)
        assert ValuatedFn(rep.ground, rep.valuations, k=2) == want


def test_series_valuation_reads_the_verified_valuations(monkeypatch):
    import treeminor.matroid as matroid

    T = quartet_tree()
    rep, _ = verify_rooted_representation(T, 5, 2)

    def refuse(grid):
        raise AssertionError("series_det called after verification")

    monkeypatch.setattr(matroid, "series_det", refuse)
    want = rooted_k_dissimilarity(T, 5, 2)
    for Y in combinations(rep.ground, 2):
        assert rep.series_valuation(reversed(Y)) == want.value(Y)
    assert ValuatedFn(rep.ground, rep.valuations, k=2) == want


def test_rooted_window_too_small_is_reported():
    # ground leaves meet at depth 2 below the root, so any window below 4
    # truncates the determinant's top term away
    T = Tree([(0, 1), (1, 2), (2, 3), (2, 4)])
    with pytest.raises(ArithmeticError) as err:
        verify_rooted_representation(T, 0, 2, ground=(3, 4), window=2, max_reseeds=1)
    assert "window" in str(err.value)
    assert "insufficient precision" in str(err.value)


def test_rooted_argument_validation():
    T = star_tree(3)
    with pytest.raises(ValueError):
        verify_rooted_representation(T, 1, 1)[0]  # root is a leaf
    with pytest.raises(ValueError):
        verify_rooted_representation(T, 0, 4)[0]  # k too large
    with pytest.raises(ValueError):
        verify_rooted_representation(T, 0, 1, window=0)[0]
    with pytest.raises(ValueError, match="max_reseeds"):
        verify_rooted_representation(T, 0, 2, max_reseeds=-1)
    rep = verify_rooted_representation(T, 0, 2, seed=5)[0]
    with pytest.raises(ValueError):
        rep.series_valuation([1, 9])
    with pytest.raises(ValueError):
        rep.series_valuation([1])


# ---------------------------------------------------------------------------
# principal-minor valuations


def test_principal_minor_valuations_double_subtree_weights():
    T = star_tree(3)
    # the empty principal minor is 1, valuation 0
    assert det(PolyMatrix([])).leading_term()[0] == 0
    assert minor_oracle(T, [1, 2]).leading_term()[0] == 4
    for r in (1, 2, 3):
        for X in combinations(T.vertices, r):
            p = minor_oracle(T, X)
            if not p.is_zero():
                assert p.leading_term()[0] == 2 * T.spanned_weight(X)
