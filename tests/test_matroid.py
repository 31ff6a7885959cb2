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

import dataclasses
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from treeminor import matroid, poly
from treeminor.matroid import (
    ExchangeViolation,
    OddRepresentation,
    ValuatedFn,
    _value_pair,
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
from treeminor.pfaffian import build_skew_matrix, pf_table
from treeminor.poly import ExactPoly, PolyMatrix, det, pfaffian
from treeminor.tree import Tree, random_tree
from treeminor.tropic import PrecisionError, PuiseuxTrunc, cholesky, ldl, series_det

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
            table, _, _, read = pf_table(T, rep.order)  # one table of Pfaffians
            pairs = {X: _value_pair(ExactPoly._make(T._den, 1, read(p))) for X, p in table.items()}
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
        table, _, _, read = pf_table(T, rep.order)
        assert len(table) == 2 ** 6
        for X, p in table.items():
            assert rep.value_pair(X) == _value_pair(ExactPoly._make(T._den, 1, read(p)))
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
    """The LDL^T pivots of -M at the window represent-rooted defaults to,
    the check's certificate, held against cholesky(-M) at that window: a
    failure of one is the same failure of the other, and each pivot is the
    square of cholesky's diagonal entry in sign and valuation."""
    neg, w = [[-e for e in row] for row in M.entries], default_window(M)
    try:
        low = cholesky(neg, window=w)
    except PrecisionError:
        with pytest.raises(PrecisionError):
            ldl(neg, window=w)
        raise
    except ArithmeticError as exc:
        with pytest.raises(ArithmeticError, match=f"^{re.escape(str(exc))}$"):
            ldl(neg, window=w)
        raise
    _, pivots = ldl(neg, window=w)
    assert [(d.sign(), d.valuation()) for d in pivots] == [
        (row[j].sign(), 2 * row[j].valuation()) for j, row in enumerate(low)
    ]
    return pivots


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
    # the LDL^T pivots of -M are the certificate: they fail exactly when
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


def _half_integer_tree(n, seed):
    rng = random.Random(seed)
    return Tree([(rng.randint(1, v - 1), v, F(rng.randint(1, 8), 2)) for v in range(2, n + 1)])


def test_exact_minor_valuations_are_doubled_subtree_weights():
    # the walk's exact minors against one det per k-subset of the
    # PolyMatrix view, on unit, rational and half-integer trees, on grounds
    # with interior vertices, k = 1..4
    rng = random.Random(11)
    for seed in range(9):
        if seed % 3 == 2:
            T = _half_integer_tree(6, seed)
        else:
            T = random_tree(6, seed=seed, weights="rational" if seed % 3 else "unit")
        root = next(v for v in T.vertices if T.degree(v) >= 2)
        for k in range(1, 5):
            rep = verify_rooted_representation(T, root, k, seed=rng.randint(0, 99),
                                               ground=[v for v in T.vertices if v != root])[0]
            M = rooted_matrix(T, root, rep.ground)
            fn = rooted_k_dissimilarity(T, root, k, ground=rep.ground)
            assert list(rep.exact_valuations) == list(combinations(rep.ground, k))
            for pos in combinations(range(len(rep.ground)), k):
                Y = tuple(rep.ground[p] for p in pos)
                top = det(M.principal_submatrix(pos)).leading_term()[0]
                assert rep.exact_minor_valuation(Y) == top == 2 * fn.value(Y)
                assert rep.exact_minor_valuation(reversed(Y)) / 2 == fn.value(Y)


def test_rooted_representation_keeps_values_off_one_walk(monkeypatch):
    # no Bareiss determinant runs: the exact minors come from poly._sylvester
    def refuse(form):
        raise AssertionError("a determinant ran")

    monkeypatch.setattr(poly, "_bareiss", refuse)
    trees = [(quartet_tree(), 5), (random_tree(7, seed=1, weights="rational"), 6),
             (_half_integer_tree(7, 2), 1)]
    for T, root in trees:
        for k in (1, 2, 3):
            rep, _ = verify_rooted_representation(T, root, k, ground=[v for v in T.leaves() if v != root])
            for Y in combinations(rep.ground, k):
                assert rep.exact_minor_valuation(Y) == 2 * rep.series_valuation(Y)
    fields = [f.name for f in dataclasses.fields(matroid.RootedRepresentation)]
    assert fields == ["ground", "k", "window", "valuations", "exact_valuations"]
    with pytest.raises(ValueError, match="are not ground elements"):
        rep.exact_minor_valuation([1, 99])
    with pytest.raises(ValueError, match="need exactly k=3"):
        rep.exact_minor_valuation(rep.ground[:2])


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


def _reference_rows(J, L1, half):
    """The rows of J diag(t^half) L1^T on PuiseuxTrunc: the mixed rows the
    grid's block phase must reproduce, scaled."""
    rows = []
    for Ji in J:
        cols = [PuiseuxTrunc.t_power(h, c) for h, c in zip(half, Ji)]
        rows.append([
            sum((cols[s] * Lj[s] for s in range(j)), cols[j]) for j, Lj in enumerate(L1)
        ])
    return rows


def _assert_scaled(s, R, ref):
    """The grid series s over R is ref times a positive constant: the same
    exponents and cutoff, and one positive ratio of coefficients."""
    terms, cut = s
    assert (None if cut is None else F(cut, R)) == ref.cutoff
    want = ref.terms()
    assert [F(e, R) for e, _ in terms] == [e for e, _ in want]
    ratios = {F(n) / c for (_, n), (_, c) in zip(terms, want)}
    assert len(ratios) <= 1 and all(q > 0 for q in ratios), ratios


def _valuation_or_text(read):
    try:
        v = read()
    except PrecisionError as exc:
        return str(exc)
    return MINUS_INF if v is None else v


def test_column_minors_are_series_det_on_random_grids():
    # grid rows in general position, every entry exact, truncated, a
    # truncated zero or an exact zero: every block of the memo is series_det
    # of the same block as PuiseuxTrunc, cutoff and terms, and reads the
    # same valuation or PrecisionError text
    rng = random.Random(19)
    R = 6

    def draw():
        kind = rng.randrange(6)
        if kind == 0:
            return (), None
        cut = None if kind == 1 else rng.randint(-12, 6)
        low = -12 if cut is None else cut + 1
        size = 0 if kind == 2 else rng.randint(1, 4)
        terms = {rng.randint(low, 18): rng.choice((-1, 1)) * rng.randint(1, 5) for _ in range(size)}
        return matroid._grid_series(terms, cut)

    def as_series(s):
        terms, cut = s
        return PuiseuxTrunc(R, dict(terms), None if cut is None else F(cut, R))

    for _ in range(40):
        k = rng.randint(1, 4)
        n = rng.randint(k, 5)
        rows = [tuple(draw() for _ in range(n)) for _ in range(k)]
        ref = [[as_series(s) for s in row] for row in rows]
        minors = matroid._ColumnMinors(rows)
        for pos in combinations(range(n), k):
            want = series_det([[row[p] for p in pos] for row in ref])
            assert as_series(minors[pos]) == want
            assert (_valuation_or_text(lambda: matroid._grid_valuation(minors[pos], R))
                    == _valuation_or_text(want.valuation))


def _check_block_phase(T, root, k, ground, window=None, seed=0, every=1):
    """Hold one attempt of the rooted block phase to series_det on the
    PuiseuxTrunc mixed rows: every entry, and every `every`-th k-column
    block in combinations order, is a positive multiple of its reference
    with the same cutoff, and every block has the reference's valuation or
    PrecisionError text.  Then verify_rooted_representation, at max_reseeds
    0, must fail on the first block that fails against the tree, with the
    reference's text, or pass with the reference's valuations.  Returns
    that first problem, or None."""
    g = tuple(ground)
    M = rooted_matrix(T, root, g)
    w = default_window(M) if window is None else F(window)
    L1, pivots = ldl([[-p for p in row] for row in M.entries], window=w)
    half = [d.valuation() / 2 for d in pivots]
    J = matroid._sample_mix(k, len(g), seed)
    ref = _reference_rows(J, L1, half)
    rows, R = matroid._mixed_grid(J, L1, half)
    for got_row, ref_row in zip(rows, ref):
        for got, want in zip(got_row, ref_row):
            _assert_scaled(got, R, want)
    minors = matroid._ColumnMinors(rows)
    expected = rooted_k_dissimilarity(T, root, k, ground=g)
    vals, problem = {}, None
    for i, pos in enumerate(combinations(range(len(g)), k)):
        Y = tuple(g[p] for p in pos)
        got = _valuation_or_text(lambda: matroid._grid_valuation(minors[pos], R))
        if i % every == 0:
            det_ref = series_det([[row[p] for p in pos] for row in ref])
            _assert_scaled(minors[pos], R, det_ref)
            assert got == _valuation_or_text(det_ref.valuation)
        if problem is None:
            if isinstance(got, str):
                problem = f"seed {seed}: {got}"
            elif got != expected.value(Y):
                problem = (f"seed {seed}: valuation {got} != {expected.value(Y)} at "
                           f"Y={Y} (degenerate mix suspected)")
            vals[Y] = got
    try:
        rep, reseeds = verify_rooted_representation(
            T, root, k, ground=g, window=window, seed=seed, max_reseeds=0)
    except ArithmeticError as exc:
        assert problem is not None and str(exc).endswith("\n  " + problem), str(exc)
    else:
        assert problem is None and reseeds == 0
        assert dict(rep.valuations) == vals
    return problem


def test_block_phase_matches_series_det_on_the_reference_rows():
    # random unit and rational trees at every k, at the default window and
    # at windows small enough that some blocks are fully truncated
    rng = random.Random(47)
    problems = []
    for seed in range(16):
        T = random_tree(rng.randint(5, 7), seed=seed,
                        weights="rational" if seed % 2 else "unit")
        root = next(v for v in T.vertices if T.degree(v) >= 2)
        g = [v for v in T.vertices if v != root][:5]
        dw = default_window(rooted_matrix(T, root, g))
        for window in (None, dw / 2, dw / 3):
            for k in range(1, len(g) + 1):
                try:
                    problems.append(_check_block_phase(T, root, k, g, window, seed=seed + k))
                except PrecisionError:  # the factor itself needs a wider window
                    assert window is not None
    assert None in problems
    assert any(p is not None and "insufficient precision" in p for p in problems)


def test_block_phase_reports_an_exact_zero_block(monkeypatch):
    # on a star the matrix is diagonal and exact, so a mix with two equal
    # rows makes every block exactly zero: valuation -inf at the first Y
    J = [[F(3, 7), F(-2), F(5, 3), F(1)]] * 2
    monkeypatch.setattr(matroid, "_sample_mix", lambda k, n, seed: J)
    assert _check_block_phase(star_tree(4), 0, 2, (1, 2, 3, 4)) == (
        "seed 0: valuation -inf != 2 at Y=(1, 2) (degenerate mix suspected)")


def _caterpillar(leaves):
    """CI's caterpillar: spine 1-2-3-4, leaves 5.. hung on it in turn."""
    return Tree([(v, v + 1) for v in (1, 2, 3)]
                + [((v - 5) % 4 + 1, v) for v in range(5, 5 + leaves)])


def test_block_phase_on_ci_caterpillars():
    # represent-rooted's CI runs at --root 1 --window 19: 9 leaves at k = 6
    # (84 blocks, every 21st against the reference) and 8 leaves at k = 8
    # (one block, 69,280 reference products)
    for leaves, k, every in ((9, 6, 21), (8, 8, 1)):
        T = _caterpillar(leaves)
        assert _check_block_phase(T, 1, k, T.leaves(), window=19, every=every) is None


def test_series_valuation_reads_the_verified_valuations(monkeypatch):
    from treeminor import tropic

    T = quartet_tree()
    rep, _ = verify_rooted_representation(T, 5, 2)

    def refuse(*args):
        raise AssertionError("a block determinant ran after verification")

    monkeypatch.setattr(tropic, "series_det", refuse)
    monkeypatch.setattr(matroid, "_ColumnMinors", refuse)
    monkeypatch.setattr(matroid, "_mul_into", refuse)
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
