"""Forest-sum minors against the direct determinant oracle.

The oracle (determinant of the literal matrix) was implemented and spot
valued first; formula results must match it exactly, term by term.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treeminor.cyclekernel import cycle_sums
from treeminor.minors import (
    build_matrix,
    build_weighted_matrix,
    forest_degree_product,
    minor_formula,
    minor_leading,
    minor_oracle,
    signature,
    spanned_forests,
    weighted_minor,
)
from treeminor.poly import ExactPoly, det
from treeminor.tree import Tree, random_tree

F = Fraction
tp = ExactPoly.t_power


def path_tree(n, w=1):
    return Tree([(i, i + 1, F(w)) for i in range(1, n)])


def star_tree(k):
    return Tree([(0, i) for i in range(1, k + 1)])


def half_integer_tree(n, seed):
    """The shape of random_tree(n, seed) with weights in {1/2, 1, 3/2, 2}."""
    rng = random.Random(seed)
    return Tree(
        [(u, v, F(rng.randint(1, 4), 2)) for u, v, _ in random_tree(n, seed=seed).edges()],
        vertices=range(1, n + 1),
    )


def forest_sum(T, X):
    """The signed spanned-forest sum, term by term from the enumerator."""
    xs = frozenset(X)
    terms = []
    for f in spanned_forests(T, xs):
        coeff = forest_degree_product(f.edges, xs)
        if (len(xs) + f.components) % 2:
            coeff = -coeff
        terms.append((2 * f.weight, F(coeff)))
    return ExactPoly.from_terms(terms)


def test_spanned_forests_path3_pair():
    T = path_tree(3)
    forests = spanned_forests(T, [1, 3])
    assert len(forests) == 2
    by_edges = {f.edges: f for f in forests}
    empty = by_edges[frozenset()]
    assert empty.isolated == frozenset({1, 3})
    assert empty.components == 2
    full = by_edges[frozenset({(1, 2), (2, 3)})]
    assert full.isolated == frozenset()
    assert full.components == 1
    assert full.weight == 2
    assert full.vertices == frozenset({1, 2, 3})


def test_spanned_forest_invariants_random():
    for seed in range(8):
        T = random_tree(6, seed=seed)
        for r in range(1, 7):
            for X in itertools.combinations(T.vertices, r):
                xs = frozenset(X)
                for f in spanned_forests(T, X):
                    assert xs <= f.vertices
                    deg = {}
                    for u, v in f.edges:
                        deg[u] = deg.get(u, 0) + 1
                        deg[v] = deg.get(v, 0) + 1
                    for v, d in deg.items():
                        if d == 1:
                            assert v in xs
                    assert f.isolated == xs - deg.keys()


def test_minor_formula_frozen_small():
    T = path_tree(3)
    assert minor_formula(T, [1, 3]) == ExactPoly.one() - tp(4)
    S = star_tree(3)
    expected = ExactPoly.from_terms([(0, 1), (4, -3), (6, 2)])
    assert minor_formula(S, [1, 2, 3]) == expected


def test_minor_singleton_is_one():
    T = path_tree(4)
    assert minor_formula(T, [2]) == ExactPoly.one()
    assert minor_oracle(T, [2]) == ExactPoly.one()


def test_empty_x_rejected_by_every_minor_path():
    T = path_tree(3)
    for f in (minor_formula, minor_leading, minor_oracle):
        with pytest.raises(ValueError, match="X must be nonempty"):
            f(T, [])


@st.composite
def trees_and_subsets(draw):
    n = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 10 ** 6))
    mode = draw(st.sampled_from(["unit", "rational", "half"]))
    T = half_integer_tree(n, seed) if mode == "half" else random_tree(n, seed=seed, weights=mode)
    X = draw(st.lists(st.sampled_from(T.vertices), min_size=1, max_size=n, unique=True))
    return T, X


@settings(max_examples=150, deadline=None)
@given(trees_and_subsets())
def test_dp_matches_forest_sum_and_determinant(case):
    T, X = case
    got = minor_formula(T, X)
    assert got == forest_sum(T, X)
    assert got == minor_oracle(T, X)
    if len(X) <= 6:  # |X|! cycle partitions
        assert cycle_sums(T, X) == (got, got)


def test_full_vertex_set_weighted_product_at_scale():
    # X = V gives prod_e (1 - t^{2 w_e}) (Bapat-Lal-Pati); 2^199 forests
    T = half_integer_tree(200, seed=5)
    want = ExactPoly.one()
    for _, _, w in T.edges():
        want = want * (ExactPoly.one() - tp(2 * w))
    assert minor_formula(T, T.vertices) == want


def test_large_leaf_set_top_term_matches_leading():
    T = random_tree(80, seed=3)
    leaves = T.leaves()
    assert len(leaves) == 33
    assert minor_formula(T, leaves).leading_term() == minor_leading(T, leaves)


def test_leaf_set_minor_matches_determinant_at_scale():
    # |X| = 17: a 17 x 17 Bareiss elimination on the integer kernel
    T = random_tree(40, seed=3)
    leaves = T.leaves()
    assert len(leaves) == 17
    assert minor_oracle(T, leaves) == minor_formula(T, leaves)


def test_minor_matches_oracle_exhaustive_small():
    for seed in range(6):
        T = random_tree(6, seed=seed, weights="rational" if seed % 2 else "unit")
        for r in range(1, 7):
            for X in itertools.combinations(T.vertices, r):
                assert minor_formula(T, X) == minor_oracle(T, X)


def test_minor_leading_matches_oracle():
    T = path_tree(3)
    assert minor_leading(T, [1, 3]) == (F(4), F(-1))
    S = star_tree(3)
    assert minor_leading(S, [1, 2, 3]) == (F(6), F(2))
    for seed in range(5):
        T = random_tree(7, seed=seed, weights="rational" if seed % 2 else "unit")
        for r in range(1, 8):
            for X in itertools.combinations(T.vertices, r):
                assert minor_leading(T, X) == minor_oracle(T, X).leading_term()


def test_full_vertex_set_power_identity():
    # over all vertices the minor collapses to (1 - t^2)^(n-1)
    for seed in range(5):
        for n in (2, 3, 5, 7):
            T = random_tree(n, seed=seed)
            assert minor_formula(T, T.vertices) == (
                ExactPoly.one() - tp(2)
            ) ** (n - 1)


def test_minor_parity_sign():
    # odd-size minors have positive leading coefficient, even-size negative
    T = random_tree(7, seed=11)
    for r in range(1, 8):
        for X in itertools.islice(itertools.combinations(T.vertices, r), 8):
            _, c = minor_leading(T, X)
            assert (c > 0) == (r % 2 == 1)


def test_signature_report():
    T = path_tree(4)
    rep = signature(T, (1, 2, 3, 4))
    assert (rep.positives, rep.negatives) == (1, 3)
    sizes = [m for m, _, _ in rep.evidence]
    coeffs = [c for _, _, c in rep.evidence]
    assert sizes == [1, 2, 3, 4]
    assert [c > 0 for c in coeffs] == [True, False, True, False]


def test_weighted_minor_single_edge():
    T = Tree([(1, 2, F(3, 2))])
    assert minor_formula(T, [1, 2]) == ExactPoly.one() - tp(3)


def test_weighted_minor_with_potential():
    T = path_tree(2)
    got = weighted_minor(T, (1, 2), potential=(1, 2))
    assert got == tp(6) - tp(8)
    assert got == det(build_weighted_matrix(T, (1, 2), potential=(1, 2)))


def test_weighted_minor_noninjective_is_zero():
    T = path_tree(3)
    assert weighted_minor(T, (1, 1, 3)).is_zero()
    assert det(build_weighted_matrix(T, (1, 1, 3))).is_zero()


def test_weighted_minor_matches_oracle_random():
    import random

    rng = random.Random(7)
    for seed in range(4):
        T = random_tree(5, seed=seed)
        phi = tuple(rng.choice(T.vertices) for _ in range(rng.randint(1, 4)))
        p = tuple(F(rng.randint(-2, 3), rng.randint(1, 2)) for _ in phi)
        assert weighted_minor(T, phi, p) == det(build_weighted_matrix(T, phi, p))


def test_weighted_minor_rejects_unknown_vertex():
    T = path_tree(3)
    with pytest.raises(ValueError):
        weighted_minor(T, (1, 9))
    with pytest.raises(ValueError):
        weighted_minor(T, (1, 2), potential=(1,))


def test_build_matrix_is_symmetric_with_unit_diagonal():
    T = random_tree(5, seed=2)
    m = build_matrix(T, T.vertices)
    for i in range(5):
        assert m[i, i] == ExactPoly.one()
        for j in range(5):
            assert m[i, j] == m[j, i]
