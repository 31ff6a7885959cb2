"""Pfaffian monomial formula vs the expansion oracle, and the pairing
machinery behind it.

Frozen values: the 4-vertex path with its natural order gives t^2 (computed
from the three-pairings expansion by hand); the reordering (1,3,2,4) gives
2t^4 - t^2, which is the standing counterexample showing the order matters.
"""

import itertools

import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

from treeminor.matroid import _value_pair, represent_odd

from treeminor.pfaffian import (
    NotNicelyOrderedError,
    build_skew_matrix,
    pf_formula,
    pf_bits,
    pf_formula_table,
    pf_oracle,
    pf_table,
)
from treeminor.poly import ExactPoly, _unpack, pfaffian
from treeminor.tree import Tree, random_tree

F = Fraction
tp = ExactPoly.t_power


def unpacked(T, bits, value):
    return ExactPoly._make(T._den, 1, _unpack(bits, value))


def path_tree(n, w=1):
    return Tree([(i, i + 1, F(w)) for i in range(1, n)])


def star_tree(k):
    return Tree([(0, i) for i in range(1, k + 1)])


def test_pf_path4_natural_order():
    T = path_tree(4)
    assert pf_formula(T, (1, 2, 3, 4)) == tp(2)
    assert pf_oracle(T, (1, 2, 3, 4)) == tp(2)


def test_pf_star_pair():
    S = star_tree(3)
    assert pf_formula(S, (1, 2)) == tp(2)
    assert pf_oracle(S, (1, 2)) == tp(2)


def test_pf_empty_tuple():
    T = path_tree(3)
    assert pf_formula(T, ()) == ExactPoly.one()
    assert pf_oracle(T, ()) == ExactPoly.one()


def test_pf_weighted():
    T = Tree([(1, 2, F(1, 2)), (2, 3, F(2)), (3, 4, F(3))])
    # odd edges of the full set are the two outer edges
    assert T.odd_edges((1, 2, 3, 4)) == frozenset({(1, 2), (3, 4)})
    assert pf_formula(T, (1, 2, 3, 4)) == tp(F(7, 2))
    assert pf_oracle(T, (1, 2, 3, 4)) == tp(F(7, 2))


def test_pf_odd_size_rejected():
    T = path_tree(4)
    with pytest.raises(ValueError):
        pf_formula(T, (1, 2, 3))
    with pytest.raises(ValueError):
        pf_oracle(T, (1, 2, 3))


def test_pf_rejects_bad_order_with_edge():
    T = path_tree(4)
    with pytest.raises(NotNicelyOrderedError) as ei:
        pf_formula(T, (1, 3, 2, 4))
    assert ei.value.edge == (2, 3)
    assert ei.value.count == 4


def test_bad_order_oracle_differs():
    # the expansion under (1,3,2,4) picks up an extra term
    T = path_tree(4)
    got = pf_oracle(T, (1, 3, 2, 4))
    assert got == 2 * tp(4) - tp(2)
    assert got != tp(2)


def test_pf_formula_matches_oracle_sweep():
    for seed in range(10):
        T = random_tree(7, seed=seed, weights="rational" if seed % 2 else "unit")
        verts = T.vertices
        for r in (0, 2, 4, 6):
            for X in itertools.combinations(verts, r):
                order = T.nice_order(X)
                assert pf_formula(T, order) == pf_oracle(T, order)


def test_nonnice_orders_mostly_differ():
    # gather reorderings that break niceness and check the monomial really
    # fails for them; at least a handful must exist on a 6-path
    T = path_tree(6)
    bad = 0
    for X in itertools.permutations((1, 2, 3, 4, 5, 6), 4):
        ok, _ = T.is_nicely_ordered(X)
        if ok:
            continue
        odd_w = sum((T.weight(e) for e in T.odd_edges(X)), F(0))
        if pf_oracle(T, X) != tp(odd_w):
            bad += 1
    assert bad >= 20


@st.composite
def trees_and_orders(draw):
    """A unit, rational or half-integer tree on 1..8 vertices, and a
    shuffled order of its vertices."""
    n = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 10 ** 6))
    mode = draw(st.sampled_from(["unit", "rational", "half"]))
    T = random_tree(n, seed=seed, weights="unit" if mode == "half" else mode)
    if mode == "half":
        halves = draw(st.lists(st.integers(1, 4), min_size=n - 1, max_size=n - 1))
        T = Tree(
            [(u, v, F(k, 2)) for (u, v, _), k in zip(T.edges(), halves)],
            vertices=T.vertices,
        )
    return T, tuple(draw(st.permutations(T.vertices)))


@settings(max_examples=60, deadline=None)
@given(trees_and_orders())
# distances over _den = 2 that share its factor 2 (d(1, 3) = 2 / 2)
@example((Tree([(1, 2, F(1, 2)), (2, 3, F(1, 2)), (2, 4, 1)]), (3, 1, 4, 2)))
def test_pf_table_matches_the_oracle_on_every_even_sub_tuple(case):
    T, shuffled = case
    nice = T.nice_order(T.vertices)
    rep = represent_odd(T)
    where = {v: i for i, v in enumerate(rep.order)}
    bits = pf_bits(T.n)
    for order in (nice, shuffled):
        table = pf_table(T, order, bits)
        want = [X for r in range(0, T.n + 1, 2) for X in itertools.combinations(order, r)]
        assert set(table) == set(want)
        for X in want:
            oracle = pf_oracle(T, X)
            matrix = pfaffian(build_skew_matrix(T, X))
            assert unpacked(T, bits, table[X]) == oracle == matrix
            assert str(oracle) == str(matrix)
            # value_pair against the Pfaffian of rep's block on the PolyMatrix
            block = pfaffian(rep.matrix.principal_submatrix(sorted(where[x] for x in X)))
            got, expected = rep.value_pair(X), _value_pair(block)
            assert got == expected and str(got) == str(expected)
            if order == nice:
                # a restriction of a depth-first order is nicely ordered
                assert T.is_nicely_ordered(X)[0]
                assert unpacked(T, bits, table[X]) == pf_formula(T, X)


@settings(max_examples=60, deadline=None)
@given(trees_and_orders())
# rational weights (_den 12) and labels with gaps
@example((random_tree(8, seed=4, weights="rational"), (5, 1, 8, 3, 2, 7, 4, 6)))
@example((Tree([(3, 9, F(1, 2)), (9, 6, F(2, 3)), (9, 12, 1), (12, 15, F(5, 4))]), (15, 3, 12, 6, 9)))
def test_pf_formula_table_is_the_monomial_where_nicely_ordered(case):
    T, shuffled = case
    bits = pf_bits(T.n)
    for order in (T.nice_order(T.vertices), shuffled):
        table = pf_formula_table(T, order, bits)
        oracle = pf_table(T, order, bits)
        assert list(table) == list(oracle)
        for X, value in table.items():
            if T.is_nicely_ordered(X)[0]:
                assert unpacked(T, bits, value) == pf_formula(T, X)
                assert value == oracle[X]
            else:
                assert value is None


def test_pf_table_bits_hold_at_17_vertices():
    # a Pfaffian over 2k points sums one signed monomial per perfect
    # matching: (2k - 1)!! of them, counted here by pairing the first point
    def matchings(m):
        return 1 if m == 0 else (m - 1) * matchings(m - 2)

    assert [pf_bits(n) for n in (2, 9, 10, 16, 17)] == [8, 8, 16, 24, 24]
    assert matchings(16) == 2_027_025 < 1 << 23  # 16 of 17 points
    assert matchings(8) == 105 < 1 << 7 <= matchings(10) == 945  # 8 bits hold 9 points, not 10
    T = random_tree(17, seed=12)
    order = T.nice_order(T.vertices)
    with pytest.raises(ValueError, match="16 bits do not hold the Pfaffians over 17 points"):
        pf_table(T, order, 16)
    table = pf_table(T, order, 24)
    for X in list(table)[::4099]:
        assert unpacked(T, 24, table[X]) == pf_oracle(T, X)


def test_build_skew_matrix_entries_are_the_distance_monomials(entry_trees):
    seeded = [random_tree(6, seed=s, weights="rational" if s % 2 else "unit") for s in range(12)]
    for T in entry_trees + seeded:
        order = T.vertices[::-1]
        m = build_skew_matrix(T, order)
        for i, a in enumerate(order):
            for j, b in enumerate(order):
                want = tp(T.dist(a, b)) if i < j else -tp(T.dist(a, b))
                want = ExactPoly.zero() if i == j else want
                assert m[i, j] == want
                assert str(m[i, j]) == str(want)


def test_build_skew_matrix_shape():
    T = path_tree(3)
    m = build_skew_matrix(T, (1, 2, 3))
    for i in range(3):
        assert m[i, i].is_zero()
        for j in range(3):
            assert m[i, j] == -m[j, i]
    assert m[0, 2] == tp(2)
    assert m[2, 0] == -tp(2)
