"""Pfaffian monomial formula vs the expansion oracle, and the pairing
machinery behind it.

Frozen values: the 4-vertex path with its natural order gives t^2 (computed
from the three-pairings expansion by hand); the reordering (1,3,2,4) gives
2t^4 - t^2, which is the standing counterexample showing the order matters.
"""

import itertools
import random

import pytest
from fractions import Fraction

from treeminor.pfaffian import (
    NotNicelyOrderedError,
    build_skew_matrix,
    odd_pairing,
    pf_formula,
    pf_oracle,
)
from treeminor.poly import ExactPoly
from treeminor.tree import Tree, random_tree

F = Fraction
tp = ExactPoly.t_power


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


# ---------------------------------------------------------------------------
# pairing


def test_odd_pairing_path4():
    T = path_tree(4)
    assert odd_pairing(T, (1, 2, 3, 4)) == ((1, 2), (3, 4))


def test_odd_pairing_first_pair_not_eligible():
    # rotate so the scan must skip a consecutive pair whose path leaves O_X
    T = path_tree(6)
    X = (3, 4, 6, 1)
    ok, _ = T.is_nicely_ordered(X)
    assert ok
    assert T.path_edges(3, 4) == frozenset({(3, 4)})
    assert (3, 4) not in T.odd_edges(X)
    pairing = odd_pairing(T, X)
    assert pairing == ((2, 3), (1, 4))


def test_odd_pairing_properties_random():
    rng = random.Random(5)
    for seed in range(12):
        T = random_tree(8, seed=seed)
        verts = T.vertices
        for r in (2, 4, 6, 8):
            X = T.nice_order(rng.sample(verts, r))
            pairing = odd_pairing(T, X)
            assert len(pairing) == r // 2
            used = set()
            covered = set()
            for pa, pb in pairing:
                assert (pa + pb) % 2 == 1
                used |= {pa, pb}
                path = T.path_edges(X[pa - 1], X[pb - 1])
                assert not (covered & path)
                covered |= path
            assert used == set(range(1, r + 1))
            assert covered == T.odd_edges(X)


def test_build_skew_matrix_shape():
    T = path_tree(3)
    m = build_skew_matrix(T, (1, 2, 3))
    for i in range(3):
        assert m[i, i].is_zero()
        for j in range(3):
            assert m[i, j] == -m[j, i]
    assert m[0, 2] == tp(2)
    assert m[2, 0] == -tp(2)
