"""Fixtures shared by the matrix-builder tests."""

from fractions import Fraction as F

import pytest

from treeminor.tree import Tree, random_tree


@pytest.fixture
def entry_trees():
    """Trees whose integer forms differ: unit and rational random trees, a
    relabelled tree, and weights over 2, 3 and 4, where the lcm of the
    denominators of the 2w (6) is not that of the w (12)."""
    return [
        *(random_tree(6, seed=s) for s in range(3)),
        *(random_tree(6, seed=s, weights="rational") for s in range(3)),
        Tree([(7, 0, F(5, 2)), (0, 12, 1), (12, 3, F(2, 3)), (12, 40, 3)]),
        Tree([(1, 2, F(1, 2)), (2, 3, F(1, 3)), (3, 4, F(1, 4)), (3, 5, F(3, 4))]),
        Tree([(0, 1, F(1, 3)), (0, 2, F(3, 4)), (0, 3, F(5, 2)), (3, 4, F(2, 3))]),
    ]
