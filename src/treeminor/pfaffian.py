"""Pfaffians of the skew matrix built from t^{d_ij} over an ordered vertex
tuple.

For an even tuple X that is nicely ordered (the cyclic tour x1 -> x2 -> ...
-> x1 uses no tree edge more than twice) the Pfaffian collapses to a single
monomial t^{w(O_X)}, where O_X is the set of edges splitting X oddly.  The
generic expansion of the skew matrix is kept as the oracle; it is also what
exposes non-nicely-ordered tuples, whose Pfaffians genuinely differ.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .poly import ExactPoly, PolyMatrix, pfaffian
from .tree import Edge, Tree


class NotNicelyOrderedError(ValueError):
    """The ordered tuple walks some edge more than twice."""

    def __init__(self, edge: Edge, count: int):
        self.edge = edge
        self.count = count
        super().__init__(
            f"tuple is not nicely ordered: edge {edge} traversed {count} times"
        )


def build_skew_matrix(T: Tree, X: Sequence[int]) -> PolyMatrix:
    """Skew matrix with t^{d(x_a, x_b)} above the diagonal."""
    xs = T.check_subset(X)
    k = len(xs)
    z = ExactPoly.zero()
    rows = [[z] * k for _ in range(k)]
    for a in range(k):
        for b in range(a + 1, k):
            p = ExactPoly.t_power(T.dist(xs[a], xs[b]))
            rows[a][b] = p
            rows[b][a] = -p
    return PolyMatrix(rows)


def _require_even_and_nice(T: Tree, X: Sequence[int]) -> tuple[int, ...]:
    xs = T.check_subset(X)
    if len(xs) % 2:
        raise ValueError("Pfaffian needs an even number of vertices")
    ok, counts = T.is_nicely_ordered(xs)
    if not ok:
        edge, count = min((e, c) for e, c in counts.items() if c > 2)
        raise NotNicelyOrderedError(edge, count)
    return xs


def pf_formula(T: Tree, X: Sequence[int]) -> ExactPoly:
    """t raised to the total weight of the odd-splitting edges of X.

    Requires |X| even and X nicely ordered; otherwise the closed form does
    not apply and an error is raised.
    """
    xs = _require_even_and_nice(T, X)
    weight = sum((T.weight(e) for e in T.odd_edges(xs)), Fraction(0))
    return ExactPoly.t_power(weight)


def pf_oracle(T: Tree, X: Sequence[int]) -> ExactPoly:
    """Pfaffian of the actual skew matrix, any ordering."""
    xs = T.check_subset(X)
    if len(xs) % 2:
        raise ValueError("Pfaffian needs an even number of vertices")
    return pfaffian(build_skew_matrix(T, xs))


def odd_pairing(T: Tree, X: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Pair up the positions of a nicely ordered even tuple so that each
    pair's positions sum to an odd number and the paths between paired
    vertices partition the odd-splitting edge set O_X.

    Works by repeatedly finding a cyclically consecutive pair whose
    connecting path stays inside the remaining odd set, removing it, and
    continuing on the (still nicely ordered) rest; smallest position wins
    ties, so the result is deterministic.  Positions are 1-based.
    """
    xs = _require_even_and_nice(T, X)
    remaining = [(pos + 1, v) for pos, v in enumerate(xs)]
    odd_left = set(T.odd_edges(xs))
    pairs: list[tuple[int, int]] = []
    while remaining:
        k = len(remaining)
        hit = None
        for idx in range(k):
            (pa, va), (pb, vb) = remaining[idx], remaining[(idx + 1) % k]
            path = T.path_edges(va, vb)
            if path <= odd_left:
                hit = (idx, path)
                break
        if hit is None:
            raise ArithmeticError(
                "no consecutive pair has its path inside the odd edge set; "
                "input was not nicely ordered?"
            )
        idx, path = hit
        jdx = (idx + 1) % k
        pairs.append((remaining[idx][0], remaining[jdx][0]))
        odd_left -= path
        for kill in sorted((idx, jdx), reverse=True):
            del remaining[kill]
    return tuple(pairs)
