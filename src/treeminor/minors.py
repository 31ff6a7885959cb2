"""Principal minors of the matrix (t^{d_ij}) of a weighted tree.

The central objects are spanned forests: subforests of the subtree spanned
by a vertex set X whose leaves all lie in X (isolated vertices of X are
allowed and count as their own components).  Summing a sign and a degree
product over them gives every principal minor of (t^{d_ij}) exactly.
minor_formula evaluates that sum by a DP over the spanned subtree; the
determinant computed from the matrix itself serves as the independent
oracle, and the exponential forest enumerator as a small-n one.
minor_table gives every principal minor up to a size in one walk.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .poly import ExactPoly, PolyMatrix, _zadd, _zdiv, _zmul, det
from .tree import Edge, Tree


def build_matrix(T: Tree, X: Sequence[int]) -> PolyMatrix:
    """The symmetric matrix (t^{d(x_i, x_j)}) over the listed vertices."""
    xs = T.check_subset(X)
    rows = [
        [ExactPoly.t_power(T.dist(a, b)) for b in xs]
        for a in xs
    ]
    return PolyMatrix(rows)


@dataclass(frozen=True)
class SpannedForest:
    """A forest spanned by X: X is contained in the vertex set and every
    leaf (degree <= 1 vertex) belongs to X."""

    edges: frozenset[Edge]
    isolated: frozenset[int]  # members of X touched by no edge
    components: int  # connected components, isolated vertices included
    weight: Fraction  # total edge weight

    @property
    def vertices(self) -> frozenset[int]:
        vs = set(self.isolated)
        for u, v in self.edges:
            vs.add(u)
            vs.add(v)
        return frozenset(vs)


def spanned_forests(T: Tree, X: Iterable[int]) -> list[SpannedForest]:
    """All forests spanned by X inside the subtree spanned by X.

    Enumerates all 2^|E_X| subsets of the spanned subtree's edges and keeps
    those whose degree-one vertices all lie in X; vertices of X meeting no
    edge stay as isolated components.  Tree edges are acyclic, so a forest
    has vertices - edges + isolated points components.
    """
    xs = frozenset(T.check_subset(X))
    if not xs:
        raise ValueError("X must be nonempty")
    _, edge_pool = T.spanned_subtree(xs)
    pool = sorted(edge_pool)
    out = []
    for r in range(len(pool) + 1):
        for combo in itertools.combinations(pool, r):
            deg: dict[int, int] = {}
            for u, v in combo:
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            if any(d == 1 and v not in xs for v, d in deg.items()):
                continue
            isolated = xs - deg.keys()
            weight = sum((T.weight(e) for e in combo), Fraction(0))
            out.append(
                SpannedForest(
                    edges=frozenset(combo),
                    isolated=frozenset(isolated),
                    components=len(deg) - r + len(isolated),
                    weight=weight,
                )
            )
    return out


def forest_degree_product(T_or_forest_edges, X: frozenset[int]) -> int:
    """prod over non-X vertices of (degree - 1) in the given edge set."""
    deg: dict[int, int] = {}
    for u, v in T_or_forest_edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    prod = 1
    for v, d in deg.items():
        if v not in X:
            prod *= d - 1
    return prod


def minor_formula(T: Tree, X: Iterable[int]) -> ExactPoly:
    """det of (t^{d_ij}) over X as a signed sum over spanned forests:
    each forest F contributes (-1)^{|X| + c(F)} t^{2 w(F)} times the product
    of (deg_F(v) - 1) over vertices of F outside X.

    The sign and the degree factors are local, so the sum equals
    sum over S of prod_{e in S} (-t^{2 w_e}) * prod_{v not in X} (1 - deg_S v),
    S ranging over all edge subsets of the spanned subtree (a vertex outside
    X of degree one contributes 0, which enforces the leaf rule).  A
    post-order DP over the subtree, rooted at a vertex of X, evaluates it
    with O(|E_X|) polynomial products.  Each vertex v returns
    (parent edge out, parent edge in), built from A, the sum over its child
    subtrees, and B, the same sum weighted by the number of chosen child
    edges: (A, A) if v is in X, else (A - B, -B).  A child edge of weight w,
    with x = -t^{2w} and s = out + x in, updates B <- B s + A x in and
    A <- A s.  The polynomials are integer-coefficient dicts over the shared
    exponent denominator.
    """
    xs = T.check_subset(X)
    if not xs:
        raise ValueError("X must be nonempty")
    in_x = frozenset(xs)
    _, edges = T.spanned_subtree(xs)
    den = 1
    for e in edges:
        den = lcm(den, (2 * T.weight(e)).denominator)
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    root = xs[0]
    parent = {root: root}
    order = [root]
    for v in order:  # breadth-first; reversed, every child precedes its parent
        for c in adj.get(v, ()):
            if c not in parent:
                parent[c] = v
                order.append(c)
    up: dict[int, tuple[dict, dict]] = {}
    for v in reversed(order):
        a: dict[int, int] = {0: 1}
        b: dict[int, int] = {}
        for c in adj.get(v, ()):
            if c == parent[v]:
                continue
            out_c, in_c = up.pop(c)
            shift = int(2 * T.weight((v, c)) * den)
            x_in = {k + shift: -val for k, val in in_c.items()}  # -t^{2w} * in
            s = _zadd(out_c, x_in)
            if v not in in_x:
                b = _zadd(_zmul(b, s), _zmul(a, x_in))
            a = _zmul(a, s)
        if v in in_x:
            up[v] = (a, a)
        else:
            neg_b = {k: -val for k, val in b.items()}
            up[v] = (_zadd(a, neg_b), neg_b)
    return ExactPoly._make(den, 1, up[root][0])


def minor_leading(T: Tree, X: Iterable[int]) -> tuple[Fraction, Fraction]:
    """(exponent, coefficient) of the top term of the minor, read directly
    off the spanned subtree: exponent twice its weight, coefficient
    (-1)^{|X|+1} times the interior degree product."""
    xs = frozenset(T.check_subset(X))
    if not xs:
        raise ValueError("X must be nonempty")
    _, edges = T.spanned_subtree(xs)
    weight = sum((T.weight(e) for e in edges), Fraction(0))
    coeff = Fraction(forest_degree_product(edges, xs))
    if len(xs) % 2 == 0:
        coeff = -coeff
    return 2 * weight, coeff


def minor_oracle(T: Tree, X: Sequence[int]) -> ExactPoly:
    """Independent evaluation: determinant of the actual matrix."""
    xs = T.check_subset(X)
    if not xs:
        raise ValueError("X must be nonempty")
    return det(build_matrix(T, xs))


def minor_table(T: Tree, max_size: int) -> dict[tuple[int, ...], ExactPoly]:
    """det (t^{d_ij}) over every set of 1..max_size vertices.

    Keys are the sets as sorted tuples, as combinations(T.vertices, r)
    lists them, and each value equals minor_oracle(T, key).  The walk adds
    vertices depth-first in label order and carries p = det M[S] and the
    fraction-free Schur complement B_ij = det M[S+i, S+j] for i, j after
    max S.  A child S+m has det B_mm, and by Sylvester's determinant
    identity B'_ij = (B_mm B_ij - B_im B_mj) / p, an exact division.  No
    pivot vanishes: a principal minor over distinct vertices is a nonzero
    polynomial (minor_leading gives its top term).  Exponents are integers
    over the lcm of the distance denominators.
    """
    xs = T.vertices
    n = len(xs)
    dist = T.distance_matrix()
    den = lcm(*(d.denominator for row in dist for d in row))
    table: dict[tuple[int, ...], ExactPoly] = {}

    def grow(S, p, B, start):
        # B[i][j] for start <= i <= j; a child whose own children are the
        # last level needs only their diagonal
        for m in range(start, n):
            bm = B[m]
            pm = bm[m]
            key = S + (xs[m],)
            table[key] = ExactPoly._make(den, 1, pm)
            size = len(key)
            if size >= max_size or m == n - 1:
                continue
            diagonal_only = size + 1 == max_size
            child = [None] * n
            for i in range(m + 1, n):
                neg_mi = {k: -c for k, c in bm[i].items()}
                bi = B[i]
                out = [None] * n
                for j in (i,) if diagonal_only else range(i, n):
                    num = _zadd(_zmul(pm, bi[j]), _zmul(neg_mi, bm[j]))
                    out[j] = _zdiv(num, p) if S else num
                child[i] = out
            grow(key, pm, child, m + 1)

    M = [[{d.numerator * (den // d.denominator): 1} for d in row] for row in dist]
    if max_size >= 1:
        grow((), {0: 1}, M, 0)
    return table


@dataclass(frozen=True)
class SignatureReport:
    positives: int
    negatives: int
    evidence: tuple  # (prefix size, leading exponent, leading coefficient)


def signature(T: Tree, X: Sequence[int]) -> SignatureReport:
    """Signature (1, |X|-1) of the minor over X, certified by the strict
    sign alternation of the nested leading principal minors: size-m prefixes
    have leading coefficient of sign (-1)^{m+1}."""
    xs = T.check_subset(X)
    if not xs:
        raise ValueError("X must be nonempty")
    evidence = []
    for m in range(1, len(xs) + 1):
        e, c = minor_leading(T, xs[:m])
        want = 1 if m % 2 else -1
        if (c > 0) != (want > 0) or c == 0:
            raise ArithmeticError(
                f"sign alternation broke at prefix size {m}: coefficient {c}"
            )
        evidence.append((m, e, c))
    return SignatureReport(positives=1, negatives=len(xs) - 1, evidence=tuple(evidence))


def build_weighted_matrix(
    T: Tree, phi: Sequence[int], potential: Sequence | None = None
) -> PolyMatrix:
    """Matrix (t^{w_ij}) for w_ij = d(phi_i, phi_j) + p_i + p_j.

    phi maps row indices to tree vertices (repeats allowed); the potential
    defaults to zero.
    """
    m = len(phi)
    p = _potential(potential, m)
    for v in phi:
        if not T.has_vertex(v):
            raise ValueError(f"vertex {v} is not in the tree")
    rows = [
        [ExactPoly.t_power(T.dist(phi[i], phi[j]) + p[i] + p[j]) for j in range(m)]
        for i in range(m)
    ]
    return PolyMatrix(rows)


def weighted_minor(
    T: Tree, phi: Sequence[int], potential: Sequence | None = None
) -> ExactPoly:
    """det (t^{w_ij}) via the forest formula.

    A non-injective phi collapses two rows, so the determinant is zero;
    otherwise the potential factors out of every row and column as
    t^{2 sum p} times the plain minor over the image of phi.
    """
    m = len(phi)
    p = _potential(potential, m)
    for v in phi:
        if not T.has_vertex(v):
            raise ValueError(f"vertex {v} is not in the tree")
    if len(set(phi)) != m:
        return ExactPoly.zero()
    shift = 2 * sum(p, Fraction(0))
    base = minor_formula(T, phi)
    return ExactPoly.t_power(shift) * base


def _potential(potential, m) -> list[Fraction]:
    if potential is None:
        return [Fraction(0)] * m
    p = [Fraction(x) for x in potential]
    if len(p) != m:
        raise ValueError("potential length must match phi length")
    return p
