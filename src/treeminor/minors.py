"""Principal minors of the matrix (t^{d_ij}) of a weighted tree.

The central objects are spanned forests: subforests of the subtree spanned
by a vertex set X whose leaves all lie in X (isolated vertices of X are
allowed and count as their own components).  Summing a sign and a degree
product over them gives every principal minor of (t^{d_ij}) exactly.
minor_formula evaluates that sum by a DP over the tree's rooted walk that
skips the branches without a member of X, and minor_formula_table runs the
same DP once over the whole tree for every vertex set up to a size; the
determinant computed from the matrix itself serves as the independent
oracle, and the exponential forest enumerator as a small-n one.
minor_table gives every principal minor up to a size in one walk.  Both
oracles read one matrix, the distance powers as integer maps built from
the tree's integer distance rows (_power_maps), and run poly's walks on it
directly; build_matrix is its PolyMatrix view.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .poly import ExactPoly, PolyMatrix, _bareiss, _kernel, _sylvester, _zadd, _zmul
from .tree import Edge, Tree, edge_key


def _power_maps(T: Tree, xs: Sequence[int]) -> tuple[list[list[dict[int, int]]], int]:
    """(t^{d(x_i, x_j)}) over the listed vertices as integer maps {d: 1},
    and the exponents' denominator: the tree's integer distances and _den,
    both divided by their gcd G.  That is the form poly.det reads off
    build_matrix, whose entries each reduce their own exponent.  Over all
    vertices G = 1: for each prime p of _den, the edge whose weight's
    denominator holds p's full power in _den has an integer weight, its
    endpoints' distance, prime to p."""
    dist, den = T._distance_ints(xs)
    g = math.gcd(den, *itertools.chain.from_iterable(dist))
    return [[{d // g: 1} for d in row] for row in dist], den // g


def build_matrix(T: Tree, X: Sequence[int]) -> PolyMatrix:
    """The symmetric matrix (t^{d(x_i, x_j)}) over the listed vertices."""
    maps, den = _power_maps(T, T.check_subset(X))
    return PolyMatrix([[ExactPoly._make(den, 1, p) for p in row] for row in maps])


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


# One child-merge step of the minor DP (see minor_formula): a vertex keeps
# A, the sum over the edge choices of its merged child subtrees, and B, the
# same sum weighted by the number of chosen child edges; (out, in) is what
# it passes across its parent edge.


def _edge_terms(out_c: dict, in_c: dict, shift: int) -> tuple[dict, dict]:
    """(s, x in) for a child edge of weight shift / (2 T._den):
    x = -t^{2w}, s = out + x in."""
    x_in = {k + shift: -val for k, val in in_c.items()}
    return _zadd(out_c, x_in), x_in


def _absorb(a: dict, b: dict, s: dict, x_in: dict, in_x) -> tuple[dict, dict]:
    """B <- B s + A x in, A <- A s; B is not kept for a vertex of X."""
    if not in_x:
        b = _zadd(_zmul(b, s), _zmul(a, x_in))
    return _zmul(a, s), b


def _close(a: dict, b: dict, in_x) -> tuple[dict, dict]:
    """(out, in): (A, A) for a vertex of X, else (A - B, -B)."""
    if in_x:
        return a, a
    neg_b = {k: -val for k, val in b.items()}
    return _zadd(a, neg_b), neg_b


def minor_formula(T: Tree, X: Iterable[int]) -> ExactPoly:
    """det of (t^{d_ij}) over X as a signed sum over spanned forests:
    each forest F contributes (-1)^{|X| + c(F)} t^{2 w(F)} times the product
    of (deg_F(v) - 1) over vertices of F outside X.

    The sign and the degree factors are local, so the sum equals
    sum over S of prod_{e in S} (-t^{2 w_e}) * prod_{v not in X} (1 - deg_S v),
    S ranging over all edge subsets of the spanned subtree (a vertex outside
    X of degree one contributes 0, which enforces the leaf rule).  A
    post-order DP over the tree's rooted walk evaluates it with O(|E_X|)
    polynomial products; as in minor_formula_table, a branch without a
    member of X passes (1, 0) and is skipped, and the root passes the answer
    on.  Each vertex v returns (parent edge out, parent edge in), built from
    A, the sum over its child subtrees, and B, the same sum weighted by the
    number of chosen child edges: (A, A) if v is in X, else (A - B, -B).  A
    child edge of weight w, with x = -t^{2w} and s = out + x in, updates
    B <- B s + A x in and A <- A s.  The polynomials are integer-coefficient
    dicts over the tree's weight denominator T._den.
    """
    xs = T.check_subset(X)
    if not xs:
        raise ValueError("X must be nonempty")
    in_x = frozenset(xs)
    up: dict[int, tuple[dict, dict]] = {}  # the branches holding a member of X
    for v in reversed(T._parent):  # the walk lists each vertex after its parent
        a, b = {0: 1}, {}
        held = in_v = v in in_x
        for c in T._adj[v]:
            if c in up:  # a child: the parent comes later in reversed order
                out_c, in_c = up.pop(c)
                s, x_in = _edge_terms(out_c, in_c, 2 * T._int_weight[edge_key(v, c)])
                a, b = _absorb(a, b, s, x_in, in_v)
                held = True
        if held:
            up[v] = _close(a, b, in_v)
    ((out, _),) = up.values()
    return ExactPoly._make(T._den, 1, out)


def minor_formula_table(T: Tree, max_size: int) -> dict[tuple[int, ...], ExactPoly]:
    """minor_formula over every set of 1..max_size vertices, in one pass.

    Keys are minor_table's: the sets as sorted tuples, in combinations
    order.  The DP of minor_formula runs once over the whole tree, rooted
    at its rooted walk's root, with X as part of each vertex's state: a
    vertex keeps a map from the X-mask inside its subtree (bit i: the
    (i + 1)-th smallest label) to its (A, B), and passes the map of
    (out, in) up.  Merging a child pairs each mask with each child mask;
    the subtrees are disjoint, so every union arises once, and unions above
    max_size are dropped.  Summing over all of E(T) instead of E_X changes
    nothing: a branch holding no member of X passes (1, 0) (induction from
    its leaves: (A, B) = (1, 0) closes to (1, 0), and a (1, 0) child has
    s = 1, x in = 0, which leaves A and B as they are).  So the child mask
    0 is skipped, and a root outside the spanned subtree passes on the
    value of the branch below it unchanged.
    """
    verts = T.vertices
    bit = {v: 1 << i for i, v in enumerate(verts)}
    parent = T._parent
    up: dict[int, dict[int, tuple[dict, dict]]] = {}
    for v in reversed(parent):  # the walk lists each vertex after its parent
        vb = bit[v]
        state = {0: ({0: 1}, {}), vb: ({0: 1}, {})}
        for c in T._adj[v]:
            if c == parent[v]:
                continue
            shift = 2 * T._int_weight[edge_key(v, c)]
            merged = dict(state)  # child mask 0
            for cm, (out_c, in_c) in up.pop(c).items():
                if not cm:
                    continue
                s, x_in = _edge_terms(out_c, in_c, shift)
                room = max_size - cm.bit_count()
                for pm, (a, b) in state.items():
                    if pm.bit_count() <= room:
                        merged[pm | cm] = _absorb(a, b, s, x_in, pm & vb)
            state = merged
        up[v] = {m: _close(a, b, m & vb) for m, (a, b) in state.items()}
    (root_out,) = up.values()
    table = {}
    for r in range(1, min(max_size, len(verts)) + 1):
        for key in itertools.combinations(verts, r):
            out, _ = root_out[sum(bit[x] for x in key)]
            table[key] = ExactPoly._make(T._den, 1, out)
    return table


def minor_leading(T: Tree, X: Iterable[int]) -> tuple[Fraction, Fraction]:
    """(exponent, coefficient) of the top term of the minor, read directly
    off the spanned subtree: exponent twice its weight, coefficient
    (-1)^{|X|+1} times the interior degree product."""
    xs = T.check_subset(X)
    if not xs:
        raise ValueError("X must be nonempty")
    mask = T._spanned_mask(xs)
    coeff = Fraction(forest_degree_product(T._edges_of(mask), frozenset(xs)))
    if len(xs) % 2 == 0:
        coeff = -coeff
    return 2 * T._weight_of(mask), coeff


def minor_oracle(T: Tree, X: Sequence[int]) -> ExactPoly:
    """Independent evaluation: determinant of the actual matrix, by
    poly.det's Bareiss walk on the integer maps of build_matrix."""
    xs = T.check_subset(X)
    if not xs:
        raise ValueError("X must be nonempty")
    maps, den = _power_maps(T, xs)
    return ExactPoly._make(den, 1, _bareiss(_kernel(maps, len(maps))))


def minor_table(T: Tree, max_size: int) -> dict[tuple[int, ...], ExactPoly]:
    """det (t^{d_ij}) over every set of 1..max_size vertices.

    Keys are the sets as sorted tuples, as combinations(T.vertices, r)
    lists them, and each value equals minor_oracle(T, key).  One Sylvester
    walk (poly._sylvester) over the integer maps of the distance powers
    gives them all; it runs on packed ints at t = 2^B, B from the bound
    max_size! on the minors' coefficients, when the distances are dense
    (unit weights), and on the maps otherwise (poly._kernel).  The
    table is complete: a principal minor over distinct vertices is a
    nonzero polynomial (minor_leading gives its top term), so the walk
    meets no zero pivot.  The maps are minor_oracle's (_power_maps).
    """
    maps, den = _power_maps(T, T.vertices)
    minors = _sylvester(_kernel(maps, max_size), T.vertices, max_size)
    return {key: ExactPoly._make(den, 1, p) for key, p in minors.items()}


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
