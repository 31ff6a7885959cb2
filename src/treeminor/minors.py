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
oracles read the tree's integer distance rows once, as one block ordered
from the most central point out (_central_block), build integer maps from
it and run poly's walks on them directly.  minor_table walks the distance
powers (_power_maps; build_matrix is their PolyMatrix view), minor_oracle
their Farris transform at the most central point r (_farris_maps):
M_ij = u^{e_ij}, e_ij = (d(x_i, r) + d(x_j, r) - d_ij) / G, and
det (t^{d_ij}) = t^{2 sum_i d(x_i, r)} det M(t^{-G}).

The three tables a sweep compares (minor_table, minor_formula_table and
minor_leading_table, the top terms read off root-path masks) hold ints.
Every principal minor is a sum over closed walks on the tree, each of
which crosses every edge an even number of times, so every exponent over
t^(1/T._den) is even: the first two tables hold each value at
u = t^(2/T._den) = 2^B for the B their caller passes, and the third the
top term's exponent over u and its coefficient.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .poly import (
    ExactPoly,
    PolyMatrix,
    _FARRIS_DENSE_BITS,
    _bareiss,
    _kernel,
    _packed_values,
    _sylvester,
    _zadd,
    _zmul,
)
from .tree import Edge, Tree, edge_key


def _central_block(T: Tree, xs: Sequence[int]) -> tuple[list[int], list[list[int]], int]:
    """(order, dist, _den): xs by ascending sum of their distances to the
    others, ties by position, so the most central point comes first, and
    their integer distance block in that order, from one read of the
    tree's distances.  A simultaneous permutation of rows and columns
    leaves every principal minor as it is; on tree distance matrices the
    eliminations' intermediate minors come out shorter from this end than
    in label order."""
    dist, den = T._distance_ints(xs)
    order = sorted(range(len(xs)), key=lambda i: sum(dist[i]))
    return [xs[i] for i in order], [[dist[i][j] for j in order] for i in order], den


def _power_maps(dist: list[list[int]], den: int) -> tuple[list[list[dict[int, int]]], int]:
    """(t^{d_ij}) over a block of integer distances over den as integer
    maps {d: 1}, and the exponents' denominator: the distances and den
    both divided by their gcd G.  That is the form poly.det reads off
    build_matrix, whose entries each reduce their own exponent.  Over all
    vertices G = 1: for each prime p of _den, the edge whose weight's
    denominator holds p's full power in _den has an integer weight, its
    endpoints' distance, prime to p."""
    g = math.gcd(den, *itertools.chain.from_iterable(dist))
    return [[{d // g: 1} for d in row] for row in dist], den // g


def _farris_maps(dist: list[list[int]]) -> tuple[list[list[dict[int, int]]], int, int]:
    """(maps, G, lift): the Farris transform of a distance block at its
    first point r, M_ij = u^{e_ij} with e_ij = (d(i, r) + d(j, r) - d_ij) / G
    and G the gcd of those sums, and lift = 2 sum_i d(i, r).

    (t^{d_ij}) = D M(t^{-G}) D with D = diag(t^{d(i, r)}), so its
    determinant is t^lift det M(t^{-G}).  On a tree each sum
    d(i, r) + d(j, r) - d_ij is twice the length that the paths from i and
    j to r share (twice their Gromov product at r), so G is even; M's row
    and column of r are all 1, and its exponents are at most
    2 max_i d(i, r) / G, no more than the largest distance.  The sums are
    all 0 only on the one-point block, where G is taken as 1 and M = (1)."""
    to_r = dist[0]
    farris = [[to_r[i] + to_r[j] - d for j, d in enumerate(row)] for i, row in enumerate(dist)]
    g = math.gcd(*itertools.chain.from_iterable(farris)) or 1
    return [[{e // g: 1} for e in row] for row in farris], g, 2 * sum(to_r)


def _half_power_maps(dist: list[list[int]]) -> tuple[list[list[dict[int, int]]], list[int]]:
    """(maps, parity): the matrix B_ij = u^((d_ij + p_i + p_j) / 2) over a
    block of integer distances, u = t^(2/_den) and p_i = d(x_i, x_0) mod 2
    for the block's first point x_0, as integer maps {e: 1}; and p.

    On a tree d_ij = d(x_i, x_0) + d(x_j, x_0) - 2 (the length that their
    paths to x_0 share), so d_ij + p_i + p_j is even.  B is (t^{d_ij}) under
    the congruence by diag(t^{p_i}), so det B[S] is the minor over S times
    u^(sum of p_i over S)."""
    parity = [d % 2 for d in dist[0]]
    return [
        [{(d + p + q) >> 1: 1} for d, q in zip(row, parity)] for row, p in zip(dist, parity)
    ], parity


def build_matrix(T: Tree, X: Sequence[int]) -> PolyMatrix:
    """The symmetric matrix (t^{d(x_i, x_j)}) over the listed vertices."""
    maps, den = _power_maps(*T._distance_ints(T.check_subset(X)))
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


def minor_formula_table(
    T: Tree, max_size: int, bits: int
) -> dict[tuple[int, ...], tuple[int, int]]:
    """minor_formula over every set of 1..max_size vertices, in one pass:
    each value at u = t^(2/T._den) = 2^bits, beside a bound on its 1-norm.

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

    The DP only adds and multiplies, and evaluation at 2^bits is a ring
    map, so it runs on Python ints: the edge term x = -t^{2w} = -u^W,
    W = w T._den the edge's integer weight, is -(1 << W bits), and a product
    by it multiplies first and shifts after, A x in = -((A in) << W bits),
    so no zero low digits are multiplied.  Beside each value it carries a
    bound on the 1-norm of the polynomial the value stands for, through the
    same operations (|pq| <= |p| |q|, |p +- q| <= |p| + |q|), so a fault in
    the DP's structure moves the bound too.  Where the bound is below
    2^(bits - 1), the value is that polynomial packed: equal to another
    such value exactly when the polynomials are equal, and
    poly._unpack_even reads it.
    """
    verts = T.vertices
    bit = {v: 1 << i for i, v in enumerate(verts)}
    parent = T._parent
    # mask -> (A, |A|, B, |B|) while a vertex merges its children, and
    # mask -> (out, |out|, in, |in|) once it passes them up
    up: dict[int, dict[int, tuple[int, int, int, int]]] = {}
    for v in reversed(parent):  # the walk lists each vertex after its parent
        vb = bit[v]
        state = {0: (1, 1, 0, 0), vb: (1, 1, 0, 0)}
        for c in T._adj[v]:
            if c == parent[v]:
                continue
            shift = T._int_weight[edge_key(v, c)] * bits
            merged = dict(state)  # child mask 0
            for cm, (out_c, n_out, in_c, n_in) in up.pop(c).items():
                if not cm:
                    continue
                s, n_s = out_c - (in_c << shift), n_out + n_in
                room = max_size - cm.bit_count()
                for pm, (a, n_a, b, n_b) in state.items():
                    if pm.bit_count() > room:
                        continue
                    if pm & vb:  # B is not kept for a vertex of X
                        merged[pm | cm] = (a * s, n_a * n_s, b, n_b)
                    else:
                        merged[pm | cm] = (
                            a * s, n_a * n_s, b * s - ((a * in_c) << shift), n_b * n_s + n_a * n_in
                        )
            state = merged
        up[v] = {
            m: (a, n_a, a, n_a) if m & vb else (a - b, n_a + n_b, -b, n_b)
            for m, (a, n_a, b, n_b) in state.items()
        }
    (root_out,) = up.values()
    table = {}
    for r in range(1, min(max_size, len(verts)) + 1):
        for key in itertools.combinations(verts, r):
            out, n_out, _, _ = root_out[sum(bit[x] for x in key)]
            table[key] = (out, n_out)
    return table


def _formula_norm_bound(T: Tree) -> int:
    """A bound on every 1-norm bound minor_formula_table carries, whatever
    X and max_size: the product over the vertices of max(2, 2 c + 1), c
    the vertex's children in the rooted walk.  With s = out + x in, the
    bound |s| = |out| + |in| of a vertex is 2 |A| in X and |A| + 2 |B|
    outside it, |A| is the product of its merged children's |s|, and
    |B| <= d |A| for d merged children, since each child's |in| <= |s|.  So
    |s| <= (2 d + 1) prod |s_c| outside X, a leaf of X has |s| = 2, and the
    root's |out| is at most its |s|.  It serves to choose bits; the carried
    bounds remain what decides."""
    children = collections.Counter(T._parent.values())
    return math.prod(max(2, 2 * children[v] + 1) for v in T.vertices)


def minor_leading_table(T: Tree, max_size: int) -> dict[tuple[int, ...], tuple[int, int]]:
    """minor_leading over every set of 1..max_size vertices, as ints: the
    top exponent over u = t^(2/T._den), the spanned weight times T._den,
    and the coefficient.  Keys are minor_table's, and each size is built
    from the one below in combinations order: the spanned edge mask of
    X + x is mask(X) | (P_x ^ P_{x_0}), P the root-path masks.  A vertex's
    degree in the spanned subtree is the popcount of its incident-edge mask
    within it.  Every leaf of the spanned subtree lies in X, so a vertex
    outside X has degree 2 there (factor 1) unless it has degree 3 or more
    in T, and the degree product runs over those."""
    P = T._root_paths
    incident = dict.fromkeys(T.vertices, 0)
    for v, p in T._parent.items():
        if p is not None:
            edge = P[v] ^ P[p]
            incident[v] |= edge
            incident[p] |= edge
    branch = [(v, incident[v]) for v in T.vertices if len(T._adj[v]) > 2]
    weight = T._weight_num
    table = {}
    span = {(): (0, 0)}  # key -> (spanned mask, its weight times T._den)
    for r in range(1, min(max_size, T.n) + 1):
        sign = 1 if r % 2 else -1
        level = {}
        for key in itertools.combinations(T.vertices, r):
            below, w = span[key[:-1]]
            mask = below | (P[key[-1]] ^ P[key[0]])
            w += weight(mask ^ below)  # the edges x adds
            level[key] = mask, w
            coeff = sign
            for v, edges in branch:
                d = (edges & mask).bit_count()
                if d > 2 and v not in key:
                    coeff *= d - 1
            table[key] = (w, coeff)
        span = level
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
    """Independent evaluation: the determinant of the actual matrix
    (t^{d_ij}), by poly's Bareiss walk on the integer maps of its Farris
    transform M at the most central point (_central_block, _farris_maps),
    rows and columns both in central-first order, and
    det (t^{d_ij}) = t^{2 sum_i d(x_i, r)} det M(t^{-G}).  The change of
    variable is a diagonal congruence and shares no code with the formula;
    M is symmetric, so the walk computes half of each step's block, and on
    packed ints whenever M is dense at _FARRIS_DENSE_BITS."""
    xs = T.check_subset(X)
    if not xs:
        raise ValueError("X must be nonempty")
    _, dist, den = _central_block(T, xs)
    maps, g, lift = _farris_maps(dist)
    det_m = _bareiss(_kernel(maps, len(maps), _FARRIS_DENSE_BITS))
    return ExactPoly._make(den, 1, {lift - g * k: c for k, c in det_m.items()})


def minor_table(T: Tree, max_size: int, bits: int) -> dict[tuple[int, ...], int]:
    """det (t^{d_ij}) over every set of 1..max_size vertices, each value at
    u = t^(2/T._den) = 2^bits, bits at least poly._word_bits of the maps
    (2^(bits - 1) above max_size!, which bounds every coefficient).

    Keys are the sets as sorted tuples, and each value packs
    minor_oracle(T, key) at u; the table is listed in the walk's order, not
    in combinations order.  One Sylvester walk (poly._sylvester) over the
    integer maps of B = diag(t^{p_i}) (t^{d_ij}) diag(t^{p_i}), whose
    exponents over u are whole (_half_power_maps), its rows in central-first
    order (_central_block) and p_i the parity of the distance to the first
    of them, gives them all: det B[S] is the minor over S times u^(sum of p_i
    over S), so each value is the walk's shifted right by bits times that
    sum, an exact shift, and re-keyed to its sorted tuple.  The walk runs on
    packed ints when the exponents are dense (unit weights, and the
    denominator 12 of random rational ones), and on the maps otherwise,
    each value packed once (poly._packed_values).  The table is
    complete: a principal minor over distinct vertices is a nonzero
    polynomial (minor_leading gives its top term), so the walk meets no zero
    pivot.  It keeps the distance powers, not minor_oracle's Farris
    transform: its packed ints are compared with the formula's.
    """
    order, dist, _ = _central_block(T, T.vertices)
    maps, parity = _half_power_maps(dist)
    odd = dict(zip(order, parity))
    table = _sylvester(_packed_values(maps, max_size, bits), order, max_size)
    return {
        tuple(sorted(key)): value >> bits * sum(map(odd.__getitem__, key))
        for key, value in table.items()
    }


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
