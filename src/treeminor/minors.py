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
from the most central point out (_central_block), and run poly's walks on
the whole exponents it gives directly: minor_oracle hands them to
poly._monomial_kernel, which packs them, or builds integer maps from them
only where the maps are walked, and minor_table builds the maps it hands
to poly._packed_values.  Both walk the same congruent form of the distance
powers (_half_powers):
B = diag(t^{p_i}) (t^{d_ij}) diag(t^{p_i}), p_i the parity of the integer
distance to the block's first point, whose exponents are whole over
u = t^(2/T._den), and det B[S] is the minor over S times u^(sum of p_i
over S).  build_matrix is the PolyMatrix view of the plain distance powers
(_power_maps), which poly.det reads.

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
    _TREE_DENSE_BITS,
    _Shifted,
    _bareiss,
    _dense,
    _monomial_kernel,
    _packed_values,
    _sylvester,
    _unpack_even,
    _word_for,
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


def _half_powers(dist: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """(rows, parity): the exponents e_ij = (d_ij + p_i + p_j) / 2 of the
    matrix B_ij = u^(e_ij) over a block of integer distances, u = t^(2/_den)
    and p_i = d(x_i, x_0) mod 2 for the block's first point x_0; and p.

    On a tree d_ij = d(x_i, x_0) + d(x_j, x_0) - 2 (the length that their
    paths to x_0 share), so d_ij + p_i + p_j is even.  B is (t^{d_ij}) under
    the congruence by diag(t^{p_i}), so det B[S] is the minor over S times
    u^(sum of p_i over S).  A block where some d_ij + p_i + p_j is odd has
    no such 2-colouring (its distances close a walk of odd weight), and
    raises ValueError."""
    parity = [d & 1 for d in dist[0]]
    sums = [[d + p + q for d, q in zip(row, parity)] for row, p in zip(dist, parity)]
    if any(e & 1 for row in sums for e in row):
        raise ValueError("the distances close a walk of odd weight: the minors are not in t^(2/_den)")
    return [[e >> 1 for e in row] for row in sums], parity


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
    member of X passes (1, 0) and is skipped, and the top of the spanned
    subtree gives the answer (a root above it would pass it on unchanged).
    Each vertex v returns (parent edge out, parent edge in), built from A,
    the sum over its child subtrees, and B, the same sum weighted by the
    number of chosen child edges: (A, A) if v is in X, else (A - B, -B).  A
    child edge of weight w, with x = -t^{2w} and s = out + x in, updates
    B <- B s + A x in and A <- A s.

    Every exponent is even over t^(1/T._den), so the packed form runs over
    u = t^(2/T._den), where x = -u^W, W = w T._den the edge's integer
    weight.  _forest_merges lists the merges and carries 1-norm bounds
    through them; _forest_values runs them once, on ints packed at
    u = 2^B, for the B that puts 2^(B - 1) above the bound carried to the
    top, or on integer maps over t^(1/T._den) (poly._Shifted), where
    x = -t^(2W).  B comes from the DP's own bound, not from the
    |X|^(|X|/2) that bounds the determinant's coefficients, so a fault in
    the DP's structure moves B with it; that bound carries a pass-through
    vertex (outside X, one merged child) exactly.  The ints are chosen when
    poly._dense holds at _TREE_DENSE_BITS on the spanned edges' weights as
    one row of monomials {W: 1}, at the word of minor_formula_table's
    carried bound, which grows at a pass-through too: the width the
    threshold was measured at.  A packed value grows with the weights
    times B, a map with its terms.
    """
    xs = T.check_subset(X)
    if not xs:
        raise ValueError("X must be nonempty")
    merges, bound, judged = _forest_merges(T, xs)
    bits = _word_for(bound)
    weights = [{w: 1} for _, _, children in merges for _, w in children]
    if _dense([weights], _word_for(judged), _TREE_DENSE_BITS):
        terms = _unpack_even(bits, _forest_values(merges, 1, bits))
    else:
        terms = _forest_values(merges, _Shifted({0: 1}), 2)
    return ExactPoly._make(T._den, 1, terms)


def _forest_merges(T: Tree, xs: Sequence[int]) -> tuple[list, int, int]:
    """(merges, bound, judged): minor_formula's DP over X = xs as a list of
    (v, v in X, [(c, W) for each child c whose branch holds a member of X,
    W the edge's integer weight]), children before parents, up to the top
    of the spanned subtree, and two bounds on the 1-norm of the value
    there.

    Both run the DP on 1-norm bounds: |s| = |out| + |in|, |A s| <= |A| |s|,
    |B s + A x in| <= |B| |s| + |A| |in|, and (A, A) or (A - B, -B) close
    to (|A|, |A|) or (|A| + |B|, |B|).  judged is minor_formula_table's
    bound, which closes every vertex so.  bound closes a pass-through, a
    vertex outside X with one merged child c, exactly: there A = s and
    B = x in_c, so it passes (out_c, -x in_c) up, and x is a monomial of
    coefficient -1, so it carries (|out_c|, |in_c|) in place of
    (|out_c| + 2 |in_c|, |in_c|).  Every step is monotone in the bounds it
    reads, so bound <= judged <= _formula_norm_bound(T)."""
    in_x = frozenset(xs)
    left = len(in_x)
    # the branches holding a member of X: (|out|, |in|) as bound carries
    # them, then as judged does
    norms: dict[int, tuple[int, int, int, int]] = {}
    merges = []
    for v in reversed(T._parent):  # the walk lists each vertex after its parent
        in_v = v in in_x
        children = []
        n_a = t_a = 1
        n_b = t_b = 0
        for c in T._adj[v]:
            if c in norms:  # a child: the parent comes later in reversed order
                n_out, n_in, t_out, t_in = norms.pop(c)
                n_s, t_s = n_out + n_in, t_out + t_in
                if not in_v:
                    n_b = n_b * n_s + n_a * n_in
                    t_b = t_b * t_s + t_a * t_in
                n_a *= n_s
                t_a *= t_s
                children.append((c, T._int_weight[edge_key(v, c)]))
        if in_v or children:
            if in_v:
                norms[v] = (n_a, n_a, t_a, t_a)
            elif len(children) == 1:  # a pass-through
                norms[v] = (n_out, n_in, t_a + t_b, t_b)
            else:
                norms[v] = (n_a + n_b, n_b, t_a + t_b, t_b)
            merges.append((v, in_v, children))
            left -= in_v
            if not left and len(norms) == 1:  # v is the top: every branch met
                break
    bound, _, judged, _ = norms[v]
    return merges, bound, judged


def _forest_values(merges: list, unit, scale: int):
    """The out value of the last vertex of merges (_forest_merges), by
    minor_formula's DP on the form of unit: ints at u = 2^scale (unit 1),
    where u^W shifts by W scale bits, or integer maps (unit {0: 1}), where
    it adds W scale to every exponent: over t^(1/T._den) at scale 2.  A
    vertex starts from A = 1 and B = 0, so its first child sets A = s and
    B = x in, with no product.  Every later product by a shifted factor
    multiplies first and shifts after, so no zero low digits are
    multiplied."""
    up = {}
    for v, in_v, children in merges:
        a = unit
        for i, (c, w) in enumerate(children):
            out_c, in_c = up.pop(c)
            shift = w * scale
            u_in = in_c << shift  # u^W in = -x in
            s = out_c - u_in
            if not i:
                a, b = s, -u_in
                continue
            if not in_v:  # B is not kept for a vertex of X
                b = b * s - ((a * in_c) << shift)
            a = a * s
        up[v] = (a, a) if in_v else (a - b, -b)
    return up[v][0]


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
    edges = T._edges_of(T._spanned_mask(xs))
    coeff = Fraction(forest_degree_product(edges, frozenset(xs)))
    if len(xs) % 2 == 0:
        coeff = -coeff
    return Fraction(2 * sum(map(T._int_weight.__getitem__, edges)), T._den), coeff


def minor_oracle(T: Tree, X: Sequence[int]) -> ExactPoly:
    """Independent evaluation: the determinant of the actual matrix
    (t^{d_ij}), by poly's Bareiss walk on its congruent form
    B = diag(t^{p_i}) (t^{d_ij}) diag(t^{p_i}), read as the whole
    exponents of u (_half_powers), rows and columns both in central-first
    order (_central_block).  det B = minor times u^H over u = t^(2/T._den),
    H = sum_i p_i, so each exponent k of det B reads back as 2 (k - H) over
    t^(1/T._den).  The congruence is diagonal and shares no code with the
    formula; B is symmetric, so the walk computes half of each step's
    block, and on packed ints whenever B is dense at _TREE_DENSE_BITS.
    B's entries are monomials of coefficient 1, so poly._monomial_kernel
    makes poly._kernel's choice at that threshold from the exponents
    alone: judged at the word of |X|!, packed at that of Hadamard's bound
    |X|^(|X|/2), each entry 1 << B e_ij, and the maps {e_ij: 1} built only
    when they are walked."""
    xs = T.check_subset(X)
    if not xs:
        raise ValueError("X must be nonempty")
    _, dist, den = _central_block(T, xs)
    rows, parity = _half_powers(dist)
    lift = sum(parity)
    det_b = _bareiss(_monomial_kernel(rows))
    return ExactPoly._make(den, 1, {2 * (k - lift): c for k, c in det_b.items()})


def minor_table(T: Tree, max_size: int, bits: int) -> dict[tuple[int, ...], int]:
    """det (t^{d_ij}) over every set of 1..max_size vertices, each value at
    u = t^(2/T._den) = 2^bits, bits at least poly._word_bits of the maps
    (2^(bits - 1) above Hadamard's max_size^(max_size/2), which bounds
    every coefficient; the sweeps pass the word above max_size!).

    Keys are the sets as sorted tuples, and each value packs
    minor_oracle(T, key) at u; the table is listed in the walk's order, not
    in combinations order.  One Sylvester walk (poly._sylvester) over the
    integer maps of B = diag(t^{p_i}) (t^{d_ij}) diag(t^{p_i}), whose
    exponents over u are whole (_half_powers), its rows in central-first
    order (_central_block) and p_i the parity of the distance to the first
    of them, gives them all: det B[S] is the minor over S times u^(sum of p_i
    over S), so each value is the walk's shifted right by bits times that
    sum, an exact shift, and re-keyed to its sorted tuple.  The walk runs on
    packed ints when the exponents are dense (unit weights, and the
    denominator 12 of random rational ones), and on the maps otherwise,
    each value packed once (poly._packed_values).  The table is
    complete: a principal minor over distinct vertices is a nonzero
    polynomial (minor_leading gives its top term), so the walk meets no zero
    pivot.  It walks the form minor_oracle walks, and the shift back packs
    each value as minor_formula_table does, so the two tables compare as
    ints.
    """
    order, dist, _ = _central_block(T, T.vertices)
    rows, parity = _half_powers(dist)
    maps = [[{e: 1} for e in row] for row in rows]
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
