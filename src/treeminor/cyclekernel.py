"""Cycle partitions of a vertex set, their tree supports, sign-cancelling
flips, and the bracket sums over abstract forests.

A cycle is a cyclically ordered tuple of distinct vertices, canonicalized
by rotating its smallest element to the front.  Rotations are identified,
reversals are NOT: (1,2,3) and (1,3,2) are different cycles.  Cycle
partitions of X therefore biject with permutations of X (each cycle read as
element -> successor), so there are exactly |X|! of them.

Summing sign(W) t^{||W||} over all cycle partitions reproduces the minor
over X; the support-preserving flips explain the cancellation down to the
tight ({0,2}-supported) partitions.  `cycle_sums` returns both sums from
one integer walk over the permutations, each support packed into one int
from per-pair tables; `det_via_cycles` and `det_via_tight_cycles` read one
of them each.  `support` traces one partition's support through
`path_edges` as an edge dict, so it serves a `Tree` and a bracket `Forest`
alike; the flips, the brackets and the tests use it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Iterable, Iterator, Sequence

from .poly import ExactPoly
from .tree import Edge, Tree, _bits, edge_key

Cycle = tuple[int, ...]
CyclePartition = frozenset[Cycle]

ENUMERATION_CAP = 7  # |X|! partitions; cycle_partitions refuses anything bigger


def canonical_cycle(seq: Sequence[int]) -> Cycle:
    """Rotate the smallest element first (rotation-invariant canonical form)."""
    if len(set(seq)) != len(seq) or not seq:
        raise ValueError(f"a cycle needs distinct vertices, got {seq}")
    i = min(range(len(seq)), key=seq.__getitem__)
    return tuple(seq[i:]) + tuple(seq[:i])


def cycle_pairs(c: Cycle) -> Iterator[tuple[int, int]]:
    """Consecutive pairs around the cycle, (v, successor)."""
    k = len(c)
    for i in range(k):
        yield c[i], c[(i + 1) % k]


def cycle_partitions(X: Iterable[int]) -> Iterator[CyclePartition]:
    """All cycle partitions of X, each exactly once (|X|! of them).

    Every permutation sigma of X yields the partition of its cycles, each
    cycle read as v -> sigma(v); distinct permutations give distinct
    partitions.  More than ENUMERATION_CAP elements raise ValueError.
    """
    elems = sorted(set(X))
    k = len(elems)
    if k > ENUMERATION_CAP:
        raise ValueError(f"|X| = {k} exceeds the enumeration cap {ENUMERATION_CAP}")
    for perm in itertools.permutations(range(k)):
        cycles = []
        seen = [False] * k
        for i in range(k):
            if seen[i]:
                continue
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(elems[j])
                j = perm[j]
            cycles.append(canonical_cycle(cyc))
        yield frozenset(cycles)


def partition_sign(W: CyclePartition) -> int:
    """prod over cycles of (-1)^(length+1)."""
    s = 1
    for c in W:
        if len(c) % 2 == 0:
            s = -s
    return s


def support(T: Tree | Forest, W: CyclePartition) -> dict[Edge, int]:
    """Edge multiset traced by all consecutive-pair paths; always even."""
    supp: dict[Edge, int] = {}
    for c in W:
        for a, b in cycle_pairs(c):
            if a == b:
                continue
            for e in T.path_edges(a, b):
                supp[e] = supp.get(e, 0) + 1
    return supp


def support_norm(T: Tree, supp: dict[Edge, int]) -> Fraction:
    return sum((T.weight(e) * m for e, m in supp.items()), Fraction(0))


def is_tight(supp: dict[Edge, int]) -> bool:
    return all(m == 2 for m in supp.values())


def cycle_sums(T: Tree, X: Iterable[int]) -> tuple[ExactPoly, ExactPoly]:
    """Minor over X as the signed sum over all cycle partitions, and the
    same sum restricted to tight ({0,2}-supported) partitions; the flips
    cancel everything else, so the two agree.

    One depth-first walk over the successor choices sigma(x_0),
    sigma(x_1), ... of a permutation of X = {x_0 < x_1 < ...} visits every
    partition once, in integers only.  Two k x k tables serve it:

    - D[i][j], the weight of the x_i-x_j path times T._den, read off its
      edge mask P_{x_i} ^ P_{x_j} (`Tree._path_mask`, P the root-path
      masks) by `Tree._weight_num`; it is not read from `T.dist`, so the
      sums share no code with `minor_oracle`;
    - P[i][j], that path's edges packed into one int, a 4-bit field per
      edge that any of the paths meets.

    A partition's support is the sum of its k entries of P.  Each path
    meets an edge at most once, so a field holds at most
    k <= ENUMERATION_CAP < 16 and never carries into the next one.  Every
    field of a complete support is even, so the partition is tight exactly
    when no bit outside TWO (2 in every field) is set.  The sign, which is
    `partition_sign`, is the permutation's parity: choosing sigma(x_i) = x_j
    adds one inversion per value above j already taken."""
    xs = T.check_subset(X)
    k = len(xs)
    if k > ENUMERATION_CAP:
        raise ValueError(f"|X| = {k} exceeds the enumeration cap {ENUMERATION_CAP}")
    elems = sorted(xs)
    paths = [[T._path_mask(a, b) for b in elems] for a in elems]
    met = reduce(or_, itertools.chain.from_iterable(paths), 0)
    field = {b: 4 * i for i, b in enumerate(_bits(met))}
    D = [[T._weight_num(m) for m in row] for row in paths]
    P = [[sum(1 << field[b] for b in _bits(m)) for m in row] for row in paths]
    not_two = ~sum(2 << f for f in field.values())
    full: dict[int, int] = {}
    tight: dict[int, int] = {}
    last = k - 1

    def walk(i: int, used: int, norm: int, supp: int, odd: int) -> None:
        Di, Pi = D[i], P[i]
        if i == last:  # one value is left, and every value above it is taken
            j = (~used & (used + 1)).bit_length() - 1
            norm += Di[j]
            s = -1 if odd ^ ((last - j) & 1) else 1
            full[norm] = full.get(norm, 0) + s
            if not (supp + Pi[j]) & not_two:
                tight[norm] = tight.get(norm, 0) + s
            return
        for j in range(k):
            bit = 1 << j
            if not used & bit:
                above = (used >> j).bit_count() & 1
                walk(i + 1, used | bit, norm + Di[j], supp + Pi[j], odd ^ above)

    if k:
        walk(0, 0, 0, 0, 0)
    else:  # the one empty partition
        full[0] = tight[0] = 1
    del walk  # break the closure's cycle through itself: D and P go on return
    return (
        ExactPoly._make(T._den, 1, {n: c for n, c in full.items() if c}),
        ExactPoly._make(T._den, 1, {n: c for n, c in tight.items() if c}),
    )


def det_via_cycles(T: Tree, X: Iterable[int]) -> ExactPoly:
    """Minor over X as the full signed sum over cycle partitions."""
    return cycle_sums(T, X)[0]


def det_via_tight_cycles(T: Tree, X: Iterable[int]) -> ExactPoly:
    """Same sum restricted to tight partitions."""
    return cycle_sums(T, X)[1]


# ---------------------------------------------------------------------------
# flips


def crossings(T: Tree, W: CyclePartition, e: Edge) -> dict[str, list[tuple[Cycle, int]]]:
    """Crossing instances of edge e = (x, y), grouped by direction.

    An instance is (cycle, i) where the path from cycle[i] to its successor
    uses e; direction 'xy' means the walk goes from the x-side to the
    y-side.  Each list is sorted for deterministic choice indexing.
    """
    x, y = e = edge_key(*e)
    out: dict[str, list[tuple[Cycle, int]]] = {"xy": [], "yx": []}
    for c in sorted(W):
        k = len(c)
        for i in range(k):
            a, b = c[i], c[(i + 1) % k]
            if e in T.path_edges(a, b):
                # a path through e starts on the side of the nearer endpoint
                out["xy" if T.dist(a, x) < T.dist(a, y) else "yx"].append((c, i))
    return out


def all_flips(T: Tree, W: CyclePartition, e: Edge) -> list[tuple[str, int, int]]:
    """Every flip choice at e: a direction plus two same-direction crossing
    instances.  Empty unless the support of e is at least 4."""
    cr = crossings(T, W, e)
    choices = []
    for d in ("xy", "yx"):
        m = len(cr[d])
        for i, j in itertools.combinations(range(m), 2):
            choices.append((d, i, j))
    return choices


def flip(T: Tree, W: CyclePartition, e: Edge, choice: tuple[str, int, int]) -> CyclePartition:
    """Merge two cycles crossing e the same way, or split one cycle crossing
    it twice the same way.  Preserves every edge's support and reverses the
    partition sign."""
    d, i, j = choice
    cr = crossings(T, W, e)[d]
    if not (0 <= i < j < len(cr)):
        raise ValueError(f"bad flip choice {choice}: {len(cr)} crossings in direction {d}")
    (c1, i1), (c2, i2) = cr[i], cr[j]
    new = set(W)
    if c1 != c2:
        # merge: start each cycle right after its crossing, then concatenate
        r1 = c1[i1 + 1:] + c1[:i1 + 1]
        r2 = c2[i2 + 1:] + c2[:i2 + 1]
        new.discard(c1)
        new.discard(c2)
        new.add(canonical_cycle(r1 + r2))
    else:
        # split between the two crossings (i1 < i2 within the same tuple)
        p1, p2 = sorted((i1, i2))
        part1 = c1[p1 + 1: p2 + 1]
        part2 = c1[p2 + 1:] + c1[:p1 + 1]
        new.discard(c1)
        new.add(canonical_cycle(part1))
        new.add(canonical_cycle(part2))
    return frozenset(new)


# ---------------------------------------------------------------------------
# brackets over abstract forests


class Forest:
    """A plain unweighted forest on nonnegative integer vertices (no
    tree-of-origin needed); used for the bracket sums.  Degrees and paths
    are read off one unit-weight `Tree` per component."""

    def __init__(self, vertices: Iterable[int], edges: Iterable[Edge]):
        self.vertices = frozenset(vertices)
        es = set()
        parent = {v: v for v in self.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in edges:
            u, v = e
            if u == v or u not in self.vertices or v not in self.vertices:
                raise ValueError(f"bad edge {e}")
            k = edge_key(u, v)
            if k in es:
                raise ValueError(f"duplicate edge {k}")
            ru, rv = find(u), find(v)
            if ru == rv:
                raise ValueError(f"edge {k} closes a cycle; not a forest")
            parent[ru] = rv
            es.add(k)
        self.edges = frozenset(es)
        groups: dict[int, set[int]] = {}
        for v in self.vertices:
            groups.setdefault(find(v), set()).add(v)
        self.components = tuple(sorted((frozenset(g) for g in groups.values()), key=min))
        self._tree_of: dict[int, Tree] = {}
        for comp in self.components:
            tree = Tree([e for e in es if e[0] in comp], vertices=comp)
            for v in comp:
                self._tree_of[v] = tree

    def degree(self, v: int) -> int:
        return self._tree_of[v].degree(v)

    def path_edges(self, a: int, b: int) -> frozenset[Edge]:
        """Edges of the unique a-b path; error if disconnected."""
        tree = self._tree_of[a]
        if not tree.has_vertex(b):
            raise ValueError(f"{a} and {b} are in different components")
        return tree.path_edges(a, b)

    def is_spanned_by(self, X: frozenset[int]) -> bool:
        """Every degree-<=1 vertex (leaves and isolated points) lies in X."""
        return X <= self.vertices and all(
            v in X for v in self.vertices if self.degree(v) <= 1
        )


def split_edge(forest: Forest, e: Edge) -> tuple[Forest, int, int]:
    """Replace edge (x, y) by (x, y') and (x', y) with two fresh vertices;
    returns the new forest along with x', y'."""
    x, y = edge_key(*e)
    if e not in forest.edges:
        raise ValueError(f"{e} is not a forest edge")
    fresh = max(forest.vertices) + 1
    x2, y2 = fresh, fresh + 1
    edges = (forest.edges - {e}) | {edge_key(x, y2), edge_key(x2, y)}
    return Forest(forest.vertices | {x2, y2}, edges), x2, y2


def bracket_enum(forest: Forest, X: Iterable[int]) -> int:
    """Sum of partition signs over cycle partitions of X whose cycles stay
    inside single components of the forest and whose paths trace every
    forest edge exactly twice."""
    xs = frozenset(X)
    if not forest.is_spanned_by(xs):
        raise ValueError("forest is not spanned by X (some leaf is outside X)")
    total = 1
    for comp in forest.components:
        xc = sorted(xs & comp)
        comp_edges = {e for e in forest.edges if e[0] in comp}
        if not xc:
            if comp_edges:
                return 0
            continue
        factor = 0
        for W in cycle_partitions(xc):
            counts = support(forest, W)
            if all(counts.get(e, 0) == 2 for e in comp_edges):
                factor += partition_sign(W)
        total *= factor
        if total == 0:
            return 0
    return total


def bracket_closed(forest: Forest, X: Iterable[int]) -> int:
    """(-1)^(|X| + #components) times prod over non-X vertices of (deg-1)."""
    xs = frozenset(X)
    if not forest.is_spanned_by(xs):
        raise ValueError("forest is not spanned by X (some leaf is outside X)")
    prod = 1
    for v in forest.vertices - xs:
        prod *= forest.degree(v) - 1
    if (len(xs) + len(forest.components)) % 2:
        prod = -prod
    return prod
