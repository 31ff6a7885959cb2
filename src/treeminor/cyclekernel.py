"""Cycle partitions of a vertex set, their tree supports, sign-cancelling
flips, and the bracket sums over abstract forests.

A cycle is a cyclically ordered tuple of distinct vertices, canonicalized
by rotating its smallest element to the front.  Rotations are identified,
reversals are NOT: (1,2,3) and (1,3,2) are different cycles.  Cycle
partitions of X therefore biject with permutations of X (each cycle read as
element -> successor), so there are exactly |X|! of them.

Summing sign(W) t^{||W||} over all cycle partitions reproduces the minor
over X; the support-preserving flips explain the cancellation down to the
tight ({0,2}-supported) partitions.  `cycle_table` gives both sums for
every subset up to a size from one subset DP over cycles, in packed
integers at u = t^(2/T._den) (a cycle partition's paths form closed walks,
so its exponent over t^(1/T._den) is even), each support packed into one
int from per-pair tables; it never lists the partitions.  `cycle_sums`
reads X's own entry of that DP over X, and `det_via_cycles` and
`det_via_tight_cycles` read one sum each.
`support` traces one partition's support through `path_edges` as an edge
dict, so it serves a `Tree` and a bracket `Forest` alike; the flips, the
brackets and the tests use it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Iterable, Iterator, Sequence

from .poly import ExactPoly, _unpack_even, _word_for
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
    cancel everything else, so the two agree.  Both are `cycle_table`'s
    entry for X itself, packed at u = t^(2/T._den) = 2^B with 2^(B - 1)
    above |X|!, which bounds every coefficient of either sum, and unpacked
    here with doubled exponents."""
    xs = T.check_subset(X)
    k = len(xs)
    if k > ENUMERATION_CAP:
        raise ValueError(f"|X| = {k} exceeds the enumeration cap {ENUMERATION_CAP}")
    if not k:  # the one empty partition
        return ExactPoly.one(), ExactPoly.one()
    elems = tuple(sorted(xs))
    bits = _word_for(math.factorial(k))
    sums = cycle_table(T, elems, k, bits)[elems]
    return tuple(ExactPoly._make(T._den, 1, _unpack_even(bits, v)) for v in sums)


def cycle_table(
    T: Tree, elems: Sequence[int], max_size: int, bits: int
) -> dict[tuple[int, ...], tuple[int, int]]:
    """(full, tight) cycle sums over every set of 1..max_size members of
    elems, each packed at u = t^(2/T._den) = 2^bits, from one subset DP.

    Keys are minor_table's when elems is sorted: the sets as tuples in
    combinations order.  A permutation of a set S splits into the cycle C
    through min(S) and a permutation of S \\ C, and its sign, t-exponent
    and support split with it.  So f(S) = sum over C of g(C) f(S \\ C), with
    f({}) = 1 and g(C) the sum of sign t^(norm) over the cycles with member
    set C (the cycle-cover expansion of the determinant; Mahajan and Vinay,
    1997).  The index c runs down from the last member.  The cycles through
    c over members above c are summed per member set, and then every such
    C joins every S' above c outside it, up to max_size members in all,
    whose f is complete.  Evaluation at 2^bits is a ring map, so the full
    sums are Python ints.  Every cycle through C has the sign
    (-1)^(|C| - 1), so g(C) is never 0; it is m 2^z with m odd, and each
    product g(C) f(S') is computed as (m f(S')) << z, which multiplies none
    of g(C)'s zero low digits.  The fixed point C = {c} has g(C) = 1 and
    the tight map {0: 1}, so it copies f(S') with no product.  Three
    per-pair tables serve the cycles:

    - D[i][j], the weight of the path between members i and j times
      T._den, read off its edge mask P_i ^ P_j (`Tree._path_mask`, P the
      root-path masks) by `Tree._weight_num`; it is not read from `T.dist`,
      so the sums share no code with `minor_oracle`;
    - E[i][j] = (D[i][j] - p_i + p_j) / 2, p_i = D[i][0] mod 2, the
      half-weights: p 2-colours the members by D mod 2, as it does on every
      tree (D[i][j] = D[i][0] + D[j][0] - 2 (their shared length)), so E is
      integral and a cycle's E sum is half its D sum, its exponent over u
      (the p terms cancel round it).  A path oracle whose D has no such
      colouring closes an odd walk, and raises ValueError;
    - P[i][j], that path's edges packed into one int, a 4-bit field per
      edge that any of the paths meets, with E[i][j] above the fields.

    A partition's support is the sum of its paths' entries of P, which
    carries its exponent on top, and the tight sum runs the same recurrence
    on maps {support: signed count}.  A field never shrinks, so a support
    with a field above 2 is dropped as soon as it appears: fields then stay
    below 5 and never carry.  A set's tight sum keeps the supports whose
    fields are all 0 or 2.  On a tree these are the partitions into tight
    cycles with disjoint supports, but not on every path oracle, so the
    test is made on the whole support.

    The full sums of a c are gathered by member set and last member before
    c, each set from the one without that member, which comes first in
    numeric order: about 2^m m^2 steps for m members above c, not m!.  The
    tight cycles are walked path by path with a stack, which keeps only the
    paths whose fields all stay at most 2.  The sets S' that a C joins are
    all subsets of the members above c outside C when they number at most
    room = max_size - |C|, and otherwise those of each size up to room."""
    k = len(elems)
    if max_size == 1:  # no pair tables (k^2 paths): a point's partition is itself
        return {(x,): (1, 1) for x in elems}
    paths = [[T._path_mask(a, b) for b in elems] for a in elems]
    met = reduce(or_, itertools.chain.from_iterable(paths), 0)
    field = {b: 4 * i for i, b in enumerate(_bits(met))}
    top = 4 * len(field)
    D = [[T._weight_num(m) for m in row] for row in paths]
    parity = [d & 1 for d in D[0]]
    if any((d + p + q) & 1 for row, p in zip(D, parity) for d, q in zip(row, parity)):
        raise ValueError("the paths close a walk of odd weight: the sums are not in t^(2/T._den)")
    E = [[(d - p + q) >> 1 for d, q in zip(row, parity)] for row, p in zip(D, parity)]
    P = [
        [(e << top) + sum(1 << field[b] for b in _bits(m)) for e, m in zip(erow, row)]
        for erow, row in zip(E, paths)
    ]
    ones = sum(1 << f for f in field.values())
    fours = ones << 2  # field + 1 reaches 4 exactly when the field passes 2
    shift = [[bits * e for e in row] for row in E]  # u^(E[i][j]) at 2^bits

    full = {0: 1}  # member mask -> packed full sum
    tight = {0: {0: 1}}  # member mask -> {support: signed count}
    for c in reversed(range(k)):
        first = 1 << c
        g: dict[int, int] = {}
        ends = {first: {c: 1}}  # C -> {last member: packed signed path sum}
        for size in range(1, max_size + 1):  # the sets of one size at a time
            longer: dict[int, dict[int, int]] = {}
            for C, by_last in ends.items():
                g[C] = sum(v << shift[last][c] for last, v in by_last.items())
                if size < max_size:
                    for j in range(c + 1, k):
                        if not C >> j & 1:
                            longer.setdefault(C | 1 << j, {})[j] = -sum(
                                v << shift[last][j] for last, v in by_last.items()
                            )
            ends = longer
        g_tight: dict[int, dict[int, int]] = {}
        stack = [(c, first, 0, 1)]  # open paths: last member, members, support, sign
        while stack:
            last, C, supp, sign = stack.pop()
            s = supp + P[last][c]
            if not (s + ones) & fours:
                at = g_tight.setdefault(C, {})
                at[s] = at.get(s, 0) + sign
            if C.bit_count() < max_size:
                for j in range(c + 1, k):
                    s = supp + P[last][j]
                    if not C >> j & 1 and not (s + ones) & fours:
                        stack.append((j, C | 1 << j, s, -sign))
        for C, value in g.items():
            z = (value & -value).bit_length() - 1
            odd = value >> z
            room = max_size - C.bit_count()
            free = [1 << j for j in range(c + 1, k) if not C >> j & 1]
            if len(free) <= room:  # every S' above c outside C
                subs = [0]
                for b in free:
                    subs += [sub | b for sub in subs]
            else:
                subs = [
                    sum(part) for r in range(room + 1) for part in itertools.combinations(free, r)
                ]
            if C == first:  # g's first set, the fixed point: no S holding c is filled yet
                for sub in subs:
                    full[first | sub] = full[sub]
                    below = tight.get(sub)
                    if below:
                        tight[first | sub] = dict(below)
                continue
            cycles = g_tight.get(C)
            for sub in subs:
                S = C | sub
                full[S] = full.get(S, 0) + (odd * full[sub] << z)
                below = tight.get(sub) if cycles else None
                if below:
                    at = tight.setdefault(S, {})
                    for s2, n2 in below.items():
                        for s1, n1 in cycles.items():
                            s = s1 + s2
                            if not (s + ones) & fours:
                                at[s] = at.get(s, 0) + n1 * n2
        del g, g_tight  # the cycles of c are in f now

    bit = {v: 1 << i for i, v in enumerate(elems)}
    table = {}
    for r in range(1, min(max_size, k) + 1):
        for key in itertools.combinations(elems, r):
            S = sum(bit[x] for x in key)
            supports = tight.get(S, {}).items()
            table[key] = full[S], sum(n << bits * (s >> top) for s, n in supports if not s & ones)
    return table


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
