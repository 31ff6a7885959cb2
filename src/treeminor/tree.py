"""Weighted trees on integer-labeled vertices and the path/parity
combinatorics the matrix formulas are built from.

Vertices are distinct nonnegative integers (generated trees use 1..n; a
designated root such as 0 is just another label).  Edge weights are positive
rationals.  Trees are immutable after construction; distances are cached.
Paths are not: every path and parity answer reads P_v, the bitmask of the
edges on v's path to the root (P_i ^ P_j is the i-j path, the XOR of P_x
over X the odd-splitting edges).  Bit b is the edge above the (b + 1)-th
smallest label; each vertex's mask is built on its first use, in O(depth +
n/8), and takes up to n/8 bytes, so a query reads only the masks it needs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property, reduce
from math import lcm
from operator import or_, xor
from typing import Iterable, Sequence

from .poly import _as_fraction

Edge = tuple[int, int]


class TreeFormatError(ValueError):
    """Malformed tree description; carries the offending 1-based line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def edge_key(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _bits(mask: int):
    """The indices of the set bits of mask, lowest first, 64 bits a shift."""
    base = 0
    while mask:
        word = mask & 0xFFFFFFFFFFFFFFFF
        while word:
            low = word & -word
            yield base + low.bit_length() - 1
            word ^= low
        mask >>= 64
        base += 64


class _RootPaths(dict):
    """v -> P_v for one tree, built on first use by climbing from v to the
    nearest vertex whose mask is known (the root's, 0).  Bit b is the edge
    edge[b] above the (b + 1)-th smallest label, of weight weight[b] /
    T._den."""

    def __init__(self, T: "Tree"):
        root, *below = T._verts
        super().__init__({root: 0})
        self._up = T._parent
        self._bit = {v: b for b, v in enumerate(below)}
        self.edge = [edge_key(v, T._parent[v]) for v in below]
        self.weight = [T._int_weight[e] for e in self.edge]

    @cached_property
    def byte_weights(self) -> list[list[int]]:
        """[i][x]: the weight of the edges that byte value x marks in byte i
        of a mask, times T._den; built on the first weight read."""
        table = []
        for i in range(0, len(self.weight), 8):
            sums = [0]  # sums[x] for x below 2^j after the byte's first j edges
            for w in self.weight[i:i + 8]:
                sums += [s + w for s in sums]
            table.append(sums)
        return table

    def __missing__(self, v: int) -> int:
        buf = bytearray(len(self._bit) // 8 + 1)
        x = v
        while x not in self:
            b = self._bit[x]
            buf[b >> 3] |= 1 << (b & 7)
            x = self._up[x]
        mask = self[v] = self[x] | int.from_bytes(buf, "little")
        return mask


class Tree:
    def __init__(self, edges: Iterable, vertices: Iterable[int] | None = None):
        weighted: dict[Edge, Fraction] = {}
        adj: dict[int, list[int]] = {}
        for e in edges:
            if len(e) == 2:
                u, v = e
                w = Fraction(1)
            else:
                u, v, w = e
                w = Fraction(w)
            if not (isinstance(u, int) and isinstance(v, int)) or u < 0 or v < 0:
                raise ValueError(f"vertex labels must be nonnegative integers: {e}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if w <= 0:
                raise ValueError(f"edge weight must be positive: {e}")
            k = edge_key(u, v)
            if k in weighted:
                raise ValueError(f"duplicate edge {k}")
            weighted[k] = w
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        if vertices is not None:
            verts = sorted(set(vertices))
            if any(not isinstance(v, int) or v < 0 for v in verts):
                raise ValueError("vertex labels must be nonnegative integers")
            extra = set(adj) - set(verts)
            if extra:
                raise ValueError(f"edge endpoints {sorted(extra)} not in vertex set")
        else:
            verts = sorted(adj)
        if not verts:
            raise ValueError("a tree needs at least one vertex")
        if len(weighted) != len(verts) - 1:
            raise ValueError(
                f"{len(verts)} vertices need {len(verts) - 1} edges, got {len(weighted)}"
            )
        self._weights = weighted
        # every exponent the matrices and the forest expansion use is a sum
        # of weights, so one integer form serves both: weight = int / _den
        self._den = lcm(*(w.denominator for w in weighted.values()))
        self._int_weight = {
            e: w.numerator * (self._den // w.denominator) for e, w in weighted.items()
        }
        self._adj = {v: tuple(sorted(adj.get(v, ()))) for v in verts}
        self._verts = tuple(verts)
        self._vert_set = frozenset(verts)
        # the rooted walk the root-path masks are built from; it also checks
        # connectivity (and with the edge count, acyclicity)
        root = verts[0]
        parent: dict[int, int | None] = {root: None}
        stack = [root]
        while stack:
            x = stack.pop()
            for y in self._adj[x]:
                if y not in parent:
                    parent[y] = x
                    stack.append(y)
        if len(parent) != len(verts):
            raise ValueError("edges do not form a connected tree")
        self._parent = parent
        self._dist_cache: dict[int, dict[int, int]] = {}

    # -- basic structure ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._verts)

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._verts

    def edges(self) -> list[tuple[int, int, Fraction]]:
        return [(u, v, w) for (u, v), w in sorted(self._weights.items())]

    def has_vertex(self, v: int) -> bool:
        return v in self._vert_set

    def weight(self, e: Edge) -> Fraction:
        return self._weights[edge_key(*e)]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v in self._verts if len(self._adj[v]) <= 1)

    def check_subset(self, X: Iterable[int]) -> tuple[int, ...]:
        xs = tuple(X)
        if len(set(xs)) != len(xs):
            raise ValueError(f"repeated vertices in {xs}")
        missing = [x for x in xs if x not in self._vert_set]
        if missing:
            raise ValueError(f"vertices {missing} are not in the tree")
        return xs

    # -- paths and distances -------------------------------------------------

    def dist(self, i: int, j: int) -> Fraction:
        return Fraction(self._single_source(i)[j], self._den)

    def _single_source(self, src: int) -> dict[int, int]:
        """The distances from src, as integers over _den (cached)."""
        out = self._dist_cache.get(src)
        if out is not None:
            return out
        if src not in self._vert_set:
            raise ValueError(f"vertex {src} is not in the tree")
        out = {src: 0}
        stack = [src]
        while stack:
            x = stack.pop()
            for y in self._adj[x]:
                if y not in out:
                    out[y] = out[x] + self._int_weight[edge_key(x, y)]
                    stack.append(y)
        self._dist_cache[src] = out
        return out

    def _distance_ints(self, order: Sequence[int]) -> tuple[list[list[int]], int]:
        """(rows, _den): the distances between the listed vertices, row a
        column b the a-b distance times _den.  order is not checked: a
        repeated vertex repeats its row, and a missing one raises."""
        rows = [self._single_source(a) for a in order]
        return [[row[b] for b in order] for row in rows], self._den

    def path_edges(self, i: int, j: int) -> frozenset[Edge]:
        """Edges on the unique i-j path (empty when i = j)."""
        self.check_subset({i, j})
        return self._edges_of(self._path_mask(i, j))

    def _path_mask(self, i: int, j: int) -> int:
        """The edge mask of the i-j path, P_i ^ P_j (unchecked)."""
        P = self._root_paths
        return P[i] ^ P[j]

    @cached_property
    def _root_paths(self) -> _RootPaths:
        return _RootPaths(self)

    def _edges_of(self, mask: int) -> frozenset[Edge]:
        edge = self._root_paths.edge
        return frozenset(edge[b] for b in _bits(mask))

    def _weight_num(self, mask: int) -> int:
        """The total weight of mask's edges times _den, a byte at a time."""
        table = self._root_paths.byte_weights
        return sum(map(list.__getitem__, table, mask.to_bytes(len(table), "little")))

    def _weight_of(self, mask: int) -> Fraction:
        return Fraction(self._weight_num(mask), self._den)

    def _spanned_mask(self, xs: tuple[int, ...]) -> int:
        P = self._root_paths
        return reduce(or_, (P[x] ^ P[xs[0]] for x in xs), 0)

    def _odd_mask(self, xs: tuple[int, ...]) -> int:
        P = self._root_paths
        return 0 if len(xs) % 2 else reduce(xor, (P[x] for x in xs), 0)

    # -- spanned subtrees ------------------------------------------------------

    def spanned_subtree(self, X: Iterable[int]) -> tuple[frozenset[int], frozenset[Edge]]:
        """(vertices, edges) of the smallest subtree containing X."""
        xs = self.check_subset(X)
        edges = self._edges_of(self._spanned_mask(xs))
        return frozenset(xs).union(*edges), edges

    def spanned_weight(self, X: Iterable[int]) -> Fraction:
        """Total weight of the smallest subtree containing X."""
        return self._weight_of(self._spanned_mask(self.check_subset(X)))

    def odd_edges(self, X: Iterable[int]) -> frozenset[Edge]:
        """Edges whose removal splits X into two odd halves.

        An edge lies on P_x exactly when x is on its far side from the root,
        so the XOR of the P_x marks the edges with an odd part of X there.
        Empty whenever |X| is odd (the halves sum to |X|), and in particular
        for |X| <= 1.
        """
        return self._edges_of(self._odd_mask(self.check_subset(X)))

    def odd_weight(self, X: Iterable[int]) -> Fraction:
        """Total weight of the edges splitting X oddly."""
        return self._weight_of(self._odd_mask(self.check_subset(X)))

    # -- orderings ---------------------------------------------------------------

    def is_nicely_ordered(self, X: Sequence[int]) -> tuple[bool, dict[Edge, int]]:
        """Whether the cyclic tour x1 -> x2 -> ... -> x1 uses no edge more
        than twice; also returns the per-edge traversal counts."""
        xs = self.check_subset(X)
        P = self._root_paths
        counts: dict[int, int] = {}  # bit -> steps of the tour over its edge
        for a in range(len(xs)):
            for b in _bits(P[xs[a]] ^ P[xs[(a + 1) % len(xs)]]):
                counts[b] = counts.get(b, 0) + 1
        return all(c <= 2 for c in counts.values()), {P.edge[b]: c for b, c in counts.items()}

    def tour_table(self, order: Sequence[int]) -> dict[tuple[int, ...], tuple[int, bool]]:
        """For every sub-tuple of order of even size, in increasing order of
        the bitmask of its positions in order: the XOR of its root-path
        masks (its odd-splitting edges) and whether it is nicely ordered.

        A cyclic tour crosses every edge of the spanned subtree E_S an even
        number of times, and at least twice, and no other edge.  So S is
        nicely ordered iff the tour's length, the sum of the hops
        hop(a, b) = popcount(P_a ^ P_b) between cyclic neighbours, is
        2 |E_S|.  A nonempty even sub-tuple is a shorter even one, R, from f
        to l, followed by its last two members a < b: its XOR adds the a-b
        path P_a ^ P_b, its spanned mask the l-a and a-b paths, and its
        open tour hop(l, a) + hop(a, b), closed by hop(b, f).  So each entry
        costs O(1) mask operations, and no odd sub-tuple is built.  Taken by
        b, then a, then R (the 2^(a - 1) - 1 nonempty even sub-tuples below
        position a, the first ones listed), the sub-tuples come in
        increasing mask order.
        """
        xs = self.check_subset(order)
        P = self._root_paths
        paths = [P[x] for x in xs]
        path = [[p ^ q for q in paths] for p in paths]
        hop = [[m.bit_count() for m in row] for row in path]
        table = {(): (0, True)}
        # the nonempty even sub-tuples so far: (sub-tuple, XOR, spanned mask,
        # open tour, first position, last position)
        listed: list[tuple[tuple[int, ...], int, int, int, int, int]] = []
        for b, xb in enumerate(xs):
            hop_b = hop[b]
            for a in range(b):
                ab, hop_ab = path[a][b], hop[a][b]
                path_a, hop_a = path[a], hop[a]
                pair = (xs[a], xb)
                table[pair] = ab, True
                grown = [(pair, ab, ab, hop_ab, a, b)]
                below = (1 << a >> 1) - 1 if a else 0  # the nonempty even R below a
                for key, odd, span, walk, f, l in listed[:below]:
                    key += pair
                    odd ^= ab
                    span |= path_a[l] | ab
                    walk += hop_a[l] + hop_ab
                    table[key] = odd, walk + hop_b[f] == 2 * span.bit_count()
                    grown.append((key, odd, span, walk, f, b))
                listed += grown
        return table

    def nice_order(self, X: Iterable[int]) -> tuple[int, ...]:
        """X reordered by first visit of a depth-first walk.

        The walk starts at the smallest member of X and explores neighbors
        in increasing label order, so the result is deterministic.  A DFS
        walk doubles each edge of the spanned subtree at most, hence the
        returned order is nicely ordered.
        """
        xs = self.check_subset(X)
        if not xs:
            return ()
        want = set(xs)
        root = min(xs)
        seen = {root}
        order = [root] if root in want else []
        stack = [iter(self._adj[root])]
        while stack:
            try:
                y = next(stack[-1])
            except StopIteration:
                stack.pop()
                continue
            if y in seen:
                continue
            seen.add(y)
            if y in want:
                order.append(y)
                if len(order) == len(want):
                    break
            stack.append(iter(self._adj[y]))
        return tuple(order)

    # -- matrices ------------------------------------------------------------------

    def distance_matrix(self, order: Sequence[int] | None = None) -> list[list[Fraction]]:
        xs = self.check_subset(order) if order is not None else self._verts
        rows, den = self._distance_ints(xs)
        return [[Fraction(d, den) for d in row] for row in rows]

    def __repr__(self):
        return f"Tree(n={self.n}, edges={self.edges()})"


# ---------------------------------------------------------------------------
# generation


def random_tree(n: int, seed: int | None = None, weights: str = "unit") -> Tree:
    """Uniform random labeled tree on vertices 1..n (via a random parent
    sequence decoded in the standard way), deterministic for a given seed.

    weights: 'unit' for all-ones, 'rational' for small random positive
    rationals.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if weights not in ("unit", "rational"):
        raise ValueError(f"unknown weight mode {weights!r}")
    rng = random.Random(seed)

    def wgen():
        if weights == "unit":
            return Fraction(1)
        return Fraction(rng.randint(1, 9), rng.randint(1, 4))

    if n == 1:
        return Tree([], vertices=[1])
    if n == 2:
        return Tree([(1, 2, wgen())])
    seq = [rng.randint(1, n) for _ in range(n - 2)]
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    # decode: repeatedly join the smallest remaining leaf to the next code entry
    import heapq

    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v, wgen()))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v, wgen()))
    return Tree(edges)


# ---------------------------------------------------------------------------
# text format: first line the vertex count, then one edge per line as
# "u v" or "u v weight" with weight a decimal or p/q rational.


def parse_tree_text(text: str) -> Tree:
    """A tree from its file format: a vertex count, then one edge 'u v
    [weight]' a line, the weight 1 when omitted; blank lines and lines
    starting with # are skipped.  A weight is a positive rational as
    poly._as_fraction reads it (n, p/q or a decimal with an optional
    exponent, of at most 4,300 digits); a TreeFormatError names the line of
    any other."""
    lines = text.splitlines()
    rows = [(i + 1, ln.strip()) for i, ln in enumerate(lines)]
    rows = [(no, ln) for no, ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise TreeFormatError("empty tree description")
    no, first = rows[0]
    try:
        n = int(first)
    except ValueError:
        raise TreeFormatError(f"expected a vertex count, got {first!r}", no) from None
    if n < 1:
        raise TreeFormatError("vertex count must be positive", no)
    edges = []
    seen_edges = set()
    comp: dict[int, int] = {}

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for no, ln in rows[1:]:
        parts = ln.split()
        if len(parts) not in (2, 3):
            raise TreeFormatError(f"expected 'u v [weight]', got {ln!r}", no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise TreeFormatError(f"bad vertex labels in {ln!r}", no) from None
        if u < 0 or v < 0:
            raise TreeFormatError("vertex labels must be nonnegative", no)
        if u == v:
            raise TreeFormatError(f"self-loop at vertex {u}", no)
        if len(parts) == 3:
            try:
                w = _as_fraction(parts[2])
            except (ValueError, ZeroDivisionError):
                raise TreeFormatError(f"bad weight {parts[2]!r}", no) from None
            if w <= 0:
                raise TreeFormatError("edge weight must be positive", no)
        else:
            w = Fraction(1)
        k = edge_key(u, v)
        if k in seen_edges:
            raise TreeFormatError(f"duplicate edge {u} {v}", no)
        seen_edges.add(k)
        for x in (u, v):
            comp.setdefault(x, x)
        ru, rv = find(u), find(v)
        if ru == rv:
            raise TreeFormatError(f"edge {u} {v} closes a cycle", no)
        comp[ru] = rv
        edges.append((u, v, w))
    labels = set(comp)
    if n == 1 and not edges:
        return Tree([], vertices=[1])
    if len(labels) != n:
        raise TreeFormatError(
            f"header says {n} vertices but edges name {len(labels)}"
        )
    if len(edges) != n - 1:
        raise TreeFormatError(f"{n} vertices need {n - 1} edges, got {len(edges)}")
    # n labels, n - 1 edges and no cycle: one component
    return Tree(edges, vertices=labels)


def format_tree(tree: Tree) -> str:
    out = [str(tree.n)]
    for u, v, w in tree.edges():
        if w == 1:
            out.append(f"{u} {v}")
        else:
            out.append(f"{u} {v} {w}")
    return "\n".join(out) + "\n"


def read_tree_file(path: str) -> Tree:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tree_text(fh.read())
