"""Weighted trees on integer-labeled vertices and the path/parity
combinatorics the matrix formulas are built from.

Vertices are distinct nonnegative integers (generated trees use 1..n; a
designated root such as 0 is just another label).  Edge weights are positive
rationals.  Trees are immutable after construction; distance and path
lookups are cached.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Sequence

Edge = tuple[int, int]


class TreeFormatError(ValueError):
    """Malformed tree description; carries the offending 1-based line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def edge_key(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


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
        # connectivity (and with the edge count, acyclicity)
        if adj:
            seen = {verts[0]}
            stack = [verts[0]]
            while stack:
                x = stack.pop()
                for y in adj.get(x, ()):
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) != len(verts):
                raise ValueError("edges do not form a connected tree")
        self._weights = weighted
        self._adj = {v: tuple(sorted(adj.get(v, ()))) for v in verts}
        self._verts = tuple(verts)
        self._vert_set = frozenset(verts)
        # rooted bookkeeping for subtree parity counts
        root = verts[0]
        parent: dict[int, int | None] = {root: None}
        order = [root]
        stack = [root]
        while stack:
            x = stack.pop()
            for y in self._adj[x]:
                if y not in parent:
                    parent[y] = x
                    order.append(y)
                    stack.append(y)
        self._parent = parent
        self._dfs_order = tuple(order)
        self._dist_cache: dict[int, dict[int, Fraction]] = {}
        self._path_cache: dict[Edge, frozenset[Edge]] = {}

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
        from_i = self._dist_cache.get(i)
        if from_i is None:
            from_i = self._single_source(i)
            self._dist_cache[i] = from_i
        return from_i[j]

    def _single_source(self, src: int) -> dict[int, Fraction]:
        if src not in self._vert_set:
            raise ValueError(f"vertex {src} is not in the tree")
        out = {src: Fraction(0)}
        stack = [src]
        while stack:
            x = stack.pop()
            for y in self._adj[x]:
                if y not in out:
                    out[y] = out[x] + self._weights[edge_key(x, y)]
                    stack.append(y)
        return out

    def path_edges(self, i: int, j: int) -> frozenset[Edge]:
        """Edges on the unique i-j path (empty when i = j)."""
        if i == j:
            self.check_subset([i])
            return frozenset()
        key = edge_key(i, j)
        hit = self._path_cache.get(key)
        if hit is not None:
            return hit
        self.check_subset({i, j})
        # climb to the root from both ends and splice at the meeting point
        depth = self._depths()
        a, b = i, j
        edges = []
        while a != b:
            if depth[a] >= depth[b]:
                p = self._parent[a]
                edges.append(edge_key(a, p))
                a = p
            else:
                p = self._parent[b]
                edges.append(edge_key(b, p))
                b = p
        result = frozenset(edges)
        self._path_cache[key] = result
        return result

    def _depths(self) -> dict[int, int]:
        d = getattr(self, "_depth_cache", None)
        if d is None:
            d = {self._dfs_order[0]: 0}
            for v in self._dfs_order[1:]:
                d[v] = d[self._parent[v]] + 1
            self._depth_cache = d
        return d

    # -- spanned subtrees ------------------------------------------------------

    def spanned_subtree(self, X: Iterable[int]) -> tuple[frozenset[int], frozenset[Edge]]:
        """(vertices, edges) of the smallest subtree containing X."""
        xs = self.check_subset(X)
        if not xs:
            return frozenset(), frozenset()
        x0 = xs[0]
        edges: set[Edge] = set()
        for x in xs[1:]:
            edges |= self.path_edges(x0, x)
        verts = set(xs)
        for u, v in edges:
            verts.add(u)
            verts.add(v)
        return frozenset(verts), frozenset(edges)

    def spanned_weight(self, X: Iterable[int]) -> Fraction:
        """Total weight of the smallest subtree containing X."""
        _, edges = self.spanned_subtree(X)
        return sum((self._weights[e] for e in edges), Fraction(0))

    def odd_edges(self, X: Iterable[int]) -> frozenset[Edge]:
        """Edges whose removal splits X into two odd halves.

        Empty whenever |X| is odd (the halves sum to |X|), and in particular
        for |X| <= 1.
        """
        xs = set(self.check_subset(X))
        k = len(xs)
        count = {v: (1 if v in xs else 0) for v in self._verts}
        for v in reversed(self._dfs_order[1:]):
            count[self._parent[v]] += count[v]
        out = []
        for v in self._dfs_order[1:]:
            below = count[v]
            if below % 2 == 1 and (k - below) % 2 == 1:
                out.append(edge_key(v, self._parent[v]))
        return frozenset(out)

    # -- orderings ---------------------------------------------------------------

    def is_nicely_ordered(self, X: Sequence[int]) -> tuple[bool, dict[Edge, int]]:
        """Whether the cyclic tour x1 -> x2 -> ... -> x1 uses no edge more
        than twice; also returns the per-edge traversal counts."""
        xs = self.check_subset(X)
        counts: dict[Edge, int] = {}
        k = len(xs)
        if k >= 2:
            for a in range(k):
                for e in self.path_edges(xs[a], xs[(a + 1) % k]):
                    counts[e] = counts.get(e, 0) + 1
        return all(c <= 2 for c in counts.values()), counts

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
        return [[self.dist(i, j) for j in xs] for i in xs]

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
    rng = random.Random(seed)

    def wgen():
        if weights == "unit":
            return Fraction(1)
        if weights == "rational":
            return Fraction(rng.randint(1, 9), rng.randint(1, 4))
        raise ValueError(f"unknown weight mode {weights!r}")

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
                w = Fraction(parts[2])
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
    roots = {find(x) for x in labels}
    if len(roots) != 1:
        raise TreeFormatError(f"edges split into {len(roots)} components")
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
