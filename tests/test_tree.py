"""Tree structure: distances, spanned subtrees, odd-split edges, orderings."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treeminor.tree import (
    Tree,
    TreeFormatError,
    edge_key,
    format_tree,
    parse_tree_text,
    random_tree,
)

F = Fraction


def path_tree(n, w=1):
    return Tree([(i, i + 1, F(w)) for i in range(1, n)])


def star_tree(leaf_count):
    return Tree([(0, i) for i in range(1, leaf_count + 1)])


def test_distances_path():
    T = path_tree(3)
    assert T.dist(1, 3) == 2
    assert T.dist(2, 2) == 0
    assert T.path_edges(1, 3) == frozenset({(1, 2), (2, 3)})
    assert T.path_edges(1, 1) == frozenset()


def test_distances_star_and_weighted():
    S = star_tree(3)
    assert S.dist(1, 2) == 2
    T = Tree([(1, 2, F(3, 2))])
    assert T.dist(1, 2) == F(3, 2)


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        Tree([(1, 2), (2, 3), (3, 1)])  # cycle
    with pytest.raises(ValueError):
        Tree([(1, 2), (3, 4)])  # disconnected
    with pytest.raises(ValueError):
        Tree([(1, 2, 0)])  # nonpositive weight
    with pytest.raises(ValueError):
        Tree([(1, 1)])  # self-loop
    with pytest.raises(ValueError):
        Tree([])  # no vertices at all


def test_spanned_subtree():
    T = path_tree(4)
    verts, edges = T.spanned_subtree([1, 3])
    assert verts == frozenset({1, 2, 3})
    assert edges == frozenset({(1, 2), (2, 3)})
    assert T.spanned_weight([1, 3]) == 2
    assert T.spanned_weight([2]) == 0
    S = star_tree(3)
    verts, edges = S.spanned_subtree([1, 2, 3])
    assert verts == frozenset({0, 1, 2, 3})
    assert len(edges) == 3


def test_odd_edges_path4_full():
    T = path_tree(4)
    assert T.odd_edges([1, 2, 3, 4]) == frozenset({(1, 2), (3, 4)})


def test_odd_edges_odd_size_empty():
    T = path_tree(5)
    assert T.odd_edges([1, 2, 3]) == frozenset()
    assert T.odd_edges([2]) == frozenset()
    assert T.odd_edges([]) == frozenset()


def test_odd_edges_star_pair():
    S = star_tree(3)
    assert S.odd_edges([1, 2]) == frozenset({(0, 1), (0, 2)})


def test_odd_edges_drop_pair_symmetric_difference():
    # dropping a pair from an even X toggles exactly the path between them
    for seed in range(12):
        T = random_tree(8, seed=seed)
        verts = T.vertices
        for X in [verts, verts[:6], (1, 3, 5, 8)]:
            O = T.odd_edges(X)
            for i, j in itertools.combinations(X, 2):
                rest = tuple(x for x in X if x not in (i, j))
                assert T.odd_edges(rest) == O ^ T.path_edges(i, j)


def test_nicely_ordered_path4():
    T = path_tree(4)
    ok, counts = T.is_nicely_ordered((1, 2, 3, 4))
    assert ok
    assert counts[(2, 3)] == 2
    ok, counts = T.is_nicely_ordered((1, 3, 2, 4))
    assert not ok
    assert counts[(2, 3)] == 4


def test_nicely_ordered_small():
    T = path_tree(4)
    assert T.is_nicely_ordered((2,))[0]
    assert T.is_nicely_ordered(())[0]
    assert T.is_nicely_ordered((1, 4))[0]


def test_nice_order_path_and_star():
    T = path_tree(4)
    assert T.nice_order({1, 3, 2, 4}) == (1, 2, 3, 4)
    assert T.nice_order({2, 4}) == (2, 4)
    S = star_tree(3)
    assert S.nice_order({1, 2, 3}) == (1, 2, 3)
    assert S.nice_order({2, 3}) == (2, 3)


def test_nice_order_is_nicely_ordered_everywhere():
    for seed in range(15):
        T = random_tree(7, seed=seed, weights="rational" if seed % 2 else "unit")
        verts = T.vertices
        for r in range(1, 8):
            for X in itertools.combinations(verts, r):
                order = T.nice_order(X)
                assert sorted(order) == sorted(X)
                assert T.is_nicely_ordered(order)[0]


def test_subsequences_of_nice_order_stay_nice():
    # pf-verify checks every even subset S in the order omega|S, omega the
    # nice order of all vertices; this is the fact that makes that sound
    for seed in range(16):
        for weights in ("unit", "rational"):
            T = random_tree(5 + seed % 6, seed=seed, weights=weights)
            base = T.nice_order(T.vertices)
            for mask in range(1 << T.n):
                sub = tuple(base[i] for i in range(T.n) if mask >> i & 1)
                assert T.is_nicely_ordered(sub)[0]


def test_tour_table_decides_niceness_by_hop_count():
    # every even sub-tuple of a shuffled order, sizes 0 and 2 included, both
    # nice and not, against the per-edge traversal counts; the table walks
    # only even sub-tuples, so more trees are drawn to see as many of them
    seen = {True: 0, False: 0}
    for seed in range(80):
        T = random_tree(2 + seed % 8, seed=seed, weights="rational" if seed % 2 else "unit")
        rng = random.Random(seed)
        order = rng.sample(T.vertices, rng.randint(0, T.n))
        table = T.tour_table(order)
        masks = [mask for mask in range(1 << len(order)) if mask.bit_count() % 2 == 0]
        subs = [tuple(x for i, x in enumerate(order) if mask >> i & 1) for mask in masks]
        assert list(table) == subs  # by increasing position mask
        for sub, (xor, nice) in table.items():
            assert nice == T.is_nicely_ordered(sub)[0], (seed, sub)
            assert T._edges_of(xor) == T.odd_edges(sub)
            seen[nice] += 1
    assert seen[True] > 100 and seen[False] > 50


# -- every mask answer against a reference that cuts one edge at a time ------


def _cut_sides(T):
    """adjacency from T.edges(), and for each edge (u, v, w) the vertices a
    flood fill from u reaches once that edge is deleted"""
    adj = {v: [] for v in T.vertices}
    for u, v, _ in T.edges():
        adj[u].append(v)
        adj[v].append(u)
    sides = []
    for u, v, w in T.edges():
        side = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in side and {x, y} != {u, v}:
                    side.add(y)
                    stack.append(y)
        sides.append(((u, v), w, side))
    return adj, sides


def _bfs_path(adj, a, b):
    prev = {a: None}
    queue = [a]
    for x in queue:
        for y in adj[x]:
            if y not in prev:
                prev[y] = x
                queue.append(y)
    edges = set()
    while b != a:
        edges.add((min(b, prev[b]), max(b, prev[b])))
        b = prev[b]
    return edges


@st.composite
def trees_and_tuples(draw):
    kind = draw(st.sampled_from(["unit", "rational", "path", "single", "gaps"]))
    if kind == "path":  # the walk starts at 1, so the masks get deep
        n = draw(st.integers(60, 200))
        T = Tree([(v, v + 1, F(v % 5 + 1, v % 3 + 1)) for v in range(1, n)])
    elif kind == "single":
        T = Tree([], vertices=[draw(st.integers(0, 9))])
    else:
        n = draw(st.integers(2, 14))
        seed = draw(st.integers(0, 10**6))
        T = random_tree(n, seed=seed, weights="unit" if kind == "unit" else "rational")
        if kind == "gaps":  # labels 0, 3, 6, ...
            T = Tree(
                [(3 * (u - 1), 3 * (v - 1), w) for u, v, w in T.edges()],
                vertices=[3 * (v - 1) for v in T.vertices],
            )
    order = draw(st.permutations(T.vertices))
    X = tuple(order[: draw(st.integers(0, T.n))])
    i = draw(st.sampled_from(T.vertices))
    j = draw(st.sampled_from(T.vertices))
    return T, X, i, j


@settings(max_examples=300, deadline=None)
@given(trees_and_tuples())
def test_mask_answers_match_the_cut_reference(case):
    T, X, i, j = case
    adj, sides = _cut_sides(T)
    k = len(X)
    path, spanned, odd = set(), {}, {}
    for e, w, side in sides:
        if (i in side) != (j in side):
            path.add(e)
        c = sum(1 for x in X if x in side)
        if 0 < c < k:
            spanned[e] = w
        if c % 2 and (k - c) % 2:
            odd[e] = w
    assert T.path_edges(i, j) == path
    verts, edges = T.spanned_subtree(X)
    assert edges == set(spanned)
    assert verts == set(X).union(*edges)
    assert T.spanned_weight(X) == sum(spanned.values(), F(0))
    assert T.odd_edges(X) == set(odd)
    assert T.odd_weight(X) == sum(odd.values(), F(0))
    counts = {}
    if k >= 2:
        for a in range(k):
            for e in _bfs_path(adj, X[a], X[(a + 1) % k]):
                counts[e] = counts.get(e, 0) + 1
    ok, got = T.is_nicely_ordered(X)
    assert got == counts
    assert ok == all(c <= 2 for c in counts.values())


def test_a_query_builds_only_the_masks_it_reads():
    # a mask takes up to n/8 bytes, so building all n of them would take
    # about n^2/16; a query builds its own vertices' masks, not their ancestors'
    T = path_tree(3000)
    assert len(T.path_edges(1, 3000)) == 2999
    assert len(T.path_edges(1500, 2500)) == 1000
    assert len(T._root_paths) == 4  # the root's, 3000's, 1500's and 2500's


def test_random_tree_deterministic_and_valid():
    a = random_tree(9, seed=42)
    b = random_tree(9, seed=42)
    assert a.edges() == b.edges()
    assert a.n == 9
    c = random_tree(9, seed=43)
    assert a.edges() != c.edges()
    w = random_tree(6, seed=1, weights="rational")
    assert all(wt > 0 for _, _, wt in w.edges())
    assert random_tree(1, seed=0).n == 1
    assert random_tree(2, seed=0).edges() == [(1, 2, F(1))]


@pytest.mark.parametrize("n", [1, 2, 5])
def test_random_tree_rejects_an_unknown_weight_mode(n):
    with pytest.raises(ValueError, match="unknown weight mode 'bogus'"):
        random_tree(n, seed=0, weights="bogus")


def test_leaves():
    assert star_tree(3).leaves() == (1, 2, 3)
    assert path_tree(4).leaves() == (1, 4)
    assert random_tree(1, seed=0).leaves() == (1,)


# ---------------------------------------------------------------------------
# text format


def test_format_parse_roundtrip():
    for seed in range(6):
        T = random_tree(7, seed=seed, weights="rational" if seed % 2 else "unit")
        back = parse_tree_text(format_tree(T))
        assert back.edges() == T.edges()


def test_parse_weights_decimal_and_fraction():
    T = parse_tree_text("3\n1 2 0.5\n2 3 3/2\n")
    assert T.weight((1, 2)) == F(1, 2)
    assert T.weight((2, 3)) == F(3, 2)


def test_parse_star_with_zero_label():
    T = parse_tree_text("4\n0 1\n0 2\n0 3\n")
    assert T.vertices == (0, 1, 2, 3)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(TreeFormatError) as ei:
        parse_tree_text("3\n1 2\n2 1\n")
    assert ei.value.line == 3 and "duplicate" in str(ei.value)
    with pytest.raises(TreeFormatError) as ei:
        parse_tree_text("3\n1 2\n2 3\n3 1\n")
    assert ei.value.line == 4 and "cycle" in str(ei.value)
    with pytest.raises(TreeFormatError) as ei:
        parse_tree_text("3\n1 2 -1\n2 3\n")
    assert ei.value.line == 2
    with pytest.raises(TreeFormatError):
        parse_tree_text("4\n1 2\n2 3\n")  # wrong count
    with pytest.raises(TreeFormatError):
        parse_tree_text("4\n1 2\n2 3\n5 6\n")  # disconnected
    with pytest.raises(TreeFormatError):
        parse_tree_text("")


def test_edge_key_order():
    assert edge_key(5, 2) == (2, 5)
