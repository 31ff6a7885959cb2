import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from treeminor.cyclekernel import (
    ENUMERATION_CAP,
    Forest,
    all_flips,
    bracket_closed,
    bracket_enum,
    canonical_cycle,
    crossings,
    cycle_partitions,
    cycle_sums,
    cycle_table,
    det_via_cycles,
    det_via_tight_cycles,
    flip,
    is_tight,
    partition_sign,
    split_edge,
    support,
    support_norm,
)
from treeminor.minors import (
    _formula_norm_bound,
    minor_formula,
    minor_formula_table,
    minor_oracle,
    minor_table,
)
from treeminor.poly import ExactPoly, _unpack_even, _word_for
from treeminor.tree import Tree, edge_key, random_tree


def path4():
    return Tree([(1, 2), (2, 3), (3, 4)])


def star(k):
    return Tree([(0, i) for i in range(1, k + 1)])


def half_integer_tree(n, seed):
    """The shape of random_tree(n, seed) with weights in {1/2, 1, 3/2, 2}."""
    rng = random.Random(seed)
    return Tree(
        [(u, v, Fraction(rng.randint(1, 4), 2)) for u, v, _ in random_tree(n, seed=seed).edges()],
        vertices=range(1, n + 1),
    )


def weighted_tree(n, seed, kind):
    return half_integer_tree(n, seed) if kind == "half" else random_tree(n, seed=seed, weights=kind)


def reference_cycle_sums(t, xs):
    """The full and tight sums, one partition at a time through the
    support dict: the definition the packed walk of cycle_sums replaces."""
    full, tight = [], []
    for w in cycle_partitions(xs):
        supp = support(t, w)
        term = (support_norm(t, supp), Fraction(partition_sign(w)))
        full.append(term)
        if is_tight(supp):
            tight.append(term)
    return ExactPoly.from_terms(full), ExactPoly.from_terms(tight)


class Ring:
    """A path oracle that is not a tree: the cycle 1-2-...-m-1 with edge
    (1, m) of weight 3/2 and the others of weight 1, each path going the
    lighter way round (ties upward), as an edge set and as a mask of the
    edges in sorted order, with weights over _den (4 unless given).  The
    flips cancel only on trees, so here the tight sum differs from the full
    one.  From m = 6 on, the cycles (1 3 5) and (2 4 6) each go once round
    the ring, so together they meet every edge twice: a tight partition
    whose cycles are not tight.  A cycle that goes once round weighs
    m - 1 + 3/2, an odd number of halves, so over _den = 2 the integer
    weights admit no 2-colouring, which cycle_table needs; over _den = 4
    every integer weight is even."""

    def __init__(self, m, den=4):
        self.m = m
        self._den = den
        self._weights = {edge_key(v, v % m + 1): Fraction(1) for v in range(1, m + 1)}
        self._weights[1, m] = Fraction(3, 2)
        self._edge_bit = {e: 1 << b for b, e in enumerate(sorted(self._weights))}

    def _path_mask(self, a, b):
        return sum(self._edge_bit[e] for e in self.path_edges(a, b))

    def _weight_num(self, mask):
        bits = self._edge_bit
        return sum(int(w * self._den) for e, w in self._weights.items() if mask & bits[e])

    def check_subset(self, X):
        xs = tuple(X)
        assert set(xs) <= set(range(1, self.m + 1)) and len(set(xs)) == len(xs)
        return xs

    def weight(self, e):
        return self._weights[edge_key(*e)]

    def path_edges(self, a, b):
        lo, hi = sorted((a, b))
        up = frozenset(edge_key(v, v + 1) for v in range(lo, hi))
        down = frozenset(self._weights) - up
        return min((up, down), key=lambda es: sum(map(self.weight, es)))


def star_forest(k, center_in_x):
    f = Forest(range(k + 1), [(0, i) for i in range(1, k + 1)])
    x = set(range(1, k + 1)) | ({0} if center_in_x else set())
    return f, frozenset(x)


# --- cycles and partitions -------------------------------------------------


def test_canonical_rotation():
    assert canonical_cycle((2, 3, 1)) == (1, 2, 3)
    assert canonical_cycle((5,)) == (5,)
    with pytest.raises(ValueError):
        canonical_cycle((1, 2, 1))


def test_reversal_is_a_different_cycle():
    assert canonical_cycle((1, 2, 3)) != canonical_cycle((1, 3, 2))


def test_partition_count_is_factorial():
    for k in range(1, 6):
        parts = list(cycle_partitions(range(k)))
        assert len(parts) == len(set(parts)) == len(list(itertools.permutations(range(k))))


def test_partition_cap():
    with pytest.raises(ValueError):
        next(cycle_partitions(range(8)))


def test_partition_sign():
    assert partition_sign(frozenset({(1,), (2,)})) == 1
    assert partition_sign(frozenset({(1, 2)})) == -1
    assert partition_sign(frozenset({(1, 2, 3)})) == 1
    assert partition_sign(frozenset({(1, 2), (3, 4)})) == 1


def test_support_and_tightness():
    t = path4()
    w = frozenset({(1, 3, 2, 4)})
    supp = support(t, w)
    assert supp == {(1, 2): 2, (2, 3): 4, (3, 4): 2}
    assert not is_tight(supp)
    assert support_norm(t, supp) == 8
    assert is_tight(support(t, frozenset({(1, 2), (3, 4)})))


# --- determinant expansions ------------------------------------------------


def test_two_point_expansion_frozen():
    t = Tree([(1, 2), (2, 3)])
    # {(1),(3)} contributes +1, {(1,3)} contributes -t^4
    assert str(det_via_cycles(t, [1, 3])) == "-t^4 + 1"


def test_cycle_sums_match_minor_star():
    t = star(3)
    want = minor_formula(t, [1, 2, 3])
    assert det_via_cycles(t, [1, 2, 3]) == want
    assert det_via_tight_cycles(t, [1, 2, 3]) == want
    assert str(want) == "2*t^6 - 3*t^4 + 1"


@pytest.mark.parametrize("seed", [11, 12, 13])
@pytest.mark.parametrize("weights", ["unit", "rational"])
def test_cycle_sums_match_minor_random(seed, weights):
    t = random_tree(7, seed=seed, weights=weights)
    vs = sorted(t.vertices)
    for r in (1, 2, 3, 4):
        for xs in itertools.combinations(vs, r):
            want = minor_formula(t, xs)
            assert det_via_cycles(t, xs) == want
            assert det_via_tight_cycles(t, xs) == want


@pytest.mark.parametrize("kind", ["unit", "rational", "half", "five-cycle"])
def test_cycle_sums_match_the_partition_by_partition_reference(kind):
    def check(t, xs):
        got, want = cycle_sums(t, xs), reference_cycle_sums(t, xs)
        assert got == want
        assert tuple(map(str, got)) == tuple(map(str, want))
        return got

    if kind == "five-cycle":
        # off a tree the two sums differ, so a tight test that keeps every
        # partition fails here
        t = Ring(5)
        sums = [check(t, xs) for r in range(1, 6) for xs in itertools.combinations(range(1, 6), r)]
        assert any(full != tight for full, tight in sums)
        return
    for n in range(1, 7):
        for seed in (0, 1):
            t = weighted_tree(n, seed, kind)
            for r in range(n + 1):
                for xs in itertools.combinations(sorted(t.vertices), r):
                    check(t, xs)
    # one subset at the cap: 5,040 partitions
    t = weighted_tree(9, 2, kind)
    check(t, sorted(t.vertices)[:ENUMERATION_CAP])


@pytest.mark.parametrize("kind", ["unit", "rational", "half", "five-cycle", "six-cycle"])
def test_cycle_table_matches_the_partition_by_partition_reference(kind):
    def check(t, elems, max_size):
        bits = _word_for(math.factorial(max_size))
        table = cycle_table(t, elems, max_size, bits)
        keys = [X for r in range(1, max_size + 1) for X in itertools.combinations(elems, r)]
        assert list(table) == keys
        sums = {}
        for X, packed in table.items():
            got = tuple(ExactPoly._make(t._den, 1, _unpack_even(bits, v)) for v in packed)
            want = reference_cycle_sums(t, X)
            assert got == want
            assert tuple(map(str, got)) == tuple(map(str, want))
            sums[X] = got
        return sums

    if kind.endswith("-cycle"):
        # a tight sum over the tight cycles with disjoint supports agrees on
        # trees and on the five-cycle, and loses (1 3 5)(2 4 6) on six
        m = 5 if kind == "five-cycle" else 6
        sums = check(Ring(m), tuple(range(1, m + 1)), m)
        assert any(full != tight for full, tight in sums.values())
        return
    for n in range(1, 7):
        for seed in (0, 1):
            t = weighted_tree(n, seed, kind)
            check(t, t.vertices, n)
    # a size cap below |elems| drops the larger sets, and only those
    t = weighted_tree(7, 3, kind)
    check(t, t.vertices, 3)


def test_a_path_oracle_with_an_odd_closed_walk_is_refused():
    # over _den = 2 the ring's cycles round it have odd integer weights:
    # their sums are not polynomials in u = t^(2/_den)
    for m in (5, 6):
        ring = Ring(m, den=2)
        elems = tuple(range(1, m + 1))
        with pytest.raises(ValueError, match="odd weight"):
            cycle_table(ring, elems, m, _word_for(math.factorial(m)))
        with pytest.raises(ValueError, match="odd weight"):
            cycle_sums(ring, elems)
    # a size cap of 1 builds no pair tables: each point's partition is itself
    assert cycle_table(Ring(5, den=2), (1, 2), 1, 8) == {(1,): (1, 1), (2,): (1, 1)}


def sparse_tree(n, seed):
    """random_tree(n, seed)'s shape, unit weights but one edge of 1/997."""
    (u, v, _), *rest = random_tree(n, seed=seed).edges()
    return Tree([(u, v, Fraction(1, 997)), *rest])


@st.composite
def grid_cases(draw):
    kind = draw(st.sampled_from(["unit", "rational", "gapped", "sparse"]))
    n = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 10 ** 6))
    if kind == "gapped":  # random_tree's shape on the labels 3, 6, 9, ...
        base = random_tree(n, seed=seed, weights="rational")
        T = Tree([(3 * u, 3 * v, w) for u, v, w in base.edges()], vertices=range(3, 3 * n + 1, 3))
    elif kind == "sparse":
        T = sparse_tree(n, seed) if n > 1 else random_tree(1)
    else:
        T = random_tree(n, seed=seed, weights=kind)
    return T, draw(st.integers(1, n))


@settings(max_examples=40, deadline=None)
@given(grid_cases())
@example((sparse_tree(7, 5), 7))
@example((random_tree(7, seed=1, weights="rational"), 4))
def test_the_u_grid_tables_read_back_as_the_t_grid_references(case):
    # minor_table, minor_formula_table and cycle_table pack each value at
    # u = t^(2/_den); read back with doubled exponents, every value is the
    # polynomial in t that the determinant and the partition-by-partition
    # sums give
    T, k = case
    bits = _word_for(max(math.factorial(k), _formula_norm_bound(T)))
    dets, formulas = minor_table(T, k, bits), minor_formula_table(T, k, bits)
    cycles = cycle_table(T, T.vertices, k, bits)
    assert set(dets) == set(formulas) == set(cycles)

    def read(value):
        return ExactPoly._make(T._den, 1, _unpack_even(bits, value))

    for X, (full, tight) in cycles.items():
        oracle = minor_oracle(T, X)
        assert read(dets[X]) == read(formulas[X][0]) == oracle
        assert (read(full), read(tight)) == reference_cycle_sums(T, X) == (oracle, oracle)


def test_cycle_sums_refuse_more_labels_than_the_cap():
    t = random_tree(ENUMERATION_CAP + 1, seed=0)
    with pytest.raises(ValueError, match=f"exceeds the enumeration cap {ENUMERATION_CAP}"):
        cycle_sums(t, t.vertices)


def test_nontight_buckets_cancel():
    # group the full expansion by support; buckets holding an edge of
    # multiplicity >= 4 must sum to zero
    t = random_tree(6, seed=21)
    xs = tuple(sorted(t.vertices))[:5]
    buckets: dict[tuple, int] = {}
    for w in cycle_partitions(xs):
        supp = support(t, w)
        key = tuple(sorted(supp.items()))
        buckets[key] = buckets.get(key, 0) + partition_sign(w)
    saw_heavy = False
    for key, total in buckets.items():
        if any(m >= 4 for _, m in key):
            saw_heavy = True
            assert total == 0
    assert saw_heavy


# --- flips -----------------------------------------------------------------


def test_flip_split_frozen():
    t = path4()
    w = frozenset({(1, 3, 2, 4)})
    cr = crossings(t, w, (2, 3))
    assert len(cr["xy"]) == len(cr["yx"]) == 2
    choices = all_flips(t, w, (2, 3))
    assert len(choices) == 2  # 2 * C(2, 2) per direction
    got = flip(t, w, (2, 3), ("xy", 0, 1))
    assert got == frozenset({(2, 3), (1, 4)})


def test_flip_merge_then_split_roundtrip():
    t = path4()
    w = frozenset({(2, 3), (1, 4)})
    for choice in all_flips(t, w, (2, 3)):
        w2 = flip(t, w, (2, 3), choice)
        assert partition_sign(w2) == -partition_sign(w)
        assert support(t, w2) == support(t, w)
        # the flip is undoable at the same edge
        assert w in {flip(t, w2, (2, 3), c) for c in all_flips(t, w2, (2, 3))}


def test_flip_regularity_across_a_bucket():
    # every partition whose support has multiplicity l >= 4 at some edge
    # admits exactly 2 * C(l/2, 2) flips there, each sign-reversing and
    # support-preserving and staying inside the bucket
    t = random_tree(6, seed=33)
    xs = tuple(sorted(t.vertices))[:5]
    checked = 0
    for w in cycle_partitions(xs):
        supp = support(t, w)
        for e, l in supp.items():
            if l < 4:
                continue
            choices = all_flips(t, w, e)
            half = l // 2
            assert len(choices) == 2 * (half * (half - 1) // 2)
            results = set()
            for c in choices:
                w2 = flip(t, w, e, c)
                assert support(t, w2) == supp
                assert partition_sign(w2) == -partition_sign(w)
                results.add(w2)
            checked += 1
    assert checked >= 5


def test_no_flips_on_tight_partitions():
    t = path4()
    w = frozenset({(1, 2), (3, 4)})
    assert all_flips(t, w, (2, 3)) == []
    assert all_flips(t, w, (1, 2)) == []


# --- brackets ---------------------------------------------------------------


def test_bracket_star_seeds():
    f1, x1 = star_forest(2, center_in_x=False)
    assert bracket_enum(f1, x1) == bracket_closed(f1, x1) == -1
    f2, x2 = star_forest(3, center_in_x=False)
    assert bracket_enum(f2, x2) == bracket_closed(f2, x2) == 2
    g1 = Forest([0], [])
    assert bracket_enum(g1, [0]) == bracket_closed(g1, [0]) == 1
    g2, y2 = star_forest(1, center_in_x=True)
    assert bracket_enum(g2, y2) == bracket_closed(g2, y2) == -1


def test_bracket_star_recurrences():
    # open stars: <A_k> = -(k-1) * (<A_{k-1}> + <A_{k-2}>), closed by
    # putting the center into X: <B_k> = <A_k> + <A_{k-1}>
    a = {2: bracket_enum(*star_forest(2, False)), 3: bracket_enum(*star_forest(3, False))}
    for k in range(4, 8):
        a[k] = bracket_enum(*star_forest(k, False))
        assert a[k] == -(k - 1) * (a[k - 1] + a[k - 2])
    b = {1: 1}
    for k in range(2, 8):
        f, x = star_forest(k - 1, center_in_x=True)
        b[k] = bracket_enum(f, x)
        if k >= 3:
            assert b[k] == a[k] + a[k - 1]
    assert b[2] == -1


def test_bracket_enum_matches_closed_form_random():
    import random

    rng = random.Random(7)
    for _ in range(12):
        t = random_tree(rng.randint(2, 6), seed=rng.randint(0, 10 ** 6))
        keep = [(u, v) for u, v, _ in t.edges() if rng.random() < 0.8]
        f = Forest(t.vertices, keep)
        x = {v for v in f.vertices if f.degree(v) <= 1}
        x |= {v for v in f.vertices if rng.random() < 0.4}
        if max((len(x & c) for c in f.components), default=0) > 6:
            continue
        assert bracket_enum(f, x) == bracket_closed(f, x)


def test_bracket_requires_spanning():
    f, _ = star_forest(3, center_in_x=False)
    with pytest.raises(ValueError):
        bracket_enum(f, [1, 2])
    with pytest.raises(ValueError):
        bracket_closed(f, [1, 2])


def test_bracket_edge_split_negates():
    for k, center in ((3, False), (4, False), (3, True)):
        f, x = star_forest(k, center)
        g, x2, y2 = split_edge(f, (0, 1))
        assert bracket_enum(g, x | {x2, y2}) == -bracket_enum(f, x)
        assert bracket_closed(g, x | {x2, y2}) == -bracket_closed(f, x)


def test_bracket_multiplicative_over_components():
    f = Forest([0, 1, 2, 10, 11], [(0, 1), (0, 2), (10, 11)])
    x = frozenset({1, 2, 10, 11})
    assert bracket_enum(f, x) == (-1) * (-1)
    assert bracket_closed(f, x) == bracket_enum(f, x)


def test_bracket_component_without_x_vertices():
    f = Forest([0, 1, 2, 3], [(2, 3)])
    # component {2,3} has no X vertices but does have an edge -> not spanned
    with pytest.raises(ValueError):
        bracket_enum(f, [0, 1])
    # isolated non-X vertex is also a spanning failure
    with pytest.raises(ValueError):
        bracket_enum(f, [0, 2, 3])
