import itertools
from fractions import Fraction

import pytest

from treeminor.cyclekernel import (
    Forest,
    all_flips,
    bracket_closed,
    bracket_enum,
    canonical_cycle,
    crossings,
    cycle_partitions,
    det_via_cycles,
    det_via_tight_cycles,
    flip,
    is_tight,
    partition_sign,
    split_edge,
    support,
    support_norm,
)
from treeminor.minors import minor_formula
from treeminor.poly import ExactPoly
from treeminor.tree import Tree, random_tree


def path4():
    return Tree([(1, 2), (2, 3), (3, 4)])


def star(k):
    return Tree([(0, i) for i in range(1, k + 1)])


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
