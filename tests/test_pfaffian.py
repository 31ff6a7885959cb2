"""Pfaffian monomial formula vs the expansion oracle, and the pairing
machinery behind it.

Frozen values: the 4-vertex path with its natural order gives t^2 (computed
from the three-pairings expansion by hand); the reordering (1,3,2,4) gives
2t^4 - t^2, which is the standing counterexample showing the order matters.
"""

import functools
import itertools
from unittest import mock

import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

from treeminor import cli, pfaffian as pfaffian_module, poly as poly_module
from treeminor.matroid import _value_pair, represent_odd

from treeminor.pfaffian import (
    NotNicelyOrderedError,
    _pf_bottom_up,
    _pf_form,
    _pf_top_down,
    _shift_rows,
    _Shifted,
    _skew_maps,
    build_skew_matrix,
    pf_formula,
    pf_bits,
    pf_formula_table,
    pf_oracle,
    pf_table,
)
from treeminor.poly import _TREE_DENSE_BITS, ExactPoly, _dense, _unpack, pfaffian
from treeminor.tree import Tree, random_tree

F = Fraction
tp = ExactPoly.t_power


def read_back(T, read, value):
    return ExactPoly._make(T._den, 1, read(value))


def monomial(T, w):
    return ExactPoly._make(T._den, 1, {w: 1})


def path_tree(n, w=1):
    return Tree([(i, i + 1, F(w)) for i in range(1, n)])


def star_tree(k):
    return Tree([(0, i) for i in range(1, k + 1)])


def test_pf_path4_natural_order():
    T = path_tree(4)
    assert pf_formula(T, (1, 2, 3, 4)) == tp(2)
    assert pf_oracle(T, (1, 2, 3, 4)) == tp(2)


def test_pf_star_pair():
    S = star_tree(3)
    assert pf_formula(S, (1, 2)) == tp(2)
    assert pf_oracle(S, (1, 2)) == tp(2)


def test_pf_empty_tuple():
    T = path_tree(3)
    assert pf_formula(T, ()) == ExactPoly.one()
    assert pf_oracle(T, ()) == ExactPoly.one()


def test_pf_weighted():
    T = Tree([(1, 2, F(1, 2)), (2, 3, F(2)), (3, 4, F(3))])
    # odd edges of the full set are the two outer edges
    assert T.odd_edges((1, 2, 3, 4)) == frozenset({(1, 2), (3, 4)})
    assert pf_formula(T, (1, 2, 3, 4)) == tp(F(7, 2))
    assert pf_oracle(T, (1, 2, 3, 4)) == tp(F(7, 2))


def test_pf_odd_size_rejected():
    T = path_tree(4)
    with pytest.raises(ValueError):
        pf_formula(T, (1, 2, 3))
    with pytest.raises(ValueError):
        pf_oracle(T, (1, 2, 3))


def test_pf_rejects_bad_order_with_edge():
    T = path_tree(4)
    with pytest.raises(NotNicelyOrderedError) as ei:
        pf_formula(T, (1, 3, 2, 4))
    assert ei.value.edge == (2, 3)
    assert ei.value.count == 4


def test_bad_order_oracle_differs():
    # the expansion under (1,3,2,4) picks up an extra term
    T = path_tree(4)
    got = pf_oracle(T, (1, 3, 2, 4))
    assert got == 2 * tp(4) - tp(2)
    assert got != tp(2)


def test_pf_formula_matches_oracle_sweep():
    for seed in range(10):
        T = random_tree(7, seed=seed, weights="rational" if seed % 2 else "unit")
        verts = T.vertices
        for r in (0, 2, 4, 6):
            for X in itertools.combinations(verts, r):
                order = T.nice_order(X)
                assert pf_formula(T, order) == pf_oracle(T, order)


def test_nonnice_orders_mostly_differ():
    # gather reorderings that break niceness and check the monomial really
    # fails for them; at least a handful must exist on a 6-path
    T = path_tree(6)
    bad = 0
    for X in itertools.permutations((1, 2, 3, 4, 5, 6), 4):
        ok, _ = T.is_nicely_ordered(X)
        if ok:
            continue
        odd_w = sum((T.weight(e) for e in T.odd_edges(X)), F(0))
        if pf_oracle(T, X) != tp(odd_w):
            bad += 1
    assert bad >= 20


@st.composite
def trees_and_orders(draw):
    """A unit, rational or half-integer tree on 1..8 vertices, and a
    shuffled order of its vertices."""
    n = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 10 ** 6))
    mode = draw(st.sampled_from(["unit", "rational", "half"]))
    T = random_tree(n, seed=seed, weights="unit" if mode == "half" else mode)
    if mode == "half":
        halves = draw(st.lists(st.integers(1, 4), min_size=n - 1, max_size=n - 1))
        T = Tree(
            [(u, v, F(k, 2)) for (u, v, _), k in zip(T.edges(), halves)],
            vertices=T.vertices,
        )
    return T, tuple(draw(st.permutations(T.vertices)))


@settings(max_examples=60, deadline=None)
@given(trees_and_orders())
# distances over _den = 2 that share its factor 2 (d(1, 3) = 2 / 2)
@example((Tree([(1, 2, F(1, 2)), (2, 3, F(1, 2)), (2, 4, 1)]), (3, 1, 4, 2)))
def test_pf_table_matches_the_oracle_on_every_even_sub_tuple(case):
    T, shuffled = case
    nice = T.nice_order(T.vertices)
    rep = represent_odd(T)
    where = {v: i for i, v in enumerate(rep.order)}
    for order in (nice, shuffled):
        table, _, _, read = pf_table(T, order)
        want = [X for r in range(0, T.n + 1, 2) for X in itertools.combinations(order, r)]
        assert set(table) == set(want)
        for X in want:
            oracle = pf_oracle(T, X)
            matrix = pfaffian(build_skew_matrix(T, X))
            assert read_back(T, read, table[X]) == oracle == matrix
            assert str(oracle) == str(matrix)
            # value_pair against the Pfaffian of rep's block on the PolyMatrix
            block = pfaffian(rep.matrix.principal_submatrix(sorted(where[x] for x in X)))
            got, expected = rep.value_pair(X), _value_pair(block)
            assert got == expected and str(got) == str(expected)
            if order == nice:
                # a restriction of a depth-first order is nicely ordered
                assert T.is_nicely_ordered(X)[0]
                assert read_back(T, read, table[X]) == pf_formula(T, X)


@settings(max_examples=60, deadline=None)
@given(trees_and_orders())
# rational weights (_den 12) and labels with gaps
@example((random_tree(8, seed=4, weights="rational"), (5, 1, 8, 3, 2, 7, 4, 6)))
@example((Tree([(3, 9, F(1, 2)), (9, 6, F(2, 3)), (9, 12, 1), (12, 15, F(5, 4))]), (15, 3, 12, 6, 9)))
def test_pf_formula_table_is_the_monomial_where_nicely_ordered(case):
    T, shuffled = case
    for order in (T.nice_order(T.vertices), shuffled):
        table = pf_formula_table(T, order)
        oracle, unit, shift, _ = pf_table(T, order)
        assert list(table) == list(oracle)
        for X, w in table.items():
            if T.is_nicely_ordered(X)[0]:
                assert monomial(T, w) == pf_formula(T, X)
                assert unit << shift * w == oracle[X]
            else:
                assert w is None


def test_pf_formula_table_reads_the_same_weights_from_both_sources(monkeypatch):
    # over every vertex of a tree (fewer edges than points) the odd edges'
    # weights come from one table of every edge mask's sum; with that table
    # withheld, and over 4 points of a 30-vertex tree, from T._weight_num
    built = []
    mask_sums = pfaffian_module._mask_sums
    monkeypatch.setattr(pfaffian_module, "_mask_sums", lambda T: built.append(T) or mask_sums(T))
    trees = (
        random_tree(9, seed=4, weights="rational"),
        Tree([(3, 9, F(1, 2)), (9, 6, F(2, 3)), (9, 12, 1), (12, 15, F(5, 4))]),
        random_tree(10, seed=2),
    )
    for T in trees:
        for order in (T.nice_order(T.vertices), T.vertices[::-1]):
            table = pf_formula_table(T, order)
            assert built.pop() is T
            with monkeypatch.context() as m:
                m.setattr(pfaffian_module, "_mask_sums", lambda T: None)
                assert pf_formula_table(T, order) == table
    T = random_tree(30, seed=1, weights="rational")
    order = T.vertices[3:28:7]
    table = pf_formula_table(T, order)
    assert not built and len(table) == 8
    for X, w in table.items():
        if T.is_nicely_ordered(X)[0]:
            assert monomial(T, w) == pf_formula(T, X)
        else:
            assert w is None


def test_pf_table_bits_hold_at_17_vertices():
    # a Pfaffian over 2k points sums one signed monomial per perfect
    # matching: (2k - 1)!! of them, counted here by pairing the first point
    def matchings(m):
        return 1 if m == 0 else (m - 1) * matchings(m - 2)

    assert [pf_bits(n) for n in (2, 9, 10, 16, 17)] == [8, 8, 16, 24, 24]
    assert matchings(16) == 2_027_025 < 1 << 23  # 16 of 17 points
    assert matchings(8) == 105 < 1 << 7 <= matchings(10) == 945  # 8 bits hold 9 points, not 10
    # pf_table packs a 17-point order at pf_bits(17), not at 16 bits
    T = random_tree(17, seed=12)
    order = T.nice_order(T.vertices)
    table, unit, shift, read = pf_table(T, order)
    assert (unit, shift) == (1, 24)
    for X in list(table)[::4099]:
        assert read_back(T, read, table[X]) == pf_oracle(T, X)
        assert read(table[X]) == _unpack(24, table[X])


# weights over a large denominator: den 971,230,541 and sparse distances
SPARSE8 = Tree([
    (1, 2, F(5, 991)), (2, 3, F(7, 991)), (3, 4, F(8, 997)), (3, 5, F(2, 997)),
    (2, 6, F(8, 997)), (3, 7, F(7, 983)), (7, 8, F(5, 991)),
])


def sparse_star(p):
    """A 9-leaf star whose first edge weighs 1/p and the others 1."""
    return Tree([(0, 1, F(1, p))] + [(0, i, 1) for i in range(2, 10)])


@st.composite
def skew_cases(draw, max_n=10):
    """A tree on 2..max_n vertices and a shuffled order of all of them but
    the last when n is odd (mostly not nicely ordered).  The tree is a unit or rational random
    tree, or one whose edge weights k / q are over q = 1 and one p of 997
    and 2,310, whose distances are few and far apart."""
    n = draw(st.integers(2, max_n))
    seed = draw(st.integers(0, 10 ** 6))
    mode = draw(st.sampled_from(["unit", "rational", 997, 2310]))
    T = random_tree(n, seed=seed, weights=mode if isinstance(mode, str) else "unit")
    if not isinstance(mode, str):
        nums = draw(st.lists(st.integers(1, 9), min_size=n - 1, max_size=n - 1))
        dens = draw(st.lists(st.sampled_from([1, mode]), min_size=n - 1, max_size=n - 1))
        T = Tree(
            [(u, v, F(k, q)) for (u, v, _), k, q in zip(T.edges(), nums, dens)],
            vertices=T.vertices,
        )
    shuffled = draw(st.permutations(T.vertices))
    return T, tuple(shuffled[: n - n % 2])


def refuse(what):
    def run(*args):
        raise AssertionError(f"reached {what}")
    return run


@settings(max_examples=80, deadline=None)
@given(skew_cases())
@example((SPARSE8, (1, 2, 3, 4, 5, 7, 8, 6)))
@example((sparse_star(997), (3, 1, 0, 5, 2, 4)))
@example((random_tree(10, seed=3, weights="rational"), (4, 9, 1, 7, 2, 10, 6, 3, 8, 5)))
def test_pf_oracle_is_the_pfaffian_of_the_skew_matrix(case):
    # the tree-side expansions share no code with poly.pfaffian's maps: each
    # side runs with the other's expansion made to raise (poly's, and the
    # kernel product it runs on, wherever the expansion is bound)
    T, X = case
    with mock.patch.multiple(
        poly_module,
        _pfaffian_maps=refuse("poly's maps expansion"),
        _zmul=refuse("poly's maps expansion"),
    ):
        got = pf_oracle(T, X)
    with mock.patch.multiple(
        pfaffian_module,
        _pf_top_down=refuse("the top-down loop"),
        _pf_bottom_up=refuse("the table loop"),
    ):
        want = pfaffian(build_skew_matrix(T, X))
    assert got == want
    assert str(got) == str(want)


def refuse_packed(patch):
    """Make every packed int of the Pfaffian forms raise: the unpacking and
    the shift rows scaled by some B > 1."""
    shift_rows = pfaffian_module._shift_rows
    patch.setattr(pfaffian_module, "_unpack", refuse("packed ints"))
    patch.setattr(
        pfaffian_module,
        "_shift_rows",
        lambda dist, shift: refuse("packed ints")() if shift > 1 else shift_rows(dist, shift),
    )


def skew_maps_pack(T, xs):
    """The form rule on the skew maps themselves: poly._dense at
    _TREE_DENSE_BITS and B = pf_bits(|xs|), the rule _pf_form reads off the
    distance rows."""
    return _dense(_skew_maps(T, xs)[0], pf_bits(len(xs)), _TREE_DENSE_BITS)


def test_pf_oracle_packs_exactly_the_dense_skew_matrices(monkeypatch):
    # pf_oracle takes the form _pf_form picks: ints on random trees, whose
    # rational weights are over den 12, shifted maps on sparse distances
    dense = [random_tree(n, seed=s, weights=w) for n in (10, 14) for s in range(6) for w in ("unit", "rational")]
    assert {T._den for T in dense} >= {1, 12}
    sparse = [SPARSE8, sparse_star(997)]
    with monkeypatch.context() as patch:
        patch.setattr(pfaffian_module, "_Shifted", refuse("shifted maps"))
        for T in dense:
            assert skew_maps_pack(T, T.vertices)
            assert _pf_form(T, T.vertices)[1:3] == (1, pf_bits(T.n))
            order = T.nice_order(T.vertices)
            assert pf_oracle(T, order) == pf_formula(T, order)
    with monkeypatch.context() as patch:
        refuse_packed(patch)
        for T in sparse:
            assert not skew_maps_pack(T, T.vertices)
            assert _pf_form(T, T.vertices)[2] == 1
            order = T.nice_order(T.vertices[: T.n - T.n % 2])
            assert pf_oracle(T, order) == pf_formula(T, order)


@settings(max_examples=80, deadline=None)
@given(skew_cases(max_n=17))
@example((SPARSE8, (1, 2, 3, 4, 5, 7, 8, 6)))
@example((sparse_star(997), (3, 1, 0, 5, 2, 4)))
@example((random_tree(2, seed=0), (2, 1)))
# one distance 150 at B = 8: 1,200 bits for one exponent stays on the maps,
# as would not 1,200 for two, were the zero diagonal counted
@example((Tree([(1, 2, 150)]), (1, 2)))
def test_pf_form_reads_the_form_rule_off_the_distance_rows(case):
    # _pf_form judges the off-diagonal distances as one row of monomials,
    # and decides as the rule does on the skew maps over the same tuple
    T, X = case
    _, unit, shift, _ = _pf_form(T, X)
    packs = skew_maps_pack(T, X)
    assert (unit, shift) == ((1, pf_bits(len(X))) if packs else (_Shifted({0: 1}), 1))


def test_represent_odd_on_a_sparse_tree_stays_on_the_maps(monkeypatch):
    # one packed table over SPARSE8 would hold ints of about den * distance
    # * B bits; represent-odd's check runs the one table loop on shifted maps
    # instead, and every one of its values is the monomial
    tables = []
    bottom_up = pfaffian_module._pf_bottom_up
    rep = represent_odd(SPARSE8)
    with monkeypatch.context() as patch:
        patch.setattr(pfaffian_module, "_pf_bottom_up", lambda *args: tables.append(args) or bottom_up(*args))
        refuse_packed(patch)
        formula, misses = cli._pf_misses(SPARSE8, rep.order)
    assert len(tables) == 1 and misses == {}
    want = [X for r in range(0, 9, 2) for X in itertools.combinations(rep.order, r)]
    assert sorted(formula) == sorted(want) and len(formula) == 128
    for X in formula:
        value = SPARSE8.odd_weight(X)
        assert rep.value_pair(X) == (value, -value)  # one pf_oracle, no shared memo


@settings(max_examples=40, deadline=None)
@given(skew_cases(max_n=8))
def test_both_loops_give_one_map_on_both_forms(case):
    # packed at B = pf_bits(|X|) and on shifted maps, the top-down expansion
    # of every block and the one table over X read the same map (at most 8
    # points: packed, a den-2310 tree's ints run to about a million bits)
    T, X = case
    bits = pf_bits(len(X))
    forms = (
        (lambda xs: _shift_rows(T._distance_ints(xs)[0], bits), 1, functools.partial(_unpack, bits)),
        (lambda xs: _shift_rows(T._distance_ints(xs)[0], 1), _Shifted({0: 1}), dict),
    )
    tables = [
        {Y: read(value) for Y, value in _pf_bottom_up(X, rows(X), unit).items()}
        for rows, unit, read in forms
    ]
    assert tables[0] == tables[1]
    assert list(tables[0]) == list(tables[1])
    for Y, value in tables[0].items():
        for rows, unit, read in forms:
            assert read(_pf_top_down(rows(Y), unit)) == value


def test_build_skew_matrix_entries_are_the_distance_monomials(entry_trees):
    seeded = [random_tree(6, seed=s, weights="rational" if s % 2 else "unit") for s in range(12)]
    for T in entry_trees + seeded:
        order = T.vertices[::-1]
        m = build_skew_matrix(T, order)
        for i, a in enumerate(order):
            for j, b in enumerate(order):
                want = tp(T.dist(a, b)) if i < j else -tp(T.dist(a, b))
                want = ExactPoly.zero() if i == j else want
                assert m[i, j] == want
                assert str(m[i, j]) == str(want)


def test_build_skew_matrix_shape():
    T = path_tree(3)
    m = build_skew_matrix(T, (1, 2, 3))
    for i in range(3):
        assert m[i, i].is_zero()
        for j in range(3):
            assert m[i, j] == -m[j, i]
    assert m[0, 2] == tp(2)
    assert m[2, 0] == -tp(2)
