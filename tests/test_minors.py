"""Forest-sum minors against the direct determinant oracle.

The oracle (determinant of the literal matrix) was implemented and spot
valued first; formula results must match it exactly, term by term.
"""

import functools
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from treeminor import minors, poly
from treeminor.cyclekernel import ENUMERATION_CAP, cycle_sums
from treeminor.minors import (
    build_matrix,
    forest_degree_product,
    minor_formula,
    minor_formula_table,
    minor_leading,
    minor_leading_table,
    minor_oracle,
    minor_table,
    signature,
    spanned_forests,
)
from treeminor.pfaffian import pf_formula, pf_formula_table, pf_oracle, pf_table
from treeminor.poly import (
    ExactPoly,
    _dense,
    _integer_rows,
    _packed_values,
    _sylvester,
    _top_digit,
    _unpack,
    _unpack_even,
    _word_for,
    det,
    det_permutation,
)
from treeminor.tree import Tree, random_tree

F = Fraction
tp = ExactPoly.t_power


def path_tree(n, w=1):
    return Tree([(i, i + 1, F(w)) for i in range(1, n)])


def star_tree(k):
    return Tree([(0, i) for i in range(1, k + 1)])


def half_integer_tree(n, seed):
    """The shape of random_tree(n, seed) with weights in {1/2, 1, 3/2, 2}."""
    rng = random.Random(seed)
    return Tree(
        [(u, v, F(rng.randint(1, 4), 2)) for u, v, _ in random_tree(n, seed=seed).edges()],
        vertices=range(1, n + 1),
    )


def half_power_maps(dist):
    """The half powers of a distance block as the integer maps {e_ij: 1}
    that poly's map-reading helpers take, beside the parities."""
    rows, parity = minors._half_powers(dist)
    return [[{e: 1} for e in row] for row in rows], parity


def forest_sum(T, X):
    """The signed spanned-forest sum, term by term from the enumerator."""
    xs = frozenset(X)
    terms = []
    for f in spanned_forests(T, xs):
        coeff = forest_degree_product(f.edges, xs)
        if (len(xs) + f.components) % 2:
            coeff = -coeff
        terms.append((2 * f.weight, F(coeff)))
    return ExactPoly.from_terms(terms)


def test_spanned_forests_path3_pair():
    T = path_tree(3)
    forests = spanned_forests(T, [1, 3])
    assert len(forests) == 2
    by_edges = {f.edges: f for f in forests}
    empty = by_edges[frozenset()]
    assert empty.isolated == frozenset({1, 3})
    assert empty.components == 2
    full = by_edges[frozenset({(1, 2), (2, 3)})]
    assert full.isolated == frozenset()
    assert full.components == 1
    assert full.weight == 2
    assert full.vertices == frozenset({1, 2, 3})


def test_spanned_forest_invariants_random():
    for seed in range(8):
        T = random_tree(6, seed=seed)
        for r in range(1, 7):
            for X in itertools.combinations(T.vertices, r):
                xs = frozenset(X)
                for f in spanned_forests(T, X):
                    assert xs <= f.vertices
                    deg = {}
                    for u, v in f.edges:
                        deg[u] = deg.get(u, 0) + 1
                        deg[v] = deg.get(v, 0) + 1
                    for v, d in deg.items():
                        if d == 1:
                            assert v in xs
                    assert f.isolated == xs - deg.keys()


def test_minor_formula_frozen_small():
    T = path_tree(3)
    assert minor_formula(T, [1, 3]) == ExactPoly.one() - tp(4)
    S = star_tree(3)
    expected = ExactPoly.from_terms([(0, 1), (4, -3), (6, 2)])
    assert minor_formula(S, [1, 2, 3]) == expected


def test_minor_singleton_is_one():
    T = path_tree(4)
    assert minor_formula(T, [2]) == ExactPoly.one()
    assert minor_oracle(T, [2]) == ExactPoly.one()


def test_empty_x_rejected_by_every_minor_path():
    T = path_tree(3)
    for f in (minor_formula, minor_leading, minor_oracle):
        with pytest.raises(ValueError, match="X must be nonempty"):
            f(T, [])


@st.composite
def trees_and_subsets(draw):
    n = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 10 ** 6))
    mode = draw(st.sampled_from(["unit", "rational", "half"]))
    T = half_integer_tree(n, seed) if mode == "half" else random_tree(n, seed=seed, weights=mode)
    X = draw(st.lists(st.sampled_from(T.vertices), min_size=1, max_size=n, unique=True))
    return T, X


@st.composite
def trees_and_sizes(draw):
    n = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 10 ** 6))
    mode = draw(st.sampled_from(["unit", "rational", "half"]))
    T = half_integer_tree(n, seed) if mode == "half" else random_tree(n, seed=seed, weights=mode)
    return T, draw(st.integers(1, n))


def word_bits_for(T, k):
    """The B a sweep over T's sets of up to k vertices compares at."""
    return _word_for(max(math.factorial(min(k, T.n)), minors._formula_norm_bound(T)))


def unpacked(T, bits, value):
    """The polynomial a minor table's value packs at u = t^(2/T._den) =
    2^bits, read back over t with doubled exponents."""
    return ExactPoly._make(T._den, 1, _unpack_even(bits, value))


def leading_ints(T, X):
    """minor_leading as (exponent over u = t^(2/T._den), coefficient) ints:
    the exponent times T._den is even, and halved."""
    e, c = minor_leading(T, X)
    assert (e * T._den).denominator == c.denominator == 1
    assert int(e * T._den) % 2 == 0
    return int(e * T._den) // 2, int(c)


def gapped_tree(n, seed, weights):
    """random_tree(n, seed)'s shape on the labels 3, 6, 9, ..."""
    base = random_tree(n, seed=seed, weights=weights)
    return Tree([(3 * u, 3 * v, w) for u, v, w in base.edges()])


def sparse_tree(n, seed):
    """random_tree(n, seed)'s shape, unit weights but one edge of 1/997."""
    (u, v, _), *rest = random_tree(n, seed=seed).edges()
    return Tree([(u, v, F(1, 997)), *rest])


ORDER_TREES = (
    random_tree(9, seed=5),  # unit weights: the packed form
    random_tree(9, seed=3, weights="rational"),  # _den 12: packed at u = t^(2/12)
    gapped_tree(8, 3, "rational"),
    sparse_tree(9, 3),  # _den 997: the maps form
)


@settings(max_examples=60, deadline=None)
@given(trees_and_sizes())
# unit weights, rational ones (_den 12), labels with gaps and an edge of
# 1/997 (the maps form)
@example((random_tree(8, seed=3), 8))
@example((random_tree(8, seed=4, weights="rational"), 8))
@example((gapped_tree(7, 2, "rational"), 4))
@example((sparse_tree(8, 4), 8))
def test_minor_table_holds_every_small_subset_and_matches_the_oracle(case):
    T, k = case
    bits = word_bits_for(T, k)
    table = minor_table(T, k, bits)
    lead = minor_leading_table(T, k)
    want = [X for r in range(1, k + 1) for X in itertools.combinations(T.vertices, r)]
    assert set(table) == set(want)
    assert list(lead) == want  # in combinations order
    for X in want:
        assert unpacked(T, bits, table[X]) == minor_oracle(T, X)
        # the top signed digit of the packed minor is its leading term
        assert _top_digit(bits, table[X]) == lead[X] == leading_ints(T, X)


def test_the_rational_example_walks_the_maps_form():
    # minor_table walks the half exponents (u = t^(2/_den)), which pack the
    # _den-12 examples that walked the maps form at t^(1/_den); an edge of
    # 1/997 keeps the walk on the maps
    def packs(T, k):
        _, dist, _ = minors._central_block(T, T.vertices)
        maps, _ = half_power_maps(dist)
        return _dense(maps, word_bits_for(T, k))

    rational = (random_tree(8, seed=4, weights="rational"), 8), *((T, 5) for T in ORDER_TREES[1:3])
    for T, k in rational:
        maps, _ = minors._power_maps(*T._distance_ints(T.vertices))
        assert T._den == 12 and not _dense(maps, word_bits_for(T, k))
        assert packs(T, k)
    for T, k in ((sparse_tree(8, 4), 8), (ORDER_TREES[3], 5)):
        assert T._den == 997 and not packs(T, k)


def test_minor_table_refuses_too_few_bits():
    # Hadamard bounds the minors on 9 rows of monomials by 9^4.5 = 19,683,
    # which needs 15 bits and a sign: 16 hold them, the word below does not
    T = random_tree(9, seed=1)
    assert word_bits_for(T, 9) == 24  # 9! = 362,880 needs 20 bits
    _, dist, _ = minors._central_block(T, T.vertices)
    assert poly._word_bits(half_power_maps(dist)[0], 9) == 16
    with pytest.raises(ValueError, match="8 bits do not hold the minors on 9 rows"):
        minor_table(T, 9, 8)
    table = minor_table(T, 9, 16)
    assert unpacked(T, 16, table[tuple(T.vertices)]) == minor_oracle(T, T.vertices)


def test_the_top_digit_takes_back_a_borrow():
    # the path 1-2-3: 1 - 2 t^2 + t^4 = 1 - 2 u + u^2 at u = t^2, a top 1
    # above a negative digit
    T = path_tree(3)
    bits = word_bits_for(T, 3)
    value = minor_table(T, 3, bits)[(1, 2, 3)]
    assert unpacked(T, bits, value) == 1 - 2 * tp(2) + tp(4)
    assert value.bit_length() == 2 * bits  # the borrow: the top word is 0
    assert _top_digit(bits, value) == (2, 1) == leading_ints(T, (1, 2, 3))
    for top, below in ((1, -5), (-1, 5), (-1, -5), (2, -1), (127, -127), (-127, 127)):
        value = (top << 3 * 8) + (below << 2 * 8) + (-3 << 8)
        assert _unpack(8, value) == {3: top, 2: below, 1: -3}
        assert _top_digit(8, value) == (3, top)
    assert _top_digit(8, -7) == (0, -7)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 9),
    st.integers(0, 10 ** 6),
    st.sampled_from(["unit", "rational"]),
    st.data(),
)
def test_minor_formula_table_is_the_per_subset_formula(n, seed, mode, data):
    T = random_tree(n, seed=seed, weights=mode)
    # m = 1, m < n, m = n and a cap above n
    m = data.draw(st.sampled_from([1, max(n - 2, 1), n, n + 3]))
    bits = word_bits_for(T, m)
    table = minor_formula_table(T, m, bits)
    assert list(table) == list(itertools.chain.from_iterable(
        itertools.combinations(T.vertices, r) for r in range(1, min(m, n) + 1)
    ))
    assert set(table) == set(minor_table(T, m, bits))
    bound = minors._formula_norm_bound(T)
    for X, (value, norm) in table.items():
        # the carried bound is a 1-norm bound, and stays under the a-priori one
        got = minor_formula(T, X)
        assert sum(abs(c) for _, c in got.terms()) <= norm <= bound < 1 << (bits - 1)
        assert unpacked(T, bits, value) == got


def test_minor_formula_table_on_trees_with_gaps_in_their_labels():
    # labels 3, 6, 9, ...: the table's masks follow the sorted labels
    for seed in range(6):
        T = gapped_tree(7, seed, "rational")
        for m in (2, 7):
            bits = word_bits_for(T, m)
            oracle = minor_table(T, m, bits)
            for X, (value, _) in minor_formula_table(T, m, bits).items():
                assert value == oracle[X]
                assert unpacked(T, bits, value) == minor_formula(T, X) == minor_oracle(T, X)


@pytest.mark.parametrize("T", ORDER_TREES, ids=["unit", "rational", "gapped", "sparse"])
def test_the_oracles_do_not_depend_on_the_order_they_walk(T):
    # both oracles eliminate central-first; a simultaneous permutation of
    # rows and columns leaves every principal minor as it is
    rng = random.Random(7)
    for r in (2, 5, T.n):
        for _ in range(3):
            X = rng.sample(T.vertices, r)
            shuffled = rng.sample(X, r)
            want = det(build_matrix(T, X))
            for order in (X, X[::-1], shuffled):
                got = minor_oracle(T, order)
                assert got == want and str(got) == str(want)
    m = 5
    bits = word_bits_for(T, m)
    table = minor_table(T, m, bits)
    assert all(list(X) == sorted(X) for X in table)
    # the reference: one walk in label order, the parities taken from the
    # smallest label
    maps, parity = half_power_maps(T._distance_ints(T.vertices)[0])
    odd = dict(zip(T.vertices, parity))
    walked = _sylvester(_packed_values(maps, m, bits), T.vertices, m)
    assert table == {X: v >> bits * sum(odd[x] for x in X) for X, v in walked.items()}


@st.composite
def oracle_cases(draw):
    mode = draw(st.sampled_from(["unit", "rational", "half", "gapped"]))
    n = draw(st.integers(2 if mode == "gapped" else 1, 9))
    seed = draw(st.integers(0, 10 ** 6))
    if mode == "half":
        T = half_integer_tree(n, seed)
    elif mode == "gapped":
        T = gapped_tree(n, seed, "rational")
    else:
        T = random_tree(n, seed=seed, weights=mode)
    X = draw(st.lists(st.sampled_from(T.vertices), min_size=1, max_size=n, unique=True))
    return T, draw(st.permutations(X))


@settings(max_examples=80, deadline=None)
@given(oracle_cases())
# |X| = 1 and 2, and a gapped rational tree in shuffled order
@example((random_tree(6, seed=2, weights="rational"), [4]))
@example((half_integer_tree(6, 3), [5, 2]))
@example((gapped_tree(8, 1, "rational"), [21, 3, 12, 9, 24, 6]))
def test_minor_oracle_matches_the_untransformed_walk_and_the_permutation_sum(case):
    # the oracle eliminates the half powers of (t^{d_ij}); det walks
    # (t^{d_ij}) as build_matrix gives it, and det_permutation sums its
    # permutations
    T, X = case
    got = minor_oracle(T, X)
    refs = [det(build_matrix(T, X))]
    if len(X) <= 6:
        refs.append(det_permutation(build_matrix(T, X)))
    for want in refs:
        assert got == want and str(got) == str(want)


def test_the_oracle_packs_dense_half_power_matrices_and_keeps_sparse_ones_on_the_maps():
    # which form minor_oracle builds: packed ints (unit 1) or the maps
    built = []

    class Built(Exception):
        pass

    def record(form):
        built.append(form.one)
        raise Built  # the choice is all this test reads; no walk runs

    def form_of(T, X):
        with mock.patch.object(minors, "_bareiss", record), pytest.raises(Built):
            minor_oracle(T, X)
        return "packed" if built.pop() == 1 else "maps"

    star = Tree([(0, 1, F(1, 997))] + [(0, i) for i in range(2, 10)])
    rng = random.Random(0)
    den2310 = Tree([(rng.randint(1, v - 1), v, F(rng.randint(1, 2310), 2310)) for v in range(2, 25)])
    assert den2310._den == 2310
    assert form_of(star, range(1, 10)) == form_of(den2310, den2310.leaves()) == "maps"
    # a minor-large kind: 8 random vertices of an 18-vertex rational tree,
    # 12 spanned edges over the denominator 12
    T = random_tree(18, seed=1, weights="rational")
    X = [2, 3, 5, 8, 9, 12, 13, 14]
    assert len(T.spanned_subtree(X)[1]) == 12 and T._den == 12
    rational30 = random_tree(30, seed=1, weights="rational")
    assert len(rational30.leaves()) == 11
    assert form_of(T, X) == form_of(rational30, rational30.leaves()) == "packed"


def test_the_half_powers_refuse_a_block_without_a_parity_colouring():
    # distances 1, 1, 1 close a walk of odd weight: no p makes every
    # d_ij + p_i + p_j even, so the minors are not polynomials in u
    with pytest.raises(ValueError, match="odd weight"):
        minors._half_powers([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    rows, parity = minors._half_powers([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    assert parity == [0, 1, 0]
    assert rows == [[0, 1, 1], [1, 1, 2], [1, 2, 0]]


def refuse(what):
    def run(*args, **kwargs):
        raise AssertionError(f"reached {what}")
    return run


def den_tree(n, seed, den):
    """random_tree(n, seed)'s shape with weights k / den, k in 1..den."""
    rng = random.Random(seed)
    return Tree([(u, v, F(rng.randint(1, den), den)) for u, v, _ in random_tree(n, seed=seed).edges()])


def sparse16():
    """random_tree(16, seed=3)'s edges weighted k/p, p in {991, 997, 983}."""
    rng = random.Random(16)
    return Tree([
        (u, v, F(rng.randint(1, 9), rng.choice((991, 997, 983))))
        for u, v, _ in random_tree(16, seed=3).edges()
    ])


def one_edge_star(p):
    """The 9-leaf star with one edge 1/p."""
    return Tree([(0, 1, F(1, p))] + [(0, i) for i in range(2, 10)])


@st.composite
def form_cases(draw):
    mode = draw(st.sampled_from(["unit", "rational", "997", "2310"]))
    n = draw(st.integers(1, 9))
    seed = draw(st.integers(0, 10 ** 6))
    if mode == "997":
        T = sparse_tree(n, seed) if n > 1 else random_tree(1)
    elif mode == "2310":
        T = den_tree(n, seed, 2310) if n > 1 else random_tree(1)
    else:
        T = random_tree(n, seed=seed, weights=mode)
    X = draw(st.lists(st.sampled_from(T.vertices), min_size=1, max_size=n, unique=True))
    return T, X


@settings(max_examples=80, deadline=None)
@given(form_cases())
@example((den_tree(9, 4, 2310), [1, 3, 5, 7, 9]))
@example((sparse_tree(9, 2), list(range(1, 10))))
def test_the_formula_and_the_oracle_share_no_code(case):
    # each side runs with the other's walk made to raise: the formula with
    # the Bareiss walk, its forms, its step, the half powers and the
    # distance rows, the oracle with the forest DP and the maps' product
    T, X = case
    with mock.patch.multiple(
        poly,
        _bareiss=refuse("Bareiss"),
        _kernel=refuse("the kernel"),
        _monomial_kernel=refuse("the monomial kernel"),
        _zstep=refuse("a step"),
    ), mock.patch.multiple(
        minors,
        _bareiss=refuse("Bareiss"),
        _monomial_kernel=refuse("the monomial kernel"),
        _half_powers=refuse("the half powers"),
    ), mock.patch.object(Tree, "_distance_ints", refuse("the distance rows")):
        formula = minor_formula(T, X)
    with mock.patch.multiple(
        minors, _forest_merges=refuse("the forest DP"), _forest_values=refuse("the forest DP")
    ), mock.patch.object(poly._Shifted, "__mul__", refuse("the maps' product")):
        oracle = minor_oracle(T, X)
    assert formula == oracle and str(formula) == str(oracle)


@settings(max_examples=80, deadline=None)
@given(form_cases(), st.booleans())
@example((den_tree(9, 4, 2310), [1, 3, 5, 7, 9]), True)
@example((random_tree(9, seed=2), list(range(1, 10))), False)
def test_both_forms_of_the_formula_give_one_polynomial(case, packs):
    # minor_formula forced onto packed ints or onto the maps; the bound it
    # packs under is a 1-norm bound, at most the table's a-priori one
    T, X = case
    with mock.patch.object(minors, "_dense", lambda *args: packs):
        got = minor_formula(T, X)
    want = minor_oracle(T, X)
    assert got == want and str(got) == str(want)
    _, bound, _ = minors._forest_merges(T, X)
    assert sum(abs(c) for _, c in got.terms()) <= bound <= minors._formula_norm_bound(T)


def test_the_formula_packs_dense_sets_and_keeps_sparse_ones_on_the_maps():
    # which form minor_formula runs its DP on: packed ints (unit 1) or the
    # maps; no DP runs
    units = []

    class Chosen(Exception):
        pass

    def record(merges, unit, scale):
        units.append(unit)
        raise Chosen

    def form_of(T, X):
        with mock.patch.object(minors, "_forest_values", record), pytest.raises(Chosen):
            minor_formula(T, X)
        return "packed" if units.pop() == 1 else "maps"

    dense = random_tree(20, seed=1), random_tree(18, seed=1, weights="rational")
    assert [T._den for T in dense] == [1, 12]
    for T in dense:
        assert form_of(T, T.leaves()) == form_of(T, T.vertices) == "packed"
    star = Tree([(0, 1, F(1, 997))] + [(0, i) for i in range(2, 10)])
    den2310, sparse = den_tree(30, 0, 2310), sparse16()
    assert den2310._den == 2310 and sparse._den == 971_230_541
    huge = Tree([(1, 2, F(10 ** 4299))])
    for T, X in ((star, range(1, 10)), (den2310, den2310.leaves()), (sparse, sparse.leaves()),
                 (sparse, sparse.vertices), (huge, [1, 2])):
        assert form_of(T, X) == "maps"
    # on the maps, a weight of 4,300 digits costs two terms
    assert minor_formula(huge, [1, 2]) == 1 - tp(2 * 10 ** 4299)


def test_the_formula_packs_at_the_bound_it_carries():
    # a 16-leaf star, its centre outside X: the carried bound is
    # 2^16 + 16 2^15, so B = 24, and the coefficient C(16, 9) 8 of u^9 needs
    # all of it: at 16 bits it would not fit a signed digit
    k = 16
    T = star_tree(k)
    X = list(range(1, k + 1))
    _, bound, _ = minors._forest_merges(T, X)
    assert bound == 2 ** k + k * 2 ** (k - 1) and _word_for(bound) == 24
    got = minor_formula(T, X)
    # each forest keeps j >= 2 of the star's edges: (-t^2)^j (1 - j)
    want = ExactPoly.from_terms(
        (2 * j, math.comb(k, j) * (1 - j) * (-1) ** j) for j in range(k + 1) if j != 1
    )
    assert got == want == minor_oracle(T, X)
    assert max(abs(c) for _, c in got.terms()) >= 1 << 15


def test_a_pass_through_carries_its_childs_bound_unchanged():
    # a 40-vertex path rooted at 1, X its two ends: each of the 38 vertices
    # between passes (out_c, -x in_c) up, so the carried bound stays at the
    # (1, 1) of the end 40 until the end 1 closes it to 2; the table's bound
    # adds 2 |in_c| at each of them, 2 + 2 38 = 78
    T = path_tree(40)
    X = [1, 40]
    merges, bound, judged = minors._forest_merges(T, X)
    assert len(merges) == 40 and (bound, judged) == (2, 78)
    scales = []
    values = minors._forest_values

    def record(merges, unit, scale):
        scales.append((unit, scale))
        return values(merges, unit, scale)

    with mock.patch.object(minors, "_forest_values", record):
        got = minor_formula(T, X)
    assert scales == [(1, 8)]  # packed at B = 8
    assert got == 1 - tp(78) == minor_oracle(T, X)


def test_each_side_judges_density_at_the_wider_word():
    # the oracle packs at Hadamard's word and the formula at its exactly
    # carried bound, but both judge density at the wider word that
    # _TREE_DENSE_BITS was measured at (|X|! and minor_formula_table's
    # bound); judged at the narrow word, these inputs would pack, and the
    # maps serve them faster
    forms = []

    class Built(Exception):
        pass

    def record(form):
        forms.append(form)
        raise Built  # the choice is all this reads; no walk runs

    def oracle_form(T, X):
        with mock.patch.object(minors, "_bareiss", record), pytest.raises(Built):
            minor_oracle(T, X)
        form = forms.pop()
        return ("packed", form.read.args[0]) if form.one == 1 else ("maps", None)

    for p in (53, 101):
        assert oracle_form(one_edge_star(p), range(1, 10)) == ("packed", 16)  # judged at 24
    for p in (113, 127, 167, 199):
        T = one_edge_star(p)
        _, dist, _ = minors._central_block(T, list(range(1, 10)))
        maps, _ = half_power_maps(dist)
        assert poly._word_bits(maps, 9) == 16
        assert _dense(maps, 16, poly._TREE_DENSE_BITS) == (p < 199)
        assert not _dense(maps, 24, poly._TREE_DENSE_BITS)
        assert oracle_form(T, range(1, 10)) == ("maps", None)
    # four members of a 30-vertex tree weighted k/480: the carried bound
    # needs 8 bits, the table's 16
    T, X = den_tree(30, 8, 480), [14, 16, 29, 30]
    merges, bound, judged = minors._forest_merges(T, X)
    assert (_word_for(bound), _word_for(judged)) == (8, 16)
    weights = [{w: 1} for _, _, children in merges for _, w in children]
    assert _dense([weights], 8, poly._TREE_DENSE_BITS)
    assert not _dense([weights], 16, poly._TREE_DENSE_BITS)
    units = []
    values = minors._forest_values

    def chosen(merges, unit, scale):
        units.append(unit)
        return values(merges, unit, scale)

    with mock.patch.object(minors, "_forest_values", chosen):
        got = minor_formula(T, X)
    assert units == [{0: 1}] and got == minor_oracle(T, X)


def form_parts(form):
    """A walk's form as comparable parts: rows, unit, step, and read with
    the word a packed read unpacks at."""
    read = form.read
    if isinstance(read, functools.partial):
        read = read.func, read.args
    return form.rows, form.one, form.step, read


R80 = random_tree(80, seed=1)
D2310 = den_tree(30, 0, 2310)


@settings(max_examples=80, deadline=None)
@given(form_cases())
@example((one_edge_star(53), range(1, 10)))
@example((one_edge_star(101), range(1, 10)))
@example((one_edge_star(113), range(1, 10)))
@example((one_edge_star(199), range(1, 10)))
@example((one_edge_star(997), range(1, 10)))
@example((D2310, D2310.leaves()))
@example((R80, R80.leaves()))
def test_the_oracle_form_is_the_kernels_on_its_monomials(case):
    # poly._monomial_kernel reads the form off the half powers' exponents;
    # poly._kernel, on the maps {e_ij: 1} and judging density at
    # _TREE_DENSE_BITS, must pick the same form, unit and word, and pack the
    # same ints
    T, X = case
    _, dist, _ = minors._central_block(T, T.check_subset(X))
    rows, _ = minors._half_powers(dist)
    maps = [[{e: 1} for e in row] for row in rows]
    got = poly._monomial_kernel(rows)
    dense = poly._dense
    with mock.patch.object(poly, "_dense", lambda m, bits: dense(m, bits, poly._TREE_DENSE_BITS)):
        assert form_parts(got) == form_parts(poly._kernel(maps, len(maps)))


def test_the_packed_oracle_builds_no_maps():
    # on dense leaf sets the oracle packs straight from the exponents: no
    # maps are built, bounded or packed; the p = 199 star still walks them
    dense = random_tree(16, seed=3), random_tree(30, seed=7, weights="rational"), R80
    built = []
    maps = poly._maps

    def record(m):
        built.append(m)
        return maps(m)

    with mock.patch.multiple(
        poly,
        _coefficient_bounds=refuse("the coefficient bounds"),
        _kernel=refuse("the kernel"),
        _pack=refuse("a map's packing"),
        _maps=record,
    ):
        for T in dense:
            got = minor_oracle(T, T.leaves())
            assert built == []
            assert got.leading_term() == minor_leading(T, T.leaves())
        star, X = one_edge_star(199), list(range(1, 10))
        got = minor_oracle(star, X)
    rows, _ = minors._half_powers(minors._central_block(star, X)[1])
    assert built == [[[{e: 1} for e in row] for row in rows]]
    assert got == det(build_matrix(star, X)) == minor_formula(star, X)


def test_each_oracle_reads_its_distance_block_once(monkeypatch):
    # the central-first order and the maps come from one read
    T = random_tree(9, seed=3, weights="rational")
    reads = []
    read = Tree._distance_ints
    monkeypatch.setattr(Tree, "_distance_ints", lambda self, order: reads.append(list(order)) or read(self, order))
    minor_oracle(T, T.leaves())
    minor_table(T, 3, 32)
    assert reads == [list(T.leaves()), list(T.vertices)]


@settings(max_examples=150, deadline=None)
@given(trees_and_subsets())
# distances 0 and 1 over _den = 2: the exponents share the factor G = 2
@example((Tree([(1, 2, F(1, 2)), (2, 3, F(1, 2)), (2, 4, 1)]), [1, 3]))
def test_dp_matches_forest_sum_and_determinant(case):
    T, X = case
    got = minor_formula(T, X)
    assert got == forest_sum(T, X)
    # the oracle walks the half powers of the distance matrix, rows and
    # columns both in central-first order (ascending distance sum, ties by
    # position): u^((d_ij + p_i + p_j) / 2) over u = t^(2/_den), p_i the
    # parity of the integer distance to the first point r
    walked = []
    kernel = minors._monomial_kernel

    def record(e, *args):
        walked.append(e)
        return kernel(e, *args)

    with mock.patch.object(minors, "_monomial_kernel", record):
        oracle = minor_oracle(T, X)
    order = sorted(X, key=lambda x: sum(T.dist(x, y) for y in X))
    r = order[0]
    ints = [[T.dist(x, y) * T._den for y in order] for x in order]
    assert all(d.denominator == 1 for row in ints for d in row)
    parity = [int(T.dist(x, r) * T._den) % 2 for x in order]
    sums = [[d + p + q for d, q in zip(row, parity)] for row, p in zip(ints, parity)]
    assert all(e % 2 == 0 for row in sums for e in row)  # p 2-colours the tree's points
    assert walked == [[[int(e) // 2 for e in row] for row in sums]]
    # build_matrix is the view of the untransformed maps that det reads
    a, den, scale, shift = _integer_rows(build_matrix(T, X))
    assert minors._power_maps(*T._distance_ints(X)) == (a, den)
    assert (scale, shift) == (1, 0)
    want = det(build_matrix(T, X))
    assert got == oracle == want
    assert str(got) == str(oracle) == str(want)
    assert minor_leading(T, X) == got.leading_term()
    if len(X) <= ENUMERATION_CAP:  # |X|! cycle partitions
        assert cycle_sums(T, X) == (got, got)


def test_full_vertex_set_weighted_product_at_scale():
    # X = V gives prod_e (1 - t^{2 w_e}) (Bapat-Lal-Pati); 2^199 forests
    T = half_integer_tree(200, seed=5)
    want = ExactPoly.one()
    for _, _, w in T.edges():
        want = want * (ExactPoly.one() - tp(2 * w))
    assert minor_formula(T, T.vertices) == want


def test_large_leaf_set_top_term_matches_leading():
    T = random_tree(80, seed=3)
    leaves = T.leaves()
    assert len(leaves) == 33
    assert minor_formula(T, leaves).leading_term() == minor_leading(T, leaves)


def test_leaf_set_minor_matches_determinant_at_scale():
    # |X| = 17: a 17 x 17 Bareiss elimination on the integer kernel
    T = random_tree(40, seed=3)
    leaves = T.leaves()
    assert len(leaves) == 17
    assert minor_oracle(T, leaves) == minor_formula(T, leaves)


def test_minor_matches_oracle_exhaustive_small():
    for seed in range(6):
        T = random_tree(6, seed=seed, weights="rational" if seed % 2 else "unit")
        for r in range(1, 7):
            for X in itertools.combinations(T.vertices, r):
                assert minor_formula(T, X) == minor_oracle(T, X)


def test_minor_leading_matches_oracle():
    T = path_tree(3)
    assert minor_leading(T, [1, 3]) == (F(4), F(-1))
    S = star_tree(3)
    assert minor_leading(S, [1, 2, 3]) == (F(6), F(2))
    for seed in range(5):
        T = random_tree(7, seed=seed, weights="rational" if seed % 2 else "unit")
        for r in range(1, 8):
            for X in itertools.combinations(T.vertices, r):
                assert minor_leading(T, X) == minor_oracle(T, X).leading_term()


def test_full_vertex_set_power_identity():
    # over all vertices the minor collapses to (1 - t^2)^(n-1)
    for seed in range(5):
        for n in (2, 3, 5, 7):
            T = random_tree(n, seed=seed)
            assert minor_formula(T, T.vertices) == (
                ExactPoly.one() - tp(2)
            ) ** (n - 1)


def test_minor_parity_sign():
    # odd-size minors have positive leading coefficient, even-size negative
    T = random_tree(7, seed=11)
    for r in range(1, 8):
        for X in itertools.islice(itertools.combinations(T.vertices, r), 8):
            _, c = minor_leading(T, X)
            assert (c > 0) == (r % 2 == 1)


def test_signature_report():
    T = path_tree(4)
    rep = signature(T, (1, 2, 3, 4))
    assert (rep.positives, rep.negatives) == (1, 3)
    sizes = [m for m, _, _ in rep.evidence]
    coeffs = [c for _, _, c in rep.evidence]
    assert sizes == [1, 2, 3, 4]
    assert [c > 0 for c in coeffs] == [True, False, True, False]


def test_weighted_minor_single_edge():
    T = Tree([(1, 2, F(3, 2))])
    assert minor_formula(T, [1, 2]) == ExactPoly.one() - tp(3)


def test_build_matrix_is_symmetric_with_unit_diagonal(entry_trees):
    for T in entry_trees:
        order = T.vertices[::-1]
        m = build_matrix(T, order)
        for i, a in enumerate(order):
            assert m[i, i] == ExactPoly.one()
            for j, b in enumerate(order):
                assert m[i, j] == m[j, i] == tp(T.dist(a, b))
                assert str(m[i, j]) == str(tp(T.dist(a, b)))


def test_formula_and_oracle_sides_read_separate_integer_forms(monkeypatch):
    # the oracles read only the distance walk, the formulas only the
    # root-path masks, the rooted walk and the integer weights
    def boom(*args):
        raise AssertionError("read by the wrong side")

    def tree():
        return Tree([(1, 2, F(1, 2)), (2, 3, F(1, 3)), (3, 4, F(1, 4)), (3, 5, F(3, 4))])

    with monkeypatch.context() as m:
        m.setattr(Tree, "_root_paths", property(boom))
        T = tree()
        oracle = [minor_oracle(T, X) for X in ((1, 4), (2, 3, 5))]
        table, (pf_all, unit, shift, _) = minor_table(T, 3, 32), pf_table(T, (1, 2, 4, 5))
        pf_one = pf_oracle(T, (1, 2, 4, 5))
    with monkeypatch.context() as m:
        m.setattr(Tree, "_single_source", boom)
        T = tree()
        formula = [minor_formula(T, X) for X in ((1, 4), (2, 3, 5))]
        formula_table = minor_formula_table(T, 3, 32)
        pf_formulas = pf_formula_table(T, (1, 2, 4, 5))
        leading, leading_table = minor_leading(T, (2, 3, 5)), minor_leading_table(T, 3)
        pf_monomial = pf_formula(T, (1, 2, 4, 5))
        sums = cycle_sums(T, (2, 3, 5))
    assert formula == oracle
    assert {X: value for X, (value, _) in formula_table.items()} == table
    assert leading == formula[1].leading_term()
    assert leading_table[(2, 3, 5)] == (leading[0] * T._den / 2, leading[1])
    assert sums == (formula[1], formula[1])
    assert pf_monomial == pf_one
    assert all(w is None or unit << shift * w == pf_all[k] for k, w in pf_formulas.items())
