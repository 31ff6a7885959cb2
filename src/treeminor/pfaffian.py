"""Pfaffians of the skew matrix built from t^{d_ij} over an ordered vertex
tuple.

For an even tuple X that is nicely ordered (the cyclic tour x1 -> x2 -> ...
-> x1 uses no tree edge more than twice) the Pfaffian collapses to a single
monomial t^{w(O_X)}, where O_X is the set of edges splitting X oddly.  The
generic expansion of the skew matrix is kept as the oracle; it is also what
exposes non-nicely-ordered tuples, whose Pfaffians genuinely differ.
The skew matrix is built as integer maps from the tree's integer distance
rows (_skew_maps), skew by construction; build_skew_matrix is their
PolyMatrix view.  Every entry is a signed monomial +-t^d, so every step of
an expansion shifts a smaller Pfaffian by d and adds or subtracts it.  The
two expansions, top down from one tuple (_pf_top_down) and bottom up over
every even sub-tuple of one order (_pf_bottom_up), are written once over
those operations and run on either of two forms: ints at t^(1/T._den) =
2^B for a B that holds every Pfaffian's coefficients (pf_bits), shifted by
d B from the unit 1, or integer maps shifted by d from the unit {0: 1}
(poly._Shifted).  _pf_form picks the ints where the distances are dense
enough to pack and the maps where the weights share a large denominator.
pf_oracle runs the top-down expansion on that form, and pf_table the
bottom-up one; pf_formula_table gives the monomial's exponent w of every
even sub-tuple, and the monomial is unit << shift w in either form.  Neither
expansion reaches poly's (poly.pfaffian), the reference the tests hold
them against.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

from .poly import _TREE_DENSE_BITS, ExactPoly, PolyMatrix, _Shifted, _dense, _unpack, _word_for
from .tree import Edge, Tree


class NotNicelyOrderedError(ValueError):
    """The ordered tuple walks some edge more than twice."""

    def __init__(self, edge: Edge, count: int):
        self.edge = edge
        self.count = count
        super().__init__(
            f"tuple is not nicely ordered: edge {edge} traversed {count} times"
        )


def _skew_maps(T: Tree, xs: Sequence[int]) -> tuple[list[list[dict[int, int]]], int]:
    """The skew matrix over the listed vertices as integer maps, {d: 1}
    above the diagonal, {d: -1} below it and {} on it, d the tree's integer
    distance; and their denominator, _den."""
    dist, den = T._distance_ints(xs)
    return [
        [{d: 1 if a < b else -1} if a != b else {} for b, d in enumerate(row)]
        for a, row in enumerate(dist)
    ], den


def build_skew_matrix(T: Tree, X: Sequence[int]) -> PolyMatrix:
    """Skew matrix with t^{d(x_a, x_b)} above the diagonal.

    Every entry is a monomial, built from the tree's integer distances
    over the lcm of its weight denominators."""
    maps, den = _skew_maps(T, T.check_subset(X))
    return PolyMatrix([[ExactPoly._make(den, 1, p) for p in row] for row in maps])


def _odd_exponent(T: Tree, odd: int, sums: list[int] | None = None) -> int:
    """w(odd) times T._den, odd a mask of T's edges (bit b: the edge above
    the (b + 1)-th smallest label): the exponent of the Pfaffian monomial
    over t^(1/T._den).  It reads sums[odd] when given the sums of every
    edge mask (_mask_sums), and T._weight_num(odd) otherwise."""
    return T._weight_num(odd) if sums is None else sums[odd]


def _mask_sums(T: Tree) -> list[int]:
    """The weight of every mask of T's edges times T._den, indexed by the
    mask: 2^(n - 1) ints, each one addition from a smaller mask's."""
    sums = [0]
    for w in T._root_paths.weight:
        sums += [s + w for s in sums]
    return sums


def pf_bits(size: int) -> int:
    """The least word B (poly._word_for) with 2^(B - 1) above (m - 1)!!,
    m the largest even number <= size: a Pfaffian over m points sums one
    signed monomial per perfect matching, (m - 1)!! of them, so that bounds
    its 1-norm, and that of every Pfaffian over fewer points."""
    return _word_for(math.prod(range(size - 1 - size % 2, 0, -2)))


def pf_formula(T: Tree, X: Sequence[int]) -> ExactPoly:
    """t raised to the total weight of the odd-splitting edges of X.

    Requires |X| even and X nicely ordered; otherwise the closed form does
    not apply and an error is raised.
    """
    xs = tuple(X)
    ok, counts = T.is_nicely_ordered(xs)  # checks X as a subset first
    if len(xs) % 2:
        raise ValueError("Pfaffian needs an even number of vertices")
    if not ok:
        raise NotNicelyOrderedError(*min((e, c) for e, c in counts.items() if c > 2))
    return ExactPoly._make(T._den, 1, {_odd_exponent(T, T._odd_mask(xs)): 1})


def pf_formula_table(T: Tree, order: Sequence[int]) -> dict[tuple[int, ...], int | None]:
    """The exponent w of pf_formula's monomial t^(w / T._den) over every
    even sub-tuple of order, and None where that sub-tuple is not nicely
    ordered.

    Keys are pf_table(T, order)'s, in its order.  Tree.tour_table gives
    each even sub-tuple's XOR of root-path masks, its odd-splitting edges,
    and decides its niceness by the hop count: the cyclic tour crosses
    every spanned edge an even number of times, at least twice, so the
    order is nice iff the tour is twice as long as the spanned subtree.
    The odd edges' weights are read off one table of every edge mask's
    weight (_mask_sums) when T has fewer edges than order has points, as
    when order lists all of T, and by T._weight_num otherwise.  It reads
    edge weights, the rooted walk and the masks, never the distances
    pf_table reads.
    """
    xs = T.check_subset(order)
    sums = _mask_sums(T) if T.n <= len(xs) else None
    return {
        key: _odd_exponent(T, odd, sums) if nice else None
        for key, (odd, nice) in T.tour_table(xs).items()
    }


def pf_oracle(T: Tree, X: Sequence[int]) -> ExactPoly:
    """Pfaffian of the actual skew matrix, any ordering, expanded top down
    from X's own matrix (_pf_top_down) in the form _pf_form picks: packed
    ints at t^(1/T._den) = 2^B, B = pf_bits(|X|), where the matrix packs,
    and shifted integer maps otherwise.  It never reaches poly's expansion
    (poly.pfaffian), which the tests hold it against."""
    xs = T.check_subset(X)
    if len(xs) % 2:
        raise ValueError("Pfaffian needs an even number of vertices")
    rows, unit, _, read = _pf_form(T, xs)
    return ExactPoly._make(T._den, 1, read(_pf_top_down(rows, unit)))


def _shift_rows(dist: list[list[int]], shift: int) -> list[list[int]]:
    """The tree's integer distance rows times shift: the entry t^d of the
    skew matrix shifts a Pfaffian packed at t^(1/T._den) = 2^B left by d B
    bits (shift B), and a shifted map by d (shift 1)."""
    return [[d * shift for d in row] for row in dist]


def _pf_form(T: Tree, xs: tuple[int, ...]) -> tuple[list[list[int]], object, int, Callable]:
    """(rows, unit, shift, read) for the expansions over xs or its
    sub-tuples, from one read of the tree's distance rows: packed ints at
    B = pf_bits(len(xs)), shift B, unit 1 and each value read by
    poly._unpack, where poly._dense holds at _TREE_DENSE_BITS on the
    distances above the diagonal as the keys of one map (it reads only
    their set); or shifted maps, shift 1, unit {0: 1} (poly._Shifted) and
    each value read into a plain dict.
    A packed int grows with the top distance times B, so the sparse
    distances of trees whose weights share a large denominator stay on the
    maps.  Either way the monomial t^(w / T._den) is unit << shift w."""
    dist = T._distance_ints(xs)[0]
    bits = pf_bits(len(xs))
    upper = dict.fromkeys(d for a, row in enumerate(dist) for d in row[a + 1:])
    if _dense([[upper]], bits, _TREE_DENSE_BITS):
        return _shift_rows(dist, bits), 1, bits, functools.partial(_unpack, bits)
    return _shift_rows(dist, 1), _Shifted({0: 1}), 1, dict


def _pf_top_down(rows: list[list[int]], unit):
    """The Pfaffian of the skew matrix whose entry a < b is t^d, rows[a][b]
    its shift (_shift_rows), from the unit of the form (1 for packed ints,
    {0: 1} for shifted maps).  pf_table's expansion along the lowest
    position f, each term the value of Pf(S - f - j) shifted by row f and
    added or subtracted by the parity of j's rank, but driven top down from
    the full set and memoised on position bitmasks: from k points it
    expands the F(k + 1) - 1 nonempty sets that poly's expansion visits
    (F(1) = F(2) = 1), not pf_table's 2^(k - 1) even ones."""
    memo = {0: unit}
    get = memo.get

    def pf(mask: int):
        low = mask & -mask
        row = rows[low.bit_length() - 1]
        rest = mask ^ low
        total = 0
        plus = True
        todo = rest
        while todo:
            b = todo & -todo
            todo ^= b
            sub = rest ^ b
            value = get(sub)
            if value is None:
                value = pf(sub)
            term = value << row[b.bit_length() - 1]
            total = total + term if plus else total - term
            plus = not plus
        memo[mask] = total
        return total

    total = pf((1 << len(rows)) - 1) if rows else unit
    del pf  # break the closure's cycle through itself: the memo goes on return
    return total


def pf_table(
    T: Tree, order: Sequence[int]
) -> tuple[dict[tuple[int, ...], object], object, int, Callable]:
    """The Pfaffian of every even sub-tuple of order: the bottom-up
    expansion (_pf_bottom_up) in the form _pf_form picks, returned as
    (table, unit, shift, read) with that form's unit, shift and read.

    Keys are the sub-tuples, listed in order's order (the empty one
    included), and read(table[key]) is pf_oracle(T, key)'s integer map:
    every key's matrix is a principal block of the one over order.
    Exponents are the tree's integer distances, over the lcm of its weight
    denominators.  A monomial has 1-norm 1, so a value equals
    unit << shift w, w from pf_formula_table, exactly when the Pfaffian is
    t^(w / T._den).
    """
    xs = T.check_subset(order)
    rows, unit, shift, read = _pf_form(T, xs)
    return _pf_bottom_up(xs, rows, unit), unit, shift, read


def _pf_bottom_up(xs: tuple[int, ...], rows: list[list[int]], unit) -> dict[tuple[int, ...], object]:
    """The Pfaffian of every even sub-tuple of xs, keyed by the sub-tuple,
    in increasing order of the bitmask of its positions, from rows and
    unit as _pf_top_down takes them.  One memo over position bitmasks
    expands along the lowest position f of a set S,
    Pf(S) = sum over j in S - f of (-1)^(r - 1) t^{d(f, j)} Pf(S - f - j),
    j the r-th member of S after f: each product shifts a smaller value by
    row f, about n 2^(n - 2) shifts in all.  Only even sets are built, as
    Tree.tour_table builds them: a nonempty one is a shorter even one R
    followed by its last two positions a < b, and taken by b, then a, then
    R (the 2^(a - 1) even sets below position a, the first ones listed),
    the masks come in increasing order."""
    memo = [unit] * (1 << len(xs))
    listed = [(0, ())]  # the even sets so far: (mask, sub-tuple)
    for b, xb in enumerate(xs):
        for a in range(b):
            pair, ends = (xs[a], xb), 1 << a | 1 << b
            for mask, key in listed[: 1 << a >> 1 or 1]:
                mask |= ends
                key += pair
                low = mask & -mask
                row = rows[low.bit_length() - 1]
                rest = mask ^ low
                total = 0
                plus = True
                todo = rest
                while todo:
                    j = todo & -todo
                    todo ^= j
                    term = memo[rest ^ j] << row[j.bit_length() - 1]
                    total = total + term if plus else total - term
                    plus = not plus
                memo[mask] = total
                listed.append((mask, key))
    return {key: memo[mask] for mask, key in listed}
