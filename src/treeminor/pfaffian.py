"""Pfaffians of the skew matrix built from t^{d_ij} over an ordered vertex
tuple.

For an even tuple X that is nicely ordered (the cyclic tour x1 -> x2 -> ...
-> x1 uses no tree edge more than twice) the Pfaffian collapses to a single
monomial t^{w(O_X)}, where O_X is the set of edges splitting X oddly.  The
generic expansion of the skew matrix is kept as the oracle; it is also what
exposes non-nicely-ordered tuples, whose Pfaffians genuinely differ.
The skew matrix is built as integer maps from the tree's integer distance
rows (_skew_maps), skew by construction; build_skew_matrix is their
PolyMatrix view.  pf_table gives the Pfaffian of every even sub-tuple of
one order at once, and pf_formula_table the monomial of each, both as ints
at t^(1/T._den) = 2^B for a B that holds every Pfaffian's coefficients
(pf_bits).  pf_oracle expands one tuple's matrix top down, on such ints
where the matrix is dense enough to pack (_packs) and on poly's integer
maps otherwise.
"""

from __future__ import annotations

import math
from typing import Sequence

from .poly import _FARRIS_DENSE_BITS, ExactPoly, PolyMatrix, _dense, _pfaffian_maps, _unpack, _word_for
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


def _odd_monomial(T: Tree, odd: int) -> ExactPoly:
    """t^{w(odd)} as an integer map without Fraction."""
    return ExactPoly._make(T._den, 1, {_odd_exponent(T, odd): 1})


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
    return _odd_monomial(T, T._odd_mask(xs))


def pf_formula_table(
    T: Tree, order: Sequence[int], bits: int
) -> dict[tuple[int, ...], int | None]:
    """pf_formula over every even sub-tuple of order at t^(1/T._den) =
    2^bits, 1 << (bits w) for a monomial t^(w / T._den), and None where
    that sub-tuple is not nicely ordered.

    Keys are pf_table(T, order, bits)'s, in its order.  Tree.tour_table
    gives each even sub-tuple's XOR of root-path masks, its odd-splitting
    edges, and decides its niceness by the hop count: the cyclic tour
    crosses every spanned edge an even number of times, at least twice, so
    the order is nice iff the tour is twice as long as the spanned subtree.
    The odd edges' weights are read off one table of every edge mask's
    weight (_mask_sums) when T has fewer edges than order has points, as
    when order lists all of T, and by T._weight_num otherwise.  It reads
    edge weights, the rooted walk and the masks, never the distances
    pf_table reads.  A monomial has 1-norm 1, so for bits >= 2 its value
    equals a Pfaffian's from pf_table exactly when the polynomials agree.
    """
    xs = T.check_subset(order)
    sums = _mask_sums(T) if T.n <= len(xs) else None
    return {
        key: 1 << bits * _odd_exponent(T, odd, sums) if nice else None
        for key, (odd, nice) in T.tour_table(xs).items()
    }


def _sub_tuples(xs: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every sub-tuple of xs, indexed by the bitmask of its positions: the
    one of mask is the one of mask without its top bit, extended by that
    position's label."""
    keys = [()]
    for i, x in enumerate(xs):
        keys += [key + (x,) for key in keys]
    return keys


def pf_oracle(T: Tree, X: Sequence[int]) -> ExactPoly:
    """Pfaffian of the actual skew matrix, any ordering, expanded top down
    from X's own matrix: on ints at t^(1/T._den) = 2^B, B = pf_bits(|X|),
    where its skew maps pack (_packs, _pf_packed), else poly's memoised
    expansion on those maps (_pfaffian_maps)."""
    xs = T.check_subset(X)
    if len(xs) % 2:
        raise ValueError("Pfaffian needs an even number of vertices")
    maps, den = _skew_maps(T, xs)
    bits = pf_bits(len(xs))
    if _packs(maps, bits):
        return ExactPoly._make(den, 1, _unpack(bits, _pf_packed(T, xs, bits)))
    return ExactPoly._make(den, 1, _pfaffian_maps(maps))


def _packs(maps: list[list[dict[int, int]]], bits: int) -> bool:
    """Whether a Pfaffian of the skew maps runs on ints packed at bits:
    poly._dense at _FARRIS_DENSE_BITS.  A packed int grows with the top
    distance times bits, so the sparse distances of trees whose weights
    share a large denominator stay on the maps."""
    return _dense(maps, bits, _FARRIS_DENSE_BITS)


def _pf_packed(T: Tree, xs: tuple[int, ...], bits: int) -> int:
    """The Pfaffian of the skew matrix over xs, an even tuple of T's
    vertices (unchecked), at t^(1/T._den) = 2^bits, bits at least
    pf_bits(len(xs)).  pf_table's expansion along the lowest position f,
    each term the int of Pf(S - f - j) shifted by d(f, j) bits bits and
    added or subtracted by the parity of j's rank, but driven top down from
    the full set and memoised on position bitmasks: from k points it
    expands the F(k + 1) - 1 nonempty sets that poly's expansion visits
    (F(1) = F(2) = 1), not pf_table's 2^(k - 1) even ones."""
    dist, _ = T._distance_ints(xs)
    shift = [[d * bits for d in row] for row in dist]
    memo = {0: 1}
    get = memo.get

    def pf(mask: int) -> int:
        low = mask & -mask
        row = shift[low.bit_length() - 1]
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

    total = pf((1 << len(xs)) - 1) if xs else 1
    del pf  # break the closure's cycle through itself: the memo goes on return
    return total


def pf_table(T: Tree, order: Sequence[int], bits: int) -> dict[tuple[int, ...], int]:
    """The Pfaffian of the skew matrix over every even sub-tuple of order,
    each at t^(1/T._den) = 2^bits, bits at least pf_bits(len(order)).

    Keys are the sub-tuples, listed in order's order (the empty one
    included), and each value packs pf_oracle(T, key): every key's matrix
    is a principal block of the one over order.  One memo over bitmasks of
    positions expands along the lowest position f of a set S,
    Pf(S) = sum over j in S - f of (-1)^(r - 1) t^{d(f, j)} Pf(S - f - j),
    j the r-th member of S after f.  Every entry is a monomial, so each
    product shifts the int of a smaller Pfaffian by d(f, j) bits bits:
    about n 2^(n-2) shifts in all.  Exponents are the tree's integer distances,
    over the lcm of its weight denominators; every coefficient stays below
    2^(bits - 1) (pf_bits), so each int is its polynomial packed.
    """
    xs = T.check_subset(order)
    n = len(xs)
    if bits < pf_bits(n):
        raise ValueError(f"{bits} bits do not hold the Pfaffians over {n} points")
    dist, _ = T._distance_ints(xs)
    shift = [[d * bits for d in row] for row in dist]
    memo = [0] * (1 << n)
    memo[0] = 1
    keys = _sub_tuples(xs)
    table = {(): 1}
    for mask in range(3, 1 << n):
        if mask.bit_count() % 2:
            continue
        low = mask & -mask
        row = shift[low.bit_length() - 1]
        rest = mask ^ low
        total = 0
        plus = True
        todo = rest
        while todo:
            b = todo & -todo
            todo ^= b
            term = memo[rest ^ b] << row[b.bit_length() - 1]
            total = total + term if plus else total - term
            plus = not plus
        memo[mask] = table[keys[mask]] = total
    return table
