"""Dissimilarity maps of a tree, exchange-property checks, and matrix
representations whose valuations recover the maps.

A dissimilarity map here is a finite-valued function on subsets of a ground
set (`ValuatedFn`); subsets outside its support take the value -inf.  The
two exchange checkers test the greedy-exchange inequalities directly, by
brute force over the support, and hand back a certificate when one fails.

The representation half builds matrices over exact Laurent polynomials (or
truncated series) whose minor/Pfaffian top exponents reproduce the maps:

* `represent_odd` -- a skew matrix of pairwise distance powers, taken in a
  nice vertex order; the top and bottom exponents of the Pfaffians of its
  principal submatrices give the odd-edge map and its negative.
* `verify_rooted_representation` -- the pairwise-power matrix M with the
  rank-one root contribution removed, as integer maps, factored as
  -M = L1 D L1^T over truncated series (tropic.ldl, no square roots) and
  mixed as J diag(t^(val(d_z)/2)) L1^T, J a random rectangular matrix of
  rationals and d_z the LDL^T pivots.  Determinant valuations of k-column
  blocks give the rooted subtree-weight map; each is checked against the
  tree and kept with the result, next to the top exponent of each k-minor
  of M (one walk).  The blocks are expanded on integer maps over one
  exponent grid, every sub-determinant once (one memo over column sets).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .metric import MINUS_INF
from .pfaffian import build_skew_matrix, pf_oracle
from .poly import ExactPoly, PolyMatrix, _as_fraction, _kernel, _sylvester
from .tree import Tree
from .tropic import PrecisionError, PuiseuxTrunc, _mul_into, _truncated_zero, ldl

Value = "Fraction | float"  # a finite Fraction, or MINUS_INF


# ---------------------------------------------------------------------------
# finite-valued set functions


class ValuatedFn:
    """A function on subsets of a ground set, finite on its support.

    `values` maps subsets (any iterables of ground elements) to rationals;
    everything else is -inf.  Pass `k` to declare that the support must sit
    on k-element subsets, as the fixed-rank exchange check requires.
    """

    __slots__ = ("ground", "k", "_values")

    def __init__(self, ground: Iterable[int], values: Mapping, k: int | None = None):
        gs = tuple(ground)
        if len(set(gs)) != len(gs):
            raise ValueError(f"repeated ground elements in {gs}")
        self.ground = tuple(sorted(gs))
        self.k = k
        gset = set(self.ground)
        store: dict[frozenset[int], Fraction] = {}
        for key, val in values.items():
            s = frozenset(key)
            if not s <= gset:
                raise ValueError(f"{sorted(s)} is not a subset of the ground set")
            if val == MINUS_INF:
                continue
            if k is not None and len(s) != k:
                raise ValueError(f"finite value on {sorted(s)} but k={k}")
            store[s] = _as_fraction(val)
        self._values = store

    def value(self, X: Iterable[int]):
        s = frozenset(X)
        bad = s - set(self.ground)
        if bad:
            raise ValueError(f"{sorted(bad)} are not ground elements")
        return self._values.get(s, MINUS_INF)

    def support(self) -> list[frozenset[int]]:
        return sorted(self._values, key=lambda s: (len(s), tuple(sorted(s))))

    def items(self) -> list[tuple[frozenset[int], Fraction]]:
        return [(s, self._values[s]) for s in self.support()]

    def negate(self) -> "ValuatedFn":
        return ValuatedFn(self.ground, {s: -v for s, v in self._values.items()}, self.k)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ValuatedFn):
            return NotImplemented
        return (
            self.ground == other.ground
            and self.k == other.k
            and self._values == other._values
        )

    def __repr__(self) -> str:
        return (
            f"ValuatedFn(ground={self.ground}, k={self.k}, "
            f"support size {len(self._values)})"
        )

    @staticmethod
    def _set_key(s: frozenset[int]) -> str:
        return ",".join(str(x) for x in sorted(s))

    def to_json(self) -> dict:
        out = {
            "ground": list(self.ground),
            "values": {self._set_key(s): str(v) for s, v in self.items()},
        }
        if self.k is not None:
            out["k"] = self.k
        return out

    @classmethod
    def from_json(cls, data) -> "ValuatedFn":
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict) or not isinstance(data["values"], dict):
            raise ValueError('a map is a JSON object whose "values" is an object')
        values = {}
        keys: dict[frozenset, str] = {}  # the key that named each set
        for key, val in data["values"].items():
            s = tuple(int(x) for x in key.split(",")) if key else ()
            fs = frozenset(s)
            if len(fs) != len(s):
                raise ValueError(f"key {key!r} repeats an element")
            if fs in keys:
                raise ValueError(f"keys {keys[fs]!r} and {key!r} name the same set")
            keys[fs] = key
            if isinstance(val, str) and val.strip() in ("-inf", "-Infinity"):
                continue
            try:
                if isinstance(val, bool):  # JSON true and false are ints to Python
                    raise TypeError
                values[s] = _as_fraction(val)
            except (TypeError, ZeroDivisionError):  # null, a float, a list, "1/0"
                raise ValueError(f"value {val!r} of {key!r} is not a rational") from None
        ground = data["ground"]
        if not isinstance(ground, list) or not all(type(x) is int for x in ground):
            raise ValueError(f'"ground" must be a list of integers, got {ground!r}')
        k = data.get("k")
        if k is not None and (not isinstance(k, int) or isinstance(k, bool)):
            raise ValueError(f'"k" must be an integer or null, got {k!r}')
        return cls(ground, values, k=k)


@dataclass(frozen=True)
class ExchangeViolation:
    """Witness that one greedy-exchange inequality fails: for the pivot
    element, every admissible swap loses value."""

    axiom: str  # "matroid" (fixed size) or "delta" (symmetric difference)
    X: tuple[int, ...]
    Y: tuple[int, ...]
    pivot: int
    lhs: Fraction
    best: "Fraction | float"

    def __str__(self) -> str:
        return (
            f"{self.axiom} exchange fails for X={self.X}, Y={self.Y} at "
            f"element {self.pivot}: f(X) + f(Y) = {self.lhs} exceeds the best "
            f"swap value {self.best}"
        )


def check_valuated_matroid(fn: ValuatedFn) -> ExchangeViolation | None:
    """Test the fixed-rank exchange property by brute force.

    For every pair X, Y in the support and every i in X \\ Y there must be a
    j in Y \\ X with f(X) + f(Y) <= f(X - i + j) + f(Y - j + i).  Returns the
    first failing triple, or None.
    """
    supp = fn.support()
    if not supp:
        return None
    sizes = {len(s) for s in supp}
    if len(sizes) != 1:
        raise ValueError(
            "the fixed-rank exchange test needs all finite values on subsets "
            f"of one size, got sizes {sorted(sizes)}"
        )
    return _exchange_scan(
        fn, "matroid", lambda X, Y: X - Y, lambda X, i, j: X - {i} | {j}
    )


def check_delta_matroid(fn: ValuatedFn) -> ExchangeViolation | None:
    """Test the symmetric-difference exchange property by brute force.

    For every pair X, Y in the support and every i in X ^ Y there must be a
    j in (X ^ Y) - i with f(X) + f(Y) <= f(X ^ {i,j}) + f(Y ^ {i,j}).
    Returns the first failing triple, or None.
    """
    return _exchange_scan(
        fn, "delta", lambda X, Y: X ^ Y, lambda X, i, j: X ^ {i, j}
    )


def _exchange_scan(fn: ValuatedFn, axiom: str, pivots, swap) -> ExchangeViolation | None:
    """The first exchange violation over pairs X, Y of the support in
    support order, or None.  The pivot i runs over pivots(X, Y), its partner
    j over pivots(Y, X) - i, and the swap is scored f(swap(X, i, j)) +
    f(swap(Y, j, i)); a value off the support is None, never the float
    -inf, which would send each Fraction comparison down its float path."""
    supp = fn.support()
    get = fn._values.get
    for X in supp:
        fx = get(X)
        for Y in supp:
            lhs = fx + get(Y)
            for i in pivots(X, Y):
                best = None
                for j in pivots(Y, X) - {i}:
                    a, b = get(swap(X, i, j)), get(swap(Y, j, i))
                    if a is None or b is None:
                        continue
                    cand = a + b
                    if best is None or cand > best:
                        best = cand
                if best is None or lhs > best:
                    return ExchangeViolation(
                        axiom, tuple(sorted(X)), tuple(sorted(Y)), i, lhs,
                        MINUS_INF if best is None else best,
                    )
    return None


# ---------------------------------------------------------------------------
# dissimilarity maps read off a tree


def k_dissimilarity(T: Tree, k: int, ground: Iterable[int] | None = None) -> ValuatedFn:
    """X |-> weight of the smallest subtree containing X, on k-subsets of the
    ground set (default: the leaves)."""
    g = T.leaves() if ground is None else T.check_subset(ground)
    if not 1 <= k <= len(g):
        raise ValueError(f"k={k} is out of range for a ground set of {len(g)}")
    vals = {Y: T.spanned_weight(Y) for Y in combinations(sorted(g), k)}
    return ValuatedFn(g, vals, k=k)


def rooted_k_dissimilarity(
    T: Tree, root: int, k: int, ground: Iterable[int] | None = None
) -> ValuatedFn:
    """Y |-> weight of the smallest subtree containing Y and the root, on
    k-subsets of the ground set (default: the leaves, which must then not
    include the root)."""
    g = _rooted_ground(T, root, ground)
    if not 1 <= k <= len(g):
        raise ValueError(f"k={k} is out of range for a ground set of {len(g)}")
    vals = {Y: T.spanned_weight(Y + (root,)) for Y in combinations(g, k)}
    return ValuatedFn(g, vals, k=k)


def odd_dissimilarity(T: Tree, ground: Iterable[int] | None = None) -> ValuatedFn:
    """X |-> total weight of the edges splitting X oddly, on even-size
    subsets of the ground set (default: every vertex); odd sizes are -inf."""
    g = tuple(T.vertices) if ground is None else T.check_subset(ground)
    gs = sorted(g)
    vals = {}
    for r in range(0, len(gs) + 1, 2):
        for X in combinations(gs, r):
            vals[X] = T.odd_weight(X)
    return ValuatedFn(g, vals)


# ---------------------------------------------------------------------------
# skew representation of the odd-edge map


@dataclass(frozen=True)
class OddRepresentation:
    """Skew matrix of distance powers over a nicely ordered vertex tuple;
    Pfaffian valuations of its principal blocks recover the odd-edge map
    (and, read at t -> 1/t, its negative)."""

    tree: Tree
    order: tuple[int, ...]

    @property
    def matrix(self) -> PolyMatrix:
        """The skew matrix over the order, built each time it is read."""
        return build_skew_matrix(self.tree, self.order)

    def _pfaffian(self, X: Iterable[int]) -> ExactPoly | None:
        """Pf(B[X]), or None when |X| is odd: pf_oracle on X in the order's
        order, whose skew matrix is that block of B."""
        xs = frozenset(X)
        bad = xs.difference(self.order)
        if bad:
            raise ValueError(f"{sorted(bad)} are not represented vertices")
        if len(xs) % 2:
            return None
        return pf_oracle(self.tree, [v for v in self.order if v in xs])

    def value_pair(self, X: Iterable[int]) -> tuple:
        """(value(X), dual_value(X)) from one Pfaffian of the block."""
        return _value_pair(self._pfaffian(X))

    def value(self, X: Iterable[int]):
        """Top exponent of the Pfaffian of the X-rows-and-columns block."""
        return self.value_pair(X)[0]

    def dual_value(self, X: Iterable[int]):
        """Same, on the t -> 1/t image of the matrix.  That map is a ring
        map, so the image's Pfaffian is Pf(B[X]) at 1/t, whose top exponent
        is minus the bottom exponent of Pf(B[X])."""
        return self.value_pair(X)[1]


def _value_pair(p: ExactPoly | None) -> tuple:
    """Top exponent and minus the bottom exponent of a block's Pfaffian."""
    if not p:
        return MINUS_INF, MINUS_INF
    return p.leading_term()[0], -p.trailing_term()[0]


def represent_odd(T: Tree, ground: Iterable[int] | None = None) -> OddRepresentation:
    """The skew distance-power representation over a nice order of the
    ground set (default: every vertex)."""
    g = tuple(T.vertices) if ground is None else T.check_subset(ground)
    order = tuple(T.nice_order(g))
    return OddRepresentation(T, order)


# ---------------------------------------------------------------------------
# rooted representation of the subtree-weight map


def _rooted_ground(T: Tree, root: int, ground: Iterable[int] | None) -> tuple[int, ...]:
    (rt,) = T.check_subset([root])
    if ground is None:
        g = T.leaves()
        if rt in g:
            raise ValueError(
                "the root is a leaf; pass an explicit ground set avoiding it"
            )
    else:
        g = T.check_subset(ground)
        if rt in g:
            raise ValueError("the root must stay outside the ground set")
    return tuple(sorted(g))


def _rooted_maps(T: Tree, root: int, ground: Sequence[int]) -> tuple[list[list[dict]], int]:
    """(maps, den): the root-reduced matrix M over the ground set as integer
    maps {d_ab: 1, d_ra + d_rb: -1} of exponents over den, read off the
    tree's integer distances (Tree._distance_ints), r the root; an entry
    is empty when r lies on the a-b path (d_ab = d_ra + d_rb)."""
    ((_, *depth), *dist), den = T._distance_ints((root, *ground))
    maps = [
        [{e: 1, f: -1} if e != f else {} for e, f in zip(row[1:], [da + db for db in depth])]
        for da, row in zip(depth, dist)
    ]
    return maps, den


def rooted_matrix(T: Tree, root: int, ground: Sequence[int]) -> PolyMatrix:
    """The symmetric matrix t^(d_ab) - t^(d_ra + d_rb) over the ground set,
    r the root: pairwise powers with the rank-one root part removed.  A
    PolyMatrix view of _rooted_maps, which the rooted check runs on."""
    maps, den = _rooted_maps(T, root, ground)
    return PolyMatrix([[ExactPoly._make(den, 1, p) for p in row] for row in maps])


def _exponent_gaps(M: PolyMatrix) -> tuple[set[int], int]:
    """(gaps, den): the top-minus-bottom exponent gap of each nonzero entry
    of M times den, the lcm of the entries' exponent denominators."""
    entries = [p for row in M.entries for p in row if p]
    den = math.lcm(*(p._den for p in entries))
    return {(max(p._terms) - min(p._terms)) * (den // p._den) for p in entries}, den


def exponent_spread(M: PolyMatrix) -> Fraction:
    """Largest top-minus-bottom exponent gap over the nonzero entries."""
    gaps, den = _exponent_gaps(M)
    return Fraction(max(gaps, default=0), den)


def default_window(M: PolyMatrix) -> Fraction:
    """Default truncation window: four times the matrix exponent spread."""
    s = exponent_spread(M)
    return 4 * s if s > 0 else Fraction(4)


def _sample_mix(k: int, n: int, seed: int) -> list[list[Fraction]]:
    rng = random.Random(seed)
    return [
        [
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 1 << 31), rng.randint(1, 1 << 31))
            for _ in range(n)
        ]
        for _ in range(k)
    ]


@dataclass(frozen=True)
class RootedRepresentation:
    """The checked values of the rooted representation on every k-subset Y
    of the ground set (a sorted tuple), in `combinations` order.

    `valuations[Y]` is the valuation of det of the Y-column block of
    J diag(t^(val(d_z)/2)) L1^T, -M = L1 D L1^T an LDL^T factorisation over
    series truncated at `window` (pivots d_z), M the root-reduced matrix
    (rooted_matrix) and J a random rational k x n mix: the subtree weight of
    Y and the root.  `exact_valuations[Y]` is the top exponent of det M[Y],
    twice that weight, from one Sylvester walk.
    """

    ground: tuple[int, ...]
    k: int
    window: Fraction
    valuations: Mapping[tuple[int, ...], Value] = field(hash=False)
    exact_valuations: Mapping[tuple[int, ...], Fraction] = field(hash=False)

    def _key(self, Y: Iterable[int]) -> tuple[int, ...]:
        ys = frozenset(Y)
        bad = ys.difference(self.ground)
        if bad:
            raise ValueError(f"{sorted(bad)} are not ground elements")
        if len(ys) != self.k:
            raise ValueError(f"need exactly k={self.k} distinct elements")
        return tuple(sorted(ys))

    def series_valuation(self, Y: Iterable[int]):
        """Valuation of det of the Y-column block of the series matrix."""
        return self.valuations[self._key(Y)]

    def exact_minor_valuation(self, Y: Iterable[int]) -> Fraction:
        """Top exponent of the exact principal minor det M[Y]."""
        return self.exact_valuations[self._key(Y)]


# The block phase runs on grid series over one exponent grid R
# (tropic._mul_into): its sums and products are PuiseuxTrunc's, less the
# reduction to lowest terms.


def _grid_series(terms: dict[int, int], cut: int | None) -> tuple:
    """The grid series of the map terms + O(t^(cut/R)): its nonzero terms
    above cut, highest first; PuiseuxTrunc's sum keeps the same terms."""
    kept = ((e, n) for e, n in terms.items() if n and (cut is None or e > cut))
    return tuple(sorted(kept, reverse=True)), cut


def _grid_valuation(s: tuple, R: int):
    """PuiseuxTrunc.valuation of the grid series s over R, MINUS_INF for an
    exact zero; PrecisionError, with its text, for a truncated zero."""
    terms, cut = s
    if terms:
        return Fraction(terms[0][0], R)
    if cut is None:
        return MINUS_INF
    raise _truncated_zero(Fraction(cut, R))


def _mixed_grid(
    J: Sequence[Sequence[Fraction]],
    L1: Sequence[Sequence[PuiseuxTrunc]],
    half: Sequence[Fraction],
) -> tuple[list[tuple], int]:
    """(rows, R): the rows of J diag(t^half) L1^T, L1 unit lower
    triangular, as grid series.  R is the lcm of L1's ramifications and
    cutoff denominators and of half's denominators, so every exponent and
    cutoff is a key.  Entry (i, j) is the PuiseuxTrunc sum over s <= j of
    the monomial J[i][s] t^half[s] times L1[j][s] (for s = j the monomial
    itself), times a_i b_j: a_i the lcm of J[i]'s denominators and b_j that
    of L1[j]'s coefficient denominators.  So coefficients are ints, and a
    block determinant is scaled by a positive constant, which changes
    neither its valuation, nor whether it is zero, nor any cutoff."""
    low = [[(s, x) for s, x in enumerate(Lj[:j]) if not x.is_exact_zero()]
           for j, Lj in enumerate(L1)]
    R = math.lcm(
        *(h.denominator for h in half),
        *(x._ram for row in low for _, x in row),
        *(x._cutoff.denominator for row in low for _, x in row if x._cutoff is not None),
    )
    hk = [h.numerator * (R // h.denominator) for h in half]
    cols = []  # (b_j, [(s, L1[j][s] as a grid series, b_j / its den) for s < j])
    for row in low:
        b = math.lcm(1, *(x._den for _, x in row))
        cols.append((b, [(s, x._grid(R), b // x._den) for s, x in row]))
    rows = []
    for Ji in J:
        a = math.lcm(*(q.denominator for q in Ji))
        c = [q.numerator * (a // q.denominator) for q in Ji]
        row = []
        for j, (b, entries) in enumerate(cols):
            terms, cuts = {hk[j]: c[j] * b}, []
            for s, (m, cut), f in entries:
                h, cs = hk[s], c[s] * f
                for e, n in m:
                    e += h
                    terms[e] = terms.get(e, 0) + cs * n
                if cut is not None:
                    cuts.append(h + cut)
            row.append(_grid_series(terms, max(cuts, default=None)))
        rows.append(tuple(row))
    return rows, R


class _ColumnMinors(dict):
    """det(rows r..k-1, columns C) of k grid rows, keyed by the column
    tuple C, r = k - |C|, each set built on its first read.  A set of two
    or more columns is expanded along row r as tropic.series_det expands a
    block (columns in order, sign (-1)^j), its minors read from the memo;
    so each value is series_det's on that block of the mixed rows, scaled
    as _mixed_grid scales them.  Reading every k-set of |g| columns builds
    every set of at most k columns once, in _block_products(|g|, k)
    products."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[tuple]):
        super().__init__()
        self.rows = rows

    def __missing__(self, cols: tuple[int, ...]) -> tuple:
        row = self.rows[len(self.rows) - len(cols)]
        if len(cols) == 1:
            value = row[cols[0]]
        else:
            terms: dict[int, int] = {}
            cuts = []
            for j, c in enumerate(cols):
                cut = _mul_into(terms, -1 if j % 2 else 1, row[c], self[cols[:j] + cols[j + 1:]])
                if cut is not None:
                    cuts.append(cut)
            value = _grid_series(terms, max(cuts, default=None))
        self[cols] = value
        return value


def _block_products(n: int, k: int) -> int:
    """The series products _ColumnMinors makes when every k-set of n
    columns is read: sum_{j=2..k} j C(n, j), j for each set of j columns."""
    return sum(j * math.comb(n, j) for j in range(2, k + 1))


def verify_rooted_representation(
    T: Tree,
    root: int,
    k: int,
    ground: Iterable[int] | None = None,
    window=None,
    seed: int = 0,
    max_reseeds: int = 5,
) -> tuple[RootedRepresentation, int]:
    """Build the k-row series representation of the rooted subtree-weight
    map and check it against the map computed straight from the tree, on
    every k-subset: factor the negated root-reduced matrix as L1 D L1^T
    over truncated series (tropic.ldl) and mix diag(t^(val(d_z)/2)) L1^T by
    a random rational k x n matrix J.  The monomial t^(val(d_z)/2) stands
    for sqrt(d_z), the Cholesky factor's diagonal, with the same valuation:
    by Cauchy-Binet each block of the mix has the valuation of the block of
    J L^T, L the Cholesky factor, unless top terms cancel, and coefficients
    stay rational.  Each attempt reads the blocks in combinations order
    from one memo of sub-determinants over column sets (_ColumnMinors) on
    one integer exponent grid, and stops at the first block that fails.

    `window` is the truncation width (default: four times the exponent
    spread of the matrix).  A disagreement or an unresolved (fully
    truncated) valuation is put down to an unlucky mixing matrix: the mix
    is resampled, at most `max_reseeds` times, and the failure is reported
    if it persists; raising the window is the other remedy.  Once an
    attempt passes, one Sylvester walk (poly._sylvester) over M's integer
    maps gives every exact minor det M[Y]: the LDL^T pivots, each a ratio
    of leading minors whose sign is decided exactly, certified -M positive
    definite for large t, so the walk meets no zero minor.
    Returns the representation and the number of reseeds used.
    """
    if max_reseeds < 0:
        raise ValueError(f"max_reseeds must be at least 0, got {max_reseeds}")
    if window is not None and Fraction(window) <= 0:
        raise ValueError("window must be positive")
    g = _rooted_ground(T, root, ground)
    expected = rooted_k_dissimilarity(T, root, k, ground=g)
    maps, den = _rooted_maps(T, root, g)
    neg = [[ExactPoly._make(den, 1, {e: -c for e, c in p.items()}) for p in row] for row in maps]
    w = default_window(PolyMatrix(neg)) if window is None else Fraction(window)
    # pivot j of -M is det(-M[1..j]) / det(-M[1..j-1]) and every sign the
    # series decide is exact, so the factor itself certifies that -M is
    # positive definite for large t; a pivot of the wrong sign raises
    try:
        L1, pivots = ldl(neg, window=w)
    except PrecisionError as exc:
        raise ArithmeticError(
            f"factorisation failed at truncation window {w} ({exc}); "
            "raise the window and retry"
        ) from exc
    half = [d.valuation() / 2 for d in pivots]
    failures = []
    for attempt in range(max_reseeds + 1):
        rows, R = _mixed_grid(_sample_mix(k, len(g), seed + attempt), L1, half)
        minors = _ColumnMinors(rows)
        vals = {}
        problem = None
        try:
            for pos in combinations(range(len(g)), k):
                Y = tuple(g[p] for p in pos)
                got = _grid_valuation(minors[pos], R)
                want = expected.value(Y)
                if got != want:
                    problem = (
                        f"seed {seed + attempt}: valuation {got} != {want} at "
                        f"Y={Y} (degenerate mix suspected)"
                    )
                    break
                vals[Y] = got
        except PrecisionError as exc:
            problem = f"seed {seed + attempt}: {exc}"
        if problem is None:
            minors = _sylvester(_kernel(maps, k), g, k)
            exact = {Y: Fraction(max(minors[Y]), den) for Y in vals}
            rep = RootedRepresentation(
                ground=g,
                k=k,
                window=w,
                valuations=MappingProxyType(vals),
                exact_valuations=MappingProxyType(exact),
            )
            return rep, attempt
        failures.append(problem)
    raise ArithmeticError(
        f"rooted representation still disagrees after {max_reseeds + 1} "
        "attempts; either the random mix kept degenerating or the truncation "
        "window is too small -- raise the window and retry.\n  "
        + "\n  ".join(failures)
    )
