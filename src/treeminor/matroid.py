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
* `verify_rooted_representation` -- the pairwise-power matrix with the
  rank-one root contribution removed, split through an exact Cholesky
  factorisation and mixed by a random rectangular matrix of rationals.
  Determinant valuations of k-column blocks give the rooted subtree-weight
  map; each one is checked against the tree and kept with the result.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .metric import MINUS_INF
from .pfaffian import build_skew_matrix, pf_oracle, pf_table
from .poly import ExactPoly, PolyMatrix, _as_fraction, det
from .tree import Tree
from .tropic import PrecisionError, PuiseuxTrunc, cholesky, series_det

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
    f(swap(Y, j, i))."""
    supp = fn.support()
    for X in supp:
        fx = fn.value(X)
        for Y in supp:
            lhs = fx + fn.value(Y)
            for i in pivots(X, Y):
                best = MINUS_INF
                for j in pivots(Y, X) - {i}:
                    a, b = fn.value(swap(X, i, j)), fn.value(swap(Y, j, i))
                    if a == MINUS_INF or b == MINUS_INF:
                        # never beats best; Fraction + float could overflow
                        continue
                    cand = a + b
                    if cand > best:
                        best = cand
                if lhs > best:
                    return ExchangeViolation(
                        axiom, tuple(sorted(X)), tuple(sorted(Y)), i, lhs, best
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

    def value_pairs(self) -> dict[tuple[int, ...], tuple]:
        """value_pair of every even sub-tuple of the order (keys in the
        order's order), read off one table of the principal Pfaffians of
        the matrix (pfaffian.pf_table)."""
        return {X: _value_pair(p) for X, p in pf_table(self.tree, self.order).items()}

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


def rooted_matrix(T: Tree, root: int, ground: Sequence[int]) -> PolyMatrix:
    """The symmetric matrix t^(d_ab) - t^(d_ra + d_rb) over the ground set,
    r the root: pairwise powers with the rank-one root part removed."""
    (depth, *dist), den = T._distance_ints((root, *ground))
    rows = []
    for a, row in enumerate(dist, 1):
        entries = []
        for b in range(1, len(depth)):
            e, f = row[b], depth[a] + depth[b]  # e = f when r is on the a-b path
            entries.append(ExactPoly._make(den, 1, {e: 1, f: -1} if e != f else {}))
        rows.append(entries)
    return PolyMatrix(rows)


def exponent_spread(M: PolyMatrix) -> Fraction:
    """Largest top-minus-bottom exponent gap over the nonzero entries."""
    best = Fraction(0)
    for row in M.entries:
        for p in row:
            if p.is_zero():
                continue
            gap = p.leading_term()[0] - p.trailing_term()[0]
            if gap > best:
                best = gap
    return best


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
    """A k x n matrix of truncated series whose k x k column-block
    determinant valuations equal the rooted subtree-weight map.

    `matrix` is the exact root-reduced power matrix M; `rows` is J L^T, L a
    Cholesky factor of -M over series truncated at `window` (-M = L L^T up
    to the window) and J a random rational k x n matrix drawn from `seed`.
    `valuations` holds the checked block valuation of every k-subset Y
    (a sorted tuple of ground elements), in `combinations` order.
    """

    ground: tuple[int, ...]
    k: int
    window: Fraction
    seed: int
    matrix: PolyMatrix
    rows: tuple[tuple[PuiseuxTrunc, ...], ...]
    valuations: Mapping[tuple[int, ...], Value] = field(hash=False)

    def _positions(self, Y: Iterable[int]) -> list[int]:
        idx = {v: i for i, v in enumerate(self.ground)}
        ys = frozenset(Y)
        bad = [y for y in ys if y not in idx]
        if bad:
            raise ValueError(f"{sorted(bad)} are not ground elements")
        if len(ys) != self.k:
            raise ValueError(f"need exactly k={self.k} distinct elements")
        return sorted(idx[y] for y in ys)

    def series_valuation(self, Y: Iterable[int]):
        """Valuation of det of the Y-column block of the series matrix."""
        pos = self._positions(Y)
        return self.valuations[tuple(self.ground[p] for p in pos)]

    def exact_minor_valuation(self, Y: Iterable[int]):
        """Top exponent of det M[Y], from the exact polynomial matrix."""
        pos = self._positions(Y)
        d = det(self.matrix.principal_submatrix(pos))
        if d.is_zero():
            return MINUS_INF
        return d.leading_term()[0]


def _mixed_rows(
    J: Sequence[Sequence[Fraction]], L: Sequence[Sequence[PuiseuxTrunc]]
) -> tuple[tuple[PuiseuxTrunc, ...], ...]:
    """The rows of J L^T, L lower triangular."""
    rows = []
    for Ji in J:
        r = []
        for j, Lj in enumerate(L):
            acc = None
            for s in range(j + 1):
                term = Ji[s] * Lj[s]
                acc = term if acc is None else acc + term
            r.append(acc)
        rows.append(tuple(r))
    return tuple(rows)


def _rooted_core(T: Tree, root: int, g: tuple[int, ...], window):
    M = rooted_matrix(T, root, g)
    w = default_window(M) if window is None else Fraction(window)
    # pivot j of -M is det(-M[1..j]) / det(-M[1..j-1]) and every sign the
    # series decide is exact, so the factor itself certifies that -M is
    # positive definite for large t; a pivot of the wrong sign raises
    try:
        L = cholesky([[-e for e in row] for row in M.entries], window=w)
    except PrecisionError as exc:
        raise ArithmeticError(
            f"factorisation failed at truncation window {w} ({exc}); "
            "raise the window and retry"
        ) from exc
    return M, w, L


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
    every k-subset: factor the negated root-reduced matrix as L L^T over
    truncated series and mix L^T by a random rational k x n matrix.

    `window` is the truncation width (default: four times the exponent
    spread of the matrix).  A disagreement or an unresolved (fully
    truncated) valuation is put down to an unlucky mixing matrix: the mix
    is resampled, at most `max_reseeds` times, and the failure is reported
    if it persists; raising the window is the other remedy.  Returns the
    verified representation, which carries the checked valuations, and the
    number of reseeds used.
    """
    if max_reseeds < 0:
        raise ValueError(f"max_reseeds must be at least 0, got {max_reseeds}")
    if window is not None and Fraction(window) <= 0:
        raise ValueError("window must be positive")
    g = _rooted_ground(T, root, ground)
    expected = rooted_k_dissimilarity(T, root, k, ground=g)
    M, w, L = _rooted_core(T, root, g, window)
    failures = []
    for attempt in range(max_reseeds + 1):
        J = _sample_mix(k, len(g), seed + attempt)
        rows = _mixed_rows(J, L)
        vals = {}
        problem = None
        try:
            for pos in combinations(range(len(g)), k):
                Y = tuple(g[p] for p in pos)
                v = series_det([[row[p] for p in pos] for row in rows]).valuation()
                got = MINUS_INF if v is None else v
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
            rep = RootedRepresentation(
                ground=g,
                k=k,
                window=w,
                seed=seed + attempt,
                matrix=M,
                rows=rows,
                valuations=MappingProxyType(vals),
            )
            return rep, attempt
        failures.append(problem)
    raise ArithmeticError(
        f"rooted representation still disagrees after {max_reseeds + 1} "
        "attempts; either the random mix kept degenerating or the truncation "
        "window is too small -- raise the window and retry.\n  "
        + "\n  ".join(failures)
    )
