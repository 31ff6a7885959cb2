"""Tree metrics: the four-point test, exact tree realization, potential
splitting, and the spectral signature of powered distance matrices.

Matrices here are plain lists of lists of Fractions (symmetric, zero
diagonal for metrics).  Powered matrices substitute a rational base tau
into tau^(d_ij); half-integer exponents stay exact through square-root
field elements, so every sign and signature below is certified.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import lcm
from typing import Iterable, Sequence

from .radicals import QRad, exact_sign
from .tree import Tree

Matrix = list[list[Fraction]]

MINUS_INF = float("-inf")


# ---------------------------------------------------------------------------
# basic matrix plumbing


def as_matrix(rows: Sequence[Sequence]) -> Matrix:
    m = [
        [x if x == MINUS_INF else Fraction(x) for x in row]
        for row in rows
    ]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    return m


def check_dissimilarity(rows: Sequence[Sequence]) -> Matrix:
    """Validate a symmetric, zero-diagonal, nonnegative matrix."""
    m = as_matrix(rows)
    n = len(m)
    for i in range(n):
        if m[i][i] != 0:
            raise ValueError(f"diagonal entry ({i},{i}) is {m[i][i]}, not 0")
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i},{j})")
            if m[i][j] < 0:
                raise ValueError(f"negative entry {m[i][j]} at ({i},{j})")
    return m


def parse_matrix_csv(text: str) -> list[list[Fraction | float]]:
    """Comma-separated rows; entries are rationals like 3, 1/2, 2.5, or the
    token -inf."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        row: list[Fraction | float] = []
        for tok in line.split(","):
            tok = tok.strip()
            if tok == "-inf":
                row.append(MINUS_INF)
                continue
            try:
                row.append(Fraction(tok))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"line {lineno}: bad entry {tok!r}") from exc
        rows.append(row)
    if not rows:
        raise ValueError("empty matrix")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    return rows


def format_matrix_csv(rows: Sequence[Sequence]) -> str:
    out = []
    for row in rows:
        out.append(",".join("-inf" if x == MINUS_INF else str(x) for x in row))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# four-point condition


@dataclass(frozen=True)
class FourPointViolation:
    quadruple: tuple[int, int, int, int]
    sums: tuple[Fraction, Fraction, Fraction]

    def __str__(self) -> str:
        i, j, k, l = self.quadruple
        s = self.sums
        return (
            f"points ({i},{j},{k},{l}): "
            f"d({i},{j})+d({k},{l}) = {s[0]}, "
            f"d({i},{k})+d({j},{l}) = {s[1]}, "
            f"d({i},{l})+d({j},{k}) = {s[2]} "
            "-- the maximum is attained only once"
        )


class NotTreeMetricError(ValueError):
    """A dissimilarity matrix that fails the four-point condition; carries
    the first violating quadruple."""

    def __init__(self, violation: FourPointViolation):
        self.violation = violation
        super().__init__(f"not a tree metric: {violation}")


def _four_point_scan(m: Matrix) -> FourPointViolation | None:
    """The first quadruple, with repetition, whose largest pair sum is
    attained only once.

    The scan runs on integers: the entries times the lcm of their
    denominators, with a -inf diagonal entry replaced by a sentinel below
    every finite pair sum.  In a quadruple with a repeated index the two
    pair sums without that diagonal entry are equal, so the sum holding it
    decides the verdict only as the unique maximum, which neither -inf nor
    the sentinel can be.  A violation reports the sums of the entries
    themselves."""
    n = len(m)
    finite = [x for row in m for x in row if x != MINUS_INF]
    scale = lcm(*(x.denominator for x in finite))
    lo, hi = min(finite, default=0) * scale, max(finite, default=0) * scale
    sentinel = int(2 * lo - hi) - 1
    w = [
        [sentinel if x == MINUS_INF else x.numerator * (scale // x.denominator) for x in row]
        for row in m
    ]
    for i, j, k, l in combinations_with_replacement(range(n), 4):
        a = w[i][j] + w[k][l]
        b = w[i][k] + w[j][l]
        c = w[i][l] + w[j][k]
        # the maximum is attained once: a or b above the other and not tied
        # with c, or c above the tied pair
        if a != c if a > b else b != c if b > a else c > a:
            return FourPointViolation(
                (i, j, k, l), (m[i][j] + m[k][l], m[i][k] + m[j][l], m[i][l] + m[j][k])
            )
    return None


def check_4pc(rows: Sequence[Sequence]) -> FourPointViolation | None:
    """Four-point condition, quadruples with repetition: of the three pair
    sums, the maximum must be attained at least twice.  Returns None when
    the matrix passes, otherwise the first violating quadruple."""
    return _four_point_scan(check_dissimilarity(rows))


# ---------------------------------------------------------------------------
# potentials


def split_potentials(rows: Sequence[Sequence]) -> tuple[Matrix, list[Fraction]]:
    """Write a symmetric matrix w_ij as d_ij + p_i + p_j with d zero on the
    diagonal: p_i = w_ii / 2.  Every entry must be finite."""
    w = as_matrix(rows)
    n = len(w)
    for i in range(n):
        for j in range(i + 1, n):
            if w[i][j] != w[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i},{j})")
    for i in range(n):
        for j in range(n):
            if w[i][j] == MINUS_INF:
                raise ValueError(f"entry ({i},{j}) is -inf; potentials need finite entries")
    p = [w[i][i] / 2 for i in range(n)]
    d = [[w[i][j] - p[i] - p[j] for j in range(n)] for i in range(n)]
    return d, p


def join_potentials(rows: Sequence[Sequence], potentials: Sequence) -> Matrix:
    d = as_matrix(rows)
    p = [Fraction(x) for x in potentials]
    if len(p) != len(d):
        raise ValueError("one potential per point, please")
    return [[d[i][j] + p[i] + p[j] for j in range(len(d))] for i in range(len(d))]


# ---------------------------------------------------------------------------
# exact realization


def realize_tree(rows: Sequence[Sequence]) -> tuple[Tree, list[int]]:
    """Build a weighted tree whose leaf-to-leaf (point-to-point) distances
    reproduce the given tree metric exactly.

    Points 0..n-1 get vertex labels 1..n; interior vertices the metric
    forces get fresh labels above n.  Zero-distance points share a vertex.
    Raises NotTreeMetricError (a ValueError carrying the first violating
    quadruple) when the matrix is not a tree metric.
    """
    m = check_dissimilarity(rows)
    bad = _four_point_scan(m)
    if bad is not None:
        raise NotTreeMetricError(bad)
    n = len(m)
    vertex_of = [0] * n

    # merge zero-distance points
    rep = list(range(n))
    for i in range(n):
        for j in range(i):
            if m[i][j] == 0:
                rep[i] = rep[j]
                break
    reps = sorted(set(rep))
    for i in range(n):
        vertex_of[i] = rep[i] + 1

    if len(reps) == 1:
        return Tree([], vertices=[reps[0] + 1]), vertex_of

    # grow the tree point by point; adjacency with explicit weights
    adj: dict[int, dict[int, Fraction]] = {}

    def link(u: int, v: int, w: Fraction) -> None:
        adj.setdefault(u, {})[v] = w
        adj.setdefault(v, {})[u] = w

    def cut(u: int, v: int) -> Fraction:
        w = adj[u].pop(v)
        adj[v].pop(u)
        return w

    def walk(a: int, b: int) -> list[int]:
        prev = {a: None}
        stack = [a]
        while stack:
            x = stack.pop()
            if x == b:
                break
            for y in adj[x]:
                if y not in prev:
                    prev[y] = x
                    stack.append(y)
        path = [b]
        while prev[path[-1]] is not None:
            path.append(prev[path[-1]])
        path.reverse()
        return path

    fresh = n + 1
    r = reps[0]
    first, second = r + 1, reps[1] + 1
    link(first, second, m[r][reps[1]])
    placed = [r, reps[1]]

    for q in reps[2:]:
        x = q + 1
        # deepest meet of x with any placed point, seen from the reference r
        best, h = placed[1], Fraction(0)
        for a in placed[1:]:
            g = (m[r][q] + m[r][a] - m[q][a]) / 2
            if g > h:
                best, h = a, g
        hang = m[r][q] - h
        # walk from the reference toward `best` for distance h
        path = walk(first, best + 1)
        run = Fraction(0)
        at = first
        for u, v in zip(path, path[1:]):
            if run == h:
                break
            w = adj[u][v]
            if run + w > h:
                cut(u, v)
                s = fresh
                fresh += 1
                link(u, s, h - run)
                link(s, v, run + w - h)
                at = s
                break
            run += w
            at = v
        if hang == 0:
            # x coincides with an interior vertex: claim its label
            if at <= n:
                raise ValueError(f"points {at - 1} and {q} at distance zero were not merged")
            for y in list(adj[at]):
                link(x, y, cut(at, y))
            adj.pop(at, None)
        else:
            link(x, at, hang)
        placed.append(q)

    edges = []
    seen = set()
    for u, nbrs in adj.items():
        for v, w in nbrs.items():
            if (v, u) not in seen:
                seen.add((u, v))
                edges.append((u, v, w))
    tree = Tree(edges)

    # certify the construction before handing it back
    for i in range(n):
        for j in range(n):
            got = Fraction(0) if vertex_of[i] == vertex_of[j] else tree.dist(
                vertex_of[i], vertex_of[j]
            )
            if got != m[i][j]:
                raise AssertionError(
                    f"realization is off at ({i},{j}): built {got}, wanted {m[i][j]}"
                )
    return tree, vertex_of


def square_cycle_metric() -> Matrix:
    """The 4-cycle metric, the textbook non-example: a metric that fails
    the four-point condition."""
    return as_matrix([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])


# ---------------------------------------------------------------------------
# exact signatures of powered matrices


def power_entry(tau: Fraction, d: Fraction):
    """tau^d exactly: a Fraction for integer d, a square-root extension for
    half-integer d, zero for d = -inf.  Denominators beyond 2 would need
    deeper radicals."""
    if d == MINUS_INF:
        return Fraction(0)
    tau, d = Fraction(tau), Fraction(d)
    if tau <= 0:
        raise ValueError("base must be positive")
    if d.denominator == 1:
        return tau ** d.numerator
    if d.denominator == 2:
        whole = d.numerator // 2  # floor; remainder is 1/2
        return (tau ** whole) * QRad.sqrt_of(tau)
    raise ValueError(f"exponent {d} needs a {d.denominator}-th root; only 2 is supported")


def _subset_indices(subset: Iterable[int], n: int) -> list[int]:
    """The subset as a list, checked to hold distinct indices in 0..n-1."""
    idx = list(subset)
    if len(set(idx)) != len(idx) or not all(0 <= i < n for i in idx):
        raise ValueError(f"subset {idx} must list distinct indices in 0..{n - 1}")
    return idx


def power_matrix(rows: Sequence[Sequence], tau, subset: Sequence[int] | None = None):
    """[tau^(m_ij)] on the rows and columns of the subset (default: all);
    the subset must list distinct indices in 0..n-1."""
    m = as_matrix(rows)
    n = len(m)
    return _power(m, tau, range(n) if subset is None else _subset_indices(subset, n))


def _power(m: Matrix, tau, idx: Sequence[int]):
    """power_matrix on a matrix that as_matrix has already converted."""
    # each distinct exponent is powered once, in row-major order of first
    # appearance, so a bad exponent raises as it would entry by entry
    exponents = dict.fromkeys(m[i][j] for i in idx for j in idx)
    powers = {d: power_entry(tau, d) for d in exponents}
    return [[powers[m[i][j]] for j in idx] for i in idx]


def _check_symmetric(a: Sequence[Sequence]) -> None:
    """Raise unless the matrix is square and exactly symmetric."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(i):
            if exact_sign(a[i][j] - a[j][i]) != 0:
                raise ValueError(f"matrix is not symmetric at ({i},{j})")


def inertia(rows: Sequence[Sequence]) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a symmetric matrix by exact
    congruence: 1x1 pivots where the diagonal allows, hyperbolic 2x2 blocks
    where it does not.  A matrix of square-root entries that is D R D, with
    R rational and D a positive diagonal (every powered tree metric is),
    is eliminated as R: by Sylvester's law of inertia the two agree."""
    a = [list(row) for row in rows]
    _check_symmetric(a)
    return _inertia(_rational_form(a) or a)


def _rational_form(a: Sequence[Sequence]) -> list[list[Fraction]] | None:
    """R with a = D R D, R rational and D = diag(sqrt(d)^p_i) for a single
    squarefree d and parities p_i in {0, 1}; None when there is none.

    An entry c*sqrt(d) off the diagonal needs p_i != p_j, a rational one
    p_i == p_j: the parities are a 2-colouring of the nonzero entries.  Two
    radicands, an irrational diagonal entry or an odd cycle of irrational
    entries rule it out.  D is positive, so R has the inertia of a and the
    sign of each of its principal minors."""
    n = len(a)
    parts = []
    radicand = 1
    for row in a:
        out = []
        for x in row:
            if isinstance(x, QRad):
                part = x.monomial()
                if part is None:
                    return None
            elif isinstance(x, Fraction):
                part = x, 1
            elif isinstance(x, int):
                part = Fraction(x), 1
            else:
                return None
            if part[0] and part[1] != 1:
                if radicand not in (1, part[1]):
                    return None
                radicand = part[1]
            out.append(part)
        parts.append(out)
    parity: list[int | None] = [None] * n
    for start in range(n):
        if parity[start] is not None:
            continue
        parity[start] = 0
        stack = [start]
        while stack:
            i = stack.pop()
            for j, (c, d) in enumerate(parts[i]):
                if not c:
                    continue
                want = parity[i] ^ (d != 1)
                if parity[j] is None:
                    parity[j] = want
                    stack.append(j)
                elif parity[j] != want:
                    return None
    return [
        [c / radicand if parity[i] and parity[j] else c for j, (c, _) in enumerate(row)]
        for i, row in enumerate(parts)
    ]


def _inertia(a: list[list]) -> tuple[int, int, int]:
    """The elimination behind `inertia`, on a matrix already known to be
    square and symmetric; it overwrites `a`."""
    n = len(a)
    live = list(range(n))
    pos = neg = zero = 0
    while live:
        piv = next((i for i in live if exact_sign(a[i][i]) != 0), None)
        if piv is not None:
            s = exact_sign(a[piv][piv])
            pos, neg = pos + (s > 0), neg + (s < 0)
            live.remove(piv)
            d = a[piv][piv]
            for i in live:
                if exact_sign(a[i][piv]) == 0:
                    continue
                f = a[i][piv] / d
                for j in live:
                    a[i][j] = a[i][j] - f * a[piv][j]
                a[i][piv] = 0
            for i in live:
                a[piv][i] = 0
            continue
        off = next(
            (
                (i, j)
                for ii, i in enumerate(live)
                for j in live[ii + 1:]
                if exact_sign(a[i][j]) != 0
            ),
            None,
        )
        if off is None:
            zero += len(live)
            break
        i0, j0 = off
        # a zero diagonal with a_{i0 j0} != 0: a hyperbolic pair, one of each
        pos += 1
        neg += 1
        live.remove(i0)
        live.remove(j0)
        b = a[i0][j0]
        for r in live:
            u, v = a[r][i0], a[r][j0]
            if exact_sign(u) == 0 and exact_sign(v) == 0:
                continue
            # subtract the rank-2 correction (u v' + v u') / b
            for c in live:
                a[r][c] = a[r][c] - (u * a[j0][c] + v * a[i0][c]) / b
        for r in live:
            a[r][i0] = a[r][j0] = a[i0][r] = a[j0][r] = 0
    return pos, neg, zero


def spectral_signature(
    rows: Sequence[Sequence], tau, subset: Sequence[int] | None = None
) -> tuple[int, int, int]:
    """Inertia of [tau^(d_ij)] restricted to the subset."""
    return inertia(power_matrix(rows, tau, subset))


def star_condition_check(
    rows: Sequence[Sequence], subsets: Iterable[Sequence[int]] | None = None
):
    """det M[X] >= 0 for odd |X| and <= 0 for even |X|, over the listed
    principal subsets (default: every nonempty one; n <= 12 only, pass
    explicit subsets beyond that).  Each listed subset must hold distinct
    indices in 0..n-1.

    M must already be numeric (say a powered matrix [tau^(w_ij)], whose
    entries may be square-root extensions) and symmetric, which is checked
    once on the whole matrix.  Signs are exact, so zero minors satisfy the
    weak inequalities.  When M = D R D with R rational and D a positive
    diagonal, the signs are read on R.  Listed subsets take one exact
    elimination each; the default walks every subset as a prefix tree and
    reads each determinant off a shared Schur complement
    (`_principal_minor_signs`).  Returns the first violating subset, in
    the listed order or by size and then lexicographically, or None."""
    m = [list(row) for row in rows]
    n = len(m)
    _check_symmetric(m)
    if subsets is not None:
        subsets = [_subset_indices(xs, n) for xs in subsets]
    elif n > 12:
        raise ValueError("n > 12: pass an explicit subset sample")
    a = _rational_form(m) or m
    if subsets is None:
        signs = _principal_minor_signs(a)
        checks = (
            (xs, signs[xs]) for r in range(1, n + 1) for xs in combinations(range(n), r)
        )
    else:
        checks = ((tuple(xs), _det_sign(a, xs)) for xs in subsets)
    for xs, sign in checks:
        if sign < 0 if len(xs) % 2 else sign > 0:
            return xs
    return None


def _det_sign(a: Sequence[Sequence], xs: Sequence[int]) -> int:
    """Sign of det a[xs], from one exact elimination of the block."""
    _, q, z = _inertia([[a[i][j] for j in xs] for i in xs])
    return 0 if z else (-1) ** q


def _principal_minor_signs(a: list[list]) -> dict[tuple[int, ...], int]:
    """Sign of det a[S] for every nonempty S, keyed by the sorted tuple.

    Subsets are walked depth first, S before its extensions by larger
    indices.  The walk carries C, the Schur complement of a[S] on the
    indices after max S; det a[S + k] = det a[S] * C_kk, and one rank-1
    update of C gives the complement for S + k.  Where C_kk = 0 every
    extension of S + k takes its own elimination instead."""
    signs: dict[tuple[int, ...], int] = {}

    def walk(prefix: tuple[int, ...], sign: int, comp: list[list], rest: list[int]) -> None:
        for u, k in enumerate(rest):
            xs = prefix + (k,)
            piv = comp[u][u]
            s = exact_sign(piv)
            signs[xs] = sign * s
            below = rest[u + 1:]
            if not below:
                continue
            if s == 0:
                for r in range(1, len(below) + 1):
                    for more in combinations(below, r):
                        signs[xs + more] = _det_sign(a, xs + more)
                continue
            col = comp[u][u + 1:]
            nxt = []
            for c, row in zip(col, comp[u + 1:]):
                row = row[u + 1:]
                if exact_sign(c):
                    f = c / piv
                    row = [x - f * y for x, y in zip(row, col)]
                nxt.append(row)
            walk(xs, sign * s, nxt, below)

    walk((), 1, a, list(range(len(a))))
    return signs


def hpp_eigen_check(rows: Sequence[Sequence], taus: Iterable = (10, 100)):
    """Eigenvalue-count test for a symmetric pair-value matrix, -inf allowed
    on the diagonal only (max-plus order: -inf powers to a zero entry).

    For each base in the grid, [tau^(f_ij)] must have at most one positive
    eigenvalue (counted on its rational form when it has one, as in
    `inertia`); the four-point condition on f itself is checked alongside.
    Returns None when everything holds, the first failing base otherwise,
    or the four-point certificate."""
    m = as_matrix(rows)
    n = len(m)
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i},{j})")
            if m[i][j] == MINUS_INF:
                raise ValueError(
                    f"-inf off the diagonal at ({i},{j}); only diagonal "
                    "entries may be -inf"
                )
    for tau in taus:
        a = _power(m, tau, range(n))
        positives, _, _ = _inertia(_rational_form(a) or a)
        if positives > 1:
            return Fraction(tau)
    return _four_point_scan(m)


# ---------------------------------------------------------------------------
# random generators used by the stress checks


def random_tree_metric(
    n: int, seed: int | None = None, half_integers: bool = False
) -> Matrix:
    """Distances between n uniformly chosen vertices of a random weighted
    tree (points may repeat, so zero distances do occur)."""
    rng = random.Random(seed)
    parents = [(rng.randint(1, v - 1), v) for v in range(2, max(n, 2) + 1)]
    t = Tree(
        [
            (u, v, Fraction(rng.randint(1, 8), 2 if half_integers else 1))
            for u, v in parents
        ]
    )
    pts = [rng.choice(t.vertices) for _ in range(n)]
    return [
        [Fraction(0) if a == b else t.dist(a, b) for b in pts] for a in pts
    ]


def random_symmetric_matrix(
    n: int, seed: int | None = None, half_integers: bool = True, high: int = 8
) -> Matrix:
    """Random zero-diagonal symmetric matrix with (half-)integer entries."""
    rng = random.Random(seed)
    step = Fraction(1, 2) if half_integers else Fraction(1)
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = step * rng.randint(1, high)
    return m
