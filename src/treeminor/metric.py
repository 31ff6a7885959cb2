"""Tree metrics: the four-point test, exact tree realization, potential
splitting, and the spectral signature of powered distance matrices.

Matrices come in as lists of lists of Fractions (symmetric, zero diagonal
for metrics) and are read in one integer form, the entries times the lcm of
their denominators (`_integers`).  Powered matrices substitute a rational
base tau into tau^(d_ij); half-integer exponents stay exact through
square-root field elements, so every sign and signature below is
certified.  The quadruple scan runs only to name a violation, and a powered
matrix that splits as D R D, R rational, is eliminated as R, built as
integers without a square root.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import isqrt, lcm
from operator import sub
from typing import Iterable, Sequence

from .poly import _Form, _istep, _sylvester
from .radicals import QRad, exact_sign
from .tree import Tree

Matrix = list[list[Fraction]]

MINUS_INF = float("-inf")


# ---------------------------------------------------------------------------
# basic matrix plumbing


def _entry(x) -> Fraction | float:
    """x as an exact scalar: a float -inf as MINUS_INF, anything else
    converted exactly by Fraction (a float too)."""
    if isinstance(x, float) and x == MINUS_INF:
        return MINUS_INF
    return Fraction(x)


def as_matrix(rows: Sequence[Sequence]) -> Matrix:
    """Rows of Fractions and MINUS_INF; a Fraction is kept as it is."""
    m = [[x if type(x) is Fraction else _entry(x) for x in row] for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    return m


def check_dissimilarity(rows: Sequence[Sequence]) -> tuple[Matrix, list[list[int | None]], int]:
    """Validate a symmetric, zero-diagonal, nonnegative matrix m; return m
    and its integer form (w, s) of `_integers`, on which the checks run (a
    -inf is None).  The entries of m are read only to word an error."""
    m = as_matrix(rows)
    w, scale = _integers(m)
    _check_symmetric(w)
    for i, row in enumerate(w):
        if row[i] != 0:
            raise ValueError(f"diagonal entry ({i},{i}) is {m[i][i]}, not 0")
        for j in range(i + 1, len(row)):
            if row[j] is None or row[j] < 0:
                raise ValueError(f"negative entry {m[i][j]} at ({i},{j})")
    return m, w, scale


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
                row.append(_rational(tok))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"line {lineno}: bad entry {tok!r}") from exc
        rows.append(row)
    if not rows:
        raise ValueError("empty matrix")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    return rows


def _rational(tok: str) -> Fraction:
    """Fraction(tok), with the plain ASCII forms n and n/d read by int;
    every other token (decimals, exponents, underscores, other digits) goes
    to Fraction itself, so both accept and refuse the same tokens."""
    num, slash, den = tok.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if tok.isascii() and digits.isdigit() and (not slash or den.isdigit()):
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    return Fraction(tok)


def format_matrix_csv(rows: Sequence[Sequence]) -> str:
    out = []
    for row in rows:
        out.append(
            ",".join("-inf" if isinstance(x, float) and x == MINUS_INF else str(x) for x in row)
        )
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

    The scan runs on m's integer form with the sentinel of `_sentineled`
    for a -inf diagonal entry.  In a quadruple with a repeated index the
    two pair sums without that diagonal entry are equal, so the sum holding
    it decides the verdict only as the unique maximum, which neither -inf
    nor the sentinel can be.  A violation reports the sums of the entries
    themselves."""
    n = len(m)
    w = _sentineled(_integers(m)[0])
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


def _integers(m: Matrix, idx: Sequence[int] | None = None) -> tuple[list[list[int | None]], int]:
    """The block of m on the rows and columns idx (default: all) as
    integers, each entry times s, the lcm of the block's denominators, with
    -inf as None; and s."""
    idx = range(len(m)) if idx is None else idx
    block = [[m[i][j] for j in idx] for i in idx]
    scale = lcm(*{x.denominator for row in block for x in row if type(x) is Fraction})
    w = [
        [None if type(x) is float else x.numerator * (scale // x.denominator) for x in row]
        for row in block
    ]
    return w, scale


def _sentineled(w: list[list[int | None]]) -> list[list[int]]:
    """The integer form w with each None (-inf) replaced by a sentinel
    below every finite pair sum."""
    finite = [x for row in w for x in row if x is not None]
    sentinel = 2 * min(finite, default=0) - max(finite, default=0) - 1
    return [[sentinel if x is None else x for x in row] for row in w]


def _four_point_holds(w: list[list[int | None]]) -> bool:
    """Whether the integer form w (None, for -inf, on the diagonal only)
    meets the four-point condition on quadruples with repetition, the
    verdict of `_four_point_scan` in O(n^3) instead of O(n^4).

    A quadruple {a, a, b, c} (b = c allowed) has two equal pair sums, so
    it fails only when w_aa + w_bc > w_ab + w_ac; a -inf w_aa never does,
    and a -inf w_bb is replaced by the sentinel of `_sentineled`.  On
    distinct points the condition holds exactly when the Farris transform
    at point 0, g_xy = w_x0 + w_y0 - w_xy, meets the three-point condition
    g_xy >= min(g_xz, g_zy) (0-hyperbolicity at one base point; Bandelt,
    "Recognition of tree metrics", 1990), that is, when each g_xy reaches
    the smallest g on the path from x to y in a maximum spanning tree of g,
    which Prim's algorithm grows in O(n^2)."""
    n = len(w)
    v = _sentineled(w)
    for a in range(n):
        row_a, w_aa = v[a], w[a][a]
        for b in range(a):
            # gap[c] = w_ac - w_bc; the pattern {a, a, b, c} needs
            # gap[c] >= w_aa - w_ab, the pattern {b, b, a, c} gap[c] <= w_ab - w_bb
            gap = list(map(sub, row_a, v[b]))
            w_bb = w[b][b]
            if w_aa is not None and min(gap) < w_aa - row_a[b]:
                return False
            if w_bb is not None and max(gap) > row_a[b] - w_bb:
                return False
    if n < 4:
        return True
    w0 = [row[0] for row in v]

    def farris(x: int) -> list[int]:
        return [w0[x] + w0_y - w_xy for w0_y, w_xy in zip(w0, v[x])]

    # Prim from point 1; neck[x][y] is the smallest g on the tree path x-y
    key, parent = farris(1), [1] * n
    outside = set(range(2, n))
    inside = [1]
    neck = [[0] * n for _ in range(n)]
    while outside:
        x = max(outside, key=key.__getitem__)
        outside.remove(x)
        p, e = parent[x], key[x]
        g = farris(x)
        neck_x, neck_p = neck[x], neck[p]
        for y in inside:
            b = e if y == p else min(neck_p[y], e)
            if g[y] < b:
                return False
            neck_x[y] = neck[y][x] = b
        inside.append(x)
        for y in outside:
            if g[y] > key[y]:
                key[y], parent[y] = g[y], x
    return True


def _four_point_violation(m: Matrix, w: list[list[int | None]]) -> FourPointViolation | None:
    """The first violating quadruple of m, or None; w is m's integer form.
    The scan runs only when `_four_point_holds` rejects."""
    return None if _four_point_holds(w) else _four_point_scan(m)


def check_4pc(rows: Sequence[Sequence]) -> FourPointViolation | None:
    """Four-point condition, quadruples with repetition: of the three pair
    sums, the maximum must be attained at least twice.  Returns None when
    the matrix passes, otherwise the first violating quadruple."""
    m, w, _ = check_dissimilarity(rows)
    return _four_point_violation(m, w)


# ---------------------------------------------------------------------------
# potentials


def split_potentials(rows: Sequence[Sequence]) -> tuple[Matrix, list[Fraction]]:
    """Write a symmetric matrix w_ij as d_ij + p_i + p_j with d zero on the
    diagonal: p_i = w_ii / 2.  Every entry must be finite."""
    w, scale = _integers(as_matrix(rows))
    _check_symmetric(w)
    for i, row in enumerate(w):
        if None in row:
            j = row.index(None)
            raise ValueError(f"entry ({i},{j}) is -inf; potentials need finite entries")
    diag = [row[i] for i, row in enumerate(w)]
    p = [Fraction(x, 2 * scale) for x in diag]
    d = [
        [Fraction(2 * x - w_ii - w_jj, 2 * scale) for x, w_jj in zip(row, diag)]
        for row, w_ii in zip(w, diag)
    ]
    return d, p


# ---------------------------------------------------------------------------
# exact realization


def realize_tree(rows: Sequence[Sequence]) -> tuple[Tree, list[int]]:
    """Build a weighted tree whose leaf-to-leaf (point-to-point) distances
    reproduce the given tree metric exactly.

    Points 0..n-1 get vertex labels 1..n; interior vertices the metric
    forces get fresh labels above n.  Zero-distance points share a vertex.
    Raises NotTreeMetricError (a ValueError carrying the first violating
    quadruple) when the matrix is not a tree metric.

    The tree is grown and certified on 2w, (w, s) the metric's integer
    form, where every meet height (w_rq + w_ra - w_qa) / 2 is an integer.
    """
    m, w, scale = check_dissimilarity(rows)
    if not m:
        raise ValueError("empty matrix")
    bad = _four_point_violation(m, w)
    if bad is not None:
        raise NotTreeMetricError(bad)
    n = len(m)

    # merge zero-distance points into the first of them (the triangle
    # inequality, part of the four-point condition, makes this transitive)
    rep = [row.index(0) for row in w]
    reps = sorted(set(rep))
    vertex_of = [i + 1 for i in rep]

    if len(reps) == 1:
        return Tree([], vertices=[reps[0] + 1]), vertex_of

    # grow the tree point by point, rooted at the reference point r: up[v]
    # is v's parent and wt[v] the weight of the edge between them, on 2w
    fresh = n + 1
    r = reps[0]
    first = r + 1
    w_r = w[r]
    up = {reps[1] + 1: first}
    wt = {reps[1] + 1: 2 * w_r[reps[1]]}
    placed = [r, reps[1]]

    for q in reps[2:]:
        x = q + 1
        w_q = w[q]
        # deepest meet of x with any placed point, seen from the reference r
        best, h = placed[1], 0
        for a in placed[1:]:
            g = w_r[q] + w_r[a] - w_q[a]
            if g > h:
                best, h = a, g
        hang = 2 * w_r[q] - h
        # walk from the reference toward `best` for distance h
        path = [best + 1]
        while path[-1] != first:
            path.append(up[path[-1]])
        path.reverse()
        run = 0
        at = first
        for u, v in zip(path, path[1:]):
            if run == h:
                break
            e = wt[v]
            if run + e > h:
                s = fresh
                fresh += 1
                up[s], wt[s] = u, h - run
                up[v], wt[v] = s, run + e - h
                at = s
                break
            run += e
            at = v
        if hang == 0:
            # x coincides with an interior vertex: claim its label
            if at <= n:
                raise AssertionError(
                    f"points {at - 1} and {q} at distance zero were not merged"
                )
            for y, p in up.items():
                if p == at:
                    up[y] = x
            up[x], wt[x] = up.pop(at), wt.pop(at)
        else:
            up[x], wt[x] = at, hang
        placed.append(q)

    tree = Tree([(v, up[v], Fraction(wt[v], 2 * scale)) for v in up])

    # certify the construction before handing it back (tree._den divides 2s)
    k = 2 * scale // tree._den
    for i, v in enumerate(vertex_of):
        dist = tree._single_source(v)
        for j, u in enumerate(vertex_of):
            if dist[u] * k != 2 * w[i][j]:
                got = Fraction(dist[u], tree._den)
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
    tau, d = _positive_base(tau), Fraction(d)
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


def _positive_base(tau) -> Fraction:
    """tau as a Fraction, checked before any entry is powered."""
    tau = Fraction(tau)
    if tau <= 0:
        raise ValueError("base must be positive")
    return tau


def power_matrix(rows: Sequence[Sequence], tau):
    """[tau^(m_ij)]."""
    return _power(*_integers(as_matrix(rows)), _positive_base(tau))


def _power(w: list[list[int | None]], scale: int, tau: Fraction):
    """[tau^(w_ij / scale)] entry by entry, a None of w (-inf) as 0."""
    # each distinct exponent is powered once, in row-major order of first
    # appearance, so a bad exponent raises as it would entry by entry
    powers = {
        e: Fraction(0) if e is None else power_entry(tau, Fraction(e, scale))
        for e in dict.fromkeys(x for row in w for x in row)
    }
    return [[powers[x] for x in row] for row in w]


def _powered_ints(w: list[list[int | None]], scale: int, tau: Fraction) -> list[list[int]] | None:
    """[tau^(w_ij / scale)] (a None of w, -inf, powers to 0) as the integer
    matrix s R of `_rational_form`, built from the exponents alone; None
    when an exponent's denominator exceeds 2 or the matrix does not split.

    With integer exponents R is the powered matrix itself.  With
    half-integer ones and tau a square, tau^(w_ij / 2) = sqrt(tau)^w_ij is
    rational.  Otherwise the parities c_i of a 2-colouring, w_ij = c_i + c_j
    (mod 2) on every nonzero entry, give D = diag(sqrt(tau)^c_i) and the
    rational R_ij = tau^((w_ij - c_i - c_j) / 2).  An entry tau^e of R, tau
    = a/b, is scaled to a^(e - lo) b^(hi - e) with lo and hi the least and
    largest e, so s = a^-lo b^hi > 0."""
    if scale > 2:
        return None
    if scale == 2:
        a, b = tau.numerator, tau.denominator
        if isqrt(a) ** 2 == a and isqrt(b) ** 2 == b:
            tau = Fraction(isqrt(a), isqrt(b))
        else:
            c = _parities([[None if x is None else x & 1 for x in row] for row in w])
            if c is None:
                return None
            w = [
                [None if x is None else (x - c_i - c_j) >> 1 for x, c_j in zip(row, c)]
                for row, c_i in zip(w, c)
            ]
    exponents = {x for row in w for x in row if x is not None}
    lo, hi = min(exponents, default=0), max(exponents, default=0)
    a, b = tau.numerator, tau.denominator
    powers = {e: a ** (e - lo) * b ** (hi - e) for e in exponents}
    return [[0 if x is None else powers[x] for x in row] for row in w]


def _powered_form(w: list[list[int | None]], scale: int, tau: Fraction) -> list[list]:
    """[tau^(w_ij / scale)] in scalars `_inertia` runs on: the integer
    matrix of `_powered_ints` when there is one, else `_power`'s entries,
    QRads at the half-integer exponents (a denominator above 2 raises
    there).  `_rational_form` would find no split either: the odd exponents
    give it the same parity graph."""
    a = _powered_ints(w, scale, tau)
    return _power(w, scale, tau) if a is None else a


def _check_symmetric(a: Sequence[Sequence]) -> None:
    """Raise unless the matrix is square and exactly symmetric."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i},{j})")


def _exact_form(rows: Sequence[Sequence]) -> list[list[int]] | list[list[QRad]]:
    """`rows` in the scalars `_inertia` runs on: the rational form, scaled
    to integers, when there is one, else QRads; both keep the inertia and
    every principal minor's sign.  Raises ValueError unless `rows` is
    square and symmetric, TypeError on an inexact entry such as a float."""
    a = [list(row) for row in rows]
    _check_symmetric(a)
    return _rational_form(a) or [[QRad.of(x) for x in row] for row in a]


def inertia(rows: Sequence[Sequence]) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a symmetric matrix of exact
    scalars (a float raises TypeError) by fraction-free congruence.  A
    matrix of square-root entries that is D R D, with R rational and D a
    positive diagonal (every powered tree metric is), is eliminated as R
    scaled to integers: by Sylvester's law of inertia the two agree."""
    return _inertia(_exact_form(rows))


def _rational_form(a: Sequence[Sequence]) -> list[list[int]] | None:
    """s R with a = D R D, R rational, D = diag(sqrt(d)^p_i) for a single
    squarefree d and parities p_i in {0, 1}, and s the lcm of R's
    denominators; None when there is no such R.

    An entry c*sqrt(d) off the diagonal needs p_i != p_j, a rational one
    p_i == p_j: the parities are a 2-colouring of the nonzero entries.  Two
    radicands, an irrational diagonal entry or an odd cycle of irrational
    entries rule it out.  D and s are positive, so s R has the inertia of a
    and the sign of each of its principal minors."""
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
            elif isinstance(x, (int, Fraction)):
                part = Fraction(x), 1
            else:
                return None
            if part[0] and part[1] != 1:
                if radicand not in (1, part[1]):
                    return None
                radicand = part[1]
            out.append(part)
        parts.append(out)
    parity = _parities([[(d != 1) if c else None for c, d in row] for row in parts])
    if parity is None:
        return None
    r = [
        [c / radicand if parity[i] and parity[j] else c for j, (c, _) in enumerate(row)]
        for i, row in enumerate(parts)
    ]
    scale = lcm(*(x.denominator for row in r for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in r]


def _parities(odd: list[list[int | None]]) -> list[int] | None:
    """p_i in {0, 1} with p_i ^ p_j == odd[i][j] wherever odd[i][j] is
    not None, by a depth-first walk from each uncoloured index in turn;
    None on an odd cycle."""
    n = len(odd)
    parity: list[int | None] = [None] * n
    for start in range(n):
        if parity[start] is not None:
            continue
        parity[start] = 0
        stack = [start]
        while stack:
            i = stack.pop()
            for j, o in enumerate(odd[i]):
                if o is None:
                    continue
                want = parity[i] ^ o
                if parity[j] is None:
                    parity[j] = want
                    stack.append(j)
                elif parity[j] != want:
                    return None
    return parity


def _inertia(a: list[list]) -> tuple[int, int, int]:
    """The elimination behind `inertia`, on a square symmetric matrix of
    ints or of exact field elements (QRads, Fractions); it overwrites `a`.

    Fraction-free principal pivoting, the Sylvester step of `poly.det`:
    with S the indices eliminated so far and prev = det a[S], each live
    a_ij is det a[S+i, S+j], so dividing by prev is exact.  A pivot
    p = a_kk != 0 sets a_ij <- (p a_ij - a_ik a_kj) / prev and adds an
    eigenvalue of the sign of p / prev.  When every live diagonal entry is
    zero but some a_ij = b is not, the congruence e_i -> e_i + e_j (of
    determinant 1, so entries stay minors) adds row and column j to i,
    and a_ii = 2b.  What is left when no live entry is nonzero is zero."""
    integral = all(isinstance(x, int) for row in a for x in row)
    live = list(range(len(a)))
    prev = 1
    pos = neg = 0
    while live:
        k = next((i for i in live if exact_sign(a[i][i]) != 0), None)
        if k is None:
            pair = next(((i, j) for i in live for j in live if exact_sign(a[i][j]) != 0), None)
            if pair is None:
                break
            k, j = pair
            for c in live:
                a[k][c] = a[c][k] = a[k][c] + a[j][c]
            a[k][k] = 2 * a[k][j]
        p = a[k][k]
        if exact_sign(p) == exact_sign(prev):
            pos += 1
        else:
            neg += 1
        live.remove(k)
        row_k = a[k]
        # exact division by prev: floor division of ints, else one inverse
        inv = None if integral else QRad.of(1) / prev
        # the entries stay symmetric: update i <= j and mirror
        for ii, i in enumerate(live):
            row_i = a[i]
            a_ik = row_i[k]
            for j in live[ii:]:
                x = p * row_i[j] - a_ik * row_k[j]
                row_i[j] = a[j][i] = x // prev if integral else x * inv
        prev = p
    return pos, neg, len(live)


def spectral_signature(
    rows: Sequence[Sequence], tau, subset: Sequence[int] | None = None
) -> tuple[int, int, int]:
    """Inertia of [tau^(d_ij)] restricted to the subset."""
    m = as_matrix(rows)
    n = len(m)
    idx = range(n) if subset is None else _subset_indices(subset, n)
    w, scale = _integers(m, idx)
    _check_symmetric(w)
    return _inertia(_powered_form(w, scale, _positive_base(tau)))


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
    weak inequalities; a float entry raises TypeError.  When M = D R D
    with R rational and D a positive diagonal, the signs are read on R
    scaled to integers.  Listed subsets take one exact elimination each.
    The default reads the signs off one Sylvester walk (poly._sylvester)
    over that integer matrix, run on its ints as they are; the sets the
    walk leaves out below a zero minor, and every set of a matrix with no
    rational form, take one elimination each.  Returns the first violating
    subset, in the listed order or by size and then lexicographically, or
    None."""
    a = _exact_form(rows)
    n = len(a)
    minors = {}
    if subsets is not None:
        subsets = [tuple(_subset_indices(xs, n)) for xs in subsets]
    elif n > 12:
        raise ValueError("n > 12: pass an explicit subset sample")
    else:
        subsets = (xs for r in range(1, n + 1) for xs in combinations(range(n), r))
        if all(isinstance(x, int) for row in a for x in row):
            minors = _sylvester(_Form(a, 1, _istep, int), range(n), n)
    for xs in subsets:
        minor = minors.get(xs)
        sign = _det_sign(a, xs) if minor is None else exact_sign(minor)
        if sign < 0 if len(xs) % 2 else sign > 0:
            return xs
    return None


def _det_sign(a: Sequence[Sequence], xs: Sequence[int]) -> int:
    """Sign of det a[xs], from one exact elimination of the block."""
    _, q, z = _inertia([[a[i][j] for j in xs] for i in xs])
    return 0 if z else (-1) ** q


def hpp_eigen_check(rows: Sequence[Sequence], taus: Iterable = (10, 100)):
    """Eigenvalue-count test for a symmetric pair-value matrix, -inf allowed
    on the diagonal only (max-plus order: -inf powers to a zero entry).

    For each base in the grid, [tau^(f_ij)] must have at most one positive
    eigenvalue (counted on its rational form, scaled to integers, when it
    has one); the four-point condition on f itself is checked alongside.
    Returns None when everything holds, the first failing base otherwise,
    or the four-point certificate."""
    m = as_matrix(rows)
    w, scale = _integers(m)
    _check_symmetric(w)
    for i, j in combinations(range(len(w)), 2):
        if w[i][j] is None:
            raise ValueError(
                f"-inf off the diagonal at ({i},{j}); only diagonal entries may be -inf"
            )
    for tau in taus:
        tau = _positive_base(tau)
        positives, _, _ = _inertia(_powered_form(w, scale, tau))
        if positives > 1:
            return tau
    return _four_point_violation(m, w)


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
