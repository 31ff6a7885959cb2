"""Tree metrics: the four-point test, exact tree realization, potential
splitting, and the spectral signature of powered distance matrices.

Matrices come in as lists of lists of Fractions (symmetric, zero diagonal
for metrics) and are read in one integer form, the entries times the lcm of
their denominators (`_integers`).  Powered matrices substitute a rational
base tau into tau^(d_ij); half-integer exponents stay exact as pairs
a + b sqrt(r), r = num * den of tau (`_Surd`), whose signs need no
factorisation of r, so every sign and signature below is certified.  A
tree metric is recognised by growing its realizing tree and checking every
distance against it; the quadruple scan runs only when the grower refuses,
and names the violation.  A matrix of square-root entries that splits as
D R D, R rational, is eliminated as R scaled to integers, by one split
(`_rational_form`); a powered matrix hands it its exponents, so no square
root of tau is taken on one that splits.  A finite tree metric's powered
matrix is never built: its inertia has a closed form in its distinct
points.  Every walked sign is read on ints, Fractions and pairs of one r;
`inertia` and `star_condition_check` refuse any other entry, a float
among them, with TypeError.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement
from math import gcd, lcm
from typing import Iterable, Sequence

from .poly import _Form, _as_fraction, _istep, _sylvester
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


def check_dissimilarity(rows: Sequence[Sequence]) -> tuple[list[list[int | None]], int]:
    """Validate a symmetric, zero-diagonal, nonnegative matrix; return its
    integer form (w, s) of `_integers`, on which the checks run (a -inf is
    None).  An error words an entry back as `_value` does."""
    w, scale = _integers(as_matrix(rows))
    _check_symmetric(w)
    return _dissimilarity(w, scale)


def _dissimilarity(w: list[list[int | None]], scale: int) -> tuple[list[list[int | None]], int]:
    """The symmetric integer form (w, scale), checked to be zero on the
    diagonal and nonnegative off it, as `check_dissimilarity` words it."""
    for i, row in enumerate(w):
        if row[i] != 0:
            raise ValueError(f"diagonal entry ({i},{i}) is {_value(row[i], scale)}, not 0")
        for j in range(i + 1, len(row)):
            if row[j] is None or row[j] < 0:
                raise ValueError(f"negative entry {_value(row[j], scale)} at ({i},{j})")
    return w, scale


def _value(x: int | None, scale: int) -> Fraction | float:
    """The entry x / scale of an integer form, MINUS_INF for None."""
    return MINUS_INF if x is None else Fraction(x, scale)


def parse_matrix_csv(text: str) -> list[list[Fraction | float]]:
    """Comma-separated rows; entries are rationals like 3, 1/2, 2.5, read by
    poly._as_fraction (which refuses one of more than 4,300 digits), or the
    token -inf, spaces around them ignored.  Each distinct token text is
    stripped and parsed once, and its value shared by every entry that
    repeats it; a tree metric has few distinct entries among its n^2.  A
    token that fails is not remembered: the error names its line."""
    values: dict[str, Fraction | float] = {"-inf": MINUS_INF}
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split(",")
        for tok in toks:
            if tok not in values:
                s = tok.strip()
                try:
                    values[tok] = values[s] if s in values else _as_fraction(s)
                except (ValueError, ZeroDivisionError) as exc:
                    raise ValueError(f"line {lineno}: bad entry {s!r}") from exc
        rows.append([values[tok] for tok in toks])
    if not rows:
        raise ValueError("empty matrix")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    return rows


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


def _four_point_scan(w: list[list[int | None]], scale: int) -> FourPointViolation | None:
    """The first quadruple, with repetition, whose largest pair sum is
    attained only once, in the integer form (w, scale) of `_integers`.

    The scan runs on w with the sentinel of `_sentineled` for a -inf
    diagonal entry.  In a quadruple with a repeated index the two pair sums
    without that diagonal entry are equal, so the sum holding it decides
    the verdict only as the unique maximum, which neither -inf nor the
    sentinel can be.  A violation reports each sum over scale (`_value`),
    -inf where it holds a -inf."""
    v = _sentineled(w)
    for i, j, k, l in combinations_with_replacement(range(len(w)), 4):
        a = v[i][j] + v[k][l]
        b = v[i][k] + v[j][l]
        c = v[i][l] + v[j][k]
        # the maximum is attained once: a or b above the other and not tied
        # with c, or c above the tied pair
        if a != c if a > b else b != c if b > a else c > a:
            pairs = ((w[i][j], w[k][l]), (w[i][k], w[j][l]), (w[i][l], w[j][k]))
            sums = (None if None in xy else sum(xy) for xy in pairs)
            return FourPointViolation((i, j, k, l), tuple(_value(x, scale) for x in sums))
    return None


def _integers(m: Matrix, idx: Sequence[int] | None = None) -> tuple[list[list[int | None]], int]:
    """The block of m on the rows and columns idx (default: all) as
    integers, each entry times s, the lcm of the block's denominators, with
    -inf as None; and s.  A Fraction's numerator and denominator are read
    from its slots: the properties cost a Python call per read."""
    rows = m if idx is None else [[m_i[j] for j in idx] for m_i in (m[i] for i in idx)]
    scale = lcm(*{x._denominator for row in rows for x in row if type(x) is Fraction})
    w = [
        [None if type(x) is float else x._numerator * (scale // x._denominator) for x in row]
        for row in rows
    ]
    return w, scale


def _sentineled(w: list[list[int | None]]) -> list[list[int]]:
    """The integer form w with each None (-inf) replaced by a sentinel
    below every finite pair sum."""
    finite = [x for row in w for x in row if x is not None]
    sentinel = 2 * min(finite, default=0) - max(finite, default=0) - 1
    return [[sentinel if x is None else x for x in row] for row in w]


def check_4pc(rows: Sequence[Sequence]) -> FourPointViolation | None:
    """Four-point condition, quadruples with repetition: of the three pair
    sums, the maximum must be attained at least twice.  Returns None when
    the matrix passes, otherwise the first violating quadruple.  A realizing
    tree that `_grow` certifies proves the condition; the quadruple scan
    runs only when the grower refuses, and decides."""
    w, scale = check_dissimilarity(rows)
    return None if _grow(w) is not None else _four_point_scan(w, scale)


# ---------------------------------------------------------------------------
# potentials


def split_potentials(rows: Sequence[Sequence]) -> tuple[Matrix, list[Fraction]]:
    """Write a symmetric matrix w_ij as d_ij + p_i + p_j with d zero on the
    diagonal: p_i = w_ii / 2.  Every entry must be finite."""
    d, p, _ = _potential_split(rows)
    return d, p


def _potential_split(
    rows: Sequence[Sequence],
) -> tuple[Matrix, list[Fraction], tuple[list[list[int]], int]]:
    """`split_potentials`' d and p, and the integer form (2 w_ij - w_ii -
    w_jj, 2s) of d, (w, s) the integer form of rows: the one read of rows
    that `decompose` realizes d from (`_realize`)."""
    w, scale = _integers(as_matrix(rows))
    _check_symmetric(w)
    for i, row in enumerate(w):
        if None in row:
            j = row.index(None)
            raise ValueError(f"entry ({i},{j}) is -inf; potentials need finite entries")
    diag = [row[i] for i, row in enumerate(w)]
    d = [[2 * x - w_ii - w_jj for x, w_jj in zip(row, diag)] for row, w_ii in zip(w, diag)]
    # d and p over 2s: one Fraction per distinct numerator
    value = {x: Fraction(x, 2 * scale) for x in {*diag, *chain.from_iterable(d)}}
    return [[value[x] for x in row] for row in d], [value[x] for x in diag], (d, 2 * scale)


# ---------------------------------------------------------------------------
# exact realization


def realize_tree(rows: Sequence[Sequence]) -> tuple[Tree, list[int]]:
    """Build a weighted tree whose leaf-to-leaf (point-to-point) distances
    reproduce the given tree metric exactly.

    Points 0..n-1 get vertex labels 1..n; interior vertices the metric
    forces get fresh labels above n.  Zero-distance points share a vertex.
    Raises NotTreeMetricError (a ValueError carrying the first violating
    quadruple) when the matrix is not a tree metric.

    The tree is grown and certified by `_grow` on 2w, (w, s) the metric's
    integer form, where every meet height (w_rq + w_ra - w_qa) / 2 is an
    integer; its edge weights are those integers over 2s.  When the grower
    refuses, the quadruple scan names the violation; a refused matrix
    that the scan passes is the grower's fault, an AssertionError.
    """
    return _realize(*check_dissimilarity(rows))


def _realize(w: list[list[int]], scale: int) -> tuple[Tree, list[int]]:
    """`realize_tree` on the integer form (w, scale) of a dissimilarity
    matrix (`_dissimilarity`).  The tree and its errors depend on the
    values w / scale only: the grower and the scan compare sums of
    entries, which a positive scale keeps."""
    if not w:
        raise ValueError("empty matrix")
    grown = _grow(w)
    if grown is None:
        bad = _four_point_scan(w, scale)
        if bad is None:
            raise AssertionError("the realizing tree of a tree metric was refused")
        raise NotTreeMetricError(bad)
    up, wt, vertex_of = grown
    if not up:
        return Tree([], vertices=[vertex_of[0]]), vertex_of
    return Tree([(v, up[v], Fraction(wt[v], 2 * scale)) for v in up]), vertex_of


def _grow(w: list[list[int]]) -> tuple[dict[int, int], dict[int, int], list[int]] | None:
    """The tree that realizes w, grown and certified on 2w, or None: w is
    a symmetric integer form, zero on the diagonal.  Returns (up, wt,
    vertex_of): up[v] is v's parent in the tree rooted at the vertex of
    point 0, wt[v] the weight of that edge on 2w, and vertex_of[i] the
    vertex of point i.

    Point i gets the label i + 1 of the first point at distance zero from
    it.  The tree grows point by point: a new point climbs from its deepest
    meet with the placed points toward the root, and there it splits an
    edge at a fresh label above n and hangs below it, hangs below a vertex,
    or claims a fresh label.  So every fresh vertex has degree 3 or more.
    A first edge that is not positive, a negative hang or a point that
    would claim a point's vertex returns None, so every edge has a positive
    weight.

    The certificate is every distance.  A point shares its vertex only with
    points of an equal row.  The distances from each vertex to the distinct
    points, in preorder of their vertices, are its parent's plus e outside
    the vertex's interval of that order and minus e inside, e the edge
    between them; one row walks the tree so, less an offset that carries
    the +e, so a step rewrites only the interval.  At each point's vertex
    the row must be twice the point's row of w, or None is returned.

    A tree with positive edge weights that reproduces every distance
    proves w a tree metric (Buneman, "A note on the metric properties of
    trees", 1974): an acceptance decides the four-point condition.  A tree
    metric is never refused, but the callers read a refusal only as "not
    proved": the quadruple scan or the walk decides then, so a fault here
    costs time, not a wrong answer.  An empty w grows the empty tree."""
    n = len(w)
    if not n:
        return {}, {}, []
    # merge zero-distance points into the first of them; the certificate
    # checks that merged points have equal rows
    rep = [row.index(0) for row in w]
    reps = sorted(set(rep))
    vertex_of = [i + 1 for i in rep]

    # grow the tree point by point, rooted at the reference point r: up[v]
    # is v's parent and wt[v] the weight of the edge between them, on 2w
    fresh = n + 1
    r = reps[0]
    first = r + 1
    w_r = w[r]
    up: dict[int, int] = {}
    wt: dict[int, int] = {}
    if len(reps) > 1:
        if w_r[reps[1]] <= 0:
            return None
        up[reps[1] + 1], wt[reps[1] + 1] = first, 2 * w_r[reps[1]]
    placed = reps[:2]

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
        if hang < 0:
            return None
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
                return None
            for y, p in up.items():
                if p == at:
                    up[y] = x
            up[x], wt[x] = up.pop(at), wt.pop(at)
        else:
            up[x], wt[x] = at, hang
        placed.append(q)

    # certify the construction before handing it back
    if any(w[i] != w[r] for i, r in enumerate(rep)):
        return None
    kids: dict[int, list[int]] = {}
    for v, u in up.items():
        kids.setdefault(u, []).append(v)
    order, stack = [], [first]
    while stack:
        v = stack.pop()
        order.append(v)
        stack += kids.get(v, ())
    # cols[lo[v]:lo[v] + size[v]] are the points in v's subtree; the row
    # starts at the root, a point, as the depths of the points
    cols: list[int] = []
    lo, depth = {}, {first: 0}
    for v in order:
        lo[v] = len(cols)
        if v <= n:
            cols.append(v - 1)
        if v != first:
            depth[v] = depth[up[v]] + wt[v]
    size = dict.fromkeys(order, 0)
    for v in reversed(order):
        size[v] += v <= n
        if v != first:
            size[up[v]] += size[v]
    row, off, path = [depth[c + 1] for c in cols], 0, [first]

    def step(u: int, e: int) -> int:
        """Move the row across the edge above u, e its weight going down and
        minus that going up: u's interval takes -2e, the offset e."""
        a, b = lo[u], lo[u] + size[u]
        row[a:b] = [x - 2 * e for x in row[a:b]]
        return e

    for v in order:
        if v != first:
            while path[-1] != up[v]:
                u = path.pop()
                off += step(u, -wt[u])
            off += step(v, wt[v])
            path.append(v)
        if v <= n:
            w_i = w[v - 1]
            if [x + off for x in row] != [2 * w_i[c] for c in cols]:
                return None
    return up, wt, vertex_of


def square_cycle_metric() -> Matrix:
    """The 4-cycle metric, the textbook non-example: a metric that fails
    the four-point condition."""
    return as_matrix([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])


# ---------------------------------------------------------------------------
# exact signatures of powered matrices


class _Surd:
    """a + b sqrt(r): a and b rationals (ints in the form `_inertia` walks)
    and r > 0 an integer with no integer square root, so the value is zero
    only when a and b are.  The entries of one powered matrix share r = num
    * den of tau, as sqrt(tau) = sqrt(r) / den; nothing factorises r, and
    `_surd_sign` decides a sign with one comparison of integers.

    Not hashable: equal values can all hash alike (every power of 2^61 - 1
    hashes to 0), so readers key entries by identity."""

    __slots__ = ("a", "b", "r")
    __hash__ = None

    def __init__(self, a, b, r: int):
        self.a, self.b, self.r = a, b, r

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return not self.b and self.a == other
        if type(other) is not _Surd:
            return NotImplemented
        # b sqrt(r) is rational only at b = 0, so the parts must match
        b, c = self.b, other.b
        return self.a == other.a and (b > 0) == (c > 0) and b * b * self.r == c * c * other.r

    def __repr__(self) -> str:
        return f"_Surd({self.a}, {self.b}, {self.r})"


def _surd_sign(a, b, r: int) -> int:
    """The sign of a + b sqrt(r), r > 0 no square: a and b of one sign
    decide it, and otherwise the larger of a^2 and b^2 r."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    return sa if sa == sb or a * a > b * b * r else sb


def _exact_root(tau: Fraction, s: int) -> Fraction | None:
    """tau^(1/s) for tau > 0 when its numerator and denominator are s-th
    powers of integers, else None.  Each integer root is found by Newton's
    iteration from above, 2^ceil(L/s) for an L-bit x; from s >= L on, no
    integer r >= 2 has r^s = x."""
    roots = []
    for x in (tau.numerator, tau.denominator):
        if x > 1 and s > 1:
            if s >= x.bit_length():
                return None
            r = 1 << -(-x.bit_length() // s)
            while (y := ((s - 1) * r + x // r ** (s - 1)) // s) < r:
                r = y
            if r**s != x:
                return None
            x = r
        roots.append(x)
    return Fraction(*roots)


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
    """[tau^(w_ij / scale)], a None of w (-inf) as 0, for tau > 0.

    tau is rooted once (`_rooted`), to (root, s).  Each distinct exponent
    e is powered once, in row-major order of first appearance, so a bad
    exponent raises as it would entry by entry.  One that s divides is the
    Fraction root^(e / s).  Otherwise (s > 1, root = tau) e / s in lowest
    terms, k / q, is the Fraction of tau's exact q-th root where it has one
    (q < s; at q = s `_rooted` found none), else for q = 2 the pair b
    sqrt(r) = tau^((k - 1) / 2) sqrt(tau), b = tau^((k - 1) / 2) / den and
    r = num * den of tau, shared by every pair of the matrix."""
    root, s = _rooted(tau, scale)
    r = root.numerator * root.denominator
    powers = {}
    for e in dict.fromkeys(chain.from_iterable(w)):
        if e is None:
            x = Fraction(0)
        elif e % s == 0:
            x = root ** (e // s)
        else:
            d = Fraction(e, s)
            q = d.denominator
            exact = None if q == s else _exact_root(root, q)
            if exact is not None:
                x = exact ** d.numerator
            elif q == 2:
                x = _Surd(0, root ** (d.numerator // 2) / root.denominator, r)
            else:
                raise ValueError(f"exponent {d} needs a {q}-th root; only 2 is supported")
        powers[e] = x
    return [[powers[x] for x in row] for row in w]


def _rooted(tau: Fraction, scale: int) -> tuple[Fraction, int]:
    """(tau^(1/scale), 1) when tau is an exact scale-th power
    (`_exact_root`), else (tau, scale): the base and the denominator of
    the exponents that `_powered_form` reads.  Past scale 2 there, entries
    need roots beyond square roots."""
    if scale > 1 and (root := _exact_root(tau, scale)) is not None:
        return root, 1
    return tau, scale


def _powered_form(w: list[list[int | None]], scale: int, tau: Fraction) -> list[list]:
    """[tau^(w_ij / scale)] (a None of w, -inf, powers to 0) in scalars
    `_inertia` runs on.  After `_rooted`, at a denominator s of 1 or 2, each
    distinct exponent e is read once as the pair (root^(e // s), e % s) of
    `_rational_form` with d = root, and a None as zero; the integer matrix
    of that split takes no square root of tau.  Every other matrix, one
    whose parities have an odd cycle, runs on `_power`'s entries scaled to
    ints and pairs of ints (`_integral_pairs`); a denominator above 2 with
    no exact root of tau raises in `_power`."""
    root, s = _rooted(tau, scale)
    if s <= 2:
        part = {
            e: (Fraction(0), 0) if e is None else (root ** (e // s), e % s)
            for e in dict.fromkeys(chain.from_iterable(w))
        }
        a = _rational_form([[part[x] for x in row] for row in w], root)
        if a is not None:
            return a
    return _integral_pairs(_power(w, scale, tau))


def _check_symmetric(a: Sequence[Sequence]) -> None:
    """Raise unless the matrix is square and exactly symmetric.  A pair of
    entries that is one object, as a powered matrix's mostly are, is not
    compared."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(i):
            x, y = a[i][j], a[j][i]
            if x is not y and x != y:
                raise ValueError(f"matrix is not symmetric at ({i},{j})")


def _exact_form(rows: Sequence[Sequence]) -> list[list]:
    """`rows`, of ints, Fractions and pairs a + b sqrt(r) of one r, in the
    scalars `_inertia` runs on: the rational form, scaled to integers, when
    there is one (`_monomials` reads each distinct entry once); else ints
    and pairs of ints (`_integral_pairs`).  Both keep the inertia and every
    principal minor's sign.  Raises ValueError unless `rows` is square and
    symmetric, TypeError on any other entry, such as a float."""
    a = [list(row) for row in rows]
    _check_symmetric(a)
    split = _monomials(a)
    if split and (ints := _rational_form(*split)) is not None:
        return ints
    return _integral_pairs(a)


def _integral_pairs(a: list[list]) -> list[list]:
    """a, of ints, Fractions and pairs a + b sqrt(r) of one r, times the
    lcm of the denominators of its rationals and of its pairs' parts: ints,
    and pairs of ints where b is not zero.  Each distinct entry object is
    read once.  TypeError on any other entry, such as a float, and on
    pairs of two values of r."""
    cells = {id(x): x for x in chain.from_iterable(a)}
    radicands = {x.r for x in cells.values() if type(x) is _Surd}
    if len(radicands) > 1:
        raise TypeError(f"pairs a + b sqrt(r) over {len(radicands)} values of r")
    parts = {}
    for k, x in cells.items():
        if type(x) is _Surd:
            parts[k] = x.a, x.b
        elif isinstance(x, (int, Fraction)):
            parts[k] = x, 0
        else:
            raise TypeError(f"entry {x!r} is neither rational nor a pair a + b sqrt(r)")
    scale = lcm(*(y.denominator for ab in parts.values() for y in ab))
    r = radicands.pop() if radicands else None
    ints = {}
    for k, (x, y) in parts.items():
        x, y = x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator)
        ints[k] = _Surd(x, y, r) if y else x
    return [[ints[id(x)] for x in row] for row in a]


def inertia(rows: Sequence[Sequence]) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a symmetric matrix of ints,
    Fractions and pairs a + b sqrt(r) of one r (any other entry, a float
    among them, raises TypeError) by fraction-free congruence, in one
    principal-pivot walk that settles a zero pivot by a swap or by
    e_m -> e_m + e_j on the rows left.  A matrix of square-root entries
    that is D R D, with R rational and D a positive diagonal (every
    powered tree metric is), is eliminated as R scaled to integers: by
    Sylvester's law of inertia the two agree.  A powered matrix that is
    not walks as ints and pairs of ints (`_exact_form`)."""
    return _inertia(_exact_form(rows))


def _monomials(a: Sequence[Sequence]) -> tuple[list[list[tuple]], int] | None:
    """Each entry of a as the pair (c, odd) of `_rational_form`, c a
    Fraction, and the one radicand d: a rational entry, or a pair a + 0
    sqrt(r), is (c, 0); a pair 0 + c sqrt(d) is (c, 1).  None when an
    entry is none of these, or two radicands appear.  Each distinct entry
    object is read once, and its pair shared: a powered matrix holds one
    object per distinct exponent."""
    read = {}
    radicand = 1
    for x in chain.from_iterable(a):
        if id(x) in read:
            continue
        if type(x) is _Surd:
            part = (x.b, x.r) if not x.a else (x.a, 1) if not x.b else None
        elif isinstance(x, (int, Fraction)):
            part = x, 1
        else:
            return None
        if part is None:
            return None
        c, d = part
        if c and d != 1:
            if radicand not in (1, d):
                return None
            radicand = d
        read[id(x)] = (c if type(c) is Fraction else Fraction(c)), int(d != 1)
    return [[read[id(x)] for x in row] for row in a], radicand


def _rational_form(parts: list[list[tuple]], d: Fraction | int) -> list[list[int]] | None:
    """s R with a = D R D, R rational, D = diag(sqrt(d)^p_i) for parities
    p_i in {0, 1}, and s > 0 the least that makes s R integral (the lcm of
    R's denominators over the gcd of the resulting ints); None when there
    is no such R.  Entry a_ij comes as the pair (c, odd), c sqrt(d)^odd,
    with c rational and d > 0 rational.

    A nonzero entry needs p_i ^ p_j == odd, so the parities are a
    2-colouring (`_parities`), and an odd cycle or an odd diagonal entry
    rules R out.  Then R_ij = c / d where p_i = p_j = 1, and c elsewhere;
    each pair shared by many entries is divided and scaled once.  D and s are
    positive, so s R has the inertia of a and the sign of each of its
    principal minors."""
    p = _parities([[odd if c else None for c, odd in row] for row in parts])
    if p is None:
        return None
    # R_ij is keyed by the identity of a_ij's pair and p_i & p_j: equal
    # values can all hash alike (every power of 2^61 - 1 hashes to 0)
    cells = [[(id(x), p_i & p_j) for x, p_j in zip(row, p)] for row, p_i in zip(parts, p)]
    c = {id(x): x[0] for row in parts for x in row}
    values = {k: c[k[0]] / d if k[1] else c[k[0]] for k in set(chain.from_iterable(cells))}
    scale = lcm(*(x.denominator for x in values.values()))
    ints = {k: x.numerator * (scale // x.denominator) for k, x in values.items()}
    g = gcd(*ints.values()) or 1
    ints = {k: x // g for k, x in ints.items()}
    return [[ints[k] for k in row] for row in cells]


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
    ints, or of ints and pairs a + b sqrt(r) of one r with int a and b
    (`_Surd`s); it overwrites `a`, save a matrix of pairs, which it walks
    as the two int matrices of their a and b parts.

    Fraction-free principal pivoting, the Sylvester step of `poly.det`:
    with S the indices eliminated so far and prev = det a[S], each live
    a_ij is det a[S+i, S+j], so dividing by prev is exact.  A pivot
    p = a_kk != 0 sets a_ij <- (p a_ij - a_ik a_kj) / prev and adds an
    eigenvalue of the sign of p / prev.

    Pivots are taken in index order, and only the upper triangle of the
    live block is read and written: the division, floor division of ints
    or of pairs, is chosen once per call.
    On pairs the division is exact in Z[sqrt(r)], as Bareiss's argument
    holds in any integral domain: x / q = (x conj q) // N(q) part by part,
    with conj q = q_a - q_b sqrt(r) and N(q) = q_a^2 - r q_b^2, a nonzero
    integer as r is no square; p conj(prev) and a_ik conj(prev) are formed
    once per pivot and row, and `_surd_sign` signs a pivot.

    A zero pivot a_kk is settled in place by congruences of determinant
    +-1 on the live block, so entries stay minors and the inertia is kept
    (Sylvester's law): k swaps with the lowest live m with a_mm != 0.  When
    the live diagonal is all zero, e_m -> e_m + e_j on the first nonzero
    a_mj comes first: it adds row and column j to m and sets a_mm = 2 a_mj.
    A live block of zeros is that many zero eigenvalues."""
    n = len(a)
    r = next((x.r for x in chain.from_iterable(a) if type(x) is _Surd), 0)
    if r:
        parts = [
            [[x.a if type(x) is _Surd else x for x in row] for row in a],
            [[x.b if type(x) is _Surd else 0 for x in row] for row in a],
        ]
    else:
        parts = [a]
    prev, was_positive = ((1, 0) if r else 1), True
    pos = neg = 0
    for k in range(n):
        if not any(part[k][k] for part in parts):
            m = next((i for i in range(k + 1, n) if any(part[i][i] for part in parts)), None)
            if m is None:
                pair = next(
                    (
                        (i, j)
                        for i in range(k, n)
                        for j in range(i + 1, n)
                        if any(part[i][j] for part in parts)
                    ),
                    None,
                )
                if pair is None:
                    return pos, neg, n - k
                m, j = pair
                for part in parts:
                    row_m, row_j = part[m], part[j]
                    # rows k..m-1 of the live block are zero, as is a_mc for c < j
                    for c in range(m + 1, n):
                        row_m[c] += part[c][j] if c < j else row_j[c]
                    row_m[m] = 2 * row_m[j]
            if m != k:
                for part in parts:
                    row_k, row_m = part[k], part[m]
                    row_k[k], row_m[m] = row_m[m], row_k[k]
                    for j in range(k + 1, m):
                        row_k[j], part[j][m] = part[j][m], row_k[j]
                    for j in range(m + 1, n):
                        row_k[j], row_m[j] = row_m[j], row_k[j]
        if r:
            A, B = parts
            row_k, b_k = A[k], B[k]
            p, pb = row_k[k], b_k[k]
            positive = _surd_sign(p, pb, r) > 0
        else:
            row_k = a[k]
            p = row_k[k]
            positive = p > 0
        if positive == was_positive:
            pos += 1
        else:
            neg += 1
        was_positive = positive
        if r:
            qa, qb = prev
            norm = qa * qa - r * qb * qb
            # x = p conj(prev) and y = a_ki conj(prev), with r times their b parts
            xa, xb = p * qa - r * pb * qb, pb * qa - p * qb
            rxb = r * xb
            for i in range(k + 1, n):
                row_i, b_i, ca, cb = A[i], B[i], row_k[i], b_k[i]
                ya, yb = ca * qa - r * cb * qb, cb * qa - ca * qb
                ryb = r * yb
                for j in range(i, n):
                    u, v, s, t = row_i[j], b_i[j], row_k[j], b_k[j]
                    row_i[j] = (xa * u + rxb * v - ya * s - ryb * t) // norm
                    b_i[j] = (xa * v + xb * u - ya * t - yb * s) // norm
        else:
            for i in range(k + 1, n):
                row_i, c = a[i], row_k[i]
                for j in range(i, n):
                    row_i[j] = (p * row_i[j] - c * row_k[j]) // prev
        prev = (p, pb) if r else p
    return pos, neg, 0


def spectral_signature(
    rows: Sequence[Sequence], tau, subset: Sequence[int] | None = None
) -> tuple[int, int, int]:
    """Inertia of [tau^(d_ij)] restricted to the subset.

    A nonempty block with every entry finite whose realizing tree `_grow`
    certifies takes the closed form of `_tree_points`, at every base that
    `_tree_base` admits: (1, k - 1, n - k) for tau > 1 and (k, 0, n - k)
    for tau < 1, k its distinct points.  Every other input, a block the
    grower refuses among them, and every other base, runs the walk
    `_inertia` on the powered matrix."""
    m = as_matrix(rows)
    n = len(m)
    idx = range(n) if subset is None else _subset_indices(subset, n)
    w, scale = _integers(m, idx)
    _check_symmetric(w)
    tau = _positive_base(tau)
    if _tree_base(tau, scale) and w and all(None not in row for row in w):
        k = _tree_points(w)
        if k is not None:
            return (1, k - 1, len(w) - k) if tau > 1 else (k, 0, len(w) - k)
    return _inertia(_powered_form(w, scale, tau))


def _tree_base(tau: Fraction, scale: int) -> bool:
    """Whether a tree metric with exponents over `scale` takes the closed
    form of `_tree_points` at tau: tau != 1, and no entry needs a root of
    tau beyond a square root (`_rooted`).  So every exponent that `_power`
    refuses still reaches the walk, and its error."""
    return tau != 1 and _rooted(tau, scale)[1] <= 2


def _tree_points(w: list[list[int | None]]) -> int | None:
    """The number k of distinct points of a tree metric, read off its
    realizing tree, grown and certified once (`_grow`), or None when the
    grower refuses.  w is a symmetric integer form over s, finite off the
    diagonal; a None (-inf) on it is read as the sentinel of `_sentineled`,
    which keeps the four-point verdict (`_four_point_scan`).  A nonzero
    diagonal is reduced first to d_ij = (2 w_ij - w_ii - w_jj) / 2s, which
    passes the four-point test exactly when w does (the three pair sums of
    a quadruple move by the same potentials).  So a k that is not None
    proves the four-point condition on w.  With a finite diagonal, the
    congruence by diag(tau^(w_ii / 2s)) > 0 takes [tau^(d_ij)] to
    [tau^(w_ij / s)] and keeps the inertia.

    For tau != 1, [tau^(d_ij)] on n points with k distinct has inertia
    (1, k - 1, n - k) when tau > 1 and (k, 0, n - k) when tau < 1:

    - Root the realized tree, on vertices V, at a point r, and let q_e =
      tau^(w_e) on each edge e.  Then E = (tau^(d_uv)) over V is
      L diag(1, 1 - q_e^2) L^T, where L's column of r holds tau^(d_ur)
      and its column of the edge e above v holds tau^(d_uv) at every u
      below v: along the common ancestors of u and x the sum telescopes to
      tau^(d_ux).  L is unit triangular in preorder, so In(E) = (1, |V| -
      1, 0) for tau > 1 and (|V|, 0, 0) for tau < 1 (Sylvester's law).
    - tau < 1: E is positive definite, so is its block on the points.
    - tau > 1: E^-1 is supported on the edges (Bapat, Lal and Pati, "A
      q-analogue of the distance matrix of a tree", 2006): -q_e / (1 -
      q_e^2) on an edge e = uv, and 1 + sum q_e^2 / (1 - q_e^2) over the
      edges at v on the diagonal.  Each fresh (Steiner) vertex has degree 3
      or more, so on them, Y, (E^-1)_YY has a negative diagonal and is
      strictly diagonally dominant: a row's margin is at least the sum of
      q_e / (q_e + 1) > 1/2 over its three or more edges, less 1, which is
      above 1/2.  So (E^-1)_YY is
      negative definite, the block E_P on the points P = V - Y is
      nonsingular (Jacobi: det E_P = det E det (E^-1)_YY), and Haynsworth's
      additivity, In(E) = In(E_P) + In(((E^-1)_YY)^-1), leaves In(E_P) =
      (1, |P| - 1, 0).
    - The n x n matrix is S^T E_P S, S the k x n incidence of points to
      their vertices, of full row rank: the n - k repeats add zeros."""
    if any(row[i] is None for i, row in enumerate(w)):
        w = _sentineled(w)
    diag = [row[i] for i, row in enumerate(w)]
    if any(diag):
        w = [[2 * x - w_ii - w_jj for x, w_jj in zip(row, diag)] for row, w_ii in zip(w, diag)]
    grown = _grow(w)
    return None if grown is None else len(set(grown[2]))


def star_condition_check(
    rows: Sequence[Sequence], subsets: Iterable[Sequence[int]] | None = None
):
    """det M[X] >= 0 for odd |X| and <= 0 for even |X|, over the listed
    principal subsets (default: every nonempty one; n <= 12 only, pass
    explicit subsets beyond that).  Each listed subset must be nonempty and
    hold distinct indices in 0..n-1.

    M must already be numeric (say a powered matrix [tau^(w_ij)], whose
    entries may be pairs a + b sqrt(r)) and symmetric, which is checked
    once on the whole matrix.  Signs are exact, so zero minors satisfy the
    weak inequalities; a float entry raises TypeError.  When M = D R D
    with R rational and D a positive diagonal, the signs are read on R
    scaled to integers.  Listed subsets take one exact elimination each.
    The default accepts exactly the forms with a nonnegative diagonal and
    at most one positive eigenvalue (`_one_positive`, one walk `_inertia`
    on a copy), with no minor taken.  A form refused there has a
    violation, which the ordered walk over the subsets names: when the
    form is integral it reads the signs off one Sylvester walk
    (poly._sylvester) over the ints as they are, and a set the walk leaves
    out below a zero minor, or any set of a form with no rational form,
    takes one elimination.  Returns the first violating subset, in the
    listed order or by size and then lexicographically, or None."""
    a = _exact_form(rows)
    n = len(a)
    minors = {}
    if subsets is not None:
        subsets = [tuple(_subset_indices(xs, n)) for xs in subsets]
        if () in subsets:
            raise ValueError("subset [] must hold at least one index")
    elif n > 12:
        raise ValueError("n > 12: pass an explicit subset sample")
    elif _one_positive(a):
        return None
    else:
        subsets = (xs for r in range(1, n + 1) for xs in combinations(range(n), r))
        if all(isinstance(x, int) for row in a for x in row):
            minors = _sylvester(_Form(a, 1, _istep, int), range(n), n)
    for xs in subsets:
        minor = minors.get(xs)
        if minor is None:
            minor = _det_sign(a, xs)
        if minor < 0 if len(xs) % 2 else minor > 0:
            return xs
    return None


def _one_positive(a: list[list]) -> bool:
    """Whether the form a, of `_exact_form`'s scalars, has a nonnegative
    diagonal and at most one positive eigenvalue (`_inertia` on a copy, so
    a is left as it was): exactly when every principal minor obeys the
    star rule.  `_exact_form`'s congruence by a positive diagonal keeps
    both the inertia and the diagonal's signs.

    - Enough: take a block A of size m, eigenvalues mu_1 >= ... >= mu_m,
      and a's lambda_1 >= ... >= lambda_n.  By the Rayleigh quotient
      mu_1 >= max a_ii >= 0, and by Cauchy interlacing mu_i <= lambda_i
      <= 0 for i >= 2.  So det A is 0 or of sign (-1)^(m - 1).
    - Needed: the singletons are the diagonal.  With E_k the sum of the
      principal minors of size k, the rule makes each (-1)^(k - 1) E_k
      >= 0, so det(x I - a) = x^n - sum |E_k| x^(n - k) has at most one
      sign change, so at most one positive root (Descartes); a is
      symmetric, so its roots are its eigenvalues."""
    for i, row in enumerate(a):
        x = row[i]
        if (_surd_sign(x.a, x.b, x.r) if type(x) is _Surd else x) < 0:
            return False
    return _inertia([row[:] for row in a])[0] <= 1


def _det_sign(a: Sequence[Sequence], xs: Sequence[int]) -> int:
    """Sign of det a[xs], from one exact elimination of the block."""
    _, q, z = _inertia([[a[i][j] for j in xs] for i in xs])
    return 0 if z else (-1) ** q


def hpp_eigen_check(rows: Sequence[Sequence], taus: Iterable = (10, 100)):
    """Eigenvalue-count test for a symmetric pair-value matrix, -inf allowed
    on the diagonal only (max-plus order: -inf powers to a zero entry).

    For each base in the grid, [tau^(f_ij)] must have at most one positive
    eigenvalue; the four-point condition on f itself is checked alongside,
    once: f's realizing tree is grown once (`_tree_points`, a -inf on the
    diagonal read as a sentinel), and a certified tree proves the
    condition, while a refusal leaves the verdict to the quadruple scan.
    With a certified tree and a finite diagonal, every base that
    `_tree_base` admits reads the count off the closed form: 1 for tau > 1,
    the k distinct points for tau < 1.  Every other base, and every other
    input, counts on the walk `_inertia` over the powered matrix (its
    rational form, scaled to integers, when it has one).  Returns None when
    everything holds, the first failing base otherwise, or the four-point
    certificate."""
    w, scale = _integers(as_matrix(rows))
    _check_symmetric(w)
    for i, row in enumerate(w):
        if None in row[i + 1:]:
            j = row.index(None, i + 1)
            raise ValueError(
                f"-inf off the diagonal at ({i},{j}); only diagonal entries may be -inf"
            )
    k = _tree_points(w)
    tree = k is not None and all(row[i] is not None for i, row in enumerate(w))
    for tau in taus:
        tau = _positive_base(tau)
        if tree and _tree_base(tau, scale):
            positives = 1 if tau > 1 else k
        else:
            positives, _, _ = _inertia(_powered_form(w, scale, tau))
        if positives > 1:
            return tau
    return None if k is not None else _four_point_scan(w, scale)


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
