"""Truncated Puiseux series in t, ordered by behaviour as t -> infinity.

A series carries its known terms (exponents are fractions with a common
ramification denominator) plus an optional cutoff: every term with
exponent <= cutoff has been dropped, so the object stands for

    known terms  +  O(t^cutoff).

cutoff None means the series is exact.  All arithmetic propagates cutoffs
conservatively, so a leading term you can read off is certified; when a
sign or valuation would depend on dropped terms the operation raises
PrecisionError instead of guessing.

Coefficients are rationals, or sums c_d sqrt(d) over squarefree radicands
d where square roots force them to be irrational (Cholesky pivots).  A
series is stored as what its arithmetic runs on: one integer map
{k: n} per radicand d, standing for sum_d sqrt(d) sum_k n/den t^(k/ram),
with the ramification ram and the coefficient denominator den both kept
minimal, so equal series are structurally equal (the format of
poly.ExactPoly, split by radicand).  A sum adds the maps of each radicand
with poly._zadd.  A product convolves the maps per pair of radicands
(sqrt(a) sqrt(b) = g sqrt(ab/g^2), g = gcd(a, b)) and never forms a pair
of terms whose exponents sum to the product's cutoff or below.  A Fraction
or QRad coefficient is built only where one is read (terms, leading,
sign).  Division and square roots work down to what the operand's own
cutoff supports: the inverse of a rational series runs the integer
recurrence of 1/(1 + u), square roots and the inverse of a radical series
expand one binomial series; an exact non-monomial gives no stopping
point, so it must be truncated first.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .poly import ExactPoly, _as_fraction, _zadd
from .radicals import QRad, exact_sign


class PrecisionError(ArithmeticError):
    """The requested quantity is not determined by the known terms."""


Coeff = Fraction | QRad


def _coeff_inv(c: Coeff) -> Coeff:
    if isinstance(c, QRad):
        return c.inverse()
    return 1 / c


def _coeff_sqrt(c: Coeff) -> QRad:
    # a series builds a QRad coefficient only where it is irrational
    if isinstance(c, QRad):
        raise ArithmeticError(f"nested radical: sqrt of {c}")
    return QRad.sqrt_of(c)


def _floor_key(cutoff: Fraction, ram: int) -> int:
    """The largest exponent key k with k/ram <= cutoff: a term survives the
    cutoff exactly when its key is above this."""
    return cutoff.numerator * ram // cutoff.denominator


def _canonical(
    ram: int, den: int, parts: dict[int, dict[int, int]], cutoff: Fraction | None
) -> tuple[int, int, dict[int, dict[int, int]]]:
    """(ram, den, parts) without zero values, keys at or below the cutoff
    and empty maps, divided through by gcd(ram, *keys) and gcd(den,
    *values); ram = den = 1 when nothing is left."""
    kmin = None if cutoff is None else _floor_key(cutoff, ram)
    clean = {}
    g, h = ram, den
    for d, m in parts.items():
        m = {k: v for k, v in m.items() if v and (kmin is None or k > kmin)}
        if m:
            clean[d] = m
            g = gcd(g, *m)
            h = gcd(h, *m.values())
    if not clean:
        return 1, 1, clean
    if g > 1 or h > 1:
        clean = {d: {k // g: v // h for k, v in m.items()} for d, m in clean.items()}
    return ram // g, den // h, clean


class PuiseuxTrunc:
    """A truncated (or exact) Puiseux series, highest exponents first.

    Stored as (ram, den, parts, cutoff): parts maps each squarefree
    radicand d to {k: n}, nonzero ints, for the known terms
    n/den sqrt(d) t^(k/ram), all above the cutoff; gcd(ram, *keys) =
    gcd(den, *values) = 1, and ram = den = 1 without known terms.
    """

    __slots__ = ("_ram", "_den", "_parts", "_cutoff")

    def __init__(self, ram: int, terms: dict[int, Coeff], cutoff: Fraction | None = None):
        if ram < 1:
            raise ValueError("ramification index must be positive")
        comps = {}
        for k, c in terms.items():
            ki = int(k)
            if ki != k:
                raise ValueError(f"exponent key {k} is not an integer")
            comps[ki] = c.components() if isinstance(c, QRad) else ((1, _as_fraction(c)),)
        den = lcm(1, *(q.denominator for cs in comps.values() for _, q in cs))
        parts: dict[int, dict[int, int]] = {}
        for k, cs in comps.items():
            for d, q in cs:
                parts.setdefault(d, {})[k] = q.numerator * (den // q.denominator)
        cutoff = None if cutoff is None else Fraction(cutoff)
        self._ram, self._den, self._parts = _canonical(ram, den, parts, cutoff)
        self._cutoff = cutoff

    @staticmethod
    def _make(
        ram: int, den: int, parts: dict[int, dict[int, int]], cutoff: Fraction | None
    ) -> "PuiseuxTrunc":
        """sum_d sqrt(d) sum_k parts[d][k]/den t^(k/ram) + O(t^cutoff); the
        canonical form is taken here and parts is never mutated."""
        s = object.__new__(PuiseuxTrunc)
        s._ram, s._den, s._parts = _canonical(ram, den, parts, cutoff)
        s._cutoff = cutoff
        return s

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "PuiseuxTrunc":
        return PuiseuxTrunc._make(1, 1, {}, None)

    @staticmethod
    def constant(c) -> "PuiseuxTrunc":
        return PuiseuxTrunc.t_power(0, c)

    @staticmethod
    def t_power(e, coeff=1) -> "PuiseuxTrunc":
        e = Fraction(e)
        return PuiseuxTrunc(e.denominator, {e.numerator: coeff})

    @staticmethod
    def from_terms(pairs: Iterable[tuple[Fraction, Coeff]]) -> "PuiseuxTrunc":
        monomials = (PuiseuxTrunc.t_power(_as_fraction(e), c) for e, c in pairs)
        return sum(monomials, PuiseuxTrunc.zero())

    @staticmethod
    def from_poly(p: ExactPoly) -> "PuiseuxTrunc":
        return PuiseuxTrunc._make(p._den, p._cden, {1: p._terms}, None)

    # -- inspection ------------------------------------------------------------

    @property
    def cutoff(self) -> Fraction | None:
        return self._cutoff

    def _top(self) -> int | None:
        """The largest key of a known term; None without known terms."""
        return max(map(max, self._parts.values()), default=None)

    def _coeff(self, k: int) -> Coeff:
        """The coefficient at key k: a Fraction unless an irrational
        radicand has a term there."""
        comps = {d: Fraction(m[k], self._den) for d, m in self._parts.items() if k in m}
        return comps[1] if comps.keys() == {1} else QRad(comps, _raw=True)

    def terms(self) -> list[tuple[Fraction, Coeff]]:
        """Known terms, highest exponent first."""
        keys = set().union(*self._parts.values())
        return [(Fraction(k, self._ram), self._coeff(k)) for k in sorted(keys, reverse=True)]

    def is_exact_zero(self) -> bool:
        return not self._parts and self._cutoff is None

    def leading(self) -> tuple[Fraction, Coeff]:
        """Certified leading (exponent, coefficient).

        Raises PrecisionError on a truncated zero and ValueError on an
        exact zero.
        """
        k = self._top()
        if k is not None:
            return Fraction(k, self._ram), self._coeff(k)
        if self._cutoff is None:
            raise ValueError("exact zero has no leading term")
        raise PrecisionError(
            f"insufficient precision: only O(t^{self._cutoff}) is known"
        )

    def valuation(self) -> Fraction | None:
        """Leading exponent; None for an exact zero; PrecisionError when the
        series is zero to the known precision."""
        return None if self.is_exact_zero() else self.leading()[0]

    def _bound(self) -> Fraction | None:
        """Upper bound on the exponent of any (known or hidden) term; None
        means the series is exactly zero."""
        cands = []
        k = self._top()
        if k is not None:
            cands.append(Fraction(k, self._ram))
        if self._cutoff is not None:
            cands.append(self._cutoff)
        return max(cands) if cands else None

    def sign(self) -> int:
        """Sign for t -> infinity.  Exact zero gives 0; a truncated zero
        raises PrecisionError rather than guessing."""
        return 0 if self.is_exact_zero() else exact_sign(self.leading()[1])

    # -- arithmetic --------------------------------------------------------------

    def _over(self, ram: int, den: int) -> dict[int, dict[int, int]]:
        """The parts over multiples ram and den of the stored denominators."""
        fe, fc = ram // self._ram, den // self._den
        if fe == fc == 1:
            return self._parts
        return {d: {k * fe: v * fc for k, v in m.items()} for d, m in self._parts.items()}

    @staticmethod
    def _coerce(x) -> "PuiseuxTrunc | None":
        if isinstance(x, PuiseuxTrunc):
            return x
        if isinstance(x, (int, Fraction, QRad)):
            return PuiseuxTrunc.constant(x)
        if isinstance(x, ExactPoly):
            return PuiseuxTrunc.from_poly(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ram, den = lcm(self._ram, o._ram), lcm(self._den, o._den)
        parts = dict(self._over(ram, den))
        for d, m in o._over(ram, den).items():
            parts[d] = _zadd(parts[d], m) if d in parts else m
        cuts = [c for c in (self._cutoff, o._cutoff) if c is not None]
        return PuiseuxTrunc._make(ram, den, parts, max(cuts) if cuts else None)

    __radd__ = __add__

    def __neg__(self):
        return PuiseuxTrunc._make(
            self._ram,
            self._den,
            {d: {k: -v for k, v in m.items()} for d, m in self._parts.items()},
            self._cutoff,
        )

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_exact_zero() or o.is_exact_zero():
            return PuiseuxTrunc.zero()
        top_a, top_b = self._top(), o._top()
        # error terms: known(a) * O(b), known(b) * O(a), O(a) * O(b)
        cuts = []
        if o._cutoff is not None and top_a is not None:
            cuts.append(Fraction(top_a, self._ram) + o._cutoff)
        if self._cutoff is not None and top_b is not None:
            cuts.append(Fraction(top_b, o._ram) + self._cutoff)
        if self._cutoff is not None and o._cutoff is not None:
            cuts.append(self._cutoff + o._cutoff)
        cutoff = max(cuts) if cuts else None
        r = lcm(self._ram, o._ram)
        fa, fb = r // self._ram, r // o._ram
        if cutoff is None:  # both exact and nonzero: every pair is kept
            low_a, low_b = (min(map(min, s._parts.values())) for s in (self, o))
            kmin = low_a * fa + low_b * fb - 1
        else:
            kmin = _floor_key(cutoff, r)
        # integer convolution per pair of radicands, sqrt(da) sqrt(db) =
        # g sqrt(da db / g^2), each map's terms in descending exponent order;
        # pairs at or below the cutoff are never formed
        pb = {
            db: [(k * fb, v) for k, v in sorted(mb.items(), reverse=True)]
            for db, mb in o._parts.items()
        }
        out: dict[int, dict[int, int]] = {}
        for da, ma in self._parts.items():
            qa = [(k * fa, v) for k, v in sorted(ma.items(), reverse=True)]
            for db, qb in pb.items():
                g = gcd(da, db)
                acc = out.setdefault(da // g * (db // g), {})
                get = acc.get
                top_b = qb[0][0]
                for ka, va in qa:
                    floor_b = kmin - ka
                    if top_b <= floor_b:
                        break
                    va *= g
                    for kb, vb in qb:
                        if kb <= floor_b:
                            break
                        k = ka + kb
                        acc[k] = get(k, 0) + va * vb
        return PuiseuxTrunc._make(r, self._den * o._den, out, cutoff)

    __rmul__ = __mul__

    def truncate(self, cutoff: Fraction) -> "PuiseuxTrunc":
        """Forget everything at or below the given exponent.  An exact zero
        stays exact (there is nothing to forget)."""
        if self.is_exact_zero():
            return self
        cutoff = Fraction(cutoff)
        if self._cutoff is not None:
            cutoff = max(cutoff, self._cutoff)
        return PuiseuxTrunc._make(self._ram, self._den, self._parts, cutoff)

    def _monomial(self) -> bool:
        return self._cutoff is None and len(set().union(*self._parts.values())) == 1

    def _binomial(self, alpha: Fraction, head: "PuiseuxTrunc") -> "PuiseuxTrunc":
        """self^alpha for a truncated self, alpha = -1 or 1/2, with head the
        exact monomial lead^alpha.  self = lead * (1 + u), every exponent of
        u negative, so self^alpha = head * sum_j C(alpha, j) u^j; terms are
        added while they reach above target = cutoff + (alpha - 1) * (lead
        exponent), which is what self's precision supports."""
        lead_e, lead_c = self.leading()
        target = self._cutoff + (alpha - 1) * lead_e
        u = self * PuiseuxTrunc.t_power(-lead_e, _coeff_inv(lead_c)) - 1
        total = acc = PuiseuxTrunc.constant(1)
        coeff = Fraction(1)
        j = 0
        while True:
            acc = acc * u
            b = acc._bound()
            if b is None or b + alpha * lead_e <= target:
                break
            coeff = coeff * (alpha - j) / (j + 1)
            j += 1
            total = total + acc * coeff
        return (total * head).truncate(target)

    def inverse(self) -> "PuiseuxTrunc":
        """1/self, down to what self's precision supports: its cutoff minus
        twice its leading exponent; by the recurrence of 1/(1 + u) when the
        coefficients are rational, else by the geometric series.  An exact
        non-monomial must be truncated first.
        """
        lead_e, lead_c = self.leading()  # certifies a nonzero lead
        mono = PuiseuxTrunc.t_power(-lead_e, _coeff_inv(lead_c))
        if self._monomial():
            return mono
        if self._cutoff is None:
            raise ValueError("inverting an exact non-monomial: truncate it first")
        if self._parts.keys() == {1}:
            return self._rational_inverse()
        return self._binomial(Fraction(-1), mono)

    def _rational_inverse(self) -> "PuiseuxTrunc":
        """inverse() of a truncated series with rational coefficients, by
        the recurrence of 1/(1 + u) instead of powers of u.  With s =
        t^(-1/ram), top the lead key and p its value, self = (p/den)
        t^(top/ram) sum_m a_m s^m with a_m = n_(top-m)/p, and the inverse is
        (den/p) t^(-top/ram) sum_m b_m s^m, b_0 = 1, b_m = -sum_i a_i
        b_(m-i).  The integers c_m = b_m p^m follow c_m = -sum_i n_(top-i)
        p^(i-1) c_(m-i); m runs while the term stays above the cutoff of
        the binomial expansion, cutoff - 2 top/ram."""
        ram, terms = self._ram, self._parts[1]
        top = max(terms)
        p = terms[top]
        last = top - _floor_key(self._cutoff, ram) - 1
        weights = sorted((top - k, v * p ** (top - k - 1)) for k, v in terms.items() if k != top)
        c = [1]
        for m in range(1, last + 1):
            c.append(-sum(w * c[m - i] for i, w in weights if i <= m))
        scale = p ** (last + 1)
        sign = 1 if scale > 0 else -1
        vals = {-top - m: sign * self._den * cm * p ** (last - m) for m, cm in enumerate(c)}
        return PuiseuxTrunc._make(
            ram, abs(scale), {1: vals}, self._cutoff - 2 * Fraction(top, ram)
        )

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_exact_zero():
            return self
        return self * o.inverse()

    def sqrt(self) -> "PuiseuxTrunc":
        """Square root via the binomial series, down to self's cutoff minus
        half its leading exponent; an exact non-monomial must be truncated
        first.  The leading coefficient must be positive (rational or
        already a resolved radical); ramification doubles when the leading
        exponent is odd over the current one."""
        if self.is_exact_zero():
            return self
        lead_e, lead_c = self.leading()
        if exact_sign(lead_c) < 0:
            raise ArithmeticError(f"sqrt of a series with negative lead {lead_c}")
        root = PuiseuxTrunc.t_power(lead_e / 2, _coeff_sqrt(lead_c))
        if self._monomial():
            return root
        if self._cutoff is None:
            raise ValueError("sqrt of an exact non-monomial: truncate it first")
        return self._binomial(Fraction(1, 2), root)

    # -- order ---------------------------------------------------------------

    def _cmp_sign(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign()

    def __lt__(self, other):
        s = self._cmp_sign(other)
        return NotImplemented if s is NotImplemented else s < 0

    def __le__(self, other):
        s = self._cmp_sign(other)
        return NotImplemented if s is NotImplemented else s <= 0

    def __gt__(self, other):
        s = self._cmp_sign(other)
        return NotImplemented if s is NotImplemented else s > 0

    def __ge__(self, other):
        s = self._cmp_sign(other)
        return NotImplemented if s is NotImplemented else s >= 0

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (
            self._ram == o._ram
            and self._den == o._den
            and self._parts == o._parts
            and self._cutoff == o._cutoff
        )

    def __hash__(self):
        # an exact series must hash like the scalar or ExactPoly it equals
        if self._cutoff is None:
            if self._parts.keys() <= {1}:
                return hash(ExactPoly._make(self._ram, self._den, self._parts.get(1, {})))
            if all(m.keys() == {0} for m in self._parts.values()):
                return hash(self._coeff(0))
        parts = frozenset((d, frozenset(m.items())) for d, m in self._parts.items())
        return hash((self._ram, self._den, parts, self._cutoff))

    # -- rendering -------------------------------------------------------------

    @staticmethod
    def _fmt_exp(e: Fraction) -> str:
        if e == 0:
            return ""
        if e == 1:
            return "t"
        if e.denominator == 1 and e > 0:
            return f"t^{e}"
        return f"t^({e})"

    @staticmethod
    def _fmt_term(e: Fraction, c: Coeff) -> str:
        tpart = PuiseuxTrunc._fmt_exp(e)
        if isinstance(c, QRad):
            cpart = f"({c})"
            return f"{cpart}*{tpart}" if tpart else cpart
        if not tpart:
            return str(c) if c.denominator == 1 else (
                f"{c}" if c >= 0 else f"-{-c}"
            )
        mag = abs(c)
        if mag == 1:
            body = tpart
        elif mag.denominator == 1:
            body = f"{mag}*{tpart}"
        else:
            body = f"({mag})*{tpart}"
        return body if c > 0 else f"-{body}"

    def __str__(self) -> str:
        parts = [self._fmt_term(e, c) for e, c in self.terms()]
        if self._cutoff is not None:
            o = self._fmt_exp(self._cutoff)
            parts.append(f"O({o})" if o else "O(1)")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"PuiseuxTrunc({self})"


# ---------------------------------------------------------------------------
# matrix helpers over truncated series


def series_det(grid: Sequence[Sequence[PuiseuxTrunc]]) -> PuiseuxTrunc:
    """Cofactor-expansion determinant; fine for the small matrices here."""
    n = len(grid)
    if any(len(row) != n for row in grid):
        raise ValueError("matrix is not square")
    if n == 0:
        return PuiseuxTrunc.constant(1)
    if n == 1:
        return grid[0][0]
    total = PuiseuxTrunc.zero()
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in grid[1:]]
        term = grid[0][j] * series_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def _symmetric_grid(
    m: Sequence[Sequence[ExactPoly | PuiseuxTrunc]], window: Fraction | None
) -> list[list[PuiseuxTrunc]]:
    """The square symmetric grid m as series, every entry truncated to (max
    leading exponent) - window, or left exact when window is None.  An
    asymmetric m raises ValueError before any work."""
    n = len(m)
    grid = [[PuiseuxTrunc._coerce(x) for x in row] for row in m]
    if any(len(row) != n or any(x is None for x in row) for row in grid):
        raise ValueError("need a square grid of series or polynomials")
    for i in range(n):
        for j in range(i + 1, n):
            if grid[i][j] != grid[j][i]:
                raise ValueError(f"not symmetric at ({i},{j})")
    if window is not None:
        window = Fraction(window)
        if window <= 0:
            raise ValueError("window must be positive")
        leads = [
            x._bound() for row in grid for x in row if x._bound() is not None
        ]
        if leads:
            cut = max(leads) - window
            grid = [[x.truncate(cut) for x in row] for row in grid]
    return grid


def _check_pivot(d: PuiseuxTrunc, j: int) -> None:
    """Raise unless pivot j is positive for large t."""
    s = d.sign()  # PrecisionError when the window is too small
    if s < 0:
        raise ArithmeticError(f"pivot {j} is negative; no real factorization")
    if s == 0:
        raise ArithmeticError(f"pivot {j} is exactly zero; matrix is singular")


def cholesky(
    m: Sequence[Sequence[ExactPoly | PuiseuxTrunc]],
    window: Fraction | None = None,
) -> list[list[PuiseuxTrunc]]:
    """Lower-triangular L with L L^T = m, over truncated series; m is a
    square grid of polynomials or series (a PolyMatrix passes its entries).

    `window` fixes the working precision: every entry is truncated to
    (max leading exponent) - window before elimination.  With window=None
    everything stays exact, which only gets through when no division or
    square root meets an exact non-monomial (diagonal matrices, say).

    Only the lower triangle and the diagonal are read, so m must be
    symmetric: an asymmetric m raises ValueError before any work.  Raises
    ArithmeticError if a pivot is negative or exactly zero, and
    PrecisionError if a pivot cannot be distinguished from zero at this
    window.
    """
    grid = _symmetric_grid(m, window)
    n = len(grid)
    lower = [[PuiseuxTrunc.zero() for _ in range(n)] for _ in range(n)]
    for j in range(n):
        d = grid[j][j]
        for k in range(j):
            d = d - lower[j][k] * lower[j][k]
        _check_pivot(d, j)
        lower[j][j] = d.sqrt()
        inv = lower[j][j].inverse() if j + 1 < n else None
        for i in range(j + 1, n):
            num = grid[i][j]
            for k in range(j):
                num = num - lower[i][k] * lower[j][k]
            lower[i][j] = num * inv
    return lower


def ldl(
    m: Sequence[Sequence[ExactPoly | PuiseuxTrunc]],
    window: Fraction | None = None,
) -> tuple[list[list[PuiseuxTrunc]], list[PuiseuxTrunc]]:
    """(L1, d): L1 unit lower triangular and d the pivots, with
    L1 diag(d) L1^T = m over truncated series; cholesky without the square
    roots, so its coefficients stay rational (L = L1 diag(sqrt d)).

    Pivot d_j is det m[:j+1, :j+1] / det m[:j, :j].  Each pivot costs one
    inverse, and each entry below it one product with that inverse: the
    elimination keeps E[i][j] = L1[i][j] d_j.  `window`, the symmetry check
    and the failure modes are cholesky's: a pivot that is negative or
    exactly zero raises ArithmeticError, one that cannot be told from zero
    at the window PrecisionError.
    """
    grid = _symmetric_grid(m, window)
    n = len(grid)
    unit = [
        [PuiseuxTrunc.constant(1) if i == j else PuiseuxTrunc.zero() for j in range(n)]
        for i in range(n)
    ]
    scaled = [[None] * n for _ in range(n)]  # E = L1 diag(d), below the diagonal
    pivots = []
    for j in range(n):
        row, low = scaled[j], unit[j]
        d = grid[j][j]
        for k in range(j):
            d = d - row[k] * low[k]
        _check_pivot(d, j)
        pivots.append(d)
        inv = d.inverse() if j + 1 < n else None
        for i in range(j + 1, n):
            e = grid[i][j]
            for k in range(j):
                e = e - scaled[i][k] * low[k]
            scaled[i][j] = e
            unit[i][j] = e * inv
    return unit, pivots
