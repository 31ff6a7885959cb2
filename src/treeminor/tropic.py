"""Truncated Puiseux series in t, ordered by behaviour as t -> infinity.

A series carries its known terms (exponents are fractions with a common
ramification denominator) plus an optional cutoff: every term with
exponent <= cutoff has been dropped, so the object stands for

    known terms  +  O(t^cutoff).

cutoff None means the series is exact.  All arithmetic propagates cutoffs
conservatively, so a leading term you can read off is certified; when a
sign or valuation would depend on dropped terms the operation raises
PrecisionError instead of guessing.

Coefficients are rationals, or rationals times sqrt(d) for one squarefree
radicand d where a square root forces them to be irrational (a column of
a Cholesky factor).  A series is stored as what its arithmetic runs on:
one integer map {k: n} and one radicand d, standing for
sqrt(d) sum_k n/den t^(k/ram), with the ramification ram and the
coefficient denominator den both kept minimal and d = 1 for a rational
series, so equal series are structurally equal (the format of
poly.ExactPoly, times sqrt(d)).  A sum adds the maps with poly._zadd, and
series over two different radicands do not add.  A product convolves the
maps once, on one exponent grid (sqrt(a) sqrt(b) = g sqrt(ab/g^2), g =
gcd(a, b)), and never forms a pair of terms whose exponents sum to the
product's cutoff or below: _mul_into, which matroid's rooted block phase
runs on too.  A Fraction or QRad coefficient is built only where one is
read (terms, leading).  Division and square roots work down to what the
operand's own cutoff supports: the inverse runs the integer recurrence of
1/(1 + u) on the map (1/sqrt(d) = sqrt(d)/d), and the square root of a
rational series expands one binomial series; an exact non-monomial gives
no stopping point, so it must be truncated first.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .poly import ExactPoly, _as_fraction, _zadd
from .poly import _canonical as _poly_canonical
from .radicals import QRad


class PrecisionError(ArithmeticError):
    """The requested quantity is not determined by the known terms."""


Coeff = Fraction | QRad


def _floor_key(cutoff: Fraction, ram: int) -> int:
    """The largest exponent key k with k/ram <= cutoff: a term survives the
    cutoff exactly when its key is above this."""
    return cutoff.numerator * ram // cutoff.denominator


def _canonical(
    ram: int, den: int, rad: int, terms: dict[int, int], cutoff: Fraction | None
) -> tuple[int, int, int, dict[int, int]]:
    """(ram, den, rad, terms) without zero values or keys at or below the
    cutoff, reduced by poly._canonical; rad = 1 when no term is left."""
    kmin = None if cutoff is None else _floor_key(cutoff, ram)
    terms = {k: v for k, v in terms.items() if v and (kmin is None or k > kmin)}
    ram, den, terms = _poly_canonical(ram, den, terms)
    return ram, den, rad if terms else 1, terms


def _truncated_zero(cutoff: Fraction) -> PrecisionError:
    """The error for a series known only as O(t^cutoff)."""
    return PrecisionError(f"insufficient precision: only O(t^{cutoff}) is known")


# A grid series over R is (terms, cut): its nonzero int coefficients as
# (key, n) pairs for n t^(key/R), highest key first, all above the cutoff
# key cut (None: exact).  Every product of series is formed on two of them:
# PuiseuxTrunc's over the lcm of the factors' ramifications and cutoff
# denominators, and the rooted check's block phase over its own grid.


def _mul_into(out: dict[int, int], scale: int, a: tuple, b: tuple) -> int | None:
    """Add scale a b to the map out, a and b grid series, and return the
    product's cutoff key: None when a or b is an exact zero (out is left
    alone) or both are exact; else the largest error term of top(a) +
    cut(b), top(b) + cut(a) and cut(a) + cut(b).  No pair of terms whose
    keys sum to the cutoff or below is formed."""
    (ta, ca), (tb, cb) = a, b
    if not ta and ca is None or not tb and cb is None:
        return None
    cuts = []
    if cb is not None and ta:
        cuts.append(ta[0][0] + cb)
    if ca is not None and tb:
        cuts.append(tb[0][0] + ca)
    if ca is not None and cb is not None:
        cuts.append(ca + cb)
    cut = max(cuts, default=None)
    if ta and tb:
        floor = ta[-1][0] + tb[-1][0] - 1 if cut is None else cut
        high_b = tb[0][0]
        get = out.get
        for ka, va in ta:
            floor_b = floor - ka
            if high_b <= floor_b:
                break
            va *= scale
            for kb, vb in tb:
                if kb <= floor_b:
                    break
                e = ka + kb
                out[e] = get(e, 0) + va * vb
    return cut


class PuiseuxTrunc:
    """A truncated (or exact) Puiseux series, highest exponents first.

    Stored as (ram, den, rad, terms, cutoff): terms maps keys k to nonzero
    ints n for the known terms n/den sqrt(rad) t^(k/ram), all above the
    cutoff, rad one squarefree radicand; gcd(ram, *keys) = gcd(den,
    *values) = 1, and ram = den = rad = 1 without known terms.
    """

    __slots__ = ("_ram", "_den", "_rad", "_terms", "_cutoff")

    def __init__(self, ram: int, terms: dict[int, Coeff], cutoff: Fraction | None = None):
        if ram < 1:
            raise ValueError("ramification index must be positive")
        coeffs: dict[int, Fraction] = {}
        rad = 1
        for k, c in terms.items():
            ki = int(k)
            if ki != k:
                raise ValueError(f"exponent key {k} is not an integer")
            if isinstance(c, QRad):
                mono = c.monomial()
                if mono is None:
                    raise ValueError(f"coefficient {c} is a sum over several radicands")
                q, d = mono
            else:
                q, d = _as_fraction(c), 1
            if q:
                if coeffs and d != rad:
                    raise ValueError(f"terms over two radicands, {rad} and {d}")
                coeffs[ki], rad = q, d
        den = lcm(1, *(q.denominator for q in coeffs.values()))
        ints = {k: q.numerator * (den // q.denominator) for k, q in coeffs.items()}
        cutoff = None if cutoff is None else Fraction(cutoff)
        self._ram, self._den, self._rad, self._terms = _canonical(ram, den, rad, ints, cutoff)
        self._cutoff = cutoff

    @staticmethod
    def _make(
        ram: int, den: int, rad: int, terms: dict[int, int], cutoff: Fraction | None
    ) -> "PuiseuxTrunc":
        """sqrt(rad) sum_k terms[k]/den t^(k/ram) + O(t^cutoff); the
        canonical form is taken here and terms is never mutated."""
        s = object.__new__(PuiseuxTrunc)
        s._ram, s._den, s._rad, s._terms = _canonical(ram, den, rad, terms, cutoff)
        s._cutoff = cutoff
        return s

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "PuiseuxTrunc":
        return PuiseuxTrunc._make(1, 1, 1, {}, None)

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
        return PuiseuxTrunc._make(p._den, p._cden, 1, p._terms, None)

    # -- inspection ------------------------------------------------------------

    @property
    def cutoff(self) -> Fraction | None:
        return self._cutoff

    def _top(self) -> int | None:
        """The largest key of a known term; None without known terms."""
        return max(self._terms, default=None)

    def _lead_key(self) -> int:
        """The key of the certified leading term.  Raises PrecisionError on
        a truncated zero and ValueError on an exact zero."""
        if self._terms:
            return max(self._terms)
        if self._cutoff is None:
            raise ValueError("exact zero has no leading term")
        raise _truncated_zero(self._cutoff)

    def _coeff(self, k: int) -> Coeff:
        """The coefficient at key k: a Fraction unless the radicand is
        irrational."""
        q = Fraction(self._terms[k], self._den)
        return q if self._rad == 1 else QRad({self._rad: q}, _raw=True)

    def terms(self) -> list[tuple[Fraction, Coeff]]:
        """Known terms, highest exponent first."""
        keys = sorted(self._terms, reverse=True)
        return [(Fraction(k, self._ram), self._coeff(k)) for k in keys]

    def is_exact_zero(self) -> bool:
        return not self._terms and self._cutoff is None

    def leading(self) -> tuple[Fraction, Coeff]:
        """Certified leading (exponent, coefficient).

        Raises PrecisionError on a truncated zero and ValueError on an
        exact zero.
        """
        k = self._lead_key()
        return Fraction(k, self._ram), self._coeff(k)

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
        """Sign for t -> infinity, the sign of the lead numerator (den and
        sqrt(rad) are positive).  Exact zero gives 0; a truncated zero
        raises PrecisionError rather than guessing."""
        if self.is_exact_zero():
            return 0
        return 1 if self._terms[self._lead_key()] > 0 else -1

    # -- arithmetic --------------------------------------------------------------

    def _over(self, ram: int, den: int) -> dict[int, int]:
        """The terms over multiples ram and den of the stored denominators."""
        fe, fc = ram // self._ram, den // self._den
        if fe == fc == 1:
            return self._terms
        return {k * fe: v * fc for k, v in self._terms.items()}

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
        if self._terms and o._terms and self._rad != o._rad:
            raise ValueError(f"adding series over two radicands, {self._rad} and {o._rad}")
        ram, den = lcm(self._ram, o._ram), lcm(self._den, o._den)
        terms = _zadd(self._over(ram, den), o._over(ram, den))
        rad = self._rad if self._terms else o._rad
        cuts = [c for c in (self._cutoff, o._cutoff) if c is not None]
        return PuiseuxTrunc._make(ram, den, rad, terms, max(cuts) if cuts else None)

    __radd__ = __add__

    def __neg__(self):
        negated = {k: -v for k, v in self._terms.items()}
        return PuiseuxTrunc._make(self._ram, self._den, self._rad, negated, self._cutoff)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def _grid(self, R: int) -> tuple:
        """self as a grid series over R, a multiple of its ramification
        and of its cutoff's denominator, coefficients over self._den."""
        terms = sorted(self._terms.items(), reverse=True)
        f = R // self._ram
        if f > 1:
            terms = [(k * f, v) for k, v in terms]
        c = self._cutoff
        return terms, None if c is None else c.numerator * (R // c.denominator)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        cuts = [c.denominator for c in (self._cutoff, o._cutoff) if c is not None]
        R = lcm(self._ram, o._ram, *cuts)
        g = gcd(self._rad, o._rad)  # sqrt(ra) sqrt(rb) = g sqrt(ra rb / g^2)
        out: dict[int, int] = {}
        cut = _mul_into(out, g, self._grid(R), o._grid(R))
        rad = self._rad // g * (o._rad // g)
        cutoff = None if cut is None else Fraction(cut, R)
        return PuiseuxTrunc._make(R, self._den * o._den, rad, out, cutoff)

    __rmul__ = __mul__

    def truncate(self, cutoff: Fraction) -> "PuiseuxTrunc":
        """Forget everything at or below the given exponent.  An exact zero
        stays exact (there is nothing to forget)."""
        if self.is_exact_zero():
            return self
        cutoff = Fraction(cutoff)
        if self._cutoff is not None:
            cutoff = max(cutoff, self._cutoff)
        return PuiseuxTrunc._make(self._ram, self._den, self._rad, self._terms, cutoff)

    def _binomial(self, alpha: Fraction, head: "PuiseuxTrunc") -> "PuiseuxTrunc":
        """self^alpha for a truncated self, alpha = -1 or 1/2, with head the
        exact monomial lead^alpha.  self = lead * (1 + u), every exponent of
        u negative, so self^alpha = head * sum_j C(alpha, j) u^j; terms are
        added while they reach above target = cutoff + (alpha - 1) * (lead
        exponent), which is what self's precision supports."""
        lead_e, lead_c = self.leading()
        target = self._cutoff + (alpha - 1) * lead_e
        u = self * PuiseuxTrunc.t_power(-lead_e, 1 / lead_c) - 1
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
        twice its leading exponent (exact for an exact monomial).  An exact
        non-monomial must be truncated first.

        By the recurrence of 1/(1 + u) instead of powers of u: with s =
        t^(-1/ram), top the lead key and p its value, self = sqrt(rad) (p/den)
        t^(top/ram) sum_m a_m s^m with a_m = n_(top-m)/p, and the inverse is
        sqrt(rad) (den/(p rad)) t^(-top/ram) sum_m b_m s^m, b_0 = 1, b_m =
        -sum_i a_i b_(m-i).  The integers c_m = b_m p^m follow c_m = -sum_i
        n_(top-i) p^(i-1) c_(m-i); m runs while the term stays above the
        cutoff of the binomial expansion, cutoff - 2 top/ram.
        """
        top = self._lead_key()  # certifies a nonzero lead
        if self._cutoff is None and len(self._terms) > 1:
            raise ValueError("inverting an exact non-monomial: truncate it first")
        ram, terms = self._ram, self._terms
        p = terms[top]
        last = 0 if self._cutoff is None else top - _floor_key(self._cutoff, ram) - 1
        weights = sorted((top - k, v * p ** (top - k - 1)) for k, v in terms.items() if k != top)
        c = [1]
        for m in range(1, last + 1):
            c.append(-sum(w * c[m - i] for i, w in weights if i <= m))
        scale = p ** (last + 1)
        sign = 1 if scale > 0 else -1
        vals = {-top - m: sign * self._den * cm * p ** (last - m) for m, cm in enumerate(c)}
        cutoff = None if self._cutoff is None else self._cutoff - 2 * Fraction(top, ram)
        return PuiseuxTrunc._make(ram, abs(scale) * self._rad, self._rad, vals, cutoff)

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
        first.  self must be rational (a radical series raises: the root
        would nest) with a positive leading coefficient; ramification
        doubles when the leading exponent is odd over the current one."""
        if self.is_exact_zero():
            return self
        if self._rad != 1:
            raise ArithmeticError(f"nested radical: sqrt of {self}")
        lead_e, lead_c = self.leading()
        if lead_c < 0:
            raise ArithmeticError(f"sqrt of a series with negative lead {lead_c}")
        root = PuiseuxTrunc.t_power(lead_e / 2, QRad.sqrt_of(lead_c))
        if self._cutoff is None and len(self._terms) == 1:
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
            and self._rad == o._rad
            and self._terms == o._terms
            and self._cutoff == o._cutoff
        )

    def __hash__(self):
        # an exact series must hash like the scalar or ExactPoly it equals
        if self._cutoff is None:
            if self._rad == 1:
                return hash(ExactPoly._make(self._ram, self._den, self._terms))
            if self._terms.keys() == {0}:
                return hash(self._coeff(0))
        terms = frozenset(self._terms.items())
        return hash((self._ram, self._den, self._rad, terms, self._cutoff))

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
    asymmetric m, or an entry over an irrational radicand, raises
    ValueError before any work."""
    n = len(m)
    grid = [[PuiseuxTrunc._coerce(x) for x in row] for row in m]
    if any(len(row) != n or any(x is None for x in row) for row in grid):
        raise ValueError("need a square grid of series or polynomials")
    for i in range(n):
        for j in range(n):
            if grid[i][j]._rad != 1:
                raise ValueError(f"entry ({i},{j}) is not rational: {grid[i][j]}")
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
    square grid of polynomials or rational series (a PolyMatrix passes its
    entries).  Column j of L is sqrt(d_j) times a rational series, so every
    sum here runs over one radicand.

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
