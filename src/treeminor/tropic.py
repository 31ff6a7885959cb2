"""Truncated Puiseux series in t, ordered by behaviour as t -> infinity.

A series carries a dict of known terms (exponents are fractions with a
common ramification denominator) plus an optional cutoff: every term with
exponent <= cutoff has been dropped, so the object stands for

    known terms  +  O(t^cutoff).

cutoff None means the series is exact.  All arithmetic propagates cutoffs
conservatively, so a leading term you can read off is certified; when a
sign or valuation would depend on dropped terms the operation raises
PrecisionError instead of guessing.

Coefficients are Fractions, or QRad values where square roots force them
to be irrational (Cholesky pivots).  A product runs on Python ints: each
operand's coefficients are split by radicand over one common denominator,
the integer parts are convolved per pair of radicands (sqrt(a) sqrt(b) =
g sqrt(ab/g^2), g = gcd(a, b)), and a pair of terms whose exponents sum to
the product's cutoff or below is never formed.  Division and square roots
expand geometric/binomial series down to what the operand's own cutoff
supports; an exact non-monomial gives no stopping point, so it must be
truncated first.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .poly import ExactPoly, _as_fraction
from .radicals import QRad, exact_sign


class PrecisionError(ArithmeticError):
    """The requested quantity is not determined by the known terms."""


Coeff = Fraction | QRad


def _canon_coeff(c) -> Coeff:
    if isinstance(c, QRad):
        return c.as_fraction() if c.is_rational() else c
    return c if isinstance(c, Fraction) else _as_fraction(c)


def _coeff_inv(c: Coeff) -> Coeff:
    if isinstance(c, QRad):
        return c.inverse()
    return 1 / c


def _coeff_sqrt(c: Coeff) -> Coeff:
    if isinstance(c, QRad):
        if not c.is_rational():
            raise ArithmeticError(f"nested radical: sqrt of {c}")
        c = c.as_fraction()
    return _canon_coeff(QRad.sqrt_of(c))


def _floor_key(cutoff: Fraction, ram: int) -> int:
    """The largest exponent key k with k/ram <= cutoff: a term survives the
    cutoff exactly when its key is above this."""
    return cutoff.numerator * ram // cutoff.denominator


def _reduce(ram: int, terms: dict[int, Coeff]) -> tuple[int, dict[int, Coeff]]:
    """Divide the ramification and every key by their common gcd."""
    g = gcd(ram, *terms)
    if g > 1:
        return ram // g, {k // g: c for k, c in terms.items()}
    return ram, terms


def _int_parts(terms: dict[int, Coeff], f: int) -> tuple[int, dict[int, list[tuple[int, int]]]]:
    """(den, parts) with parts[d] the (k*f, n) pairs, exponents descending,
    such that the sqrt(d) part of the coefficient at k is n/den."""
    den = 1
    for c in terms.values():
        if isinstance(c, QRad):
            for _, q in c.components():
                if den % q.denominator:
                    den = lcm(den, q.denominator)
        elif den % c.denominator:
            den = lcm(den, c.denominator)
    parts: dict[int, list[tuple[int, int]]] = {}
    for k in sorted(terms, reverse=True):
        c = terms[k]
        if isinstance(c, QRad):
            for d, q in c.components():
                parts.setdefault(d, []).append((k * f, q.numerator * (den // q.denominator)))
        else:
            parts.setdefault(1, []).append((k * f, c.numerator * (den // c.denominator)))
    return den, parts


def _from_int_parts(out: dict[int, dict[int, int]], den: int) -> dict[int, Coeff]:
    """Inverse of _int_parts: one canonical coefficient per nonzero key."""
    if out.keys() <= {1}:
        return {k: Fraction(v, den) for k, v in out.get(1, {}).items() if v}
    comps: dict[int, dict[int, Fraction]] = {}
    for d, acc in out.items():
        for k, v in acc.items():
            if v:
                comps.setdefault(k, {})[d] = Fraction(v, den)
    return {
        k: c[1] if c.keys() == {1} else QRad(c, _raw=True) for k, c in comps.items()
    }


class PuiseuxTrunc:
    """A truncated (or exact) Puiseux series, highest exponents first."""

    __slots__ = ("_ram", "_terms", "_cutoff")

    def __init__(self, ram: int, terms: dict[int, Coeff], cutoff: Fraction | None = None, _raw: bool = False):
        if not _raw:
            if ram < 1:
                raise ValueError("ramification index must be positive")
            cutoff = None if cutoff is None else Fraction(cutoff)
            kmin = None if cutoff is None else _floor_key(cutoff, ram)
            clean = {}
            for k, c in terms.items():
                ki = int(k)
                if ki != k:
                    raise ValueError(f"exponent key {k} is not an integer")
                c = _canon_coeff(c)
                if c and (kmin is None or ki > kmin):
                    clean[ki] = c
            ram, terms = _reduce(ram, clean)
        self._ram = ram
        self._terms = terms
        self._cutoff = cutoff

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "PuiseuxTrunc":
        return PuiseuxTrunc(1, {}, None, _raw=True)

    @staticmethod
    def constant(c) -> "PuiseuxTrunc":
        return PuiseuxTrunc.from_terms([(Fraction(0), c)])

    @staticmethod
    def t_power(e, coeff=1) -> "PuiseuxTrunc":
        return PuiseuxTrunc.from_terms([(Fraction(e), coeff)])

    @staticmethod
    def from_terms(pairs: Iterable[tuple[Fraction, Coeff]]) -> "PuiseuxTrunc":
        pairs = [(_as_fraction(e), c) for e, c in pairs]
        ram = lcm(1, *(e.denominator for e, _ in pairs)) if pairs else 1
        terms: dict[int, Coeff] = {}
        for e, c in pairs:
            k = int(e * ram)
            prev = terms.get(k, Fraction(0))
            terms[k] = prev + c
        return PuiseuxTrunc(ram, terms)

    @staticmethod
    def from_poly(p: ExactPoly) -> "PuiseuxTrunc":
        return PuiseuxTrunc.from_terms(list(p.terms()))

    # -- inspection ------------------------------------------------------------

    @property
    def cutoff(self) -> Fraction | None:
        return self._cutoff

    def terms(self) -> list[tuple[Fraction, Coeff]]:
        """Known terms, highest exponent first."""
        return [
            (Fraction(k, self._ram), self._terms[k])
            for k in sorted(self._terms, reverse=True)
        ]

    def is_exact_zero(self) -> bool:
        return not self._terms and self._cutoff is None

    def leading(self) -> tuple[Fraction, Coeff]:
        """Certified leading (exponent, coefficient).

        Raises PrecisionError on a truncated zero and ValueError on an
        exact zero.
        """
        if self._terms:
            k = max(self._terms)
            return Fraction(k, self._ram), self._terms[k]
        if self._cutoff is None:
            raise ValueError("exact zero has no leading term")
        raise PrecisionError(
            f"insufficient precision: only O(t^{self._cutoff}) is known"
        )

    def valuation(self) -> Fraction | None:
        """Leading exponent; None for an exact zero; PrecisionError when the
        series is zero to the known precision."""
        if self._terms:
            return Fraction(max(self._terms), self._ram)
        if self._cutoff is None:
            return None
        raise PrecisionError(
            f"insufficient precision: only O(t^{self._cutoff}) is known"
        )

    def _bound(self) -> Fraction | None:
        """Upper bound on the exponent of any (known or hidden) term; None
        means the series is exactly zero."""
        cands = []
        if self._terms:
            cands.append(Fraction(max(self._terms), self._ram))
        if self._cutoff is not None:
            cands.append(self._cutoff)
        return max(cands) if cands else None

    def sign(self) -> int:
        """Sign for t -> infinity.  Exact zero gives 0; a truncated zero
        raises PrecisionError rather than guessing."""
        if self._terms:
            return exact_sign(self._terms[max(self._terms)])
        if self._cutoff is None:
            return 0
        raise PrecisionError(
            f"insufficient precision: only O(t^{self._cutoff}) is known"
        )

    # -- arithmetic --------------------------------------------------------------

    def _aligned(self, other: "PuiseuxTrunc") -> tuple[int, dict[int, Coeff], dict[int, Coeff]]:
        r = lcm(self._ram, other._ram)
        fa, fb = r // self._ram, r // other._ram
        return (
            r,
            {k * fa: c for k, c in self._terms.items()},
            {k * fb: c for k, c in other._terms.items()},
        )

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
        r, ta, tb = self._aligned(o)
        terms = dict(ta)
        for k, c in tb.items():
            terms[k] = terms.get(k, Fraction(0)) + c
        cuts = [c for c in (self._cutoff, o._cutoff) if c is not None]
        return PuiseuxTrunc(r, terms, max(cuts) if cuts else None)

    __radd__ = __add__

    def __neg__(self):
        return PuiseuxTrunc(
            self._ram, {k: -c for k, c in self._terms.items()}, self._cutoff, _raw=True
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
        ta, tb = self._terms, o._terms
        # error terms: known(a) * O(b), known(b) * O(a), O(a) * O(b)
        cuts = []
        if o._cutoff is not None and ta:
            cuts.append(Fraction(max(ta), self._ram) + o._cutoff)
        if self._cutoff is not None and tb:
            cuts.append(Fraction(max(tb), o._ram) + self._cutoff)
        if self._cutoff is not None and o._cutoff is not None:
            cuts.append(self._cutoff + o._cutoff)
        cutoff = max(cuts) if cuts else None
        r = lcm(self._ram, o._ram)
        fa, fb = r // self._ram, r // o._ram
        if cutoff is None:  # both exact and nonzero: every pair is kept
            kmin = min(ta) * fa + min(tb) * fb - 1
        else:
            kmin = _floor_key(cutoff, r)
        # integer convolution per pair of radicands, sqrt(da) sqrt(db) =
        # g sqrt(da db / g^2); pairs at or below the cutoff are never formed
        den_a, pa = _int_parts(ta, fa)
        den_b, pb = _int_parts(tb, fb)
        out: dict[int, dict[int, int]] = {}
        for da, qa in pa.items():
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
        ram, terms = _reduce(r, _from_int_parts(out, den_a * den_b))
        return PuiseuxTrunc(ram, terms, cutoff, _raw=True)

    __rmul__ = __mul__

    def truncate(self, cutoff: Fraction) -> "PuiseuxTrunc":
        """Forget everything at or below the given exponent.  An exact zero
        stays exact (there is nothing to forget)."""
        if self.is_exact_zero():
            return self
        cutoff = Fraction(cutoff)
        if self._cutoff is not None:
            cutoff = max(cutoff, self._cutoff)
        return PuiseuxTrunc(self._ram, dict(self._terms), cutoff)

    def _monomial(self) -> bool:
        return self._cutoff is None and len(self._terms) == 1

    def inverse(self) -> "PuiseuxTrunc":
        """1/self via the geometric series, down to what self's precision
        supports: its cutoff minus twice its leading exponent.  An exact
        non-monomial must be truncated first.
        """
        lead_e, lead_c = self.leading()  # certifies a nonzero lead
        mono = PuiseuxTrunc.t_power(-lead_e, _coeff_inv(lead_c))
        if self._monomial():
            return mono
        if self._cutoff is None:
            raise ValueError("inverting an exact non-monomial: truncate it first")
        target = self._cutoff - 2 * lead_e
        # self = lead * (1 - u), every exponent of u is negative
        u = PuiseuxTrunc.constant(1) - self * mono
        inv = PuiseuxTrunc.constant(1)
        acc = PuiseuxTrunc.constant(1)
        while True:
            acc = acc * u
            b = acc._bound()
            if b is None or b - lead_e <= target:
                break
            inv = inv + acc
        return (inv * mono).truncate(target)

    def divide(self, other) -> "PuiseuxTrunc":
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot divide by {other!r}")
        if self.is_exact_zero():
            return self
        return self * o.inverse()

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.divide(o)

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
        target = self._cutoff - lead_e / 2
        inv_lead = PuiseuxTrunc.t_power(-lead_e, _coeff_inv(lead_c))
        u = self * inv_lead - PuiseuxTrunc.constant(1)  # negative exponents
        total = PuiseuxTrunc.constant(1)
        acc = PuiseuxTrunc.constant(1)
        coeff = Fraction(1)
        k = 0
        while True:
            k += 1
            coeff = coeff * (Fraction(1, 2) - (k - 1)) / k
            acc = acc * u
            b = acc._bound()
            term_bound = None if b is None else b + lead_e / 2
            if b is not None:
                total = total + acc * coeff
            if b is None or term_bound <= target:
                break
        return (total * root).truncate(target)

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
            and self._terms == o._terms
            and self._cutoff == o._cutoff
        )

    def __hash__(self):
        # an exact series must hash like the scalar or ExactPoly it equals
        if self._cutoff is None:
            if self._terms.keys() <= {0}:
                return hash(self._terms.get(0, 0))
            if all(isinstance(c, Fraction) for c in self._terms.values()):
                return hash(ExactPoly(self._ram, self._terms))
        return hash(
            (self._ram, frozenset(self._terms.items()), self._cutoff)
        )

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


def cholesky(
    m: Sequence[Sequence[ExactPoly | PuiseuxTrunc]],
    window: Fraction | None = None,
) -> list[list[PuiseuxTrunc]]:
    """Lower-triangular L with L L^T = m, over truncated series.

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
    if hasattr(m, "entries"):
        m = m.entries
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
    lower = [[PuiseuxTrunc.zero() for _ in range(n)] for _ in range(n)]
    for j in range(n):
        d = grid[j][j]
        for k in range(j):
            d = d - lower[j][k] * lower[j][k]
        s = d.sign()  # PrecisionError when the window is too small
        if s < 0:
            raise ArithmeticError(f"pivot {j} is negative; no real factorization")
        if s == 0:
            raise ArithmeticError(f"pivot {j} is exactly zero; matrix is singular")
        lower[j][j] = d.sqrt()
        for i in range(j + 1, n):
            num = grid[i][j]
            for k in range(j):
                num = num - lower[i][k] * lower[j][k]
            lower[i][j] = num.divide(lower[j][j])
    return lower
