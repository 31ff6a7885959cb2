"""Exact arithmetic in real multiquadratic extensions of the rationals.

Elements are finite sums  sum_d  c_d * sqrt(d)  with rational c_d and
squarefree positive integer radicands d (d = 1 is the rational part).
Square roots of distinct squarefree integers are linearly independent over
the rationals, so the dict of coefficients is a canonical form: equality,
zero tests, and hence signs are exact.

Only square roots of nonnegative rationals can be created; products never
nest radicals, so the representation is closed under +, -, *, /.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

_SIGN_PRECISION_CAP = 1 << 16  # bits; unreachable for honest nonzero inputs


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = s*s*d with d squarefree; returns (s, d).  Requires n >= 1."""
    s, d, i = 1, 1, 2
    while i * i <= n:
        if n % i == 0:
            e = 0
            while n % i == 0:
                n //= i
                e += 1
            s *= i ** (e // 2)
            if e % 2:
                d *= i
        i += 1 if i == 2 else 2
    return s, d * n


def _prime_factors(n: int) -> list[int]:
    out, i = [], 2
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            while n % i == 0:
                n //= i
        i += 1 if i == 2 else 2
    if n > 1:
        out.append(n)
    return out


class QRad:
    """A number  sum c_d sqrt(d)  over squarefree d, with exact arithmetic."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None, _raw: bool = False):
        if terms is None:
            terms = {}
        if _raw:
            self._terms = terms
            return
        clean: dict[int, Fraction] = {}
        for d, c in terms.items():
            if int(d) != d:
                raise ValueError(f"radicand key {d} is not an integer")
            d = int(d)
            c = Fraction(c)
            if d < 1:
                raise ValueError(f"radicand must be positive, got {d}")
            s, sf = _squarefree_split(d)
            if sf != d:
                raise ValueError(f"radicand {d} is not squarefree")
            if c:
                clean[d] = clean.get(d, Fraction(0)) + c
        self._terms = {d: c for d, c in clean.items() if c}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(x) -> "QRad":
        if isinstance(x, QRad):
            return x
        return QRad({1: Fraction(x)}, _raw=True) if x else QRad()

    @staticmethod
    def sqrt_of(x) -> "QRad":
        """Exact square root of a nonnegative rational."""
        x = Fraction(x)
        if x < 0:
            raise ValueError(f"square root of negative rational {x}")
        if x == 0:
            return QRad()
        # sqrt(p/q) = sqrt(p*q)/q
        s, d = _squarefree_split(x.numerator * x.denominator)
        return QRad({d: Fraction(s, x.denominator)}, _raw=True)

    # -- inspection ---------------------------------------------------------

    def is_rational(self) -> bool:
        return set(self._terms) <= {1}

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return self._terms.get(1, Fraction(0))

    def monomial(self) -> tuple[Fraction, int] | None:
        """(c, d) with self = c * sqrt(d), or None for a sum of two or more
        radicands.  Zero is (0, 1)."""
        if len(self._terms) > 1:
            return None
        for d, c in self._terms.items():
            return c, d
        return Fraction(0), 1

    def components(self):
        """The (d, c) pairs of self = sum c sqrt(d), every c nonzero."""
        return self._terms.items()

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring ops -----------------------------------------------------------

    def _coerced(self, other):
        if isinstance(other, QRad):
            return other
        if isinstance(other, (int, Fraction, Rational)):
            return QRad.of(other)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        terms = dict(self._terms)
        for d, c in o._terms.items():
            v = terms.get(d, Fraction(0)) + c
            if v:
                terms[d] = v
            else:
                terms.pop(d, None)
        return QRad(terms, _raw=True)

    __radd__ = __add__

    def __neg__(self):
        return QRad({d: -c for d, c in self._terms.items()}, _raw=True)

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        terms: dict[int, Fraction] = {}
        for d1, c1 in self._terms.items():
            for d2, c2 in o._terms.items():
                g = math.gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                v = terms.get(d, Fraction(0)) + c1 * c2 * g
                if v:
                    terms[d] = v
                else:
                    terms.pop(d, None)
        return QRad(terms, _raw=True)

    __rmul__ = __mul__

    def inverse(self) -> "QRad":
        """Multiply through by conjugates until the denominator is rational."""
        if not self._terms:
            raise ZeroDivisionError("inverse of zero")
        primes: set[int] = set()
        for d in self._terms:
            primes.update(_prime_factors(d))
        num = QRad.of(1)
        cur = self
        for p in sorted(primes):
            conj = cur._conjugate(p)
            num = num * conj
            cur = cur * conj
        return num * QRad.of(1 / cur.as_fraction())

    def _conjugate(self, p: int) -> "QRad":
        """Flip the sign of sqrt(p): negate terms whose radicand p divides."""
        return QRad(
            {d: (-c if d % p == 0 else c) for d, c in self._terms.items()}, _raw=True
        )

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- order --------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign via interval refinement; canonical form rules out the
        nonzero-but-looks-zero trap."""
        if not self._terms:
            return 0
        if self.is_rational():
            c = self._terms[1]
            return 1 if c > 0 else -1
        bits = 64
        while bits <= _SIGN_PRECISION_CAP:
            scale = 1 << bits
            lo = hi = Fraction(0)
            for d, c in self._terms.items():
                r = math.isqrt(d * scale * scale)
                rlo, rhi = Fraction(r, scale), Fraction(r + 1, scale)
                if c >= 0:
                    lo += c * rlo
                    hi += c * rhi
                else:
                    lo += c * rhi
                    hi += c * rlo
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2
        raise ArithmeticError("sign did not resolve within the precision cap")

    def _cmp(self, other) -> int:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return (self - o).sign()

    def __lt__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is NotImplemented else s < 0

    def __le__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is NotImplemented else s <= 0

    def __gt__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is NotImplemented else s > 0

    def __ge__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is NotImplemented else s >= 0

    def __eq__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self):
        if self.is_rational():
            return hash(self._terms.get(1, Fraction(0)))
        return hash(frozenset(self._terms.items()))

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for d in sorted(self._terms):
            c = self._terms[d]
            if d == 1:
                body = str(c) if c.denominator == 1 else f"({c})"
                body = body if c >= 0 else (f"-{-c}" if c.denominator == 1 else f"-({-c})")
            else:
                mag, neg = abs(c), c < 0
                if mag == 1:
                    body = f"sqrt({d})"
                elif mag.denominator == 1:
                    body = f"{mag}*sqrt({d})"
                else:
                    body = f"({mag})*sqrt({d})"
                if neg:
                    body = "-" + body
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"QRad({self})"


def exact_sign(x: "Fraction | QRad") -> int:
    """Sign of a rational or of a square-root extension element."""
    if isinstance(x, QRad):
        return x.sign()
    return 1 if x > 0 else (-1 if x < 0 else 0)
