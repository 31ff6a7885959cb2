"""Exact sparse Laurent polynomials in one indeterminate t, with rational
exponents, plus determinants and Pfaffians of matrices over them.

A polynomial is a finite map {exponent -> coefficient}.  Coefficients are
arbitrary-precision rationals (fractions.Fraction).  Exponents are rationals
stored as integer numerators over one shared positive denominator per
polynomial, kept minimal, so equality of polynomials is plain structural
equality.  Everything downstream (distance powers t^d, the signed forest
sums, Schur complements) lives in this ring.

det and pfaffian do not compute in Fraction arithmetic: they clear the
coefficient denominators of their matrix once, work on integer-coefficient
polynomials (dict[int, int] over one shared exponent denominator, the
_z* kernel below), and build a single ExactPoly from the result.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Tuple


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected a rational, got {type(x).__name__}")


class ExactPoly:
    """Sparse Laurent polynomial in t over Q, exponents in Q.

    Instances are immutable; all operations return new polynomials in
    canonical form (no zero coefficients, minimal shared exponent
    denominator).
    """

    __slots__ = ("_den", "_terms")

    def __init__(self, den: int = 1, terms: dict | None = None, _raw: bool = False):
        if _raw:
            self._den = den
            self._terms = terms if terms is not None else {}
            return
        clean = {int(k): _as_fraction(v) for k, v in (terms or {}).items()}
        if not isinstance(den, int) or den < 1:
            raise ValueError("exponent denominator must be a positive integer")
        self._den, self._terms = _normalize(den, clean)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "ExactPoly":
        return _ZERO

    @staticmethod
    def one() -> "ExactPoly":
        return _ONE

    @staticmethod
    def constant(c) -> "ExactPoly":
        c = _as_fraction(c)
        if c == 0:
            return _ZERO
        return ExactPoly(1, {0: c}, _raw=True)

    @staticmethod
    def t_power(exponent=1, coeff=1) -> "ExactPoly":
        """The monomial coeff * t^exponent."""
        e = _as_fraction(exponent)
        c = _as_fraction(coeff)
        if c == 0:
            return _ZERO
        den, terms = _normalize(e.denominator, {e.numerator: c})
        return ExactPoly(den, terms, _raw=True)

    @staticmethod
    def from_terms(pairs: Iterable[Tuple[Fraction, Fraction]]) -> "ExactPoly":
        """Build from (exponent, coefficient) pairs; repeats accumulate."""
        den = 1
        merged: dict[int, Fraction] = {}
        for e, c in pairs:
            e = _as_fraction(e)
            c = _as_fraction(c)
            d = math.lcm(den, e.denominator)
            if d != den:
                merged = {k * (d // den): v for k, v in merged.items()}
                den = d
            k = e.numerator * (den // e.denominator)
            merged[k] = merged.get(k, Fraction(0)) + c
        den, merged = _normalize(den, merged)
        return ExactPoly(den, merged, _raw=True)

    # -- inspection --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[Tuple[Fraction, Fraction]]:
        """Yield (exponent, coefficient) in decreasing exponent order."""
        d = self._den
        for k in sorted(self._terms, reverse=True):
            yield Fraction(k, d), self._terms[k]

    def leading_term(self) -> Tuple[Fraction, Fraction]:
        """(exponent, coefficient) of the highest-exponent term."""
        if not self._terms:
            raise ValueError("the zero polynomial has no leading term")
        k = max(self._terms)
        return Fraction(k, self._den), self._terms[k]

    def trailing_term(self) -> Tuple[Fraction, Fraction]:
        if not self._terms:
            raise ValueError("the zero polynomial has no trailing term")
        k = min(self._terms)
        return Fraction(k, self._den), self._terms[k]

    def coefficient(self, exponent) -> Fraction:
        e = _as_fraction(exponent)
        if self._den % e.denominator:
            return Fraction(0)
        return self._terms.get(e.numerator * (self._den // e.denominator), Fraction(0))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "ExactPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den, a, b = _align(self, other)
        out = dict(a)
        for k, v in b.items():
            s = out.get(k, Fraction(0)) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        den, out = _normalize(den, out)
        return ExactPoly(den, out, _raw=True)

    __radd__ = __add__

    def __neg__(self) -> "ExactPoly":
        return ExactPoly(self._den, {k: -v for k, v in self._terms.items()}, _raw=True)

    def __sub__(self, other) -> "ExactPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "ExactPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms or not other._terms:
            return _ZERO
        den, a, b = _align(self, other)
        out: dict[int, Fraction] = {}
        for ka, va in a.items():
            for kb, vb in b.items():
                k = ka + kb
                s = out.get(k, Fraction(0)) + va * vb
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        den, out = _normalize(den, out)
        return ExactPoly(den, out, _raw=True)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ExactPoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers are defined")
        result = _ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self):
        # a constant must hash like the int/Fraction it compares equal to
        if self._terms.keys() <= {0}:
            return hash(self._terms.get(0, 0))
        return hash((self._den, frozenset(self._terms.items())))

    # -- substitutions and evaluation ---------------------------------------

    def power_substitute(self, r) -> "ExactPoly":
        """Monomial substitution t -> t^r for a nonzero rational r.

        r = -1 gives the dual polynomial p(1/t), r = 1/2 halves every
        exponent.
        """
        r = _as_fraction(r)
        if r == 0:
            raise ValueError("substitution exponent must be nonzero")
        return ExactPoly.from_terms((e * r, c) for e, c in self.terms())

    def eval_at(self, tau):
        """Evaluate exactly at a rational tau.

        Every exponent must be an integer, or tau must have an exact k-th
        root for the shared exponent denominator k; otherwise ValueError.
        Negative tau with fractional exponents is rejected.
        """
        tau = _as_fraction(tau)
        if not self._terms:
            return Fraction(0)
        den = self._den
        if den > 1:
            if tau < 0:
                raise ValueError("negative base with fractional exponents")
            root = _exact_root(tau, den)
            if root is None:
                raise ValueError(f"{tau} has no exact {den}-th root")
            tau = root
        if tau == 0:
            if min(self._terms) < 0:
                raise ZeroDivisionError("negative exponent at tau = 0")
            return self._terms.get(0, Fraction(0))
        total = Fraction(0)
        for k, c in self._terms.items():
            total += c * tau ** k
        return total

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, c in self.terms():
            mag = abs(c)
            if e == 0:
                body = _coeff_str(mag)
            else:
                tpart = "t" if e == 1 else f"t^{_exp_str(e)}"
                body = tpart if mag == 1 else f"{_coeff_str(mag)}*{tpart}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"ExactPoly({self})"


def _coeff_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"({c})"


def _exp_str(e: Fraction) -> str:
    if e.denominator == 1 and e >= 0:
        return str(e.numerator)
    return f"({e})"


def _normalize(den: int, terms: dict) -> tuple[int, dict]:
    terms = {k: v for k, v in terms.items() if v}
    if not terms:
        return 1, {}
    g = den
    for k in terms:
        g = math.gcd(g, k)
        if g == 1:
            break
    if g > 1:
        terms = {k // g: v for k, v in terms.items()}
        den //= g
    return den, terms


def _coerce(x):
    if isinstance(x, ExactPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactPoly.constant(x)
    return NotImplemented


def _align(a: ExactPoly, b: ExactPoly) -> tuple[int, dict, dict]:
    if a._den == b._den:
        return a._den, a._terms, b._terms
    d = math.lcm(a._den, b._den)
    fa, fb = d // a._den, d // b._den
    return d, {k * fa: v for k, v in a._terms.items()}, {k * fb: v for k, v in b._terms.items()}


def _exact_root(x: Fraction, k: int) -> Fraction | None:
    """The exact k-th root of x >= 0, or None if it is irrational."""
    if x == 0:
        return Fraction(0)
    num = _iroot(x.numerator, k)
    if num is None:
        return None
    den = _iroot(x.denominator, k)
    if den is None:
        return None
    return Fraction(num, den)


def _iroot(n: int, k: int) -> int | None:
    try:
        r = round(n ** (1.0 / k))
    except OverflowError:  # n is too large for a float
        pass
    else:
        for cand in (r - 1, r, r + 1):
            if cand >= 0 and cand ** k == n:
                return cand
    # the float guess fails or is off for big n; fall back to integer bisection
    lo, hi = 0, 1
    while hi ** k < n:
        hi *= 2
    while lo <= hi:
        mid = (lo + hi) // 2
        m = mid ** k
        if m == n:
            return mid
        if m < n:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


_ZERO = ExactPoly(1, {}, _raw=True)
_ONE = ExactPoly(1, {0: Fraction(1)}, _raw=True)


# ---------------------------------------------------------------------------
# integer-coefficient kernel: a polynomial is a dict {k: c} standing for
# sum c t^(k/D), c a nonzero int, over a denominator D the caller keeps.


def _zadd(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    out = dict(p)
    for k, v in q.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def _zmul(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    get = out.get
    for kp, vp in p.items():
        for kq, vq in q.items():
            k = kp + kq
            out[k] = get(k, 0) + vp * vq
    return {k: v for k, v in out.items() if v}


def _zdiv(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    """The exact quotient p / q; ArithmeticError if q does not divide p
    with integer coefficients."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    if not p:
        return {}
    lead = max(q)
    lc = q[lead]
    floor = min(p) - min(q)
    rem = dict(p)
    heap = [-k for k in rem]  # max-heap of the remainder's exponents
    heapq.heapify(heap)
    quot: dict[int, int] = {}
    while rem:
        top = -heapq.heappop(heap)
        v = rem.pop(top, 0)
        if not v:
            continue  # cancelled since it was pushed
        e = top - lead
        c, r = divmod(v, lc)
        if r or e < floor:
            raise ArithmeticError("inexact polynomial division")
        quot[e] = c
        for k, w in q.items():
            if k == lead:
                continue
            k += e
            s = rem.get(k, 0) - c * w
            if s:
                if k not in rem:
                    heapq.heappush(heap, -k)
                rem[k] = s
            else:
                rem.pop(k, None)
    return quot


def _denominator_lcm(maps) -> int:
    """The lcm of the coefficient denominators of {k: Fraction} maps."""
    mult = 1
    for p in maps:
        for c in p.values():
            if mult % c.denominator:
                mult = math.lcm(mult, c.denominator)
    return mult


def _common_den(entries) -> tuple[int, list[list[dict[int, Fraction]]]]:
    """The lcm D of the entries' exponent denominators, and the entries as
    {numerator over D: coefficient} maps."""
    den = 1
    for row in entries:
        for p in row:
            if den % p._den:
                den = math.lcm(den, p._den)
    return den, [
        [{k * (den // p._den): c for k, c in p._terms.items()} for p in row]
        for row in entries
    ]


def divide_exact(p: ExactPoly, q: ExactPoly) -> ExactPoly:
    """Exact division p / q in the Laurent ring; error if q does not divide p."""
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if p.is_zero():
        return _ZERO
    lead_q, lc_q = q.leading_term()
    floor_e = p.trailing_term()[0] - q.trailing_term()[0]
    quot = _ZERO
    rem = p
    while not rem.is_zero():
        e = rem.leading_term()[0] - lead_q
        if e < floor_e:
            raise ArithmeticError("inexact polynomial division")
        c = rem.leading_term()[1] / lc_q
        mono = ExactPoly.t_power(e, c)
        quot = quot + mono
        rem = rem - mono * q
    return quot


# ---------------------------------------------------------------------------
# matrices over ExactPoly


class PolyMatrix:
    """Square matrix of ExactPoly entries.

    No structure is declared: the functions that need one (pfaffian needs
    a skew matrix, tropic.cholesky a symmetric one) check it themselves.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = [list(r) for r in entries]
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise ValueError("matrix must be square")
            for x in r:
                if not isinstance(x, ExactPoly):
                    raise TypeError("entries must be ExactPoly")
        self.entries = rows

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def principal_submatrix(self, rows) -> "PolyMatrix":
        rows = list(rows)
        sub = [[self.entries[i][j] for j in rows] for i in rows]
        return PolyMatrix(sub)

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in row) for row in self.entries)
        return f"PolyMatrix({body})"


def det(m: PolyMatrix) -> ExactPoly:
    """Determinant by fraction-free (Bareiss) elimination with exact division.

    Each row is multiplied by the lcm of its coefficient denominators and by
    t to minus its lowest exponent, so every entry lies in Z[t^(1/D)]; so do
    all the Bareiss intermediates, which are minors.  The elimination runs
    on the integer kernel, and the scale and the shift are undone at the end.
    """
    n = m.n
    if n == 0:
        return _ONE
    den, rows = _common_den(m.entries)
    a = []
    scale = 1
    shift = 0
    for row in rows:
        low = min((k for p in row for k in p), default=None)
        if low is None:
            return _ZERO  # a zero row
        mult = _denominator_lcm(row)
        a.append([
            {k - low: c.numerator * (mult // c.denominator) for k, c in p.items()}
            for p in row
        ])
        scale *= mult
        shift += low
    sign = 1
    prev = {0: 1}
    for k in range(n - 1):
        if not a[k][k]:
            pivot_row = next((r for r in range(k + 1, n) if a[r][k]), None)
            if pivot_row is None:
                # pivot column vanishes below the eliminated block => singular
                return _ZERO
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        row_k = a[k]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = a[i]
            neg_ik = {e: -c for e, c in row_i[k].items()}
            for j in range(k + 1, n):
                num = _zadd(_zmul(pivot, row_i[j]), _zmul(neg_ik, row_k[j]))
                row_i[j] = _zdiv(num, prev)
        prev = pivot
    result = a[n - 1][n - 1]
    return ExactPoly(
        den, {k + shift: Fraction(sign * c, scale) for k, c in result.items()}
    )


def det_permutation(m: PolyMatrix) -> ExactPoly:
    """Determinant as the signed permutation sum; brute oracle for n <= 6."""
    n = m.n
    if n > 6:
        raise ValueError("permutation expansion is for n <= 6")
    total = _ZERO
    for perm in itertools.permutations(range(n)):
        prod = _ONE
        for i, j in enumerate(perm):
            prod = prod * m.entries[i][j]
            if prod.is_zero():
                break
        if prod.is_zero():
            continue
        total = total + (prod if _perm_sign(perm) > 0 else -prod)
    return total


def _perm_sign(perm) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        clen = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def pfaffian(m: PolyMatrix) -> ExactPoly:
    """Pfaffian of a skew matrix of even size.

    Skewness (a zero diagonal and a_ji = -a_ij) is checked first, in one
    pass over the upper triangle.  Expansion along the first remaining
    index: pairing index i1 with the j-th remaining index contributes sign
    (-1)^j; the empty matrix has Pfaffian 1.  The entries are multiplied by
    the lcm L of their coefficient denominators, the expansion runs on the
    integer kernel, and Pf(L A) = L^(n/2) Pf(A) undoes the scale.
    """
    n = m.n
    a = m.entries
    for i in range(n):
        if a[i][i]:
            raise ValueError(f"skew matrix needs zero diagonal at {i}")
        for j in range(i + 1, n):
            if a[i][j] != -a[j][i]:
                raise ValueError(f"not skew at ({i},{j})")
    if n % 2:
        raise ValueError("Pfaffian requires even size")
    den, rows = _common_den(m.entries)
    mult = _denominator_lcm(p for row in rows for p in row)
    entries = [
        [{k: c.numerator * (mult // c.denominator) for k, c in p.items()} for p in row]
        for row in rows
    ]
    memo: dict[frozenset, dict[int, int]] = {}

    def rec(idx: tuple) -> dict[int, int]:
        if not idx:
            return {0: 1}
        key = frozenset(idx)
        hit = memo.get(key)
        if hit is not None:
            return hit
        first, rest = idx[0], idx[1:]
        total: dict[int, int] = {}
        for pos, j in enumerate(rest):
            entry = entries[first][j]
            if not entry:
                continue
            if pos % 2:
                entry = {k: -c for k, c in entry.items()}
            sub = rest[:pos] + rest[pos + 1:]
            total = _zadd(total, _zmul(entry, rec(sub)))
        memo[key] = total
        return total

    scale = mult ** (n // 2)
    return ExactPoly(den, {k: Fraction(c, scale) for k, c in rec(tuple(range(n))).items()})
