"""Exact sparse Laurent polynomials in one indeterminate t, with rational
exponents, plus determinants and Pfaffians of matrices over them.

A polynomial is a finite map {exponent -> coefficient} with rational
exponents and coefficients, stored as integers over two shared positive
denominators: sum c/cden t^(k/den) over a dict {k: c} of nonzero ints.
Both denominators are kept minimal, so equality of polynomials is plain
structural equality.  Everything downstream (distance powers t^d, the
signed forest sums, Schur complements) lives in this ring.

The dict {k: c} is also the format of the integer kernel below (_zadd,
_zmul, _zdiv): ring operations, det and pfaffian run on the stored maps,
and the kernel's callers hand their results to ExactPoly._make unchanged.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Tuple


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
    canonical form: no zero coefficient, gcd(den, *exponents) = 1,
    gcd(cden, *coefficients) = 1, and den = cden = 1 for zero.
    """

    __slots__ = ("_den", "_cden", "_terms")

    def __init__(self, den: int = 1, terms: dict | None = None):
        clean = {}
        for k, v in (terms or {}).items():
            if int(k) != k:
                raise ValueError(f"exponent key {k} is not an integer")
            clean[int(k)] = _as_fraction(v)
        if not isinstance(den, int) or den < 1:
            raise ValueError("exponent denominator must be a positive integer")
        cden = math.lcm(*(c.denominator for c in clean.values()))
        self._den, self._cden, self._terms = _canonical(
            den, cden, {k: c.numerator * (cden // c.denominator) for k, c in clean.items() if c}
        )

    @staticmethod
    def _make(den: int, cden: int, ints: dict[int, int]) -> "ExactPoly":
        """sum ints[k]/cden t^(k/den), from nonzero int coefficients; the
        denominators are reduced here and ints is never mutated."""
        p = object.__new__(ExactPoly)
        p._den, p._cden, p._terms = _canonical(den, cden, ints)
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "ExactPoly":
        return _ZERO

    @staticmethod
    def one() -> "ExactPoly":
        return _ONE

    @staticmethod
    def constant(c) -> "ExactPoly":
        return ExactPoly.t_power(0, c)

    @staticmethod
    def t_power(exponent=1, coeff=1) -> "ExactPoly":
        """The monomial coeff * t^exponent."""
        e = _as_fraction(exponent)
        c = _as_fraction(coeff)
        if c == 0:
            return _ZERO
        return ExactPoly._make(e.denominator, c.denominator, {e.numerator: c.numerator})

    @staticmethod
    def from_terms(pairs: Iterable[Tuple[Fraction, Fraction]]) -> "ExactPoly":
        """Build from (exponent, coefficient) pairs; repeats accumulate."""
        pairs = [(_as_fraction(e), _as_fraction(c)) for e, c in pairs]
        den = math.lcm(*(e.denominator for e, _ in pairs))
        cden = math.lcm(*(c.denominator for _, c in pairs))
        ints: dict[int, int] = {}
        for e, c in pairs:
            k = e.numerator * (den // e.denominator)
            ints[k] = ints.get(k, 0) + c.numerator * (cden // c.denominator)
        return ExactPoly._make(den, cden, {k: c for k, c in ints.items() if c})

    # -- inspection --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[Tuple[Fraction, Fraction]]:
        """Yield (exponent, coefficient) in decreasing exponent order."""
        d, cd = self._den, self._cden
        for k in sorted(self._terms, reverse=True):
            yield Fraction(k, d), Fraction(self._terms[k], cd)

    def leading_term(self) -> Tuple[Fraction, Fraction]:
        """(exponent, coefficient) of the highest-exponent term."""
        if not self._terms:
            raise ValueError("the zero polynomial has no leading term")
        k = max(self._terms)
        return Fraction(k, self._den), Fraction(self._terms[k], self._cden)

    def trailing_term(self) -> Tuple[Fraction, Fraction]:
        if not self._terms:
            raise ValueError("the zero polynomial has no trailing term")
        k = min(self._terms)
        return Fraction(k, self._den), Fraction(self._terms[k], self._cden)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "ExactPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = math.lcm(self._den, other._den)
        cden = math.lcm(self._cden, other._cden)
        return ExactPoly._make(den, cden, _zadd(_over(self, den, cden), _over(other, den, cden)))

    __radd__ = __add__

    def __neg__(self) -> "ExactPoly":
        return ExactPoly._make(self._den, self._cden, {k: -v for k, v in self._terms.items()})

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
        den = math.lcm(self._den, other._den)
        out = _zmul(_over(self, den, self._cden), _over(other, den, other._cden))
        return ExactPoly._make(den, self._cden * other._cden, out)

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
        return (
            self._den == other._den
            and self._cden == other._cden
            and self._terms == other._terms
        )

    def __hash__(self):
        # a constant must hash like the int/Fraction it compares equal to
        if self._terms.keys() <= {0}:
            return hash(Fraction(self._terms.get(0, 0), self._cden))
        return hash((self._den, self._cden, frozenset(self._terms.items())))

    # -- substitution -------------------------------------------------------

    def power_substitute(self, r) -> "ExactPoly":
        """Monomial substitution t -> t^r for a nonzero rational r.

        r = -1 gives the dual polynomial p(1/t), r = 1/2 halves every
        exponent.
        """
        r = _as_fraction(r)
        if r == 0:
            raise ValueError("substitution exponent must be nonzero")
        return ExactPoly.from_terms((e * r, c) for e, c in self.terms())

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


def _canonical(den: int, cden: int, ints: dict[int, int]) -> tuple[int, int, dict[int, int]]:
    """(den, cden, ints) divided through by gcd(den, *keys) and
    gcd(cden, *values); ints holds no zero value."""
    if not ints:
        return 1, 1, {}
    g = den
    for k in ints:
        if g == 1:
            break
        g = math.gcd(g, k)
    h = cden
    for c in ints.values():
        if h == 1:
            break
        h = math.gcd(h, c)
    if g > 1 or h > 1:
        ints = {k // g: c // h for k, c in ints.items()}
    return den // g, cden // h, ints


def _coerce(x):
    if isinstance(x, ExactPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactPoly.constant(x)
    return NotImplemented


def _over(p: ExactPoly, den: int, cden: int, low: int = 0) -> dict[int, int]:
    """p's map over multiples den and cden of its denominators, every
    exponent numerator lowered by low."""
    fe, fc = den // p._den, cden // p._cden
    if fe == fc == 1 and not low:
        return p._terms
    return {k * fe - low: c * fc for k, c in p._terms.items()}


_ZERO = ExactPoly._make(1, 1, {})
_ONE = ExactPoly._make(1, 1, {0: 1})


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


def divide_exact(p: ExactPoly, q: ExactPoly) -> ExactPoly:
    """Exact division p / q in the Laurent ring; error if q does not divide p.

    Runs on the integer kernel: q's map is divided by its content g, and by
    Gauss's lemma the primitive map divides p's with integer coefficients
    whenever q divides p.  The quotient is scaled by q's coefficient
    denominator over p's times g.
    """
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if p.is_zero():
        return _ZERO
    den = math.lcm(p._den, q._den)
    g = math.gcd(*q._terms.values())
    primitive = {k: c // g for k, c in _over(q, den, q._cden).items()}
    quot = _zdiv(_over(p, den, p._cden), primitive)
    return ExactPoly._make(den, p._cden * g, {k: c * q._cden for k, c in quot.items()})


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
    """Determinant by fraction-free (Bareiss) elimination with exact
    division, on the integer kernel over the scale of `_integer_rows`.  At
    a zero pivot a lower row that is nonzero in its column is exchanged up,
    negated so that the determinant is kept; when there is none det m = 0."""
    a, den, scale, shift = _integer_rows(m)
    n = len(a)
    prev = {0: 1}
    for k in range(n - 1):
        if not a[k][k]:
            r = next((r for r in range(k + 1, n) if a[r][k]), None)
            if r is None:
                return _ZERO
            a[k], a[r] = [{e: -c for e, c in p.items()} for p in a[r]], a[k]
        row_k = a[k]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = a[i]
            neg_ik = {e: -c for e, c in row_i[k].items()}
            for j in range(k + 1, n):
                num = _zadd(_zmul(pivot, row_i[j]), _zmul(neg_ik, row_k[j]))
                row_i[j] = _zdiv(num, prev)
        prev = pivot
    last = a[-1][-1] if a else {0: 1}
    return ExactPoly._make(den, scale, {k + shift: c for k, c in last.items()})


def _integer_rows(m: PolyMatrix) -> tuple[list[list[dict[int, int]]], int, int, int]:
    """(a, den, scale, shift) with det m = det a * t^(shift/den) / scale:
    each row times the lcm of its entries' coefficient denominators and t
    to minus its lowest exponent, so every entry, and every Bareiss
    intermediate (a minor), lies in Z[t^(1/den)]."""
    den = math.lcm(*(p._den for row in m.entries for p in row))
    a = []
    scale = 1
    shift = 0
    for row in m.entries:
        low = min((min(p._terms) * (den // p._den) for p in row if p), default=0)
        mult = math.lcm(*(p._cden for p in row))
        a.append([_over(p, den, mult, low) for p in row])
        scale *= mult
        shift += low
    return a, den, scale, shift


def _principal_minors(
    m: list[list[dict[int, int]]], labels: Sequence, max_size: int
) -> dict[tuple, dict[int, int]]:
    """det m[S] over the sets S of 1..max_size rows of a symmetric matrix
    of integer maps, keyed by the tuple of S's labels in row order.

    The walk adds rows depth-first in index order and carries p = det m[S]
    and the fraction-free Schur complement B_ij = det m[S+i, S+j] for i, j
    after max S.  A child S+k has det B_kk, and by Sylvester's determinant
    identity B'_ij = (B_kk B_ij - B_ik B_kj) / p, an exact division.  Below
    a set S with det m[S] = 0 the walk still records each S+k but builds
    nothing under it, so the sets that extend S by two or more rows after
    max S are missing.
    """
    n = len(m)
    table: dict[tuple, dict[int, int]] = {}

    def grow(S, p, B, start):
        # B[i][j] for start <= i <= j; a child whose own children are the
        # last level, or that has none, needs only their diagonal
        for k in range(start, n):
            bk = B[k]
            pk = bk[k]
            key = S + (labels[k],)
            table[key] = pk
            size = len(key)
            if size >= max_size or k == n - 1 or not p:
                continue
            diagonal_only = size + 1 == max_size or not pk
            child = [None] * n
            for i in range(k + 1, n):
                neg_ki = {e: -c for e, c in bk[i].items()}
                bi = B[i]
                out = [None] * n
                for j in (i,) if diagonal_only else range(i, n):
                    num = _zadd(_zmul(pk, bi[j]), _zmul(neg_ki, bk[j]))
                    out[j] = _zdiv(num, p) if S else num
                child[i] = out
            grow(key, pk, child, k + 1)

    if max_size >= 1:
        grow((), {0: 1}, m, 0)
    del grow  # break the closure's cycle through itself: the tables go on return
    return table


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
    integer kernel, and Pf(L A) = L^(n/2) Pf(A) gives the result's
    coefficient denominator.
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
    den = math.lcm(*(p._den for row in a for p in row))
    mult = math.lcm(*(p._cden for row in a for p in row))
    entries = [[_over(p, den, mult) for p in row] for row in a]
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

    total = rec(tuple(range(n)))
    del rec  # break the closure's cycle through itself: the memo goes on return
    return ExactPoly._make(den, mult ** (n // 2), total)
