"""Exact sparse Laurent polynomials in one indeterminate t, with rational
exponents, plus determinants and Pfaffians of matrices over them.

A polynomial is a finite map {exponent -> coefficient} with rational
exponents and coefficients, stored as integers over two shared positive
denominators: sum c/cden t^(k/den) over a dict {k: c} of nonzero ints.
Both denominators are kept minimal, so equality of polynomials is plain
structural equality.  Everything downstream (distance powers t^d, the
signed forest sums, Schur complements) lives in this ring.

The dict {k: c} is also the format of the integer kernel below (_zadd,
_zmul, _zdiv): ring operations run on the stored maps, and the kernel's
callers hand their results to ExactPoly._make unchanged.  det and pfaffian
turn their PolyMatrix into integer maps once and run _bareiss or
_pfaffian_maps on them; the tree oracles call _bareiss and _sylvester
directly on the tree's integer distances, minors.minor_table on maps it
builds from them and minors.minor_oracle on the form _monomial_kernel
reads off their exponents.  The tree's
Pfaffians run their own expansions (pfaffian._pf_top_down and
_pf_bottom_up), so _pfaffian_maps is the kernel of the reference pfaffian
alone.  Those expansions and minors.minor_formula's DP are each written
once over <<, + and - (and * for the DP), and run on packed ints or on
_Shifted, an integer map with those operators.

The two fraction-free walks of the oracle side, Bareiss elimination
(_bareiss, which computes half of each step on a symmetric matrix) and
the Sylvester walk over principal minors (_sylvester), run on one of two
integer forms of their matrix, chosen from the matrix alone (_kernel,
and _monomial_kernel on a matrix of monomials of coefficient 1).
The packed form evaluates each entry once at t = 2^B (Kronecker
substitution) and runs the walk on Python ints; B, a whole number of
bytes, puts 2^(B - 1) above every coefficient of every minor the walk can
form, bounded by Hadamard's inequality on the unit circle: the square root
of the product of the rows' sums of squared entry 1-norms (r^(r/2) on r
rows of monomials), and each value read is unpacked as signed base-2^B
digits.  The map form runs the same walk on the dicts.  Packing is chosen
when the exponents are >= 0 and dense: the largest one times the word of
the product bound (the product of the rows' 1-norms or r! times that of
their largest entries, r! on monomials), the width the thresholds were
measured at, at most a threshold times the number of distinct exponents:
_DENSE_BITS (96) by default and _TREE_DENSE_BITS (900) for the tree paths
on monomials of tree distances: minors.minor_oracle's Bareiss walk on the
half powers of a distance block, the form of minors.minor_formula's DP
(its edge weights as one row of monomials), and that of pfaffian's
expansions of a skew matrix (its off-diagonal distances as one row of
monomials, pfaffian._pf_form).  A caller that compares minors instead of
reading them asks for them packed at its own B (_packed_values): two such
ints are equal exactly when their maps are, and _top_digit reads the top
term off one.  A matrix of plain ints needs neither: the star check
(metric.star_condition_check) walks its own ints, with _istep and read
the identity.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
import struct
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Tuple


# Python's default limit on int-to-str conversion, so that every value the
# reader accepts can be printed; a constant, not sys.get_int_max_str_digits(),
# which PYTHONINTMAXSTRDIGITS would move
_MAX_DIGITS = 4300


def _as_fraction(x) -> Fraction:
    """x as a Fraction: a Fraction as it is, an int exactly, and a str as
    Fraction(x) reads it.  This is the one reader of rationals from text:
    tree files, matrix CSVs, map files and the CLI's rational flags.

    The plain ASCII forms n and n/d are read by int, which refuses more
    than _MAX_DIGITS digits itself; every other token (decimals, exponents,
    underscores, other digits) goes to Fraction, so both accept and refuse
    the same tokens with the same exception types.  Fraction builds 10^e
    in full before anything checks its size, so a decimal is first sized
    from its digits and exponent: a ValueError refuses one whose unreduced
    numerator or denominator would have more than _MAX_DIGITS digits (a
    zero mantissa counting as one digit, as 10^e is built all the same)."""
    if isinstance(x, str):  # first: isinstance of a str against Fraction, an ABC, is slow
        num, slash, den = x.partition("/")
        digits = num[1:] if num[:1] in ("+", "-") else num
        if x.isascii() and digits.isdigit() and (not slash or den.isdigit()):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        mantissa, e, exponent = x.lower().partition("e")
        try:
            shift = int(exponent) if e else 0
        except ValueError:  # not a decimal exponent: Fraction refuses the token
            return Fraction(x)
        whole, _, decimals = mantissa.strip().lstrip("+-").replace("_", "").partition(".")
        top = max(len((whole + decimals).lstrip("0")), 1) + max(shift, 0)
        bottom = 1 + len(decimals) + max(-shift, 0)
        if max(top, bottom) > _MAX_DIGITS:
            raise ValueError(f"{x!r} is a rational of more than {_MAX_DIGITS} digits")
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
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
        """Terms by decreasing exponent, each coefficient and exponent in
        lowest terms: c/cden and k/den reduced by their gcd, as Fraction
        would print them."""
        if not self._terms:
            return "0"
        den, cden = self._den, self._cden
        parts = []
        for k in sorted(self._terms, reverse=True):
            c = self._terms[k]
            g = math.gcd(c, cden)
            coeff = str(abs(c) // g) if g == cden else f"({abs(c) // g}/{cden // g})"
            if k:
                g = math.gcd(k, den)
                e = str(k // g) if g == den else f"{k // g}/{den // g}"
                tpart = "t" if e == "1" else f"t^{e}" if e.isdigit() else f"t^({e})"
                body = tpart if coeff == "1" else f"{coeff}*{tpart}"
            else:
                body = coeff
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"ExactPoly({self})"


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


def _zmul(p: dict[int, int], q: dict[int, int], into: type = dict) -> dict[int, int]:
    """The product of two maps, built as an `into` (a dict or a subclass),
    the shorter map on the outer loop."""
    if len(p) > len(q):
        p, q = q, p
    out = into()
    get = out.get
    for kp, vp in p.items():
        for kq, vq in q.items():
            k = kp + kq
            out[k] = get(k, 0) + vp * vq
    for k in [k for k, v in out.items() if not v]:
        del out[k]
    return out


class _Shifted(dict):
    """An integer map {k: c}, sum c t^k, with the operations that tree
    recursions apply to a packed int: << d adds d to every exponent, +, -
    and * add, subtract and multiply maps (* by _zmul), unary - negates,
    and the int 0 that a sum starts from is the zero (0 + m is m).  So one
    loop runs on either form (pfaffian's expansions, minors.minor_formula);
    a map grows with its terms, not with its top exponent."""

    __slots__ = ()

    def __lshift__(self, d: int) -> _Shifted:
        return _Shifted({k + d: c for k, c in self.items()})

    def __radd__(self, zero: int) -> _Shifted:
        return self

    def __neg__(self) -> _Shifted:
        return _Shifted({k: -c for k, c in self.items()})

    def __add__(self, other: _Shifted) -> _Shifted:
        out = _Shifted(self)
        get = out.get
        for k, c in other.items():
            c += get(k, 0)
            if c:
                out[k] = c
            else:
                del out[k]
        return out

    def __sub__(self, other: _Shifted) -> _Shifted:
        out = _Shifted(self)
        get = out.get
        for k, c in other.items():
            c = get(k, 0) - c
            if c:
                out[k] = c
            else:
                del out[k]
        return out

    def __mul__(self, other: _Shifted) -> _Shifted:
        return _zmul(self, other, _Shifted)


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

    No structure is declared: a function that needs one (pfaffian needs a
    skew matrix) checks it itself.
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
    """Determinant by fraction-free (Bareiss) elimination, `_bareiss`, on
    the integer maps of `_integer_rows` in the form `_kernel` chooses for
    them: packed ints at t = 2^B, 2^(B - 1) above every coefficient of
    every minor (`_word_bits`), when the exponents' top times the product
    bound's word is at most _DENSE_BITS per distinct exponent, and the maps
    themselves otherwise.
    When those rows are symmetric (a symmetric m whose rows need no scale
    or shift, as build_matrix's), the walk computes half of each step."""
    a, den, scale, shift = _integer_rows(m)
    d = _bareiss(_kernel(a, len(a)))
    return ExactPoly._make(den, scale, {k + shift: c for k, c in d.items()})


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


# ---------------------------------------------------------------------------
# the two fraction-free walks, each written once over a _Form: the entries of
# an integer matrix, the unit, the step (a b - c d) / p, an exact division,
# and read, which turns a value into what the walk reports: a map {k: c} in
# the packed and map forms, the value itself on a matrix of plain ints.  A
# value is true when it is nonzero, in every form.


class _Form(NamedTuple):
    rows: list[list]
    one: object
    step: Callable
    read: Callable


def _bareiss(form: _Form) -> dict[int, int]:
    """det of form's matrix as a map, by Bareiss elimination: after step k
    each entry (i, j) below and right of the pivot is the minor on rows
    0..k, i and columns 0..k, j, so every value is a minor of the matrix.
    At a zero pivot a lower row that is nonzero in its column is exchanged
    up, which flips the determinant's sign; when there is none it is 0.

    On a symmetric matrix that block stays symmetric (Sylvester's identity:
    rows and columns enter each minor alike), so a step computes only the
    entries with j >= i and writes each to (j, i) as well, about n^3/6
    steps in place of n^3/3.  The mirror keeps column k below the pivot
    current for the zero-pivot search; a row exchange breaks the symmetry,
    and the walk goes on over full rows."""
    a = [list(row) for row in form.rows]
    step = form.step
    n = len(a)
    symmetric = all(a[i][j] == a[j][i] for i in range(n) for j in range(i))
    sign = 1
    prev = form.one
    for k in range(n - 1):
        if not a[k][k]:
            r = next((r for r in range(k + 1, n) if a[r][k]), None)
            if r is None:
                return {}
            a[k], a[r] = a[r], a[k]
            sign = -sign
            symmetric = False
        row_k = a[k]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = a[i]
            ik = row_i[k]
            if symmetric:
                for j in range(i, n):
                    row_i[j] = a[j][i] = step(pivot, row_i[j], ik, row_k[j], prev)
            else:
                for j in range(k + 1, n):
                    row_i[j] = step(pivot, row_i[j], ik, row_k[j], prev)
        prev = pivot
    last = form.read(a[-1][-1]) if a else {0: 1}
    return {k: sign * c for k, c in last.items()} if sign < 0 else last


def _sylvester(form: _Form, labels: Sequence, max_size: int) -> dict[tuple, object]:
    """det m[S] over the sets S of 1..max_size rows of form's symmetric
    matrix m, as form.read gives them, keyed by the tuple of S's labels in
    row order.

    The walk adds rows depth-first in index order and carries p = det m[S]
    and the fraction-free Schur complement B_ij = det m[S+i, S+j] for i, j
    after max S, so every value is a minor of m.  A child S+k has det
    B_kk, and by Sylvester's determinant identity
    B'_ij = (B_kk B_ij - B_ik B_kj) / p, an exact division.  Below a set S
    with det m[S] = 0 the walk still records each S+k but builds nothing
    under it, so the sets that extend S by two or more rows after max S are
    missing.
    """
    step, read = form.step, form.read
    n = len(form.rows)
    table: dict[tuple, object] = {}

    def grow(S, p, B, start):
        # B[i][j] for start <= i <= j; a child whose own children are the
        # last level, or that has none, needs only their diagonal
        for k in range(start, n):
            bk = B[k]
            pk = bk[k]
            key = S + (labels[k],)
            table[key] = read(pk)
            size = len(key)
            if size >= max_size or k == n - 1 or not p:
                continue
            diagonal_only = size + 1 == max_size or not pk
            child = [None] * n
            for i in range(k + 1, n):
                bki = bk[i]
                bi = B[i]
                out = [None] * n
                for j in (i,) if diagonal_only else range(i, n):
                    out[j] = step(pk, bi[j], bki, bk[j], p)
                child[i] = out
            grow(key, pk, child, k + 1)

    if max_size >= 1:
        grow((), form.one, form.rows, 0)
    del grow  # break the closure's cycle through itself: the tables go on return
    return table


# The packed form pays when the entries' exponents fill most of their span:
# then a product or quotient of packed ints does the work of a dense
# convolution in C, while the maps multiply and divide term by term in
# Python.  Both costs grow with the square of the operands' sizes, the
# packed one in bits (top exponent times B), the map one in terms.  On
# distance matrices of trees, packing wins below about this many bits per
# distinct exponent of the entries and loses above it.
_DENSE_BITS = 96
# The tree paths on monomials of tree distances pack up to this many bits
# per distinct exponent; their exponents are few and small.  Three readers:
# minors.minor_oracle's Bareiss walk on the half powers of a distance block
# (minors._half_powers), judged at the product bound's word, r! on r rows of
# monomials, as _kernel judges them (_monomial_kernel),
# minors.minor_formula's DP on the spanned edges' integer weights as one row
# of monomials at the B of minor_formula_table's carried bound, and
# pfaffian._pf_form on the off-diagonal distances of a skew matrix as one
# row of monomials at B = pfaffian.pf_bits.  Rational leaf sets (den 12, ratios
# 109-270 on the leaves of random 30-vertex trees, at most 324 on the
# minor-large items of four seeds) pack, and both walks win there: the
# leaves of random_tree(30, seed=7) took 105 against 2,782 ms in the oracle
# and 1.4 against 5.1 ms in the formula, forced packed against forced maps
# (Python 3.11, one 2-vCPU VM).  The formula packed 2.2-3.7x faster at den
# 60-120 (ratios 79-135) and 1.4x at den 240 (270), and 4.3x slower at den
# 2,310 (2,530).  The 9-leaf stars with one edge 1/p read 8 p in both, so
# both pack up to p = 101 and keep p = 199 and 997 on the maps; packed,
# the formula wins 1.4x at p = 53 and loses from p = 71 (1.1x) to p = 101
# (1.9x), and the oracle loses 2.2-6.4x.  All vertices of random unit and
# rational trees (n 2-22, 60 seeds each) read 8-169 on the skew matrices
# and pack.  On 60 shuffled tuples of all k = 10 and 14 vertices of random
# trees with every other edge 1/p, p = 1 to 9,973, the top-down expansion
# on packed ints won 1.2-6x against the shifted maps at every ratio up to
# 1,366 and 1.1-1.5x at 1,606-2,336 (k = 10); the two were within 1.1x at
# 1,230, 1,555 and 2,106, and the maps won 1.3-1.4x at 2,030-3,500,
# 1.7-2.1x at 3,040-5,804 and 2.7-26x from 5,041 up.  So this threshold
# packs no measured skew matrix that the maps expand faster, and keeps
# some from 900 to 1,366 on the maps that pack up to 1.6x faster.
_TREE_DENSE_BITS = 900


def _kernel(m: list[list[dict[int, int]]], size: int) -> _Form:
    """The form for a walk over m's minors of at most `size` rows, chosen
    from m alone: packed at B = `_word_bits` when m is dense (`_dense`),
    the maps otherwise.  The thresholds were measured at the word of the
    product bound (`_coefficient_bounds`), so density is judged at that
    word, and the packed ints run at Hadamard's."""
    bound, judged = _coefficient_bounds(m, size)
    if _dense(m, _word_for(judged)):
        return _packed(m, _word_for(bound))
    return _maps(m)


def _monomial_kernel(e: list[list[int]]) -> _Form:
    """What `_kernel(m, len(m))` gives at _TREE_DENSE_BITS on the monomials
    m_ij = {e_ij: 1}, exponents e_ij >= 0, read off the exponents alone.
    Every entry's 1-norm is 1, so on r rows Hadamard's bound is
    isqrt(r^r), the product bound min(r^r, r! 1) = r!, and `_dense` reads
    only the largest exponent and the number of distinct ones.  Packed, the
    entries are 1 << B e_ij; the maps are built only when they are
    chosen."""
    r = len(e)
    exponents = set(itertools.chain.from_iterable(e))
    judged = _word_for(math.factorial(r))
    if max(exponents, default=0) * judged > _TREE_DENSE_BITS * len(exponents):
        return _maps([[{k: 1} for k in row] for row in e])
    bits = _word_for(math.isqrt(r ** r))
    power = {k: 1 << bits * k for k in exponents}
    rows = [list(map(power.__getitem__, row)) for row in e]
    return _Form(rows, 1, _istep, functools.partial(_unpack, bits))


def _packed_values(m: list[list[dict[int, int]]], size: int, bits: int) -> _Form:
    """A form for a walk over m's minors of at most `size` rows, exponents
    >= 0, whose read gives each value packed at t = 2^bits, 2^(bits - 1)
    above every coefficient of every such minor (bits at least
    `_word_bits`): the packed form at bits, each value read as it is, when
    m is dense at bits, and the map form, each value read once into its
    packed int, otherwise.  Two values are then equal exactly when their
    ints are."""
    if bits < _word_bits(m, size):
        raise ValueError(f"{bits} bits do not hold the minors on {size} rows")
    if _dense(m, bits):
        return _packed(m, bits)._replace(read=int)
    return _maps(m)._replace(read=functools.partial(_pack, bits))


def _dense(m: list[list[dict[int, int]]], bits: int, dense_bits: int = _DENSE_BITS) -> bool:
    """Whether packing m at bits pays: every exponent >= 0, and the largest
    one times bits at most dense_bits times the number of distinct ones."""
    exponents = {k for row in m for p in row for k in p}
    return min(exponents, default=0) >= 0 and (
        max(exponents, default=0) * bits <= dense_bits * len(exponents)
    )


_WORD_CODES = {8: "b", 16: "h", 32: "i", 64: "q"}  # struct's signed words


def _word_bits(m: list[list[dict[int, int]]], size: int) -> int:
    """B for packing m: 2^(B - 1) exceeds every coefficient of every minor
    of m on at most `size` rows, by the Hadamard bound of
    `_coefficient_bounds`; on a matrix of monomials t^(d_ij) that bound is
    size^(size/2).  B is rounded up to whole bytes (`_word_for`)."""
    return _word_for(_coefficient_bounds(m, size)[0])


def _coefficient_bounds(m: list[list[dict[int, int]]], size: int) -> tuple[int, int]:
    """(bound, judged): two bounds on the coefficients of every minor of
    m on at most `size` rows, from one pass over the rows.  With w_ij the
    1-norm of entry (i, j) and s = min(size, len(m)):

    - bound, Hadamard's: isqrt of the product of the s largest H_i, H_i
      the sum of the s largest w_ij^2 in row i, at least 1;
    - judged, the product bound: the smaller of the product of the s
      largest row 1-norms N_i and s! times the product of the s largest
      row peaks P_i (the largest w_ij), each at least 1.

    bound holds (Goldstein and Graham, SIAM Review 1974): the coefficients
    c_k of a minor M on rows R and columns C, |R| = |C| = r <= s, are
    those of a Laurent polynomial on the unit circle, so by Parseval and
    Hadamard's inequality there,
    c_k^2 <= sum c_k^2 = mean |det M(z)|^2
          <= max prod_{i in R} sum_{j in C} |m_ij(z)|^2
          <= prod_{i in R} sum_{j in C} w_ij^2 <= prod_{i in R} H_i,
    at most the product of the s largest H_i, as each is at least 1; c_k
    is an int, so |c_k| <= bound.

    bound <= judged: H_i <= N_i^2 (a sum of squares of nonnegative ints is
    at most the square of their sum) and H_i <= s P_i^2, and a bound that
    holds row by row holds between the s largest values, so
    bound^2 <= (prod N)^2 and bound^2 <= s^s (prod P)^2 <= (s! prod P)^2,
    since (s!)^2 = prod_{k=1..s} k (s + 1 - k) and each k (s + 1 - k) >= s.
    On an s x s matrix of +-1 with orthogonal rows (Sylvester's Hadamard
    matrices) |det| = s^(s/2) = bound, so bound is tight."""
    size = min(size, len(m))
    norms = []
    peaks = []
    squares = []
    for row in m:
        weights = [sum(map(abs, p.values())) for p in row]
        norms.append(sum(weights) or 1)
        peaks.append(max(weights, default=0) or 1)
        if size < len(weights):
            weights = heapq.nlargest(size, weights)
        squares.append(sum(map(operator.mul, weights, weights)) or 1)
    if size < len(m):
        for bounds in (norms, peaks, squares):
            bounds.sort(reverse=True)
            del bounds[size:]
    judged = min(math.prod(norms), math.factorial(size) * math.prod(peaks))
    return math.isqrt(math.prod(squares)), judged


def _word_for(bound: int) -> int:
    """The least whole number of bytes B, in bits, with 2^(B - 1) > bound:
    8, 16, 24, ...  `_unpack` reads the widths 8, 16, 32 and 64 in one
    struct pass and the others one slice a digit."""
    return -(-(bound.bit_length() + 1) // 8) * 8


def _packed(m: list[list[dict[int, int]]], bits: int) -> _Form:
    """m evaluated at t = s = 2^bits, exponents >= 0.  Evaluation is a ring
    map, so each exact division of the walks stays exact on the ints.  With
    2^(bits - 1) above every coefficient of every minor (`_word_bits`), a
    minor is 0 exactly when its value is, and read recovers its map as the
    signed base-s digits of the value."""
    rows = [[sum(c << (bits * k) for k, c in p.items()) for p in row] for row in m]
    return _Form(rows, 1, _istep, functools.partial(_unpack, bits))


def _pack(bits: int, p: dict[int, int]) -> int:
    """The map p, exponents >= 0, evaluated at t = 2^bits, as `_packed`
    evaluates each entry."""
    return sum(c << (bits * k) for k, c in p.items())


def _maps(m: list[list[dict[int, int]]]) -> _Form:
    """m as it is, on the sparse kernel (_zmul, _zdiv)."""
    return _Form(m, _UNIT, _zstep, dict)


_UNIT = {0: 1}


def _istep(a: int, b: int, c: int, d: int, p: int) -> int:
    """(a b - c d) / p on packed ints."""
    return (a * b - c * d) // p


def _zstep(a: dict, b: dict, c: dict, d: dict, p: dict) -> dict:
    """(a b - c d) / p on integer maps, both products summed into one map."""
    out: dict[int, int] = {}
    get = out.get
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            out[k] = get(k, 0) + va * vb
    for kc, vc in c.items():
        for kd, vd in d.items():
            k = kc + kd
            out[k] = get(k, 0) - vc * vd
    out = {k: v for k, v in out.items() if v}
    return out if p == _UNIT else _zdiv(out, p)


def _unpack(bits: int, v: int) -> dict[int, int]:
    """The map {k: c} with v = sum c 2^(bits k) and every |c| < 2^(bits - 1):
    the two's complement words of v, read as signed, each plus the borrow
    that the word below it lent when it was negative."""
    words = v.bit_length() // bits + 1
    raw = v.to_bytes(words * bits // 8, "little", signed=True)
    code = _WORD_CODES.get(bits)
    if code:
        digits = struct.unpack(f"<{words}{code}", raw)
    else:
        width = bits // 8
        digits = [int.from_bytes(raw[i:i + width], "little", signed=True) for i in range(0, len(raw), width)]
    out = {}
    borrow = 0
    for k, w in enumerate(digits):
        c = w + borrow
        borrow = w < 0
        if c:
            out[k] = c
    return out


def _unpack_even(bits: int, v: int) -> dict[int, int]:
    """The map {2k: c} of a polynomial with even exponents only, packed at
    u = t^2 = 2^bits: `_unpack`'s map with every exponent doubled."""
    return {2 * k: c for k, c in _unpack(bits, v).items()}


def _top_digit(bits: int, v: int) -> tuple[int, int]:
    """(k, c): the top term c t^k of the map `_unpack(bits, v)` reads, v
    nonzero.  Below the top digit c 2^(bits k) the lower digits sum to less
    than 2^(bits k - 1) in absolute value, so k = |v|.bit_length() // bits,
    and c is v / 2^(bits k) rounded to the nearest int, which takes back
    the borrow of a negative digit below a top 1 or the carry of a positive
    one below a top -1."""
    shift = abs(v).bit_length() // bits * bits
    return shift // bits, (v + (1 << shift >> 1)) >> shift


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
    pass over the upper triangle.  The entries are multiplied by the lcm L
    of their coefficient denominators, `_pfaffian_maps` expands them on the
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
    return ExactPoly._make(den, mult ** (n // 2), _pfaffian_maps(entries))


def _pfaffian_maps(entries: list[list[dict[int, int]]]) -> dict[int, int]:
    """Pfaffian of a skew matrix of integer maps of even size, by expansion
    along the first remaining index, memoised on the remaining set: pairing
    index i1 with the j-th remaining index contributes sign (-1)^j, and the
    empty matrix has Pfaffian 1.  Skewness is not checked: only the upper
    triangle is read."""
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

    total = rec(tuple(range(len(entries))))
    del rec  # break the closure's cycle through itself: the memo goes on return
    return total
