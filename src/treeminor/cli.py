"""Command-line frontend: tree generation, single computations, and
verification sweeps with machine-readable reports.

Exit codes: 0 when everything succeeded or verified; 1 when a verification
found a counterexample; 2 on usage or input errors.  A failing sweep row
carries a certificate (tree text, X, values).  A `minor-verify` certificate
replays with `minor`, a `pf-verify` one with `pfaffian`: each pair decides
with the same check, so the replay exits 1 too.  A `cycles-verify`
certificate lists all three values instead (no single-instance subcommand).

Sweeps take --trees >= 1, --n >= 2, --jobs >= 1 and --negatives >= 0;
--max-x >= 1 (at most the enumeration cap) for cycles-verify, >= 0 for
minor-verify (0: no cap).  Every exponential path counts its work from its
arguments and exits 2 above its bound before any work; each subcommand's
--help states its bound.

All randomness flows from --seed; sweep workers derive per-tree sub-seeds
deterministically, so reports are identical across runs and across --jobs
settings (rows are reduced in canonical order).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb, factorial

from .cyclekernel import ENUMERATION_CAP, cycle_sums, cycle_table
from .matroid import (
    ValuatedFn,
    _block_products,
    _rooted_ground,
    _rooted_maps,
    _spread,
    _value_pair,
    check_delta_matroid,
    check_valuated_matroid,
    k_dissimilarity,
    odd_dissimilarity,
    rooted_k_dissimilarity,
    verify_rooted_representation,
)
from .metric import (
    MINUS_INF,
    NotTreeMetricError,
    _dissimilarity,
    _potential_split,
    _realize,
    check_4pc,
    format_matrix_csv,
    hpp_eigen_check,
    parse_matrix_csv,
    realize_tree,
    spectral_signature,
)
from .minors import (
    _formula_norm_bound,
    minor_formula,
    minor_formula_table,
    minor_leading,
    minor_leading_table,
    minor_oracle,
    minor_table,
    signature,
)
from .pfaffian import (
    NotNicelyOrderedError,
    _pf_form,
    _pf_top_down,
    pf_formula,
    pf_formula_table,
    pf_oracle,
    pf_table,
)
from .poly import ExactPoly, _as_fraction, _top_digit, _unpack_even, _word_for
from .tree import Tree, format_tree, random_tree, read_tree_file

_SEED_STRIDE = 1_000_003  # tree index -> sub-seed, documented and fixed
# subsets one tree of minor-verify or pf-verify may check: each sweep holds
# a table of that many packed values, built in about n 2^n products.  It also
# bounds the cycle partitions of one cycles-verify tree, the values of one
# dissimilarity map and the even subsets one represent-odd run checks.
_MAX_SUBSETS = 1 << 16
# the cost one represent-rooted run may have, by _check_rooted_size's model
_MAX_ROOTED_COST = 10**9
# steps one check-matroid scan may take, by _exchange_steps
_MAX_EXCHANGE_STEPS = 5 * 10**6
# steps _exchange_steps counts for one pair of support sets before any swap:
# the scan spends about four swaps' time on a pair's set differences
_PAIR_STEPS = 4
# subsets one tree of a minor-verify sweep with rational weights may check:
# the table's polynomials grow with |X| there, and a full 13-vertex sweep
# (8,191 subsets, --seed 27) takes 3-3.5 s and 67 MB peak RSS on a 2-vCPU VM
# with Python 3.11, start-up included (11-15 s and 110 MB with its minors
# packed at t^(1/den), where minor_table's walk stayed on the maps)
_MAX_RATIONAL_SUBSETS = 1 << 13


class CliError(Exception):
    """Usage-level problem: reported on stderr, exit code 2."""


# ---------------------------------------------------------------------------
# report plumbing


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (frozenset, set)):
        return sorted(_jsonable(v) for v in x)
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, int):
        return x
    if x == MINUS_INF:
        return "-inf"
    return str(x)


def _text_lines(x, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(x, dict):
        for k, v in x.items():
            if isinstance(v, str) and "\n" in v:
                lines.append(f"{pad}{k}:")
                lines.extend(
                    f"{pad}  {ln}" for ln in v.rstrip("\n").split("\n")
                )
            elif isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar_text(v)}")
    elif isinstance(x, list):
        for v in x:
            if isinstance(v, dict):
                body = _text_lines(v, indent + 1)
                if body:
                    lines.append(f"{pad}- {body[0].strip()}")
                    lines.extend(body[1:])
            else:
                lines.append(f"{pad}- {_scalar_text(v)}")
    else:
        lines.append(f"{pad}{_scalar_text(x)}")
    return lines


def _scalar_text(v):
    if isinstance(v, list):
        return "[" + ", ".join(str(u) for u in v) + "]"
    if v is None:
        return "-"
    return str(v)


def emit(report: dict, fmt: str) -> None:
    """Print report in fmt.  The reader bounds every number it accepts
    (poly._MAX_DIGITS), but a value computed from accepted ones, twice a
    weight or the sum of two, may pass Python's int-to-str limit (on
    interpreters that have one): the limit is lifted while the report
    prints and restored afterwards."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int() = 0: no limit
    set_limit = getattr(sys, "set_int_max_str_digits", int)
    set_limit(0)
    try:
        report = _jsonable(report)
        if fmt == "json":
            print(json.dumps(report, indent=2, sort_keys=True))
            return
        if fmt == "csv":
            out = io.StringIO()
            writer = csv.writer(out, lineterminator="\n")
            rows = report.get("rows")
            if isinstance(rows, list) and rows and all(isinstance(r, dict) for r in rows):
                header = sorted({k for r in rows for k in r})
                writer.writerow(header)
                for r in rows:
                    writer.writerow([_scalar_text(r.get(k)) for k in header])
            else:
                for k in sorted(report):
                    if k == "raw":
                        continue
                    writer.writerow([k, _scalar_text(report[k])])
            sys.stdout.write(out.getvalue())
            return
        # text; a "raw" payload (e.g. a tree file) replaces the field dump so it
        # can be piped straight into a file
        raw = report.pop("raw", None)
        if raw is not None:
            sys.stdout.write(raw)
            return
        print("\n".join(_text_lines(report)))
    finally:
        set_limit(limit)


# ---------------------------------------------------------------------------
# shared argument handling


def _parse_labels(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(" ", "").split(",") if tok != ""]
    except ValueError:
        raise CliError(f"expected comma-separated integer labels, got {text!r}")


def _parse_fraction(text: str) -> Fraction:
    try:
        return _as_fraction(text)
    except ZeroDivisionError:
        raise CliError(f"zero denominator in {text!r}")


def _parse_fractions(text: str) -> list[Fraction]:
    try:
        return [
            _parse_fraction(tok) for tok in text.replace(" ", "").split(",") if tok != ""
        ]
    except ValueError:
        raise CliError(f"expected comma-separated rationals, got {text!r}")


def _load_tree(args) -> tuple[Tree, str]:
    """Exactly one tree source: --tree FILE or --n SIZE (with --seed and
    --weights).  Returns the tree and its file-format text."""
    has_file = getattr(args, "tree", None) is not None
    has_n = getattr(args, "n", None) is not None
    if has_file == has_n:
        raise CliError("pass exactly one tree source: --tree FILE or --n SIZE")
    if has_file:
        T = read_tree_file(args.tree)
    else:
        T = random_tree(args.n, seed=args.seed, weights=args.weights)
    return T, format_tree(T)


def _read_matrix(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix_csv(fh.read())


def _leading_dict(poly) -> dict:
    e, c = poly.leading_term()
    return {"exp": e, "coeff": c}


def _violation_dict(v) -> dict:
    return {"quadruple": list(v.quadruple), "sums": list(v.sums), "text": str(v)}


def _exchange_dict(v) -> dict:
    return {
        "axiom": v.axiom,
        "X": list(v.X),
        "Y": list(v.Y),
        "pivot": v.pivot,
        "lhs": v.lhs,
        "best": v.best,
        "text": str(v),
    }


def _run_tasks(worker, tasks, jobs: int) -> list[dict]:
    if jobs <= 1 or len(tasks) <= 1:
        rows = [worker(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            rows = list(pool.map(worker, tasks))
    return sorted(rows, key=lambda r: r["tree_index"])


def _weight_mode(mode: str, index: int) -> str:
    if mode == "both":
        return "unit" if index % 2 == 0 else "rational"
    return mode


# ---------------------------------------------------------------------------
# subcommand handlers (each returns (exit_code, report))


def cmd_tree_gen(args):
    T = random_tree(args.n, seed=args.seed, weights=args.weights)
    text = format_tree(T)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        return 0, {"written": args.out, "n": T.n}
    return 0, {
        "n": T.n,
        "edges": [[u, v, w] for u, v, w in T.edges()],
        "raw": text,
    }


def cmd_minor(args):
    T, text = _load_tree(args)
    X = _parse_labels(args.X)
    equal, values = _minor_check(T, X)
    report = {
        "tree": text,
        "X": X,
        **values,
        "equal": equal,
        "leading": _leading_dict(values["formula"]),
    }
    return (0 if equal else 1), report


def _over_pfaffian_bound(k: int) -> bool:
    """Would the memoised expansion in pf_oracle of k labels visit more than
    _MAX_SUBSETS sets?  It visits F(k + 1) - 1, F(1) = F(2) = 1 (28,656 at
    k = 22, 75,024 at 24), on the packed ints as on the maps (counted for
    k = 2..16); the terms stop once over the bound."""
    a, b = 1, 1
    for _ in range(k - 1):
        a, b = b, a + b
        if b - 1 > _MAX_SUBSETS:
            return True
    return False


def cmd_pfaffian(args):
    T, text = _load_tree(args)
    X = _parse_labels(args.X)
    if _over_pfaffian_bound(len(X)):
        raise CliError(
            f"pfaffian would expand more than {_MAX_SUBSETS} sets at |X| = {len(X)}"
        )
    try:
        equal, values = _pf_check(T, X)
    except NotNicelyOrderedError as exc:
        nice = T.nice_order(X)
        raise CliError(
            f"{exc}; a nice order of these vertices is {','.join(map(str, nice))}"
        )
    report = {
        "tree": text,
        "X": X,
        **values,
        "equal": equal,
        "leading": _leading_dict(values["pfaffian"]),
    }
    return (0 if equal else 1), report


# ---------------------------------------------------------------------------
# verification sweeps: one worker and one handler serve minor-verify,
# pf-verify and cycles-verify.  A sweep is a per-tree builder
# T -> (subset walk, check X -> (ok, values)) and, for pf-verify, a pass over
# negative orders.  Each sweep reads its formula values off one table per
# tree, and its oracle values (the cycle sums for cycles-verify) off
# another: the minor and cycle tables packed at u = t^(2/T._den) = 2^B for
# one B the sweep picks, the Pfaffian table in the form pfaffian._pf_form
# picks against the monomial's exponent (_pf_misses).  A subset that fails
# against them is read back and decided again by the check its certificate
# replays with (`minor`, `pfaffian`; cycles-verify has none).


def _minor_check(T, X):
    formula = minor_formula(T, X)
    oracle = minor_oracle(T, X)
    lead = minor_leading(T, X)
    ok = formula == oracle and lead == oracle.leading_term()
    return ok, {"formula": formula, "oracle": oracle}


def _pf_check(T, X):
    formula = pf_formula(T, X)
    oracle = pf_oracle(T, X)
    return formula == oracle, {"pfaffian": formula, "oracle": oracle}


def _cycles_check(T, X):
    full, tight = cycle_sums(T, X)
    formula = minor_formula(T, X)
    ok = full == tight == formula
    return ok, {"all_cycles": full, "tight_cycles": tight, "formula": formula}


def _redecide(check, T, X, **entries):
    """X failed against the tables: decide it with the single-instance check,
    whose values the certificate carries.  entries maps a certificate field
    (`table` for the oracle or cycle table, `formula_table`) to the table's
    entry and the name of the check's value it stands for, or a tuple of
    entries and the tuple of their names.  If the check passes, a table is
    at fault, and the certificate carries each entry that differs from the
    check's value under its field."""
    ok, values = check(T, X)
    if ok:
        for field, (entry, name) in entries.items():
            want = tuple(values[n] for n in name) if isinstance(name, tuple) else values[name]
            if entry != want:
                values[field] = entry
    return False, values


def _subsets(T, max_x):
    """Every subset of size 1..max_x, in combination order."""
    for r in range(1, min(T.n, max_x) + 1):
        yield from combinations(T.vertices, r)


def _minor_bits(T, max_x) -> int:
    """B for comparing minors at u = t^(2/T._den) = 2^B: 2^(B - 1) above
    r! for r = min(max_x, n), which bounds every coefficient of a minor on
    r rows of a matrix of monomials t^(d_ij) and of a cycle-partition sum
    over r points, and above every 1-norm bound the formula table carries on
    correct code (_formula_norm_bound)."""
    return _word_for(max(factorial(min(max_x, T.n)), _formula_norm_bound(T)))


def _unpacked(T, bits, value) -> ExactPoly:
    """The polynomial a minor or cycle table value packs at u = t^(2/T._den)
    = 2^bits, its exponents doubled."""
    return ExactPoly._make(T._den, 1, _unpack_even(bits, value))


def _formula_entry(T, bits, value, norm):
    """The certificate's formula-table entry: the polynomial the value
    packs at u = t^(2/T._den), or, when the 1-norm bound carried with it is
    too large for bits, that bound: the value then stands for no one
    polynomial."""
    if norm >> (bits - 1):
        return f"undecided: 1-norm bound {norm} at t^(2/{T._den}) = 2^{bits}"
    return _unpacked(T, bits, value)


def _minor_sweep(T, max_x):
    """Formula against oracle and leading term on every subset up to max_x,
    all three read off tables and compared as ints at u = t^(2/T._den) = 2^B
    (_minor_bits; every exponent of a minor over t^(1/T._den) is even):
    minor_table's packed minors; minor_formula_table, one post-order pass
    over T that carries X in its state (a branch holding no member of X
    passes (1, 0), so the sum may run over all of E(T)), which decides only
    where its carried 1-norm bound is below 2^(B - 1); and
    minor_leading_table, the third path to the top term, against the top
    signed base-2^B digit of the oracle's int.  A failing subset is
    unpacked for its certificate."""
    bits = _minor_bits(T, max_x)
    half = 1 << (bits - 1)
    table = minor_table(T, max_x, bits)
    formula = minor_formula_table(T, max_x, bits)
    lead = minor_leading_table(T, max_x)

    def check(X):
        oracle = table[X]
        value, norm = formula[X]
        if value == oracle and norm < half and lead[X] == _top_digit(bits, oracle):
            return True, None
        return _redecide(
            _minor_check, T, X,
            table=(_unpacked(T, bits, oracle), "oracle"),
            formula_table=(_formula_entry(T, bits, value, norm), "formula"),
        )

    return _subsets(T, max_x), check


def _pf_misses(T, order):
    """The one check of the Pfaffian identity over every even sub-tuple of
    order: pf_table's value, in the form pfaffian._pf_form picks, against
    unit << shift w, w the monomial's exponent from pf_formula_table (None
    where its hop count finds the key not nice: the cyclic tour is nice iff
    the sum of popcount(P_a ^ P_b) over its steps is twice the spanned edge
    count).  A monomial has 1-norm 1, so the two agree exactly when the
    Pfaffian is the monomial.  Returns the exponents, keyed in pf_table's
    order, and each key that fails with its Pfaffian read back."""
    table, unit, shift, read = pf_table(T, order)
    formula = pf_formula_table(T, order)
    return formula, {
        X: ExactPoly._make(T._den, 1, read(value))
        for X, value in table.items()
        if (w := formula[X]) is None or value != unit << shift * w
    }


def _pf_sweep(T, _max_x):
    """The Pfaffian monomial against the Pfaffian on every nonempty even
    subset S, listed as omega|S: the members of S in the order of omega, a
    nice order of all vertices (a depth-first order), whose restrictions
    are nicely ordered too, checked by _pf_misses.  A failing subset's
    certificate carries the Pfaffian read back and the monomial, or "not
    nicely ordered" where the formula table found the key not nice."""
    formula, misses = _pf_misses(T, T.nice_order(T.vertices))

    def check(X):
        if X not in misses:
            return True, None
        w = formula[X]
        entry = "not nicely ordered" if w is None else ExactPoly._make(T._den, 1, {w: 1})
        return _redecide(
            _pf_check, T, X,
            table=(misses[X], "oracle"),
            formula_table=(entry, "pfaffian"),
        )

    return (X for X in formula if X), check


def _cycles_sweep(T, max_x):
    """Both cycle-partition sums against the formula on every subset up to
    max_x, all read off tables at one B (_minor_bits) and compared as ints
    at u = t^(2/T._den) = 2^B: cycle_table's full and tight sums, each of
    1-norm at most |X|!, and minor_formula_table's values, as in
    minor-verify.  A failing subset is unpacked for its certificate."""
    bits = _minor_bits(T, max_x)
    half = 1 << (bits - 1)
    formula = minor_formula_table(T, max_x, bits)
    cycles = cycle_table(T, T.vertices, max_x, bits)

    def check(X):
        value, norm = formula[X]
        full, tight = cycles[X]
        if full == tight == value and norm < half:
            return True, None
        return _redecide(
            _cycles_check, T, X,
            table=((_unpacked(T, bits, full), _unpacked(T, bits, tight)), ("all_cycles", "tight_cycles")),
            formula_table=(_formula_entry(T, bits, value, norm), "formula"),
        )

    return _subsets(T, max_x), check


# subcommand -> per-tree builder of (subset walk, check)
_SWEEPS = {
    "minor-verify": _minor_sweep,
    "pf-verify": _pf_sweep,
    "cycles-verify": _cycles_sweep,
}
# least value of each sweep option; minor-verify takes --max-x 0 as no cap
_SWEEP_LEAST = {"trees": 1, "n": 2, "jobs": 1, "negatives": 0}
_LEAST_MAX_X = {"minor-verify": 0, "cycles-verify": 1}


def _negative_hits(T, rng, negatives: int) -> int:
    """Draw orders that are not nice and count those whose Pfaffian is not
    the plain odd-weight monomial (a non-nice order may still coincide by
    luck; those draws are skipped, not failures).  Both sides are in the
    form pfaffian._pf_form picks, compared as the sweep compares them: the
    Pfaffian from pfaffian._pf_top_down, the monomial unit << shift w."""
    hit = 0
    tried = 0
    while hit < negatives and tried < 50 * max(negatives, 1):
        tried += 1
        r = rng.randrange(2, T.n + 1, 2)
        sub = tuple(rng.sample(T.vertices, r))
        if T.is_nicely_ordered(sub)[0]:
            continue
        rows, unit, shift, _ = _pf_form(T, sub)
        if _pf_top_down(rows, unit) != unit << shift * T._weight_num(T._odd_mask(sub)):
            hit += 1
    return hit


def _sweep_one(task: tuple) -> dict:
    index, subseed, max_n, mode, sweep, max_x, negatives = task
    rng = random.Random(subseed)
    size = rng.randint(2, max_n)
    T = random_tree(size, seed=subseed, weights=mode)
    row = {"tree_index": index, "seed": subseed, "n": size, "weights": mode}
    walk, check = _SWEEPS[sweep](T, max_x)
    checked = 0
    certificate = None
    for X in walk:
        ok, values = check(X)
        if not ok:
            certificate = {"tree": format_tree(T), "X": list(X), **values}
            break
        checked += 1
    row["checked"] = checked
    if negatives is not None:
        row["negatives"] = _negative_hits(T, rng, negatives) if certificate is None else 0
    row["ok"] = certificate is None
    if certificate is not None:
        row["certificate"] = certificate
    return row


def _over_subset_bound(sub: str, n: int, max_x: int, bound: int) -> bool:
    """Would one tree of n vertices give a sweep more than `bound` subsets
    to check, or, for cycles-verify, more than `bound` cycle partitions (r!
    for each subset of size r)?  Terms are added in increasing size and the
    sum stops once over the bound, so a huge --n costs a few terms."""
    sizes = range(2, n + 1, 2) if sub == "pf-verify" else range(1, min(n, max_x or n) + 1)
    count = 0
    for r in sizes:
        count += comb(n, r) * (factorial(r) if sub == "cycles-verify" else 1)
        if count > bound:
            return True
    return False


def _check_sweep_args(args) -> None:
    least = dict(_SWEEP_LEAST, max_x=_LEAST_MAX_X.get(args.subcommand))
    for name, low in least.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            flag = "--" + name.replace("_", "-")
            raise CliError(f"{flag} must be at least {low}, got {value}")
    if args.subcommand == "cycles-verify" and args.max_x > ENUMERATION_CAP:
        raise CliError(
            f"--max-x {args.max_x} exceeds the enumeration cap {ENUMERATION_CAP}"
        )
    max_x = getattr(args, "max_x", 0)
    bounds = [(_MAX_SUBSETS, "")]
    if args.subcommand == "minor-verify" and args.weights != "unit":
        bounds.append((_MAX_RATIONAL_SUBSETS, " on rational weights"))
    for bound, weights in bounds:
        if _over_subset_bound(args.subcommand, args.n, max_x, bound):
            cap = f" --max-x {max_x}" if max_x else ""
            what = "cycle partitions" if args.subcommand == "cycles-verify" else "subsets"
            raise CliError(
                f"{args.subcommand} would check more than {bound} "
                f"{what} per tree{weights} at --n {args.n}{cap}"
            )


def _cmd_sweep(args):
    _check_sweep_args(args)
    max_x = getattr(args, "max_x", None) or args.n
    negatives = getattr(args, "negatives", None)
    tasks = [
        (
            i,
            args.seed * _SEED_STRIDE + i,
            args.n,
            _weight_mode(args.weights, i),
            args.subcommand,
            max_x,
            negatives,
        )
        for i in range(args.trees)
    ]
    rows = _run_tasks(_sweep_one, tasks, args.jobs)
    bad = [r for r in rows if not r["ok"]]
    report = {
        "subcommand": args.subcommand,
        "trees": args.trees,
        "checked": sum(r["checked"] for r in rows),
    }
    if negatives is not None:
        report["negative_checks"] = sum(r["negatives"] for r in rows)
    report["failures"] = len(bad)
    report["rows"] = rows
    return (1 if bad else 0), report


def cmd_check_4pc(args):
    m = _read_matrix(args.matrix)
    bad = check_4pc(m)
    if bad is None:
        return 0, {"ok": True, "n": len(m)}
    return 1, {"ok": False, "n": len(m), "violation": _violation_dict(bad)}


def cmd_realize(args):
    m = _read_matrix(args.matrix)
    try:
        T, placement = realize_tree(m)
    except NotTreeMetricError as exc:
        return 1, {"ok": False, "violation": _violation_dict(exc.violation)}
    return 0, {
        "ok": True,
        "tree": format_tree(T),
        "placement": list(placement),
    }


def cmd_decompose(args):
    m = _read_matrix(args.matrix)
    d, p, reduced = _potential_split(m)
    try:
        T, placement = _realize(*_dissimilarity(*reduced))
    except NotTreeMetricError as exc:
        return 1, {
            "ok": False,
            "violation": _violation_dict(exc.violation),
            "potentials": p,
        }
    except ValueError as exc:  # d is finite, square and symmetric: a negative entry
        return 1, {
            "ok": False,
            "reason": f"potential-reduced part is not a dissimilarity matrix: {exc}",
            "potentials": p,
        }
    return 0, {
        "ok": True,
        "potentials": p,
        "metric_csv": format_matrix_csv(d),
        "tree": format_tree(T),
        "placement": list(placement),
    }


def cmd_signature(args):
    has_matrix = args.matrix is not None
    has_tree = args.tree is not None or args.n is not None
    if has_matrix == has_tree:
        raise CliError("pass exactly one of --matrix FILE or a tree source")
    if has_matrix:
        m = _read_matrix(args.matrix)
        xs = _parse_labels(args.X) if args.X else None
        p, q, z = spectral_signature(m, _parse_fraction(args.tau), xs)
        return 0, {"mode": "matrix", "tau": args.tau, "inertia": [p, q, z]}
    T, text = _load_tree(args)
    X = _parse_labels(args.X) if args.X else list(T.vertices)
    try:
        rep = signature(T, X)
    except ArithmeticError as exc:
        return 1, {"mode": "tree", "ok": False, "reason": str(exc), "tree": text}
    return 0, {
        "mode": "tree",
        "tree": text,
        "X": X,
        "positives": rep.positives,
        "negatives": rep.negatives,
        "rows": [
            {"prefix": m_, "leading_exp": e, "leading_coeff": c}
            for m_, e, c in rep.evidence
        ],
    }


def _even_subsets(ground) -> int:
    """How many even subsets the ground set has, the empty one included."""
    return 1 << max(len(ground) - 1, 0)


def _dissimilarity_values(T, args, ground) -> int:
    """How many values `dissimilarity` would evaluate: the even subsets of
    the ground set for --map odd, its k-subsets for --map k and rooted."""
    if args.map == "odd":
        g = T.vertices if ground is None else T.check_subset(ground)
        return _even_subsets(g)
    if args.map == "rooted":
        g = _rooted_ground(T, args.root, ground)
    else:
        g = T.leaves() if ground is None else T.check_subset(ground)
    return comb(len(g), args.k) if args.k >= 0 else 0


def cmd_dissimilarity(args):
    T, text = _load_tree(args)
    ground = _parse_labels(args.ground) if args.ground else None
    if args.map == "rooted" and args.root is None:
        raise CliError("--map rooted needs --root")
    if _dissimilarity_values(T, args, ground) > _MAX_SUBSETS:
        raise CliError(
            f"dissimilarity --map {args.map} would evaluate more than "
            f"{_MAX_SUBSETS} values; pass a smaller --ground"
        )
    if args.map == "k":
        fn = k_dissimilarity(T, args.k, ground=ground)
    elif args.map == "rooted":
        fn = rooted_k_dissimilarity(T, args.root, args.k, ground=ground)
    else:  # odd
        fn = odd_dissimilarity(T, ground=ground)
    rows = [
        {"set": ",".join(str(x) for x in sorted(s)), "value": v}
        for s, v in fn.items()
    ]
    return 0, {"map": fn.to_json(), "rows": rows, "tree": text}


def _exchange_steps(fn: ValuatedFn, axiom: str) -> int:
    """How many steps check-matroid's scan may take: each of the |supp|^2
    ordered pairs X, Y counts _PAIR_STEPS (the scan's work on a pair before
    any swap) plus up to p (p - 1) swaps for the delta axiom (p = |X ^ Y|,
    at most min(|ground|, 2 max |X|)) and r^2 for the matroid one
    (r = |X - Y|, at most min(max |X|, |ground| - min |X|))."""
    supp = fn.support()
    if not supp:
        return 0
    sizes = {len(s) for s in supp}
    n = len(fn.ground)
    if axiom == "delta":
        p = min(n, 2 * max(sizes))
        swaps = p * (p - 1)
    else:
        swaps = min(max(sizes), n - min(sizes)) ** 2
    return len(supp) ** 2 * (_PAIR_STEPS + swaps)


def cmd_check_matroid(args):
    with open(args.map, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "values" not in data and "map" in data:
        data = data["map"]  # tolerate a full `dissimilarity` report
    try:
        fn = ValuatedFn.from_json(data)
    except (KeyError, ValueError) as exc:
        raise CliError(f"bad map file: {exc}")
    axiom = args.axiom
    if axiom == "auto":
        axiom = "matroid" if fn.k is not None else "delta"
    steps = _exchange_steps(fn, axiom)
    if steps > _MAX_EXCHANGE_STEPS:
        raise CliError(
            f"check-matroid would visit about {steps} pairs and swaps, more than "
            f"{_MAX_EXCHANGE_STEPS}; pass a map with fewer values"
        )
    bad = check_valuated_matroid(fn) if axiom == "matroid" else check_delta_matroid(fn)
    if bad is None:
        return 0, {"ok": True, "axiom": axiom, "support": len(fn.support())}
    return 1, {"ok": False, "axiom": axiom, "violation": _exchange_dict(bad)}


def _check_rooted_size(T, args, ground, window) -> None:
    """represent-rooted's bounds before any work.  A run makes |g|^3 series
    products for the LDL^T factor and, in each of --max-reseeds + 1
    attempts, matroid._block_products(|g|, k) for the blocks' memo: at most
    _MAX_SUBSETS in all.  The cost weighs each block product by k^2/4 (1 at
    k = 2; a minor on more columns has longer series and wider
    coefficients) and adds 2 |g| window/gap for the pivots' inverses (gap:
    the least exponent gap of an entry of M; the 2 is the weight the k = 2
    limits were sized with).  A product costs up to slots^2 coefficient
    products (slots: the sums of entry gaps up to the window; they overstate
    sparse series), and coefficients grow with |g|: |g| x products x
    slots^2 is at most _MAX_ROOTED_COST.  verify_rooted_representation's
    refusals come first."""
    if args.max_reseeds < 0 or (window is not None and window <= 0):
        return
    g = _rooted_ground(T, args.root, ground)
    if not 1 <= args.k <= len(g):
        return
    memo = (args.max_reseeds + 1) * _block_products(len(g), args.k)
    products = len(g) ** 3 + memo
    if products > _MAX_SUBSETS:
        raise CliError(
            f"represent-rooted would make about {products} series products, more "
            f"than {_MAX_SUBSETS}; pass a smaller --ground, --k or --max-reseeds"
        )
    maps, den = _rooted_maps(T, args.root, g)
    gaps, den, default = _spread(maps, den)
    which = "the default window" if window is None else "--window"
    window = default if window is None else window
    top = int(window * den)
    inverses = 2 * len(g) * -(-top // min(gaps))
    products = len(g) ** 3 + memo * args.k**2 // 4 + inverses
    budget = _MAX_ROOTED_COST // (len(g) * products)  # for slots^2
    slots = {0}  # the sums of gaps up to top, counted while in budget
    todo = [0]
    while todo and len(slots) ** 2 <= budget:
        x = todo.pop()
        fresh = {x + gap for gap in gaps if x + gap <= top} - slots
        slots |= fresh
        todo += fresh
    if len(slots) ** 2 > budget:
        raise CliError(
            f"represent-rooted would cost more than {_MAX_ROOTED_COST} coefficient "
            f"products at {which} {window}: {len(g)} ground elements, about "
            f"{products} series products and at least {len(slots)} exponent "
            "slots; pass a smaller --ground, --k, --max-reseeds or --window"
        )


def cmd_represent_rooted(args):
    T, text = _load_tree(args)
    ground = _parse_labels(args.ground) if args.ground else None
    window = _parse_fraction(args.window) if args.window else None
    _check_rooted_size(T, args, ground, window)
    rep, reseeds = verify_rooted_representation(
        T,
        args.root,
        args.k,
        ground=ground,
        window=window,
        seed=args.seed,
        max_reseeds=args.max_reseeds,
    )
    # verify checked every valuation against the subtree weight
    rows = [
        {
            "Y": ",".join(str(y) for y in Y),
            "valuation": valuation,
            "subtree_weight": valuation,
            "exact_minor_valuation": rep.exact_valuations[Y],
        }
        for Y, valuation in rep.valuations.items()
    ]
    return 0, {
        "tree": text,
        "root": args.root,
        "k": args.k,
        "ground": list(rep.ground),
        "window": rep.window,
        "reseeds": reseeds,
        "rows": rows,
    }


def cmd_represent_odd(args):
    T, text = _load_tree(args)
    ground = T.check_subset(_parse_labels(args.ground)) if args.ground else T.vertices
    if _even_subsets(ground) > _MAX_SUBSETS:
        raise CliError(
            f"represent-odd would check more than {_MAX_SUBSETS} even "
            "subsets; pass a smaller --ground"
        )
    # every even subset in a nice order, checked as pf-verify checks them;
    # only a miss is read back into its value pair, so a Pfaffian c t^w with
    # c != 1 still represents the map.  Misses are listed in combinations
    # order: by size, then by their positions in the order.
    order = T.nice_order(ground)
    formula, misses = _pf_misses(T, order)
    mismatches = []
    for X in sorted(misses, key=lambda X: (len(X), [order.index(v) for v in X])):
        want = T.odd_weight(X)
        got, dual = _value_pair(misses[X])
        if got != want or dual != -want:
            mismatches.append({"X": list(X), "value": got, "dual": dual, "expected": want})
    report = {
        "tree": text,
        "order": list(order),
        "checked": len(formula),
        "mismatches": mismatches,
    }
    return (1 if mismatches else 0), report


def cmd_hpp_check(args):
    m = _read_matrix(args.matrix)
    taus = (Fraction(10), Fraction(100)) if args.taus is None else _parse_fractions(args.taus)
    if not taus:
        raise CliError("--taus needs at least one base")
    out = hpp_eigen_check(m, taus)
    if out is None:
        return 0, {"ok": True, "taus": list(taus)}
    if isinstance(out, Fraction):
        return 1, {"ok": False, "failing_tau": out}
    return 1, {"ok": False, "violation": _violation_dict(out)}


# ---------------------------------------------------------------------------
# parser


def _add_format(p):
    p.add_argument(
        "--format",
        choices=("json", "csv", "text"),
        default="text",
        help="report format (default text)",
    )


def _add_seed(p):
    p.add_argument("--seed", type=int, default=0, help="master random seed")


def _add_tree_source(p):
    p.add_argument("--tree", help="tree description file")
    p.add_argument("--n", type=int, help="generate a random tree on n vertices")
    p.add_argument(
        "--weights",
        choices=("unit", "rational"),
        default="unit",
        help="weights for a generated tree",
    )


def _add_sweep(sub, name, help, trees, n, flag, default, flag_help, description=None):
    p = sub.add_parser(name, help=help, description=description)
    p.add_argument("--trees", type=int, default=trees)
    p.add_argument("--n", type=int, default=n, help="largest tree size")
    p.add_argument(
        "--weights",
        choices=("unit", "rational", "both"),
        default="both",
        help="weight mode; 'both' alternates by tree index",
    )
    p.add_argument(flag, type=int, default=default, help=flag_help)
    _add_seed(p)
    p.add_argument(
        "--jobs", type=int, default=1, help="parallel workers for sweeps, at most one per tree"
    )
    _add_format(p)
    p.set_defaults(handler=_cmd_sweep)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeminor",
        description="exact minor/Pfaffian formulas for tree-distance matrices, "
        "tree-metric checks, and dissimilarity-map representations",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("tree-gen", help="generate a random weighted tree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--weights", choices=("unit", "rational"), default="unit"
    )
    p.add_argument("--out", help="write the tree file here instead of stdout")
    _add_seed(p)
    _add_format(p)
    p.set_defaults(handler=cmd_tree_gen)

    p = sub.add_parser("minor", help="minor formula and oracle for one X")
    _add_tree_source(p)
    p.add_argument("--X", required=True, help="comma-separated vertex labels")
    _add_seed(p)
    _add_format(p)
    p.set_defaults(handler=cmd_minor)

    _add_sweep(
        sub, "minor-verify", "sweep: formula vs oracle vs leading term",
        50, 6, "--max-x", 0, "cap |X| (0: no cap)",
        "Check the forest formula and its leading term on every subset of "
        "each random tree against one table of principal minors per tree. "
        f"A tree may have at most {_MAX_SUBSETS} subsets up to --max-x "
        "(--n 16 with no cap) on unit weights, and at most "
        f"{_MAX_RATIONAL_SUBSETS} (--n 13) when --weights is rational or "
        "both; more exits 2.",
    )

    p = sub.add_parser(
        "pfaffian",
        help="Pfaffian monomial and oracle for one X",
        description="Check the Pfaffian monomial of one nicely ordered X against "
        "the Pfaffian of its skew matrix, whose memoised expansion visits "
        f"F(|X| + 1) - 1 sets (F Fibonacci). At most {_MAX_SUBSETS} sets "
        "(22 labels) are allowed; more exits 2.",
    )
    _add_tree_source(p)
    p.add_argument("--X", required=True, help="nicely ordered, even size")
    _add_seed(p)
    _add_format(p)
    p.set_defaults(handler=cmd_pfaffian)

    _add_sweep(
        sub, "pf-verify", "sweep: Pfaffian formula + negative orders",
        30, 8, "--negatives", 3, "non-nice orders to test per tree",
        "Check the Pfaffian monomial on every even subset of each random "
        "tree, its members listed in the order of one nice order of all the "
        "tree's vertices, against one table of Pfaffians per tree; then test "
        f"non-nice orders. A tree may have at most {_MAX_SUBSETS} even "
        "subsets (--n 17); more exits 2.",
    )
    _add_sweep(
        sub, "cycles-verify", "sweep: cycle-partition expansions vs the formula",
        10, 6, "--max-x", 6, "cap |X| (enumeration!)",
        "Check both cycle-partition sums (all cycles, tight cycles) against "
        "the forest formula on every subset up to --max-x of each random "
        f"tree. A tree may have at most {_MAX_SUBSETS} cycle partitions, r! "
        "for each subset of size r (--n 7 at --max-x 7); more exits 2.",
    )

    p = sub.add_parser("check-4pc", help="four-point condition on a CSV matrix")
    p.add_argument("--matrix", required=True)
    _add_format(p)
    p.set_defaults(handler=cmd_check_4pc)

    p = sub.add_parser("realize", help="build a tree realizing a tree metric")
    p.add_argument("--matrix", required=True)
    _add_format(p)
    p.set_defaults(handler=cmd_realize)

    p = sub.add_parser(
        "decompose", help="split off potentials, then realize the metric part"
    )
    p.add_argument("--matrix", required=True)
    _add_format(p)
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser(
        "signature",
        help="inertia of a powered matrix, or the exact minor sign report",
    )
    p.add_argument("--matrix", help="exponent matrix CSV (with --tau)")
    p.add_argument("--tau", default="10", help="base for --matrix mode")
    _add_tree_source(p)
    p.add_argument("--X", help="vertex subset (tree mode) or index subset")
    _add_seed(p)
    _add_format(p)
    p.set_defaults(handler=cmd_signature)

    p = sub.add_parser(
        "dissimilarity",
        help="tabulate a dissimilarity map",
        description=f"A map may have at most {_MAX_SUBSETS} values (even "
        "subsets of the ground set for --map odd, k-subsets otherwise); more "
        "exits 2.",
    )
    _add_tree_source(p)
    p.add_argument("--map", choices=("k", "rooted", "odd"), required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--root", type=int)
    p.add_argument("--ground", help="comma-separated ground labels")
    _add_seed(p)
    _add_format(p)
    p.set_defaults(handler=cmd_dissimilarity)

    p = sub.add_parser(
        "check-matroid",
        help="exchange axioms on a JSON map file",
        description=f"A scan may visit at most {_MAX_EXCHANGE_STEPS} pairs and "
        "swaps: |supp|^2 ordered pairs, each with its pivot-and-partner swaps "
        "(the model: cli._exchange_steps); more exits 2.",
    )
    p.add_argument("--map", required=True, help="ValuatedFn JSON file")
    p.add_argument(
        "--axiom", choices=("auto", "matroid", "delta"), default="auto"
    )
    _add_format(p)
    p.set_defaults(handler=cmd_check_matroid)

    p = sub.add_parser(
        "represent-rooted",
        help="series representation of the rooted subtree-weight map, verified",
        description=f"A run may make at most {_MAX_SUBSETS} series products, "
        "|g|^3 for the factor and sum_{j=2..k} j C(|g|, j) for each attempt's "
        f"blocks, and cost at most {_MAX_ROOTED_COST} coefficient products over "
        "its window, each block product weighted by k^2/4 (the model: "
        "cli._check_rooted_size); more exits 2.",
    )
    _add_tree_source(p)
    p.add_argument("--root", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--ground", help="comma-separated ground labels")
    p.add_argument(
        "--window",
        help="truncation window (default: 4x the matrix exponent spread); "
        "raise it if you see 'insufficient precision'",
    )
    p.add_argument("--max-reseeds", type=int, default=5)
    _add_seed(p)
    _add_format(p)
    p.set_defaults(handler=cmd_represent_rooted)

    p = sub.add_parser(
        "represent-odd",
        help="skew representation of the odd-edge map, verified exhaustively",
        description=f"Check every even subset of the ground set (default: all "
        f"vertices). At most {_MAX_SUBSETS} even subsets (17 vertices) are "
        "allowed; more exits 2.",
    )
    _add_tree_source(p)
    p.add_argument("--ground", help="comma-separated ground labels")
    _add_seed(p)
    _add_format(p)
    p.set_defaults(handler=cmd_represent_odd)

    p = sub.add_parser(
        "hpp-check", help="eigenvalue-count and four-point test for a pair matrix"
    )
    p.add_argument("--matrix", required=True)
    p.add_argument("--taus", help="comma-separated bases (default 10,100)")
    _add_format(p)
    p.set_defaults(handler=cmd_hpp_check)

    return parser


# one parser per process: building the subparsers costs far more than a parse
_parser = cache(build_parser)


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return 2 if exc.code not in (0, None) else 0
    try:
        code, report = args.handler(args)
    except (CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # verification-level failure (sign break, insufficient precision, ...)
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    emit(report, args.format)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
