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
minor-verify (0: no cap).  minor-verify and pf-verify check at most
_MAX_SUBSETS subsets per tree and cycles-verify walks at most _MAX_SUBSETS
cycle partitions per tree (r! for each subset of size r), counted from --n
and --max-x.  dissimilarity evaluates at most _MAX_SUBSETS values and
represent-odd represents at most 12 vertices, counted from the tree and
--ground; pfaffian's oracle expands at most _MAX_SUBSETS sets, counted from
--X.  Anything else exits 2 before any work.

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
from itertools import combinations
from math import comb, factorial

from .cyclekernel import ENUMERATION_CAP, cycle_sums
from .matroid import (
    ValuatedFn,
    _rooted_ground,
    check_delta_matroid,
    check_valuated_matroid,
    k_dissimilarity,
    odd_dissimilarity,
    represent_odd,
    rooted_k_dissimilarity,
    verify_rooted_representation,
)
from .metric import (
    MINUS_INF,
    NotTreeMetricError,
    check_4pc,
    check_dissimilarity,
    format_matrix_csv,
    hpp_eigen_check,
    parse_matrix_csv,
    power_matrix,
    realize_tree,
    spectral_signature,
    split_potentials,
)
from .minors import minor_formula, minor_leading, minor_oracle, minor_table, signature
from .pfaffian import NotNicelyOrderedError, _odd_weight, pf_formula, pf_oracle, pf_table
from .poly import ExactPoly
from .tree import Tree, format_tree, random_tree, read_tree_file

_SEED_STRIDE = 1_000_003  # tree index -> sub-seed, documented and fixed
# subsets one tree of minor-verify or pf-verify may check: each sweep holds
# a table of that many polynomials, built in about n 2^n products.  It also
# bounds the cycle partitions of one cycles-verify tree and the values of
# one dissimilarity map.
_MAX_SUBSETS = 1 << 16


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


# ---------------------------------------------------------------------------
# shared argument handling


def _parse_labels(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(" ", "").split(",") if tok != ""]
    except ValueError:
        raise CliError(f"expected comma-separated integer labels, got {text!r}")


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
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
        with ProcessPoolExecutor(max_workers=jobs) as pool:
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
        **_str_values(values),
        "equal": equal,
        "leading": _leading_dict(values["formula"]),
    }
    return (0 if equal else 1), report


def _over_pfaffian_bound(k: int) -> bool:
    """Would the memoised expansion in pf_oracle of k labels visit more than
    _MAX_SUBSETS sets?  It visits F(k + 1) - 1, F(1) = F(2) = 1 (28,656 at
    k = 22, 75,024 at 24); the terms stop once over the bound."""
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
        **_str_values(values),
        "equal": equal,
        "leading": _leading_dict(values["pfaffian"]),
    }
    return (0 if equal else 1), report


# ---------------------------------------------------------------------------
# verification sweeps: one worker and one handler serve minor-verify,
# pf-verify and cycles-verify.  A sweep is a per-tree builder
# T -> (subset walk, check X -> (ok, values)) and, for pf-verify, a pass over
# negative orders.  minor-verify and pf-verify read their oracle values off one table
# per tree; a subset that fails against it is decided again by the check its
# certificate replays with (`minor`, `pfaffian`).


def _str_values(values: dict) -> dict:
    return {k: str(v) for k, v in values.items()}


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


def _redecide(check, T, X, table_value):
    """X failed against the table: decide it with the single-instance check,
    whose values the certificate carries.  If that check passes, the table
    is at fault, and the certificate carries its value too."""
    ok, values = check(T, X)
    if ok:
        values["table"] = table_value
    return False, values


def _subsets(T, max_x):
    """Every subset of size 1..max_x, in combination order."""
    for r in range(1, min(T.n, max_x) + 1):
        yield from combinations(T.vertices, r)


def _minor_sweep(T, max_x):
    table = minor_table(T, max_x)

    def check(X):
        oracle = table[X]
        if minor_formula(T, X) == oracle and minor_leading(T, X) == oracle.leading_term():
            return True, None
        return _redecide(_minor_check, T, X, oracle)

    return _subsets(T, max_x), check


def _restricted_even_subsets(T, omega):
    """Every even-size subset S in combination order, listed as omega|S:
    the members of S in the order of omega.  A restriction of a nice order
    of all vertices (a depth-first order) is nicely ordered too."""
    pos = {v: i for i, v in enumerate(omega)}
    for r in range(2, T.n + 1, 2):
        for sub in combinations(T.vertices, r):
            yield tuple(sorted(sub, key=pos.__getitem__))


def _pf_sweep(T, _max_x):
    omega = T.nice_order(T.vertices)
    table = pf_table(T, omega)

    def check(X):
        oracle = table[X]
        if pf_formula(T, X) == oracle:
            return True, None
        return _redecide(_pf_check, T, X, oracle)

    return _restricted_even_subsets(T, omega), check


def _cycles_sweep(T, max_x):
    return _subsets(T, max_x), lambda X: _cycles_check(T, X)


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
    luck; those draws are skipped, not failures)."""
    hit = 0
    tried = 0
    while hit < negatives and tried < 50 * max(negatives, 1):
        tried += 1
        r = rng.randrange(2, T.n + 1, 2)
        sub = rng.sample(T.vertices, r)
        ok, _counts = T.is_nicely_ordered(sub)
        if ok:
            continue
        if pf_oracle(T, sub) != ExactPoly.t_power(_odd_weight(T, sub)):
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
            certificate = {"tree": format_tree(T), "X": list(X), **_str_values(values)}
            break
        checked += 1
    row["checked"] = checked
    if negatives is not None:
        row["negatives"] = _negative_hits(T, rng, negatives) if certificate is None else 0
    row["ok"] = certificate is None
    if certificate is not None:
        row["certificate"] = certificate
    return row


def _over_subset_bound(sub: str, n: int, max_x: int) -> bool:
    """Would one tree of n vertices give a sweep more than _MAX_SUBSETS
    subsets to check, or, for cycles-verify, more than _MAX_SUBSETS cycle
    partitions (r! for each subset of size r)?  Terms are added in
    increasing size and the sum stops once over the bound, so a huge --n
    costs a few terms."""
    sizes = range(2, n + 1, 2) if sub == "pf-verify" else range(1, min(n, max_x or n) + 1)
    count = 0
    for r in sizes:
        count += comb(n, r) * (factorial(r) if sub == "cycles-verify" else 1)
        if count > _MAX_SUBSETS:
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
    if _over_subset_bound(args.subcommand, args.n, max_x):
        cap = f" --max-x {max_x}" if max_x else ""
        what = "cycle partitions" if args.subcommand == "cycles-verify" else "subsets"
        raise CliError(
            f"{args.subcommand} would check more than {_MAX_SUBSETS} "
            f"{what} per tree at --n {args.n}{cap}"
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
    d, p = split_potentials(m)
    try:
        d = check_dissimilarity(d)
    except ValueError as exc:
        return 1, {
            "ok": False,
            "reason": f"potential-reduced part is not a dissimilarity matrix: {exc}",
            "potentials": p,
        }
    try:
        T, placement = realize_tree(d)
    except NotTreeMetricError as exc:
        return 1, {
            "ok": False,
            "violation": _violation_dict(exc.violation),
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


def _dissimilarity_values(T, args, ground) -> int:
    """How many values `dissimilarity` would evaluate: the even subsets of
    the ground set for --map odd, its k-subsets for --map k and rooted."""
    if args.map == "odd":
        g = T.vertices if ground is None else T.check_subset(ground)
        return 1 << max(len(g) - 1, 0)
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


def cmd_check_matroid(args):
    with open(args.map, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if "values" not in data and "map" in data:
        data = data["map"]  # tolerate a full `dissimilarity` report
    try:
        fn = ValuatedFn.from_json(data)
    except (KeyError, ValueError) as exc:
        raise CliError(f"bad map file: {exc}")
    axiom = args.axiom
    if axiom == "auto":
        axiom = "matroid" if fn.k is not None else "delta"
    bad = check_valuated_matroid(fn) if axiom == "matroid" else check_delta_matroid(fn)
    if bad is None:
        return 0, {"ok": True, "axiom": axiom, "support": len(fn.support())}
    return 1, {"ok": False, "axiom": axiom, "violation": _exchange_dict(bad)}


def cmd_represent_rooted(args):
    T, text = _load_tree(args)
    ground = _parse_labels(args.ground) if args.ground else None
    window = _parse_fraction(args.window) if args.window else None
    rep, reseeds = verify_rooted_representation(
        T,
        args.root,
        args.k,
        ground=ground,
        window=window,
        seed=args.seed,
        max_reseeds=args.max_reseeds,
    )
    expected = rooted_k_dissimilarity(T, args.root, args.k, ground=rep.ground)
    rows = []
    for Y, valuation in rep.valuations.items():
        rows.append(
            {
                "Y": ",".join(str(y) for y in Y),
                "valuation": valuation,
                "subtree_weight": expected.value(Y),
                "exact_minor_valuation": rep.exact_minor_valuation(Y),
            }
        )
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
    if len(ground) > 12:
        raise CliError(
            "exhaustive check over subsets needs at most 12 represented "
            "vertices; pass a smaller --ground"
        )
    rep = represent_odd(T, ground=ground)
    fn = odd_dissimilarity(T, ground=rep.order)
    pairs = rep.value_pairs()
    mismatches = []
    checked = 0
    for r in range(0, len(rep.order) + 1, 2):
        for X in combinations(rep.order, r):
            want = fn.value(X)
            got, dual = pairs[X]
            if got != want or dual != (-want if want != MINUS_INF else want):
                mismatches.append(
                    {
                        "X": list(X),
                        "value": got,
                        "dual": dual,
                        "expected": want,
                    }
                )
            checked += 1
    report = {
        "tree": text,
        "order": list(rep.order),
        "checked": checked,
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
        "--jobs", type=int, default=1, help="parallel workers for sweeps"
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
        "(--n 16 with no cap); more exits 2.",
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
        "check-matroid", help="exchange axioms on a JSON map file"
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


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
