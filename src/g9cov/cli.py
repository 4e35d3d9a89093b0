"""Command-line interface.

Subcommands:

    group        emit the 192 elements and the 32 classes in table order
    chartable    emit the character table (csv, json or latex)
    molien       emit a covariant Hilbert series and its numerator
    covariants   emit the basis of one homogeneous covariant slice
    generators   emit the module generators of one representation
    verify       run the whole verification suite; exit 0 only on success

Exit codes: 0 success, 1 verification failure, 2 usage error.  All output
is deterministic: identical inputs produce byte-identical bytes.
--degree and --terms are at most MAX_DEGREE (256); the slowest slice in
range, rho_30 in degree 255, takes about 1 s on a 2-core x86-64 box.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import poly, reference
from .covariants import FREENESS_DEGREE
from .cyclo import render_zeta
from .group import class_orders, class_sizes
from .linalg import mat_to_json
# molien_series is re-exported: perfbench/spans.py wraps it under this name
from .molien import molien_series  # noqa: F401
from .reps import verify_census, verify_homomorphism
from .session import Session, get_session

MAX_DEGREE = 256


def _rep_id(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"representation id must be an integer, got {text!r}")
    if not 1 <= value <= 32:
        raise argparse.ArgumentTypeError("representation id must be in 1..32")
    return value


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _series_text(terms: list[tuple[int, int]]) -> str:
    parts = []
    for d, c in terms:
        if d == 0:
            parts.append(str(c))
            continue
        t = "t" if d == 1 else f"t^{d}"
        parts.append(t if c == 1 else f"{c}{t}")
    return " + ".join(parts) if parts else "0"


# -- group ---------------------------------------------------------------------


def cmd_group(args, sess: Session) -> int:
    table = sess.table
    classes = [{"rep": label, "ord": order, "size": size}
               for label, order, size in zip(table.class_labels,
                                             class_orders(table),
                                             class_sizes(table))]
    if args.format == "json":
        data = {
            "order": len(table),
            "elements": [{"index": e.index, "word": e.word,
                          "matrix": mat_to_json(e.mat)}
                         for e in table.elements],
            "classes": classes,
        }
        _emit(json.dumps(data, indent=2) + "\n", args.out)
    else:
        lines = [f"group order {len(table)}, {len(classes)} conjugacy classes", ""]
        lines.append(f"{'class':>8}  {'rep':<8} {'ord':>4} {'size':>5}")
        for pos, c in enumerate(classes, start=1):
            lines.append(f"{pos:>8}  {c['rep']:<8} {c['ord']:>4} {c['size']:>5}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# -- character table ---------------------------------------------------------------


def _latex_entry(s: str) -> str:
    # the rendered form uses 'z' only as the variable symbol
    return s.replace("z", "\\zeta")


def cmd_chartable(args, sess: Session) -> int:
    table = sess.table
    labels = table.class_labels
    orders = class_orders(table)
    sizes = class_sizes(table)
    rows = [[render_zeta(v) for v in row] for row in sess.chars]
    if args.format == "json":
        data = {"classes": labels, "ord": orders, "sizes": sizes,
                "rows": {f"chi_{i+1}": row for i, row in enumerate(rows)}}
        _emit(json.dumps(data, indent=2) + "\n", args.out)
    elif args.format == "latex":
        blocks = []
        for lo in (0, 16):
            hi = lo + 16
            lines = [r"\begin{array}{c|*{16}{c}}"]
            lines.append(" & " + " & ".join(
                f"\\mathfrak{{C}}_{{{k+1}}}" for k in range(lo, hi)) + r"\\")
            lines.append(r"\hline")
            lines.append(r"\mathrm{Rep.} & " + " & ".join(
                _latex_entry(l) for l in labels[lo:hi]) + r"\\")
            lines.append(r"\mathrm{ord} & " + " & ".join(
                str(o) for o in orders[lo:hi]) + r"\\")
            lines.append(r"|\mathcal{C}| & " + " & ".join(
                str(s) for s in sizes[lo:hi]) + r"\\")
            lines.append(r"\hline")
            for i, row in enumerate(rows):
                lines.append(f"\\chi_{{{i+1}}} & " + " & ".join(
                    _latex_entry(v) for v in row[lo:hi]) + r"\\")
            lines.append(r"\end{array}")
            blocks.append("\n".join(lines))
        _emit("\n\n".join(blocks) + "\n", args.out)
    else:  # csv
        lines = ["class," + ",".join(labels)]
        lines.append("ord," + ",".join(str(o) for o in orders))
        lines.append("|C|," + ",".join(str(s) for s in sizes))
        for i, row in enumerate(rows):
            lines.append(f"chi_{i+1}," + ",".join(row))
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# -- molien --------------------------------------------------------------------------


def _molien_payload(sess: Session, rid: int, terms: int) -> dict:
    res = sess.engine.molien(rid)
    series = [(d, c) for d, c in enumerate(res.series(terms)) if c]
    return {"rep": rid, "terms": series, "numerator": list(res.numerator)}


def cmd_molien(args, sess: Session) -> int:
    rids = list(range(1, 33)) if args.rep == "all" else [_rep_id(args.rep)]
    payloads = [_molien_payload(sess, rid, args.terms) for rid in rids]
    if args.format == "json":
        data = payloads[0] if len(payloads) == 1 else payloads
        _emit(json.dumps(data, indent=2) + "\n", args.out)
    else:
        lines = []
        for p in payloads:
            lines.append(f"rho_{p['rep']}: {_series_text(p['terms'])}")
            if args.numerator:
                lines.append(f"  numerator: {_series_text(p['numerator'])}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# -- covariants / generators ------------------------------------------------------------


def cmd_covariants(args, sess: Session) -> int:
    rid = _rep_id(args.rep)
    sl = sess.engine.slice(rid, args.degree)
    if args.format == "json":
        data = {"rep": rid, "degree": args.degree, "dim": sl.dim,
                "basis": [v.to_text() for v in sl.basis]}
        _emit(json.dumps(data, indent=2) + "\n", args.out)
    else:
        lines = [f"rho_{rid} degree {args.degree}: dimension {sl.dim}"]
        for v in sl.basis:
            lines.append("  [" + ", ".join(v.to_text()) + "]")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_generators(args, sess: Session) -> int:
    rid = _rep_id(args.rep)
    engine = sess.engine
    genset = engine.generators(rid)
    det = None
    if sess.rep(rid).dim >= 2:
        e, k, c = engine.det_relation(rid)
        det = {"e": e, "k": k, "c": str(c)}
    if args.format == "json":
        data = {"rep": rid,
                "degrees": list(genset.degrees),
                "generators": [{"degree": d, "components": g.to_text()}
                               for d, g in genset.gens],
                "normalization": "leading coefficient 1, component-major graded-lex",
                "det": det}
        _emit(json.dumps(data, indent=2) + "\n", args.out)
    else:
        lines = [f"rho_{rid}: {len(genset.gens)} generators, degrees {list(genset.degrees)}"]
        for d, g in genset.gens:
            lines.append(f"  degree {d}: [" + ", ".join(g.to_text()) + "]")
        if det:
            lines.append(f"  det = ({det['c']}) * delta^{det['e']} * gamma^{det['k']}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# -- verify --------------------------------------------------------------------------------


class CheckFailure(Exception):
    pass


def _check_group(sess: Session) -> str:
    table = sess.table
    if len(table) != 192:
        raise CheckFailure(f"group order {len(table)}")
    if len(table.classes) != 32:
        raise CheckFailure(f"{len(table.classes)} conjugacy classes")
    if class_orders(table) != reference.CLASS_ORDERS:
        raise CheckFailure("element orders differ from the reference ord row")
    if class_sizes(table) != reference.CLASS_SIZES:
        raise CheckFailure("class sizes differ from the reference |C| row")
    return "order 192, 32 classes, ord and |C| rows match"


def _check_census(sess: Session) -> str:
    report = verify_census(sess.reps, sess.table, sess.traces)
    return (f"dims {{1^8 2^12 3^8 4^4}}, sum of squares {report['sum_squares']}, "
            f"{report['pairs_checked']} orthogonality pairs")


def _check_homomorphism(sess: Session) -> str:
    pairs = sum(verify_homomorphism(r, sess.table, sess.mats[r.rid]) for r in sess.reps)
    return f"{pairs} ordered pairs certified"


def _check_chartable(sess: Session, strict: bool) -> str:
    ref = reference.printed_character_table()
    strict_bad = [i + 1 for i in range(32) if sess.chars[i] != ref[i]]
    for row, src in reference.CHARACTER_ROW_SOURCE.items():
        if ref[row - 1] != sess.chars[src - 1]:
            raise CheckFailure(
                f"reference row {row} does not match chi_{src} either")
    if not strict_bad:
        return "all 32 rows match the reference table"
    relabeling = {k: v for k, v in reference.CHARACTER_ROW_SOURCE.items() if k != v}
    if strict:
        raise CheckFailure(
            f"rows {strict_bad} differ from the reference table by row index "
            f"(they match under the documented relabeling {relabeling})")
    return (f"rows 1-28 and 32 match by index; rows {strict_bad} match via the "
            f"documented relabeling {relabeling} (see README)")


def _check_molien(sess: Session) -> str:
    for rid, head in reference.SERIES_HEADS.items():
        res = sess.engine.molien(rid)
        got = res.head(len(head))
        if got != head:
            raise CheckFailure(f"rho_{rid} series head {got}, reference {head}")
        if res.coefficient(0) != (1 if rid == 1 else 0):
            raise CheckFailure(f"rho_{rid} has constant term {res.coefficient(0)}")
        total = sum(c for _, c in res.numerator)
        if total != sess.rep(rid).dim:
            raise CheckFailure(f"rho_{rid} numerator sums to {total}")
    return "all 32 series heads, numerators and constant terms match"


def _check_crosscheck(sess: Session) -> str:
    count = 0
    for rid in range(1, 33):
        mol = sess.engine.molien(rid)
        for d in range(0, 41):
            if sess.engine.slice(rid, d).dim != mol.coefficient(d):
                raise CheckFailure(f"rho_{rid} degree {d}")
            count += 1
    return f"solver vs Molien dimension at {count} (rep, degree) points"


def _check_generators(sess: Session) -> str:
    for rid in range(1, 33):
        got = sess.engine.generators(rid).degrees
        want = tuple(sorted(reference.GENERATOR_DEGREES[rid]))
        if got != want:
            raise CheckFailure(f"rho_{rid} degrees {got}, reference {want}")
    return "all 32 generator degree multisets match the reference tables"


def _check_linear(sess: Session) -> str:
    consts = sess.engine.verify_linear_generators()
    desc = ", ".join(f"{rid}:{render_zeta(c)}" for rid, c in consts.items())
    return f"rank-1 generators are gamma^a delta^b; scalars {desc}"


def _check_freeness(sess: Session) -> str:
    for rid in range(1, 33):
        sess.engine.verify_free(rid)
    return f"free-module spans verified to degree {FREENESS_DEGREE} for all reps"


def _check_determinants(sess: Session) -> str:
    for rid in range(9, 33):
        e, k, c = sess.engine.det_relation(rid)
        if (e, k) != reference.DET_EXPONENTS[rid]:
            raise CheckFailure(f"rho_{rid} exponents ({e},{k})")
        if c.is_zero():
            raise CheckFailure(f"rho_{rid} constant is zero")
        degs = sess.engine.generators(rid).degrees
        if rid <= 20 and sum(degs) != 12 + 6 * k:
            raise CheckFailure(f"rho_{rid} degree identity")
        if rid >= 29 and (e, k, sum(degs)) != (2, 6, 60):
            raise CheckFailure(f"rho_{rid} is not delta^2 gamma^6 of degree 60")
    return "exponents (e, k) match; rank-4 determinants are c * delta^2 gamma^6"


def _check_tau(sess: Session) -> str:
    missing = []
    for rid in range(21, 33):
        for rec in sess.engine.tau_structure(rid):
            if not rec.found:
                missing.append((rid, rec.degree))
    if missing:
        raise CheckFailure(f"no swap-symmetric representative at {missing}")
    return "swap-symmetric generator representatives found for rho_21..rho_32"


def _check_invariants(sess: Session) -> str:
    """The octahedral identities and the (co)invariance of gamma, theta, delta, phi.

    f(s x) = c_s f(x) for s in {T, D} with scalars c_s gives f(g x) = c_g f(x)
    at every g = s1...sk of G9 = <T, D>, c_g the (commuting) product of the c_s;
    CovariantEngine.covariance_failure decides it with the solver's own action.
    Every failing fact is reported, so a moved form is named even when the
    phi identity fails with it.
    """
    gamma, theta, delta, phi = poly.fundamental_invariants()
    failures = []
    if not (phi - (delta * delta + (gamma ** 4).scale(66))).is_zero():
        failures.append("phi = delta^2 + 66 gamma^4 fails")
    if gamma.tau() != -gamma or theta.tau() != theta:
        failures.append("tau action on gamma/theta fails")
    for form, rid, moved in ((theta, 1, "theta/phi moved by element"),
                             (phi, 1, "theta/phi moved by element"),
                             (gamma, 3, "gamma is not rho_3-covariant at element"),
                             (delta, 5, "delta is not rho_5-covariant at element")):
        name = sess.engine.covariance_failure(rid, poly.VecPoly([form]))
        if name:
            failures.append(f"{moved} {sess.table.lookup(sess.table.gens[name])}")
    if failures:
        raise CheckFailure("; ".join(dict.fromkeys(failures)))
    return ("phi = delta^2 + 66 gamma^4; theta, phi fixed by all 192 elements; "
            "gamma, delta covariant for rho_3, rho_5; tau signs correct")


CHECKS = [
    ("group", _check_group),
    ("census", _check_census),
    ("homomorphism", _check_homomorphism),
    ("chartable", _check_chartable),
    ("molien", _check_molien),
    ("crosscheck", _check_crosscheck),
    ("generators", _check_generators),
    ("linear", _check_linear),
    ("freeness", _check_freeness),
    ("determinants", _check_determinants),
    ("tau", _check_tau),
    ("invariants", _check_invariants),
]


def run_verify(sess: Session, only: list[str] | None = None,
               strict: bool = False, write=print) -> int:
    names = [n for n, _ in CHECKS]
    if only:
        unknown = [n for n in only if n not in names]
        if unknown:
            raise ValueError(f"unknown checks {unknown}; available: {names}")
    first_failure = None
    for name, fn in CHECKS:
        if only and name not in only:
            continue
        try:
            detail = fn(sess, strict) if name == "chartable" else fn(sess)
            write(f"PASS {name}: {detail}")
        except Exception as exc:
            write(f"FAIL {name}: {exc}")
            if first_failure is None:
                first_failure = name
    if first_failure:
        write(f"verification FAILED (first failure: {first_failure})")
        return 1
    write("all checks passed")
    return 0


def cmd_verify(args, sess: Session) -> int:
    only = args.only.split(",") if args.only else None
    lines: list[str] = []
    try:
        code = run_verify(sess, only, args.strict, write=lines.append)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit("\n".join(lines) + "\n", args.out)
    return code


# -- entry point -------------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g9cov",
        description="Exact computations for the Shephard-Todd reflection group G9")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="elements and conjugacy classes")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")

    p = sub.add_parser("chartable", help="the 32x32 character table")
    p.add_argument("--format", choices=["csv", "json", "latex"], default="csv")
    p.add_argument("--out")

    p = sub.add_parser("molien", help="covariant Hilbert series")
    p.add_argument("--rep", required=True, help="1..32 or 'all'")
    p.add_argument("--terms", type=int, default=64,
                   help=f"series terms through this degree, 1..{MAX_DEGREE}")
    p.add_argument("--numerator", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")

    p = sub.add_parser("covariants", help="basis of one covariant slice")
    p.add_argument("--rep", required=True)
    p.add_argument("--degree", type=int, required=True,
                   help=f"0..{MAX_DEGREE}; the slowest slice, rho_30 in degree 255, "
                        "takes about 1 s on a 2-core x86-64 box")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")

    p = sub.add_parser("generators", help="module generators of one representation")
    p.add_argument("--rep", required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--only", help="comma-separated subset of checks")
    p.add_argument("--strict", action="store_true",
                   help="fail on the documented reference-table row relabeling")
    p.add_argument("--out")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("molien", "covariants", "generators") and args.rep != "all":
        try:
            _rep_id(args.rep)
        except argparse.ArgumentTypeError as exc:
            parser.error(str(exc))
    if args.command != "molien" and getattr(args, "rep", None) == "all":
        parser.error("--rep all is only supported for molien")
    if not 1 <= getattr(args, "terms", 1) <= MAX_DEGREE:
        parser.error(f"--terms must be in 1..{MAX_DEGREE}")
    if not 0 <= getattr(args, "degree", 0) <= MAX_DEGREE:
        parser.error(f"--degree must be in 0..{MAX_DEGREE}")
    sess = get_session()
    handlers = {
        "group": cmd_group,
        "chartable": cmd_chartable,
        "molien": cmd_molien,
        "covariants": cmd_covariants,
        "generators": cmd_generators,
        "verify": cmd_verify,
    }
    return handlers[args.command](args, sess)


if __name__ == "__main__":
    sys.exit(main())
