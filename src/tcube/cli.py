"""Command-line front end.

Subcommands:
  build          dump an operator or idempotent in the JSON matrix format
  verify         run a verification suite, exit 0 only if everything passes
  decompose      report the irreducible-module decomposition (optionally
                 emitting seed-vector files)
  module-report  per-module verification report (rep matrices, inner
                 products, transitions, Leonard verdict)
  leonard-check  Leonard-triple verdict for every module

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
All report output is deterministic for a given (D, command, format); progress
for long runs goes to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import List, Optional, Tuple

from . import cube, decomposition, leonard
from .cube import CubeContext, build_context

SUITES = ("commutators", "idempotents", "conjugation", "rep-matrices",
          "inner-products", "transitions", "all")
# build's --op choice -> the CubeContext attribute it dumps; the indexed
# ones are families, of which build makes member --index alone
# (`CubeContext.member`)
PLAIN_OPS = {"adjacency": "A", "dual": "Astar", "imaginary": "Aeps", "P": "P"}
INDEXED_OPS = {"distance": "dist_matrices", "E": "E", "Estar": "Estar",
               "Eeps": "Eeps"}
BUILD_OPS = (*PLAIN_OPS, *INDEXED_OPS)
CORRUPT_OPS = {"adjacency": "A", "dual": "Astar", "imaginary": "Aeps"}

# Raised when a construction or module breaks one of its invariants; verify
# reports each as a failed row naming the invariant.
VERIFY_ERRORS = (cube.ConstructionError, decomposition.InvariantViolation,
                 leonard.BasisError)

# (check_id, i, j, passed, first_discrepancy)
Row = Tuple[str, Optional[int], Optional[int], bool, Optional[Tuple[int, int]]]


def _progress(msg: str):
    print(msg, file=sys.stderr, flush=True)


# -- row production -----------------------------------------------------------


def _checks_to_rows(checks) -> List[Row]:
    return [(c.identity, None, None, c.passed, c.first_discrepancy)
            for c in checks]


def _error_row(prefix: str, exc: Exception) -> Row:
    return (f"{prefix}{type(exc).__name__}: {exc}", None, None, False, None)


def _module_suite_rows(m, suite) -> List[Row]:
    """Rows of one module, whose six bases live only as long as its rows."""
    tag = f"r{m.r}m{m.index}"
    rows: List[Row] = []
    try:
        bases = leonard.build_six_bases(m)
        if suite in ("rep-matrices", "all"):
            for cell in leonard.verify_rep_matrices(bases):
                rows.append((f"{tag}:rep[{cell.basis}][{cell.op}]",
                             None, None, cell.passed, None))
        if suite in ("inner-products", "transitions", "all"):
            phi = leonard.phi_matrix(m.d)
        if suite in ("inner-products", "all"):
            for g in leonard.verify_inner_products(bases, phi):
                rows.append((f"{tag}:{g.check_id}", g.i, g.j, g.passed, None))
        if suite in ("transitions", "all"):
            report = leonard.transition_matrices(bases, phi)
            for (src, dst), cell in sorted(report.cells.items()):
                rows.append((f"{tag}:transition[{src}|{dst}]",
                             None, None, cell.passed, None))
            for c in report.coherence:
                rows.append((f"{tag}:{c.identity}", None, None, c.passed,
                             None))
        if suite == "all":
            for c in decomposition.verify_seed_norms(m):
                rows.append((f"{tag}:{c.identity}", None, None, c.passed,
                             None))
            f = m.frame
            verdict = leonard.is_leonard_triple(f.A, f.Astar, f.Aeps)
            rows.append((f"{tag}:leonard_triple", None, None,
                         verdict.verdict == "true", None))
    except VERIFY_ERRORS as exc:
        rows.append(_error_row(f"{tag}:", exc))
    return rows


def _matrix_suite_rows(verify, ctx) -> List[Row]:
    """Rows of one whole-matrix suite; a broken invariant is one failed row."""
    try:
        return _checks_to_rows(verify(ctx))
    except VERIFY_ERRORS as exc:
        return [_error_row("", exc)]


def run_suite(ctx: CubeContext, suite: str) -> List[Row]:
    """Report rows of one suite.  A broken invariant becomes a failed row:
    one for a whole-matrix suite, one for the decomposition as a whole, or
    one per module; the other suites still run."""
    rows: List[Row] = []
    if suite in ("commutators", "all"):
        rows.extend(_matrix_suite_rows(cube.verify_commutators, ctx))
        _progress("  commutators done")
    if suite in ("idempotents", "all"):
        rows.extend(_matrix_suite_rows(cube.verify_idempotent_families, ctx))
        _progress("  idempotent families done")
    if suite in ("conjugation", "all"):
        rows.extend(_matrix_suite_rows(cube.verify_conjugation, ctx))
        _progress("  conjugation done")
    if suite in ("rep-matrices", "inner-products", "transitions", "all"):
        try:
            modules = decomposition.decompose(ctx).modules
        except VERIFY_ERRORS as exc:
            rows.append(_error_row("", exc))
        else:
            for k, m in enumerate(modules):
                rows.extend(_module_suite_rows(m, suite))
                _progress(f"  verified module r={m.r} index={m.index} "
                          f"({k + 1}/{len(modules)})")
    return rows


# -- output formatting -------------------------------------------------------------


def _json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    """A header line, then one line per row; None is written as empty."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _rows_to_text(rows: List[Row], fmt: str, header: dict) -> str:
    if fmt == "json":
        checks = [{"identity": r[0], "i": r[1], "j": r[2], "passed": r[3],
                   "first_discrepancy": None if r[4] is None else list(r[4])}
                  for r in rows]
        return _json_text(dict(header, passed=all(r[3] for r in rows),
                               checks=checks))
    if fmt == "csv":
        return _csv_text(["check_id", "i", "j", "passed"],
                         ([r[0], r[1], r[2], "true" if r[3] else "false"]
                          for r in rows))
    lines = []
    for r in rows:
        where = "" if r[1] is None else f" ({r[1]},{r[2]})"
        disc = "" if r[4] is None else f" first_discrepancy={list(r[4])}"
        lines.append(f"{'PASS' if r[3] else 'FAIL'}  {r[0]}{where}{disc}")
    n_fail = sum(1 for r in rows if not r[3])
    lines.append(f"{len(rows)} checks, {n_fail} failures")
    return "\n".join(lines) + "\n"


def _emit(text: str, path: Optional[str]) -> int:
    if path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 3
    return 0


# -- subcommands --------------------------------------------------------------------


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_build(args) -> int:
    op = args.op
    if op in INDEXED_OPS and args.index is None:
        return _usage_error(f"--op {op} requires --index")
    if op not in INDEXED_OPS and args.index is not None:
        return _usage_error(f"--op {op} takes no --index")
    ctx = build_context(args.D, args.d_limit)
    if op in INDEXED_OPS:
        if not 0 <= args.index <= ctx.D:
            return _usage_error(f"--index must be in 0..{ctx.D}")
        matrix = ctx.member(INDEXED_OPS[op], args.index)
    else:
        matrix = getattr(ctx, PLAIN_OPS[op])
    return _emit(_json_text(matrix.to_dump()), args.output)


def _cmd_verify(args) -> int:
    try:
        ctx = build_context(args.D, args.d_limit)
    except cube.ConstructionError as exc:
        rows = [_error_row("", exc)]
    else:
        if args.corrupt:
            name = CORRUPT_OPS[args.corrupt]
            spot = ctx.first_nonzero(name)
            ctx = ctx.with_flipped_sign(name, *spot)
            _progress(f"  injected sign flip into {args.corrupt} at {spot}")
        rows = run_suite(ctx, args.suite)
    header = {"D": args.D, "suite": args.suite}
    code = _emit(_rows_to_text(rows, args.format, header), args.output)
    if code:
        return code
    return 0 if all(r[3] for r in rows) else 1


def _cmd_decompose(args) -> int:
    if args.output_dir is not None and not args.emit_seeds:
        return _usage_error("--output-dir requires --emit-seeds")
    ctx = build_context(args.D, args.d_limit)
    dec = decomposition.decompose(ctx)
    if args.emit_seeds:
        outdir = args.output_dir or "."
        try:
            os.makedirs(outdir, exist_ok=True)
            for m in dec.modules:
                seeds = m.seeds
                doc = {"D": args.D, "r": m.r, "index": m.index,
                       "u": seeds.row(0).to_dump(),
                       "u_star": seeds.row(1).to_dump(),
                       "u_eps": seeds.row(2).to_dump()}
                path = os.path.join(outdir,
                                    f"seeds_d{args.D}_r{m.r}_m{m.index}.json")
                with open(path, "w") as fh:
                    fh.write(_json_text(doc))
        except OSError as exc:
            print(f"error: cannot write seed files: {exc}", file=sys.stderr)
            return 3
    doc = dec.to_json()
    if args.format == "pretty":
        lines = [f"D={args.D}: {len(dec.modules)} irreducible modules"]
        for m in dec.modules:
            lines.append(f"  r={m.r} d={m.d} index={m.index} dim={m.dim}")
        lines.append("multiplicities: " + ", ".join(
            f"r={r}: {c}" for r, c in sorted(dec.multiplicities.items())))
        return _emit("\n".join(lines) + "\n", args.output)
    if args.format == "csv":
        return _emit(_csv_text(["r", "d", "index", "dim"],
                               ([m.r, m.d, m.index, m.dim]
                                for m in dec.modules)), args.output)
    return _emit(_json_text(doc), args.output)


def _cmd_module_report(args) -> int:
    ctx = build_context(args.D, args.d_limit)
    selected = [m for m in decomposition.decompose(ctx).modules
                if (args.r is None or m.r == args.r)
                and (args.index is None or m.index == args.index)]
    if not selected:
        return _usage_error("no module matches the given --r/--index")
    reports = []
    for m in selected:
        reports.append(leonard.module_report(leonard.build_six_bases(m)))
        _progress(f"  reported module r={m.r} index={m.index}")
    passed = [all(v["passed"] for ops in rep["rep_matrices"].values()
                  for v in ops.values())
              and all(rep["inner_products"].values())
              and not rep["transitions"]["failures"]
              and rep["leonard_triple"] == "true" for rep in reports]
    if args.format == "pretty":
        text = "".join(
            f"module r={rep['r']} index={rep['module_index']}: "
            f"{'all checks pass' if ok else 'FAILURES PRESENT'} "
            f"(leonard_triple={rep['leonard_triple']})\n"
            for rep, ok in zip(reports, passed))
    else:
        text = _json_text(reports)
    return _emit(text, args.output) or (0 if all(passed) else 1)


def _cmd_leonard_check(args) -> int:
    ctx = build_context(args.D, args.d_limit)
    results = []
    for m in decomposition.decompose(ctx).modules:
        f = m.frame
        verdict = leonard.is_leonard_triple(f.A, f.Astar, f.Aeps)
        results.append({"r": m.r, "index": m.index, "d": m.d,
                        "verdict": verdict.verdict,
                        "eigenvalue_order": list(verdict.eigenvalue_order)})
        _progress(f"  module r={m.r} index={m.index}: {verdict.verdict}")
    if args.format == "pretty":
        lines = [f"r={r['r']} index={r['index']} d={r['d']}: {r['verdict']}"
                 for r in results]
        code = _emit("\n".join(lines) + "\n", args.output)
    elif args.format == "csv":
        code = _emit(_csv_text(["r", "index", "d", "verdict"],
                               ([r["r"], r["index"], r["d"], r["verdict"]]
                                for r in results)), args.output)
    else:
        code = _emit(_json_text({"D": args.D, "modules": results}),
                     args.output)
    if code:
        return code
    return 0 if all(r["verdict"] == "true" for r in results) else 1


# -- argument parsing -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _build_parser() -> _Parser:
    p = _Parser(prog="tcube",
                description="Exact operators, module decomposition and "
                            "Leonard-triple verification for the hypercube.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, formats=("json", "csv", "pretty"), default="pretty"):
        sp.add_argument("--d", dest="D", type=int, required=True,
                        help="cube dimension")
        sp.add_argument("--d-limit", type=int, default=cube.DEFAULT_D_LIMIT,
                        help="largest allowed dimension "
                             f"(default {cube.DEFAULT_D_LIMIT})")
        sp.add_argument("--format", choices=formats, default=default)
        sp.add_argument("--output", default=None, help="write report here "
                        "instead of stdout")

    b = sub.add_parser("build", help="dump one operator")
    common(b, ("json",), "json")
    b.add_argument("--op", choices=BUILD_OPS, required=True)
    b.add_argument("--index", type=int, default=None,
                   help="index for distance/E/Estar/Eeps")

    v = sub.add_parser("verify", help="run a verification suite")
    common(v)
    v.add_argument("--suite", choices=SUITES, default="all")
    v.add_argument("--corrupt", choices=sorted(CORRUPT_OPS), default=None,
                   help="testing hook: flip one operator entry sign first")

    d = sub.add_parser("decompose", help="decompose the standard module")
    common(d)
    d.add_argument("--emit-seeds", action="store_true")
    d.add_argument("--output-dir", default=None,
                   help="directory for --emit-seeds files (default .)")

    m = sub.add_parser("module-report", help="per-module verification report")
    common(m, ("json", "pretty"))
    m.add_argument("--r", type=int, default=None)
    m.add_argument("--index", type=int, default=None)

    l = sub.add_parser("leonard-check", help="Leonard verdict per module")
    common(l)
    return p


_COMMANDS = {"build": _cmd_build, "verify": _cmd_verify,
             "decompose": _cmd_decompose, "module-report": _cmd_module_report,
             "leonard-check": _cmd_leonard_check}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.d_limit < 1:
        return _usage_error(f"--d-limit must be at least 1, got {args.d_limit}")
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VERIFY_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
