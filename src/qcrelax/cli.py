"""Command-line driver: generate instances, solve relaxations, compare.

Exit codes: 0 success, 1 solve failure, 2 usage error; a usage error is
reported, as an `error:` line on stderr, before anything is solved.  The
default solver tolerance can be overridden with the CONIC_SOLVER_TOL
environment variable or the --tol flag (the flag wins).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import build
from .chordal import chordal_parts
from .completion import PartialMatrix, zero_fill
from .generators import LatticeSpec, ZeroDiagSpec, gen_lattice, gen_zero_diag
from .model import (
    aggregate_pattern,
    homogenize,
    load_instance,
    save_instance,
)
from .program import (
    export_sdpa,
    program_objective,
    standard_form_to_json,
    to_standard_form,
    variable_values,
)
from .solver import SolverConfig, solve

RELAXATIONS = ("fsdp", "ssdp", "fsocp", "ssocp", "dual-fsocp", "dual-ssocp")

#: what a missing, unreadable or unusable instance raises on its way to a
#: solve: IO errors, and the ValueError subclasses of loading, building and
#: lowering (MalformedInstanceError, BuildError, LoweringError, ...)
INPUT_ERRORS = (OSError, ValueError)

CSV_HEADER = (
    "instance,relaxation,form,status,variables,constraints,"
    "nonneg,soc,psd,free,iterations,wall_time_s,objective,pres,dres,gap"
)


class UsageError(Exception):
    """A command line that cannot run; `main` reports it before any solve, with exit code 2."""


def _solver_config(args) -> SolverConfig:
    env = os.environ.get("CONIC_SOLVER_TOL")
    try:
        if args.tol is not None:
            tol = args.tol
        else:
            tol = 1e-8 if env is None else float(env)
        return SolverConfig(tol_gap=tol, tol_primal=tol, tol_dual=tol)
    except ValueError as exc:
        raise UsageError(f"invalid solver tolerance: {exc}") from None


def _build_relaxation(name, data, pattern):
    if name == "fsdp":
        return build.build_fsdp(data)
    if name == "ssdp":
        return build.build_ssdp(data, *chordal_parts(pattern))
    if name == "fsocp":
        return build.build_fsocp(data)
    if name == "ssocp":
        return build.build_ssocp(data, pattern)
    if name == "dual-fsocp":
        return build.build_dual_fsocp(data)
    if name == "dual-ssocp":
        return build.build_dual_ssocp(data, pattern)
    raise ValueError(f"unknown relaxation {name!r}")


def _run_one(inst, name, relax, form, cfg):
    """Solve one relaxation of a loaded instance; its record is labelled `name`."""
    data = homogenize(inst)
    pattern = aggregate_pattern(data)
    prog = _build_relaxation(relax, data, pattern)
    sf = to_standard_form(prog, form)
    t0 = time.perf_counter()
    sol = solve(sf, cfg)
    wall = time.perf_counter() - t0
    inv = prog.cone_inventory()
    rec = {
        "instance": name,
        "relaxation": relax,
        "form": form,
        "status": sol.status,
        "variables": prog.num_vars,
        "constraints": prog.num_rows("eq") + prog.num_rows("ineq") + len(prog.soc_dims),
        "cones": inv,
        "iterations": sol.iterations,
        "wall_time_s": round(wall, 4),
        "objective": program_objective(sf, sol) if sol.status == "Optimal" else None,
        "residuals": {
            "pres": sol.residuals[0],
            "dres": sol.residuals[1],
            "gap": sol.residuals[2],
        },
    }
    return rec, prog, sf, sol


def _record_csv(rec) -> str:
    inv = rec["cones"]
    obj = "" if rec["objective"] is None else f"{rec['objective']:.10g}"
    r = rec["residuals"]
    return ",".join(
        [
            rec["instance"],
            rec["relaxation"],
            rec["form"],
            rec["status"],
            str(rec["variables"]),
            str(rec["constraints"]),
            str(inv["nonneg"]),
            str(inv["soc"]),
            str(inv["psd"]),
            str(inv["free"]),
            str(rec["iterations"]),
            f"{rec['wall_time_s']:.4f}",
            obj,
            f"{r['pres']:.3e}",
            f"{r['dres']:.3e}",
            f"{r['gap']:.3e}",
        ]
    )


def cmd_generate(args) -> int:
    try:  # the specs reject out-of-range sizes
        if args.family == "lattice":
            spec, gen = LatticeSpec(args.nl, args.m, args.seed), gen_lattice
        else:
            spec, gen = ZeroDiagSpec(args.n, args.m, args.density, args.seed), gen_zero_diag
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    inst = gen(spec)
    save_instance(inst, args.output)
    print(f"wrote {args.output} (n={inst.n}, m={inst.m})")
    return 0


def _emit_completion(prog, sf, sol, path, compact):
    inst_dim = prog.metadata["dim"]
    entries = build.extract_entries(prog, variable_values(sf, sol))
    pattern = frozenset(k for k in entries if k[0] != k[1])
    partial = PartialMatrix(inst_dim, dict(entries), pattern)
    if compact:
        # the nonzeros of the upper triangle of the zero-fill completion, row-major
        upper = [[i, j, v] for (i, j), v in sorted(partial.known.items()) if v != 0.0]
        doc = {"dim": inst_dim, "upper": upper}
    else:
        doc = {"dim": inst_dim, "rows": [list(map(float, row)) for row in zero_fill(partial)]}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def cmd_solve(args) -> int:
    if args.emit_completion and args.relax != "ssocp":
        raise UsageError("--emit-completion requires --relax ssocp")
    cfg = _solver_config(args)
    try:
        inst = load_instance(args.instance)
        rec, prog, sf, sol = _run_one(inst, args.instance, args.relax, args.form, cfg)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.csv:
        print(CSV_HEADER)
        print(_record_csv(rec))
    else:
        print(json.dumps(rec))
    if args.emit_completion:
        _emit_completion(prog, sf, sol, args.emit_completion, args.compact)
    return 0 if rec["status"] == "Optimal" else 1


def cmd_compare(args) -> int:
    relaxations = [r.strip() for r in args.relax.split(",") if r.strip()]
    if not relaxations:
        raise UsageError("empty relaxation list")
    for r in relaxations:
        if r not in RELAXATIONS:
            raise UsageError(f"unknown relaxation {r!r}")
    sizes = args.sweep_nl.split(",") if args.sweep_nl else []
    try:
        sweep = [LatticeSpec(int(v), args.m, args.seed) for v in sizes]
    except ValueError as exc:
        raise UsageError(f"invalid --sweep-nl {args.sweep_nl!r}: {exc}") from None
    if not (args.instances or sweep):
        raise UsageError("no instances given (pass files or --sweep-nl)")
    cfg = _solver_config(args)

    text, statuses = _compare_table(
        _compare_instances(args.instances, sweep), relaxations, args.form, cfg, args.out
    )
    # a table with no row, or with a row that is not Optimal, is a solve failure
    rc = 0 if statuses and all(st == "Optimal" for st in statuses) else 1
    if not args.out:
        sys.stdout.write(text)
        return rc
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.out} ({len(statuses)} rows)")
    return rc


def _compare_instances(paths, sweep):
    """(label, instance) pairs: each file, loaded once, then each swept lattice.

    A file that cannot be loaded is skipped with a warning.
    """
    for path in paths:
        try:
            yield path, load_instance(path)
        except INPUT_ERRORS as exc:
            print(f"warning: cannot load {path}: {exc}", file=sys.stderr)
    for spec in sweep:
        yield f"lattice-nl{spec.n_L}-m{spec.m}-seed{spec.seed}", gen_lattice(spec)


def _compare_table(instances, relaxations, form, cfg, out):
    """The table of (label, instance) pairs as CSV, or Markdown when `out` ends in .md.

    Returns the table's text and the status of each of its rows.
    """
    rows, statuses = [], []
    for name, inst in instances:
        recs = {}
        for relax in relaxations:
            try:
                rec, _, _, _ = _run_one(inst, name, relax, form, cfg)
            except INPUT_ERRORS as exc:
                print(f"warning: {relax} on {name} failed: {exc}", file=sys.stderr)
                continue
            recs[relax] = rec
        objs = [
            r["objective"] for r in recs.values() if r["objective"] is not None
        ]
        ref = objs[0] if objs else None
        for relax in relaxations:
            if relax not in recs:
                continue
            rec = recs[relax]
            obj = rec["objective"]
            if obj is None or ref is None:
                agree = ""
            else:
                agree = "OK" if abs(obj - ref) <= 1e-6 * (1 + abs(ref)) else "DIFF"
            ratio = ""
            if (
                relax == "ssocp"
                and "fsocp" in recs
                and rec["wall_time_s"] > 0
            ):
                ratio = f"{recs['fsocp']['wall_time_s'] / rec['wall_time_s']:.2f}"
            rows.append((_record_csv(rec), agree, ratio))
            statuses.append(rec["status"])

    header = CSV_HEADER + ",agreement,fsocp_ssocp_time_ratio"
    if out and out.endswith(".md"):
        cols = header.split(",")
        md = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
        for r, a, t in rows:
            md.append("| " + " | ".join(r.split(",") + [a, t]) + " |")
        return "\n".join(md) + "\n", statuses
    lines = [header] + [f"{r},{a},{t}" for r, a, t in rows]
    return "\n".join(lines) + "\n", statuses


def cmd_export(args) -> int:
    if args.format == "sdpa" and args.relax not in ("fsdp", "ssdp"):
        raise UsageError("sdpa export needs a pure-SDP relaxation")
    try:
        data = homogenize(load_instance(args.instance))
        prog = _build_relaxation(args.relax, data, aggregate_pattern(data))
        sf = to_standard_form(prog, "P")
        if args.format == "sdpa":
            export_sdpa(sf, args.output)
        else:
            with open(args.output, "w") as fh:
                fh.write(standard_form_to_json(sf))
                fh.write("\n")
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.output}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qcrelax", description="QCQP conic relaxation toolkit"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a random instance")
    gs = g.add_subparsers(dest="family", required=True)
    gl = gs.add_parser("lattice", help="lattice-structured QCQP")
    gl.add_argument("--nl", type=int, required=True)
    gl.add_argument("--m", type=int, required=True)
    gl.add_argument("--seed", type=int, default=0)
    gl.add_argument("-o", "--output", required=True)
    gz = gs.add_parser("zerodiag", help="zero-diagonal QCQP")
    gz.add_argument("--n", type=int, required=True)
    gz.add_argument("--m", type=int, required=True)
    gz.add_argument("--density", type=float, required=True)
    gz.add_argument("--seed", type=int, default=0)
    gz.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="solve one relaxation")
    s.add_argument("instance")
    s.add_argument("--relax", choices=RELAXATIONS, required=True)
    s.add_argument("--form", choices=("P", "D"), default="P")
    s.add_argument("--tol", type=float, default=None)
    s.add_argument("--csv", action="store_true", help="CSV instead of JSON")
    s.add_argument("--emit-completion", metavar="PATH", default=None)
    s.add_argument("--compact", action="store_true", help="upper triangle only")
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("compare", help="solve several relaxations and tabulate")
    c.add_argument("instances", nargs="*")
    c.add_argument("--relax", required=True, help="comma-separated list")
    c.add_argument("--form", choices=("P", "D"), default="P")
    c.add_argument("--tol", type=float, default=None)
    c.add_argument("--sweep-nl", default=None, help="comma-separated lattice sizes")
    c.add_argument("--m", type=int, default=10)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", default=None, help=".csv or .md output path")
    c.set_defaults(func=cmd_compare)

    e = sub.add_parser("export", help="export a lowered relaxation")
    e.add_argument("instance")
    e.add_argument("--relax", choices=RELAXATIONS, required=True)
    e.add_argument("--format", choices=("sdpa", "json"), default="json")
    e.add_argument("-o", "--output", required=True)
    e.set_defaults(func=cmd_export)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
