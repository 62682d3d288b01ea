"""Command-line driver: generate instances, solve relaxations, compare.

Exit codes: 0 success, 1 solve failure or input error, 2 usage error.  An
input error (an instance that cannot be loaded or used, or an output that
cannot be written) ends any subcommand with one `error:` line on stderr,
after whatever the command printed before it; `compare` instead skips an
instance it cannot load, or a relaxation that fails on it, with a warning.
A usage error, such as `--compact` without `--emit-completion`, is reported
the same way before anything is solved.  A name repeated in `compare --relax`
counts once.  The default solver tolerance can be overridden with the
CONIC_SOLVER_TOL environment variable or the --tol flag (the flag wins).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

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

#: each relaxation's builder, called as builder(data, pattern)
BUILDERS = {
    "fsdp": lambda data, pattern: build.build_fsdp(data),
    "ssdp": lambda data, pattern: build.build_ssdp(data, *chordal_parts(pattern)),
    "fsocp": lambda data, pattern: build.build_fsocp(data),
    "ssocp": build.build_ssocp,
    "dual-fsocp": lambda data, pattern: build.build_dual_fsocp(data),
    "dual-ssocp": build.build_dual_ssocp,
}
RELAXATIONS = tuple(BUILDERS)

#: what a missing, unreadable or unusable instance or an unwritable output
#: raises: IO errors, and the ValueError subclasses of loading, building and
#: lowering (MalformedInstanceError, BuildError, LoweringError, ...)
INPUT_ERRORS = (OSError, ValueError)

#: the columns of a run record's CSV row, in order, each with the format of
#: its value; the cone counts and residuals are read from their sub-records,
#: and a value that is missing or None (no objective) is written empty
COLUMNS = (
    ("instance", "{}"),
    ("relaxation", "{}"),
    ("form", "{}"),
    ("status", "{}"),
    ("variables", "{}"),
    ("constraints", "{}"),
    ("nonneg", "{}"),
    ("soc", "{}"),
    ("psd", "{}"),
    ("free", "{}"),
    ("iterations", "{}"),
    ("wall_time_s", "{:.4f}"),
    ("objective", "{:.10g}"),
    ("pres", "{:.3e}"),
    ("dres", "{:.3e}"),
    ("gap", "{:.3e}"),
)
CSV_HEADER = ",".join(col for col, _ in COLUMNS)
#: the columns of a `compare` table: a record's, then the comparison's
COMPARE_COLUMNS = COLUMNS + (("agreement", "{}"), ("fsocp_ssocp_time_ratio", "{:.2f}"))


class UsageError(Exception):
    """A command line that cannot run; `main` reports it before any solve, with exit code 2."""


def _solver_config(args) -> SolverConfig:
    tol = os.environ.get("CONIC_SOLVER_TOL", 1e-8) if args.tol is None else args.tol
    try:
        tol = float(tol)
        return SolverConfig(tol_gap=tol, tol_primal=tol, tol_dual=tol)
    except ValueError as exc:
        raise UsageError(f"invalid solver tolerance: {exc}") from None


def _prepare(inst):
    """The homogenized data of an instance and its aggregate sparsity pattern."""
    data = homogenize(inst)
    return data, aggregate_pattern(data)


def _run_one(data, pattern, name, relax, form, cfg):
    """Solve one relaxation of prepared data; its record is labelled `name`."""
    prog = BUILDERS[relax](data, pattern)
    sf = to_standard_form(prog, form)
    t0 = time.perf_counter()
    sol = solve(sf, cfg)
    wall = time.perf_counter() - t0
    rec = {
        "instance": name,
        "relaxation": relax,
        "form": form,
        "status": sol.status,
        "variables": prog.num_vars,
        "constraints": prog.num_rows("eq") + prog.num_rows("ineq") + len(prog.soc_dims),
        "cones": prog.cone_inventory(),
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


def _record_fields(rec, columns=COLUMNS) -> list:
    """The fields of a run record, one per entry of `columns`."""
    flat = {**rec, **rec["cones"], **rec["residuals"]}
    return ["" if flat.get(col) is None else fmt.format(flat[col]) for col, fmt in columns]


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
    if args.compact and not args.emit_completion:
        raise UsageError("--compact requires --emit-completion")
    cfg = _solver_config(args)
    data, pattern = _prepare(load_instance(args.instance))
    rec, prog, sf, sol = _run_one(data, pattern, args.instance, args.relax, args.form, cfg)
    if args.csv:
        print(CSV_HEADER)
        print(",".join(_record_fields(rec)))
    else:
        print(json.dumps(rec))
    if args.emit_completion:
        _emit_completion(prog, sf, sol, args.emit_completion, args.compact)
    return 0 if rec["status"] == "Optimal" else 1


def cmd_compare(args) -> int:
    # each name once, in first-seen order
    relaxations = list(dict.fromkeys(r.strip() for r in args.relax.split(",") if r.strip()))
    if not relaxations:
        raise UsageError("empty relaxation list")
    for r in relaxations:
        if r not in BUILDERS:
            raise UsageError(f"unknown relaxation {r!r}")
    sizes = args.sweep_nl.split(",") if args.sweep_nl else []
    try:
        sweep = [LatticeSpec(int(v), args.m, args.seed) for v in sizes]
    except ValueError as exc:
        raise UsageError(f"invalid --sweep-nl {args.sweep_nl!r}: {exc}") from None
    if not (args.instances or sweep):
        raise UsageError("no instances given (pass files or --sweep-nl)")
    cfg = _solver_config(args)

    recs = _compare_table(_compare_instances(args.instances, sweep), relaxations, args.form, cfg)
    text = _render(recs, markdown=bool(args.out) and args.out.endswith(".md"))
    # a table with no row, or with a row that is not Optimal, is a solve failure
    rc = 0 if recs and all(rec["status"] == "Optimal" for rec in recs) else 1
    if not args.out:
        sys.stdout.write(text)
        return rc
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"wrote {args.out} ({len(recs)} rows)")
    return rc


def _compare_instances(paths, sweep):
    """(label, data, pattern) triples: each file, then each swept lattice, prepared once.

    A file that cannot be loaded is skipped with a warning.
    """
    for path in paths:
        try:
            yield path, *_prepare(load_instance(path))
        except INPUT_ERRORS as exc:
            print(f"warning: cannot load {path}: {exc}", file=sys.stderr)
    for spec in sweep:
        yield f"lattice-nl{spec.n_L}-m{spec.m}-seed{spec.seed}", *_prepare(gen_lattice(spec))


def _compare_table(instances, relaxations, form, cfg):
    """The records of the comparison table's rows, each with its agreement and time ratio."""
    rows = []
    for name, data, pattern in instances:
        recs = {}
        for relax in relaxations:
            try:
                recs[relax], _, _, _ = _run_one(data, pattern, name, relax, form, cfg)
            except INPUT_ERRORS as exc:
                print(f"warning: {relax} on {name} failed: {exc}", file=sys.stderr)
        objs = [r["objective"] for r in recs.values() if r["objective"] is not None]
        ref = objs[0] if objs else None
        for relax, rec in recs.items():
            obj = rec["objective"]
            if obj is not None and ref is not None:
                rec["agreement"] = "OK" if abs(obj - ref) <= 1e-6 * (1 + abs(ref)) else "DIFF"
            if relax == "ssocp" and "fsocp" in recs and rec["wall_time_s"] > 0:
                rec["fsocp_ssocp_time_ratio"] = recs["fsocp"]["wall_time_s"] / rec["wall_time_s"]
        rows += recs.values()
    return rows


def _render(recs, markdown):
    """The comparison table of `recs` as CSV, or as Markdown."""
    table = [[col for col, _ in COMPARE_COLUMNS]]
    table += [_record_fields(rec, COMPARE_COLUMNS) for rec in recs]
    if not markdown:
        return "".join(",".join(r) + "\n" for r in table)
    md = ["| " + " | ".join(r) + " |" for r in table]
    md.insert(1, "|" + "---|" * len(COMPARE_COLUMNS))
    return "\n".join(md) + "\n"


def cmd_export(args) -> int:
    if args.format == "sdpa" and args.relax not in ("fsdp", "ssdp"):
        raise UsageError("sdpa export needs a pure-SDP relaxation")
    prog = BUILDERS[args.relax](*_prepare(load_instance(args.instance)))
    sf = to_standard_form(prog, "P")
    if args.format == "sdpa":
        export_sdpa(sf, args.output)
    else:
        with open(args.output, "w") as fh:
            fh.write(standard_form_to_json(sf))
            fh.write("\n")
    print(f"wrote {args.output}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qcrelax", description="QCQP conic relaxation toolkit"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a random instance")
    gs = g.add_subparsers(dest="family", required=True)
    instance_opts = argparse.ArgumentParser(add_help=False)  # shared by both families
    instance_opts.add_argument("--m", type=int, required=True)
    instance_opts.add_argument("--seed", type=int, default=0)
    instance_opts.add_argument("-o", "--output", required=True)
    gl = gs.add_parser("lattice", parents=[instance_opts], help="lattice-structured QCQP")
    gl.add_argument("--nl", type=int, required=True)
    gz = gs.add_parser("zerodiag", parents=[instance_opts], help="zero-diagonal QCQP")
    gz.add_argument("--n", type=int, required=True)
    gz.add_argument("--density", type=float, required=True)
    g.set_defaults(func=cmd_generate)

    solver_opts = argparse.ArgumentParser(add_help=False)  # shared by solve and compare
    solver_opts.add_argument("--form", choices=("P", "D"), default="P")
    solver_opts.add_argument("--tol", type=float, default=None)

    s = sub.add_parser("solve", parents=[solver_opts], help="solve one relaxation")
    s.add_argument("instance")
    s.add_argument("--relax", choices=RELAXATIONS, required=True)
    s.add_argument("--csv", action="store_true", help="CSV instead of JSON")
    s.add_argument("--emit-completion", metavar="PATH", default=None)
    s.add_argument("--compact", action="store_true", help="upper triangle only")
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser(
        "compare", parents=[solver_opts], help="solve several relaxations and tabulate"
    )
    c.add_argument("instances", nargs="*")
    c.add_argument("--relax", required=True, help="comma-separated list")
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
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
