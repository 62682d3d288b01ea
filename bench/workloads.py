"""The benchmark's workloads, written against the public qcrelax API only.

Each workload is a list of lattice instances (made in set-up from the
workload seed) and a pass function that runs them through the pipeline

    homogenize -> aggregate pattern -> chordal -> build -> lower -> solve
    -> extract -> completion / recovery

the way a user of the package would.  A pass records one `Op` per solve,
lowering or export, and registers the correctness checks on its outputs
as deferred expectations, so that checking stays out of the timed section.

Why these four workloads: each puts most of its time in a different
layer, so a change to one layer shows on one workload and leaves the
others as its bypass.

* ssocp-lattice   -- the paper's headline S-SOCP path; SuperLU factorization
                     and the SOC step length dominate, no PSD code runs.
* fsocp-dense     -- F-SOCP, whose dense KKT system makes factorization
                     about 70% of the solve.
* psd-clique      -- F-SDP and S-SDP; the PSD cone code (KKT assembly and
                     the svec/smat-heavy cone operators) dominates.
* export-frontend -- no solve: chordal extension, build, lowering and SDPA
                     export, the layers every solve workload spends <= 2% in.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

#: constraints per lattice instance
M = 20
#: the seed the committed reference objectives were made with
DEFAULT_SEED = 0
#: agreement required between objectives that the paper proves equal
REL_TOL = 1e-6
#: the solver's tolerance, which bounds the dual identity residual after recovery
DUAL_RESIDUAL_TOL = 1e-8
#: negative eigenvalue allowed in a PSD completion, relative to its scale
PSD_TOL = 1e-10

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass
class Op:
    """One solve, one lowering or one export; what the checks read."""

    sf: object  # the lowered StandardForm
    objective: float | None = None  # program objective, for solves


@dataclass
class Pass:
    """Outputs of one pass over a workload's instances."""

    q: object  # the qcrelax package
    out_dir: Path
    ops: dict = field(default_factory=dict)
    expectations: list = field(default_factory=list)  # (op name, what, predicate)

    def expect(self, op, what, predicate):
        self.expectations.append((op, what, predicate))

    def solve(self, name, prog, form="P"):
        q = self.q
        sf = q.to_standard_form(prog, form)
        sol = q.solve(sf)
        self.ops[name] = Op(sf, q.program_objective(sf, sol))
        self.expect(name, f"status Optimal (got {sol.status})", lambda: sol.status == "Optimal")
        return sf, sol

    def lower(self, name, prog, form):
        self.ops[name] = Op(self.q.to_standard_form(prog, form))
        return self.ops[name].sf

    def same_objective(self, name, other):
        a, b = self.ops[name].objective, self.ops[other].objective
        self.expect(name, f"objective equals {other} to {REL_TOL:g}", lambda: close(a, b))

    def zero_fill(self, name, prog, sf, sol):
        """Zero-fill the pattern entries of an SOCP solution; it must lie in T+."""
        q = self.q
        entries = q.extract_entries(prog, q.variable_values(sf, sol))
        pattern = frozenset(k for k in entries if k[0] != k[1])
        X = q.zero_fill(q.PartialMatrix(prog.metadata["dim"], entries, pattern))
        self.expect(name, "zero_fill lands in T+", lambda: q.in_T_plus(X))

    def sdp_complete(self, name, prog, sf, sol, ext, cs):
        """Max-det completion of an S-SDP solution: PSD, known entries kept."""
        q = self.q
        entries = q.extract_entries(prog, q.variable_values(sf, sol))
        partial = q.PartialMatrix(prog.metadata["dim"], entries, ext.extended.edges)
        X = q.sdp_complete(partial, cs)

        def psd():
            scale = max(1.0, float(np.abs(X).max()))
            return float(np.linalg.eigvalsh(X)[0]) >= -PSD_TOL * scale

        def keeps_known():
            return all(X[i - 1, j - 1] == v for (i, j), v in partial.known.items())

        self.expect(name, "sdp_complete is PSD", psd)
        self.expect(name, "sdp_complete keeps the known entries", keeps_known)

    def recover(self, name, prog, sf, sol, data, pattern):
        """Sparse SOCP dual -> full dual -> sparse again; xi must not move."""
        q = self.q
        y, xi, W, w = q.extract_dual_parts(prog, q.variable_values(sf, sol))
        sparse = q.DualSolution(y, xi, W, w)
        full = q.sparse_to_full(sparse, pattern)
        back = q.full_to_sparse(full, pattern)
        residual = q.dual_residual(full, data)
        before = q.dual_residual(sparse, data)
        # the solver stops at a residual of 1e-8 relative to 1 + |b|, so that
        # is the bound the recovered identity can be held to
        bound = DUAL_RESIDUAL_TOL * (1.0 + float(np.linalg.norm(sf.b)))
        self.expect(name, "xi survives sparse_to_full and back bit for bit",
                    lambda: full.xi == xi and back.xi == xi)
        self.expect(name, "sparse_to_full leaves dual_residual unchanged",
                    lambda: residual == before)
        self.expect(name, f"dual_residual <= {DUAL_RESIDUAL_TOL:g} * (1 + |b|)",
                    lambda: residual <= bound)

    def export(self, name, sf):
        path = self.out_dir / "export.dat-s"
        self.q.export_sdpa(sf, path)
        self.ops[name] = Op(sf)
        self.expect(name, "exported .dat-s parses back to the lowered program",
                    lambda: sdpa_matches(path, sf))


def close(a, b):
    if a is None or b is None:
        return False
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def chordal_parts(q, pattern):
    ext = q.chordal_extension(q.Graph(pattern.dim, pattern.edges))
    cs = q.maximal_cliques(ext)
    return ext, cs, q.overlap_set(cs)


def sdpa_matches(path, sf):
    """Parse an SDPA sparse file and compare it with the (P) form it came from."""
    with open(path) as fh:
        m = int(fh.readline().split()[0])
        nblocks = int(fh.readline().split()[0])
        sizes = [int(s) for s in fh.readline().split()[:nblocks]]
        b = np.array(fh.readline().split(), dtype=float)
        rows = np.loadtxt(fh, ndmin=2)
    want = [blk.dim if blk.kind == "psd" else -blk.dim for blk in sf.K]
    if (m, sizes) != (sf.A.shape[0], want) or not np.array_equal(b, sf.b):
        return False
    offsets = np.cumsum([0] + [blk.scalar_len for blk in sf.K])
    r, blk, i, j, v = rows.T
    r, blk, i, j = (r.astype(int), blk.astype(int) - 1, i.astype(int) - 1, j.astype(int) - 1)
    side = np.array(sizes)[blk]
    # svec position of (i, j), i <= j, in a block of that side
    col = offsets[blk] + np.where(side > 0, i * side - i * (i - 1) // 2 + (j - i), i)
    v = np.where(i != j, v * math.sqrt(2.0), v)
    row = r > 0
    A = sp.csr_matrix((v[row], (r[row] - 1, col[row])), shape=sf.A.shape)
    c = np.zeros(sf.A.shape[1])
    np.add.at(c, col[~row], -v[~row])
    diff = abs(A - sf.A)
    tol = 1e-12 * max(1.0, float(abs(sf.A).max()))
    return bool(diff.max() <= tol and np.abs(c - sf.c).max() <= tol)


# -- the workloads --------------------------------------------------------------
#
# `instances(tiny)` lists (key, n_L); instance k of a workload with seed s is
# generated with LatticeSpec(n_L, M, seed=100 * s + k).  The tiny sizes are
# for the smoke test only.


def ssocp_lattice_instances(tiny):
    return [("L3", 3), ("L4", 4)] if tiny else [("L16", 16), ("L24", 24)]


def ssocp_lattice(p, inst):
    q = p.q
    first = next(iter(inst))
    for key, instance in inst.items():
        data = q.homogenize(instance)
        pattern = q.aggregate_pattern(data)
        prog = q.build_ssocp(data, pattern)
        name = f"ssocp-{key}-P"
        sf, sol = p.solve(name, prog, "P")
        p.zero_fill(name, prog, sf, sol)
        if key != first:
            continue
        # the (D) form drives the same solver through free/zero coordinates
        p.solve(f"ssocp-{key}-D", prog, "D")
        p.same_objective(f"ssocp-{key}-D", name)
        dual = q.build_dual_ssocp(data, pattern)
        dname = f"dual-ssocp-{key}-P"
        dsf, dsol = p.solve(dname, dual, "P")
        p.same_objective(dname, name)
        p.recover(dname, dual, dsf, dsol, data, pattern)


def fsocp_dense_instances(tiny):
    if tiny:
        return [("L3a", 3), ("L3b", 3)]
    return [("L6a", 6), ("L6b", 6), ("L5a", 5), ("L5b", 5), ("L5c", 5), ("L5d", 5)]


def fsocp_dense(p, inst):
    q = p.q
    for key, instance in inst.items():
        data = q.homogenize(instance)
        pattern = q.aggregate_pattern(data)
        full = q.build_fsocp(data)
        name = f"fsocp-{key}-P"
        sf, sol = p.solve(name, full, "P")
        p.zero_fill(name, full, sf, sol)
        p.solve(f"ssocp-{key}-P", q.build_ssocp(data, pattern), "P")
        p.same_objective(name, f"ssocp-{key}-P")


def psd_clique_instances(tiny):
    if tiny:
        return [("L4", 4), ("L3a", 3), ("L3b", 3)]
    return [("L8a", 8), ("L8b", 8), ("L5a", 5), ("L5b", 5), ("L5c", 5)]


#: S-SDP only where its clique blocks stay small; its PSD path is the slow one
SSDP_MAX_N_L = 6


def psd_clique(p, inst):
    q = p.q
    for key, instance in inst.items():
        data = q.homogenize(instance)
        pattern = q.aggregate_pattern(data)
        sname = f"ssocp-{key}-P"
        p.solve(sname, q.build_ssocp(data, pattern), "P")
        p.solve(f"fsdp-{key}-P", q.build_fsdp(data), "P")
        p.same_objective(f"fsdp-{key}-P", sname)
        if instance.n > SSDP_MAX_N_L**2:
            continue
        ext, cs, overlaps = chordal_parts(q, pattern)
        prog = q.build_ssdp(data, ext, cs, overlaps)
        name = f"ssdp-{key}-P"
        sf, sol = p.solve(name, prog, "P")
        p.same_objective(name, sname)
        p.sdp_complete(name, prog, sf, sol, ext, cs)


def export_frontend_instances(tiny):
    if tiny:
        return [("L4", 4), ("L3", 3), ("L3b", 3)]
    return [("L13", 13), ("L16", 16), ("L12", 12)]


def export_frontend(p, inst):
    q = p.q
    (ssdp_key, ssdp_inst), (fsocp_key, fsocp_inst), (dual_key, dual_inst) = inst.items()
    data = q.homogenize(ssdp_inst)
    pattern = q.aggregate_pattern(data)
    ext, cs, overlaps = chordal_parts(q, pattern)
    prog = q.build_ssdp(data, ext, cs, overlaps)
    sf = p.lower(f"ssdp-{ssdp_key}-P", prog, "P")
    p.lower(f"ssdp-{ssdp_key}-D", prog, "D")
    p.export(f"ssdp-{ssdp_key}-export", sf)
    for key, instance, builder, kind in (
        (fsocp_key, fsocp_inst, q.build_fsocp, "fsocp"),
        (dual_key, dual_inst, q.build_dual_fsocp, "dual-fsocp"),
    ):
        prog = builder(q.homogenize(instance))
        p.lower(f"{kind}-{key}-P", prog, "P")
        p.lower(f"{kind}-{key}-D", prog, "D")


WORKLOADS = {
    "ssocp-lattice": (ssocp_lattice_instances, ssocp_lattice),
    "fsocp-dense": (fsocp_dense_instances, fsocp_dense),
    "psd-clique": (psd_clique_instances, psd_clique),
    "export-frontend": (export_frontend_instances, export_frontend),
}


def make_instances(q, workload, seed, tiny=False):
    instances, _ = WORKLOADS[workload]
    return {
        key: q.gen_lattice(q.LatticeSpec(n_l, M, 100 * seed + k))
        for k, (key, n_l) in enumerate(instances(tiny))
    }


def run_pass(q, workload, inst, out_dir):
    p = Pass(q, Path(out_dir))
    WORKLOADS[workload][1](p, inst)
    return p


def warm_up(q, out_dir):
    """Run every layer once on a tiny instance, so lazy imports and first-call
    costs land in set-up rather than in the first timed pass."""
    tiny = q.gen_lattice(q.LatticeSpec(3, 3, 0))
    p = Pass(q, Path(out_dir))
    ssocp_lattice(p, {"L3": tiny})
    psd_clique(p, {"L3": tiny})
    export_frontend(p, {"L3": tiny, "L3b": tiny, "L3c": tiny})
    return p


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def reference_entry(op):
    entry = {"A_shape": list(op.sf.A.shape), "A_nnz": int(op.sf.A.nnz)}
    if op.objective is not None:
        entry["objective"] = op.objective
    return entry


def check_pass(p, workload, seed, reference):
    """Evaluate the pass's expectations; returns {op name: [failed checks]}.

    With a reference (full sizes), every op's lowered A must match the
    committed shape and nnz on any seed, since the lattice structure does
    not depend on the seed; objectives must match on the default seed.
    """
    failures = {name: [] for name in p.ops}
    for name, what, predicate in p.expectations:
        if not predicate():
            failures[name].append(what)
    if reference is not None:
        ref_ops = reference["workloads"][workload]
        if set(ref_ops) != set(p.ops):
            for name in set(ref_ops) ^ set(p.ops):
                failures.setdefault(name, []).append("op missing from the run or the reference")
        for name, op in p.ops.items():
            ref = ref_ops.get(name)
            if ref is None:
                continue
            got = reference_entry(op)
            if [got["A_shape"], got["A_nnz"]] != [ref["A_shape"], ref["A_nnz"]]:
                failures[name].append(f"A shape/nnz {got['A_shape']}/{got['A_nnz']} "
                                      f"!= reference {ref['A_shape']}/{ref['A_nnz']}")
            if seed == reference["seed"] and "objective" in ref and not close(op.objective, ref["objective"]):
                failures[name].append(f"objective {op.objective!r} != reference {ref['objective']!r}")
    return {name: what for name, what in failures.items() if what}
