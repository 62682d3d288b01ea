"""QCQP instances, homogenization and the aggregate sparsity pattern.

A QCQP is

    minimize    x' P0 x + 2 q0' x + r0
    subject to  x' Pk x + 2 qk' x + rk <= 0,   k = 1..m,

with x in R^n.  Homogenization lifts each data triple into a single
symmetric matrix over dimension n+1 with the block layout
[[r, q'], [q, P]], pinning X_11 = 1 through the matrix H0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .sparsemat import SparseSymMatrix


class MalformedInstanceError(ValueError):
    """QCQP data with inconsistent dimensions."""


@dataclass(frozen=True)
class QcqpInstance:
    n: int
    objective: tuple  # (P0: SparseSymMatrix, q0: ndarray, r0: float)
    constraints: tuple  # of (Pk, qk, rk)

    def __post_init__(self):
        p0, q0, _ = self.objective
        object.__setattr__(self, "objective", (p0, np.asarray(q0, dtype=float), float(self.objective[2])))
        object.__setattr__(
            self,
            "constraints",
            tuple((pk, np.asarray(qk, dtype=float), float(rk)) for pk, qk, rk in self.constraints),
        )
        for pk, qk, _ in (self.objective,) + self.constraints:
            if pk.dim != self.n:
                raise MalformedInstanceError(f"P has dim {pk.dim}, expected {self.n}")
            if qk.shape != (self.n,):
                raise MalformedInstanceError(f"q has shape {qk.shape}, expected ({self.n},)")

    @property
    def m(self) -> int:
        return len(self.constraints)

    def data(self):
        """All m+1 triples, objective first."""
        return (self.objective,) + self.constraints


@dataclass(frozen=True)
class HomogenizedData:
    dim: int  # n + 1
    Q: tuple  # Q0..Qm, SparseSymMatrix of dim n+1
    H0: SparseSymMatrix

    @property
    def m(self) -> int:
        return len(self.Q) - 1


@dataclass(frozen=True)
class AggregatePattern:
    dim: int
    edges: frozenset  # pairs (i, j), i < j
    isolated: frozenset  # vertices incident to no edge

    def __post_init__(self):
        e = np.array(list(self.edges), dtype=np.intp).reshape(len(self.edges), 2)
        bad = np.flatnonzero((e[:, 0] < 1) | (e[:, 0] >= e[:, 1]) | (e[:, 1] > self.dim))
        if bad.size:
            i, j = e[bad[0]]
            raise ValueError(f"bad edge ({i},{j}) for dim {self.dim}")


def homogenize(instance: QcqpInstance) -> HomogenizedData:
    """Lift (Pk, qk, rk) into Qk = [[rk, qk'], [qk, Pk]] over dim n+1.

    The entries of Qk are rk at (1, 1), then the nonzeros of qk in row 1,
    then the entries of Pk shifted by one, each part in its own order.
    """
    n = instance.n
    qs = []
    for pk, qk, rk in instance.data():
        r = np.array([rk] if abs(rk) > 0 else [])
        nz = np.flatnonzero(qk)
        head = np.ones(r.size + nz.size, dtype=np.intp)
        rows = np.concatenate([head, pk.rows + 1])
        cols = np.concatenate([head[: r.size], nz + 2, pk.cols + 1])
        qs.append(SparseSymMatrix.from_arrays(n + 1, rows, cols, np.concatenate([r, qk[nz], pk.vals])))
    h0 = SparseSymMatrix(n + 1, {(1, 1): 1.0})
    return HomogenizedData(n + 1, tuple(qs), h0)


def aggregate_pairs(data: HomogenizedData) -> np.ndarray:
    """The aggregate pattern as a sorted (edges, 2) array of pairs i < j."""
    N = data.dim
    # a sort and a mask: np.unique without return_inverse hashes, several times slower
    keys = np.sort(np.concatenate([(q.rows * (N + 1) + q.cols)[q.rows != q.cols] for q in data.Q]))
    keys = keys[np.append(True, keys[1:] != keys[:-1])] if keys.size else keys
    return np.stack(np.divmod(keys, N + 1), axis=1)


def aggregate_pattern(data: HomogenizedData) -> AggregatePattern:
    """Union of the off-diagonal supports of Q0..Qm (diagonals never count)."""
    i, j = aggregate_pairs(data).T
    touched = np.zeros(data.dim + 1, dtype=bool)
    touched[i] = touched[j] = True
    isolated = frozenset((np.flatnonzero(~touched[1:]) + 1).tolist())
    return AggregatePattern(data.dim, frozenset(zip(i.tolist(), j.tolist())), isolated)


# -- JSON instance schema ---------------------------------------------------
#
# {"n": int, "m": int,
#  "objective": {"P": [[i, j, v], ...], "q": [...], "r": v},
#  "constraints": [ ... same shape ... ]}
#
# Triplets are 1-based and upper-triangular.


def _triple_to_matrix(trips, n):
    t = np.array(trips, dtype=float).reshape(len(trips), 3)
    return SparseSymMatrix.from_arrays(n, t[:, 0], t[:, 1], t[:, 2])


def _matrix_to_triples(p: SparseSymMatrix):
    o = np.lexsort((p.cols, p.rows))
    return list(map(list, zip(p.rows[o].tolist(), p.cols[o].tolist(), p.vals[o].tolist())))


def instance_to_dict(inst: QcqpInstance) -> dict:
    def block(p, q, r):
        return {"P": _matrix_to_triples(p), "q": q.tolist(), "r": float(r)}

    return {
        "n": inst.n,
        "m": inst.m,
        "objective": block(*inst.objective),
        "constraints": [block(*c) for c in inst.constraints],
    }


def instance_from_dict(d: dict) -> QcqpInstance:
    def block(b):
        return (_triple_to_matrix(b["P"], n), np.asarray(b["q"], dtype=float), float(b["r"]))

    try:
        n, m = int(d["n"]), int(d["m"])
        inst = QcqpInstance(n, block(d["objective"]), tuple(block(b) for b in d["constraints"]))
    except (KeyError, TypeError) as exc:
        raise MalformedInstanceError(f"missing or mistyped field {exc}") from exc
    if inst.m != m:
        raise MalformedInstanceError(f"declared m={m} but found {inst.m} constraints")
    return inst


def save_instance(inst: QcqpInstance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_instance(path) -> QcqpInstance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))
