"""Sparse linear programs and the simplex solve behind every optimization.

The solver contract: minimize obj over bounded variables subject to rows
with senses <=, =, >=. Solutions carry row duals in the
``dual = d(objective)/d(rhs)`` convention (so a binding demand-balance
equality prices energy directly) plus reduced costs ``z = c - A^T y``.

Optimal solutions are KKT-checked before being returned:

    primal  max constraint/bound violation      <= 1e-7 * (1 + ||rhs||inf)
    dual    max reduced-cost sign violation     <= 1e-7 * (1 + ||c||inf)
    compl   relative duality gap                <= 1e-6

The backend is HiGHS dual simplex via scipy, which is deterministic for a
fixed input and returns basic solutions (exact complementarity up to
round-off). Numerical breakdown surfaces as SolverNumericsError, never as a
silently wrong Solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

LE, EQ, GE = "<=", "==", ">="

PRIMAL_TOL = 1e-7
DUAL_TOL = 1e-7
COMPL_TOL = 1e-6


class SolverNumericsError(RuntimeError):
    """The backend failed to produce a trustworthy solution."""


@dataclass
class LinearProgram:
    obj: np.ndarray  # (n,)
    lo: np.ndarray  # (n,)
    hi: np.ndarray  # (n,), np.inf allowed
    senses: np.ndarray  # (m,) of LE / EQ / GE
    rhs: np.ndarray  # (m,)
    a_matrix: sp.csr_matrix  # (m, n)
    obj_offset: float = 0.0

    @property
    def n_vars(self) -> int:
        return int(self.obj.size)

    @property
    def n_rows(self) -> int:
        return int(self.rhs.size)

    def dump(self, path: str) -> None:
        """Plain-text sparse dump: an objective section (index coefficient),
        a bounds section (index lo hi), a rows section (index sense rhs) and
        a triplets section (row col coefficient)."""
        coo = self.a_matrix.tocoo()
        with open(path, "w") as fh:
            fh.write(f"min {self.n_vars} {self.n_rows} offset {self.obj_offset!r}\n")
            fh.write("objective\n")
            for j in np.nonzero(self.obj)[0]:
                fh.write(f"{j} {self.obj[j]!r}\n")
            fh.write("bounds\n")
            for j in range(self.n_vars):
                fh.write(f"{j} {self.lo[j]!r} {self.hi[j]!r}\n")
            fh.write("rows\n")
            for i in range(self.n_rows):
                fh.write(f"{i} {self.senses[i]} {self.rhs[i]!r}\n")
            fh.write("triplets\n")
            for i, j, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{i} {j} {v!r}\n")


class LpBuilder:
    """Construction in column and row blocks; var and row are the
    one-element cases, and their names are not stored. Zero coefficients
    are dropped and duplicate (row, column) entries are summed."""

    def __init__(self):
        self._n = 0
        self._m = 0
        self._obj: list[np.ndarray] = []
        self._lo: list[np.ndarray] = []
        self._hi: list[np.ndarray] = []
        self._senses: list[np.ndarray] = []
        self._rhs: list[np.ndarray] = []
        self._ai: list[np.ndarray] = []
        self._aj: list[np.ndarray] = []
        self._av: list[np.ndarray] = []
        self.obj_offset = 0.0

    def vars(self, n: int, lo=0.0, hi=np.inf, obj=0.0) -> np.ndarray:
        """n columns; lo, hi and obj are scalars or (n,) arrays."""
        for parts, value in ((self._lo, lo), (self._hi, hi), (self._obj, obj)):
            block = np.empty(n)
            block[:] = value
            parts.append(block)
        self._n += n
        return np.arange(self._n - n, self._n)

    def rows(self, senses, rhs, rows, cols, vals) -> np.ndarray:
        """len(rhs) rows; senses is one sense or one per row, and rows are
        local (0 is this block's first row)."""
        rhs = np.asarray(rhs, dtype=float)
        m = rhs.size
        block = np.full(m, senses) if np.ndim(senses) == 0 else np.asarray(senses)
        bad = (block != LE) & (block != EQ) & (block != GE)
        if bad.any():
            raise ValueError(f"bad sense {str(block[bad][0])!r}")
        vals = np.asarray(vals, dtype=float)
        keep = vals != 0.0
        self._senses.append(block)
        self._rhs.append(rhs)
        self._ai.append(np.asarray(rows, dtype=int)[keep] + self._m)
        self._aj.append(np.asarray(cols, dtype=int)[keep])
        self._av.append(vals[keep])
        self._m += m
        return np.arange(self._m - m, self._m)

    def var(self, name: str, lo: float = 0.0, hi: float = np.inf, obj: float = 0.0) -> int:
        return int(self.vars(1, lo, hi, obj)[0])

    def row(self, name: str, sense: str, rhs: float, terms) -> int:
        terms = list(terms)
        cols, vals = [j for j, _v in terms], [v for _j, v in terms]
        return int(self.rows(sense, [rhs], np.zeros(len(terms)), cols, vals)[0])

    def build(self) -> LinearProgram:
        def cat(parts, dtype):
            return np.concatenate(parts) if parts else np.zeros(0, dtype)

        a = sp.coo_matrix(
            (cat(self._av, float), (cat(self._ai, int), cat(self._aj, int))),
            shape=(self._m, self._n),
            dtype=float,
        ).tocsr()
        a.sum_duplicates()
        return LinearProgram(
            obj=cat(self._obj, float),
            lo=cat(self._lo, float),
            hi=cat(self._hi, float),
            senses=cat(self._senses, "<U2"),
            rhs=cat(self._rhs, float),
            a_matrix=a,
            obj_offset=self.obj_offset,
        )


@dataclass(frozen=True)
class KktResiduals:
    primal: float  # max violation, absolute
    dual: float  # max reduced-cost sign violation, absolute
    compl: float  # relative duality gap
    primal_scale: float
    dual_scale: float

    def ok(self) -> bool:
        return (
            self.primal <= PRIMAL_TOL * self.primal_scale
            and self.dual <= DUAL_TOL * self.dual_scale
            and self.compl <= COMPL_TOL
        )


@dataclass
class Solution:
    status: str  # optimal | infeasible | unbounded
    objective: float | None
    x: np.ndarray | None
    row_duals: np.ndarray | None  # d(objective)/d(rhs) per row
    reduced_costs: np.ndarray | None  # c - A^T y
    kkt: KktResiduals | None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


_BOUND_ACTIVE_TOL = 1e-9


def kkt_residuals(lp: LinearProgram, x: np.ndarray, y: np.ndarray) -> KktResiduals:
    le = lp.senses == LE
    ge = lp.senses == GE
    gap = lp.a_matrix @ x - lp.rhs
    row_primal = np.where(le, gap, np.where(ge, -gap, np.abs(gap)))
    # max() keeps its first argument on ties, so an all-zero residual is
    # +0.0 as in a running maximum started at 0.0
    primal = max(
        0.0,
        float(np.max(row_primal, initial=0.0)),
        float(np.max(lp.lo - x, initial=0.0)),
        float(np.max(x - lp.hi, initial=0.0)),
    )

    z = lp.obj - lp.a_matrix.T @ y
    # LE duals must be <= 0, GE duals >= 0; equalities impose nothing
    row_dual = np.where(le, y, np.where(ge, -y, 0.0))
    span = lp.hi - lp.lo
    at_lo = (x - lp.lo) <= _BOUND_ACTIVE_TOL * (1.0 + np.abs(lp.lo))
    at_hi = (lp.hi - x) <= _BOUND_ACTIVE_TOL * (1.0 + np.abs(lp.hi))
    fixed = span <= _BOUND_ACTIVE_TOL  # fixed columns impose nothing on z
    col_dual = np.where(fixed, 0.0, np.where(at_lo, -z, np.where(at_hi, z, np.abs(z))))
    dual = max(0.0, float(np.max(row_dual, initial=0.0)), float(np.max(col_dual, initial=0.0)))

    # complementarity as the relative duality gap with sign-clipped reduced
    # costs (wrong signs are already charged to the dual residual)
    primal_obj = float(lp.obj @ x)
    dual_obj = float(lp.rhs @ y)
    zp = np.where(z > 0, z, 0.0)
    zn = np.where(z < 0, z, 0.0)
    lo_term = np.where(np.isfinite(lp.lo), lp.lo, 0.0) * zp
    hi_term = np.where(np.isfinite(lp.hi), lp.hi, 0.0) * zn
    dual_obj += float(lo_term.sum() + hi_term.sum())
    compl = abs(primal_obj - dual_obj) / (1.0 + abs(primal_obj))

    return KktResiduals(
        primal=float(primal),
        dual=float(dual),
        compl=float(compl),
        primal_scale=1.0 + float(np.max(np.abs(lp.rhs), initial=0.0)),
        dual_scale=1.0 + float(np.max(np.abs(lp.obj), initial=0.0)),
    )


def solve_simplex(lp: LinearProgram, check: bool = True) -> Solution:
    """Solve to optimality (or prove infeasible/unbounded) deterministically."""
    # HiGHS via linprog takes A_ub x <= b_ub: LE rows, then negated GE rows
    le_rows = np.nonzero(lp.senses == LE)[0]
    ge_rows = np.nonzero(lp.senses == GE)[0]
    eq_rows = np.nonzero(lp.senses == EQ)[0]
    ub_rows = np.concatenate([le_rows, ge_rows])
    a_ub = b_ub = a_eq = b_eq = None
    if ub_rows.size:
        sign = np.repeat([1.0, -1.0], [le_rows.size, ge_rows.size])
        a_ub = lp.a_matrix[ub_rows]
        a_ub.data *= np.repeat(sign, np.diff(a_ub.indptr))
        b_ub = sign * lp.rhs[ub_rows]
    if eq_rows.size:
        a_eq = lp.a_matrix[eq_rows]
        b_eq = lp.rhs[eq_rows]

    res = linprog(
        c=lp.obj,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=np.column_stack([lp.lo, lp.hi]),
        method="highs-ds",
    )

    if res.status == 2:
        return Solution("infeasible", None, None, None, None, None)
    if res.status == 3:
        return Solution("unbounded", None, None, None, None, None)
    if res.status != 0:
        raise SolverNumericsError(f"solver failure: {res.message}")

    x = np.asarray(res.x, dtype=float)
    y = np.zeros(lp.n_rows)
    if ub_rows.size:
        y[ub_rows] = sign * np.asarray(res.ineqlin.marginals, dtype=float)
    if eq_rows.size:
        y[eq_rows] = np.asarray(res.eqlin.marginals, dtype=float)

    kkt = kkt_residuals(lp, x, y)
    if check and not kkt.ok():
        raise SolverNumericsError(
            f"KKT residuals out of tolerance: primal {kkt.primal:.3e} "
            f"dual {kkt.dual:.3e} compl {kkt.compl:.3e}"
        )
    return Solution(
        status="optimal",
        objective=float(res.fun) + lp.obj_offset,
        x=x,
        row_duals=y,
        reduced_costs=lp.obj - lp.a_matrix.T @ y,
        kkt=kkt,
    )
