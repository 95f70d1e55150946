"""Sparse linear programs and the simplex solve behind every optimization.

The solver contract: minimize obj over bounded variables subject to rows
with senses <=, =, >=. Solutions carry row duals in the
``dual = d(objective)/d(rhs)`` convention (so a binding demand-balance
equality prices energy directly) plus reduced costs ``z = c - A^T y``.

Optimal solutions are KKT-checked before being returned:

    primal  max constraint/bound violation      <= 1e-7 * (1 + ||rhs||inf)
    dual    max reduced-cost sign violation     <= 1e-7 * (1 + ||c||inf)
    compl   relative duality gap                <= 1e-6

The backend is HiGHS dual simplex, which is deterministic for a fixed input
and returns basic solutions (exact complementarity up to round-off). Where
scipy ships its HiGHS bindings (``scipy.optimize._highspy._core``, scipy
1.15 on), ``highs_attempt`` drives them directly. It hands HiGHS the model
``linprog(method="highs-ds")`` builds (LE rows, then negated GE rows, then
EQ rows, in CSC form, infinite bounds as kHighsInf) under the options
linprog sets, so its solutions are bit-identical to linprog's; only
linprog's per-solve input cleaning, option checks and bound-multiplier
loop are skipped. Where the bindings are missing, ``linprog_attempt``
solves through linprog. The choice is made once, at import.

A solve that ends in any status other than optimal, infeasible or
unbounded, or whose optimum fails the KKT check, is re-solved once with
interior point plus crossover (``SolveStats.retried``). Only if that fails
too does it surface as SolverNumericsError, never as a silently wrong
Solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

try:
    import scipy.optimize._highspy._core as highs
except ImportError:  # scipy < 1.15
    highs = None

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


@dataclass(frozen=True)
class SolveStats:
    rows: int
    cols: int
    nnz: int
    run_s: float | None  # HiGHS run time over all attempts; None through linprog
    iterations: int  # simplex iterations over all attempts (linprog's nit)
    retried: bool  # the first attempt failed and interior point re-solved


@dataclass
class Solution:
    status: str  # optimal | infeasible | unbounded
    objective: float | None
    x: np.ndarray | None
    row_duals: np.ndarray | None  # d(objective)/d(rhs) per row
    reduced_costs: np.ndarray | None  # c - A^T y
    kkt: KktResiduals | None
    stats: SolveStats | None = None

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


@dataclass
class Attempt:
    """One backend run. x and y are None unless the status is optimal; y is
    in the LP's row order and sign convention."""

    status: str  # optimal | infeasible | unbounded | failed
    message: str
    objective: float | None = None  # without obj_offset
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    run_s: float | None = None
    iterations: int = 0


class _StackedRows(NamedTuple):
    """The rows as linprog hands them to HiGHS: LE rows, then negated GE
    rows, then EQ rows."""

    order: np.ndarray  # LP row of each stacked row
    sign: np.ndarray  # -1.0 on GE rows, 1.0 elsewhere
    n_ineq: int  # LE and GE rows, which come first
    a_matrix: sp.csr_matrix  # signed rows, in stacked order
    rhs: np.ndarray  # signed rhs, in stacked order


def _stacked_rows(lp: LinearProgram) -> _StackedRows:
    le = np.nonzero(lp.senses == LE)[0]
    ge = np.nonzero(lp.senses == GE)[0]
    eq = np.nonzero(lp.senses == EQ)[0]
    order = np.concatenate([le, ge, eq])
    sign = np.repeat([1.0, -1.0, 1.0], [le.size, ge.size, eq.size])
    a = lp.a_matrix[order]
    a.data *= np.repeat(sign, np.diff(a.indptr))
    return _StackedRows(order, sign, le.size + ge.size, a, sign * lp.rhs[order])


def _row_duals(rows: _StackedRows, duals) -> np.ndarray:
    """Duals of the stacked rows back in the LP's row order and signs."""
    y = np.empty(rows.order.size)
    y[rows.order] = rows.sign * np.asarray(duals, dtype=float)
    return y


def _highs_options(**values):
    """The options linprog sets for a HiGHS solve, plus values."""
    opts = highs.HighsOptions()
    opts.presolve = "on"
    opts.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    opts.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    opts.output_flag = False
    opts.log_to_console = False
    for name, value in values.items():
        setattr(opts, name, value)
    return opts


if highs is not None:
    _SIMPLEX = _highs_options(solver="simplex")
    _IPM = _highs_options(solver="ipm", run_crossover="on")


def _highs_inf(v: np.ndarray) -> np.ndarray:
    # only the infinite entries change, so no 0 * inf arises
    return np.where(np.isinf(v), np.copysign(highs.kHighsInf, v), v)


def highs_attempt(lp: LinearProgram, ipm: bool) -> Attempt:
    """Solve through scipy's bundled HiGHS bindings, with the model and
    options linprog(method="highs-ds") builds (``highs-ipm`` when ipm)."""
    rows = _stacked_rows(lp)
    a = rows.a_matrix.tocsc()
    row_lower = rows.rhs.copy()
    row_lower[: rows.n_ineq] = -np.inf
    h = highs._Highs()
    h.passOptions(_IPM if ipm else _SIMPLEX)
    # The array form of passModel copies each array in one go (setting the
    # fields of a HighsLp converts element by element, ten times slower on
    # a 22k-nonzero LP). It reads one integrality entry per column, so an
    # all-continuous array of full length is passed.
    status = h.passModel(
        lp.n_vars,
        lp.n_rows,
        a.nnz,
        int(highs.MatrixFormat.kColwise),
        int(highs.ObjSense.kMinimize),
        0.0,
        lp.obj,
        _highs_inf(lp.lo),
        _highs_inf(lp.hi),
        _highs_inf(row_lower),
        _highs_inf(rows.rhs),
        a.indptr,
        a.indices,
        a.data,
        np.zeros(lp.n_vars, dtype=np.int32),
    )
    if status == highs.HighsStatus.kError:
        return Attempt("failed", "HiGHS rejected the model")
    run_status = h.run()
    model_status = h.getModelStatus()
    info = h.getInfo()
    out = Attempt(
        "failed",
        f"HiGHS status {h.modelStatusToString(model_status)}",
        run_s=h.getRunTime(),
        iterations=info.simplex_iteration_count,
    )
    if run_status == highs.HighsStatus.kError:
        return out
    if model_status == highs.HighsModelStatus.kInfeasible:
        out.status = "infeasible"
    elif model_status == highs.HighsModelStatus.kUnbounded:
        out.status = "unbounded"
    elif model_status == highs.HighsModelStatus.kOptimal:
        solution = h.getSolution()
        out.status = "optimal"
        out.objective = info.objective_function_value
        out.x = np.array(solution.col_value, dtype=float)
        out.y = _row_duals(rows, solution.row_dual)
    return out


def linprog_attempt(lp: LinearProgram, ipm: bool) -> Attempt:
    """Solve through scipy's linprog (method ``highs-ds``, or ``highs-ipm``,
    which runs crossover by default)."""
    rows = _stacked_rows(lp)
    k = rows.n_ineq
    res = linprog(
        c=lp.obj,
        A_ub=rows.a_matrix[:k] if k else None,
        b_ub=rows.rhs[:k] if k else None,
        A_eq=rows.a_matrix[k:] if k < lp.n_rows else None,
        b_eq=rows.rhs[k:] if k < lp.n_rows else None,
        bounds=np.column_stack([lp.lo, lp.hi]),
        method="highs-ipm" if ipm else "highs-ds",
    )
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, "failed")
    out = Attempt(status, f"solver failure: {res.message}", iterations=int(res.nit))
    if status == "optimal":
        out.objective = float(res.fun)
        out.x = np.asarray(res.x, dtype=float)
        out.y = _row_duals(rows, np.concatenate([res.ineqlin.marginals, res.eqlin.marginals]))
    return out


BACKEND = highs_attempt if highs is not None else linprog_attempt


def solve_with(lp: LinearProgram, attempt, check: bool = True) -> Solution:
    """Solve with one attempt function, re-solving once with interior point
    plus crossover when the first run fails or (with check) its optimum
    fails the KKT check."""
    runs = []
    for ipm in (False, True):
        run = attempt(lp, ipm)
        runs.append(run)
        if run.status in ("infeasible", "unbounded"):
            return Solution(run.status, None, None, None, None, None, _stats(lp, runs))
        if run.status != "optimal":
            continue
        kkt = kkt_residuals(lp, run.x, run.y)
        if check and not kkt.ok():
            run.message = (
                f"KKT residuals out of tolerance: primal {kkt.primal:.3e} "
                f"dual {kkt.dual:.3e} compl {kkt.compl:.3e}"
            )
            continue
        return Solution(
            status="optimal",
            objective=float(run.objective) + lp.obj_offset,
            x=run.x,
            row_duals=run.y,
            reduced_costs=lp.obj - lp.a_matrix.T @ run.y,
            kkt=kkt,
            stats=_stats(lp, runs),
        )
    raise SolverNumericsError(
        f"dual simplex: {runs[0].message}; interior point: {runs[1].message}"
    )


def _stats(lp: LinearProgram, runs) -> SolveStats:
    times = [r.run_s for r in runs]
    return SolveStats(
        rows=lp.n_rows,
        cols=lp.n_vars,
        nnz=int(lp.a_matrix.nnz),
        run_s=None if None in times else sum(times),
        iterations=sum(r.iterations for r in runs),
        retried=len(runs) > 1,
    )


def solve_simplex(lp: LinearProgram, check: bool = True) -> Solution:
    """Solve to optimality (or prove infeasible/unbounded) deterministically."""
    return solve_with(lp, BACKEND, check)
