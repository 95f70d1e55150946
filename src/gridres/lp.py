"""Sparse linear programs and the simplex solve behind every optimization.

The solver contract: minimize obj over bounded variables subject to rows
with senses <=, =, >=. Solutions carry row duals in the
``dual = d(objective)/d(rhs)`` convention (so a binding demand-balance
equality prices energy directly) plus reduced costs ``z = c - A^T y``.

Optimal solutions are KKT-checked before being returned:

    primal  max constraint/bound violation      <= 1e-7 * (1 + ||rhs||inf)
    dual    max reduced-cost sign violation     <= 1e-7 * (1 + ||c||inf)
    compl   relative duality gap                <= 1e-6

Every LP is solved by HiGHS dual simplex through scipy's bundled bindings
(``scipy.optimize._highspy._core``, scipy 1.15 on). HiGHS is deterministic
for a fixed input and returns basic solutions (exact complementarity up to
round-off). It receives the LP as the builder laid it out: every row keeps
its position and sign, the matrix goes in as the builder's own CSR arrays,
and each row's bounds come from its sense and rhs (LE ``-inf..rhs``, GE
``rhs..inf``, EQ ``rhs..rhs``). For a minimization HiGHS's row duals satisfy
``col_dual = c - A^T row_dual`` and are d(objective)/d(row bound), which is
the convention above, so they are returned as they come.

The bindings are loaded from their file (``_load_highs``), under their own
name and into ``sys.modules``, so that importing this module does not run
the ``scipy.optimize`` package (linalg, fft, linprog and more, about 0.4 s
of a cold start). A later ``import scipy.optimize`` finds that name in
``sys.modules`` and reuses the same module object; it has to, because
pybind11 cannot register the same types twice. Where the name is already
imported, that module is used. Without the file (scipy older than 1.15)
the import fails with an ImportError.

The constraint matrix is a ``CsrMatrix``: numpy arrays in compressed
sparse row form, so this module does not import scipy.sparse (about 0.2 s
of a cold start). It holds the values scipy.sparse would hold, and what
derives from it is computed in scipy's order, so HiGHS receives the arrays
scipy's CSR matrix would hold, bit for bit, and the KKT check computes the
same residuals:

- ``LpBuilder`` sorts the (row, column, value) triplets by row and column
  with a stable sort and sums duplicates in the order they were added,
  keeping a zero that a sum produces, as ``coo_matrix.tocsr()`` does. (A
  sum of three or more duplicates may round differently from scipy's,
  whose sort does not keep their order within a long row; the LPs of a
  ladder have no duplicates.)
- ``A x`` and ``A^T y`` are ``np.bincount`` over the row and the column of
  each entry, so each output adds its products in entry order starting
  from 0.0, as scipy's ``csr_matvec`` and ``csc_matvec`` do.

A LinearProgram's obj, senses, rhs and a_matrix are read-only from
construction on; only the column bounds lo and hi may change, in place.
So what derives from the rows (the LE and GE masks of senses, the row
bounds, the row of each matrix entry) is built on an LP's first solve and
cached on it: a re-pinned Benders subproblem does not rebuild them. The
reduced costs of an accepted optimum are computed once, for both its KKT
check and its Solution.

An optimal HiGHS run also returns its basis (``Solution.basis``, an opaque
value). ``solve_simplex(lp, basis=...)`` first tries a warm start from it:
a fresh model of the same arrays, the basis set, dual simplex with Devex
dual edge weights. HiGHS skips presolve when it starts from a basis. The
caller hands back the basis of an earlier solve of the same LP whose
bounds have since changed, as Benders does after re-pinning a subproblem;
the basis stays dual feasible, so dual simplex restarts from it. The warm
optimum gets the same KKT check (``SolveStats.warm``). A rejected basis, a
status other than optimal or a failed KKT check falls through to the cold
attempt. A warm optimum may be a different vertex than the cold one, with
the same objective up to round-off.

An LP that only grows by rows, as the Benders master does, is solved in
one kept HiGHS model (``solve_simplex(lp, kept=KeptModel())``). The first
solve is cold, and the model of its optimum is kept. Each later solve
appends the LP's new rows to the kept model (``addRows``; they enter with
basic slacks, so the kept basis stays dual feasible) and restarts dual
simplex from the kept basis. That optimum gets the same KKT check
(``SolveStats.warm``); a status other than optimal or a failed check falls
through to the cold attempt, whose model is then kept instead.

Every HiGHS run, of whichever attempt, is one call of ``linprog(h)``: the
name under which the benchmark's tracer times the solver's own share of a
solve. It is HiGHS's run, not scipy's ``linprog`` function.

A cold solve that ends in any status other than optimal, infeasible or
unbounded, or whose optimum fails the KKT check, is re-solved once with
interior point plus crossover (``SolveStats.retried``). Only if that fails
too does it surface as SolverNumericsError, never as a silently wrong
Solution.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _load_highs():
    """scipy's HiGHS bindings, loaded from their file without running the
    scipy.optimize package; see the module docstring."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    path = scipy and os.path.join(
        os.path.dirname(scipy.origin), "optimize", "_highspy",
        "_core" + importlib.machinery.EXTENSION_SUFFIXES[0],
    )
    if not (path and os.path.isfile(path)):
        raise ImportError(f"gridres needs scipy>=1.15, whose HiGHS bindings {name} were not found")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


highs = _load_highs()

LE, EQ, GE = "<=", "==", ">="

PRIMAL_TOL = 1e-7
DUAL_TOL = 1e-7
COMPL_TOL = 1e-6


class SolverNumericsError(RuntimeError):
    """HiGHS failed to produce a trustworthy solution."""


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """A sparse (m, n) matrix in compressed sparse row form: the entries of
    row i are data[indptr[i]:indptr[i + 1]], in the columns
    indices[indptr[i]:indptr[i + 1]], ascending. The index arrays are
    np.intp, numpy's own index type; the HiGHS bindings convert them to
    int32 as they copy them in. Built by LpBuilder; see the module
    docstring."""

    data: np.ndarray  # (nnz,) float
    indices: np.ndarray  # (nnz,) the column of each entry
    indptr: np.ndarray  # (m + 1,)
    shape: tuple[int, int]

    @classmethod
    def from_triplets(cls, rows, cols, vals, shape: tuple[int, int]) -> CsrMatrix:
        """The matrix of (row, column, value) triplets. Duplicates are summed
        in the order given; a sum of 0.0 stays an entry."""
        order = np.argsort(rows * shape[1] + cols, kind="stable")  # by row, then column
        rows, cols = rows[order], cols[order]
        first = np.ones(rows.size, dtype=bool)  # the first triplet of each entry
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        data = np.bincount(np.cumsum(first) - 1, weights=vals[order], minlength=int(first.sum()))
        indptr = np.zeros(shape[0] + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows[first], minlength=shape[0]), out=indptr[1:])
        return cls(data, cols[first], indptr, shape)

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    @cached_property
    def entry_rows(self) -> np.ndarray:
        """The row of each entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x."""
        products = self.data * x[self.indices]
        return np.bincount(self.entry_rows, weights=products, minlength=self.shape[0])

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """A^T y."""
        products = self.data * y[self.entry_rows]
        return np.bincount(self.indices, weights=products, minlength=self.shape[1])


@dataclass(frozen=True)
class LinearProgram:
    """obj, senses, rhs and a_matrix are read-only from construction on, so
    the arrays the solver derives from them are built once per LP and
    cached; only lo and hi may change, in place."""

    obj: np.ndarray  # (n,)
    lo: np.ndarray  # (n,)
    hi: np.ndarray  # (n,), np.inf allowed
    senses: np.ndarray  # (m,) of LE / EQ / GE
    rhs: np.ndarray  # (m,)
    a_matrix: CsrMatrix  # (m, n)
    obj_offset: float = 0.0

    def __post_init__(self):
        a = self.a_matrix
        for v in (self.obj, self.senses, self.rhs, a.data, a.indices, a.indptr):
            v.flags.writeable = False

    @cached_property
    def _le(self) -> np.ndarray:
        return self.senses == LE

    @cached_property
    def _ge(self) -> np.ndarray:
        return self.senses == GE

    @cached_property
    def _row_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """HiGHS's (lower, upper) row bounds: LE -inf..rhs, GE rhs..inf, EQ
        rhs..rhs."""
        return np.where(self._le, -np.inf, self.rhs), np.where(self._ge, np.inf, self.rhs)

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
        a = self.a_matrix
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
            for i, j, v in zip(a.entry_rows, a.indices, a.data):
                fh.write(f"{i} {j} {v!r}\n")


class LpBuilder:
    """Construction in column and row blocks; var and row are the
    one-element cases, and their names are not stored. Zero coefficients
    are dropped and duplicate (row, column) entries are summed.

    var and row keep their unused name parameter because the benchmark's
    own tests (ladderbench/tests) call them with one, and those files
    change only together with the benchmark."""

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

    def _csr(self, first: int, row0: int) -> CsrMatrix:
        """Row blocks first.. as one matrix whose row 0 is row row0."""
        return CsrMatrix.from_triplets(
            _cat(self._ai[first:], int) - row0,
            _cat(self._aj[first:], int),
            _cat(self._av[first:], float),
            (self._m - row0, self._n),
        )

    def build(self) -> LinearProgram:
        return LinearProgram(
            obj=_cat(self._obj, float),
            lo=_cat(self._lo, float),
            hi=_cat(self._hi, float),
            senses=_cat(self._senses, "<U2"),
            rhs=_cat(self._rhs, float),
            a_matrix=self._csr(0, 0),
            obj_offset=self.obj_offset,
        )

    def extend(self, lp: LinearProgram) -> LinearProgram:
        """lp, an earlier build of this builder, with the rows added since
        then appended: the LP build() gives, without re-assembling the rows
        lp holds. No column may have been added since."""
        ends = np.cumsum([r.size for r in self._rhs])
        first = int(np.searchsorted(ends, lp.n_rows, side="right"))  # first new block
        if lp.n_vars != self._n or (ends[first - 1] if first else 0) != lp.n_rows:
            raise ValueError("lp is not an earlier build of this builder")
        a, new = lp.a_matrix, self._csr(first, lp.n_rows)  # sorts only the new rows
        a = CsrMatrix(
            np.concatenate([a.data, new.data]),
            np.concatenate([a.indices, new.indices]),
            np.concatenate([a.indptr, new.indptr[1:] + a.nnz]),
            (self._m, self._n),
        )
        return LinearProgram(
            obj=lp.obj,
            lo=lp.lo.copy(),
            hi=lp.hi.copy(),
            senses=np.concatenate([lp.senses, *self._senses[first:]]),
            rhs=np.concatenate([lp.rhs, *self._rhs[first:]]),
            a_matrix=a,
            obj_offset=self.obj_offset,
        )


def _cat(parts, dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype)


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
    run_s: float  # HiGHS run time over all attempts
    iterations: int  # simplex iterations over all attempts
    retried: bool  # the simplex attempts failed and interior point re-solved
    warm: bool = False  # the solution came from the warm start


@dataclass
class Solution:
    status: str  # optimal | infeasible | unbounded
    objective: float | None
    x: np.ndarray | None
    row_duals: np.ndarray | None  # d(objective)/d(rhs) per row
    reduced_costs: np.ndarray | None  # c - A^T y
    kkt: KktResiduals | None
    stats: SolveStats | None = None
    basis: object | None = None  # HiGHS basis of the optimum

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


_BOUND_ACTIVE_TOL = 1e-9


def kkt_residuals(
    lp: LinearProgram, x: np.ndarray, y: np.ndarray, *, z: np.ndarray | None = None
) -> KktResiduals:
    """The KKT residuals of (x, y); z, when given, is c - A^T y."""
    le, ge = lp._le, lp._ge
    gap = lp.a_matrix.matvec(x) - lp.rhs
    row_primal = np.where(le, gap, np.where(ge, -gap, np.abs(gap)))
    # max() keeps its first argument on ties, so an all-zero residual is
    # +0.0 as in a running maximum started at 0.0
    primal = max(
        0.0,
        float(np.max(row_primal, initial=0.0)),
        float(np.max(lp.lo - x, initial=0.0)),
        float(np.max(x - lp.hi, initial=0.0)),
    )

    if z is None:
        z = reduced_costs(lp, y)
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


def reduced_costs(lp: LinearProgram, y: np.ndarray) -> np.ndarray:
    """c - A^T y."""
    return lp.obj - lp.a_matrix.rmatvec(y)


@dataclass
class Attempt:
    """One HiGHS run. x and y are None unless the status is optimal."""

    status: str  # optimal | infeasible | unbounded | failed
    message: str
    objective: float | None = None  # without obj_offset
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    run_s: float = 0.0
    iterations: int = 0
    basis: object | None = None
    model: object | None = None  # the optimal HiGHS model, for a KeptModel


def _highs_options(**values):
    """The options of every HiGHS solve, plus values. HiGHS writes its log
    to the process's stdout unless output is off."""
    opts = highs.HighsOptions()
    opts.presolve = "on"
    opts.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    opts.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    opts.output_flag = False
    opts.log_to_console = False
    for name, value in values.items():
        setattr(opts, name, value)
    return opts


_SIMPLEX = _highs_options(solver="simplex")
_IPM = _highs_options(solver="ipm", run_crossover="on")
# Devex dual edge weights: from a warm basis they are cheaper to set up
# than the steepest-edge weights HiGHS picks by default
_WARM = _highs_options(solver="simplex", simplex_dual_edge_weight_strategy=1)


def highs_attempt(lp: LinearProgram, ipm: bool, basis=None) -> Attempt:
    """Solve in a fresh HiGHS model: dual simplex, or interior point plus
    crossover when ipm. With a basis, dual simplex starts from it under the
    warm options."""
    a = lp.a_matrix
    h = highs._Highs()
    h.passOptions(_IPM if ipm else _SIMPLEX if basis is None else _WARM)
    # The array form of passModel copies each array in one go (setting the
    # fields of a HighsLp converts element by element, ten times slower on
    # a 22k-nonzero LP). It reads one integrality entry per column, so an
    # all-continuous array of full length is passed.
    status = h.passModel(
        lp.n_vars,
        lp.n_rows,
        a.nnz,
        int(highs.MatrixFormat.kRowwise),
        int(highs.ObjSense.kMinimize),
        0.0,
        lp.obj,
        lp.lo,
        lp.hi,
        *lp._row_bounds,
        a.indptr,
        a.indices,
        a.data,
        np.zeros(lp.n_vars, dtype=np.int32),
    )
    if status == highs.HighsStatus.kError:
        return Attempt("failed", "HiGHS rejected the model")
    if basis is not None and h.setBasis(basis) == highs.HighsStatus.kError:
        return Attempt("failed", "HiGHS rejected the basis")
    return _run(h)


def linprog(h) -> object:
    """Run HiGHS on the model h holds; return its run status. The one call
    that runs the solver, so ``ladderbench/tracing.py`` can time it as the
    span ``lp.linprog`` (named for scipy's function that once made it)."""
    return h.run()


def _run(h) -> Attempt:
    t0 = h.getRunTime()  # the run clock adds up over runs of one model
    run_status = linprog(h)
    model_status = h.getModelStatus()
    info = h.getInfo()
    out = Attempt(
        "failed",
        f"HiGHS status {h.modelStatusToString(model_status)}",
        run_s=h.getRunTime() - t0,
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
        out.y = np.array(solution.row_dual, dtype=float)
        out.basis = h.getBasis()
        out.model = h
    return out


class KeptModel:
    """The HiGHS model of the last accepted optimum of an LP that only grows
    by appended rows (``LpBuilder.extend``); see the module docstring. It
    re-runs under the cold options: HiGHS skips presolve from a valid basis."""

    def __init__(self):
        self.highs = None

    def keep(self, run: Attempt) -> None:
        """Keep the model of the accepted run (none if it has none)."""
        if run.model is not None and run.model is not self.highs:
            run.model.passOptions(_SIMPLEX)  # a model of the ipm retry would run ipm
        self.highs = run.model

    def attempt(self, lp: LinearProgram) -> Attempt:
        h = self.highs
        known = h.getNumRow()
        if lp.n_vars != h.getNumCol() or lp.n_rows < known:
            return Attempt("failed", "the LP is not the kept model's grown by rows")
        if lp.n_rows > known:
            a, (lower, upper) = lp.a_matrix, lp._row_bounds
            starts = a.indptr[known:]  # of the new rows, then the end
            first = starts[0]
            h.addRows(
                lp.n_rows - known,
                lower[known:],
                upper[known:],
                a.nnz - first,
                starts[:-1] - first,
                a.indices[first:],
                a.data[first:],
            )
        return _run(h)


def solve_simplex(lp: LinearProgram, check: bool = True, basis=None, kept=None) -> Solution:
    """Solve to optimality (or prove infeasible/unbounded) deterministically:
    warm from the kept model, then from basis, when given, then cold, then
    once more with interior point plus crossover. basis is Solution.basis
    of an earlier solve of an LP of the same shape; kept is a KeptModel of
    earlier solves of this LP before rows were appended. An attempt is
    accepted once it ends infeasible or unbounded, or optimal and (with
    check) passing the KKT check. kept ends up holding the HiGHS model of
    the accepted attempt's optimum, or none."""
    tries = []
    if kept is not None and kept.highs is not None:
        tries.append((lambda: kept.attempt(lp), "warm"))
    if basis is not None:
        tries.append((lambda: highs_attempt(lp, False, basis), "warm"))
    tries += [(lambda: highs_attempt(lp, False), "cold"), (lambda: highs_attempt(lp, True), "ipm")]
    runs = []
    for solve, kind in tries:
        run = solve()
        runs.append(run)
        if run.status in ("infeasible", "unbounded"):
            if kind == "warm":
                continue  # a warm start must end optimal; a cold run decides the rest
            if kept is not None:
                kept.keep(run)
            return Solution(run.status, None, None, None, None, None, _stats(lp, runs, kind))
        if run.status != "optimal":
            continue
        z = reduced_costs(lp, run.y)
        kkt = kkt_residuals(lp, run.x, run.y, z=z)
        if check and not kkt.ok():
            run.message = (
                f"KKT residuals out of tolerance: primal {kkt.primal:.3e} "
                f"dual {kkt.dual:.3e} compl {kkt.compl:.3e}"
            )
            continue
        if kept is not None:
            kept.keep(run)
        return Solution(
            status="optimal",
            objective=float(run.objective) + lp.obj_offset,
            x=run.x,
            row_duals=run.y,
            reduced_costs=z,
            kkt=kkt,
            stats=_stats(lp, runs, kind),
            basis=run.basis,
        )
    if kept is not None:
        kept.highs = None
    raise SolverNumericsError(
        f"dual simplex: {runs[-2].message}; interior point: {runs[-1].message}"
    )


def _stats(lp: LinearProgram, runs, kind: str) -> SolveStats:
    return SolveStats(
        rows=lp.n_rows,
        cols=lp.n_vars,
        nnz=int(lp.a_matrix.nnz),
        run_s=sum(r.run_s for r in runs),
        iterations=sum(r.iterations for r in runs),
        retried=kind == "ipm",
        warm=kind == "warm",
    )
