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

``solve_simplex(lp, warm)`` takes an optional warm-start object, a
``KeptModel`` or a ``ReducedModel``, and tries it before the cold attempt.
Its optimum gets the same KKT check on lp (``SolveStats.warm``). A status
other than optimal or a failed check falls through to the cold attempt,
and the object is handed the accepted attempt, or none, to keep from it
what it keeps. A warm optimum may be a different vertex than the cold
one, with the same objective up to round-off.

An LP that only grows by rows, as the Benders master does, is solved in
one kept HiGHS model (``KeptModel``). The first solve is cold, and the
model of its optimum is kept. Each later solve appends the LP's new rows
to the kept model (``addRows``; they enter with basic slacks, so the kept
basis stays dual feasible) and restarts dual simplex from the kept basis.
When the cold attempt is accepted instead, its model is kept.

An LP whose fixed columns (lo == hi) change value but stay fixed is
solved on its row-reduced LP (``ReducedModel``). Two LPs are solved so: a
re-pinned Benders subproblem, whose investments change, and a combo's
operations LP, which is the HRB's with the combo's build pinned in place
of the HRB's. HiGHS skips presolve when it starts from a basis, so the
reduction is done here: each row with exactly one nonzero entry in a
column that is not fixed (its free entry, a_ij on column j) becomes a
bound on that column, the singleton-row reduction of "Presolving in
linear programming" (Andersen & Andersen, 1995).

- The reduced LP keeps every other row, with all its entries, and every
  column at its index, so x needs no map. Its obj, senses, rhs and matrix
  never change; only its lo and hi are rewritten, from lp's, before each
  solve. It is rebuilt, and its basis dropped, when the fixed set changes.
- A bound row's implied bound is v = (rhs_i - sum_f a_if lo_f) / a_ij over
  its fixed entries f. LE with a_ij > 0 or GE with a_ij < 0 bounds x_j
  above, the other two cases below, and EQ both. Per column the tightest
  bound wins; on a tie the column's own bound wins first, then the lowest
  row. The bound rows of each side are grouped by column once per fixed
  set (``_ByColumn``), so a re-pin takes each column's tightest bound and
  its lowest tied row with a reduction over the column's run
  (``reduceat``), not a sort.
- It is not ready until it has kept one accepted optimum, so an LP's first
  solve is the usual cold solve of the full LP, unless the model is seeded
  with a basis of the full LP (``ReducedModel(basis)``): a combo's operate
  solve is seeded with the HRB's, and each Benders subproblem but period
  0's with period 0's first optimal basis. The model keeps the basis of
  every accepted optimum, and each attempt runs warm from it under the
  warm options (dual simplex, Devex dual edge weights). A basis's shape
  says which LP it fits. A basis of the full LP's shape (a seed, or a cold
  solve's: the first one, or one after a fall-through) is mapped onto the
  reduced LP: every column keeps its status, and each kept row keeps its
  row's. A removed bound row that is nonbasic and supplies its column's
  active bound moves that column, if it is basic, to nonbasic at that
  bound. The mapped basis is passed as alien, so HiGHS repairs what a
  degenerate row leaves over: a count of basic variables other than the
  row count, or a singular basis. A basis of the reduced LP's shape, kept
  under the same fixed set, is passed as it is. Where no row is a bound
  row, the two shapes are one and the mapping is an identity.
- The inverse (``ReducedModel.full_basis(lp)``) expresses a kept basis of
  the reduced LP on lp, the full LP as last solved, where a Benders
  subproblem's last basis is saved and the HRB's operate basis is handed
  on. The rows that supply each bound are found again at lp's pins
  (``_BoundRows.bound``). A column that is nonbasic at a bound supplied by
  a bound row becomes basic, and that row nonbasic at its own bound that
  gives the column's; every other bound row is basic. The basic count
  stays the row count and the point and the duals stay those of the
  reduced optimum (the duals above), so HiGHS accepts the basis as
  optimal on the full LP without an iteration.
- The kept rows' duals come from HiGHS. A bound row that supplies its
  column's active bound gets y_i = d_j / a_ij, from the column's reduced
  cost d_j on the reduced LP (d_j > 0: the lower bound is active, d_j < 0:
  the upper); every other bound row gets 0. Then z = c - A^T y on lp is
  0 on such a column and, on a fixed column, its full sensitivity.

A ReducedModel keeps only a basis across solves, not a HiGHS model (a
model per Benders subproblem would cost several MB each). A basis of the
reduced LP fits the reduced LP of one fixed set: when the fixed set
changes, the attempt fails and the cold solve's basis is kept in its
place. A basis of any other shape (of an LP of another column or row
count, as a combo whose translation added a template cluster has) fails
the attempt before any row is reduced. A kept basis is a ``Basis``, which
records its shape and pickles, as int8 status codes, into the worker
processes of a parallel ladder; a seed keeps only those codes. The codes
are the one form in which this module edits a basis: both mappings work on
them with numpy, and ``_highs_basis`` alone turns them into the bindings'
lists of statuses.

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
# LpBuilder holds each row's sense as its index in _SENSES until it builds
_SENSES = np.array([LE, EQ, GE])
_SENSE_CODE = {sense: code for code, sense in enumerate(_SENSES.tolist())}

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
        self._senses: list[np.ndarray] = []  # int8 indices into _SENSES
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
        """len(rhs) rows; senses is one sense or a sequence of senses that
        repeats over the rows (one per row, or one per row of each group of
        rows laid out alike), and rows are local (0 is this block's first
        row). Only the given senses are checked, not each row's."""
        rhs = np.asarray(rhs, dtype=float)
        m = rhs.size
        try:
            codes = [_SENSE_CODE[s] for s in ((senses,) if isinstance(senses, str) else senses)]
        except KeyError as e:
            raise ValueError(f"bad sense {e.args[0]!r}") from None
        if m % len(codes):
            raise ValueError(f"{len(codes)} senses do not repeat over {m} rows")
        block = np.empty((m // len(codes), len(codes)), dtype=np.int8)
        block[:] = codes
        vals = np.asarray(vals, dtype=float)
        keep = vals != 0.0
        self._senses.append(block.ravel())
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
            senses=_SENSES[_cat(self._senses, np.int8)],
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
            senses=np.concatenate([lp.senses, _SENSES[_cat(self._senses[first:], np.int8)]]),
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
    iterations: int  # simplex iterations over all attempts
    retried: bool  # the simplex attempts failed and interior point re-solved
    warm: bool = False  # the solution came from the warm-start object (kept or reduced model)


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
    iterations: int = 0
    model: object | None = None  # the optimal HiGHS model, for a KeptModel or ReducedModel


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
    run_status = linprog(h)
    model_status = h.getModelStatus()
    info = h.getInfo()
    out = Attempt(
        "failed",
        f"HiGHS status {h.modelStatusToString(model_status)}",
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
        out.model = h
    return out


class KeptModel:
    """The HiGHS model of the last accepted optimum of an LP that only grows
    by appended rows (``LpBuilder.extend``); see the module docstring. It
    re-runs under the cold options: HiGHS skips presolve from a valid basis."""

    def __init__(self):
        self.highs = None

    @property
    def ready(self) -> bool:
        return self.highs is not None

    def keep(self, run: Attempt | None) -> None:
        """Keep the model of the accepted run (none if it has none)."""
        model = run.model if run is not None else None
        if model is not None and model is not self.highs:
            model.passOptions(_SIMPLEX)  # a model of the ipm retry would run ipm
        self.highs = model

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


_STATUS = highs.HighsBasisStatus
# the int8 codes of a basic variable and of a nonbasic one at its lower or
# upper bound, HiGHS's own
BASIC, LOWER, UPPER = int(_STATUS.kBasic), int(_STATUS.kLower), int(_STATUS.kUpper)
# the status of each code, to index with an array of codes
_STATUS_OF_CODE = np.empty(max(map(int, _STATUS.__members__.values())) + 1, dtype=object)
for _status in _STATUS.__members__.values():
    _STATUS_OF_CODE[int(_status)] = _status
STATUS_CODES = frozenset(int(status) for status in _STATUS.__members__.values())


def _codes(statuses: list) -> np.ndarray:
    """The int codes of a list of HiGHS basis statuses (``__index__`` takes
    two thirds of the time of ``int``)."""
    return np.fromiter(map(_STATUS.__index__, statuses), np.int8, len(statuses))


def _highs_basis(cols: np.ndarray, rows: np.ndarray):
    """A valid alien HighsBasis (one HiGHS checks before it starts from it)
    of the given column and row status codes: the one place where codes
    become the bindings' lists of statuses."""
    basis = highs.HighsBasis()
    basis.col_status = _STATUS_OF_CODE[cols].tolist()
    basis.row_status = _STATUS_OF_CODE[rows].tolist()
    basis.valid = True
    return basis


class Basis:
    """A HiGHS basis of an LP of shape (n_vars, n_rows), as a ReducedModel
    keeps it: the HighsBasis until its status codes are read, then only the
    codes, two int8 arrays (``codes``), the form in which this module edits
    a basis. They are read when the basis is pickled (a HighsBasis does not
    pickle), mapped, or seeds a ReducedModel, not when it is kept: the
    bindings copy each status list, which takes about 17 ms for the 43,000
    statuses of a 3-week, 2-region operations LP on a 2-core VM. A seed is
    kept long and shared (the HRB's operate basis seeds every combo's
    operate solve, period 0's first Benders subproblem basis every other
    period's first solve), and its HighsBasis, allocated while the HiGHS
    model that solved the LP was alive, would hold the top of the heap, and
    with it the memory that model freed, for as long as it is kept."""

    def __init__(self, basis, shape: tuple[int, int]):
        self.shape = shape
        self._highs = basis
        self._codes = None

    @classmethod
    def of_codes(cls, cols: np.ndarray, rows: np.ndarray) -> Basis:
        """The basis of the given column and row status codes."""
        basis = cls.__new__(cls)
        basis.__setstate__((cols, rows))
        return basis

    @property
    def highs(self):
        """The HighsBasis; once the codes were read, a new one of them."""
        return _highs_basis(*self._codes) if self._highs is None else self._highs

    def codes(self) -> tuple[np.ndarray, np.ndarray]:
        """The column and row status codes. Reading them releases the
        HighsBasis."""
        if self._codes is None:
            self._codes = (_codes(self._highs.col_status), _codes(self._highs.row_status))
            self._highs = None
        return self._codes

    def __getstate__(self):
        return self.codes()

    def __setstate__(self, codes):
        self._codes = codes
        self._highs = None
        self.shape = (codes[0].size, codes[1].size)


class _BoundRows:
    """The rows of an LP that a fixed-column mask turns into column bounds
    (``ReducedModel``), and the rows kept."""

    def __init__(self, lp: LinearProgram, fixed: np.ndarray):
        a = lp.a_matrix
        rows = a.entry_rows
        free = ~fixed[a.indices] & (a.data != 0.0)  # an explicit 0.0 is no entry
        bound = np.bincount(rows[free], minlength=lp.n_rows) == 1
        keep = ~bound
        kept_entry = keep[rows]
        indptr = np.zeros(int(keep.sum()) + 1, dtype=np.intp)
        np.cumsum(np.diff(a.indptr)[keep], out=indptr[1:])
        self.fixed = fixed
        self.n_rows = lp.n_rows
        self.keep = np.flatnonzero(keep)
        self.lp = LinearProgram(
            obj=lp.obj,
            lo=lp.lo.copy(),
            hi=lp.hi.copy(),
            senses=lp.senses[keep],
            rhs=lp.rhs[keep],
            a_matrix=CsrMatrix(a.data[kept_entry], a.indices[kept_entry], indptr, (indptr.size - 1, lp.n_vars)),
        )
        # one entry per bound row, in row order: its row, column and coefficient
        entry = np.flatnonzero(free & bound[rows])
        self.rows = rows[entry]
        self.cols = a.indices[entry]
        self.coef = a.data[entry]
        self.rhs = lp.rhs[self.rows]
        # the bound rows' fixed entries, by the position of their row
        fixed_entry = np.flatnonzero(fixed[a.indices] & bound[rows])
        self.fixed_at = (np.cumsum(bound) - 1)[rows[fixed_entry]]
        self.fixed_cols = a.indices[fixed_entry]
        self.fixed_vals = a.data[fixed_entry]
        senses, up = lp.senses[self.rows], self.coef > 0
        lower = np.flatnonzero((senses == EQ) | ((senses == GE) & up) | ((senses == LE) & ~up))
        upper = np.flatnonzero((senses == EQ) | ((senses == LE) & up) | ((senses == GE) & ~up))
        self.lower, self.upper = _ByColumn(lower, self.cols), _ByColumn(upper, self.cols)

    def bound(self, lp: LinearProgram) -> tuple[np.ndarray, np.ndarray]:
        """Set the reduced LP's bounds for lp's: each bound row's implied
        bound (rhs - fixed part) / a on its column, where it is tighter
        than the column's own bound. Returns the position of the row that
        supplies each column's lower and upper bound, -1 for its own."""
        fixed_part = np.bincount(
            self.fixed_at, weights=self.fixed_vals * lp.lo[self.fixed_cols], minlength=self.rows.size
        )
        implied = (self.rhs - fixed_part) / self.coef
        self.lp.lo[:] = lp.lo
        self.lp.hi[:] = lp.hi
        return self.lower.tighten(self.lp.lo, implied, -1.0), self.upper.tighten(self.lp.hi, implied, 1.0)

    def duals(self, y_kept: np.ndarray, lower_row: np.ndarray, upper_row: np.ndarray) -> np.ndarray:
        """The row duals of the full LP from the reduced LP's: a bound row
        that supplies its column's active bound takes the column's reduced
        cost d over its coefficient (d > 0: the lower bound is active,
        d < 0: the upper), so that column's reduced cost on the full LP is
        0; every other bound row gets 0."""
        y = np.zeros(self.n_rows)
        y[self.keep] = y_kept
        d = reduced_costs(self.lp, y_kept)
        for at, active in ((lower_row, d > 0), (upper_row, d < 0)):
            cols = np.flatnonzero((at >= 0) & active)
            at = at[cols]
            y[self.rows[at]] = d[cols] / self.coef[at]
        return y

    def mapped(self, basis: Basis, lower_row: np.ndarray, upper_row: np.ndarray):
        """basis, of the full LP, as an alien HighsBasis of the reduced LP:
        the columns' statuses and the kept rows'. A column that is basic and
        whose lower (upper) bound is supplied by a nonbasic bound row
        (lower_row, upper_row of ``bound``) becomes nonbasic at that
        bound."""
        cols, rows = basis.codes()
        cols = cols.copy()
        for at, moved in ((lower_row, LOWER), (upper_row, UPPER)):
            j = np.flatnonzero(at >= 0)
            cols[j[(cols[j] == BASIC) & (rows[self.rows[at[j]]] != BASIC)]] = moved
        return _highs_basis(cols, rows[self.keep])

    def unmapped(self, basis: Basis, lower_row: np.ndarray, upper_row: np.ndarray) -> Basis:
        """basis, of the reduced LP, as a basis of the full LP: the inverse
        of ``mapped``. A column that is nonbasic at a bound supplied by a
        bound row becomes basic, and that row nonbasic at the bound of its
        own that the column's bound comes from; every other bound row is
        basic. The count of basic variables stays the row count."""
        cols, kept = basis.codes()
        cols = cols.copy()
        rows = np.full(self.n_rows, BASIC, dtype=np.int8)
        rows[self.keep] = kept
        for at, status in ((lower_row, LOWER), (upper_row, UPPER)):
            j = np.flatnonzero((at >= 0) & (cols == status))
            at = at[j]
            # the row a x = a_ij x_j + fixed part is at its lower bound where
            # x_j is at its lower bound and a_ij > 0, or at its upper and a_ij < 0
            rows[self.rows[at]] = np.where((self.coef[at] > 0) == (status == LOWER), LOWER, UPPER)
            cols[j] = BASIC
        return Basis.of_codes(cols, rows)


class _ByColumn:
    """Bound-row positions that bound their columns on one side, sorted by
    column and then by position once per fixed set, so that each re-pin
    takes every column's tightest implied bound with one reduction per
    column run instead of a sort."""

    def __init__(self, which: np.ndarray, cols: np.ndarray):
        self.order = which[np.argsort(cols[which], kind="stable")]  # which is ascending
        run = np.ones(self.order.size, dtype=bool)  # the first position of each column's run
        run[1:] = cols[self.order[1:]] != cols[self.order[:-1]]
        self.starts = np.flatnonzero(run)
        self.sizes = np.diff(np.append(self.starts, self.order.size))
        self.cols = cols[self.order[self.starts]]

    def tighten(self, bound: np.ndarray, implied: np.ndarray, sign: float) -> np.ndarray:
        """Tighten bound (upper for sign 1, lower for sign -1), column by
        column, to the tightest implied value among the positions, where
        that is strictly tighter than the column's own bound; on a tie the
        lowest position wins. Returns the winning position per column, -1
        where the column's own bound stays."""
        at = np.full(bound.size, -1)
        if not self.order.size:
            return at
        key = sign * implied[self.order]
        best = np.fmin.reduceat(key, self.starts)  # fmin: a NaN never wins, as NaN sorts last
        tied = key == np.repeat(best, self.sizes)
        first = np.minimum.reduceat(np.where(tied, self.order, implied.size), self.starts)  # size: no position
        wins = best < sign * bound[self.cols]
        cols, first = self.cols[wins], first[wins]
        bound[cols] = implied[first]
        at[cols] = first
        return at


class ReducedModel:
    """A warm start for an LP whose fixed columns (lo == hi) stay fixed while
    their values change, as a Benders subproblem's pinned investments do,
    or as the operations LPs of a ladder's builds differ from the HRB's;
    see the module docstring. It holds the row-reduced LP of the last fixed
    set and the Basis of its last accepted optimum, or the seed it was
    given. The basis's shape says which LP it fits: one of lp's shape is
    mapped onto the reduced LP, one of the reduced LP's shape, under the
    same fixed set, is passed as it is, and any other fails the attempt.
    ``full_basis(lp)`` gives the kept basis on lp, the full LP."""

    def __init__(self, basis: Basis | None = None):
        self.rows: _BoundRows | None = None
        self.basis = basis
        if basis is not None:
            basis.codes()  # a seed is kept long and shared: see Basis

    @property
    def ready(self) -> bool:
        return self.basis is not None

    def attempt(self, lp: LinearProgram) -> Attempt:
        fixed = lp.lo == lp.hi
        rows = self.rows
        same = rows is not None and np.array_equal(fixed, rows.fixed)
        full = self.basis.shape == (lp.n_vars, lp.n_rows)
        if full and not same:
            rows = self.rows = _BoundRows(lp, fixed)
        elif not full and not (same and self.basis.shape == (rows.lp.n_vars, rows.lp.n_rows)):
            return Attempt("failed", "the kept basis fits neither this LP nor its reduced LP")
        lower_row, upper_row = rows.bound(lp)
        basis = rows.mapped(self.basis, lower_row, upper_row) if full else self.basis.highs
        run = highs_attempt(rows.lp, False, basis)
        if run.status == "optimal":
            run.y = rows.duals(run.y, lower_row, upper_row)
        return run

    def keep(self, run: Attempt | None) -> None:
        """Keep the basis of the accepted run, of whichever LP it solved;
        drop it if the run has no optimal model."""
        model = run.model if run is not None else None
        basis = model.getBasis() if model is not None else None
        valid = basis is not None and basis.valid
        self.basis = Basis(basis, (model.getNumCol(), model.getNumRow())) if valid else None

    def full_basis(self, lp: LinearProgram) -> Basis | None:
        """The kept basis on lp, the LP as last solved, or None if none is
        kept: one of lp's shape as it is, one of the reduced LP unmapped
        (``_BoundRows.unmapped``) with the rows that supply each bound at
        lp's pins."""
        if self.basis is None or self.basis.shape == (lp.n_vars, lp.n_rows):
            return self.basis
        return self.rows.unmapped(self.basis, *self.rows.bound(lp))


def solve_simplex(lp: LinearProgram, warm=None) -> Solution:
    """Solve to optimality (or prove infeasible/unbounded) deterministically:
    from warm, a KeptModel or ReducedModel, when given and ready, then cold,
    then once more with interior point plus crossover. An attempt is
    accepted once it ends infeasible or unbounded, or optimal and passing
    the KKT check on lp. warm is then handed the accepted attempt (none
    when every attempt fails), and keeps from it what it keeps."""
    tries = []
    if warm is not None and warm.ready:
        tries.append((lambda: warm.attempt(lp), "warm"))
    tries += [(lambda: highs_attempt(lp, False), "cold"), (lambda: highs_attempt(lp, True), "ipm")]
    runs = []
    for solve, kind in tries:
        run = solve()
        runs.append(run)
        if run.status in ("infeasible", "unbounded"):
            if kind == "warm":
                continue  # a warm start must end optimal; a cold run decides the rest
            if warm is not None:
                warm.keep(run)
            return Solution(run.status, None, None, None, None, None, _stats(runs, kind))
        if run.status != "optimal":
            continue
        z = reduced_costs(lp, run.y)
        kkt = kkt_residuals(lp, run.x, run.y, z=z)
        if not kkt.ok():
            run.message = (
                f"KKT residuals out of tolerance: primal {kkt.primal:.3e} "
                f"dual {kkt.dual:.3e} compl {kkt.compl:.3e}"
            )
            continue
        if warm is not None:
            warm.keep(run)
        return Solution(
            status="optimal",
            objective=float(run.objective) + lp.obj_offset,
            x=run.x,
            row_duals=run.y,
            reduced_costs=z,
            kkt=kkt,
            stats=_stats(runs, kind),
        )
    if warm is not None:
        warm.keep(None)
    raise SolverNumericsError(
        f"dual simplex: {runs[-2].message}; interior point: {runs[-1].message}"
    )


def _stats(runs, kind: str) -> SolveStats:
    return SolveStats(
        iterations=sum(r.iterations for r in runs),
        retried=kind == "ipm",
        warm=kind == "warm",
    )
