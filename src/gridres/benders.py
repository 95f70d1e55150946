"""Benders decomposition of the capacity-expansion LP.

Master: investment variables, reserve rows, and a nonnegative cost variable
per representative period. Subproblem p: the dispatch of period p that
expansion.build_lp builds under the case's uc_mode, with every investment
pinned to the trial build via equal bounds. Non-served energy keeps every
subproblem feasible, so only optimality cuts arise. The cut for period p at
trial x is

    theta_p >= v_p(x) + sum_j z_j (x_j^new - x_j)

where z_j is the reduced cost of pinned investment column j in the
subproblem optimum (its objective coefficient there is zero, so z_j is the
sensitivity of v_p to moving both bounds together).

The loop has three parts. ``_Master`` gives a lower bound and an iterate and
takes cuts. The step makes the trial a convex combination of the iterate and
the incumbent, with weight ``stab_weight`` on the incumbent (in-out
separation). ``_Subproblems`` pins the trial in each period's LP, built
once, and solves them all, serially or on ``sub_jobs`` threads; on the
first call, period 0 runs alone first, to seed the others. The loop
keeps the incumbent, the log, the timing and the stop test. ``stab_weight``
has one default, ``STAB_WEIGHT`` = 0.3, which ``RunConfig`` reads too: at 0,
pure Benders, round-off sets the path, as a trial moved by ~1e-16 can give a
warm subproblem another optimal dual vertex and cut.

The master is built once; each cut's row is added when the cut is made, in
period order, so results do not depend on completion order. Each solve
appends the new rows to the built LP (``LpBuilder.extend``) and solves it in
one HiGHS model kept for the whole solve (``lp.KeptModel``): cold at first,
then by dual simplex from the kept basis, or cold again if that optimum is
not optimal or fails the KKT check.

Each subproblem is solved through its own ``lp.ReducedModel``. Only
period 0's first solve has no basis to start from: on the first call it
runs alone, cold on the full LP, and its optimal basis seeds every other
period's ReducedModel (``ReducedModel(basis)``), as the HRB's basis seeds a
combo's dispatch. Every one-period LP of a case has one layout, so that
basis has each subproblem's full-LP shape. Every other solve is on the
subproblem's row-reduced LP, whose rows that the pinned investments leave
with one free entry are column bounds, since HiGHS does no presolve from a
basis. A kept basis's shape says which LP it fits. Dual simplex starts
from a basis of the full LP's shape, the seed or a cold solve's, mapped
onto the reduced LP, and then from the last reduced basis, of the reduced
LP's shape, which stays dual feasible as only the pinned bounds move. A
reduced attempt that is not optimal or fails the KKT check on the full LP
falls back to a cold solve of the full LP (``warm_fallbacks`` in the
timing), whose basis the next attempt maps.

A seeded or reduced optimum may be another optimal vertex than a cold
solve's. Measured, that has not moved the path at the default step
weight: their cut slopes match a cold full-LP solve's within 1e-9
(tests/test_benders.py), and seeding iteration 1 kept every Benders
iteration count of both benchmark workloads and moved ladder.csv by at
most 7.4e-12 relative. What moves the path is the master and the step.

The result holds the incumbent build by name (``investment``) and the
phase-1 summary of the subproblem solves of the iteration that set it
(``phase1``, see metrics.phase_summary); no subproblem is solved again after
the loop. Those solves may be reduced ones, and a reduced optimum can be
another vertex than a cold solve's at the same build: the build does not
determine how free VRE energy splits between use and curtailment, nor how
non-served energy splits between regions, so the summary holds only the
thermal dispatch by tech and the variable cost.

With ``bases``, the result also holds the last basis each subproblem's
ReducedModel kept, on the subproblem's full LP as last pinned
(``ReducedModel.full_basis(lp)``), as status codes, one (cols, rows) pair
per period. Laid end to end, the subproblems of a relaxed case are the
dispatch of all its periods, its operations LP at the same build, but for
the previous-hour entries of each period's first hour;
so these bases, concatenated (``expansion.placed_basis``), start the HRB's
dispatch (``pipeline.dispatch_portfolio``). They fit no other LP, so the
pipeline asks for them only where they fit (``pipeline.bases_fit``).
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .expansion import (
    VarIndex,
    add_investment_columns,
    add_reserve_rows,
    build_lp,
    extract_solution,
    fixed_cost,
    investment_entries,
)
from .lp import GE, KeptModel, LpBuilder, ReducedModel, solve_simplex
from .metrics import phase_summary
from .model import SystemCase

logger = logging.getLogger(__name__)

# the weight of the incumbent in each trial point; RunConfig reads it too
STAB_WEIGHT = 0.3


@dataclass
class BendersResult:
    status: str  # "optimal" | "max_iter"
    objective: float  # best upper bound
    lower_bound: float
    gap: float
    iterations: int
    investment: dict  # the incumbent build by name
    phase1: dict  # metrics.phase_summary of the subproblem solves at the incumbent
    # each period's subproblem's last kept basis on its full LP, as (cols,
    # rows) codes; empty unless asked for
    bases: list = field(default_factory=list)
    log: list = field(default_factory=list)  # (iteration, lb, ub, gap)
    # (iteration, master_s, sub_s, sub_iterations, warm_fallbacks,
    # ipm_retries) where sub_iterations sums the subproblems' simplex
    # iterations, warm_fallbacks counts reduced attempts that fell through
    # to a cold solve of the full LP, and ipm_retries the subproblem solves
    # that the interior-point retry settled (SolveStats.retried)
    timing: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status == "optimal"


class _Master:
    """Investment columns, one nonnegative cost variable per period and the
    reserve rows, built once; add_cut adds one row per cut, and each solve
    appends the new cuts to the built LP and solves it in the kept model."""

    def __init__(self, case: SystemCase, reserve: bool):
        self.builder = LpBuilder()
        ix = VarIndex()
        inv_of_kind = add_investment_columns(case, self.builder, ix)
        self.theta = self.builder.vars(case.n_periods, 0.0, np.inf, 1.0)
        if reserve:
            add_reserve_rows(case, self.builder, inv_of_kind)
        self.inv = ix.inv
        self.lp = self.builder.build()
        self.kept = KeptModel()

    def add_cut(self, period: int, value: float, point: np.ndarray, slope: np.ndarray) -> None:
        """theta_p >= value + slope . (x - point)"""
        nz = np.flatnonzero(slope)
        rhs = value
        for j in nz:  # left to right: a dot product would round differently
            rhs -= slope[j] * point[j]
        cols = self.inv.start + nz
        self.builder.row("cut", GE, rhs, [(self.theta[period], 1.0), *zip(cols, -slope[nz])])

    def solve(self):
        self.lp = self.builder.extend(self.lp)
        sol = solve_simplex(self.lp, self.kept)
        if not sol.is_optimal:
            raise RuntimeError(f"master problem {sol.status}")
        return sol.objective, sol.x[self.inv]


def _pin(lp, inv: slice, values: np.ndarray) -> None:
    lp.lo[inv] = values
    lp.hi[inv] = values


def build_subproblems(case: SystemCase) -> list:
    """The dispatch of each period under the case's uc_mode, as (lp,
    VarIndex), with every investment pinned (at 0 until re-pinned) and no
    investment cost in the objective."""
    pinned = {name: 0.0 for name, *_ in investment_entries(case)}
    return [build_lp(case, periods=(p,), fix=pinned) for p in range(case.n_periods)]


def check_options(max_iter, stab_weight, sub_jobs) -> None:
    """Raise ValueError, naming the option, unless max_iter and sub_jobs are
    integers >= 1 and stab_weight is a number in [0, 1)."""
    for key, value in (("max_iter", max_iter), ("sub_jobs", sub_jobs)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"{key} must be an integer >= 1, got {value!r}")
    number = isinstance(stab_weight, (int, float)) and not isinstance(stab_weight, bool)
    if not (number and 0.0 <= stab_weight < 1.0):  # also rejects NaN
        raise ValueError(f"stab_weight must be a number in [0, 1), got {stab_weight!r}")


class _Subproblems:
    """Each period's LP from build_subproblems, solved through its own
    ReducedModel by solve_all: map, or a pool's map."""

    def __init__(self, case: SystemCase, solve_all):
        self.case = case
        self.lps = build_subproblems(case)
        self.inv = self.lps[0][1].inv
        self.reduced = [ReducedModel() for _ in self.lps]
        self.solve_all = solve_all

    def solve(self, trial: np.ndarray):
        """Every period's solution with the investments pinned at trial, and
        the count of reduced attempts that fell through to a cold solve."""
        for lp, _ix in self.lps:
            _pin(lp, self.inv, trial)
        lps = [lp for lp, _ix in self.lps]
        sols = []
        if not self.reduced[0].ready:  # the first call: period 0 alone, cold on the full LP
            sols.append(solve_simplex(lps[0], self.reduced[0]))
            # every one-period LP of a case has one layout, so period 0's
            # optimal basis seeds the others, mapped onto their reduced LPs
            self.reduced[1:] = [ReducedModel(self.reduced[0].basis) for _ in lps[1:]]
        done = len(sols)
        tried = [r.ready for r in self.reduced[done:]]
        # each subproblem owns its LP object; solves are independent
        sols += self.solve_all(solve_simplex, lps[done:], self.reduced[done:])
        for p, sol in enumerate(sols):
            if not sol.is_optimal:
                raise RuntimeError(f"subproblem {p} {sol.status}")
        return sols, sum(t and not s.stats.warm for t, s in zip(tried, sols[done:]))

    def summary(self, sols, bases: bool):
        """The build pinned in sols, their phase-1 summary, and with bases
        the bases (else [])."""
        parts = [extract_solution(self.case, ix, sol) for (_lp, ix), sol in zip(self.lps, sols)]
        kept = [model.full_basis(lp) for (lp, _ix), model in zip(self.lps, self.reduced)] if bases else []
        kept = [basis.codes() for basis in kept] if all(kept) else []  # None: no basis kept
        return parts[0].investment, phase_summary(parts), kept  # pinned: one build in every part


def solve_benders(
    case: SystemCase,
    reserve: bool = True,
    gap_tol: float = 1e-4,
    max_iter: int = 200,
    stab_weight: float = STAB_WEIGHT,
    sub_jobs: int = 1,
    bases: bool = True,
) -> BendersResult:
    """Solve the expansion of case by Benders; with bases, the result holds
    the subproblems' last bases (BendersResult.bases)."""
    check_options(max_iter, stab_weight, sub_jobs)
    order = [name for name, *_ in investment_entries(case)]
    best_ub, best_x, best_sols = np.inf, None, None  # best_sols: the solutions at best_x
    log, timing = [], []
    status, lower, gap = "max_iter", -np.inf, np.inf
    # one pool for the whole solve; with sub_jobs == 1 it starts no thread
    with ThreadPoolExecutor(max_workers=sub_jobs) as pool:
        subs = _Subproblems(case, pool.map if sub_jobs > 1 else map)
        master = _Master(case, reserve)
        for it in range(1, max_iter + 1):
            t0 = time.perf_counter()
            lower, x_master = master.solve()
            t1 = time.perf_counter()
            trial = x_master if best_x is None else (1.0 - stab_weight) * x_master + stab_weight * best_x
            sols, fallbacks = subs.solve(trial)
            t2 = time.perf_counter()
            work = sum(s.stats.iterations for s in sols)
            timing.append((it, t1 - t0, t2 - t1, work, fallbacks, sum(s.stats.retried for s in sols)))
            ub_trial = fixed_cost(case, dict(zip(order, trial))) + sum(s.objective for s in sols)
            if ub_trial < best_ub:
                best_ub, best_x, best_sols = ub_trial, trial.copy(), sols
            gap = (best_ub - lower) / max(1.0, abs(best_ub))
            log.append((it, lower, best_ub, gap))
            if it % 10 == 0:
                logger.info("benders iteration %d: lower %.6e upper %.6e gap %.3e", it, lower, best_ub, gap)
            if gap <= gap_tol:
                status = "optimal"
                break
            for p, sol in enumerate(sols):
                master.add_cut(p, sol.objective, trial, sol.reduced_costs[subs.inv])
    investment, phase1, kept = subs.summary(best_sols, bases)
    return BendersResult(
        status=status, objective=best_ub, lower_bound=lower, gap=gap, iterations=len(log),
        investment=investment, phase1=phase1, bases=kept, log=log, timing=timing,
    )
