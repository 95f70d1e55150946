"""Benders decomposition of the capacity-expansion LP.

Master: investment variables, reserve rows, and one nonnegative cost
variable per representative period. Subproblem p: the operations LP of
period p under the case's uc_mode, with every investment pinned to the
master iterate via equal bounds. Non-served energy keeps every subproblem
feasible, so only optimality cuts arise. The cut for period p at iterate x is

    theta_p >= v_p(x) + sum_j z_j (x_j^new - x_j)

where z_j is the reduced cost of pinned investment column j in the
subproblem optimum (its objective coefficient there is zero, so z_j is
the sensitivity of v_p to moving both bounds together).

The master's investment columns, cost variables and reserve rows are
built once per solve; each cut's row is added once, when the cut is made,
in period order, so results do not depend on completion order. Each
iteration appends the new cut rows to the built master LP
(``LpBuilder.extend``) and solves it in one HiGHS model kept for the whole
solve (``lp.KeptModel``): the first master solve is cold, and each later
one adds the new rows to the kept model and restarts dual simplex from its
basis. A warm master optimum that is not optimal or fails the KKT check
falls back to a cold solve.

Subproblem LPs are built once and re-pinned in place each iteration.
Each is solved through its own ``lp.ReducedModel``, which is not ready
before its first accepted optimum: iteration 1 solves each subproblem
cold on its full LP. That also keeps iteration 1 on the full LP, whose
iterate pins every investment at 0, where the subproblem's dual is
degenerate: the reduced LP's optimum is another valid subgradient there,
and it would change the cut and so the iterate path. From iteration 2 on,
each subproblem is solved on its row-reduced LP: the rows that the pinned
investments leave with one free entry become column bounds, since HiGHS
does no presolve from a basis. Its first reduced solve, at iteration 2,
warm-starts dual simplex from the full LP's basis of iteration 1, mapped
onto the reduced LP; each later one from its last reduced basis, which
stays dual feasible as only the pinned bounds move. A reduced attempt
that is not optimal or fails the KKT check on the full LP falls back to a
cold solve of the full LP (``warm_fallbacks`` in the timing), whose basis
the next attempt maps in turn.

The result holds the incumbent build by name (``investment``) and the
phase-1 summary of the subproblem solves of the iteration that set it
(``phase1``, see metrics.phase_summary); no subproblem is solved again
after the loop. Those solves may be reduced ones, and a reduced optimum
can be another vertex than a cold solve's at the same build: the build
does not determine how free VRE energy splits between use and
curtailment, nor how non-served energy splits between regions, so the
summary holds only the thermal dispatch by tech and the variable cost.

The result also holds the last basis each subproblem's ReducedModel kept,
that of the last iteration's solve, on the subproblem's full LP
(``ReducedModel.full_basis``), by block and period
(``expansion.basis_blocks``). Laid end to end, the subproblems of a case
with relaxed commitment are its operations LP at the same build, but for
the wrap-around rows; so these bases start the HRB's dispatch
(``pipeline.dispatch_portfolio``).

An optional convex-combination step toward the incumbent (stab_weight in
[0, 1)) damps the master iterate; 0 is pure Benders. ``BendersResult.timing``
holds per-iteration wall times and subproblem simplex work.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .expansion import (
    BuildOptions,
    VarIndex,
    add_investment_columns,
    add_reserve_rows,
    basis_blocks,
    build_lp,
    extract_solution,
    fixed_cost,
    investment_entries,
)
from .lp import GE, KeptModel, LpBuilder, ReducedModel, solve_simplex
from .metrics import phase_summary
from .model import SystemCase

logger = logging.getLogger(__name__)


@dataclass
class BendersResult:
    status: str  # "optimal" | "max_iter"
    objective: float  # best upper bound
    lower_bound: float
    gap: float
    iterations: int
    investment: dict  # the incumbent build by name
    phase1: dict  # metrics.phase_summary of the subproblem solves at the incumbent
    # the last kept basis of each subproblem, on its full LP, by block and
    # period (expansion.basis_blocks)
    bases: dict = field(default_factory=dict)
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
    """One operations LP per period under the case's uc_mode, as (lp,
    VarIndex), with every investment pinned (at 0 until re-pinned) and no
    investment cost in the objective."""
    pinned = {name: 0.0 for name, *_ in investment_entries(case)}
    return [
        build_lp(case, BuildOptions(uc=case.uc_mode, reserve=False, periods=(p,), fix=pinned))
        for p in range(case.n_periods)
    ]


def solve_benders(
    case: SystemCase,
    reserve: bool = True,
    gap_tol: float = 1e-4,
    max_iter: int = 200,
    stab_weight: float = 0.0,
    sub_jobs: int = 1,
) -> BendersResult:
    if not 0.0 <= stab_weight < 1.0:
        raise ValueError("stab_weight must be in [0, 1)")
    if sub_jobs < 1:
        raise ValueError("sub_jobs must be >= 1")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    order = [name for name, *_ in investment_entries(case)]
    subs = build_subproblems(case)
    inv = subs[0][1].inv

    master = _Master(case, reserve)
    best_ub = np.inf
    best_x = None
    best_sols = None  # the subproblem solutions at best_x
    # not ready before a first solve, so iteration 1 is cold on the full LP
    reduced = [ReducedModel() for _ in subs]
    log = []
    timing = []
    status = "max_iter"
    lower = -np.inf
    gap = np.inf

    # one pool for the whole solve; with sub_jobs == 1 it starts no thread
    with ThreadPoolExecutor(max_workers=sub_jobs) as pool:
        solve_all = pool.map if sub_jobs > 1 else map
        for it in range(1, max_iter + 1):
            t0 = time.perf_counter()
            lower, x_master = master.solve()
            t1 = time.perf_counter()
            trial = x_master if best_x is None else (1.0 - stab_weight) * x_master + stab_weight * best_x

            for lp, _ix in subs:
                _pin(lp, inv, trial)
            tried = [r.ready for r in reduced]
            # each subproblem owns its LP object; solves are independent
            sols = list(solve_all(solve_simplex, [lp for lp, _ix in subs], reduced))
            t2 = time.perf_counter()
            for p, sol in enumerate(sols):
                if not sol.is_optimal:
                    raise RuntimeError(f"subproblem {p} {sol.status}")
            timing.append((
                it,
                t1 - t0,
                t2 - t1,
                sum(s.stats.iterations for s in sols),
                sum(t and not s.stats.warm for t, s in zip(tried, sols)),
                sum(s.stats.retried for s in sols),
            ))
            ops_total = sum(s.objective for s in sols)

            ub_trial = fixed_cost(case, dict(zip(order, trial))) + ops_total
            if ub_trial < best_ub:
                best_ub = ub_trial
                best_x = trial.copy()
                best_sols = sols
            gap = (best_ub - lower) / max(1.0, abs(best_ub))
            log.append((it, lower, best_ub, gap))
            if it % 10 == 0:
                logger.info("benders iteration %d: lower %.6e upper %.6e gap %.3e", it, lower, best_ub, gap)
            if gap <= gap_tol:
                status = "optimal"
                break
            for p, sol in enumerate(sols):
                master.add_cut(p, sol.objective, trial, sol.reduced_costs[inv])
    parts = [extract_solution(case, ix, sol) for (_lp, ix), sol in zip(subs, best_sols)]
    bases = {}
    for (_lp, ix), model in zip(subs, reduced):
        basis = model.full_basis()
        if basis is not None:
            bases.update(basis_blocks(case, ix, *basis.codes()))
    return BendersResult(
        status=status,
        objective=best_ub,
        lower_bound=lower,
        gap=gap,
        iterations=len(log),
        log=log,
        timing=timing,
        investment=parts[0].investment,  # pinned: identical in every part
        phase1=phase_summary(parts, case),
        bases=bases,
    )
