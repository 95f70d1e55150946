"""Decomposed planning solves must agree with the monolithic LP."""

import inspect
import logging
from dataclasses import replace

import numpy as np
import pytest

from gridres import benders as benders_module
from gridres import lp as lp_module
from gridres.benders import _Master, solve_benders
from gridres.expansion import (
    VarIndex,
    add_investment_columns,
    add_reserve_rows,
    build_expansion_lp,
    extract_solution,
)
from gridres.lp import GE, Attempt, KeptModel, LpBuilder, ReducedModel, solve_simplex
from gridres.pipeline import ConfigError, RunConfig
from gridres.syngen import SynthConfig, generate

from conftest import make_unit, one_bus_case


def _monolithic(case, reserve=True):
    lp, ix = build_expansion_lp(case, reserve=reserve)
    sol = solve_simplex(lp)
    assert sol.is_optimal
    return extract_solution(case, ix, sol)


def test_hand_fixture_reaches_the_monolithic_optimum():
    case = one_bus_case([10.0, 10.0], fixed_cost=100.0)
    r = solve_benders(case)
    assert r.converged
    assert r.iterations <= 5
    assert r.objective == pytest.approx(1500.0, rel=1e-6)
    assert r.investment["xg[g1]"] == pytest.approx(10.0, abs=1e-6)


def test_bounds_are_monotone_and_ordered():
    case = one_bus_case([10.0, 10.0], fixed_cost=100.0)
    r = solve_benders(case, reserve=False)
    lbs = [lb for _, lb, _, _ in r.log]
    ubs = [ub for _, _, ub, _ in r.log]
    assert all(b >= a - 1e-9 for a, b in zip(lbs, lbs[1:]))  # lb never regresses
    assert all(b <= a + 1e-9 for a, b in zip(ubs, ubs[1:]))  # incumbent only improves
    assert all(ub >= lb - 1e-9 for lb, ub in zip(lbs, ubs))
    assert r.log[-1][0] == r.iterations


def test_infinite_gap_tolerance_stops_after_one_iteration():
    case = one_bus_case([10.0, 10.0], fixed_cost=100.0)
    r = solve_benders(case, gap_tol=np.inf)
    assert r.converged
    assert r.iterations == 1
    assert r.lower_bound <= r.objective + 1e-9


def test_iteration_cap_reports_max_iter():
    case = one_bus_case([10.0, 10.0], fixed_cost=100.0, reserve_margin=0.0)
    r = solve_benders(case, reserve=False, gap_tol=1e-12, max_iter=1)
    assert r.status == "max_iter"
    assert not r.converged
    assert r.iterations == 1
    assert np.isfinite(r.objective)
    assert r.objective >= r.lower_bound - 1e-9


def test_nse_keeps_subproblems_feasible_with_no_capacity():
    case = one_bus_case([10.0, 4.0], fixed_cost=100.0, max_new=0.0)
    r = solve_benders(case, reserve=False)
    assert r.converged
    assert r.objective == pytest.approx(2000.0 * 14.0, rel=1e-9)


def test_parameter_validation():
    case = one_bus_case([10.0, 10.0])
    bad = [
        ("stab_weight", 1.0), ("stab_weight", -0.1), ("stab_weight", float("nan")), ("stab_weight", "0.3"),
        ("sub_jobs", 0), ("sub_jobs", 1.5), ("max_iter", 0), ("max_iter", 2.5),
    ]
    for key, value in bad:
        # the solver and the config reject each with one message
        with pytest.raises(ValueError, match=f"^{key} must be") as solver:
            solve_benders(case, **{key: value})
        with pytest.raises(ConfigError) as config:
            RunConfig(out_dir="o", input_dir="i", **{key: value})
        assert str(config.value) == str(solver.value), (key, value)
    # one default for the step weight
    assert inspect.signature(solve_benders).parameters["stab_weight"].default == RunConfig.stab_weight == 0.3


def test_stabilized_run_still_converges():
    cfg = SynthConfig(n_regions=2, periods=2, period_length=12)
    case = generate(cfg, seed=3)
    plain = solve_benders(case, gap_tol=1e-6, stab_weight=0.0)
    damped = solve_benders(case, gap_tol=1e-6, stab_weight=0.5)
    assert plain.converged and damped.converged
    assert damped.objective == pytest.approx(plain.objective, rel=1e-5)


def test_parallel_subproblems_match_serial_exactly():
    cfg = SynthConfig(n_regions=2, periods=3, period_length=12)
    case = generate(cfg, seed=7)
    serial = solve_benders(case, sub_jobs=1)
    parallel = solve_benders(case, sub_jobs=2)
    # cuts enter in period order either way, so the runs are identical
    assert parallel.objective == serial.objective
    assert parallel.iterations == serial.iterations
    assert parallel.investment == serial.investment
    assert parallel.log == serial.log


@pytest.mark.parametrize("seed", range(10))
def test_matches_monolithic_on_seeded_cases(seed):
    # sweep region/period/commitment combinations with one seed each
    n_regions = 1 + seed % 3
    periods = 1 + seed % 4
    uc = "relaxed" if seed % 2 == 0 else "none"
    cfg = SynthConfig(
        n_regions=n_regions,
        periods=periods,
        period_length=12,
        sites_per_region={"solar": 2, "onshore_wind": 2},
        units_per_plant=2,
    )
    case = generate(cfg, seed=seed).with_updates(uc_mode=uc)
    mono = _monolithic(case)
    r = solve_benders(case, gap_tol=1e-5)
    assert r.converged
    assert r.objective == pytest.approx(mono.objective, rel=1e-4)
    assert r.objective >= mono.objective - 1e-6 * max(1.0, abs(mono.objective))


def test_min_output_case_agrees_across_uc_modes():
    units = [make_unit("u1", "R1", "g1", 12.0, min_output=0.4)]
    case = one_bus_case(
        [10.0, 3.0, 10.0, 3.0], period_length=2,
        existing_units=units, fixed_cost=0.0, max_new=0.0,
    )
    for uc in ("relaxed", "none"):
        moded = case.with_updates(uc_mode=uc)
        mono = _monolithic(moded, reserve=False)
        r = solve_benders(moded, reserve=False, gap_tol=1e-7)
        assert r.converged
        assert r.objective == pytest.approx(mono.objective, rel=1e-6)


def test_reruns_are_identical():
    cfg = SynthConfig(n_regions=2, periods=3, period_length=12)
    case = generate(cfg, seed=7)
    first, second = solve_benders(case), solve_benders(case)
    for key in ("status", "objective", "lower_bound", "gap", "iterations", "log", "investment", "phase1"):
        assert getattr(first, key) == getattr(second, key), key
    # the work done matches too, only the wall times differ
    assert [t[3:] for t in first.timing] == [t[3:] for t in second.timing]


def test_subproblems_warm_start_after_their_first_solve(monkeypatch):
    cfg = SynthConfig(n_regions=2, periods=3, period_length=12)
    case = generate(cfg, seed=7)
    calls = []
    based = []
    real = benders_module.solve_simplex

    def spy(lp, warm=None):
        given = warm is not None and warm.ready
        if isinstance(warm, ReducedModel):
            based.append((given, given and warm.basis.shape == (lp.n_vars, lp.n_rows)))
        sol = real(lp, warm)
        calls.append((given, sol.stats.warm))
        return sol

    monkeypatch.setattr(benders_module, "solve_simplex", spy)
    r = solve_benders(case)
    assert r.iterations > 2
    assert [row[0] for row in r.timing] == list(range(1, r.iterations + 1))
    assert all(row[4] == row[5] == 0 for row in r.timing)  # no fall-through, no retry
    assert all(given == warm for given, warm in calls)
    # every master solve after the first comes from its warm-start object,
    # and every subproblem solve but period 0's first; only the first master
    # and period 0's first subproblem solve are cold on the full LP, and
    # nothing is solved after the loop
    n = case.n_periods
    assert sum(warm for _given, warm in calls) == (n + 1) * (r.iterations - 1) + n - 1
    assert sum(not warm for _given, warm in calls) == 1 + 1
    # period 0's first solve has no basis; its optimal basis, of the full LP,
    # seeds the other periods' first solves, and period 0's second maps it
    # too; each later solve starts from its reduced basis
    assert based == (
        [(False, False)] + [(True, True)] * n + [(True, False)] * (n * (r.iterations - 1) - 1)
    )


def test_only_the_master_solves_lps_that_build_lp_did_not_build(monkeypatch):
    # the benchmark's tracer (ladderbench/tracing.py) times a solve inside
    # solve_benders as a subproblem's when build_lp built its LP there, and
    # as the master's otherwise
    case = generate(SynthConfig(n_regions=2, periods=3, period_length=12), seed=7)
    built, solves = [], []
    real_build, real_solve = benders_module.build_lp, benders_module.solve_simplex

    def build_spy(*args, **kwargs):
        out = real_build(*args, **kwargs)
        built.append(out[0])
        return out

    def solve_spy(lp, warm=None):
        solves.append((lp, warm))
        return real_solve(lp, warm)

    monkeypatch.setattr(benders_module, "build_lp", build_spy)
    monkeypatch.setattr(benders_module, "solve_simplex", solve_spy)
    r = solve_benders(case)
    assert len(built) == case.n_periods
    subs = {id(lp) for lp in built}
    masters = [warm for lp, warm in solves if id(lp) not in subs]
    others = [warm for lp, warm in solves if id(lp) in subs]
    assert len(masters) == r.iterations > 1
    assert isinstance(masters[0], KeptModel) and all(w is masters[0] for w in masters)
    assert len(others) == case.n_periods * r.iterations
    assert all(isinstance(w, ReducedModel) for w in others)


def _master_from_scratch(case, reserve, cuts):
    """The master as a fresh build from the whole cut list."""
    b = LpBuilder()
    ix = VarIndex()
    inv_of_kind = add_investment_columns(case, b, ix)
    theta = b.vars(case.n_periods, 0.0, np.inf, 1.0)
    if reserve:
        add_reserve_rows(case, b, inv_of_kind)
    inv = np.arange(ix.inv.start, ix.inv.stop)
    for period, value, point, slope in cuts:
        nz = np.flatnonzero(slope)
        rhs = value
        for j in nz:
            rhs -= slope[j] * point[j]
        b.row("cut", GE, rhs, [(theta[period], 1.0), *zip(inv[nz], -slope[nz])])
    return b.build()


@pytest.mark.parametrize("reserve", [True, False])
def test_incremental_master_equals_a_fresh_build(tmp_path, synth_small, reserve):
    case = synth_small
    master = _Master(case, reserve)
    n_inv = master.inv.stop - master.inv.start
    rng = np.random.default_rng(5)
    cuts = []
    for it in range(4):
        point = rng.uniform(0.0, 50.0, n_inv)
        for p in range(case.n_periods):
            slope = rng.normal(scale=1e3, size=n_inv) * (rng.uniform(size=n_inv) < 0.6)
            cuts.append((p, float(rng.uniform(1e5, 1e7)), point, slope))
            master.add_cut(*cuts[-1])
        got, want = tmp_path / f"got{it}.lp", tmp_path / f"want{it}.lp"
        master.builder.build().dump(str(got))
        _master_from_scratch(case, reserve, cuts).dump(str(want))
        assert got.read_text() == want.read_text(), f"after {len(cuts)} cuts"


@pytest.mark.parametrize("reserve", [True, False])
def test_master_lp_grows_into_a_fresh_build(tmp_path, synth_small, reserve):
    case = synth_small
    master = _Master(case, reserve)
    n_inv = master.inv.stop - master.inv.start
    rng = np.random.default_rng(6)
    for it in range(3):
        point = rng.uniform(0.0, 50.0, n_inv)
        for p in range(case.n_periods):
            slope = rng.normal(scale=1e3, size=n_inv) * (rng.uniform(size=n_inv) < 0.6)
            master.add_cut(p, float(rng.uniform(1e5, 1e7)), point, slope)
        master.solve()
        got, want = tmp_path / f"got{it}.lp", tmp_path / f"want{it}.lp"
        master.lp.dump(str(got))
        master.builder.build().dump(str(want))
        assert got.read_text() == want.read_text(), f"round {it}"


class _NeverKept(KeptModel):
    """Every master solve cold, as before the master was kept."""

    def keep(self, run):
        self.highs = None


def _master_solves(monkeypatch):
    """Record the master solutions of solve_benders (the calls that pass kept)."""
    sols = []
    real = benders_module.solve_simplex

    def spy(lp, warm=None):
        sol = real(lp, warm)
        if isinstance(warm, KeptModel):
            sols.append(sol)
        return sol

    monkeypatch.setattr(benders_module, "solve_simplex", spy)
    return sols


@pytest.mark.parametrize("reserve", [True, False])
def test_kept_master_matches_a_cold_master(monkeypatch, synth_small, reserve):
    # the pipeline's damping: without it, a round-off change of one trial
    # point can pick another optimal dual vertex of a subproblem, and with
    # it another cut, so kept and cold masters part ways on synth_small
    stab = RunConfig.stab_weight
    kept_sols = _master_solves(monkeypatch)
    kept = solve_benders(synth_small, reserve=reserve, stab_weight=stab)
    monkeypatch.undo()
    monkeypatch.setattr(benders_module, "KeptModel", _NeverKept)
    cold_sols = _master_solves(monkeypatch)
    cold = solve_benders(synth_small, reserve=reserve, stab_weight=stab)

    assert kept.converged and cold.converged
    assert kept.iterations == cold.iterations > 1
    assert kept.objective == pytest.approx(cold.objective, rel=1e-9)
    assert [s.stats.warm for s in kept_sols] == [False] + [True] * (kept.iterations - 1)
    assert not any(s.stats.warm for s in cold_sols)
    for k, c in zip(kept_sols, cold_sols):
        assert k.kkt.ok()
        assert k.objective == pytest.approx(c.objective, rel=1e-9)


def test_failing_warm_masters_fall_back_to_the_cold_master(monkeypatch):
    case = generate(SynthConfig(n_regions=2, periods=3, period_length=12), seed=7)
    monkeypatch.setattr(benders_module, "KeptModel", _NeverKept)
    cold = solve_benders(case)
    monkeypatch.undo()

    tried = []

    def failing(self, lp):
        tried.append(lp.n_rows)
        return Attempt("failed", "forced warm failure")

    monkeypatch.setattr(KeptModel, "attempt", failing)
    sols = _master_solves(monkeypatch)
    r = solve_benders(case)
    assert len(tried) == r.iterations - 1  # every master after the first tried warm
    assert not any(s.stats.warm or s.stats.retried for s in sols)
    for key in ("status", "objective", "lower_bound", "iterations", "log"):
        assert getattr(r, key) == getattr(cold, key), key
    assert r.investment == cold.investment


def _reduced_solves(monkeypatch):
    """Record (bounds, solution) of each subproblem solve that tries its
    reduced LP."""
    seen = []
    real = benders_module.solve_simplex

    def spy(lp, warm=None):
        tried = isinstance(warm, ReducedModel) and warm.ready
        sol = real(lp, warm)
        if tried:
            seen.append((replace(lp, lo=lp.lo.copy(), hi=lp.hi.copy()), sol))
        return sol

    monkeypatch.setattr(benders_module, "solve_simplex", spy)
    return seen


def test_reduced_subproblems_give_the_full_lps_cut_slopes(monkeypatch):
    case = generate(SynthConfig(n_regions=2, periods=3, period_length=12), seed=7)
    seen = _reduced_solves(monkeypatch)
    r = solve_benders(case, stab_weight=RunConfig.stab_weight)
    n = case.n_periods
    assert len(seen) == n * (r.iterations - 1) + n - 1 > 0
    inv = slice(0, len(r.investment))  # investment columns come first
    for lp, sol in seen:
        full = solve_simplex(lp)
        assert sol.stats.warm and sol.kkt.ok()
        assert abs(sol.objective - full.objective) <= 1e-9 * max(1.0, abs(full.objective))
        z, want = sol.reduced_costs[inv], full.reduced_costs[inv]
        assert np.all(np.abs(z - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))


def test_failed_reduced_attempts_fall_back_and_are_counted(monkeypatch):
    case = generate(SynthConfig(n_regions=2, periods=3, period_length=12), seed=7)
    plain = solve_benders(case)
    tried = []

    def failing(self, lp):
        tried.append(lp)
        return Attempt("failed", "forced reduced failure")

    monkeypatch.setattr(ReducedModel, "attempt", failing)
    r = solve_benders(case)
    n = case.n_periods
    assert r.converged
    assert len(tried) == n * (r.iterations - 1) + n - 1
    assert [row[4] for row in r.timing] == [n - 1] + [n] * (r.iterations - 1)
    assert all(row[5] == 0 for row in r.timing)
    # the full cold solves may take another path to another near-optimal build
    assert r.objective >= plain.lower_bound - 1e-9 * abs(plain.lower_bound)
    assert plain.objective >= r.lower_bound - 1e-9 * abs(r.lower_bound)


def test_interior_point_retries_are_counted(monkeypatch):
    # every simplex run of a fresh HiGHS model fails, so each subproblem
    # solve falls through its warm and cold attempts to interior point
    case = generate(SynthConfig(n_regions=2, periods=3, period_length=12), seed=7)
    real = lp_module.highs_attempt

    def simplex_fails(lp, ipm, basis=None):
        return real(lp, ipm) if ipm else Attempt("failed", "forced simplex failure")

    monkeypatch.setattr(lp_module, "highs_attempt", simplex_fails)
    r = solve_benders(case)
    n = case.n_periods
    assert r.converged
    assert [row[4] for row in r.timing] == [n - 1] + [n] * (r.iterations - 1)
    assert [row[5] for row in r.timing] == [n] * r.iterations


def test_bounds_are_logged_every_ten_iterations(caplog, capsys):
    case = generate(SynthConfig(n_regions=2, periods=3, period_length=12), seed=7)
    with caplog.at_level(logging.INFO, logger="gridres"):
        r = solve_benders(case, max_iter=20, gap_tol=0.0)
    assert r.iterations == 20
    messages = [rec.getMessage() for rec in caplog.records if rec.name == "gridres.benders"]
    assert [m.split(":")[0] for m in messages] == ["benders iteration 10", "benders iteration 20"]
    it, lower, upper, gap = r.log[-1]
    assert messages[-1] == f"benders iteration 20: lower {lower:.6e} upper {upper:.6e} gap {gap:.3e}"
    assert capsys.readouterr() == ("", "")  # the library only logs
