from dataclasses import replace

import numpy as np
import pytest

from gridres import lp as lp_module
from gridres.lp import (
    EQ,
    GE,
    LE,
    Attempt,
    LpBuilder,
    Solution,
    SolverNumericsError,
    highs,
    highs_attempt,
    kkt_residuals,
    linprog_attempt,
    solve_simplex,
    solve_with,
)

from oracles import random_boxed_lp, reference_kkt_residuals, vertex_optimum


def test_textbook_maximum():
    # max x + y s.t. x <= 1, y <= 2 as a minimization
    b = LpBuilder()
    x = b.var("x", 0.0, 1.0, -1.0)
    y = b.var("y", 0.0, 2.0, -1.0)
    sol = solve_simplex(b.build())
    assert sol.is_optimal
    assert sol.objective == pytest.approx(-3.0, abs=1e-9)
    assert sol.x[x] == pytest.approx(1.0)
    assert sol.x[y] == pytest.approx(2.0)


def _infeasible_lp():
    b = LpBuilder()
    v = b.var("v", 0.0, 1.0, 1.0)
    b.row("bad", GE, 2.0, [(v, 1.0)])
    return b.build()


def _unbounded_lp():
    b = LpBuilder()
    b.var("v", 0.0, np.inf, -1.0)
    return b.build()


def test_infeasible_detected():
    assert solve_simplex(_infeasible_lp()).status == "infeasible"


def test_unbounded_detected():
    assert solve_simplex(_unbounded_lp()).status == "unbounded"


def test_obj_offset_carried_through():
    b = LpBuilder()
    b.var("v", 0.0, 2.0, 1.0)
    b.obj_offset = 10.0
    assert solve_simplex(b.build()).objective == pytest.approx(10.0)


def test_equality_row_dual_is_marginal_price():
    # min 3a + b  s.t. a + b == 5, a >= 1: marginal unit of demand costs 1
    b = LpBuilder()
    a = b.var("a", 0.0, np.inf, 3.0)
    c = b.var("b", 0.0, np.inf, 1.0)
    eq = b.row("eq", EQ, 5.0, [(a, 1.0), (c, 1.0)])
    amin = b.row("amin", GE, 1.0, [(a, 1.0)])
    sol = solve_simplex(b.build())
    assert sol.objective == pytest.approx(7.0)
    assert sol.row_duals[eq] == pytest.approx(1.0)
    # relaxing a >= 1 by one unit saves the 3-1 cost difference
    assert sol.row_duals[amin] == pytest.approx(2.0)


def test_le_row_dual_sign_in_minimization():
    # binding <= row on a profitable variable carries a negative dual
    b = LpBuilder()
    x = b.var("x", 0.0, 3.0, -1.0)
    y = b.var("y", 0.0, 2.0, -2.0)
    cap = b.row("cap", LE, 4.0, [(x, 1.0), (y, 1.0)])
    sol = solve_simplex(b.build())
    assert sol.objective == pytest.approx(-6.0)
    assert sol.row_duals[cap] == pytest.approx(-1.0)
    # y pinned at its upper bound: reduced cost c - A'y = -2 + 1 = -1
    assert sol.reduced_costs[y] == pytest.approx(-1.0)


def test_degenerate_ties_still_solve():
    b = LpBuilder()
    cols = [b.var(f"x{j}", 0.0, 1.0, -1.0) for j in range(4)]
    for i in range(4):
        b.row(f"r{i}", LE, 2.0, [(c, 1.0) for c in cols])
    sol = solve_simplex(b.build())
    assert sol.is_optimal
    assert sol.objective == pytest.approx(-2.0)


def test_determinism_across_repeat_solves():
    lp = random_boxed_lp(seed=123)
    a = solve_simplex(lp)
    c = solve_simplex(lp)
    assert a.objective == c.objective
    assert np.array_equal(a.x, c.x)
    assert np.array_equal(a.row_duals, c.row_duals)


# -- vertex-enumeration oracle -------------------------------------------------


def test_oracle_on_hand_instance():
    b = LpBuilder()
    x = b.var("x", 0.0, 3.0, -1.0)
    y = b.var("y", 0.0, 2.0, -2.0)
    b.row("cap", LE, 4.0, [(x, 1.0), (y, 1.0)])
    assert vertex_optimum(b.build()) == pytest.approx(-6.0, abs=1e-12)


def test_oracle_detects_infeasibility():
    b = LpBuilder()
    v = b.var("v", 0.0, 1.0, 1.0)
    b.row("bad", GE, 2.0, [(v, 1.0)])
    assert vertex_optimum(b.build()) is None


def test_simplex_matches_vertex_oracle_on_seeded_instances():
    for seed in range(50):
        lp = random_boxed_lp(seed, feasible=True)
        want = vertex_optimum(lp)
        sol = solve_simplex(lp)
        assert want is not None, f"seed {seed} generated an infeasible instance"
        assert sol.is_optimal, f"seed {seed}: solver says {sol.status}"
        assert sol.objective == pytest.approx(want, abs=1e-8), f"seed {seed}"


def test_simplex_agrees_with_oracle_on_possibly_infeasible_instances():
    statuses = set()
    for seed in range(200, 240):
        lp = random_boxed_lp(seed, feasible=False)
        want = vertex_optimum(lp)
        sol = solve_simplex(lp)
        statuses.add(sol.status)
        if want is None:
            assert sol.status == "infeasible", f"seed {seed}"
        else:
            assert sol.is_optimal, f"seed {seed}"
            assert sol.objective == pytest.approx(want, abs=1e-8), f"seed {seed}"
    assert "infeasible" in statuses  # the sweep must actually exercise both outcomes
    assert "optimal" in statuses


# -- KKT residuals --------------------------------------------------------------


def test_kkt_clean_on_random_corpus():
    for seed in range(60, 90):
        lp = random_boxed_lp(seed, feasible=True)
        sol = solve_simplex(lp)
        assert sol.is_optimal
        assert sol.kkt.ok()
        assert sol.kkt.primal <= 1e-7 * sol.kkt.primal_scale
        assert sol.kkt.dual <= 1e-7 * sol.kkt.dual_scale
        assert sol.kkt.compl <= 1e-6


def test_kkt_residuals_equal_the_loop_reference_on_random_corpus():
    rng = np.random.default_rng(0)
    for seed in range(60, 90):
        lp = random_boxed_lp(seed, feasible=True)
        sol = solve_simplex(lp)
        points = [(sol.x, sol.row_duals)]
        # off-optimum points make every residual branch nonzero somewhere
        for _ in range(3):
            points.append((
                sol.x + rng.normal(scale=0.5, size=lp.n_vars),
                sol.row_duals + rng.normal(scale=0.5, size=lp.n_rows),
            ))
        for x, y in points:
            assert kkt_residuals(lp, x, y) == reference_kkt_residuals(lp, x, y), f"seed {seed}"


def test_kkt_flags_a_wrong_primal_point():
    b = LpBuilder()
    x = b.var("x", 0.0, 3.0, 1.0)
    b.row("need", GE, 2.0, [(x, 1.0)])
    lp = b.build()
    sol = solve_simplex(lp)
    bad = kkt_residuals(lp, np.array([0.0]), sol.row_duals)
    assert not bad.ok()


def test_kkt_flags_a_wrong_dual_vector():
    b = LpBuilder()
    x = b.var("x", 0.0, 3.0, 1.0)
    b.row("need", GE, 2.0, [(x, 1.0)])
    lp = b.build()
    sol = solve_simplex(lp)
    bad = kkt_residuals(lp, sol.x, np.array([-5.0]))  # GE dual must be >= 0
    assert not bad.ok()


def test_lp_dump_is_parseable_text(tmp_path):
    lp = random_boxed_lp(seed=7)
    path = tmp_path / "dump.lp"
    lp.dump(str(path))
    text = path.read_text().splitlines()
    assert text[0].startswith("min ")
    assert "objective" in text
    assert "rows" in text
    assert "triplets" in text


# -- backends, the interior-point retry and solve statistics ---------------------

needs_highs = pytest.mark.skipif(highs is None, reason="scipy ships no HiGHS bindings")
BACKENDS = [
    pytest.param(highs_attempt, id="highs", marks=needs_highs),
    pytest.param(linprog_attempt, id="linprog"),
]


def _assert_identical(a, b):
    assert a.status == b.status
    assert a.objective == b.objective
    for field in ("x", "row_duals", "reduced_costs"):
        u, v = getattr(a, field), getattr(b, field)
        assert (u is None) == (v is None), field
        if u is not None:
            assert np.array_equal(u, v), field
            assert np.array_equal(np.signbit(u), np.signbit(v)), field
    assert a.kkt == b.kkt


@needs_highs
def test_direct_backend_matches_linprog_on_random_corpus():
    lps = [random_boxed_lp(seed, feasible=True) for seed in range(50)]
    lps += [random_boxed_lp(seed, feasible=False) for seed in range(200, 240)]
    lps += [_infeasible_lp(), _unbounded_lp()]
    statuses = set()
    for lp in lps:
        direct = solve_with(lp, highs_attempt)
        _assert_identical(direct, solve_with(lp, linprog_attempt))
        statuses.add(direct.status)
    assert statuses == {"optimal", "infeasible", "unbounded"}


@needs_highs
@pytest.mark.parametrize("name", ["expansion_relaxed", "expansion_none", "subproblem", "operations"])
def test_direct_backend_matches_linprog_on_synth_lps(synth_small_lps, name):
    lp = synth_small_lps[name]
    direct = solve_with(lp, highs_attempt)
    assert direct.is_optimal
    _assert_identical(direct, solve_with(lp, linprog_attempt))


def test_solve_stats_describe_the_lp_and_its_run(synth_small_lps):
    lp = synth_small_lps["operations"]
    stats = solve_simplex(lp).stats
    assert (stats.rows, stats.cols, stats.nnz) == (lp.n_rows, lp.n_vars, lp.a_matrix.nnz)
    assert stats.iterations > 0
    assert stats.run_s is None if highs is None else stats.run_s > 0.0
    assert not stats.retried
    assert solve_simplex(_infeasible_lp()).stats.rows == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_failed_first_attempt_is_retried_with_interior_point(monkeypatch, backend):
    calls = []

    def failing_first(lp, ipm):
        calls.append(ipm)
        return backend(lp, ipm) if ipm else Attempt("failed", "forced failure")

    monkeypatch.setattr(lp_module, "BACKEND", failing_first)
    lp = random_boxed_lp(seed=3, feasible=True)
    sol = solve_simplex(lp)
    assert calls == [False, True]
    assert sol.is_optimal and sol.kkt.ok()
    assert sol.stats.retried
    assert sol.objective == pytest.approx(vertex_optimum(lp), abs=1e-8)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_kkt_failure_is_retried_with_interior_point(monkeypatch, backend):
    calls = []
    real = lp_module.kkt_residuals

    def off_first(lp, x, y):
        calls.append(None)
        kkt = real(lp, x, y)
        return replace(kkt, primal=np.inf) if len(calls) == 1 else kkt

    monkeypatch.setattr(lp_module, "BACKEND", backend)
    monkeypatch.setattr(lp_module, "kkt_residuals", off_first)
    lp = random_boxed_lp(seed=3, feasible=True)
    sol = solve_simplex(lp)
    assert len(calls) == 2
    assert sol.is_optimal and sol.kkt.ok()
    assert sol.stats.retried
    assert sol.objective == pytest.approx(vertex_optimum(lp), abs=1e-8)


def test_a_failed_retry_raises(monkeypatch):
    monkeypatch.setattr(lp_module, "BACKEND", lambda lp, ipm: Attempt("failed", f"forced ipm={ipm}"))
    with pytest.raises(SolverNumericsError, match="forced ipm=False.*forced ipm=True"):
        solve_simplex(random_boxed_lp(seed=3, feasible=True))
