import pickle
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from gridres import lp as lp_module
from gridres.expansion import BuildOptions, build_lp, investment_entries
from gridres.lp import (
    EQ,
    GE,
    LE,
    Attempt,
    KeptModel,
    LpBuilder,
    ReducedModel,
    Solution,
    SolverNumericsError,
    kkt_residuals,
    solve_simplex,
)

from oracles import random_boxed_lp, reference_kkt_residuals, scipy_csr, vertex_optimum


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


# -- agreement with linprog, the interior-point retry and solve statistics -------


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


def _assert_agrees_with_linprog(sol, lp):
    """scipy's linprog (highs-ds) on the LP as linprog takes it, LE rows
    and negated GE rows as A_ub, EQ rows as A_eq, is the oracle: the same
    status, the objective to 1e-9 relative, and a KKT-clean optimum."""
    le, ge, eq = (lp.senses == s for s in (LE, GE, EQ))
    a = scipy_csr(lp.a_matrix)
    b_ub = np.concatenate([lp.rhs[le], -lp.rhs[ge]])
    res = linprog(
        lp.obj,
        A_ub=sp.vstack([a[le], -a[ge]]) if b_ub.size else None,
        b_ub=b_ub if b_ub.size else None,
        A_eq=a[eq] if eq.any() else None,
        b_eq=lp.rhs[eq] if eq.any() else None,
        bounds=np.column_stack([lp.lo, lp.hi]),
        method="highs-ds",
    )
    assert sol.status == {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
    if sol.is_optimal:
        want = res.fun + lp.obj_offset
        assert abs(sol.objective - want) <= 1e-9 * max(1.0, abs(want))
        assert sol.kkt.ok()


def test_direct_backend_matches_linprog_on_random_corpus():
    lps = [random_boxed_lp(seed, feasible=True) for seed in range(50)]
    lps += [random_boxed_lp(seed, feasible=False) for seed in range(200, 240)]
    lps += [_infeasible_lp(), _unbounded_lp()]
    statuses = set()
    for lp in lps:
        sol = solve_simplex(lp)
        _assert_agrees_with_linprog(sol, lp)
        statuses.add(sol.status)
    assert statuses == {"optimal", "infeasible", "unbounded"}


@pytest.mark.parametrize("name", ["expansion_relaxed", "expansion_none", "subproblem", "operations"])
def test_direct_backend_matches_linprog_on_synth_lps(synth_small_lps, name):
    lp = synth_small_lps[name]
    sol = solve_simplex(lp)
    assert sol.is_optimal
    _assert_agrees_with_linprog(sol, lp)


def test_solve_stats_describe_the_lp_and_its_run(synth_small_lps):
    lp = synth_small_lps["operations"]
    stats = solve_simplex(lp).stats
    assert stats.iterations > 0
    assert not stats.retried
    assert not solve_simplex(_infeasible_lp()).stats.retried


def test_a_failed_first_attempt_is_retried_with_interior_point(monkeypatch):
    calls = []
    real = lp_module.highs_attempt

    def failing_first(lp, ipm):
        calls.append(ipm)
        return real(lp, ipm) if ipm else Attempt("failed", "forced failure")

    monkeypatch.setattr(lp_module, "highs_attempt", failing_first)
    lp = random_boxed_lp(seed=3, feasible=True)
    sol = solve_simplex(lp)
    assert calls == [False, True]
    assert sol.is_optimal and sol.kkt.ok()
    assert sol.stats.retried
    assert sol.objective == pytest.approx(vertex_optimum(lp), abs=1e-8)


def test_a_kkt_failure_is_retried_with_interior_point(monkeypatch):
    calls = []
    real = lp_module.kkt_residuals

    def off_first(lp, x, y, **kwargs):
        calls.append(None)
        kkt = real(lp, x, y, **kwargs)
        return replace(kkt, primal=np.inf) if len(calls) == 1 else kkt

    monkeypatch.setattr(lp_module, "kkt_residuals", off_first)
    lp = random_boxed_lp(seed=3, feasible=True)
    sol = solve_simplex(lp)
    assert len(calls) == 2
    assert sol.is_optimal and sol.kkt.ok()
    assert sol.stats.retried
    assert sol.objective == pytest.approx(vertex_optimum(lp), abs=1e-8)


def test_a_failed_retry_raises(monkeypatch):
    monkeypatch.setattr(lp_module, "highs_attempt", lambda lp, ipm: Attempt("failed", f"forced ipm={ipm}"))
    with pytest.raises(SolverNumericsError, match="forced ipm=False.*forced ipm=True"):
        solve_simplex(random_boxed_lp(seed=3, feasible=True))


# -- warm starts on the row-reduced LP ----------------------------------------------


def _assert_warm_matches_cold(lp, reduced):
    warm = solve_simplex(lp, reduced)
    cold = solve_simplex(lp)
    assert warm.is_optimal and cold.is_optimal
    assert warm.stats.warm and not cold.stats.warm
    assert not warm.stats.retried
    assert warm.kkt.ok()
    assert abs(warm.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))
    assert reduced.basis is not None
    return warm


def test_warm_resolve_after_a_bound_change_matches_cold_on_random_corpus():
    for seed in range(50):
        lp = random_boxed_lp(seed, feasible=True)
        reduced = ReducedModel()
        solve_simplex(lp, reduced)
        # widening the box keeps the interior point the rows are anchored to
        lo, hi = lp.lo.copy(), lp.hi.copy()
        lo[::2] -= 0.5
        hi[1::2] += 0.5
        _assert_warm_matches_cold(replace(lp, lo=lo, hi=hi), reduced)


def test_warm_resolve_of_a_repinned_subproblem_matches_cold(synth_small, synth_small_lps):
    lp = synth_small_lps["subproblem"]
    inv = slice(0, len(investment_entries(synth_small)))  # investment columns come first
    reduced = ReducedModel()
    solve_simplex(lp, reduced)
    for level in (5.0, 40.0, 0.5):
        lo, hi = lp.lo.copy(), lp.hi.copy()
        lo[inv] = hi[inv] = level
        _assert_warm_matches_cold(replace(lp, lo=lo, hi=hi), reduced)


def test_a_basis_of_the_wrong_shape_falls_back_to_the_cold_solve():
    lp = random_boxed_lp(seed=3, feasible=True)
    other = random_boxed_lp(seed=4, feasible=True)
    assert (other.n_vars, other.n_rows) != (lp.n_vars, lp.n_rows)
    reduced = ReducedModel()
    solve_simplex(lp, reduced)
    # in place of a basis of the full LP, to be mapped, then of the reduced LP
    for full in (True, False):
        assert reduced.full == full
        wrong = lp_module.highs_attempt(other, False).model.getBasis()
        reduced.basis = lp_module.Basis(wrong, (other.n_vars, other.n_rows))  # of the wrong shape
        sol = solve_simplex(lp, reduced)
        assert not sol.stats.warm and not sol.stats.retried
        _assert_identical(sol, solve_simplex(lp))
        assert reduced.ready and reduced.full  # the next attempt maps the cold solve's basis
        assert solve_simplex(lp, reduced).stats.warm


def test_a_pickled_basis_keeps_its_status_codes(synth_small, synth_small_lps):
    # a parallel ladder hands the HRB's operate basis to its worker
    # processes pickled; a combo's operations LP is the HRB's re-pinned
    lp = synth_small_lps["operations"]
    reduced = ReducedModel()
    assert not solve_simplex(lp, reduced).stats.warm
    kept = reduced.basis
    assert reduced.full and kept.shape == (lp.n_vars, lp.n_rows)
    back = pickle.loads(pickle.dumps(kept))
    assert back.shape == kept.shape
    for side in ("col_status", "row_status"):
        got, want = getattr(back.highs, side), getattr(kept.highs, side)
        assert np.array_equal(lp_module._codes(got), lp_module._codes(want)), side
    inv = slice(0, len(investment_entries(synth_small)))
    lo, hi = lp.lo.copy(), lp.hi.copy()
    lo[inv] = hi[inv] = lp.lo[inv] * 0.8
    combo = replace(lp, lo=lo, hi=hi)
    sols = [solve_simplex(combo, ReducedModel(basis)) for basis in (kept, back)]
    assert all(sol.stats.warm for sol in sols)
    _assert_identical(*sols)


def _warm_fails_by_status(monkeypatch):
    real = lp_module.highs_attempt

    def attempt(lp, ipm, basis=None):
        return real(lp, ipm) if basis is None else Attempt("failed", "forced warm failure")

    monkeypatch.setattr(lp_module, "highs_attempt", attempt)


def _warm_fails_kkt(monkeypatch):
    calls = []
    real = lp_module.kkt_residuals

    def off_first(lp, x, y, **kwargs):
        calls.append(None)
        kkt = real(lp, x, y, **kwargs)
        return replace(kkt, dual=np.inf) if len(calls) == 1 else kkt

    monkeypatch.setattr(lp_module, "kkt_residuals", off_first)


@pytest.mark.parametrize("fail", [_warm_fails_by_status, _warm_fails_kkt], ids=["status", "kkt"])
def test_a_failed_warm_attempt_falls_back_to_the_cold_solve(monkeypatch, synth_small_lps, fail):
    lp = synth_small_lps["operations"]
    cold = solve_simplex(lp)
    reduced = ReducedModel()
    solve_simplex(lp, reduced)
    assert solve_simplex(lp, reduced).stats.warm
    assert reduced.ready and not reduced.full  # a basis of the reduced LP
    fail(monkeypatch)
    sol = solve_simplex(lp, reduced)
    assert not sol.stats.warm and not sol.stats.retried
    _assert_identical(sol, cold)
    assert reduced.ready and reduced.full  # the next attempt maps the cold solve's basis


def _mapped_calls(monkeypatch):
    """Record each basis that a ReducedModel maps onto its reduced LP."""
    calls = []
    real = lp_module._BoundRows.mapped

    def spy(self, basis, lower_row, upper_row):
        calls.append(basis)
        return real(self, basis, lower_row, upper_row)

    monkeypatch.setattr(lp_module._BoundRows, "mapped", spy)
    return calls


def _mapped_statuses_corrupt(monkeypatch, alien=True):
    """Every mapped column basic and every mapped row nonbasic: a basis
    with too many basic variables, which HiGHS repairs if it is alien and
    rejects if not."""
    real = lp_module._BoundRows.mapped

    def corrupt(self, basis, lower_row, upper_row):
        out = real(self, basis, lower_row, upper_row)
        status = lp_module.highs.HighsBasisStatus
        out.col_status = [status.kBasic] * len(out.col_status)
        out.row_status = [status.kLower] * len(out.row_status)
        out.alien = alien
        return out

    monkeypatch.setattr(lp_module._BoundRows, "mapped", corrupt)


def test_a_mapped_basis_with_wrong_statuses_is_repaired(monkeypatch, synth_small_lps):
    lp = synth_small_lps["subproblem"]
    reduced = ReducedModel()
    first = solve_simplex(lp, reduced)
    _mapped_statuses_corrupt(monkeypatch)
    sol = solve_simplex(lp, reduced)
    assert sol.stats.warm and not sol.stats.retried and sol.kkt.ok()
    assert abs(sol.objective - first.objective) <= 1e-9 * max(1.0, abs(first.objective))


@pytest.mark.parametrize(
    "fail",
    [lambda monkeypatch: _mapped_statuses_corrupt(monkeypatch, alien=False), _warm_fails_kkt],
    ids=["rejected", "kkt"],
)
def test_a_failed_mapped_attempt_falls_back_and_the_next_maps_the_cold_basis(
    monkeypatch, synth_small_lps, fail
):
    lp = synth_small_lps["subproblem"]
    reduced = ReducedModel()
    first = solve_simplex(lp, reduced)
    assert not first.stats.warm and reduced.full
    fail(monkeypatch)
    sol = solve_simplex(lp, reduced)  # maps the first solve's basis, and fails
    assert not sol.stats.warm and not sol.stats.retried
    _assert_identical(sol, first)
    assert reduced.ready and reduced.full
    kept = reduced.basis
    monkeypatch.undo()
    mapped = _mapped_calls(monkeypatch)
    again = solve_simplex(lp, reduced)
    assert again.stats.warm and mapped == [kept]  # the cold solve's basis, mapped
    assert again.kkt.ok() and abs(again.objective - first.objective) <= 1e-9 * max(1.0, abs(first.objective))
    assert not reduced.full


def _bound_row_lp(seed):
    """A random LP with pinned columns, whose rows with one nonzero free
    entry include LE, GE and EQ rows, negative coefficients, two rows on one
    column and an explicit 0.0 entry; plus a row of pinned columns only and
    rows with two free entries. The rows hold at a point inside the box."""
    rng = np.random.default_rng(seed)
    n, k = 6, 3
    b = LpBuilder()
    lo = rng.uniform(-2.0, 0.0, n)
    x = b.vars(n, lo, lo + rng.uniform(1.0, 4.0, n), rng.uniform(-3.0, 3.0, n))
    pins = rng.uniform(0.5, 2.0, k)
    f = b.vars(k, pins, pins)
    point = np.concatenate([rng.uniform(lo + 0.2, lo + 0.8), pins])

    def row(sense, cols, vals, slack=None):
        lhs = float(np.dot(vals, point[cols]))
        slack = rng.uniform(0.0, 0.5) if slack is None else slack
        rhs = lhs + slack if sense == LE else lhs - slack if sense == GE else lhs
        b.rows(sense, [rhs], np.zeros(len(cols)), cols, vals)

    def coef():
        return float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))

    for i in range(n):
        pinned = f[rng.random(k) < 0.5]
        sense = (LE, GE, EQ)[i % 3] if i < 5 else LE
        row(sense, [x[i], *pinned], [coef(), *rng.uniform(-1.0, 1.0, pinned.size)])
    row(GE, [x[1], f[0]], [coef(), coef()])  # a second row on x[1]
    row(LE, [x[5], f[1]], [2.0, -1.0], 0.0)  # two rows on x[5] with one implied bound
    row(LE, [x[5], f[1]], [2.0, -1.0], 0.0)
    row(LE, list(f), [coef() for _ in f])  # pinned columns only
    # x[0]'s entries cancel to an explicit 0.0, which leaves x[3]'s alone
    row(GE, [x[0], x[3], f[2], x[0]], [1.5, coef(), coef(), -1.5])
    for _ in range(3):
        row(rng.choice([LE, GE]), list(x), [coef() for _ in x])
    return b.build(), f


def test_the_bound_rows_are_the_rows_with_one_nonzero_free_entry():
    lp, f = _bound_row_lp(0)
    assert (lp.a_matrix.data == 0.0).sum() == 1
    reduced = ReducedModel()
    assert not solve_simplex(lp, reduced).stats.warm  # cold on the full LP
    assert reduced.rows is None
    assert solve_simplex(lp, reduced).stats.warm
    rows = reduced.rows
    # the six rows on one column each, the second row on x[1], both rows on
    # x[5] and the row where x[0] cancels; kept: the pinned-only row and the
    # three rows on every free column
    assert list(rows.rows) == [0, 1, 2, 3, 4, 5, 6, 7, 8, 10]
    assert list(rows.keep) == [9, 11, 12, 13]
    assert rows.lp.n_rows == 4 and rows.lp.n_vars == lp.n_vars


@pytest.mark.parametrize("seed", range(30))
def test_a_reduced_solve_matches_the_full_cold_solve_on_random_corpus(seed):
    lp, f = _bound_row_lp(seed)
    reduced = ReducedModel()
    rng = np.random.default_rng(100 + seed)
    # the first solve is cold on the full LP; the next maps its basis onto
    # the reduced LP, and the two after it start from the reduced basis. A
    # solve after an infeasible one is cold again.
    last = None  # the last solve through reduced
    for step in range(4):
        if step:  # re-pin: the implied bounds move, the rows stay
            lp.lo[f] = lp.hi[f] = lp.lo[f] * rng.uniform(0.97, 1.03, f.size)
        ready, full = reduced.ready, reduced.full
        assert ready == (last is not None and last.is_optimal)
        assert not ready or full == (not last.stats.warm)
        cold = solve_simplex(lp)
        sol = solve_simplex(lp, reduced)
        last = sol
        assert sol.status == cold.status
        if cold.is_optimal:
            assert sol.stats.warm == ready and not sol.stats.retried
            assert abs(sol.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))
            assert sol.kkt.ok() and kkt_residuals(lp, sol.x, sol.row_duals).ok()
        else:
            assert not reduced.ready


# -- arrays built once per LP, and the kept model ----------------------------------


def test_an_lp_is_read_only_but_for_its_bounds():
    lp = random_boxed_lp(seed=3, feasible=True)
    for array in (lp.obj, lp.senses, lp.rhs, lp.a_matrix.data, lp.a_matrix.indices):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
    with pytest.raises(AttributeError):
        lp.rhs = lp.rhs.copy()
    lp.lo[0] = lp.hi[0] = 0.5  # bounds stay writable: Benders re-pins them


def test_a_repinned_lp_solves_from_its_cache_as_a_fresh_build_does(synth_small):
    names = [name for name, *_ in investment_entries(synth_small)]

    def subproblem(level):
        opts = BuildOptions(
            uc="relaxed", reserve=False, periods=(1,),
            fix={name: level for name in names},
        )
        return build_lp(synth_small, opts)

    lp, ix = subproblem(0.0)
    reduced, reduced_fresh = ReducedModel(), ReducedModel()
    solve_simplex(lp, reduced)  # builds the cached arrays
    solve_simplex(subproblem(0.0)[0], reduced_fresh)
    for level in (5.0, 40.0):
        lp.lo[ix.inv] = lp.hi[ix.inv] = level
        fresh, _ = subproblem(level)
        for field in ("obj", "lo", "hi", "senses", "rhs"):
            assert np.array_equal(getattr(lp, field), getattr(fresh, field)), field
        _assert_identical(solve_simplex(lp), solve_simplex(fresh))
        _assert_identical(solve_simplex(lp, reduced), solve_simplex(fresh, reduced_fresh))


def _add_block(b, triplets, rows, cols, vals, m):
    """b.rows of m LE rows, its triplets recorded with global row numbers."""
    rows, cols, vals = (np.asarray(v, dtype=t) for v, t in ((rows, int), (cols, int), (vals, float)))
    triplets.append((rows + b._m, cols, vals))
    b.rows(LE, np.zeros(m), rows, cols, vals)


def _add_random_blocks(b, triplets, rng, count):
    for _ in range(count):
        m = int(rng.integers(0, 12))  # 0: an empty block
        k = int(rng.integers(0, 4 * m + 1))  # some rows stay empty
        # small integer values: (row, column) pairs repeat often, some sum
        # to zero, and every sum is exact in whatever order it is taken
        vals = rng.integers(-2, 3, k).astype(float)
        _add_block(b, triplets, rng.integers(0, max(m, 1), k), rng.integers(0, b._n, k), vals, m)


def _scipy_matrix(triplets, shape):
    rows, cols, vals = (np.concatenate(parts) for parts in zip(*triplets))
    keep = vals != 0.0  # the builder drops zero coefficients
    a = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=shape).tocsr()
    a.sum_duplicates()
    return a


def _assert_equals_scipy(a, want, rng):
    assert a.shape == want.shape
    for field in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(a, field), getattr(want, field)), field
    x, y = rng.normal(size=a.shape[1]), rng.normal(size=a.shape[0])
    assert np.array_equal(a.matvec(x), want @ x)
    assert np.array_equal(a.rmatvec(y), want.T @ y)


@pytest.mark.parametrize("seed", range(25))
def test_the_built_matrix_equals_scipy_sparse(seed):
    rng = np.random.default_rng(seed)
    b, triplets = LpBuilder(), []
    b.vars(int(rng.integers(2, 8)))
    _add_random_blocks(b, triplets, rng, 3)
    # a duplicate that cancels to an explicit zero, then an empty row
    _add_block(b, triplets, [0, 0, 0], [0, 0, b._n - 1], [1.5, -1.5, 2.0], 2)
    _add_block(b, triplets, [], [], [], 0)
    built = b.build()
    _assert_equals_scipy(built.a_matrix, _scipy_matrix(triplets, (b._m, b._n)), rng)
    assert (built.a_matrix.data == 0.0).any()
    _add_random_blocks(b, triplets, rng, 3)
    grown = b.extend(built)
    _assert_equals_scipy(grown.a_matrix, _scipy_matrix(triplets, (b._m, b._n)), rng)


def test_duplicates_are_summed_in_the_order_given():
    # (1.0 + 1e16) - 1e16 is 0.0, as 1e16 + 1.0 rounds to 1e16; the
    # reverse order sums to 1.0
    cols = [0, *range(1, 21), 0, *range(21, 40), 0]
    vals = [1.0, *[2.0] * 20, 1e16, *[2.0] * 19, -1e16]
    b = LpBuilder()
    b.vars(40)
    b.rows(LE, [0.0], np.zeros(len(cols)), cols, vals)
    a = b.build().a_matrix
    assert np.array_equal(a.indices, np.arange(40))
    assert a.data[0] == 0.0  # and stays an entry


def test_extend_appends_the_rows_added_since_the_build():
    b = LpBuilder()
    x = b.vars(3, 0.0, 10.0, [1.0, 2.0, -1.0])
    b.row("r0", GE, 1.0, [(x[0], 1.0), (x[1], 1.0)])
    first = b.build()
    b.rows([LE, EQ], [4.0, 2.0], [0, 0, 1, 1], [x[2], x[0], x[1], x[1]], [1.0, 2.0, 3.0, -1.0])
    b.row("r3", GE, 0.5, [(x[2], 1.0)])
    grown, built = b.extend(first), b.build()
    for field in ("obj", "lo", "hi", "senses", "rhs"):
        assert np.array_equal(getattr(grown, field), getattr(built, field)), field
    assert (scipy_csr(grown.a_matrix) != scipy_csr(built.a_matrix)).nnz == 0
    assert np.array_equal(grown.a_matrix.indices, built.a_matrix.indices)
    assert b.extend(built).n_rows == built.n_rows
    b.var("late")
    with pytest.raises(ValueError, match="not an earlier build"):
        b.extend(built)
    two = LpBuilder()
    two.vars(3)
    two.rows(GE, [1.0, 2.0], [0, 1], [0, 1], [1.0, 1.0])
    with pytest.raises(ValueError, match="not an earlier build"):
        two.extend(first)  # one row: it ends inside two's first block


def _growing_lps(n_rounds):
    """A master-like LP and the LPs it grows into, one row per round."""
    rng = np.random.default_rng(2)
    b = LpBuilder()
    x = b.vars(6, 0.0, 20.0, rng.uniform(1.0, 3.0, 6))
    theta = b.var("theta", 0.0, np.inf, 1.0)
    b.row("need", GE, 10.0, [(j, 1.0) for j in x])
    lps = [b.build()]
    for _ in range(n_rounds):
        slope = -rng.uniform(0.5, 2.0, 6)
        b.row("cut", GE, float(rng.uniform(20.0, 40.0)), [(theta, 1.0), *zip(x, -slope)])
        lps.append(b.extend(lps[-1]))
    return lps


def test_a_kept_model_solves_each_grown_lp_warm_as_a_cold_solve_does():
    kept = KeptModel()
    for i, lp in enumerate(_growing_lps(4)):
        sol = solve_simplex(lp, kept)
        cold = solve_simplex(lp)
        assert sol.stats.warm == (i > 0) and not sol.stats.retried
        assert sol.kkt.ok()
        assert sol.objective == pytest.approx(cold.objective, rel=1e-9)
        assert kept.highs is not None


def _kept_fails_by_status(monkeypatch):
    monkeypatch.setattr(KeptModel, "attempt", lambda self, lp: Attempt("failed", "forced"))


@pytest.mark.parametrize("fail", [_kept_fails_by_status, _warm_fails_kkt], ids=["status", "kkt"])
def test_a_failed_kept_model_falls_back_to_the_cold_solve(monkeypatch, fail):
    first, grown = _growing_lps(1)
    kept = KeptModel()
    solve_simplex(first, kept)
    dropped = kept.highs
    fail(monkeypatch)
    sol = solve_simplex(grown, kept)
    assert not sol.stats.warm and not sol.stats.retried
    _assert_identical(sol, solve_simplex(grown))
    assert kept.highs is not None and kept.highs is not dropped  # the cold model is kept


def test_every_solver_run_goes_through_linprog(monkeypatch):
    # the benchmark's tracer times lp.linprog as the solver's share of a solve
    runs = []
    real = lp_module.linprog
    monkeypatch.setattr(lp_module, "linprog", lambda h: runs.append(h) or real(h))
    kept = KeptModel()
    for lp in _growing_lps(2):
        solve_simplex(lp, kept)
    assert len(runs) == 3 and runs[1] is runs[2] is kept.highs
    lp = random_boxed_lp(seed=3, feasible=True)
    reduced = ReducedModel()
    solve_simplex(lp, reduced)
    solve_simplex(lp, reduced)
    assert len(runs) == 5


def _assert_highs_holds(model, lp):
    """The HiGHS model holds lp: its columns, its row bounds by sense, and
    its matrix, which HiGHS stores column-wise whatever form it was given."""
    got = model.getLp()
    for field, want in (("col_cost_", lp.obj), ("col_lower_", lp.lo), ("col_upper_", lp.hi)):
        assert np.array_equal(getattr(got, field), want), field
    assert np.array_equal(got.row_lower_, np.where(lp.senses == LE, -np.inf, lp.rhs))
    assert np.array_equal(got.row_upper_, np.where(lp.senses == GE, np.inf, lp.rhs))
    want = scipy_csr(lp.a_matrix).tocsc()
    a = got.a_matrix_
    for field, wanted in (("start_", want.indptr), ("index_", want.indices), ("value_", want.data)):
        assert np.array_equal(getattr(a, field), wanted), field


def test_highs_holds_the_builders_matrix_cold_warm_and_kept(synth_small_lps):
    lp = synth_small_lps["subproblem"]
    assert set(lp.senses) == {LE, EQ, GE}
    cold = lp_module.highs_attempt(lp, False)
    _assert_highs_holds(cold.model, lp)
    warm = lp_module.highs_attempt(lp, False, cold.model.getBasis())
    assert warm.status == "optimal"
    _assert_highs_holds(warm.model, lp)
    reduced = ReducedModel()
    solve_simplex(lp, reduced)
    run = reduced.attempt(lp)
    assert run.status == "optimal" and reduced.rows.lp.n_rows < lp.n_rows
    _assert_highs_holds(run.model, reduced.rows.lp)
    b = LpBuilder()
    x = b.vars(3, 0.0, 10.0, [1.0, 2.0, -1.0])
    b.row("r0", GE, 1.0, [(x[0], 1.0), (x[1], 1.0)])
    first = b.build()
    kept = KeptModel()
    solve_simplex(first, kept)
    cols = [x[2], x[0], x[0], x[1], x[2]]
    b.rows([LE, EQ, GE], [4.0, 2.0, 0.5], [0, 0, 1, 1, 2], cols, np.ones(5))
    grown = b.extend(first)
    run = kept.attempt(grown)
    assert run.status == "optimal" and run.model is kept.highs
    _assert_highs_holds(kept.highs, grown)


# -- nothing on stdout or stderr ---------------------------------------------------


def test_solves_write_nothing_to_stdout_or_stderr(capfd, monkeypatch, synth_small, synth_small_lps):
    # HiGHS logs to the process's file descriptors, not through sys.stdout,
    # so capfd is what sees it; a benchmark's last stdout line must stay its
    # result
    from gridres.benders import solve_benders

    lp = synth_small_lps["operations"]
    capfd.readouterr()
    reduced = ReducedModel()
    solve_simplex(lp, reduced)
    assert solve_simplex(lp, reduced).stats.warm
    assert solve_benders(synth_small, stab_weight=0.3).iterations > 1
    real = lp_module.highs_attempt
    monkeypatch.setattr(
        lp_module, "highs_attempt",
        lambda lp, ipm: real(lp, ipm) if ipm else Attempt("failed", "forced failure"),
    )
    assert solve_simplex(lp).stats.retried
    assert capfd.readouterr() == ("", "")
