"""Hand-solvable planning and dispatch LPs covering every constraint family."""

import numpy as np
import pytest

from gridres.expansion import (
    BuildOptions,
    basis_blocks,
    block_widths,
    build_expansion_lp,
    build_lp,
    build_operations_lp,
    extract_prices,
    extract_solution,
    index_blocks,
    investment_entries,
    placed_basis,
)
from gridres.lp import BASIC, UPPER, Basis, ReducedModel, kkt_residuals, solve_simplex
from gridres.model import Region, StorageCluster
from gridres.translate import SiteAllocation, build_portfolio

from oracles import reference_kkt_residuals

from conftest import (
    interregional,
    make_case,
    make_site,
    make_thermal_cluster,
    make_unit,
    make_vre_cluster,
    one_bus_case,
    series,
    spur_line,
)

# fuel 3 $/MMBtu * heat rate 8 + vom 1 = 25 $/MWh for default units
MC = 25.0


def _solve(case, reserve=True):
    lp, ix = build_expansion_lp(case, reserve=reserve)
    sol = solve_simplex(lp)
    assert sol.is_optimal
    return extract_solution(case, ix, sol), ix


def test_flat_demand_builds_exactly_peak():
    # fixed 100 $/MW-yr, 2 hours of 10 MW: build 10, run it flat
    case = one_bus_case([10.0, 10.0], fixed_cost=100.0)
    sol, _ = _solve(case, reserve=False)
    assert sol.investment["xg[g1]"] == pytest.approx(10.0, abs=1e-9)
    assert sol.objective == pytest.approx(100.0 * 10 + 2 * 10 * MC, abs=1e-6)


def test_reserve_margin_forces_extra_capacity():
    case = one_bus_case([10.0, 10.0], fixed_cost=100.0, reserve_margin=0.15)
    sol, _ = _solve(case, reserve=True)
    assert sol.investment["xg[g1]"] == pytest.approx(11.5, abs=1e-9)
    assert sol.objective == pytest.approx(100.0 * 11.5 + 2 * 10 * MC, abs=1e-6)


def test_reserve_rows_can_be_disabled():
    case = one_bus_case([10.0, 10.0], fixed_cost=100.0, reserve_margin=0.15)
    sol, _ = _solve(case, reserve=False)
    assert sol.investment["xg[g1]"] == pytest.approx(10.0, abs=1e-9)


def test_zero_demand_zero_build():
    case = one_bus_case([0.0, 0.0], fixed_cost=100.0)
    sol, _ = _solve(case)
    assert sol.investment["xg[g1]"] == 0.0
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_objective_breakdown_sums_to_objective():
    case = one_bus_case([10.0, 4.0], fixed_cost=100.0, carbon_fee=200.0)
    sol, _ = _solve(case)
    total = sol.fixed_cost + sol.variable_cost + sol.nse_cost_total + sol.carbon_fee_cost
    assert total == pytest.approx(sol.objective, rel=1e-9)


def test_emissions_accounting_identity():
    case = one_bus_case([10.0, 4.0], fixed_cost=100.0)
    sol, _ = _solve(case)
    want = sum(
        float((sol.dispatch[c.id] * sol.hour_weight).sum())
        * c.thermal.heat_rate
        * c.thermal.emission_factor
        for c in case.thermal_clusters
    )
    assert sol.total_emissions == pytest.approx(want, rel=1e-12)


def test_period_weights_scale_variable_cost():
    case = one_bus_case([10.0, 10.0], period_length=1, fixed_cost=100.0)
    case = case.with_updates(period_weights=(3.0, 5.0))
    sol, _ = _solve(case, reserve=False)
    assert sol.variable_cost == pytest.approx((3 + 5) * 10 * MC, rel=1e-9)


# -- prices ---------------------------------------------------------------------


def test_marginal_thermal_sets_price():
    # demand below capacity: the marginal MWh costs fuel*hr + vom
    units = [make_unit("u1", "R1", "g1", 20.0)]
    case = one_bus_case([10.0, 10.0], existing_units=units, fixed_cost=0.0, max_new=0.0)
    sol, _ = _solve(case, reserve=False)
    assert sol.prices["R1"] == pytest.approx([MC, MC])


def test_carbon_fee_enters_the_price():
    units = [make_unit("u1", "R1", "g1", 20.0)]
    case = one_bus_case(
        [10.0, 10.0], existing_units=units, fixed_cost=0.0, max_new=0.0, carbon_fee=200.0
    )
    sol, _ = _solve(case, reserve=False)
    assert sol.prices["R1"] == pytest.approx([MC + 200.0 * 8.0 * 0.05] * 2)


def test_scarcity_hour_prices_at_nse_cost():
    # 5 MW of iron against 8 MW of demand: NSE is marginal, price = 2000
    units = [make_unit("u1", "R1", "g1", 5.0)]
    case = one_bus_case([8.0, 3.0], existing_units=units, fixed_cost=0.0, max_new=0.0)
    sol, _ = _solve(case, reserve=False)
    assert sol.nse["R1"][0] == pytest.approx(3.0, abs=1e-9)
    assert sol.prices["R1"][0] == pytest.approx(2000.0)
    assert sol.prices["R1"][1] == pytest.approx(MC)


def test_zero_demand_hour_with_free_vre_prices_at_zero():
    site = make_site("s1", "R1", "solar", 10.0, 40.0, [1.0, 1.0])
    vre = make_vre_cluster("v1", "R1", [site], fixed_cost=1.0)
    region = Region(id="R1", urban_population=0, reserve_margin=0.0, demand=series([5.0, 0.0]))
    case = make_case([region], [vre], sites=[site], lines=[spur_line(site)])
    sol, _ = _solve(case, reserve=False)
    assert sol.prices["R1"][1] == pytest.approx(0.0, abs=1e-9)


def test_prices_never_exceed_cap_on_synth_case(synth_small):
    sol, _ = _solve(synth_small)
    for p in sol.prices.values():
        assert np.all(p >= -1e-6)
        assert np.all(p <= 2000.0 * (1 + 1e-6) + 1e-6)


# -- unit commitment -------------------------------------------------------------


def _min_output_case(uc_mode, start_cost=0.0):
    # 10 MW unit with a 50% floor; night demand of 2 MW makes the floor bind
    units = [
        make_unit("u1", "R1", "g1", 10.0, min_output=0.5, start_cost=start_cost)
    ]
    return one_bus_case(
        [10.0, 2.0], existing_units=units, fixed_cost=0.0, max_new=0.0
    ).with_updates(uc_mode=uc_mode)


def test_uc_none_enforces_capacity_scaled_floor():
    case = _min_output_case("none")
    sol, _ = _solve(case, reserve=False)
    # floor = 0.5 * 10 MW even though demand is 2: the surplus spills
    assert sol.dispatch["g1"][1] == pytest.approx(5.0, abs=1e-8)
    assert sol.spill["R1"][1] == pytest.approx(3.0, abs=1e-8)


def test_uc_relaxed_can_decommit():
    case = _min_output_case("relaxed")
    sol, _ = _solve(case, reserve=False)
    assert sol.dispatch["g1"][1] == pytest.approx(2.0, abs=1e-8)
    assert sol.spill["R1"][1] == pytest.approx(0.0, abs=1e-8)


def test_relaxed_dominates_none_strictly_on_floor_bound_fixture():
    none_obj = _solve(_min_output_case("none"), reserve=False)[0].objective
    rel_obj = _solve(_min_output_case("relaxed"), reserve=False)[0].objective
    assert rel_obj < none_obj - 1e-6  # shutting down at night saves real fuel
    # the gap is exactly the 3 MW of wasted floor generation
    assert none_obj - rel_obj == pytest.approx(3.0 * MC, rel=1e-9)


def test_relaxed_dominance_weak_inequality_on_seeded_cases():
    from gridres.syngen import SynthConfig, generate

    for seed in range(4):
        case = generate(
            SynthConfig(n_regions=2, periods=2, period_length=24), seed=seed
        )
        rel, _ = _solve(case.with_updates(uc_mode="relaxed"), reserve=False)
        non, _ = _solve(case.with_updates(uc_mode="none"), reserve=False)
        assert rel.objective <= non.objective * (1 + 1e-9) + 1e-9


def test_startup_costs_charged_on_commitment_rise():
    # at 10 $/MW-start the 6 MW morning restart (60 $) still beats burning
    # the 3 MW floor surplus all night (75 $)
    case = _min_output_case("relaxed", start_cost=10.0)
    sol, _ = _solve(case, reserve=False)
    assert sol.startups["g1"].sum() == pytest.approx(6.0, abs=1e-8)
    assert sol.variable_cost == pytest.approx((10 + 2) * MC + 6.0 * 10.0, rel=1e-9)


def test_high_startup_cost_keeps_the_unit_online():
    # at 40 $/MW-start restarting costs 240 $; staying committed wastes 75 $
    case = _min_output_case("relaxed", start_cost=40.0)
    sol, _ = _solve(case, reserve=False)
    assert sol.startups["g1"].sum() == pytest.approx(0.0, abs=1e-8)
    assert sol.spill["R1"][1] == pytest.approx(3.0, abs=1e-8)


# -- ramping ----------------------------------------------------------------------


def test_ramp_limit_forces_pre_ramping():
    # 20% ramp on 10 MW: output may move 2 MW per hour; cyclic over 4 hours.
    # Serving the 8 MW spike means running hot into and out of it, spilling
    # the surplus, because pre-ramp fuel (75 $) beats shedding (2000 $/MWh).
    units = [make_unit("u1", "R1", "g1", 10.0, ramp=0.2)]
    case = one_bus_case(
        [4.0, 8.0, 4.0, 4.0], existing_units=units, fixed_cost=0.0, max_new=0.0
    )
    sol, _ = _solve(case, reserve=False)
    g = sol.dispatch["g1"]
    diffs = np.abs(np.diff(np.r_[g, g[0]]))
    assert np.all(diffs <= 2.0 + 1e-8)
    assert sol.total_nse == pytest.approx(0.0, abs=1e-8)
    assert g == pytest.approx([6.0, 8.0, 6.0, 4.0], abs=1e-8)
    assert sol.spill["R1"].sum() == pytest.approx(4.0, abs=1e-8)
    assert sol.variable_cost == pytest.approx(24 * MC, rel=1e-9)


# -- storage -----------------------------------------------------------------------


def test_storage_shifts_cheap_energy_into_scarcity():
    # free solar at noon, scarce evening: storage charges then discharges
    site = make_site("s1", "R1", "solar", 20.0, 1.0, [1.0, 0.0])
    vre = make_vre_cluster("v1", "R1", [site], fixed_cost=1.0)
    sto = StorageCluster(
        id="b1", region="R1", power_cost=1.0, energy_cost=1.0,
        efficiency_rt=1.0, existing_power=0.0, existing_energy=0.0,
    )
    region = Region(id="R1", urban_population=0, reserve_margin=0.0, demand=series([5.0, 5.0]))
    case = make_case([region], [vre], sites=[site], storage=[sto], lines=[spur_line(site)])
    sol, _ = _solve(case, reserve=False)
    assert sol.total_nse == pytest.approx(0.0, abs=1e-8)
    assert sol.investment["xp[b1]"] == pytest.approx(5.0, abs=1e-6)
    assert sol.discharge["b1"][1] == pytest.approx(5.0, abs=1e-6)


def test_storage_charge_pays_round_trip_losses():
    site = make_site("s1", "R1", "solar", 30.0, 1.0, [1.0, 0.0])
    vre = make_vre_cluster("v1", "R1", [site], fixed_cost=1.0)
    sto = StorageCluster(
        id="b1", region="R1", power_cost=1.0, energy_cost=1.0,
        efficiency_rt=0.8, existing_power=0.0, existing_energy=0.0,
    )
    region = Region(id="R1", urban_population=0, reserve_margin=0.0, demand=series([5.0, 4.0]))
    case = make_case([region], [vre], sites=[site], storage=[sto], lines=[spur_line(site)])
    sol, _ = _solve(case, reserve=False)
    # 4 MWh out needs 5 MWh in at 80% round-trip efficiency
    assert sol.charge["b1"][0] == pytest.approx(5.0, abs=1e-6)
    assert sol.soc["b1"][0] == pytest.approx(4.0, abs=1e-6)


# -- transmission ------------------------------------------------------------------


def _two_region_case(line_cap, demand_b=(6.0, 6.0)):
    units = [make_unit("u1", "A", "gA", 50.0)]
    ga = make_thermal_cluster("gA", "A", units)
    ra = Region(id="A", urban_population=0, reserve_margin=0.0, demand=series([0.0, 0.0]))
    rb = Region(id="B", urban_population=0, reserve_margin=0.0, demand=series(list(demand_b)))
    return make_case(
        [ra, rb], [ga], units=units,
        lines=[interregional("AB", "A", "B", line_cap)],
    )


def test_import_dependent_region_sheds_when_line_is_small():
    case = _two_region_case(line_cap=4.0)
    sol, _ = _solve(case, reserve=False)
    assert np.all(sol.nse["B"] == pytest.approx(2.0, abs=1e-8))
    assert np.all(sol.nse["A"] == pytest.approx(0.0, abs=1e-9))
    assert np.all(sol.flow_net["AB"] == pytest.approx(4.0, abs=1e-8))


def test_adequate_line_clears_the_market():
    case = _two_region_case(line_cap=10.0)
    sol, _ = _solve(case, reserve=False)
    assert sol.total_nse == pytest.approx(0.0, abs=1e-9)
    assert np.all(sol.prices["B"] == pytest.approx(MC))


def test_line_expansion_is_an_investment():
    units = [make_unit("u1", "A", "gA", 50.0)]
    ga = make_thermal_cluster("gA", "A", units)
    ra = Region(id="A", urban_population=0, reserve_margin=0.0, demand=series([0.0, 0.0]))
    rb = Region(id="B", urban_population=0, reserve_margin=0.0, demand=series([6.0, 6.0]))
    line = interregional("AB", "A", "B", 4.0, expansion_cost=10.0, max_expansion=50.0)
    case = make_case([ra, rb], [ga], units=units, lines=[line])
    sol, _ = _solve(case, reserve=False)
    # expanding by 2 MW at 10 $/MW beats shedding at 2000 $/MWh
    assert sol.investment["xl[AB]"] == pytest.approx(2.0, abs=1e-6)
    assert sol.total_nse == pytest.approx(0.0, abs=1e-8)


# -- reserve with VRE ---------------------------------------------------------------


def test_vre_reserve_credit_is_period_max_profile():
    # Solar (peak cf 0.8) serves all energy: 10 MW built, firm credit 8 MW.
    # The 1.25 * 8 = 10 MW requirement leaves a 2 MW gap for idle thermal.
    # A mean-cf credit (0.5) would wrongly ask for 5 MW of thermal instead.
    site = make_site("s1", "R1", "solar", 100.0, 1.0, [0.8, 0.2])
    vre = make_vre_cluster("v1", "R1", [site], fixed_cost=2.0)
    units = [make_unit("u1", "R1", "g1", 0.0)]
    g1 = make_thermal_cluster("g1", "R1", units, max_new=100.0, fixed_cost=1.0)
    region = Region(
        id="R1", urban_population=0, reserve_margin=0.25, demand=series([8.0, 2.0])
    )
    case = make_case([region], [vre, g1], sites=[site], units=units, lines=[spur_line(site)])
    sol, _ = _solve(case, reserve=True)
    assert sol.investment["xv[v1]"] == pytest.approx(10.0, abs=1e-6)
    assert sol.investment["xg[g1]"] == pytest.approx(2.0, abs=1e-6)
    assert sol.dispatch["g1"].sum() == pytest.approx(0.0, abs=1e-8)


# -- operations LP -----------------------------------------------------------------


def test_zero_portfolio_sheds_everything():
    case = one_bus_case([10.0, 4.0], fixed_cost=100.0)
    portfolio = build_portfolio(case, SiteAllocation())  # existing system: 0 MW
    lp, ix = build_operations_lp(case, portfolio)
    sol = solve_simplex(lp)
    es = extract_solution(case, ix, sol)
    assert es.objective == pytest.approx(2000.0 * 14.0, rel=1e-9)
    assert es.total_nse == pytest.approx(14.0, abs=1e-9)


def test_operations_match_expansion_at_full_resolution():
    # pinning the phase-1 build and re-dispatching reproduces its cost
    units = [make_unit("u1", "R1", "g1", 6.0)]
    case = one_bus_case([10.0, 4.0], existing_units=units, fixed_cost=100.0)
    sol, _ = _solve(case, reserve=False)
    portfolio = build_portfolio(case, SiteAllocation())
    portfolio.investment["xg[g1]"] = sol.investment["xg[g1]"]
    lp, ix = build_operations_lp(case, portfolio)
    ops = extract_solution(case, ix, solve_simplex(lp))
    ops_cost = ops.variable_cost + ops.nse_cost_total + ops.carbon_fee_cost
    sol_ops_cost = sol.variable_cost + sol.nse_cost_total + sol.carbon_fee_cost
    assert ops_cost == pytest.approx(sol_ops_cost, rel=1e-9)


def test_operations_lp_couples_periods_cyclically():
    # ramp-limited unit: per-period cyclic dispatch differs from a year chain
    units = [make_unit("u1", "R1", "g1", 10.0, ramp=0.2)]
    case = one_bus_case(
        [2.0, 8.0, 8.0, 2.0], period_length=2, existing_units=units,
        fixed_cost=0.0, max_new=0.0,
    )
    portfolio = build_portfolio(case, SiteAllocation())
    lp, ix = build_operations_lp(case, portfolio)
    es = extract_solution(case, ix, solve_simplex(lp))
    assert ix.balance_row.shape[1] == 4  # one block over all four hours
    g = es.dispatch["g1"]
    # chronology spans the period boundary: hour 1 -> 2 is a real ramp limit
    assert abs(g[2] - g[1]) <= 2.0 + 1e-8


def test_fixed_cost_is_the_investment_part_of_the_objective(synth_small):
    lp, ix = build_expansion_lp(synth_small)
    sol = solve_simplex(lp)
    assert sol.is_optimal
    es = extract_solution(synth_small, ix, sol)
    investment_part = float(lp.obj[ix.inv] @ sol.x[ix.inv]) + lp.obj_offset
    assert es.fixed_cost == pytest.approx(investment_part, rel=1e-9)


def test_kkt_residuals_equal_the_loop_reference_on_synth_lps(synth_small):
    portfolio = build_portfolio(synth_small, SiteAllocation())
    for lp, _ix in (build_expansion_lp(synth_small), build_operations_lp(synth_small, portfolio)):
        sol = solve_simplex(lp)
        assert sol.is_optimal
        x, y = sol.x, sol.row_duals
        assert kkt_residuals(lp, x, y) == reference_kkt_residuals(lp, x, y)


# -- the blocks a basis is saved by -------------------------------------------------


def _subproblem(case, period, build):
    return build_lp(case, BuildOptions(uc=case.uc_mode, reserve=False, periods=(period,), fix=build))


@pytest.mark.parametrize("uc", ["relaxed", "none"])
def test_the_blocks_hold_every_column_but_the_investments_and_every_row_but_the_reserves(synth_small, uc):
    case = synth_small.with_updates(uc_mode=uc)
    zero = {name: 0.0 for name, *_ in investment_entries(case)}
    line = case.interregional_lines[0]
    portfolio = build_portfolio(case, SiteAllocation(line_capacity={line.id: line.capacity}))
    for (lp, ix), reserve_rows in (
        (build_expansion_lp(case), len(case.regions)),
        (_subproblem(case, 1, zero), 0),
        (build_operations_lp(case, portfolio), 0),
    ):
        blocks = list(index_blocks(case, ix))
        cols = np.concatenate([idx.ravel() for _f, _e, is_row, idx in blocks if not is_row])
        rows = np.concatenate([idx.ravel() for _f, _e, is_row, idx in blocks if is_row])
        assert np.array_equal(np.sort(cols), np.arange(ix.inv.stop, lp.n_vars))
        assert np.array_equal(np.sort(rows), np.arange(lp.n_rows - reserve_rows))
    lp, ix = _subproblem(case, 1, zero)
    widths = {(family, eid): idx.shape[1] for family, eid, _r, idx in index_blocks(case, ix)}
    assert block_widths(case, uc) == widths


def test_the_subproblem_bases_placed_on_the_operations_lp_start_its_dispatch(synth_small):
    # the operations LP of a build is its Benders subproblems at that build
    # laid end to end, but for the wrap-around rows and the line rows, whose
    # capacity bounds the flows instead
    case = synth_small
    line = case.interregional_lines[0]
    portfolio = build_portfolio(case, SiteAllocation(line_capacity={line.id: 1.5 * line.capacity}))
    build = {**portfolio.investment, f"xl[{line.id}]": 0.5 * line.capacity}
    blocks = {}
    for p in range(case.n_periods):
        lp, ix = _subproblem(case, p, build)
        reduced = ReducedModel()
        solve_simplex(lp, reduced)  # cold, so its kept basis is of the full LP
        blocks.update(basis_blocks(case, ix, *reduced.full_basis().codes()))
    assert {key[2] for key in blocks} == set(range(case.n_periods))
    lp, ix = build_operations_lp(case, portfolio)
    cold = solve_simplex(lp)
    placed = placed_basis(case, lp, ix, blocks)
    warm = solve_simplex(lp, ReducedModel(Basis.of_codes(*placed)))
    assert warm.stats.warm and warm.stats.iterations < cold.stats.iterations
    assert abs(warm.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))
    # the line's capacity bounds its flows in lp: where a saved line row is
    # nonbasic and its flow column basic, the column starts at its upper bound
    line_rows = np.concatenate([blocks["line_rows", line.id, p] for p in range(case.n_periods)]).reshape(-1, 2)
    fwd = np.concatenate([blocks["flow_fwd", line.id, p] for p in range(case.n_periods)])
    moved = (line_rows[:, 0] != BASIC) & (fwd == BASIC)
    assert moved.any() and (placed[0][ix.flow_fwd[0][moved]] == UPPER).all()
    # a row block left out stays basic; a column block left out leaves the LP uncovered
    cols, rows = placed_basis(case, lp, ix, {key: codes for key, codes in blocks.items() if key[0] != "storage_rows"})
    assert np.array_equal(cols, placed[0]) and (rows[np.concatenate(ix.storage_rows)] == BASIC).all()
    soc = ("soc", case.storage[0].id)
    assert placed_basis(case, lp, ix, {key: codes for key, codes in blocks.items() if key[:2] != soc}) is None
