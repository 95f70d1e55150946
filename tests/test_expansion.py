"""Hand-solvable planning and dispatch LPs covering every constraint family."""

from operator import attrgetter

import numpy as np
import pytest

from gridres.expansion import (
    build_expansion_lp,
    build_lp,
    build_operations_lp,
    extract_prices,
    extract_solution,
    fixed_cost,
    investment_entries,
    placed_basis,
)
from gridres.lp import BASIC, UPPER, ReducedModel, _BoundRows, _codes, kkt_residuals, solve_simplex
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
    total = fixed_cost(case, sol.investment) + sol.variable_cost + sol.nse_cost + sol.carbon_fee_cost
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
    lp, ix = build_operations_lp(portfolio)
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
    lp, ix = build_operations_lp(portfolio)
    ops = extract_solution(case, ix, solve_simplex(lp))
    ops_cost = ops.variable_cost + ops.nse_cost + ops.carbon_fee_cost
    sol_ops_cost = sol.variable_cost + sol.nse_cost + sol.carbon_fee_cost
    assert ops_cost == pytest.approx(sol_ops_cost, rel=1e-9)


def test_operations_lp_couples_periods_cyclically():
    # ramp-limited unit: per-period cyclic dispatch differs from a year chain
    units = [make_unit("u1", "R1", "g1", 10.0, ramp=0.2)]
    case = one_bus_case(
        [2.0, 8.0, 8.0, 2.0], period_length=2, existing_units=units,
        fixed_cost=0.0, max_new=0.0,
    )
    portfolio = build_portfolio(case, SiteAllocation())
    lp, ix = build_operations_lp(portfolio)
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
    assert fixed_cost(synth_small, es.investment) == pytest.approx(investment_part, rel=1e-9)


def test_kkt_residuals_equal_the_loop_reference_on_synth_lps(synth_small):
    portfolio = build_portfolio(synth_small, SiteAllocation())
    for lp, _ix in (build_expansion_lp(synth_small), build_operations_lp(portfolio)):
        sol = solve_simplex(lp)
        assert sol.is_optimal
        x, y = sol.x, sol.row_duals
        assert kkt_residuals(lp, x, y) == reference_kkt_residuals(lp, x, y)


def test_the_row_reduced_operations_lp_bounds_each_flow_by_its_line_capacity_exactly(synth_small):
    # with every xl pinned at 0, each line row fwd - xl <= capacity becomes
    # the bound capacity - 0.0 of its flow in the row-reduced LP, so a
    # ReducedModel solves the LP whose flows the capacity bounds directly
    case = synth_small
    line = case.interregional_lines[0]
    portfolio = build_portfolio(case, SiteAllocation(line_capacity={line.id: 1.5 * line.capacity}))
    assert portfolio.line_capacity[line.id] == 1.5 * line.capacity
    lp, ix = build_operations_lp(portfolio)
    reduced = ReducedModel()
    solve_simplex(lp, reduced)  # cold: the model keeps its basis of the full LP
    assert solve_simplex(lp, reduced).stats.warm  # through the row-reduced LP
    line_rows = np.concatenate([_line_rows(portfolio.case, lp, ix, i).ravel() for i in range(len(ix.flow_fwd))])
    assert line_rows.size and not np.isin(line_rows, reduced.rows.keep).any()
    for l, fwd, rev in zip(portfolio.case.interregional_lines, ix.flow_fwd, ix.flow_rev):
        assert (lp.hi[fwd] == np.inf).all() and (lp.hi[rev] == np.inf).all()
        assert (reduced.rows.lp.hi[fwd] == l.capacity).all() and (reduced.rows.lp.hi[rev] == l.capacity).all()


# -- the blocks a basis is placed by ----------------------------------------------


def _subproblem(case, period, build):
    return build_lp(case, periods=(period,), fix=build)


def _line_rows(case, lp, ix, i):
    """The rows of line i, the rows of its xl column: (hours, 2) of fwd and
    rev, as the layout interleaves them per hour."""
    kinds = [kind for _n, kind, *_ in investment_entries(case)]
    xl = ix.inv.start + [n for n, kind in enumerate(kinds) if kind == "line_expansion"][i]
    a = lp.a_matrix
    return a.entry_rows[a.indices == xl].reshape(-1, 2)


def _dense(lp):
    out = np.zeros((lp.n_rows, lp.n_vars))
    out[lp.a_matrix.entry_rows, lp.a_matrix.indices] = lp.a_matrix.data
    return out


@pytest.mark.parametrize("uc", ["relaxed", "none"])
def test_the_blocks_hold_every_column_but_the_investments_and_every_row_but_the_reserves(synth_small, uc):
    # every LP lays out one block per period, of the width of the one-period
    # LP of its mode, and each column family's hours of a period in its block
    case = synth_small.with_updates(uc_mode=uc)
    zero = {name: 0.0 for name, *_ in investment_entries(case)}
    line = case.interregional_lines[0]
    allocation = SiteAllocation(line_capacity={line.id: line.capacity})
    portfolio = build_portfolio(case, allocation)
    relaxed = case.with_updates(uc_mode="relaxed")  # the operations LP's mode, whatever the case's
    # the portfolio's case carries that mode: its operations LP is the relaxed case's
    ops, ops_relaxed = (build_operations_lp(build_portfolio(c, allocation))[0] for c in (case, relaxed))
    assert ops.obj_offset == ops_relaxed.obj_offset
    for array in ("obj", "lo", "hi", "senses", "rhs", "a_matrix.data", "a_matrix.indices", "a_matrix.indptr"):
        assert np.array_equal(attrgetter(array)(ops), attrgetter(array)(ops_relaxed)), array
    for (lp, ix), reserve_rows, one in (
        (build_expansion_lp(case), len(case.regions), _subproblem(case, 0, zero)[0]),
        (_subproblem(case, 1, zero), 0, _subproblem(case, 0, zero)[0]),
        (build_operations_lp(portfolio), 0, _subproblem(relaxed, 0, zero)[0]),
    ):
        n_blocks = len(ix.hours) // case.period_length
        width = one.n_vars - ix.inv.stop
        assert lp.n_vars == ix.inv.stop + n_blocks * width
        assert lp.n_rows == n_blocks * one.n_rows + reserve_rows
        block = np.arange(len(ix.hours)) // case.period_length
        for family in ("gen", "commit", "start", "shut", "charge", "discharge", "soc", "flow_fwd", "flow_rev", "nse"):
            idx = getattr(ix, family)
            assert ((idx - ix.inv.stop) // width == block).all(), family
        assert (ix.balance_row // one.n_rows == block).all()


def test_the_operations_lp_is_its_subproblems_linked_end_to_end(synth_small):
    # block p of the operations LP of a relaxed case is period p's
    # subproblem at the same build, but for the previous-hour entries of
    # its first hour's link rows (commitment, ramps, state of charge),
    # which point at the last hour of period p - 1, cyclic over the year
    case = synth_small.with_updates(uc_mode="relaxed")
    portfolio = build_portfolio(case, SiteAllocation())
    lp, ix = build_operations_lp(portfolio)
    ops = _dense(lp)
    plen, n_hours, n_inv = case.period_length, len(ix.hours), ix.inv.stop
    ramped = [i for i, c in enumerate(case.thermal_clusters) if c.thermal.ramp_rate < 1.0]
    thermal_gen = [case.clusters.index(c) for c in case.thermal_clusters]
    assert ramped and len(case.storage) and len(case.thermal_clusters)
    for p in range(case.n_periods):
        sub = _subproblem(portfolio.case, p, portfolio.investment)[0]
        width, m = sub.n_vars - n_inv, sub.n_rows
        cols = np.r_[ix.inv, n_inv + p * width + np.arange(width)]  # lp's column of each of sub's
        block = slice(n_inv + p * width, n_inv + (p + 1) * width)
        for array in ("obj", "lo", "hi"):
            assert np.array_equal(getattr(lp, array)[block], getattr(sub, array)[n_inv:]), array
        rows = slice(p * m, (p + 1) * m)
        assert np.array_equal(lp.senses[rows], sub.senses) and np.array_equal(lp.rhs[rows], sub.rhs)
        expected = np.zeros((m, lp.n_vars))
        expected[:, cols] = _dense(sub)
        # each link entry on the block's last hour moves to the year's previous hour
        last, before = p * plen + plen - 1, (p * plen - 1) % n_hours
        links = [(ix.commit[i], 1) for i in range(len(case.thermal_clusters))]
        links += [(ix.gen[thermal_gen[i]], 2) for i in ramped] + [(ix.soc[i], 1) for i in range(len(case.storage))]
        for family_cols, n_rows in links:
            first_hour = np.flatnonzero(expected[:, family_cols[p * plen]] != 0)
            linked = [r for r in first_hour if expected[r, family_cols[last]] != 0]
            assert len(linked) == n_rows
            expected[linked, family_cols[before]] = expected[linked, family_cols[last]]
            expected[linked, family_cols[last]] = 0.0
        assert np.array_equal(ops[rows], expected), p


def test_the_subproblem_bases_placed_on_the_operations_lp_start_its_dispatch(synth_small):
    # the operations LP of a build is its Benders subproblems at that build
    # laid end to end, but for the previous-hour entries of each period's
    # first hour, so their bases place on it by concatenation
    case = synth_small
    line = case.interregional_lines[0]
    portfolio = build_portfolio(case, SiteAllocation(line_capacity={line.id: 1.5 * line.capacity}))
    build = {**portfolio.investment, f"xl[{line.id}]": 0.5 * line.capacity}
    bases = []
    for p in range(case.n_periods):
        lp, ix = _subproblem(case, p, build)
        reduced = ReducedModel()
        solve_simplex(lp, reduced)  # cold, so its kept basis is of the full LP
        bases.append(reduced.full_basis(lp).codes())
    lp, ix = build_operations_lp(portfolio)
    cold = solve_simplex(lp)
    basis = placed_basis(ix, bases)
    assert basis.shape == (lp.n_vars, lp.n_rows)
    placed = basis.codes()
    assert np.array_equal(placed[0][ix.inv.stop:], np.concatenate([c[ix.inv.stop:] for c, _r in bases]))
    assert np.array_equal(placed[1], np.concatenate([r for _c, r in bases]))
    warm = solve_simplex(lp, ReducedModel(basis))
    assert warm.stats.warm and warm.stats.iterations < cold.stats.iterations
    assert abs(warm.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))
    # where a saved line row is nonbasic and its flow column basic, the
    # mapped start of the row-reduced LP, in which the row bounds the flow,
    # has the column at its upper bound
    line_rows = placed[1][_line_rows(portfolio.case, lp, ix, 0)]
    bound_rows = _BoundRows(lp, lp.lo == lp.hi)
    mapped = _codes(bound_rows.mapped(basis, *bound_rows.bound(lp)).col_status)
    moved = (line_rows[:, 0] != BASIC) & (placed[0][ix.flow_fwd[0]] == BASIC)
    assert moved.any() and (mapped[ix.flow_fwd[0][moved]] == UPPER).all()
    # bases that miss a period, or of another shape (uc "none"), do not
    # cover lp: placed, they have another shape, and the dispatch runs cold
    uncommitted = [
        tuple(np.full(n, BASIC, dtype=np.int8) for n in (sub.n_vars, sub.n_rows))
        for sub in (_subproblem(case.with_updates(uc_mode="none"), p, build)[0] for p in range(case.n_periods))
    ]
    for other in (bases[:-1], uncommitted):
        basis = placed_basis(ix, other)
        assert basis.shape != (lp.n_vars, lp.n_rows)
        sol = solve_simplex(lp, ReducedModel(basis))
        assert not sol.stats.warm and sol.stats.iterations == cold.stats.iterations
        assert sol.objective == cold.objective
