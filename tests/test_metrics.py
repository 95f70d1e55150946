"""Scoring rules pinned to hand arithmetic."""

import csv
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gridres import lp as lp_module
from gridres.benders import _pin, build_subproblems, solve_benders
from gridres.expansion import build_expansion_lp, extract_solution, fixed_cost
from gridres.lp import ReducedModel, solve_simplex
from gridres.metrics import (
    DispatchedBuild,
    build_report,
    financials,
    format_summary,
    mse_lines,
    mse_regional,
    phase_compare,
    phase_summary,
    sco,
    write_report,
)
from gridres.model import Region
from gridres.pipeline import chunk_partition, dispatch_portfolio
from gridres.spatial import aggregate_spatial
from gridres.syngen import SynthConfig, generate
from gridres.temporal import apply_temporal, cluster_timesteps
from gridres.translate import Portfolio, SiteAllocation, translate_solution

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
from oracles import cost_recovery


def _solve(case, reserve=True):
    lp, ix = build_expansion_lp(case, reserve=reserve)
    sol = solve_simplex(lp)
    assert sol.is_optimal
    return extract_solution(case, ix, sol)


@pytest.fixture(scope="module")
def three_site_case():
    sites = [
        make_site("A", "R1", "solar", 10.0, 30.0, [0.5, 0.5]),
        make_site("B", "R1", "solar", 10.0, 40.0, [0.5, 0.5]),
        make_site("C", "R1", "solar", 10.0, 50.0, [0.5, 0.5]),
        make_site("W", "R1", "onshore_wind", 10.0, 45.0, [0.3, 0.3]),
    ]
    region = Region(id="R1", urban_population=0, reserve_margin=0.0, demand=series([4.0, 4.0]))
    return make_case(
        [region],
        [make_vre_cluster("vs", "R1", sites[:3]), make_vre_cluster("vw", "R1", [sites[3]])],
        sites=sites,
        lines=[spur_line(s) for s in sites],
    )


def alloc(**mw):
    """An allocation of mw[site] onto each site, all from one coarse cluster."""
    return SiteAllocation(provenance={"c": tuple(("site", sid, v) for sid, v in mw.items())})


# -- site-choice overlap ------------------------------------------------------------


def test_sco_hand_example(three_site_case):
    a = alloc(A=2.0, B=1.0)
    b = alloc(A=2.0, C=1.0)
    assert sco(a, b, "solar", three_site_case) == 50.0


def test_sco_identity_is_exactly_100(three_site_case):
    a = alloc(A=2.0, B=1.37)
    assert sco(a, a, "solar", three_site_case) == 100.0


def test_sco_empty_allocations_count_as_full_agreement(three_site_case):
    assert sco(alloc(), alloc(), "solar", three_site_case) == 100.0


def test_sco_disjoint_choices_score_zero(three_site_case):
    assert sco(alloc(A=3.0), alloc(B=3.0), "solar", three_site_case) == 0.0


def test_sco_is_symmetric(three_site_case):
    a = alloc(A=2.0, B=1.0, C=0.5)
    b = alloc(A=1.0, C=2.5)
    assert sco(a, b, "solar", three_site_case) == sco(b, a, "solar", three_site_case)


def test_sco_grows_when_agreement_grows(three_site_case):
    a = alloc(A=2.0, B=1.0)
    b = alloc(A=2.0, C=1.0)
    base = sco(a, b, "solar", three_site_case)
    a2 = alloc(A=5.0, B=1.0)
    b2 = alloc(A=5.0, C=1.0)
    assert sco(a2, b2, "solar", three_site_case) > base


def test_sco_filters_by_tech(three_site_case):
    a = alloc(A=2.0, W=9.0)
    b = alloc(A=2.0)
    assert sco(a, b, "solar", three_site_case) == 100.0
    assert sco(a, b, "onshore_wind", three_site_case) == 0.0


# -- capacity and regional error ------------------------------------------------------


def test_line_error_is_root_sum_over_count():
    got = mse_lines({"l1": 3000.0, "l2": 4000.0}, {"l1": 0.0, "l2": 0.0})
    assert got == 2.5  # sqrt(3^2 + 4^2) / 2 in GW


def test_line_error_single_line_is_the_gw_difference():
    assert mse_lines({"l1": 2000.0}, {"l1": 0.0}) == 2.0


def test_regional_error_hand_example():
    vals = {f"r{i}": 1.0 for i in range(4)}
    hrb = {f"r{i}": 0.0 for i in range(4)}
    assert mse_regional(vals, hrb) == 0.5  # sqrt(4) / 4


def test_error_metrics_demand_identical_universes():
    with pytest.raises(ValueError, match="mismatched line universes"):
        mse_lines({"a": 1.0}, {"b": 1.0})
    with pytest.raises(ValueError, match="mismatched region universes"):
        mse_regional({"a": 1.0}, {})


def test_error_metrics_empty_universe_is_zero():
    assert mse_lines({}, {}) == 0.0
    assert mse_regional({}, {}) == 0.0


# -- financials -----------------------------------------------------------------------


def test_abatement_fee_hand_example():
    # 2500 MWh * 8 MMBtu/MWh * 0.05 t/MMBtu = 1000 t, at 200 $/t
    case = one_bus_case([2500.0, 0.0], fixed_cost=1.0, max_new=5000.0, carbon_fee=200.0)
    sol = _solve(case)
    assert sol.thermal["g1"].energy == pytest.approx(2500.0, rel=1e-12)
    assert sol.thermal["g1"].emissions == pytest.approx(1000.0, rel=1e-12)
    assert sol.total_emissions == pytest.approx(1000.0, rel=1e-12)
    assert sol.carbon_fee_cost == pytest.approx(200_000.0, rel=1e-12)


def test_marginal_generator_earns_zero_profit():
    units = [make_unit("u1", "R1", "g1", 20.0)]
    case = one_bus_case([10.0, 8.0], existing_units=units, fixed_cost=0.0, max_new=0.0)
    sol = _solve(case, reserve=False)
    fin = financials(sol, case)
    # price equals marginal cost (3 $/MMBtu * 8 MMBtu/MWh + 1 $/MWh VOM) in
    # every hour, so the 18 MWh earn 25 $/MWh and cost as much
    assert sol.thermal["g1"].energy == pytest.approx(18.0, rel=1e-9)
    assert sol.thermal["g1"].cost == pytest.approx(18.0 * 25.0, rel=1e-9)
    assert fin.profit_by_region["R1"] == pytest.approx(25.0 * 18.0 - 18.0 * 25.0, abs=1e-6)


def test_hour_of_day_price_means():
    units = [make_unit("u1", "R1", "g1", 20.0)]
    case = one_bus_case([10.0, 8.0], existing_units=units, fixed_cost=0.0, max_new=0.0)
    sol = _solve(case, reserve=False)
    fin = financials(sol, case)
    hod = fin.price_by_region_hour["R1"]
    assert len(hod) == 24
    assert hod[0] == pytest.approx(25.0)
    assert hod[1] == pytest.approx(25.0)
    assert hod[5] == 0.0  # hour of day never observed


# -- cost recovery ----------------------------------------------------------------------


def _congested_case():
    units = [make_unit("u1", "A", "gA", 50.0)]
    ga = make_thermal_cluster("gA", "A", units)
    ra = Region(id="A", urban_population=0, reserve_margin=0.0, demand=series([0.0, 0.0]))
    rb = Region(id="B", urban_population=0, reserve_margin=0.0, demand=series([6.0, 6.0]))
    return make_case([ra, rb], [ga], units=units, lines=[interregional("AB", "A", "B", 4.0)])


def test_cost_recovery_identity_with_congestion():
    case = _congested_case()
    sol = _solve(case, reserve=False)
    rec = cost_recovery(sol, case)
    assert rec["lhs"] == pytest.approx(rec["rhs"], rel=1e-5)
    assert rec["congestion_rent"] == pytest.approx((2000.0 - 25.0) * 4.0 * 2, rel=1e-9)
    assert rec["load_payment"] == pytest.approx(2000.0 * 6.0 * 2, rel=1e-9)
    assert rec["nse_penalty"] == pytest.approx(2000.0 * 2.0 * 2, rel=1e-9)
    assert rec["gen_revenue"] == pytest.approx(25.0 * 4.0 * 2, rel=1e-9)


def test_cost_recovery_single_bus_has_no_rent():
    units = [make_unit("u1", "R1", "g1", 20.0)]
    case = one_bus_case([10.0, 8.0], existing_units=units, fixed_cost=0.0, max_new=0.0)
    sol = _solve(case, reserve=False)
    rec = cost_recovery(sol, case)
    assert rec["congestion_rent"] == 0.0
    assert rec["lhs"] == pytest.approx(rec["rhs"], rel=1e-9)


def test_spilled_energy_is_worthless():
    # min-output floor forces spill at night; the balance still closes
    units = [make_unit("u1", "R1", "g1", 10.0, min_output=0.5)]
    case = one_bus_case(
        [10.0, 2.0], existing_units=units, fixed_cost=0.0, max_new=0.0
    ).with_updates(uc_mode="none")
    sol = _solve(case, reserve=False)
    assert sol.spill["R1"][1] > 0
    rec = cost_recovery(sol, case)
    assert rec["spill_value"] == pytest.approx(0.0, abs=1e-7)
    assert rec["lhs"] == pytest.approx(rec["rhs"], rel=1e-6)


# -- phase comparison ---------------------------------------------------------------


def test_phase_compare_with_itself_is_all_zero():
    units = [make_unit("u1", "R1", "g1", 12.0)]
    case = one_bus_case([10.0, 4.0], existing_units=units, fixed_cost=10.0)
    sol = _solve(case)
    out = phase_compare(phase_summary([sol]), sol)
    for tech, (p1, p2, delta) in out.items():
        assert p1 == p2
        assert delta == 0.0
    assert "variable_cost" in out


# -- report assembly ----------------------------------------------------------------


def _self_report(tmp_path=None):
    site = make_site("s1", "R1", "solar", 20.0, 2.0, [1.0, 0.25])
    vre = make_vre_cluster("v1", "R1", [site], fixed_cost=1.0)
    units = [make_unit("u1", "R1", "g1", 6.0)]
    g1 = make_thermal_cluster("g1", "R1", units)
    region = Region(id="R1", urban_population=0, reserve_margin=0.0, demand=series([10.0, 4.0]))
    case = make_case([region], [vre, g1], sites=[site], units=units, lines=[spur_line(site)])
    sol = _solve(case, reserve=False)
    allocation = SiteAllocation(provenance={"v1": (("site", "s1", sol.investment["xv[v1]"]),)})
    build = DispatchedBuild(allocation, Portfolio(case=case), sol)
    baseline = DispatchedBuild(allocation, Portfolio(case=case), sol)
    rep = build_report(
        "identity", phase1=phase_summary([sol]), fixed_cost=fixed_cost(case, sol.investment),
        fine=case, build=build, baseline=baseline,
    )
    return case, sol, rep


def test_self_report_scores_perfectly():
    case, sol, rep = _self_report()
    assert rep.sco_by_tech == {"solar": 100.0}
    assert rep.mse_cap == 0.0
    assert rep.mse_profit == 0.0
    assert rep.mse_emiss == 0.0
    assert rep.total_cost == pytest.approx(sol.objective, rel=1e-6)
    for tech, (_, _, delta) in rep.phase_delta.items():
        assert delta == 0.0
    # the phase rows cover the thermal techs and the variable cost, no VRE tech
    assert set(rep.phase_delta) == {*(c.tech for c in case.thermal_clusters), "variable_cost"}


def test_the_readme_defines_every_report_row_and_no_other():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## `report.csv`\n", 1)[1].split("\n## ", 1)[0]
    defined = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    _, _, rep = _self_report()
    emitted = list(dict.fromkeys(metric for _case, metric, _key, _value in rep.rows()))
    assert defined == emitted


def test_report_rows_are_long_format():
    _, _, rep = _self_report()
    rows = rep.rows()
    assert all(len(r) == 4 for r in rows)
    assert rows[0] == ("identity", "sco", "solar", 100.0)
    metrics = {r[1] for r in rows}
    assert {"mse_cap", "total_cost", "total_nse", "emissions", "profit", "price_hod"} <= metrics
    assert "nse" not in metrics  # the regional split of non-served energy is not reported
    hod_rows = [r for r in rows if r[1] == "price_hod"]
    assert len(hod_rows) == 24
    assert hod_rows[0][2] == "R1:00"


def test_report_csv_write(tmp_path):
    _, _, rep = _self_report()
    path = str(tmp_path / "report.csv")
    write_report([rep], path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["case", "metric", "key", "value"]
    assert rows[1][:3] == ["identity", "sco", "solar"]
    assert float(rows[1][3]) == 100.0
    assert len(rows) == 1 + len(rep.rows())


def test_summary_table_mentions_the_headline_columns():
    _, _, rep = _self_report()
    text = format_summary([rep])
    lines = text.splitlines()
    assert len(lines) == 2
    assert "total_cost" in lines[0]
    assert "identity" in lines[1]


def test_summary_sco_wind_averages_every_wind_tech_as_the_ladder_does():
    # ladder.csv's sco_wind is the mean over onshore and both offshore
    # techs; the printed summary must show the same number
    _, _, rep = _self_report()
    rep = replace(rep, sco_by_tech={
        "solar": 80.0, "onshore_wind": 100.0, "offshore_fixed": 40.0, "offshore_floating": 30.0,
    })
    header, row = (line.split() for line in format_summary([rep]).splitlines())
    cols = dict(zip(header, row))
    assert cols["sco_solar"] == "80.0"
    assert cols["sco_wind"] == "56.7"  # (100 + 40 + 30) / 3


# -- independence from the optimal vertex -------------------------------------------

# second starts for the operations LP, in place of dual simplex
_OTHER_STARTS = {
    "ipm": lp_module._highs_options(solver="ipm", run_crossover="on"),
    "primal": lp_module._highs_options(
        solver="simplex", simplex_strategy=lp_module.highs.simplex_constants.SimplexStrategy.kSimplexStrategyPrimal
    ),
}


def _phase1_cold_and_warm(case, investment):
    """Phase 1 at the build investment as per-period parts, from two
    starts: every subproblem cold on its full LP, and warm on its reduced
    LP from the full LP's basis at the zero build, as in Benders' second
    iteration."""
    subs = build_subproblems(case)
    x = np.array(list(investment.values()))
    cold, warm = [], []
    for lp, ix in subs:
        reduced = ReducedModel()
        assert solve_simplex(lp, reduced).is_optimal  # pinned at 0
        _pin(lp, ix.inv, x)
        cold.append(solve_simplex(lp))
        warm.append(solve_simplex(lp, reduced))
        assert warm[-1].stats.warm
    return [
        [extract_solution(case, ix, sol) for (_lp, ix), sol in zip(subs, sols)]
        for sols in (cold, warm)
    ]


@pytest.mark.parametrize("start", sorted(_OTHER_STARTS))
@pytest.mark.parametrize(
    "periods, period_length, seed, regions, k",
    [(3, 24, 2, 2, None), (3, 12, 1, 2, None), (3, 24, 2, 1, 2)],
    ids=["days-hrb", "halfdays-hrb", "days-r1-k2"],
)
def test_report_rows_do_not_depend_on_the_optimal_vertex(
    monkeypatch, periods, period_length, seed, regions, k, start
):
    # one build, scored twice: phase 1 from cold full-LP solves and from
    # warm reduced ones, the dispatch by dual simplex and by another method.
    # Every report row must agree: a row that reads one optimal vertex out
    # of many is not a property of the build. Benders' own phase-1 summary,
    # from its solves at the incumbent, must agree with the cold one too
    fine = generate(SynthConfig(n_regions=2, periods=periods, period_length=period_length), seed=seed)
    coarse = aggregate_spatial(fine, chunk_partition(fine, regions, "p"))
    case = coarse if k is None else apply_temporal(coarse, cluster_timesteps(coarse, k, seed=0))
    bres = solve_benders(case, stab_weight=0.3)
    assert bres.converged
    investment = bres.investment
    cold, warm = _phase1_cold_and_warm(case, investment)
    want = phase_summary(cold)
    assert bres.phase1.keys() == want.keys()
    for key, value in want.items():
        assert abs(bres.phase1[key] - value) <= 1e-9 * max(1.0, abs(value)), key
    allocation, portfolio = translate_solution(investment, coarse, fine)
    dual = dispatch_portfolio(portfolio)[0]
    monkeypatch.setattr(lp_module, "_SIMPLEX", _OTHER_STARTS[start])
    other = dispatch_portfolio(portfolio)[0]
    baseline = DispatchedBuild(allocation, portfolio, dual)
    rows = [
        {
            (metric, key): value
            for _case, metric, key, value in build_report(
                "c", phase_summary(parts), fixed_cost(case, investment), fine,
                DispatchedBuild(allocation, portfolio, operations), baseline,
            ).rows()
        }
        for parts, operations in zip((cold, warm), (dual, other))
    ]
    a, b = rows
    assert a.keys() == b.keys()
    off = {key: (a[key], b[key]) for key in a if abs(a[key] - b[key]) > 1e-9 * max(1.0, abs(a[key]))}
    assert off == {}
