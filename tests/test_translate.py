"""Coarse-to-fine translation rules, checked against hand splits."""

import re

import numpy as np
import pytest

from gridres import lp as lp_module
from gridres.caseio import write_case
from gridres.cli import main as cli_main
from gridres.expansion import INVESTMENT_PREFIXES, investment_entries
from gridres.metrics import DispatchedBuild
from gridres.model import CaseError, Region, StorageCluster, require_valid
from gridres.pipeline import (
    dispatch_portfolio,
    read_investments,
    replay_operations,
    write_investments,
    write_operations,
)
from gridres.prng import Rng
from gridres.spatial import RegionPartition, aggregate_spatial
from gridres.translate import (
    Portfolio,
    SiteAllocation,
    allocate_storage,
    allocate_thermal,
    allocate_vre,
    build_portfolio,
    read_allocation,
    redistrict_transmission,
    retire_units,
    translate_solution,
    vre_fill_order,
    write_allocation,
)

from conftest import (
    interregional,
    make_case,
    make_site,
    make_thermal_cluster,
    make_unit,
    make_vre_cluster,
    series,
    spur_line,
)


def site(sid, lcoe, cap, tech="solar"):
    return make_site(sid, "R1", tech, cap, lcoe, [0.5, 0.5])


# -- site fill ---------------------------------------------------------------------


def test_vre_fill_is_cheapest_first():
    sites = [site("s1", 30.0, 3.0), site("s2", 40.0, 3.0)]
    got = allocate_vre(5.0, sites)
    assert [(s.id, mw) for s, mw in got] == [("s1", 3.0), ("s2", 2.0)]


def test_vre_fill_zero_investment_is_empty():
    assert allocate_vre(0.0, [site("s1", 30.0, 3.0)]) == []


def test_vre_fill_lcoe_tie_breaks_by_id():
    sites = [site("sb", 30.0, 2.0), site("sa", 30.0, 2.0)]
    got = allocate_vre(2.0, sites)
    assert [(s.id, mw) for s, mw in got] == [("sa", 2.0)]


def test_fixed_bottom_offshore_fills_before_floating():
    order = vre_fill_order(
        [
            site("float", 20.0, 5.0, tech="offshore_floating"),
            site("fixed", 90.0, 5.0, tech="offshore_fixed"),
        ]
    )
    assert [s.id for s in order] == ["fixed", "float"]


def test_vre_fill_rejects_over_investment():
    with pytest.raises(ValueError, match="exceeds site capacity"):
        allocate_vre(7.0, [site("s1", 30.0, 3.0), site("s2", 40.0, 3.0)])


def test_vre_fill_tolerates_float_cap_slop():
    sites = [site("s1", 30.0, 0.1), site("s2", 40.0, 0.2)]
    got = allocate_vre(0.1 + 0.2, sites)  # binary 0.30000000000000004
    assert sum(mw for _, mw in got) == pytest.approx(0.1 + 0.2, abs=1e-12)


# -- proportional splits -----------------------------------------------------------


def test_thermal_split_follows_demand_exactly():
    assert allocate_thermal(9.0, {"FRCC": 200.0, "SRSE": 100.0}) == {
        "FRCC": 6.0,
        "SRSE": 3.0,
    }


def test_thermal_66_34_split_is_exact():
    got = allocate_thermal(100.0, {"FRCC": 66.0, "SRSE": 34.0})
    assert got == {"FRCC": 66.0, "SRSE": 34.0}


def test_thermal_single_subregion_takes_everything():
    assert allocate_thermal(7.25, {"only": 123.0}) == {"only": 7.25}


def test_thermal_equal_thirds_sum_exactly():
    got = allocate_thermal(10.0, {"a": 1.0, "b": 1.0, "c": 1.0})
    assert sum(got.values()) == 10.0
    assert got["a"] == got["b"] == pytest.approx(10.0 / 3.0)


def test_thermal_rejects_degenerate_weights():
    with pytest.raises(ValueError, match="nonzero"):
        allocate_thermal(5.0, {"a": 0.0, "b": 0.0})
    with pytest.raises(ValueError, match="negative"):
        allocate_thermal(5.0, {"a": 2.0, "b": -1.0})


def test_storage_splits_by_vre_capacity():
    p, e = allocate_storage(10.0, 30.0, {"a": 20.0, "b": 80.0})
    assert p == {"a": 2.0, "b": 8.0}
    assert e == {"a": 6.0, "b": 24.0}


def test_storage_falls_back_to_demand_then_uniform():
    p, _ = allocate_storage(10.0, 0.0, {"a": 0.0, "b": 0.0}, demand_fallback={"a": 1.0, "b": 3.0})
    assert p == {"a": 2.5, "b": 7.5}
    p, _ = allocate_storage(10.0, 0.0, {"a": 0.0, "b": 0.0})
    assert p == {"a": 5.0, "b": 5.0}


# -- retirement --------------------------------------------------------------------


def _unit(uid, hr, cap):
    return make_unit(uid, "R1", "g1", cap, heat_rate=hr)


def test_retirement_hits_least_efficient_first():
    got = retire_units(100.0, [_unit("u1", 7.0, 80.0), _unit("u2", 9.0, 50.0)])
    assert [(u.id, mw) for u, mw in got] == [("u2", 50.0), ("u1", 50.0)]


def test_retirement_heat_rate_tie_breaks_by_id():
    got = retire_units(10.0, [_unit("ub", 8.0, 40.0), _unit("ua", 8.0, 40.0)])
    assert [(u.id, mw) for u, mw in got] == [("ua", 10.0)]


def test_retirement_rejects_more_than_exists():
    with pytest.raises(ValueError, match="exceeds unit capacity"):
        retire_units(200.0, [_unit("u1", 7.0, 80.0)])


def _is_greedy_prefix(pairs, order, cap_of):
    ids = [x.id for x, _ in pairs]
    if ids != [x.id for x in order[: len(ids)]]:
        return False
    # all but the last filled site must be taken whole
    return all(mw == cap_of(x) for x, mw in pairs[:-1])


def test_fill_and_retirement_orders_against_sort_oracle():
    rng = Rng(77)
    for trial in range(40):
        r = rng.derive(f"t{trial}")
        sites = [
            site(f"s{i}", 20.0 + r.below(10), 1.0 + r.below(4)) for i in range(1 + r.below(5))
        ]
        total = sum(s.capacity_limit for s in sites)
        inv = total * r.u01()
        pairs = allocate_vre(inv, sites)
        assert _is_greedy_prefix(pairs, vre_fill_order(sites), lambda s: s.capacity_limit)
        units = [
            _unit(f"u{i}", 6.0 + r.below(6), 10.0 + r.below(30))
            for i in range(1 + r.below(5))
        ]
        cap = sum(u.capacity for u in units)
        ret_pairs = retire_units(cap * r.u01(), units)
        oracle = sorted(units, key=lambda u: (-u.heat_rate, u.id))
        assert _is_greedy_prefix(ret_pairs, oracle, lambda u: u.capacity)


# -- conservation fuzz -------------------------------------------------------------


def test_every_split_conserves_capacity():
    rng = Rng(123)
    for trial in range(100):
        r = rng.derive(f"c{trial}")
        n = 1 + r.below(6)
        sites = [site(f"s{i}", 20.0 + r.u01() * 40, 0.5 + r.u01() * 9) for i in range(n)]
        inv = sum(s.capacity_limit for s in sites) * r.u01()
        assert sum(mw for _, mw in allocate_vre(inv, sites)) == pytest.approx(inv, abs=1e-9)

        weights = {f"r{i}": r.u01() * 1e4 for i in range(1 + r.below(5))}
        amount = r.u01() * 5e3
        if any(w > 0 for w in weights.values()):
            assert sum(allocate_thermal(amount, weights).values()) == pytest.approx(
                amount, abs=1e-9
            )

        pw, en = r.u01() * 100, r.u01() * 400
        p, e = allocate_storage(pw, en, {f"r{i}": r.u01() * 50 for i in range(1 + r.below(4))})
        assert sum(p.values()) == pytest.approx(pw, abs=1e-9)
        assert sum(e.values()) == pytest.approx(en, abs=1e-9)
        units = [_unit(f"u{i}", 5 + r.u01() * 6, 5 + r.u01() * 90) for i in range(1 + r.below(4))]
        ret = sum(u.capacity for u in units) * r.u01()
        assert sum(mw for _, mw in retire_units(ret, units)) == pytest.approx(ret, abs=1e-9)


# -- transmission redistricting ------------------------------------------------------


def _parallel_line_fixture():
    regions = [
        Region(id="A", urban_population=2_000_000, reserve_margin=0.0, demand=series([1.0])),
        Region(id="B", urban_population=1_000_000, reserve_margin=0.0, demand=series([1.0])),
        Region(id="C", urban_population=3_000_000, reserve_margin=0.0, demand=series([1.0])),
        Region(id="D", urban_population=4_000_000, reserve_margin=0.0, demand=series([1.0])),
    ]
    u = make_unit("u1", "A", "gA", 10.0)
    fine = make_case(
        regions,
        [make_thermal_cluster("gA", "A", [u])],
        units=[u],
        lines=[interregional("L1", "A", "C", 4.0), interregional("L2", "B", "D", 16.0)],
    )
    part = RegionPartition.from_mapping({"A": "W", "B": "W", "C": "E", "D": "E"})
    return fine, aggregate_spatial(fine, part)


def test_cross_capacity_splits_by_endpoint_population():
    fine, coarse = _parallel_line_fixture()
    (merged,) = coarse.interregional_lines
    assert merged.capacity == 20.0
    caps = redistrict_transmission({}, coarse, fine, SiteAllocation())
    # L1 weighs 2M + 3M, L2 weighs 1M + 4M: an even 10/10 split
    assert caps == {"L1": 10.0, "L2": 10.0}


def test_line_expansion_rides_along_the_split():
    fine, coarse = _parallel_line_fixture()
    (merged,) = coarse.interregional_lines
    caps = redistrict_transmission({f"xl[{merged.id}]": 4.0}, coarse, fine, SiteAllocation())
    assert caps == {"L1": 12.0, "L2": 12.0}
    assert sum(caps.values()) == pytest.approx(merged.capacity + 4.0)


def test_internalized_lines_return_scaled_by_beta():
    fine, _ = _parallel_line_fixture()
    part = RegionPartition.from_mapping({"A": "all", "B": "all", "C": "all", "D": "all"})
    coarse = aggregate_spatial(fine, part)
    assert all(l.kind == "backbone" for l in coarse.lines)
    caps = redistrict_transmission({}, coarse, fine, SiteAllocation(), beta=0.5)
    assert caps == {"L1": 2.0, "L2": 8.0}


def test_invested_spur_adds_capacity_along_its_path():
    s1 = make_site("s1", "m2", "solar", 8.0, 40.0, [1.0, 0.5])
    fine = make_case(
        [
            Region(id="m1", urban_population=2_000_000, reserve_margin=0.0, demand=series([4.0, 4.0])),
            Region(id="m2", urban_population=0, reserve_margin=0.0, demand=series([1.0, 1.0])),
        ],
        [make_vre_cluster("v1", "m2", [s1])],
        sites=[s1],
        lines=[spur_line(s1), interregional("link", "m1", "m2", 3.0)],
    )
    coarse = aggregate_spatial(fine, RegionPartition.from_mapping({"m1": "W", "m2": "W"}))
    assert coarse.line_by_id["spur_s1"].fine_endpoints == ("m2", "m1")
    alloc = SiteAllocation(provenance={"v1": (("site", "s1", 2.0),)})
    caps = redistrict_transmission({}, coarse, fine, alloc)
    # 3 MW comes back from the internalized link, 2 MW rides the spur path
    assert caps == {"link": 3.0 + 2.0}
    bare = redistrict_transmission({}, coarse, fine, SiteAllocation())
    assert bare == {"link": 3.0}


def test_missing_fine_line_is_a_hard_error():
    fine, coarse = _parallel_line_fixture()
    (merged,) = coarse.interregional_lines
    gutted = fine.with_updates(lines=())
    with pytest.raises(ValueError, match=f"corresponds to {merged.id}"):
        redistrict_transmission({}, coarse, gutted, SiteAllocation())


def test_missing_backbone_target_names_the_line():
    fine, _ = _parallel_line_fixture()
    part = RegionPartition.from_mapping({"A": "all", "B": "all", "C": "all", "D": "all"})
    coarse = aggregate_spatial(fine, part)
    gutted = fine.with_updates(lines=(fine.line_by_id["L2"],))
    with pytest.raises(ValueError, match="backbone L1 crosses A-C"):
        redistrict_transmission({}, coarse, gutted, SiteAllocation())


# -- portfolio assembly --------------------------------------------------------------


def test_empty_allocation_reproduces_the_existing_system(synth_small):
    p = build_portfolio(synth_small, SiteAllocation())
    assert list(p.investment.items()) == [(name, 0.0) for name, *_ in investment_entries(synth_small)]
    for l in synth_small.interregional_lines:
        assert p.line_capacity[l.id] == l.capacity


def test_portfolio_rejects_unknown_entities(synth_small):
    with pytest.raises(CaseError, match="belongs to no fine cluster"):
        build_portfolio(synth_small, SiteAllocation(provenance={"c": (("site", "ghost", 1.0),)}))
    with pytest.raises(CaseError, match="unknown fine thermal cluster"):
        build_portfolio(synth_small, SiteAllocation(provenance={"c": (("cluster", "ghost", 1.0),)}))
    with pytest.raises(CaseError, match="unknown fine storage"):
        build_portfolio(synth_small, SiteAllocation(provenance={"c": (("storage_power", "ghost", 1.0),)}))
    with pytest.raises(CaseError, match=re.escape("unknown fine interregional lines ['ghost']")):
        build_portfolio(synth_small, SiteAllocation(line_capacity={"ghost": 1.0}))


def test_portfolio_rejects_negative_resulting_capacity(synth_small):
    unit = synth_small.units[0]
    alloc = SiteAllocation(provenance={"c": (("unit", unit.id, unit.capacity + 1e6),)})
    with pytest.raises(CaseError, match="negative resulting capacity"):
        build_portfolio(synth_small, alloc)
    # the same for a VRE cluster, a storage's energy and a line
    site, storage, line = synth_small.sites[0], synth_small.storage[0], synth_small.interregional_lines[0]
    for alloc, entity in (
        (SiteAllocation(provenance={"c": (("site", site.id, -1e6),)}), synth_small.cluster_of_member[site.id]),
        (SiteAllocation(provenance={"c": (("storage_energy", storage.id, -1e6),)}), storage.id),
        (SiteAllocation(line_capacity={line.id: -1.0}), line.id),
    ):
        with pytest.raises(CaseError, match=f"^negative resulting capacity on {re.escape(entity)}: "):
            build_portfolio(synth_small, alloc)


# -- end-to-end translation -----------------------------------------------------------


def _solved(case):
    from gridres.expansion import build_lp, extract_solution
    from gridres.lp import solve_simplex

    lp, ix = build_lp(case, reserve=True)
    sol = solve_simplex(lp)
    assert sol.is_optimal
    return extract_solution(case, ix, sol)


def test_identity_translation_matches_phase1_exactly(synth_small):
    sol = _solved(synth_small)
    coarse = aggregate_spatial(synth_small, RegionPartition.identity(synth_small))
    alloc, portfolio = translate_solution(sol.investment, coarse, synth_small)
    # line expansion is carried in the lines of portfolio.case, so every xl[...] is 0
    want = {name: 0.0 if name.startswith("xl[") else mw for name, mw in sol.investment.items()}
    assert list(portfolio.investment) == list(want)
    assert portfolio.investment == pytest.approx(want, abs=1e-9)
    for l in synth_small.interregional_lines:
        cap = l.capacity + sol.investment[f"xl[{l.id}]"]
        assert portfolio.line_capacity[l.id] == pytest.approx(cap, abs=1e-9)
    # no templates needed on the identity path
    assert portfolio.case.clusters == synth_small.clusters and portfolio.case.storage == synth_small.storage


def _totals_by_prefix(investment):
    out = {}
    for name, value in investment.items():
        prefix = name.partition("[")[0]
        out[prefix] = out.get(prefix, 0.0) + value
    return out


def test_merged_translation_conserves_every_total(synth_small):
    part = RegionPartition.from_mapping({"R01": "all", "R02": "all"})
    coarse = aggregate_spatial(synth_small, part)
    sol = _solved(coarse)
    alloc, portfolio = translate_solution(sol.investment, coarse, synth_small)
    got, want = _totals_by_prefix(portfolio.investment), _totals_by_prefix(sol.investment)
    for prefix in ("xv", "xg", "ret", "xp", "xe"):
        assert got[prefix] == pytest.approx(want[prefix], abs=1e-9), prefix
    # every fine investment is present even when untouched
    assert list(portfolio.investment) == [name for name, *_ in investment_entries(portfolio.case)]
    require_valid(portfolio.case)


def _translate_into_a_bare_region():
    """10 MW of coarse gas and 2 MW / 8 MWh of coarse storage for a fine
    region B that has demand but neither a gas cluster nor storage of its
    own. Returns (fine, coarse, allocation, portfolio)."""
    uA = make_unit("uA", "A", "gA", 5.0)
    sA = StorageCluster(
        id="sA", region="A", power_cost=10.0, energy_cost=1.0,
        efficiency_rt=0.9, existing_power=1.0, existing_energy=4.0,
    )
    fine = make_case(
        [
            Region(id="A", urban_population=0, reserve_margin=0.0, demand=series([0.0, 0.0])),
            Region(id="B", urban_population=0, reserve_margin=0.0, demand=series([6.0, 6.0])),
        ],
        [make_thermal_cluster("gA", "A", [uA], max_new=50.0)],
        units=[uA],
        storage=[sA],
    )
    coarse = aggregate_spatial(fine, RegionPartition.from_mapping({"A": "W", "B": "W"}))
    sol = {"xg[W_gas]": 10.0, "xp[W_storage]": 2.0, "xe[W_storage]": 8.0}
    return (fine, coarse, *translate_solution(sol, coarse, fine))


def test_investment_into_a_bare_region_creates_a_template():
    _fine, _coarse, alloc, portfolio = _translate_into_a_bare_region()
    # all demand sits in B, so the full 10 MW lands there on a fresh cluster
    assert alloc.total("cluster") == {"B_gas_tpl": 10.0}
    assert "B_gas_tpl" in {c.id for c in portfolio.case.clusters}
    tpl = portfolio.case.cluster_by_id["B_gas_tpl"]
    assert tpl.existing_capacity == 0.0
    assert tpl.region == "B"
    assert portfolio.investment["xg[B_gas_tpl]"] == 10.0
    # storage follows demand too, onto a fresh B_storage_tpl
    assert alloc.total("storage_power") == {"B_storage_tpl": 2.0}
    assert portfolio.case.storage_by_id["B_storage_tpl"].existing_power == 0.0


def test_operate_stage_dispatches_a_template_cluster():
    # the pipeline's operate stage builds and extracts on the portfolio's
    # case, which holds the template; the fine case alone does not
    _fine, _coarse, _alloc, portfolio = _translate_into_a_bare_region()
    ops = dispatch_portfolio(portfolio)[0]
    np.testing.assert_allclose(ops.dispatch["B_gas_tpl"], [6.0, 6.0], atol=1e-9)
    assert ops.total_nse == pytest.approx(0.0, abs=1e-9)


def test_a_template_combo_dispatches_cold_from_the_hrb_basis(monkeypatch):
    # the template cluster adds columns and rows to the fine case's
    # operations LP, so the HRB's basis does not fit it: the warm attempt
    # fails before it reduces a row, and the cold solve dispatches the build
    fine, _coarse, alloc, portfolio = _translate_into_a_bare_region()
    zero = {name: 0.0 for name, *_ in investment_entries(fine)}
    hrb_portfolio = Portfolio(case=fine, investment=zero)
    hrb_ops, hrb_solve, hrb_basis = dispatch_portfolio(hrb_portfolio)
    assert not hrb_solve.warm and hrb_basis is not None
    reductions = []
    real = lp_module._BoundRows.__init__

    def spy(self, lp, fixed):
        reductions.append(lp)
        real(self, lp, fixed)

    monkeypatch.setattr(lp_module._BoundRows, "__init__", spy)
    hrb = DispatchedBuild(SiteAllocation(), hrb_portfolio, hrb_ops, hrb_basis)
    ops, solve, basis = dispatch_portfolio(portfolio, hrb)
    assert not solve.warm and reductions == []
    assert basis is None  # only a dispatch without a baseline hands its basis on
    assert ops.objective == dispatch_portfolio(portfolio)[0].objective


def test_replay_rebuilds_templates_from_the_coarse_case(tmp_path):
    fine, coarse, alloc, portfolio = _translate_into_a_bare_region()
    write_allocation(alloc, str(tmp_path / "allocation.csv"))
    _back, replayed, ops, _basis = replay_operations(fine, str(tmp_path), coarse)
    assert replayed.case == portfolio.case
    assert replayed.investment == portfolio.investment
    want = dispatch_portfolio(portfolio)[0]
    assert ops.objective == want.objective
    for field in ("dispatch", "charge", "discharge", "soc", "prices"):
        got, exp = getattr(ops, field), getattr(want, field)
        assert got.keys() == exp.keys(), field
        for key in exp:
            assert np.array_equal(got[key], exp[key]), (field, key)
    # without the coarse case the template cannot be rebuilt
    with pytest.raises(ValueError, match="unknown fine thermal cluster B_gas_tpl"):
        replay_operations(fine, str(tmp_path))


def test_cli_operate_dispatches_a_template_cluster(tmp_path):
    # operate reads the combo directory's coarse/ with its allocation.csv,
    # so it rebuilds the template as the ladder's operate stage holds it
    fine, coarse, alloc, portfolio = _translate_into_a_bare_region()
    combo = tmp_path / "combo"
    write_case(fine, str(tmp_path / "fine"))
    write_case(coarse, str(combo / "coarse"))
    write_allocation(alloc, str(combo / "allocation.csv"))
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"out_dir: {combo}\ninput_dir: {tmp_path / 'fine'}\n")
    assert cli_main(["--config", str(cfg), "operate"]) == 0
    write_operations(dispatch_portfolio(portfolio)[0], str(tmp_path / "want.csv"))
    assert (combo / "operations.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_allocation_file_round_trip(tmp_path, synth_small):
    part = RegionPartition.from_mapping({"R01": "all", "R02": "all"})
    coarse = aggregate_spatial(synth_small, part)
    sol = _solved(coarse)
    alloc, _ = translate_solution(sol.investment, coarse, synth_small)
    path = str(tmp_path / "allocation.csv")
    write_allocation(alloc, path)
    back = read_allocation(path)
    for kind in ("site", "unit", "cluster", "storage_power", "storage_energy"):
        assert back.total(kind) == alloc.total(kind), kind
    assert back.line_capacity == alloc.line_capacity
    # clusters that invested nothing carry no provenance rows on disk
    assert back.provenance == {k: v for k, v in alloc.provenance.items() if v}


@pytest.mark.parametrize(
    "row, error",
    [
        pytest.param("site,s2,50.0,", "row 4: site s2 names no provenance cluster", id="site-without-source"),
        pytest.param("line,L2,300.0,v1", "row 4: line L2 names provenance cluster 'v1'", id="line-with-source"),
        pytest.param("line,L1,300.0,", "row 4: repeated line L1", id="line-repeated"),
    ],
)
def test_reading_an_allocation_refuses_rows_it_never_writes(tmp_path, row, error):
    # rows write_allocation never writes: a site the next write would drop,
    # a line it would write twice, a line whose capacity would add up
    path = tmp_path / "allocation.csv"
    path.write_text(f"entity_kind,entity_id,mw,provenance_cluster\nsite,s1,1.0,v1\nline,L1,300.0,\n{row}\n")
    with pytest.raises(CaseError, match=re.escape(f"{path} {error}")):
        read_allocation(str(path))


def test_investments_file_round_trips_the_solution_investment(tmp_path, synth_small):
    sol = _solved(synth_small)
    entries = investment_entries(synth_small)
    assert {kind for _name, kind, *_ in entries} == set(INVESTMENT_PREFIXES)  # every family present
    assert list(sol.investment) == [name for name, *_ in entries]
    path = str(tmp_path / "investments.csv")
    write_investments(sol.investment, path)
    back = read_investments(path, synth_small, "synth_small")
    assert list(back.items()) == list(sol.investment.items())
