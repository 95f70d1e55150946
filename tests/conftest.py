"""Shared fixture builders: small hand-checkable systems.

Every builder returns a fully validated SystemCase so tests exercise the
same invariants production inputs must satisfy.
"""

import numpy as np
import pytest

from gridres.model import (
    Region,
    ResourceCluster,
    Series,
    Site,
    StorageCluster,
    SystemCase,
    ThermalUnit,
    TransmissionLine,
    derive_thermal_params,
    require_valid,
)


def series(values, period_length=None):
    vals = np.asarray(values, dtype=float)
    return Series(vals, period_length or vals.size)


def make_unit(
    uid,
    region,
    plant,
    capacity,
    heat_rate=8.0,
    min_output=0.0,
    ramp=1.0,
    start_cost=0.0,
    emission_factor=0.05,
    fuel_cost=3.0,
    vom=1.0,
):
    return ThermalUnit(
        id=uid,
        fine_region=region,
        plant=plant,
        capacity=float(capacity),
        heat_rate=float(heat_rate),
        min_output=float(min_output),
        ramp_rate=float(ramp),
        start_cost=float(start_cost),
        emission_factor=float(emission_factor),
        fuel_cost=float(fuel_cost),
        vom=float(vom),
    )


def make_thermal_cluster(cid, region, units, max_new=0.0, fixed_cost=0.0, fom_cost=0.0):
    return ResourceCluster(
        id=cid,
        region=region,
        tech="gas",
        members=tuple(u.id for u in units),
        existing_capacity=float(sum(u.capacity for u in units)),
        max_new_capacity=float(max_new),
        fixed_cost=float(fixed_cost),
        fom_cost=float(fom_cost),
        thermal=derive_thermal_params(units),
    )


def make_site(sid, region, tech, cap, lcoe, profile, spur_cost=0.0):
    prof = profile if isinstance(profile, Series) else series(profile)
    return Site(
        id=sid,
        fine_region=region,
        tech=tech,
        capacity_limit=float(cap),
        lcoe=float(lcoe),
        annual_cf=float(prof.values.mean()),
        profile=prof,
        spur_cost=float(spur_cost),
        spur_capacity=float(cap),
    )


def make_vre_cluster(cid, region, sites, max_new=None, fixed_cost=0.0, fom_cost=0.0):
    caps = np.array([s.capacity_limit for s in sites])
    profs = np.vstack([s.profile.values for s in sites])
    agg = profs.T @ caps / caps.sum()
    return ResourceCluster(
        id=cid,
        region=region,
        tech=sites[0].tech,
        members=tuple(s.id for s in sites),
        existing_capacity=0.0,
        max_new_capacity=float(caps.sum() if max_new is None else max_new),
        fixed_cost=float(fixed_cost),
        fom_cost=float(fom_cost),
        aggregate_profile=Series(agg, sites[0].profile.period_length),
    )


def spur_line(site, sink=None):
    return TransmissionLine(
        id=f"spur_{site.id}",
        kind="spur",
        endpoints=(site.fine_region,),
        fine_endpoints=(site.fine_region, sink or site.fine_region),
        capacity=site.capacity_limit,
        expansion_cost=0.0,
        max_expansion=0.0,
    )


def interregional(lid, a, b, capacity, expansion_cost=0.0, max_expansion=0.0):
    return TransmissionLine(
        id=lid,
        kind="interregional",
        endpoints=(a, b),
        fine_endpoints=(a, b),
        capacity=float(capacity),
        expansion_cost=float(expansion_cost),
        max_expansion=float(max_expansion),
    )


def make_case(
    regions,
    clusters,
    sites=(),
    units=(),
    storage=(),
    lines=(),
    nse_cost=2000.0,
    carbon_fee=0.0,
    period_weights=(),
    uc_mode="relaxed",
):
    return require_valid(
        SystemCase(
            regions=tuple(regions),
            sites=tuple(sites),
            units=tuple(units),
            clusters=tuple(clusters),
            storage=tuple(storage),
            lines=tuple(lines),
            nse_cost=nse_cost,
            carbon_fee=carbon_fee,
            period_weights=period_weights,
            uc_mode=uc_mode,
        )
    )


def one_bus_case(
    demand,
    period_length=None,
    max_new=1000.0,
    fixed_cost=100.0,
    reserve_margin=0.0,
    existing_units=(),
    nse_cost=2000.0,
    carbon_fee=0.0,
    **unit_kw,
):
    """Single region, single thermal cluster. Existing capacity comes from
    existing_units; new capacity is free to build up to max_new."""
    dem = series(demand, period_length)
    region = Region(id="R1", urban_population=0, reserve_margin=reserve_margin, demand=dem)
    proto = [make_unit("u_proto", "R1", "g1", 1.0, **unit_kw)]
    units = tuple(existing_units) or ()
    cluster = ResourceCluster(
        id="g1",
        region="R1",
        tech="gas",
        members=tuple(u.id for u in units),
        existing_capacity=float(sum(u.capacity for u in units)),
        max_new_capacity=float(max_new),
        fixed_cost=float(fixed_cost),
        thermal=derive_thermal_params(list(units) or proto),
    )
    return make_case(
        [region], [cluster], units=units, nse_cost=nse_cost, carbon_fee=carbon_fee
    )


@pytest.fixture(scope="session")
def synth_small():
    """2 regions x 3 day-periods; large enough to exercise every entity kind."""
    from gridres.syngen import SynthConfig, generate

    cfg = SynthConfig(
        n_regions=2,
        periods=3,
        period_length=24,
        sites_per_region={"solar": 2, "onshore_wind": 2},
        units_per_plant=2,
    )
    return generate(cfg, seed=11)


@pytest.fixture(scope="session")
def synth_small_lps(synth_small):
    """The LPs built over synth_small, by name: both uc modes of the
    expansion, one single-period Benders subproblem and the operations LP
    of a portfolio with new gas and an expanded line."""
    from gridres.expansion import (
        BuildOptions,
        build_expansion_lp,
        build_lp,
        build_operations_lp,
        investment_entries,
    )
    from gridres.translate import SiteAllocation, build_portfolio

    case = synth_small
    subproblem = BuildOptions(
        uc="relaxed",
        reserve=False,
        periods=(1,),
        fix={name: 0.0 for name, *_ in investment_entries(case)},
    )
    line = case.interregional_lines[0]
    allocation = SiteAllocation(line_capacity={line.id: 1.5 * line.capacity})
    portfolio = build_portfolio(case, allocation)
    portfolio.investment[f"xg[{case.thermal_clusters[0].id}]"] = 25.0
    return {
        "expansion_relaxed": build_expansion_lp(case.with_updates(uc_mode="relaxed"))[0],
        "expansion_none": build_expansion_lp(case.with_updates(uc_mode="none"))[0],
        "subproblem": build_lp(case, subproblem)[0],
        "operations": build_operations_lp(case, portfolio)[0],
    }


@pytest.fixture(scope="session")
def synth_medium():
    """3 regions x 4 day-periods, used where two regions are too degenerate."""
    from gridres.syngen import SynthConfig, generate

    cfg = SynthConfig(
        n_regions=3,
        periods=4,
        period_length=24,
        sites_per_region={"solar": 2, "onshore_wind": 2},
        units_per_plant=2,
    )
    return generate(cfg, seed=5)
