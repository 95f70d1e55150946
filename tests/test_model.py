import numpy as np
import pytest
from dataclasses import replace

from gridres.model import (
    CaseError,
    Region,
    ResourceCluster,
    Series,
    SystemCase,
    derive_thermal_params,
    require_valid,
    site_fixed_cost,
    validate,
    vre_aggregate_profile,
    weighted_mean,
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


def _violation_rules(case):
    return {(v.entity, v.rule) for v in validate(case)}


def _basic_case():
    units = [make_unit("u1", "R1", "g1", 50.0), make_unit("u2", "R1", "g1", 30.0)]
    cluster = make_thermal_cluster("g1", "R1", units, max_new=10.0, fixed_cost=5.0)
    region = Region(id="R1", urban_population=100, reserve_margin=0.1, demand=series([10, 20, 15]))
    return make_case([region], [cluster], units=units)


# -- Series ------------------------------------------------------------------


def test_series_period_shape():
    s = Series(np.arange(6, dtype=float), 3)
    assert s.hours == 6
    assert s.n_periods == 2


def test_series_rejects_misaligned_periods():
    with pytest.raises(ValueError):
        Series(np.arange(5, dtype=float), 3)


def test_series_values_are_read_only():
    s = series([1.0, 2.0])
    with pytest.raises(ValueError):
        s.values[0] = 9.0


# -- validate ----------------------------------------------------------------


def test_valid_case_has_no_violations():
    assert validate(_basic_case()) == []


def test_min_output_out_of_range():
    units = [make_unit("u1", "R1", "g1", 50.0, min_output=1.3)]
    cluster = make_thermal_cluster("g1", "R1", units)
    region = Region(id="R1", urban_population=0, reserve_margin=0.0, demand=series([10.0]))
    case = SystemCase(
        regions=(region,), sites=(), units=tuple(units), clusters=(cluster,),
        storage=(), lines=(), nse_cost=2000.0, carbon_fee=0.0,
    )
    assert ("u1", "min-output-range") in _violation_rules(case)


def test_duplicate_region_ids():
    r1 = Region(id="R1", urban_population=0, reserve_margin=0.0, demand=series([1.0]))
    r2 = Region(id="R1", urban_population=5, reserve_margin=0.0, demand=series([2.0]))
    case = SystemCase(
        regions=(r1, r2), sites=(), units=(), clusters=(), storage=(), lines=(),
        nse_cost=2000.0, carbon_fee=0.0,
    )
    assert ("R1", "unique-id") in _violation_rules(case)


def test_negative_demand_flagged():
    r = Region(id="R1", urban_population=0, reserve_margin=0.0, demand=series([5.0, -1.0]))
    case = SystemCase(
        regions=(r,), sites=(), units=(), clusters=(), storage=(), lines=(),
        nse_cost=2000.0, carbon_fee=0.0,
    )
    assert ("R1", "nonnegative-demand") in _violation_rules(case)


def test_plant_pointer_must_match_owning_cluster():
    units = [make_unit("u1", "R1", "elsewhere", 50.0)]
    cluster = make_thermal_cluster("g1", "R1", units)
    region = Region(id="R1", urban_population=0, reserve_margin=0.0, demand=series([10.0]))
    case = SystemCase(
        regions=(region,), sites=(), units=tuple(units), clusters=(cluster,),
        storage=(), lines=(), nse_cost=2000.0, carbon_fee=0.0,
    )
    assert ("u1", "plant-pointer") in _violation_rules(case)


def test_site_profile_out_of_bounds():
    site = make_site("s1", "R1", "solar", 10.0, 40.0, [0.5, 1.2])
    cluster = make_vre_cluster("v1", "R1", [site])
    region = Region(id="R1", urban_population=0, reserve_margin=0.0, demand=series([1.0, 1.0]))
    case = SystemCase(
        regions=(region,), sites=(site,), units=(), clusters=(cluster,),
        storage=(), lines=(spur_line(site),), nse_cost=2000.0, carbon_fee=0.0,
    )
    rules = {r for _, r in _violation_rules(case)}
    assert "profile-range" in rules


def test_dangling_cluster_member():
    cluster = ResourceCluster(
        id="g1", region="R1", tech="gas", members=("ghost",),
        existing_capacity=0.0, max_new_capacity=0.0, fixed_cost=0.0,
        thermal=derive_thermal_params([make_unit("p", "R1", "g1", 1.0)]),
    )
    region = Region(id="R1", urban_population=0, reserve_margin=0.0, demand=series([1.0]))
    case = SystemCase(
        regions=(region,), sites=(), units=(), clusters=(cluster,),
        storage=(), lines=(), nse_cost=2000.0, carbon_fee=0.0,
    )
    assert ("g1", "member-exists") in _violation_rules(case)


def test_require_valid_raises_with_violations():
    r = Region(id="R1", urban_population=-3, reserve_margin=0.0, demand=series([1.0]))
    case = SystemCase(
        regions=(r,), sites=(), units=(), clusters=(), storage=(), lines=(),
        nse_cost=2000.0, carbon_fee=0.0,
    )
    with pytest.raises(CaseError) as err:
        require_valid(case)
    assert any(v.rule == "nonnegative-population" for v in err.value.violations)


# -- SystemCase --------------------------------------------------------------


def test_entities_sorted_by_id():
    rb = Region(id="B", urban_population=0, reserve_margin=0.0, demand=series([1.0]))
    ra = Region(id="A", urban_population=0, reserve_margin=0.0, demand=series([1.0]))
    case = SystemCase(
        regions=(rb, ra), sites=(), units=(), clusters=(),
        storage=(), lines=(interregional("L", "A", "B", 5.0),),
        nse_cost=2000.0, carbon_fee=0.0,
    )
    assert [r.id for r in case.regions] == ["A", "B"]


def test_default_partition_is_identity():
    case = _basic_case()
    assert case.partition == {"R1": "R1"}


def test_default_period_weights_are_ones():
    case = _basic_case()
    assert case.period_weights == (1.0,) * case.n_periods


def test_equals_detects_scalar_change():
    case = _basic_case()
    assert case == case
    assert case != case.with_updates(carbon_fee=1.0)


def test_equality_sees_a_profile_hour_a_thermal_field_and_a_partition_entry():
    units = [make_unit("u1", "R1", "g1", 50.0)]
    site = make_site("s1", "R1", "solar", 10.0, 40.0, [0.0, 0.5, 0.25])
    region = Region(id="R1", urban_population=100, reserve_margin=0.1, demand=series([10, 20, 15]))
    gas = make_thermal_cluster("g1", "R1", units)
    vre = make_vre_cluster("v1", "R1", [site])
    case = make_case([region], [gas, vre], sites=[site], units=units, lines=[spur_line(site)])
    assert case.with_updates(sites=(replace(site),), clusters=(replace(gas), replace(vre))) == case

    hour = replace(site, profile=series([0.0, 0.5, 0.375]))
    assert hour != site
    assert case.with_updates(sites=(hour,)) != case
    heat = replace(gas, thermal=replace(gas.thermal, heat_rate=gas.thermal.heat_rate + 1.0))
    assert heat != gas
    assert case.with_updates(clusters=(heat, vre)) != case
    assert case.with_updates(partition={"R1": "R2"}) != case


# -- shared numerics -----------------------------------------------------------


def test_weighted_mean_basic():
    assert weighted_mean([2.0, 6.0], [1.0, 3.0]) == 5.0


def test_weighted_mean_singleton_passes_through():
    assert weighted_mean([0.1 + 0.2], [0.0]) == 0.1 + 0.2


def test_weighted_mean_all_zero_weights_uses_plain_mean():
    assert weighted_mean([2.0, 4.0], [0.0, 0.0]) == 3.0


def test_derive_thermal_params_capacity_weighted():
    units = [
        make_unit("a", "R1", "g1", 30.0, heat_rate=6.0, fuel_cost=2.0),
        make_unit("b", "R1", "g1", 10.0, heat_rate=10.0, fuel_cost=2.0),
    ]
    params = derive_thermal_params(units)
    assert params.heat_rate == pytest.approx(7.0)
    assert params.marginal_cost(0.0) == pytest.approx(2.0 * 7.0 + 1.0)


def test_marginal_cost_includes_carbon_fee():
    params = derive_thermal_params([make_unit("a", "R1", "g1", 1.0)])
    base = params.marginal_cost(0.0)
    # fee * heat_rate * emission_factor on top of fuel and vom
    assert params.marginal_cost(200.0) == pytest.approx(base + 200.0 * 8.0 * 0.05)


def test_vre_aggregate_profile_weighting():
    s1 = make_site("s1", "R1", "solar", 30.0, 40.0, [0.9, 0.3])
    s2 = make_site("s2", "R1", "solar", 10.0, 50.0, [0.1, 0.7])
    agg = vre_aggregate_profile([s1, s2])
    assert agg.values[0] == pytest.approx((30 * 0.9 + 10 * 0.1) / 40)
    assert agg.values[1] == pytest.approx((30 * 0.3 + 10 * 0.7) / 40)


def test_vre_aggregate_profile_single_site_identity():
    s1 = make_site("s1", "R1", "solar", 5.0, 40.0, [0.2, 0.4])
    assert vre_aggregate_profile([s1]) is s1.profile


def test_site_fixed_cost_prices_delivered_energy():
    s = make_site("s1", "R1", "solar", 5.0, 40.0, [0.5, 0.5], spur_cost=7.0)
    assert site_fixed_cost(s, hours=2) == pytest.approx(40.0 * 0.5 * 2 + 7.0)
