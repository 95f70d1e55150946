"""Partition semantics: what survives, what merges, what gets re-pointed."""

import numpy as np
import pytest

from gridres.model import CaseError, Region, TransmissionLine
from gridres.spatial import RegionPartition, aggregate_spatial, urban_sinks

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


def region(rid, demand, pop=0, margin=0.0):
    return Region(
        id=rid, urban_population=pop, reserve_margin=margin, demand=series(demand)
    )


# -- RegionPartition --------------------------------------------------------------


def test_partition_from_mapping_sorts_names():
    p = RegionPartition.from_mapping({"a": "west", "b": "east", "c": "west"})
    assert p.coarse_names == ("east", "west")
    assert p.members("west") == ["a", "c"]


def test_partition_rejects_undeclared_target():
    with pytest.raises(ValueError, match="undeclared"):
        RegionPartition({"a": "west"}, coarse_names=("east",))


def test_partition_rejects_empty_coarse_region():
    with pytest.raises(ValueError, match="empty"):
        RegionPartition({"a": "west"}, coarse_names=("east", "west"))


def test_aggregate_requires_total_partition(synth_medium):
    part = RegionPartition.from_mapping({"R01": "W", "R02": "W"})  # R03 unmapped
    with pytest.raises(CaseError) as err:
        aggregate_spatial(synth_medium, part)
    assert any(v.rule == "partition-total" for v in err.value.violations)


def test_aggregate_rejects_unknown_fine_ids(synth_medium):
    part = RegionPartition.from_mapping(
        {"R01": "W", "R02": "W", "R03": "W", "R99": "W"}
    )
    with pytest.raises(CaseError) as err:
        aggregate_spatial(synth_medium, part)
    assert any(v.rule == "partition-domain" for v in err.value.violations)


# -- identity ---------------------------------------------------------------------


def test_identity_partition_reproduces_the_case(synth_small):
    out = aggregate_spatial(synth_small, RegionPartition.identity(synth_small))
    assert out == synth_small


def test_identity_partition_reuses_region_objects(synth_small):
    out = aggregate_spatial(synth_small, RegionPartition.identity(synth_small))
    assert all(a is b for a, b in zip(out.regions, synth_small.regions))
    assert out.units == synth_small.units


# -- region merge -----------------------------------------------------------------


def _two_region_thermal_case():
    u1 = make_unit("u1", "A", "gA", 30.0, heat_rate=6.0)
    u2 = make_unit("u2", "B", "gB", 10.0, heat_rate=10.0)
    ga = make_thermal_cluster("gA", "A", [u1], max_new=5.0, fixed_cost=90.0)
    gb = make_thermal_cluster("gB", "B", [u2], max_new=7.0, fixed_cost=130.0)
    return make_case(
        [region("A", [10.0, 20.0], pop=300, margin=0.1), region("B", [5.0, 5.0], pop=80, margin=0.2)],
        [ga, gb],
        units=[u1, u2],
        lines=[interregional("AB", "A", "B", 4.0)],
    )


MERGE_ALL = RegionPartition.from_mapping({"A": "W", "B": "W"})


def test_merged_demand_adds_per_hour():
    out = aggregate_spatial(_two_region_thermal_case(), MERGE_ALL)
    (r,) = out.regions
    assert r.id == "W"
    assert r.urban_population == 380
    assert np.array_equal(r.demand.values, [15.0, 25.0])


def test_merged_reserve_margin_is_demand_weighted():
    out = aggregate_spatial(_two_region_thermal_case(), MERGE_ALL)
    # energies 30 and 10: (0.1 * 30 + 0.2 * 10) / 40
    assert out.regions[0].reserve_margin == pytest.approx(0.125)


def test_thermal_clusters_merge_per_tech():
    out = aggregate_spatial(_two_region_thermal_case(), MERGE_ALL)
    (c,) = out.thermal_clusters
    assert c.id == "W_gas"
    assert c.members == ("u1", "u2")
    assert c.existing_capacity == 40.0
    assert c.max_new_capacity == 12.0
    assert c.fixed_cost == pytest.approx((90 * 30 + 130 * 10) / 40)
    assert c.thermal.heat_rate == pytest.approx(7.0)  # capacity-weighted


def test_merged_units_point_at_the_merged_cluster():
    out = aggregate_spatial(_two_region_thermal_case(), MERGE_ALL)
    assert all(u.plant == "W_gas" for u in out.units)
    # the unit records themselves are otherwise untouched
    assert [u.capacity for u in out.units] == [30.0, 10.0]


def test_internal_line_becomes_backbone():
    out = aggregate_spatial(_two_region_thermal_case(), MERGE_ALL)
    (line,) = out.lines
    assert line.kind == "backbone"
    assert line.endpoints == ("W",)
    assert line.fine_endpoints == ("A", "B")
    assert line.capacity == 4.0
    assert out.interregional_lines == ()


def test_composed_partition_tracks_original_fine_ids():
    case = _two_region_thermal_case()
    out = aggregate_spatial(case, MERGE_ALL)
    assert out.partition == {"A": "W", "B": "W"}
    assert out.fine_regions == ("A", "B")


# -- parallel lines across a cut ---------------------------------------------------


def test_parallel_cross_lines_merge_by_capacity_sum():
    u1 = make_unit("u1", "A", "gA", 30.0)
    case = make_case(
        [region("A", [1.0]), region("B", [1.0]), region("C", [1.0])],
        [make_thermal_cluster("gA", "A", [u1])],
        units=[u1],
        lines=[
            interregional("AC", "A", "C", 5.0, expansion_cost=2.0, max_expansion=1.0),
            interregional("BC", "B", "C", 7.0, expansion_cost=4.0, max_expansion=2.0),
            interregional("AB", "A", "B", 3.0),
        ],
    )
    part = RegionPartition.from_mapping({"A": "W", "B": "W", "C": "E"})
    out = aggregate_spatial(case, part)
    (cross,) = out.interregional_lines
    assert cross.id == "E--W"
    assert set(cross.endpoints) == {"E", "W"}
    assert cross.capacity == 12.0
    assert cross.expansion_cost == pytest.approx((2 * 5 + 4 * 7) / 12)
    assert cross.max_expansion == 3.0
    backbone = [l for l in out.lines if l.kind == "backbone"]
    assert [l.id for l in backbone] == ["AB"]
    # total line capacity is conserved across the rewrite
    assert sum(l.capacity for l in out.lines) == sum(l.capacity for l in case.lines)


def test_single_cross_line_survives_unchanged():
    case = _two_region_thermal_case()
    part = RegionPartition.from_mapping({"A": "A", "B": "B"})
    out = aggregate_spatial(case, part)
    assert out.line_by_id["AB"] is case.line_by_id["AB"]


def test_existing_backbone_lines_follow_their_region():
    u1 = make_unit("u1", "A", "gA", 30.0)
    bb = TransmissionLine(
        id="bb1", kind="backbone", endpoints=("A",), fine_endpoints=("A", "A"),
        capacity=2.0, expansion_cost=0.0, max_expansion=0.0,
    )
    case = make_case(
        [region("A", [1.0]), region("B", [1.0])],
        [make_thermal_cluster("gA", "A", [u1])],
        units=[u1],
        lines=[bb],
    )
    out = aggregate_spatial(case, MERGE_ALL)
    (line,) = out.lines
    assert line.kind == "backbone"
    assert line.endpoints == ("W",)
    assert line.capacity == 2.0


# -- spur re-targeting -------------------------------------------------------------


def test_urban_sinks_threshold_and_top_member():
    case = make_case(
        [
            region("m1", [1.0], pop=2_000_000),
            region("m2", [1.0], pop=500_000),
            region("m3", [1.0], pop=1_500_000),
        ],
        [make_thermal_cluster("g1", "m1", [u := make_unit("u1", "m1", "g1", 5.0)])],
        units=[u],
    )
    assert urban_sinks(case, ["m1", "m2", "m3"]) == ["m1", "m3"]
    assert urban_sinks(case, ["m2"]) == ["m2"]  # top member always qualifies


def test_urban_sink_population_tie_breaks_to_lowest_id():
    case = make_case(
        [region("x1", [1.0], pop=5), region("x2", [1.0], pop=5)],
        [make_thermal_cluster("g1", "x1", [u := make_unit("u1", "x1", "g1", 5.0)])],
        units=[u],
    )
    assert urban_sinks(case, ["x1", "x2"]) == ["x1"]


def _spur_case(with_link: bool):
    site = make_site("s1", "m2", "solar", 8.0, 40.0, [1.0, 0.5])
    lines = [spur_line(site)]
    if with_link:
        lines.append(interregional("link", "m1", "m2", 3.0))
    return make_case(
        [region("m1", [4.0, 4.0], pop=2_000_000), region("m2", [1.0, 1.0], pop=500_000)],
        [make_vre_cluster("v1", "m2", [site])],
        sites=[site],
        lines=lines,
    )


def test_spur_re_targets_to_urban_sink():
    out = aggregate_spatial(
        _spur_case(with_link=True), RegionPartition.from_mapping({"m1": "W", "m2": "W"})
    )
    spur = out.line_by_id["spur_s1"]
    assert spur.kind == "spur"
    assert spur.endpoints == ("W",)
    assert spur.fine_endpoints == ("m2", "m1")  # origin stays at the site
    assert spur.capacity == 8.0


def test_unreachable_sink_keeps_original_target():
    out = aggregate_spatial(_spur_case(with_link=False), RegionPartition.from_mapping({"m1": "W", "m2": "W"}))
    spur = out.line_by_id["spur_s1"]
    assert spur.endpoints == ("W",)
    assert spur.fine_endpoints == ("m2", "m2")


def test_spur_hop_tie_breaks_to_lowest_region_id():
    site = make_site("s1", "hub", "solar", 8.0, 40.0, [1.0, 0.5])
    case = make_case(
        [
            region("hub", [1.0, 1.0], pop=100),
            region("mA", [4.0, 4.0], pop=2_000_000),
            region("mB", [4.0, 4.0], pop=3_000_000),
        ],
        [make_vre_cluster("v1", "hub", [site])],
        sites=[site],
        lines=[
            spur_line(site),
            interregional("ha", "hub", "mA", 3.0),
            interregional("hb", "hub", "mB", 3.0),
        ],
    )
    part = RegionPartition.from_mapping({"hub": "W", "mA": "W", "mB": "W"})
    out = aggregate_spatial(case, part)
    assert out.line_by_id["spur_s1"].fine_endpoints == ("hub", "mA")


# -- VRE and storage pooling -------------------------------------------------------


def test_vre_sites_are_rebinned_with_conserved_capacity(synth_medium):
    part = RegionPartition.from_mapping({"R01": "W", "R02": "W", "R03": "E"})
    out = aggregate_spatial(synth_medium, part)
    assert out.sites == synth_medium.sites
    for tech in ("solar", "onshore_wind"):
        fine_cap = sum(
            c.max_new_capacity for c in synth_medium.vre_clusters if c.tech == tech
        )
        coarse_cap = sum(c.max_new_capacity for c in out.vre_clusters if c.tech == tech)
        assert coarse_cap == pytest.approx(fine_cap, abs=1e-9)
        fine_exist = sum(
            c.existing_capacity for c in synth_medium.vre_clusters if c.tech == tech
        )
        coarse_exist = sum(c.existing_capacity for c in out.vre_clusters if c.tech == tech)
        assert coarse_exist == pytest.approx(fine_exist, abs=1e-9)
    assert all(c.region in ("W", "E") for c in out.vre_clusters)
    # every site lands in exactly one coarse cluster
    members = [m for c in out.vre_clusters for m in c.members]
    assert sorted(members) == sorted(s.id for s in synth_medium.sites)


def test_storage_pools_per_coarse_region(synth_medium):
    part = RegionPartition.from_mapping({"R01": "W", "R02": "W", "R03": "E"})
    out = aggregate_spatial(synth_medium, part)
    assert sum(s.existing_power for s in out.storage) == pytest.approx(
        sum(s.existing_power for s in synth_medium.storage)
    )
    assert sum(s.existing_energy for s in out.storage) == pytest.approx(
        sum(s.existing_energy for s in synth_medium.storage)
    )
    west = [s for s in out.storage if s.region == "W"]
    if len([s for s in synth_medium.storage if s.region in ("R01", "R02")]) > 1:
        assert west[0].id == "W_storage"


def test_unit_capacity_conserved_under_any_partition(synth_medium):
    part = RegionPartition.from_mapping({"R01": "all", "R02": "all", "R03": "all"})
    out = aggregate_spatial(synth_medium, part)
    assert sum(c.existing_capacity for c in out.thermal_clusters) == pytest.approx(
        sum(c.existing_capacity for c in synth_medium.thermal_clusters)
    )
    assert sum(u.capacity for u in out.units) == sum(u.capacity for u in synth_medium.units)


def test_aggregated_case_passes_validation_and_solves(synth_small):
    from gridres.benders import solve_benders

    part = RegionPartition.from_mapping({"R01": "all", "R02": "all"})
    out = aggregate_spatial(synth_small, part)
    r = solve_benders(out, gap_tol=1e-3, max_iter=60)
    assert r.converged
