"""Representative-period selection checked against plain reimplementations."""

import numpy as np
import pytest

from gridres.model import Region
from gridres.temporal import (
    TemporalReduction,
    apply_temporal,
    cluster_timesteps,
    period_features,
    select_extreme_periods,
    write_reduction,
    _farthest_point_init,
)

from conftest import make_case, make_site, make_vre_cluster, series, spur_line
from oracles import reference_lloyd


def _vre_case(solar_profile, wind_profile, demand):
    """4-period, 2-hour toy with one site per tech."""
    s = make_site("s1", "R1", "solar", 10.0, 40.0, series(solar_profile, 2))
    w = make_site("w1", "R1", "onshore_wind", 10.0, 50.0, series(wind_profile, 2))
    region = Region(
        id="R1", urban_population=0, reserve_margin=0.0, demand=series(demand, 2)
    )
    return make_case(
        [region],
        [make_vre_cluster("vs", "R1", [s]), make_vre_cluster("vw", "R1", [w])],
        sites=[s, w],
        lines=[spur_line(s), spur_line(w)],
    )


SOLAR = [0.5, 0.7, 0.6, 0.4, 0.0, 0.0, 0.8, 0.6]  # period 2 is dead calm for solar
WIND = [0.3, 0.3, 0.2, 0.1, 0.5, 0.4, 0.05, 0.0]  # period 3 for wind
DEMAND = [9.0, 7.0, 3.0, 4.0, 5.0, 5.0, 6.0, 6.0]  # period 0 is the system peak


def test_extremes_found_by_direct_scan():
    case = _vre_case(SOLAR, WIND, DEMAND)
    p_solar, p_wind, p_load = select_extreme_periods(case)
    assert (p_solar, p_wind, p_load) == (2, 3, 0)


def test_extremes_match_brute_force_on_synth(synth_medium):
    case = synth_medium
    plen = case.period_length
    by_tech = {"solar": [], "wind": []}
    for s in case.sites:
        key = "solar" if s.tech == "solar" else "wind"
        by_tech[key].append(s)

    def mean_cf(sites, p):
        cap = sum(s.capacity_limit for s in sites)
        acc = 0.0
        for s in sites:
            acc += s.capacity_limit * float(
                s.profile.values[p * plen : (p + 1) * plen].mean()
            )
        return acc / cap

    def energy(p):
        return sum(
            float(r.demand.values[p * plen : (p + 1) * plen].sum()) for r in case.regions
        )

    n = case.n_periods
    want_solar = min(range(n), key=lambda p: (mean_cf(by_tech["solar"], p), p))
    want_wind = min(range(n), key=lambda p: (mean_cf(by_tech["wind"], p), p))
    want_load = max(range(n), key=lambda p: (energy(p), -p))
    assert select_extreme_periods(case) == (want_solar, want_wind, want_load)


def test_constant_signals_tie_break_to_period_zero():
    case = _vre_case([0.5] * 8, [0.3] * 8, [4.0] * 8)
    assert select_extreme_periods(case) == (0, 0, 0)


def test_missing_wind_warns_and_reports_none():
    s = make_site("s1", "R1", "solar", 10.0, 40.0, series([0.5, 0.1], 2))
    region = Region(id="R1", urban_population=0, reserve_margin=0.0, demand=series([4.0, 3.0], 2))
    case = make_case(
        [region], [make_vre_cluster("vs", "R1", [s])], sites=[s], lines=[spur_line(s)]
    )
    with pytest.warns(UserWarning, match="no wind sites"):
        p_solar, p_wind, p_load = select_extreme_periods(case)
    assert p_wind is None
    assert p_solar == 0


# -- clustering --------------------------------------------------------------------


def test_keeping_every_period_is_the_identity():
    case = _vre_case(SOLAR, WIND, DEMAND)
    red = cluster_timesteps(case, k=case.n_periods)
    assert red.representatives == tuple(range(case.n_periods))
    assert red.weights == (1,) * case.n_periods
    assert not any(red.extreme_flags)


def test_single_group_picks_the_central_period_with_full_weight():
    case = _vre_case(SOLAR, WIND, DEMAND)
    red = cluster_timesteps(case, k=1)
    assert red.k == 1
    assert red.weights == (4,)
    feats = period_features(case)
    center = feats.mean(axis=0)
    want = int(np.argmin(((feats - center) ** 2).sum(axis=1)))
    assert red.representatives == (want,)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_weights_always_sum_to_the_period_count(synth_medium, k):
    red = cluster_timesteps(synth_medium, k=k)
    assert red.total_periods == synth_medium.n_periods
    assert red.representatives == tuple(sorted(red.representatives))


def test_agrees_with_reference_clustering(synth_medium):
    k, seed = 2, 0
    red = cluster_timesteps(synth_medium, k=k, seed=seed)
    feats = period_features(synth_medium)
    init = _farthest_point_init(feats, k, seed)
    labels, cents = reference_lloyd(feats, k, init)
    expected = {}
    for g in range(k):
        members = [p for p in range(feats.shape[0]) if labels[p] == g]
        if not members:
            continue
        d2 = [float(((feats[p] - cents[g]) ** 2).sum()) for p in members]
        expected[members[int(np.argmin(d2))]] = len(members)
    assert dict(zip(red.representatives, red.weights)) == expected


def test_same_seed_reproduces_the_reduction(synth_medium):
    a = cluster_timesteps(synth_medium, k=2, seed=9)
    b = cluster_timesteps(synth_medium, k=2, seed=9)
    assert a == b


def test_k_bounds_are_validated(synth_medium):
    with pytest.raises(ValueError, match="outside"):
        cluster_timesteps(synth_medium, k=0)
    with pytest.raises(ValueError, match="outside"):
        cluster_timesteps(synth_medium, k=synth_medium.n_periods + 1)


# -- forced extremes ---------------------------------------------------------------


def test_forced_extremes_become_weight_one_singletons():
    case = _vre_case(SOLAR, WIND, DEMAND)
    red = cluster_timesteps(case, k=4, force_extremes=True)
    by_rep = dict(zip(red.representatives, zip(red.weights, red.extreme_flags)))
    for p in (0, 2, 3):  # the known extreme triple
        assert by_rep[p] == (1, True)
    assert red.total_periods == 4
    assert red.representatives == (0, 1, 2, 3)
    assert by_rep[1] == (1, False)


def test_force_extremes_needs_room_for_them():
    case = _vre_case(SOLAR, WIND, DEMAND)
    with pytest.raises(ValueError, match="force_extremes needs k >= 4"):
        cluster_timesteps(case, k=3, force_extremes=True)


def test_duplicate_extremes_collapse():
    # solar and wind both die in period 2, which is also the demand peak
    solar = [0.5, 0.6, 0.4, 0.5, 0.0, 0.0, 0.7, 0.6]
    wind = [0.3, 0.2, 0.4, 0.3, 0.0, 0.0, 0.5, 0.4]
    demand = [5.0, 5.0, 4.0, 4.0, 9.0, 9.0, 3.0, 3.0]
    case = _vre_case(solar, wind, demand)
    red = cluster_timesteps(case, k=2, force_extremes=True)
    assert sum(red.extreme_flags) == 1
    assert 2 in red.representatives
    assert red.total_periods == 4


# -- applying a reduction ----------------------------------------------------------


def test_apply_keeps_representative_hours_and_weights():
    case = _vre_case(SOLAR, WIND, DEMAND)
    red = cluster_timesteps(case, k=2, seed=1)
    small = apply_temporal(case, red)
    assert small.n_periods == 2
    assert small.hours == 2 * case.period_length
    assert small.period_weights == tuple(float(w) for w in red.weights)
    p0, p1 = red.representatives
    want = np.r_[
        case.regions[0].demand.values[p0 * 2 : p0 * 2 + 2],
        case.regions[0].demand.values[p1 * 2 : p1 * 2 + 2],
    ]
    assert np.array_equal(small.regions[0].demand.values, want)
    for c in small.vre_clusters:
        assert c.aggregate_profile.values.size == small.hours
    for s in small.sites:
        assert s.profile.values.size == small.hours


def test_apply_records_extreme_inclusion():
    case = _vre_case(SOLAR, WIND, DEMAND)
    plain = apply_temporal(case, cluster_timesteps(case, k=2))
    forced = apply_temporal(case, cluster_timesteps(case, k=4, force_extremes=True))
    assert not plain.extremes_included
    assert forced.extremes_included


def test_apply_validates_the_reduction():
    case = _vre_case(SOLAR, WIND, DEMAND)
    red = cluster_timesteps(case, k=2)
    with pytest.raises(ValueError, match="period_length"):
        apply_temporal(case, TemporalReduction(red.representatives, red.weights, red.extreme_flags, 99))
    short = TemporalReduction(red.representatives, (1, 1), red.extreme_flags, 2)
    with pytest.raises(ValueError, match="cover"):
        apply_temporal(case, short)
    wild = TemporalReduction((0, 99), (3, 1), (False, False), 2)
    with pytest.raises(ValueError, match="out of range"):
        apply_temporal(case, wild)


def test_weighted_energy_stays_close(synth_medium):
    full = sum(float(r.demand.values.sum()) for r in synth_medium.regions)
    red = cluster_timesteps(synth_medium, k=2)
    small = apply_temporal(synth_medium, red)
    w = np.repeat(small.period_weights, small.period_length)
    approx = sum(float((r.demand.values * w).sum()) for r in small.regions)
    assert abs(approx - full) / full < 0.2


def test_reduction_file_has_one_row_per_representative(tmp_path):
    path = tmp_path / "reduction.csv"
    write_reduction(TemporalReduction((0, 3), (3, 1), (False, True), 2), str(path))
    assert path.read_text() == "representative,weight,is_extreme\n0,3,false\n3,1,true\n"


def test_reduction_rejects_bad_shapes():
    with pytest.raises(ValueError, match="distinct"):
        TemporalReduction((1, 1), (1, 1), (False, False), 2)
    with pytest.raises(ValueError, match=">= 1"):
        TemporalReduction((0, 1), (0, 2), (False, False), 2)
    with pytest.raises(ValueError, match="equal length"):
        TemporalReduction((0, 1), (1, 1), (False,), 2)
