"""Temporal reduction: pick representative periods and reweight them.

Periods are clustered on feature vectors built hour-by-hour from per-region
demand (normalized by that region's yearly max) concatenated with every VRE
cluster's aggregate profile. k-means is deterministic: seeded farthest-point
initialization, Lloyd iterations until centroid movement < 1e-9 or 300
rounds, all ties broken toward the lowest index. A group is represented by
its medoid (the member period closest to the centroid) and carries the
group size as weight, so every representative is a real period.

With force_extremes, three periods join as weight-1 singletons: minimum
capacity-weighted solar CF, minimum capacity-weighted wind CF, maximum
system demand. The other periods are clustered into k - 3 groups, extremes
are removed from those groups, and weights come from reassigning the
remaining periods to their nearest centroid. Groups emptied by the removal
are dropped.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .caseio import write_csv
from .model import WIND_TECHS, Series, SystemCase
from .prng import Rng

CENTROID_MOVE_TOL = 1e-9
MAX_LLOYD_ITERATIONS = 300


@dataclass(frozen=True)
class TemporalReduction:
    representatives: tuple  # period indices, ascending
    weights: tuple  # periods represented by each representative
    extreme_flags: tuple  # bool per representative
    period_length: int

    def __post_init__(self):
        if len(set(self.representatives)) != len(self.representatives):
            raise ValueError("representatives must be distinct")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be >= 1")
        if not (len(self.representatives) == len(self.weights) == len(self.extreme_flags)):
            raise ValueError("parallel fields must have equal length")

    @property
    def k(self) -> int:
        return len(self.representatives)

    @property
    def total_periods(self) -> int:
        return int(sum(self.weights))


def period_demand_totals(case: SystemCase) -> np.ndarray:
    """System-wide demand energy per period."""
    total = np.zeros(case.hours)
    for r in case.regions:
        total += r.demand.values
    return total.reshape(case.n_periods, case.period_length).sum(axis=1)


def _capacity_weighted_cf(case: SystemCase, techs) -> np.ndarray | None:
    """Per-period mean of the capacity-weighted hourly CF over given techs."""
    sites = [s for s in case.sites if s.tech in techs]
    if not sites:
        return None
    cap = np.array([s.capacity_limit for s in sites])
    profiles = np.stack([s.profile.values for s in sites])
    hourly = cap @ profiles / cap.sum()
    return hourly.reshape(case.n_periods, case.period_length).mean(axis=1)


def select_extreme_periods(case: SystemCase):
    """(min-solar, min-wind, max-load) period indices; None where the case
    has no site of the needed kind (reported as a warning)."""
    solar = _capacity_weighted_cf(case, ("solar",))
    wind = _capacity_weighted_cf(case, WIND_TECHS)
    p_solar = p_wind = None
    if solar is None:
        warnings.warn("no solar sites: min-solar extreme omitted")
    else:
        p_solar = int(np.argmin(solar))  # argmin takes the lowest index on ties
    if wind is None:
        warnings.warn("no wind sites: min-wind extreme omitted")
    else:
        p_wind = int(np.argmin(wind))
    p_load = int(np.argmax(period_demand_totals(case)))
    return p_solar, p_wind, p_load


def period_features(case: SystemCase) -> np.ndarray:
    """Feature matrix, one row per period."""
    rows = []
    for r in case.regions:
        peak = float(r.demand.values.max())
        rows.append(r.demand.values / peak if peak > 0 else np.zeros(case.hours))
    for c in case.vre_clusters:
        rows.append(c.aggregate_profile.values)
    stacked = np.stack(rows)  # (n_signals, hours)
    n_p, plen = case.n_periods, case.period_length
    # period p -> concatenation over signals of that period's hours
    return np.stack(
        [stacked[:, p * plen : (p + 1) * plen].reshape(-1) for p in range(n_p)]
    )


def _farthest_point_init(feats: np.ndarray, k: int, seed: int) -> list:
    n = feats.shape[0]
    first = Rng(seed).derive("kmeans-init").below(n)
    chosen = [first]
    d2 = np.sum((feats - feats[first]) ** 2, axis=1)
    while len(chosen) < k:
        nxt = int(np.argmax(d2))  # ties resolve to the lowest index
        chosen.append(nxt)
        d2 = np.minimum(d2, np.sum((feats - feats[nxt]) ** 2, axis=1))
    return chosen


def _lloyd(feats: np.ndarray, k: int, seed: int):
    """Returns (assignment array, centroid matrix)."""
    centroids = feats[_farthest_point_init(feats, k, seed)].copy()
    assign = np.zeros(feats.shape[0], dtype=int)
    for _ in range(MAX_LLOYD_ITERATIONS):
        d2 = ((feats[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)  # lowest centroid index on ties
        moved = 0.0
        for j in range(k):
            members = feats[assign == j]
            if len(members) == 0:
                continue  # keep the previous centroid
            new = members.mean(axis=0)
            moved = max(moved, float(np.linalg.norm(new - centroids[j])))
            centroids[j] = new
        if moved < CENTROID_MOVE_TOL:
            break
    return assign, centroids


def _medoid(feats: np.ndarray, candidates: list, centroid: np.ndarray) -> int:
    d2 = [float(((feats[p] - centroid) ** 2).sum()) for p in candidates]
    return candidates[int(np.argmin(d2))]  # lowest period index on ties


def cluster_timesteps(
    case: SystemCase, k: int, force_extremes: bool = False, seed: int = 0
) -> TemporalReduction:
    n = case.n_periods
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")

    extremes: list = []
    if force_extremes:
        found = [p for p in select_extreme_periods(case) if p is not None]
        extremes = sorted(set(found))
        if k < len(extremes) + 1:
            raise ValueError(f"force_extremes needs k >= {len(extremes) + 1}")

    feats = period_features(case)
    n_groups = k - len(extremes)
    assign, centroids = _lloyd(feats, n_groups, seed)

    # each surviving period's group: its Lloyd assignment, or with extremes
    # taken out, its nearest final centroid
    survivors = [p for p in range(n) if p not in extremes]
    labels = assign
    if extremes:
        d2 = ((feats[survivors][:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
    reps: list = []
    weights: list = []
    for j in range(n_groups):
        members = [p for p, label in zip(survivors, labels) if label == j]
        if members:
            reps.append(_medoid(feats, members, centroids[j]))
            weights.append(len(members))
    flags = [False] * len(reps) + [True] * len(extremes)
    reps += extremes
    weights += [1] * len(extremes)

    order = np.argsort(reps)
    return TemporalReduction(
        representatives=tuple(int(reps[i]) for i in order),
        weights=tuple(int(weights[i]) for i in order),
        extreme_flags=tuple(bool(flags[i]) for i in order),
        period_length=case.period_length,
    )


def apply_temporal(case: SystemCase, red: TemporalReduction) -> SystemCase:
    if red.period_length != case.period_length:
        raise ValueError("reduction period_length does not match the case")
    if red.total_periods != case.n_periods:
        raise ValueError("reduction weights do not cover the case's periods")
    plen = case.period_length
    for p in red.representatives:
        if not 0 <= p < case.n_periods:
            raise ValueError(f"representative {p} out of range")

    keep = np.concatenate(
        [np.arange(p * plen, (p + 1) * plen) for p in red.representatives]
    )

    def cut(series: Series) -> Series:
        return Series(series.values[keep], plen)

    regions = tuple(replace(r, demand=cut(r.demand)) for r in case.regions)
    sites = tuple(replace(s, profile=cut(s.profile)) for s in case.sites)
    clusters = tuple(
        c if c.aggregate_profile is None else replace(c, aggregate_profile=cut(c.aggregate_profile))
        for c in case.clusters
    )
    return case.with_updates(
        regions=regions,
        sites=sites,
        clusters=clusters,
        period_weights=tuple(float(w) for w in red.weights),
        extremes_included=any(red.extreme_flags),
    )


def write_reduction(red: TemporalReduction, path: str) -> None:
    write_csv(
        path,
        ("representative", "weight", "is_extreme"),
        ((rep, wt, bool(ex)) for rep, wt, ex in zip(red.representatives, red.weights, red.extreme_flags)),
    )
