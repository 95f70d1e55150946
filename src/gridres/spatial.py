"""Spatial aggregation: collapse a fine SystemCase onto a region partition.

Rules, in load order:

* coarse demand = per-hour sum of member demands; reserve margin =
  demand-weighted mean; urban population = sum.
* VRE sites are re-binned per coarse region with the shared LCOE x CF
  binning; existing capacity per tech is pooled and re-spread by the
  binning rule.
* thermal clusters merge per (coarse region, tech); storage merges per
  coarse region. Merged cost parameters are capacity-weighted means.
* interregional lines with both endpoints in one part become backbone
  lines of that part (capacity kept); parallel survivors between the same
  coarse pair merge by capacity sum.
* spur targets are recomputed: each site connects to the cheapest urban
  sink of its coarse region, cheapest meaning fewest hops over the fine
  interregional adjacency restricted to the part, ties by region id.
  Sinks are members with urban population above 1,000,000 plus the most
  populous member. An unreachable sink set leaves the original target.

Groups of one reuse the original objects, so aggregating by the identity
partition reproduces the input case exactly (given its clusters came from
the same binning rule).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .binning import bin_vre_sites
from .model import (
    URBAN_SINK_POPULATION,
    CaseError,
    Region,
    ResourceCluster,
    Series,
    StorageCluster,
    SystemCase,
    TransmissionLine,
    Violation,
    derive_thermal_params,
    require_valid,
    weighted_mean,
)


@dataclass(frozen=True)
class RegionPartition:
    """Total map from fine region ids onto coarse region names."""

    mapping: dict
    coarse_names: tuple

    def __post_init__(self):
        image = set(self.mapping.values())
        missing = image.difference(self.coarse_names)
        if missing:
            raise ValueError(f"partition maps to undeclared regions: {sorted(missing)}")
        empty = [c for c in self.coarse_names if c not in image]
        if empty:
            raise ValueError(f"empty coarse regions: {sorted(empty)}")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "RegionPartition":
        return cls(dict(mapping), tuple(sorted(set(mapping.values()))))

    @classmethod
    def identity(cls, case: SystemCase) -> "RegionPartition":
        return cls.from_mapping({r.id: r.id for r in case.regions})

    def members(self, coarse: str) -> list:
        return sorted(f for f, c in self.mapping.items() if c == coarse)


def _check_total(fine: SystemCase, partition: RegionPartition) -> None:
    fine_ids = {r.id for r in fine.regions}
    missing = fine_ids.difference(partition.mapping)
    if missing:
        vs = [Violation(f, "partition-total", "fine region not mapped") for f in sorted(missing)]
        raise CaseError(f"partition does not cover {sorted(missing)}", vs)
    extra = set(partition.mapping).difference(fine_ids)
    if extra:
        vs = [Violation(f, "partition-domain", "mapped id is not a fine region") for f in sorted(extra)]
        raise CaseError(f"partition maps unknown regions {sorted(extra)}", vs)


def fine_adjacency(fine: SystemCase) -> dict:
    """Fine region -> neighbouring fine regions over interregional lines."""
    adj: dict = {r: set() for r in fine.fine_regions}
    for l in fine.interregional_lines:
        a, b = l.fine_endpoints
        adj[a].add(b)
        adj[b].add(a)
    return adj


def bfs_parents(origin: str, allowed: set, adj: dict) -> dict:
    """Breadth-first search from origin over adj restricted to allowed, in
    sorted neighbour order: each reached region -> the region it was reached
    from (origin -> None), in discovery order."""
    parent = {origin: None}
    q = deque([origin])
    while q:
        u = q.popleft()
        for v in sorted(adj[u]):
            if v in allowed and v not in parent:
                parent[v] = u
                q.append(v)
    return parent


def urban_sinks(fine: SystemCase, members: list) -> list:
    """Member regions that qualify as spur targets."""
    pops = {m: fine.region_by_id[m].urban_population for m in members}
    sinks = {m for m, p in pops.items() if p > URBAN_SINK_POPULATION}
    best = max(pops.values())
    # most populous member always qualifies; population ties break to the lowest id
    sinks.add(min(m for m in members if pops[m] == best))
    return sorted(sinks)


def _respur(fine: SystemCase, partition: RegionPartition) -> dict:
    """site id -> (coarse region, sink fine region) for every sited spur."""
    adj = fine_adjacency(fine)
    out = {}
    for coarse in partition.coarse_names:
        members = partition.members(coarse)
        allowed = set(members)
        sinks = urban_sinks(fine, members)
        for site in fine.sites:
            if site.fine_region not in allowed:
                continue
            dist: dict = {}  # hops from the site's region
            for v, u in bfs_parents(site.fine_region, allowed, adj).items():
                dist[v] = 0 if u is None else dist[u] + 1  # u was reached before v
            reachable = [(dist[s], s) for s in sinks if s in dist]
            if reachable:
                _, sink = min(reachable)
            else:
                line = fine.line_by_id[f"spur_{site.id}"]
                sink = line.fine_endpoints[1]  # keep the original target
            out[site.id] = (coarse, sink)
    return out


def aggregate_spatial(fine: SystemCase, partition: RegionPartition) -> SystemCase:
    _check_total(fine, partition)
    pmap = partition.mapping

    groups = {c: partition.members(c) for c in partition.coarse_names}
    identity_like = {c: ms for c, ms in groups.items() if len(ms) == 1 and ms[0] == c}

    # regions
    regions = []
    for coarse, members in sorted(groups.items()):
        if coarse in identity_like:
            regions.append(fine.region_by_id[coarse])
            continue
        fr = [fine.region_by_id[m] for m in members]
        demand = np.sum([r.demand.values for r in fr], axis=0)
        energies = [float(r.demand.values.sum()) for r in fr]
        regions.append(
            Region(
                id=coarse,
                urban_population=sum(r.urban_population for r in fr),
                reserve_margin=weighted_mean([r.reserve_margin for r in fr], energies),
                demand=Series(demand, fine.period_length),
            )
        )

    # thermal clusters merged per (coarse region, tech)
    clusters = []
    unit_owner: dict = {}  # unit id -> merged cluster id, for units that change plant
    for coarse, members in sorted(groups.items()):
        member_set = set(members)
        by_tech: dict = {}
        for c in fine.thermal_clusters:
            if c.region in member_set:
                by_tech.setdefault(c.tech, []).append(c)
        for tech, parts in sorted(by_tech.items()):
            if len(parts) == 1 and coarse in identity_like:
                clusters.append(parts[0])
                continue
            units = [fine.unit_by_id[u] for c in parts for u in c.members]
            units.sort(key=lambda u: u.id)
            merged_id = f"{coarse}_{tech}"
            # the plant column is the ownership pointer in the file format
            unit_owner.update({u.id: merged_id for u in units})
            weights = [c.existing_capacity for c in parts]
            clusters.append(
                ResourceCluster(
                    id=merged_id,
                    region=coarse,
                    tech=tech,
                    members=tuple(u.id for u in units),
                    existing_capacity=float(sum(weights)),
                    max_new_capacity=float(sum(c.max_new_capacity for c in parts)),
                    fixed_cost=weighted_mean([c.fixed_cost for c in parts], weights),
                    fom_cost=weighted_mean([c.fom_cost for c in parts], weights),
                    thermal=derive_thermal_params(units),
                )
            )

    # VRE clusters re-binned per coarse region
    hours = fine.hours
    for coarse, members in sorted(groups.items()):
        member_set = set(members)
        region_sites = [s for s in fine.sites if s.fine_region in member_set]
        if not region_sites:
            continue
        existing: dict = {}
        for c in fine.vre_clusters:
            if c.region in member_set:
                existing[c.tech] = existing.get(c.tech, 0.0) + c.existing_capacity
        clusters.extend(
            bin_vre_sites(coarse, region_sites, hours, existing_by_tech=existing)
        )

    # storage merged per coarse region
    storage = []
    for coarse, members in sorted(groups.items()):
        member_set = set(members)
        parts = [s for s in fine.storage if s.region in member_set]
        if not parts:
            continue
        if len(parts) == 1 and coarse in identity_like:
            storage.append(parts[0])
            continue
        pw = [s.existing_power for s in parts]
        ew = [s.existing_energy for s in parts]
        storage.append(
            StorageCluster(
                id=f"{coarse}_storage",
                region=coarse,
                power_cost=weighted_mean([s.power_cost for s in parts], pw),
                energy_cost=weighted_mean([s.energy_cost for s in parts], ew),
                efficiency_rt=weighted_mean([s.efficiency_rt for s in parts], pw),
                existing_power=float(sum(pw)),
                existing_energy=float(sum(ew)),
            )
        )

    # transmission
    lines = []
    cross: dict = {}
    for l in fine.lines:
        if l.kind == "interregional":
            ca, cb = pmap[l.endpoints[0]], pmap[l.endpoints[1]]
            if ca == cb:
                lines.append(replace(l, kind="backbone", endpoints=(ca,)))
            else:
                key = (min(ca, cb), max(ca, cb))
                cross.setdefault(key, []).append(l)
        elif l.kind == "backbone":
            coarse = pmap[l.endpoints[0]]
            if coarse == l.endpoints[0]:
                lines.append(l)
            else:
                lines.append(replace(l, endpoints=(coarse,)))
    for (ca, cb), parts in sorted(cross.items()):
        parts.sort(key=lambda l: l.id)
        if len(parts) == 1 and set(parts[0].endpoints) == {ca, cb}:
            lines.append(parts[0])  # survives unchanged (identity-style partition)
            continue
        caps = [l.capacity for l in parts]
        lines.append(
            TransmissionLine(
                id=parts[0].id if len(parts) == 1 else f"{ca}--{cb}",
                kind="interregional",
                endpoints=(ca, cb),
                fine_endpoints=parts[0].fine_endpoints,
                capacity=float(sum(caps)),
                expansion_cost=weighted_mean([l.expansion_cost for l in parts], caps),
                max_expansion=float(sum(l.max_expansion for l in parts)),
            )
        )

    spur_targets = _respur(fine, partition)
    for site in fine.sites:
        old = fine.line_by_id[f"spur_{site.id}"]
        coarse, sink = spur_targets[site.id]
        if old.endpoints == (coarse,) and old.fine_endpoints == (site.fine_region, sink):
            lines.append(old)
        else:
            lines.append(replace(old, endpoints=(coarse,), fine_endpoints=(site.fine_region, sink)))

    composed = {orig: pmap[mid] for orig, mid in fine.partition.items()}
    units_out = tuple(
        replace(u, plant=unit_owner[u.id])
        if unit_owner.get(u.id, u.plant) != u.plant
        else u
        for u in fine.units
    )
    coarse_case = SystemCase(
        regions=tuple(regions),
        sites=fine.sites,
        units=units_out,
        clusters=tuple(clusters),
        storage=tuple(storage),
        lines=tuple(lines),
        nse_cost=fine.nse_cost,
        carbon_fee=fine.carbon_fee,
        period_weights=fine.period_weights,
        partition=composed,
        uc_mode=fine.uc_mode,
        extremes_included=fine.extremes_included,
    )
    require_valid(coarse_case)
    return coarse_case
