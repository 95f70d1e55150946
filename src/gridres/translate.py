"""Translate a coarse expansion solution onto the fine reference case.

Allocation rules:

* VRE cluster investment fills member sites in ascending cost order
  (fixed-bottom offshore ahead of floating, then LCOE, then site id),
  every site full except at most the last.
* Thermal cluster investment splits across the cluster's fine regions in
  proportion to their annual demand energy; the product is taken before
  the division so hand ratios come out exact, and the final region in id
  order absorbs the float residual. Within a region the lowest-id fine
  cluster of the same tech receives the capacity; a region with no such
  cluster gets a template cluster carrying the coarse cluster's
  parameters.
* Retirements strip member units in descending heat rate (ties by id),
  the last unit partially.
* Storage splits like thermal but weighted by fine-region VRE capacity
  (existing plus newly allocated), falling back to demand weights when
  there is no VRE, then to uniform weights.
* Transmission: fine interregional capacity = population-weighted split
  of each coarse line's operating capacity, plus invested spur capacity
  along boundary-crossing spur paths, plus beta times every reclassified
  backbone that crosses a fine boundary.

Every split conserves MW exactly: the last entity in deterministic order
receives investment minus the sum of the earlier shares.
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass, field, replace

from .caseio import write_csv
from .expansion import ExpansionSolution, InvestmentVector, investment_entries
from .model import ResourceCluster, StorageCluster, SystemCase
from .spatial import fine_adjacency


@dataclass
class SiteAllocation:
    site_investment: dict = field(default_factory=dict)  # site id -> MW
    unit_retirement: dict = field(default_factory=dict)  # unit id -> MW
    line_capacity: dict = field(default_factory=dict)  # fine line id -> MW
    # coarse entity -> ((entity_kind, fine entity, MW), ...)
    provenance: dict = field(default_factory=dict)
    thermal_new: dict = field(default_factory=dict)  # fine cluster -> MW
    storage_power: dict = field(default_factory=dict)  # fine storage -> MW
    storage_energy: dict = field(default_factory=dict)  # fine storage -> MWh


@dataclass
class Portfolio:
    """Fine-resolution capacities implied by a coarse solution."""

    case: SystemCase  # fine case, extended with template clusters if needed
    vre_new: dict = field(default_factory=dict)  # fine cluster -> MW
    thermal_new: dict = field(default_factory=dict)
    thermal_retired: dict = field(default_factory=dict)
    storage_new_power: dict = field(default_factory=dict)
    storage_new_energy: dict = field(default_factory=dict)
    line_capacity: dict = field(default_factory=dict)  # fine interregional line -> MW

    def investment_fixing(self, case: SystemCase) -> dict:
        # operating line capacity rides on the flow bounds, so expansion stays 0
        return {
            name: 0.0 if kind == "line_expansion" else getattr(self, kind).get(eid, 0.0)
            for name, kind, eid, *_ in investment_entries(case)
        }

    def total_vre_capacity(self, cluster_id: str) -> float:
        c = self.case.cluster_by_id[cluster_id]
        return c.existing_capacity + self.vre_new.get(cluster_id, 0.0)

    def total_thermal_capacity(self, cluster_id: str) -> float:
        c = self.case.cluster_by_id[cluster_id]
        return (
            c.existing_capacity
            - self.thermal_retired.get(cluster_id, 0.0)
            + self.thermal_new.get(cluster_id, 0.0)
        )


def vre_fill_order(sites) -> list:
    return sorted(
        sites, key=lambda s: (0 if s.tech == "offshore_fixed" else 1, s.lcoe, s.id)
    )


def allocate_vre(cluster_investment: float, sites) -> list:
    total = sum(s.capacity_limit for s in sites)
    if cluster_investment > total + 1e-9 * max(1.0, total):
        raise ValueError(
            f"investment {cluster_investment} exceeds site capacity {total}"
        )
    out = []
    remaining = cluster_investment
    for s in vre_fill_order(sites):
        if remaining <= 0.0:
            break
        take = min(s.capacity_limit, remaining)
        out.append((s, take))
        remaining -= take
    if out and remaining > 0.0:  # float shortfall lands on the last site
        s, take = out[-1]
        out[-1] = (s, take + remaining)
    return out


def _proportional(amount: float, weights: dict) -> dict:
    """Split amount by weights, exact via residual on the last key (id order)."""
    keys = sorted(weights)
    total = sum(weights[k] for k in keys)
    out = {}
    for k in keys[:-1]:
        out[k] = weights[k] * amount / total
    out[keys[-1]] = amount - sum(out.values())
    return out


def allocate_thermal(cluster_investment: float, subregion_demand: dict) -> dict:
    if not subregion_demand or all(v == 0.0 for v in subregion_demand.values()):
        raise ValueError("thermal allocation needs nonzero subregion demand")
    if any(v < 0 for v in subregion_demand.values()):
        raise ValueError("negative demand weight")
    return _proportional(cluster_investment, subregion_demand)


def allocate_storage(
    power: float,
    energy: float,
    subregion_vre_capacity: dict,
    demand_fallback: dict | None = None,
) -> tuple:
    regions = sorted(subregion_vre_capacity)
    weights = dict(subregion_vre_capacity)
    if all(v == 0.0 for v in weights.values()):
        if demand_fallback and any(v > 0 for v in demand_fallback.values()):
            weights = {r: demand_fallback.get(r, 0.0) for r in regions}
        else:
            weights = {r: 1.0 for r in regions}
    return _proportional(power, weights), _proportional(energy, weights)


def retire_units(retired_mw: float, units) -> list:
    total = sum(u.capacity for u in units)
    if retired_mw > total + 1e-9 * max(1.0, total):
        raise ValueError(f"retirement {retired_mw} exceeds unit capacity {total}")
    out = []
    remaining = retired_mw
    for u in sorted(units, key=lambda u: (-u.heat_rate, u.id)):
        if remaining <= 0.0:
            break
        take = min(u.capacity, remaining)
        out.append((u, take))
        remaining -= take
    if out and remaining > 0.0:
        u, take = out[-1]
        out[-1] = (u, take + remaining)
    return out


# -- transmission redistricting ------------------------------------------------


def _shortest_path(origin: str, target: str, allowed: set, adj: dict) -> list | None:
    """BFS path as a region list; deterministic via sorted neighbor order."""
    if origin == target:
        return [origin]
    prev = {origin: None}
    q = deque([origin])
    while q:
        u = q.popleft()
        for v in sorted(adj[u]):
            if v not in allowed or v in prev:
                continue
            prev[v] = u
            if v == target:
                path = [v]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                return path[::-1]
            q.append(v)
    return None


def _fine_line_between(fine: SystemCase, a: str, b: str):
    """Lowest-id fine interregional line joining fine regions a and b."""
    found = [
        l
        for l in fine.interregional_lines
        if set(l.fine_endpoints) == {a, b}
    ]
    return min(found, key=lambda l: l.id) if found else None


def redistrict_transmission(
    coarse_sol: ExpansionSolution | InvestmentVector,
    coarse: SystemCase,
    fine: SystemCase,
    allocation: SiteAllocation,
    beta: float = 1.0,
) -> dict:
    caps = {l.id: 0.0 for l in fine.interregional_lines}
    adj = fine_adjacency(fine)
    members = {c: [] for c in set(coarse.partition.values())}
    for f, c in coarse.partition.items():
        members[c].append(f)

    # (b) coarse interregional operating capacity, split by the summed urban
    # population at each candidate fine line's endpoints
    pop = {r: fine.region_by_id[r].urban_population for r in fine.fine_regions}
    for line in coarse.interregional_lines:
        total = line.capacity + coarse_sol.line_expansion.get(line.id, 0.0)
        ca, cb = line.endpoints
        candidates = [
            l
            for l in fine.interregional_lines
            if {coarse.partition[l.fine_endpoints[0]], coarse.partition[l.fine_endpoints[1]]}
            == {ca, cb}
        ]
        if not candidates:
            raise ValueError(f"no fine interregional line corresponds to {line.id}")
        weights = {l.id: pop[l.fine_endpoints[0]] + pop[l.fine_endpoints[1]] for l in candidates}
        if all(w == 0.0 for w in weights.values()):
            weights = {l.id: 1.0 for l in candidates}
        for lid, share in _proportional(total, weights).items():
            caps[lid] += share

    # (c) reclassified backbones that cross a fine boundary
    for line in coarse.lines:
        if line.kind != "backbone":
            continue
        a, b = line.fine_endpoints
        if a == b:
            continue
        target = _fine_line_between(fine, a, b)
        if target is None:
            raise ValueError(f"backbone {line.id} crosses {a}-{b} with no fine line")
        caps[target.id] += beta * line.capacity

    # (a) invested spur capacity along boundary-crossing spur paths
    for site_id, invested in sorted(allocation.site_investment.items()):
        if invested <= 0.0:
            continue
        spur = coarse.line_by_id[f"spur_{site_id}"]
        origin, sink = spur.fine_endpoints
        if origin == sink:
            continue
        part = coarse.partition[origin]
        path = _shortest_path(origin, sink, set(members[part]), adj)
        if path is None:
            raise ValueError(f"spur of {site_id} cannot reach {sink} within {part}")
        for u, v in zip(path, path[1:]):
            target = _fine_line_between(fine, u, v)
            if target is None:
                raise ValueError(f"spur of {site_id} crosses {u}-{v} with no fine line")
            caps[target.id] += invested
    return caps


# -- portfolio assembly --------------------------------------------------------


def _template_thermal(fine_region: str, coarse_cluster: ResourceCluster) -> ResourceCluster:
    return replace(
        coarse_cluster,
        id=f"{fine_region}_{coarse_cluster.tech}_tpl",
        region=fine_region,
        members=(),
        existing_capacity=0.0,
        max_new_capacity=coarse_cluster.max_new_capacity,
    )


def _template_storage(fine_region: str, coarse_storage: StorageCluster) -> StorageCluster:
    return replace(
        coarse_storage,
        id=f"{fine_region}_storage_tpl",
        region=fine_region,
        existing_power=0.0,
        existing_energy=0.0,
    )


def _template_region(entity: str, suffix: str, fine: SystemCase) -> str | None:
    region = entity[: -len(suffix)]
    return region if entity.endswith(suffix) and region in fine.region_by_id else None


def _with_templates(fine: SystemCase, coarse: SystemCase, allocation: SiteAllocation) -> SystemCase:
    """fine plus the template clusters and storage that the allocation's
    provenance names, each built from the first coarse cluster in id order
    that feeds it, as translate_solution creates them."""
    clusters: dict = {}
    storage: dict = {}
    for coarse_id in sorted(allocation.provenance):
        for kind, entity, _mw in allocation.provenance[coarse_id]:
            if entity in fine.cluster_by_id or entity in fine.storage_by_id:
                continue
            if kind == "cluster" and entity not in clusters:
                src = coarse.cluster_by_id.get(coarse_id)
                region = _template_region(entity, f"_{src.tech}_tpl", fine) if src else None
                if region:
                    clusters[entity] = _template_thermal(region, src)
            elif kind in ("storage_power", "storage_energy") and entity not in storage:
                src = coarse.storage_by_id.get(coarse_id)
                region = _template_region(entity, "_storage_tpl", fine) if src else None
                if region:
                    storage[entity] = _template_storage(region, src)
    if not (clusters or storage):
        return fine
    return fine.with_updates(
        clusters=fine.clusters + tuple(clusters.values()),
        storage=fine.storage + tuple(storage.values()),
    )


def translate_solution(
    coarse_sol: ExpansionSolution | InvestmentVector,
    coarse: SystemCase,
    fine: SystemCase,
    beta: float = 1.0,
) -> tuple:
    """Returns (SiteAllocation, Portfolio)."""
    alloc = SiteAllocation()
    members = {c: [] for c in set(coarse.partition.values())}
    for f, c in coarse.partition.items():
        members[c].append(f)
    demand_energy = {
        r.id: float(r.demand.values.sum()) for r in fine.regions
    }

    # VRE site fill
    for c in sorted(coarse.vre_clusters, key=lambda c: c.id):
        inv = coarse_sol.vre_new.get(c.id, 0.0)
        sites = [fine.site_by_id[sid] for sid in c.members]
        pairs = allocate_vre(inv, sites)
        alloc.provenance[c.id] = tuple(("site", s.id, mw) for s, mw in pairs)
        for s, mw in pairs:
            alloc.site_investment[s.id] = alloc.site_investment.get(s.id, 0.0) + mw

    # thermal investment and retirement
    fine_thermal_by_region: dict = {}
    for c in fine.thermal_clusters:
        fine_thermal_by_region.setdefault((c.region, c.tech), []).append(c)
    for c in sorted(coarse.thermal_clusters, key=lambda c: c.id):
        inv = coarse_sol.thermal_new.get(c.id, 0.0)
        subs = members[c.region]
        prov: list = []
        if inv > 0.0:
            weights = {r: demand_energy[r] for r in subs}
            if all(v == 0.0 for v in weights.values()):
                weights = {r: 1.0 for r in subs}  # uniform fallback
            shares = _proportional(inv, weights)
            for r in sorted(shares):
                mw = shares[r]
                if mw == 0.0:
                    continue
                targets = fine_thermal_by_region.get((r, c.tech))
                if targets:
                    target = min(targets, key=lambda t: t.id)
                else:
                    target = _template_thermal(r, c)
                    fine_thermal_by_region.setdefault((r, c.tech), []).append(target)
                alloc.thermal_new[target.id] = alloc.thermal_new.get(target.id, 0.0) + mw
                prov.append(("cluster", target.id, mw))
        ret = coarse_sol.thermal_retired.get(c.id, 0.0)
        if ret > 0.0:
            units = [fine.unit_by_id[uid] for uid in c.members]
            for u, mw in retire_units(ret, units):
                alloc.unit_retirement[u.id] = alloc.unit_retirement.get(u.id, 0.0) + mw
                prov.append(("unit", u.id, mw))
        if prov:
            alloc.provenance[c.id] = tuple(prov)

    # storage, weighted by existing + newly allocated VRE per fine region
    vre_by_region: dict = {}
    for c in fine.vre_clusters:
        vre_by_region[c.region] = vre_by_region.get(c.region, 0.0) + c.existing_capacity
    for sid, mw in alloc.site_investment.items():
        r = fine.site_by_id[sid].fine_region
        vre_by_region[r] = vre_by_region.get(r, 0.0) + mw

    fine_storage_by_region: dict = {}
    for s in fine.storage:
        fine_storage_by_region.setdefault(s.region, []).append(s)
    for s in sorted(coarse.storage, key=lambda s: s.id):
        p_new = coarse_sol.storage_new_power.get(s.id, 0.0)
        e_new = coarse_sol.storage_new_energy.get(s.id, 0.0)
        if p_new == 0.0 and e_new == 0.0:
            continue
        subs = members[s.region]
        vre_w = {r: vre_by_region.get(r, 0.0) for r in subs}
        p_shares, e_shares = allocate_storage(
            p_new, e_new, vre_w, demand_fallback={r: demand_energy[r] for r in subs}
        )
        prov = []
        for r in sorted(subs):
            if p_shares.get(r, 0.0) == 0.0 and e_shares.get(r, 0.0) == 0.0:
                continue
            targets = fine_storage_by_region.get(r)
            if targets:
                target = min(targets, key=lambda t: t.id)
            else:
                target = _template_storage(r, s)
                fine_storage_by_region[r] = [target]
            alloc.storage_power[target.id] = alloc.storage_power.get(target.id, 0.0) + p_shares.get(r, 0.0)
            alloc.storage_energy[target.id] = alloc.storage_energy.get(target.id, 0.0) + e_shares.get(r, 0.0)
            prov.append(("storage_power", target.id, p_shares.get(r, 0.0)))
            prov.append(("storage_energy", target.id, e_shares.get(r, 0.0)))
        if prov:
            alloc.provenance[s.id] = tuple(prov)

    alloc.line_capacity = redistrict_transmission(coarse_sol, coarse, fine, alloc, beta=beta)
    return alloc, build_portfolio(fine, alloc, coarse)


def build_portfolio(
    fine_case: SystemCase, allocation: SiteAllocation, coarse: SystemCase | None = None
) -> Portfolio:
    """Turn an allocation into per-cluster capacities on the fine case.

    Every fine cluster gets an entry, zero if untouched. An empty
    allocation therefore reproduces the existing system as-is. Given the
    coarse case the allocation was translated from, the template clusters
    and storage it names (``<region>_<tech>_tpl``, ``<region>_storage_tpl``)
    are rebuilt from their provenance cluster and added to the portfolio's
    case; without it, an allocation onto a template is refused.
    """
    if coarse is not None:
        fine_case = _with_templates(fine_case, coarse, allocation)
    vre_new = {c.id: 0.0 for c in fine_case.vre_clusters}
    for sid, mw in allocation.site_investment.items():
        fc = fine_case.cluster_of_member.get(sid)
        if fc is None:
            raise ValueError(f"site {sid} belongs to no fine cluster")
        vre_new[fc] += mw

    thermal_new = {c.id: 0.0 for c in fine_case.thermal_clusters}
    thermal_ret = dict(thermal_new)
    for cid, mw in allocation.thermal_new.items():
        if cid not in thermal_new:
            raise ValueError(f"unknown fine thermal cluster {cid}")
        thermal_new[cid] += mw
    for uid, mw in allocation.unit_retirement.items():
        fc = fine_case.cluster_of_member.get(uid)
        if fc is None:
            raise ValueError(f"unit {uid} belongs to no fine cluster")
        thermal_ret[fc] += mw

    sto_power = {s.id: 0.0 for s in fine_case.storage}
    sto_energy = dict(sto_power)
    for sid, mw in allocation.storage_power.items():
        if sid not in sto_power:
            raise ValueError(f"unknown fine storage {sid}")
        sto_power[sid] += mw
    for sid, mwh in allocation.storage_energy.items():
        if sid not in sto_energy:
            raise ValueError(f"unknown fine storage {sid}")
        sto_energy[sid] += mwh

    for c in fine_case.thermal_clusters:
        live = c.existing_capacity - thermal_ret[c.id] + thermal_new[c.id]
        if live < -1e-9:
            raise ValueError(f"negative resulting capacity on {c.id}: {live}")

    line_caps = {
        l.id: allocation.line_capacity.get(l.id, l.capacity)
        for l in fine_case.interregional_lines
    }
    return Portfolio(
        case=fine_case,
        vre_new=vre_new,
        thermal_new=thermal_new,
        thermal_retired=thermal_ret,
        storage_new_power=sto_power,
        storage_new_energy=sto_energy,
        line_capacity=line_caps,
    )


_ALLOCATION_KINDS = (
    "site", "unit", "cluster", "storage_power", "storage_energy", "line",
)


def read_allocation(path: str) -> SiteAllocation:
    alloc = SiteAllocation()
    by_kind = {
        "site": alloc.site_investment,
        "unit": alloc.unit_retirement,
        "cluster": alloc.thermal_new,
        "storage_power": alloc.storage_power,
        "storage_energy": alloc.storage_energy,
        "line": alloc.line_capacity,
    }
    prov: dict = {}
    with open(path, newline="") as fh:
        rd = csv.DictReader(fh)
        for row in rd:
            kind = row["entity_kind"]
            if kind not in by_kind:
                raise ValueError(f"{path}: unknown entity kind {kind!r}")
            mw = float(row["mw"])
            target = by_kind[kind]
            target[row["entity_id"]] = target.get(row["entity_id"], 0.0) + mw
            src = row["provenance_cluster"]
            if src:
                prov.setdefault(src, []).append((kind, row["entity_id"], mw))
    alloc.provenance = {k: tuple(v) for k, v in prov.items()}
    return alloc


def write_allocation(allocation: SiteAllocation, path: str) -> None:
    rows = []
    for coarse_id in sorted(allocation.provenance):
        for kind, entity, mw in allocation.provenance[coarse_id]:
            rows.append((kind, entity, float(mw), coarse_id))
    for lid in sorted(allocation.line_capacity):
        rows.append(("line", lid, float(allocation.line_capacity[lid]), ""))
    write_csv(path, ("entity_kind", "entity_id", "mw", "provenance_cluster"), rows)


def write_portfolio(portfolio: Portfolio, path: str) -> None:
    case = portfolio.case
    rows = []
    for c in sorted(case.vre_clusters, key=lambda c: c.id):
        rows.append((c.id, float(portfolio.total_vre_capacity(c.id)), ""))
    for c in sorted(case.thermal_clusters, key=lambda c: c.id):
        rows.append((c.id, float(portfolio.total_thermal_capacity(c.id)), ""))
    for s in sorted(case.storage, key=lambda s: s.id):
        p = s.existing_power + portfolio.storage_new_power.get(s.id, 0.0)
        e = s.existing_energy + portfolio.storage_new_energy.get(s.id, 0.0)
        rows.append((s.id, float(p), float(e)))
    write_csv(path, ("fine_cluster", "mw", "mwh"), rows)
