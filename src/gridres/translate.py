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

A build on either side is the named investment vector of expansion.py
({"xv[<cluster>]": MW, ...} over investment_entries of its case): the
coarse one that translate_solution reads, and Portfolio.investment on the
fine case, which build_operations_lp pins as it stands. A fine line's
operating capacity is not an investment: build_portfolio writes it into
the line of the portfolio's case (Portfolio.case), so every fine xl is 0
and the operations LP's line rows bound each flow by that capacity. The
same copy of the case sets its uc_mode to relaxed, the mode of every
dispatch.

An allocation (SiteAllocation) is the rows of allocation.csv and nothing
else: each row that is not a line names the coarse entity it came from
(provenance), and line rows name none (line_capacity). Per-kind totals are
added up from the rows (SiteAllocation.total).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .caseio import _Table, write_csv
from .expansion import investment_entries, investment_name
from .model import CaseError, ResourceCluster, StorageCluster, SystemCase
from .spatial import bfs_parents, fine_adjacency


# allocation.csv row kind -> (the fine investment kind it adds to, whether
# its entity is a member of that investment's cluster, the error for an
# entity the fine case lacks); "line" rows carry operating capacity instead
_ROW_KINDS = {
    "site": ("vre_new", True, "site {} belongs to no fine cluster"),
    "unit": ("thermal_retired", True, "unit {} belongs to no fine cluster"),
    "cluster": ("thermal_new", False, "unknown fine thermal cluster {}"),
    "storage_power": ("storage_new_power", False, "unknown fine storage {}"),
    "storage_energy": ("storage_new_energy", False, "unknown fine storage {}"),
}


@dataclass
class SiteAllocation:
    """The rows of allocation.csv: every fine entity a coarse build lands on,
    by the coarse entity it came from, and the fine line capacities."""

    # coarse entity -> ((row kind, fine entity, MW), ...); see _ROW_KINDS
    provenance: dict = field(default_factory=dict)
    line_capacity: dict = field(default_factory=dict)  # fine line id -> MW

    def total(self, kind: str) -> dict:
        """fine entity -> the MW of its rows of kind, added in provenance order."""
        out: dict = {}
        for rows in self.provenance.values():
            for k, entity, mw in rows:
                if k == kind:
                    out[entity] = out.get(entity, 0.0) + mw
        return out


@dataclass
class Portfolio:
    """Fine-resolution capacities implied by a coarse solution."""

    # fine case, extended with template clusters if needed, whose
    # interregional lines carry their operating capacity and whose uc_mode
    # is relaxed, the mode of every dispatch
    case: SystemCase
    # investment name -> value over case's investment_entries; every xl[...]
    # is 0, as the operating line capacity is the line's own
    investment: dict = field(default_factory=dict)

    @property
    def line_capacity(self) -> dict:
        """fine interregional line -> its operating capacity, MW."""
        return {l.id: l.capacity for l in self.case.interregional_lines}

    def new(self, kind: str, eid: str) -> float:
        """The investment of a kind (see INVESTMENT_PREFIXES) in entity eid."""
        return self.investment.get(investment_name(kind, eid), 0.0)

    def capacities(self) -> list:
        """The rows of portfolio.csv: (entity, MW, MWh) of every VRE and
        thermal cluster and storage of the case with the build applied; the
        MWh is "" but for storage."""
        case, new = self.case, self.new
        rows = []
        for c in sorted(case.vre_clusters, key=lambda c: c.id):
            rows.append((c.id, float(c.existing_capacity + new("vre_new", c.id)), ""))
        for c in sorted(case.thermal_clusters, key=lambda c: c.id):
            live = c.existing_capacity - new("thermal_retired", c.id) + new("thermal_new", c.id)
            rows.append((c.id, float(live), ""))
        for s in sorted(case.storage, key=lambda s: s.id):
            p = s.existing_power + new("storage_new_power", s.id)
            e = s.existing_energy + new("storage_new_energy", s.id)
            rows.append((s.id, float(p), float(e)))
        return rows


def vre_fill_order(sites) -> list:
    return sorted(
        sites, key=lambda s: (0 if s.tech == "offshore_fixed" else 1, s.lcoe, s.id)
    )


def _fill(amount: float, items, capacity, ordered, too_much: str) -> list:
    """Take min(capacity, remaining) from each item of ordered(items) until
    amount is placed, as (item, MW) pairs; the float residual lands on the
    last one. too_much formats (amount, total capacity) when amount exceeds
    it."""
    total = sum(capacity(i) for i in items)
    if amount > total + 1e-9 * max(1.0, total):
        raise ValueError(too_much.format(amount, total))
    out = []
    remaining = amount
    for item in ordered(items):
        if remaining <= 0.0:
            break
        take = min(capacity(item), remaining)
        out.append((item, take))
        remaining -= take
    if out and remaining > 0.0:
        item, take = out[-1]
        out[-1] = (item, take + remaining)
    return out


def allocate_vre(cluster_investment: float, sites) -> list:
    return _fill(
        cluster_investment, sites, lambda s: s.capacity_limit, vre_fill_order,
        "investment {} exceeds site capacity {}",
    )


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
    return _fill(
        retired_mw, units, lambda u: u.capacity,
        lambda us: sorted(us, key=lambda u: (-u.heat_rate, u.id)),
        "retirement {} exceeds unit capacity {}",
    )


def _members(coarse: SystemCase) -> dict:
    """coarse region -> its fine regions, in partition order."""
    members: dict = {}
    for f, c in coarse.partition.items():
        members.setdefault(c, []).append(f)
    return members


# -- transmission redistricting ------------------------------------------------


def _shortest_path(origin: str, target: str, allowed: set, adj: dict) -> list | None:
    """BFS path as a region list; deterministic via sorted neighbor order."""
    parent = bfs_parents(origin, allowed, adj)
    if target not in parent:
        return None
    path = [target]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


def _fine_line_between(fine: SystemCase, a: str, b: str):
    """Lowest-id fine interregional line joining fine regions a and b."""
    found = [
        l
        for l in fine.interregional_lines
        if set(l.fine_endpoints) == {a, b}
    ]
    return min(found, key=lambda l: l.id) if found else None


def redistrict_transmission(
    investment: dict,
    coarse: SystemCase,
    fine: SystemCase,
    allocation: SiteAllocation,
    beta: float = 1.0,
) -> dict:
    caps = {l.id: 0.0 for l in fine.interregional_lines}
    adj = fine_adjacency(fine)
    members = _members(coarse)

    # (b) coarse interregional operating capacity, split by the summed urban
    # population at each candidate fine line's endpoints
    pop = {r: fine.region_by_id[r].urban_population for r in fine.fine_regions}
    for line in coarse.interregional_lines:
        total = line.capacity + investment.get(investment_name("line_expansion", line.id), 0.0)
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
    for site_id, invested in sorted(allocation.total("site").items()):
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


def _template_id(fine_region: str, kind: str) -> str:
    """The id of the template entity of kind (a thermal tech, or "storage")
    that a translation creates in a fine region with none of that kind."""
    return f"{fine_region}_{kind}_tpl"


def _template_thermal(fine_region: str, coarse_cluster: ResourceCluster) -> ResourceCluster:
    return replace(
        coarse_cluster,
        id=_template_id(fine_region, coarse_cluster.tech),
        region=fine_region,
        members=(),
        existing_capacity=0.0,
        max_new_capacity=coarse_cluster.max_new_capacity,
    )


def _template_storage(fine_region: str, coarse_storage: StorageCluster) -> StorageCluster:
    return replace(
        coarse_storage,
        id=_template_id(fine_region, "storage"),
        region=fine_region,
        existing_power=0.0,
        existing_energy=0.0,
    )


def _template_region(entity: str, kind: str, fine: SystemCase) -> str | None:
    """The fine region whose template of kind entity is, if any."""
    return next((r.id for r in fine.regions if _template_id(r.id, kind) == entity), None)


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
                region = _template_region(entity, src.tech, fine) if src else None
                if region:
                    clusters[entity] = _template_thermal(region, src)
            elif kind in ("storage_power", "storage_energy") and entity not in storage:
                src = coarse.storage_by_id.get(coarse_id)
                region = _template_region(entity, "storage", fine) if src else None
                if region:
                    storage[entity] = _template_storage(region, src)
    if not (clusters or storage):
        return fine
    return fine.with_updates(
        clusters=fine.clusters + tuple(clusters.values()),
        storage=fine.storage + tuple(storage.values()),
    )


def translate_solution(
    investment: dict,
    coarse: SystemCase,
    fine: SystemCase,
    beta: float = 1.0,
) -> tuple:
    """Translate coarse's named investments (see investment_entries; a name
    left out reads as 0) onto fine. Returns (SiteAllocation, Portfolio)."""

    def coarse_new(kind, eid):
        return investment.get(investment_name(kind, eid), 0.0)

    alloc = SiteAllocation()
    members = _members(coarse)
    demand_energy = {
        r.id: float(r.demand.values.sum()) for r in fine.regions
    }

    # VRE site fill
    for c in sorted(coarse.vre_clusters, key=lambda c: c.id):
        inv = coarse_new("vre_new", c.id)
        sites = [fine.site_by_id[sid] for sid in c.members]
        pairs = allocate_vre(inv, sites)
        alloc.provenance[c.id] = tuple(("site", s.id, mw) for s, mw in pairs)

    # thermal investment and retirement, into the first fine cluster in id
    # order of the tech in the region, or else into its template
    fine_thermal: dict = {}
    for c in sorted(fine.thermal_clusters, key=lambda c: c.id):
        fine_thermal.setdefault((c.region, c.tech), c.id)
    for c in sorted(coarse.thermal_clusters, key=lambda c: c.id):
        inv = coarse_new("thermal_new", c.id)
        subs = members[c.region]
        prov: list = []
        if inv > 0.0:
            weights = {r: demand_energy[r] for r in subs}
            if all(v == 0.0 for v in weights.values()):
                weights = {r: 1.0 for r in subs}  # uniform fallback
            shares = allocate_thermal(inv, weights)
            for r in sorted(shares):
                mw = shares[r]
                if mw == 0.0:
                    continue
                target = fine_thermal.setdefault((r, c.tech), _template_id(r, c.tech))
                prov.append(("cluster", target, mw))
        ret = coarse_new("thermal_retired", c.id)
        if ret > 0.0:
            units = [fine.unit_by_id[uid] for uid in c.members]
            for u, mw in retire_units(ret, units):
                prov.append(("unit", u.id, mw))
        if prov:
            alloc.provenance[c.id] = tuple(prov)

    # storage, weighted by existing + newly allocated VRE per fine region
    vre_by_region: dict = {}
    for c in fine.vre_clusters:
        vre_by_region[c.region] = vre_by_region.get(c.region, 0.0) + c.existing_capacity
    for sid, mw in alloc.total("site").items():
        r = fine.site_by_id[sid].fine_region
        vre_by_region[r] = vre_by_region.get(r, 0.0) + mw

    fine_storage: dict = {}
    for s in sorted(fine.storage, key=lambda s: s.id):
        fine_storage.setdefault(s.region, s.id)
    for s in sorted(coarse.storage, key=lambda s: s.id):
        p_new = coarse_new("storage_new_power", s.id)
        e_new = coarse_new("storage_new_energy", s.id)
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
            target = fine_storage.setdefault(r, _template_id(r, "storage"))
            prov.append(("storage_power", target, p_shares.get(r, 0.0)))
            prov.append(("storage_energy", target, e_shares.get(r, 0.0)))
        if prov:
            alloc.provenance[s.id] = tuple(prov)

    alloc.line_capacity = redistrict_transmission(investment, coarse, fine, alloc, beta=beta)
    return alloc, build_portfolio(fine, alloc, coarse)


def build_portfolio(
    fine_case: SystemCase, allocation: SiteAllocation, coarse: SystemCase | None = None
) -> Portfolio:
    """Turn an allocation into named investments on the fine case.

    The portfolio's investment names every investment of its case, zero if
    untouched, so an empty allocation reproduces the existing system as-is;
    each line of the allocation gets its operating capacity in the
    portfolio's case, whose uc_mode is relaxed, and every xl[...] stays 0.
    Given the coarse case the allocation was translated from, the template
    clusters and storage it names (``<region>_<tech>_tpl``,
    ``<region>_storage_tpl``) are rebuilt from their provenance cluster and
    added to the portfolio's case; without it, an allocation onto a
    template is refused. An entity or line the case lacks, or a negative
    resulting capacity of a cluster, storage or line, is a CaseError.
    """
    if coarse is not None:
        fine_case = _with_templates(fine_case, coarse, allocation)
    investment = {name: 0.0 for name, *_ in investment_entries(fine_case)}
    for rows in allocation.provenance.values():
        for kind, entity, mw in rows:
            inv_kind, member, unknown = _ROW_KINDS[kind]
            name = investment_name(inv_kind, fine_case.cluster_of_member.get(entity) if member else entity)
            if name not in investment:
                raise CaseError(unknown.format(entity))
            investment[name] += mw
    unknown_lines = sorted(set(allocation.line_capacity) - {l.id for l in fine_case.interregional_lines})
    if unknown_lines:
        raise CaseError(f"unknown fine interregional lines {unknown_lines}")
    fine_case = fine_case.with_updates(
        lines=tuple(replace(l, capacity=allocation.line_capacity.get(l.id, l.capacity)) for l in fine_case.lines),
        uc_mode="relaxed",
    )

    portfolio = Portfolio(case=fine_case, investment=investment)
    lines = ((lid, mw, "") for lid, mw in portfolio.line_capacity.items())
    for eid, mw, mwh in (*portfolio.capacities(), *lines):
        low = min(mw, mwh or 0.0)
        if low < -1e-9:
            raise CaseError(f"negative resulting capacity on {eid}: {low}")
    return portfolio


def read_allocation(path: str) -> SiteAllocation:
    """Read what write_allocation writes: every row but a line's names the
    coarse entity it came from, and each line has one row, naming none."""
    alloc = SiteAllocation()
    prov: dict = {}
    table = _Table(path, ("entity_kind", "entity_id", "mw", "provenance_cluster"))
    for rowno, row in table:
        kind = table.cell(rowno, row, "entity_kind")
        if kind != "line" and kind not in _ROW_KINDS:
            raise CaseError(f"{path} row {rowno}: unknown entity kind {kind!r}")
        entity = table.cell(rowno, row, "entity_id")
        mw = table.cell(rowno, row, "mw", float)
        src = table.cell(rowno, row, "provenance_cluster")
        if kind == "line":
            if src:
                raise CaseError(f"{path} row {rowno}: line {entity} names provenance cluster {src!r}")
            if entity in alloc.line_capacity:
                raise CaseError(f"{path} row {rowno}: repeated line {entity}")
            alloc.line_capacity[entity] = mw
        elif not src:
            raise CaseError(f"{path} row {rowno}: {kind} {entity} names no provenance cluster")
        else:
            prov.setdefault(src, []).append((kind, entity, mw))
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
    write_csv(path, ("fine_cluster", "mw", "mwh"), portfolio.capacities())
