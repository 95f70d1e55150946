"""Case directories: a SystemCase serialized as a fixed set of CSV files.

Floats are written with repr() (shortest round-trip form), rows in id/hour
order, newlines fixed to "\\n", so writing the same case twice is
byte-identical. annual_cf is defined as the mean of the site's hourly
profile over the case year and is derived at load rather than stored.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from .model import (
    CaseError,
    Region,
    ResourceCluster,
    Series,
    Site,
    StorageCluster,
    SystemCase,
    ThermalParams,
    ThermalUnit,
    TransmissionLine,
    require_valid,
    vre_aggregate_profile,
)

REQUIRED_FILES = (
    "regions.csv",
    "demand.csv",
    "sites.csv",
    "site_profiles.csv",
    "units.csv",
    "clusters.csv",
    "storage.csv",
    "lines.csv",
    "scalars.csv",
)
OPTIONAL_FILES = ("periods.csv", "partition.csv")


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


class _Table:
    """One parsed CSV with row-addressable error reporting."""

    def __init__(self, directory: str, name: str, required_columns: tuple[str, ...]):
        self.name = name
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            raise CaseError(f"{name}: missing file")
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            missing = [c for c in required_columns if c not in header]
            if missing:
                raise CaseError(f"{name}: schema mismatch, missing columns {missing}")
            self.rows = list(reader)

    def __iter__(self):
        # data rows are 1-indexed after the header line
        return ((i + 2, row) for i, row in enumerate(self.rows))

    def cell(self, rowno: int, row: dict, col: str, kind=str):
        raw = row.get(col)
        if raw is None or raw == "":
            if kind is str:
                return ""
            raise CaseError(f"{self.name} row {rowno}: empty {col}")
        try:
            if kind is bool:
                if raw not in ("true", "false"):
                    raise ValueError(raw)
                return raw == "true"
            return kind(raw)
        except ValueError:
            raise CaseError(f"{self.name} row {rowno}: bad {col} value {raw!r}") from None


def _opt_float(table: _Table, rowno: int, row: dict, col: str):
    raw = row.get(col, "")
    if raw == "" or raw is None:
        return None
    return table.cell(rowno, row, col, float)


def load_system(directory: str) -> SystemCase:
    """Load and validate a case directory. Raises CaseError with file/row
    context on parse problems and with the violation list on invalid cases."""
    if not os.path.isdir(directory):
        raise CaseError(f"{directory}: not a case directory")

    scalars = _Table(directory, "scalars.csv", ("nse_cost", "carbon_fee", "period_length"))
    if len(scalars.rows) != 1:
        raise CaseError("scalars.csv: expected exactly one row")
    rowno, srow = next(iter(scalars))
    nse_cost = scalars.cell(rowno, srow, "nse_cost", float)
    carbon_fee = scalars.cell(rowno, srow, "carbon_fee", float)
    period_length = scalars.cell(rowno, srow, "period_length", int)
    uc_mode = srow.get("uc_mode") or "relaxed"
    extremes_included = (srow.get("extremes_included") or "false") == "true"

    regions_t = _Table(directory, "regions.csv", ("id", "urban_population", "reserve_margin"))
    demand_t = _Table(directory, "demand.csv", ("region", "hour", "mw"))

    demand_vals: dict[str, dict[int, float]] = {}
    for rowno, row in demand_t:
        region = demand_t.cell(rowno, row, "region")
        hour = demand_t.cell(rowno, row, "hour", int)
        mw = demand_t.cell(rowno, row, "mw", float)
        demand_vals.setdefault(region, {})
        if hour in demand_vals[region]:
            raise CaseError(f"demand.csv row {rowno}: duplicate hour {hour} for {region}")
        demand_vals[region][hour] = mw

    def series_from(name: str, byhour: dict[int, float]) -> Series:
        hours = len(byhour)
        if sorted(byhour) != list(range(hours)):
            raise CaseError(f"{name}: hours must be contiguous from 0")
        vals = np.array([byhour[h] for h in range(hours)])
        try:
            return Series(vals, period_length)
        except ValueError as exc:
            raise CaseError(f"{name}: {exc}") from None

    regions = []
    for rowno, row in regions_t:
        rid = regions_t.cell(rowno, row, "id")
        if rid not in demand_vals:
            raise CaseError(f"regions.csv row {rowno}: no demand rows for {rid}")
        regions.append(
            Region(
                id=rid,
                urban_population=regions_t.cell(rowno, row, "urban_population", int),
                reserve_margin=regions_t.cell(rowno, row, "reserve_margin", float),
                demand=series_from(f"demand for {rid}", demand_vals[rid]),
            )
        )
    known_regions = {r.id for r in regions}
    for region in demand_vals:
        if region not in known_regions:
            raise CaseError(f"demand.csv: demand for unknown region {region}")

    profiles_t = _Table(directory, "site_profiles.csv", ("site", "hour", "cf"))
    profile_vals: dict[str, dict[int, float]] = {}
    for rowno, row in profiles_t:
        site = profiles_t.cell(rowno, row, "site")
        hour = profiles_t.cell(rowno, row, "hour", int)
        cf = profiles_t.cell(rowno, row, "cf", float)
        profile_vals.setdefault(site, {})[hour] = cf

    sites_t = _Table(
        directory,
        "sites.csv",
        ("id", "fine_region", "cluster", "tech", "capacity_limit_mw", "lcoe", "spur_cost", "spur_capacity_mw"),
    )
    sites = []
    site_cluster: dict[str, str] = {}
    for rowno, row in sites_t:
        sid = sites_t.cell(rowno, row, "id")
        if sid not in profile_vals:
            raise CaseError(f"sites.csv row {rowno}: no profile rows for {sid}")
        profile = series_from(f"profile for {sid}", profile_vals[sid])
        site_cluster[sid] = sites_t.cell(rowno, row, "cluster")
        sites.append(
            Site(
                id=sid,
                fine_region=sites_t.cell(rowno, row, "fine_region"),
                tech=sites_t.cell(rowno, row, "tech"),
                capacity_limit=sites_t.cell(rowno, row, "capacity_limit_mw", float),
                lcoe=sites_t.cell(rowno, row, "lcoe", float),
                annual_cf=float(np.mean(profile.values)),
                profile=profile,
                spur_cost=sites_t.cell(rowno, row, "spur_cost", float),
                spur_capacity=sites_t.cell(rowno, row, "spur_capacity_mw", float),
            )
        )
    for site in profile_vals:
        if site not in site_cluster:
            raise CaseError(f"site_profiles.csv: profile for unknown site {site}")

    units_t = _Table(
        directory,
        "units.csv",
        (
            "id",
            "fine_region",
            "plant",
            "capacity_mw",
            "heat_rate",
            "min_output",
            "ramp",
            "start_cost",
            "emission_factor",
            "fuel_cost",
            "vom",
        ),
    )
    units = []
    unit_cluster: dict[str, str] = {}
    for rowno, row in units_t:
        uid = units_t.cell(rowno, row, "id")
        plant = units_t.cell(rowno, row, "plant")
        unit_cluster[uid] = plant
        units.append(
            ThermalUnit(
                id=uid,
                fine_region=units_t.cell(rowno, row, "fine_region"),
                plant=plant,
                capacity=units_t.cell(rowno, row, "capacity_mw", float),
                heat_rate=units_t.cell(rowno, row, "heat_rate", float),
                min_output=units_t.cell(rowno, row, "min_output", float),
                ramp_rate=units_t.cell(rowno, row, "ramp", float),
                start_cost=units_t.cell(rowno, row, "start_cost", float),
                emission_factor=units_t.cell(rowno, row, "emission_factor", float),
                fuel_cost=units_t.cell(rowno, row, "fuel_cost", float),
                vom=units_t.cell(rowno, row, "vom", float),
            )
        )

    clusters_t = _Table(
        directory,
        "clusters.csv",
        ("id", "region", "tech", "existing_capacity_mw", "max_new_capacity_mw", "fixed_cost", "fom_cost"),
    )
    site_by_id = {s.id: s for s in sites}
    clusters = []
    for rowno, row in clusters_t:
        cid = clusters_t.cell(rowno, row, "id")
        tech = clusters_t.cell(rowno, row, "tech")
        member_sites = sorted(s for s, c in site_cluster.items() if c == cid)
        member_units = sorted(u for u, c in unit_cluster.items() if c == cid)
        if member_sites and member_units:
            raise CaseError(f"clusters.csv row {rowno}: {cid} mixes sites and units")
        members = tuple(member_sites or member_units)
        profile = None
        thermal = None
        if member_sites:
            profile = vre_aggregate_profile([site_by_id[s] for s in member_sites])
        else:
            params = [_opt_float(clusters_t, rowno, row, c) for c in (
                "heat_rate", "min_output", "ramp", "start_cost", "emission_factor", "fuel_cost", "vom")]
            if any(p is not None for p in params):
                if any(p is None for p in params):
                    raise CaseError(f"clusters.csv row {rowno}: partial thermal parameters")
                thermal = ThermalParams(*params)
            elif member_units:
                raise CaseError(f"clusters.csv row {rowno}: thermal cluster {cid} lacks parameters")
        clusters.append(
            ResourceCluster(
                id=cid,
                region=clusters_t.cell(rowno, row, "region"),
                tech=tech,
                members=members,
                existing_capacity=clusters_t.cell(rowno, row, "existing_capacity_mw", float),
                max_new_capacity=clusters_t.cell(rowno, row, "max_new_capacity_mw", float),
                fixed_cost=clusters_t.cell(rowno, row, "fixed_cost", float),
                fom_cost=clusters_t.cell(rowno, row, "fom_cost", float),
                aggregate_profile=profile,
                thermal=thermal,
            )
        )
    known_clusters = {c.id for c in clusters}
    for sid, cid in site_cluster.items():
        if cid not in known_clusters:
            raise CaseError(f"sites.csv: site {sid} references unknown cluster {cid}")
    for uid, cid in unit_cluster.items():
        if cid not in known_clusters:
            raise CaseError(f"units.csv: unit {uid} references unknown plant {cid}")

    storage_t = _Table(
        directory,
        "storage.csv",
        ("id", "region", "power_cost", "energy_cost", "efficiency_rt", "existing_power_mw", "existing_energy_mwh"),
    )
    storage = [
        StorageCluster(
            id=storage_t.cell(rowno, row, "id"),
            region=storage_t.cell(rowno, row, "region"),
            power_cost=storage_t.cell(rowno, row, "power_cost", float),
            energy_cost=storage_t.cell(rowno, row, "energy_cost", float),
            efficiency_rt=storage_t.cell(rowno, row, "efficiency_rt", float),
            existing_power=storage_t.cell(rowno, row, "existing_power_mw", float),
            existing_energy=storage_t.cell(rowno, row, "existing_energy_mwh", float),
        )
        for rowno, row in storage_t
    ]

    lines_t = _Table(
        directory,
        "lines.csv",
        ("id", "kind", "from", "to", "fine_from", "fine_to", "capacity_mw", "expansion_cost", "max_expansion_mw"),
    )
    lines = []
    for rowno, row in lines_t:
        kind = lines_t.cell(rowno, row, "kind")
        frm = lines_t.cell(rowno, row, "from")
        to = lines_t.cell(rowno, row, "to")
        endpoints = (frm, to) if to else (frm,)
        lines.append(
            TransmissionLine(
                id=lines_t.cell(rowno, row, "id"),
                kind=kind,
                endpoints=endpoints,
                fine_endpoints=(lines_t.cell(rowno, row, "fine_from"), lines_t.cell(rowno, row, "fine_to")),
                capacity=lines_t.cell(rowno, row, "capacity_mw", float),
                expansion_cost=lines_t.cell(rowno, row, "expansion_cost", float),
                max_expansion=lines_t.cell(rowno, row, "max_expansion_mw", float),
            )
        )

    weights: tuple[float, ...] = ()
    if os.path.exists(os.path.join(directory, "periods.csv")):
        periods_t = _Table(directory, "periods.csv", ("period", "weight"))
        byp = {}
        for rowno, row in periods_t:
            byp[periods_t.cell(rowno, row, "period", int)] = periods_t.cell(rowno, row, "weight", float)
        if sorted(byp) != list(range(len(byp))):
            raise CaseError("periods.csv: periods must be contiguous from 0")
        weights = tuple(byp[p] for p in range(len(byp)))

    partition: dict[str, str] = {}
    if os.path.exists(os.path.join(directory, "partition.csv")):
        part_t = _Table(directory, "partition.csv", ("fine_region", "region"))
        for rowno, row in part_t:
            fine = part_t.cell(rowno, row, "fine_region")
            if fine in partition:
                raise CaseError(f"partition.csv row {rowno}: duplicate fine region {fine}")
            partition[fine] = part_t.cell(rowno, row, "region")

    case = SystemCase(
        regions=tuple(regions),
        sites=tuple(sites),
        units=tuple(units),
        clusters=tuple(clusters),
        storage=tuple(storage),
        lines=tuple(lines),
        nse_cost=nse_cost,
        carbon_fee=carbon_fee,
        period_weights=weights,
        partition=partition,
        uc_mode=uc_mode,
        extremes_included=extremes_included,
    )
    return require_valid(case)


def _true_false(x) -> str:
    return "true" if x else "false"


# _fmt's result for the common cell types, looked up by exact type; any
# other type (np.int64, np.float32, a subclass) goes through _fmt
_FMT_OF_TYPE = {
    str: str,
    float: float.__repr__,
    np.float64: float.__repr__,
    int: int.__repr__,
    bool: _true_false,
    np.bool_: _true_false,
}


def write_csv(path: str, header, rows) -> None:
    """The one CSV writer: "\\n" line ends, floats as repr (shortest
    round-trip form), booleans as true/false."""
    fmt = _FMT_OF_TYPE.get
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([fmt(type(x), _fmt)(x) for x in row] for row in rows)


def write_case(case: SystemCase, directory: str) -> str:
    """Serialize a case to a directory, overwriting existing files."""
    os.makedirs(directory, exist_ok=True)

    write_csv(
        os.path.join(directory, "regions.csv"),
        ["id", "urban_population", "reserve_margin"],
        [(r.id, r.urban_population, r.reserve_margin) for r in case.regions],
    )
    write_csv(
        os.path.join(directory, "demand.csv"),
        ["region", "hour", "mw"],
        (
            (r.id, h, r.demand.values[h])
            for r in case.regions
            for h in range(r.demand.hours)
        ),
    )
    write_csv(
        os.path.join(directory, "sites.csv"),
        ["id", "fine_region", "cluster", "tech", "capacity_limit_mw", "lcoe", "spur_cost", "spur_capacity_mw"],
        (
            (
                s.id,
                s.fine_region,
                case.cluster_of_member.get(s.id, ""),
                s.tech,
                s.capacity_limit,
                s.lcoe,
                s.spur_cost,
                s.spur_capacity,
            )
            for s in case.sites
        ),
    )
    write_csv(
        os.path.join(directory, "site_profiles.csv"),
        ["site", "hour", "cf"],
        ((s.id, h, s.profile.values[h]) for s in case.sites for h in range(s.profile.hours)),
    )
    write_csv(
        os.path.join(directory, "units.csv"),
        [
            "id",
            "fine_region",
            "plant",
            "capacity_mw",
            "heat_rate",
            "min_output",
            "ramp",
            "start_cost",
            "emission_factor",
            "fuel_cost",
            "vom",
        ],
        (
            (
                u.id,
                u.fine_region,
                u.plant,
                u.capacity,
                u.heat_rate,
                u.min_output,
                u.ramp_rate,
                u.start_cost,
                u.emission_factor,
                u.fuel_cost,
                u.vom,
            )
            for u in case.units
        ),
    )
    write_csv(
        os.path.join(directory, "clusters.csv"),
        [
            "id",
            "region",
            "tech",
            "existing_capacity_mw",
            "max_new_capacity_mw",
            "fixed_cost",
            "fom_cost",
            "heat_rate",
            "min_output",
            "ramp",
            "start_cost",
            "emission_factor",
            "fuel_cost",
            "vom",
        ],
        (
            (
                c.id,
                c.region,
                c.tech,
                c.existing_capacity,
                c.max_new_capacity,
                c.fixed_cost,
                c.fom_cost,
                *(
                    (
                        c.thermal.heat_rate,
                        c.thermal.min_output,
                        c.thermal.ramp_rate,
                        c.thermal.start_cost,
                        c.thermal.emission_factor,
                        c.thermal.fuel_cost,
                        c.thermal.vom,
                    )
                    if c.thermal is not None
                    else ("",) * 7
                ),
            )
            for c in case.clusters
        ),
    )
    write_csv(
        os.path.join(directory, "storage.csv"),
        ["id", "region", "power_cost", "energy_cost", "efficiency_rt", "existing_power_mw", "existing_energy_mwh"],
        (
            (s.id, s.region, s.power_cost, s.energy_cost, s.efficiency_rt, s.existing_power, s.existing_energy)
            for s in case.storage
        ),
    )
    write_csv(
        os.path.join(directory, "lines.csv"),
        ["id", "kind", "from", "to", "fine_from", "fine_to", "capacity_mw", "expansion_cost", "max_expansion_mw"],
        (
            (
                l.id,
                l.kind,
                l.endpoints[0],
                l.endpoints[1] if len(l.endpoints) == 2 else "",
                l.fine_endpoints[0],
                l.fine_endpoints[1],
                l.capacity,
                l.expansion_cost,
                l.max_expansion,
            )
            for l in case.lines
        ),
    )
    write_csv(
        os.path.join(directory, "scalars.csv"),
        ["nse_cost", "carbon_fee", "period_length", "uc_mode", "extremes_included"],
        [(case.nse_cost, case.carbon_fee, case.period_length, case.uc_mode, case.extremes_included)],
    )
    write_csv(
        os.path.join(directory, "periods.csv"),
        ["period", "weight"],
        ((p, w) for p, w in enumerate(case.period_weights)),
    )
    write_csv(
        os.path.join(directory, "partition.csv"),
        ["fine_region", "region"],
        ((f, case.partition[f]) for f in sorted(case.partition)),
    )
    return directory
