"""Case directories: a SystemCase serialized as a fixed set of CSV files.

The column tuples below (_REGIONS, _SITES, ...) are the one declaration of
the format: load_system reads each row into its entity through them, and
write_case writes each header and row from them. demand.csv and
site_profiles.csv hold one row per (id, hour); a repeated hour is rejected.

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

# Each table's columns, declared once for load_system and write_case, as
# (column, entity field, type) tuples. A column with no entity field (None)
# is filled by its table's own code, in column order.
_REGIONS = (
    ("id", "id", str),
    ("urban_population", "urban_population", int),
    ("reserve_margin", "reserve_margin", float),
)
_HOUR = ("hour", None, int)
_DEMAND = (("region", None, str), _HOUR, ("mw", None, float))
_SITES = (
    ("id", "id", str),
    ("fine_region", "fine_region", str),
    ("cluster", None, str),
    ("tech", "tech", str),
    ("capacity_limit_mw", "capacity_limit", float),
    ("lcoe", "lcoe", float),
    ("spur_cost", "spur_cost", float),
    ("spur_capacity_mw", "spur_capacity", float),
)
_PROFILES = (("site", None, str), _HOUR, ("cf", None, float))
# the operating columns of a unit and of a thermal cluster: ThermalParams' fields
_THERMAL = (
    ("heat_rate", "heat_rate", float),
    ("min_output", "min_output", float),
    ("ramp", "ramp_rate", float),
    ("start_cost", "start_cost", float),
    ("emission_factor", "emission_factor", float),
    ("fuel_cost", "fuel_cost", float),
    ("vom", "vom", float),
)
_UNITS = (
    ("id", "id", str),
    ("fine_region", "fine_region", str),
    ("plant", "plant", str),
    ("capacity_mw", "capacity", float),
    *_THERMAL,
)
# clusters.csv is _CLUSTERS then _THERMAL, blank for VRE clusters
_CLUSTERS = (
    ("id", "id", str),
    ("region", "region", str),
    ("tech", "tech", str),
    ("existing_capacity_mw", "existing_capacity", float),
    ("max_new_capacity_mw", "max_new_capacity", float),
    ("fixed_cost", "fixed_cost", float),
    ("fom_cost", "fom_cost", float),
)
_STORAGE = (
    ("id", "id", str),
    ("region", "region", str),
    ("power_cost", "power_cost", float),
    ("energy_cost", "energy_cost", float),
    ("efficiency_rt", "efficiency_rt", float),
    ("existing_power_mw", "existing_power", float),
    ("existing_energy_mwh", "existing_energy", float),
)
_LINES = (
    ("id", "id", str),
    ("kind", "kind", str),
    ("from", None, str),
    ("to", None, str),  # empty for a line with one endpoint
    ("fine_from", None, str),
    ("fine_to", None, str),
    ("capacity_mw", "capacity", float),
    ("expansion_cost", "expansion_cost", float),
    ("max_expansion_mw", "max_expansion", float),
)
# uc_mode and extremes_included may be absent or empty: relaxed and false
_SCALARS = (
    ("nse_cost", "nse_cost", float),
    ("carbon_fee", "carbon_fee", float),
    ("period_length", None, int),
    ("uc_mode", None, str),
    ("extremes_included", None, str),
)
_PERIODS = (("period", None, int), ("weight", None, float))
_PARTITION = (("fine_region", None, str), ("region", None, str))


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


class _Table:
    """One parsed CSV with row-addressable error reporting. Errors name the
    file by its path."""

    def __init__(self, path: str, required_columns):
        self.name = path
        if not os.path.exists(path):
            raise CaseError(f"{self.name}: missing file")
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            missing = [c for c in required_columns if c not in header]
            if missing:
                raise CaseError(f"{self.name}: schema mismatch, missing columns {missing}")
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
            return kind(raw)
        except ValueError:
            raise CaseError(f"{self.name} row {rowno}: bad value {raw!r} in column {col}") from None

    def record(self, rowno: int, row: dict, columns) -> tuple[dict, list]:
        """The typed cells of a row: those with an entity field by field, the
        others in column order."""
        fields, extras = {}, []
        for col, field, kind in columns:
            value = self.cell(rowno, row, col, kind)
            if field is None:
                extras.append(value)
            else:
                fields[field] = value
        return fields, extras


def _opt_float(table: _Table, rowno: int, row: dict, col: str):
    raw = row.get(col, "")
    if raw == "" or raw is None:
        return None
    return table.cell(rowno, row, col, float)


def read_partition(path: str) -> dict[str, str]:
    """A partition file (a case's partition.csv, or a ladder's partition
    path): fine region -> coarse region, one row per fine region."""
    table = _Table(path, [col for col, _, _ in _PARTITION])
    mapping: dict[str, str] = {}
    for rowno, row in table:
        fine, region = table.record(rowno, row, _PARTITION)[1]
        if fine in mapping:
            raise CaseError(f"{table.name} row {rowno}: duplicate fine region {fine}")
        mapping[fine] = region
    return mapping


def load_system(directory: str) -> SystemCase:
    """Load and validate a case directory. Raises CaseError with file/row
    context on parse problems and with the violation list on invalid cases."""
    if not os.path.isdir(directory):
        raise CaseError(f"{directory}: not a case directory")

    def path(name: str) -> str:
        """A case file as every error names it, so that a failed load of
        one of several case directories says which."""
        return os.path.join(directory, name)

    def table(name: str, columns) -> _Table:
        return _Table(path(name), [col for col, _, _ in columns])

    def hourly(name: str, columns) -> dict[str, dict[int, float]]:
        t = table(name, columns)
        out: dict[str, dict[int, float]] = {}
        for rowno, row in t:
            key, hour, value = t.record(rowno, row, columns)[1]
            byhour = out.setdefault(key, {})
            if hour in byhour:
                raise CaseError(f"{t.name} row {rowno}: duplicate hour {hour} for {key}")
            byhour[hour] = value
        return out

    scalars = table("scalars.csv", _SCALARS[:3])
    if len(scalars.rows) != 1:
        raise CaseError(f"{scalars.name}: expected exactly one row")
    rowno, row = next(iter(scalars))
    scalar_fields, (period_length, uc_mode, extremes_included) = scalars.record(rowno, row, _SCALARS)
    if extremes_included not in ("", "true", "false"):
        raise CaseError(
            f"{scalars.name} row {rowno}: bad value {extremes_included!r} in column extremes_included"
        )

    def series_from(name: str, byhour: dict[int, float]) -> Series:
        hours = len(byhour)
        if sorted(byhour) != list(range(hours)):
            raise CaseError(f"{name}: hours must be contiguous from 0")
        vals = np.array([byhour[h] for h in range(hours)])
        try:
            return Series(vals, period_length)
        except ValueError as exc:
            raise CaseError(f"{name}: {exc}") from None

    regions_t = table("regions.csv", _REGIONS)
    demand = hourly("demand.csv", _DEMAND)
    regions = []
    for rowno, row in regions_t:
        fields = regions_t.record(rowno, row, _REGIONS)[0]
        rid = fields["id"]
        if rid not in demand:
            raise CaseError(f"{regions_t.name} row {rowno}: no demand rows for {rid}")
        demand_of = series_from(f"{path('demand.csv')}: demand for {rid}", demand[rid])
        regions.append(Region(**fields, demand=demand_of))
    known_regions = {r.id for r in regions}
    for region in demand:
        if region not in known_regions:
            raise CaseError(f"{path('demand.csv')}: demand for unknown region {region}")

    profiles = hourly("site_profiles.csv", _PROFILES)
    sites_t = table("sites.csv", _SITES)
    sites = []
    site_cluster: dict[str, str] = {}
    for rowno, row in sites_t:
        fields, (cluster,) = sites_t.record(rowno, row, _SITES)
        sid = fields["id"]
        if sid not in profiles:
            raise CaseError(f"{sites_t.name} row {rowno}: no profile rows for {sid}")
        profile = series_from(f"{path('site_profiles.csv')}: profile for {sid}", profiles[sid])
        site_cluster[sid] = cluster
        sites.append(Site(**fields, annual_cf=float(np.mean(profile.values)), profile=profile))
    for site in profiles:
        if site not in site_cluster:
            raise CaseError(f"{path('site_profiles.csv')}: profile for unknown site {site}")

    units_t = table("units.csv", _UNITS)
    units = [ThermalUnit(**units_t.record(rowno, row, _UNITS)[0]) for rowno, row in units_t]
    unit_cluster = {u.id: u.plant for u in units}

    clusters_t = table("clusters.csv", _CLUSTERS)
    site_by_id = {s.id: s for s in sites}
    clusters = []
    for rowno, row in clusters_t:
        fields = clusters_t.record(rowno, row, _CLUSTERS)[0]
        cid = fields["id"]
        member_sites = sorted(s for s, c in site_cluster.items() if c == cid)
        member_units = sorted(u for u, c in unit_cluster.items() if c == cid)
        if member_sites and member_units:
            raise CaseError(f"{clusters_t.name} row {rowno}: {cid} mixes sites and units")
        profile = None
        thermal = None
        if member_sites:
            profile = vre_aggregate_profile([site_by_id[s] for s in member_sites])
        else:
            params = {field: _opt_float(clusters_t, rowno, row, col) for col, field, _ in _THERMAL}
            if any(p is not None for p in params.values()):
                if any(p is None for p in params.values()):
                    raise CaseError(f"{clusters_t.name} row {rowno}: partial thermal parameters")
                thermal = ThermalParams(**params)
            elif member_units:
                raise CaseError(f"{clusters_t.name} row {rowno}: thermal cluster {cid} lacks parameters")
        members = tuple(member_sites or member_units)
        clusters.append(ResourceCluster(**fields, members=members, aggregate_profile=profile, thermal=thermal))
    known_clusters = {c.id for c in clusters}
    for sid, cid in site_cluster.items():
        if cid not in known_clusters:
            raise CaseError(f"{sites_t.name}: site {sid} references unknown cluster {cid}")
    for uid, cid in unit_cluster.items():
        if cid not in known_clusters:
            raise CaseError(f"{units_t.name}: unit {uid} references unknown plant {cid}")

    storage_t = table("storage.csv", _STORAGE)
    storage = [StorageCluster(**storage_t.record(rowno, row, _STORAGE)[0]) for rowno, row in storage_t]

    lines_t = table("lines.csv", _LINES)
    lines = []
    for rowno, row in lines_t:
        fields, (frm, to, fine_from, fine_to) = lines_t.record(rowno, row, _LINES)
        endpoints = (frm, to) if to else (frm,)
        lines.append(TransmissionLine(**fields, endpoints=endpoints, fine_endpoints=(fine_from, fine_to)))

    weights: tuple[float, ...] = ()
    if os.path.exists(path("periods.csv")):
        periods_t = table("periods.csv", _PERIODS)
        byp = dict(periods_t.record(rowno, row, _PERIODS)[1] for rowno, row in periods_t)
        if sorted(byp) != list(range(len(byp))):
            raise CaseError(f"{periods_t.name}: periods must be contiguous from 0")
        weights = tuple(byp[p] for p in range(len(byp)))

    partition = read_partition(path("partition.csv")) if os.path.exists(path("partition.csv")) else {}

    case = SystemCase(
        regions=tuple(regions),
        sites=tuple(sites),
        units=tuple(units),
        clusters=tuple(clusters),
        storage=tuple(storage),
        lines=tuple(lines),
        **scalar_fields,
        period_weights=weights,
        partition=partition,
        uc_mode=uc_mode or "relaxed",
        extremes_included=extremes_included == "true",
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


def _row(entity, columns, extras=()) -> list:
    """A table row: the entity's fields, and extras for the columns without one."""
    rest = iter(extras)
    return [getattr(entity, field) if field else next(rest) for _, field, _ in columns]


def write_case(case: SystemCase, directory: str) -> str:
    """Serialize a case to a directory, overwriting existing files."""
    os.makedirs(directory, exist_ok=True)

    def write(name: str, columns, rows) -> None:
        write_csv(os.path.join(directory, name), [col for col, _, _ in columns], rows)

    owner = case.cluster_of_member
    no_thermal = [""] * len(_THERMAL)
    write("regions.csv", _REGIONS, [_row(r, _REGIONS) for r in case.regions])
    write(
        "demand.csv",
        _DEMAND,
        ((r.id, h, mw) for r in case.regions for h, mw in enumerate(r.demand.values.tolist())),
    )
    write("sites.csv", _SITES, (_row(s, _SITES, (owner.get(s.id, ""),)) for s in case.sites))
    write(
        "site_profiles.csv",
        _PROFILES,
        ((s.id, h, cf) for s in case.sites for h, cf in enumerate(s.profile.values.tolist())),
    )
    write("units.csv", _UNITS, (_row(u, _UNITS) for u in case.units))
    write(
        "clusters.csv",
        _CLUSTERS + _THERMAL,
        (_row(c, _CLUSTERS) + (_row(c.thermal, _THERMAL) if c.thermal else no_thermal) for c in case.clusters),
    )
    write("storage.csv", _STORAGE, (_row(s, _STORAGE) for s in case.storage))
    write("lines.csv", _LINES, (_row(l, _LINES, (l.endpoints + ("",))[:2] + l.fine_endpoints) for l in case.lines))
    scalars = (case.period_length, case.uc_mode, case.extremes_included)
    write("scalars.csv", _SCALARS, [_row(case, _SCALARS, scalars)])
    write("periods.csv", _PERIODS, enumerate(case.period_weights))
    write("partition.csv", _PARTITION, sorted(case.partition.items()))
    return directory
