"""Core system model: regions, sites, units, clusters, storage, lines.

A SystemCase is one self-contained planning problem at some spatial and
temporal resolution. Monetary values are annualized $ per year of the case's
own horizon ($/MW-yr, $/MWh-yr) at point of use; power is MW, energy MWh,
emissions tCO2. The atomic timestep is one hour.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

VRE_TECHS = ("solar", "onshore_wind", "offshore_fixed", "offshore_floating")
WIND_TECHS = ("onshore_wind", "offshore_fixed", "offshore_floating")
LINE_KINDS = ("interregional", "backbone", "spur")
UC_MODES = ("relaxed", "none")

# Urban areas above this population are transmission sinks everywhere.
URBAN_SINK_POPULATION = 1_000_000


@dataclass(frozen=True, eq=False)
class Series:
    """Hourly values spanning whole periods (weeks or days, typically)."""

    values: np.ndarray  # (hours,) float64
    period_length: int  # hours per period

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1:
            raise ValueError("series values must be one-dimensional")
        if self.period_length < 1:
            raise ValueError("period_length must be positive")
        if vals.size % self.period_length != 0:
            raise ValueError(
                f"{vals.size} hours not divisible by period_length {self.period_length}"
            )

    @property
    def hours(self) -> int:
        return int(self.values.size)

    @property
    def n_periods(self) -> int:
        return self.hours // self.period_length

    # compared by value; unhashable, like the array it holds
    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.period_length == other.period_length and np.array_equal(self.values, other.values)

    __hash__ = None


@dataclass(frozen=True)
class Region:
    id: str
    urban_population: int
    reserve_margin: float  # fraction of peak demand, phase-1 only
    demand: Series  # MW per hour


@dataclass(frozen=True)
class Site:
    """Candidate VRE site, always anchored to the finest geography."""

    id: str
    fine_region: str
    tech: str  # one of VRE_TECHS
    capacity_limit: float  # MW
    lcoe: float  # $/MWh
    annual_cf: float  # mean capacity factor over the case year
    profile: Series  # hourly cf in [0, 1]
    spur_cost: float  # $/MW-yr, folded into cluster fixed cost
    spur_capacity: float  # MW, equals capacity_limit when built


@dataclass(frozen=True)
class ThermalUnit:
    id: str
    fine_region: str
    plant: str  # owning thermal cluster id
    capacity: float  # MW
    heat_rate: float  # MMBtu/MWh
    min_output: float  # fraction of committed capacity
    ramp_rate: float  # fraction of capacity per hour
    start_cost: float  # $/MW-start
    emission_factor: float  # tCO2/MMBtu
    fuel_cost: float  # $/MMBtu
    vom: float  # $/MWh


@dataclass(frozen=True)
class ThermalParams:
    """Cluster-level operating parameters (capacity-weighted over members)."""

    heat_rate: float
    min_output: float
    ramp_rate: float
    start_cost: float
    emission_factor: float
    fuel_cost: float
    vom: float

    def marginal_cost(self, carbon_fee: float) -> float:
        return self.fuel_cost * self.heat_rate + self.vom + carbon_fee * self.heat_rate * self.emission_factor


@dataclass(frozen=True)
class ResourceCluster:
    """Investable resource group; the unit the optimizer actually sees."""

    id: str
    region: str
    tech: str
    members: tuple[str, ...]  # site ids (VRE) or unit ids (thermal)
    existing_capacity: float  # MW
    max_new_capacity: float  # MW
    fixed_cost: float  # $/MW-yr on new builds
    fom_cost: float = 0.0  # $/MW-yr on all live capacity, avoided by retirement
    aggregate_profile: Series | None = None  # VRE only
    thermal: ThermalParams | None = None  # thermal only

    @property
    def is_vre(self) -> bool:
        return self.tech in VRE_TECHS


@dataclass(frozen=True)
class StorageCluster:
    id: str
    region: str
    power_cost: float  # $/MW-yr on new power capacity
    energy_cost: float  # $/MWh-yr on new energy capacity
    efficiency_rt: float  # round-trip, applied on charge
    existing_power: float  # MW
    existing_energy: float  # MWh


@dataclass(frozen=True)
class TransmissionLine:
    """Interregional lines are optimized; backbone and spur lines carry the
    fine-geography topology needed to translate solutions back down."""

    id: str
    kind: str  # one of LINE_KINDS
    endpoints: tuple[str, ...]  # two regions (interregional) or one (backbone/spur)
    fine_endpoints: tuple[str, str]
    capacity: float  # MW
    expansion_cost: float  # $/MW-yr
    max_expansion: float  # MW


@dataclass(frozen=True)
class Violation:
    entity: str
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"{self.entity}: {self.rule} ({self.detail})"


class CaseError(ValueError):
    """Raised when a case cannot be loaded or fails validation."""

    def __init__(self, message: str, violations: list[Violation] | None = None):
        super().__init__(message)
        self.violations = violations or []


def _sorted_by_id(items):
    return tuple(sorted(items, key=lambda x: x.id))


@dataclass(frozen=True)
class SystemCase:
    regions: tuple[Region, ...]
    sites: tuple[Site, ...]
    units: tuple[ThermalUnit, ...]
    clusters: tuple[ResourceCluster, ...]
    storage: tuple[StorageCluster, ...]
    lines: tuple[TransmissionLine, ...]
    nse_cost: float  # $/MWh
    carbon_fee: float  # $/tCO2
    period_weights: tuple[float, ...] = ()
    partition: dict = field(default_factory=dict)  # fine region -> region
    # the unit-commitment mode (UC_MODES) the case is expanded under, set
    # when a combo's case is aggregated; dispatch at full resolution is
    # always relaxed
    uc_mode: str = "relaxed"
    extremes_included: bool = False

    def __post_init__(self):
        object.__setattr__(self, "regions", _sorted_by_id(self.regions))
        object.__setattr__(self, "sites", _sorted_by_id(self.sites))
        object.__setattr__(self, "units", _sorted_by_id(self.units))
        object.__setattr__(self, "clusters", _sorted_by_id(self.clusters))
        object.__setattr__(self, "storage", _sorted_by_id(self.storage))
        object.__setattr__(self, "lines", _sorted_by_id(self.lines))
        if not self.partition:
            object.__setattr__(self, "partition", {r.id: r.id for r in self.regions})
        if not self.period_weights and self.regions:
            object.__setattr__(self, "period_weights", (1.0,) * self.n_periods)
        else:
            object.__setattr__(self, "period_weights", tuple(float(w) for w in self.period_weights))

    # -- shape -----------------------------------------------------------

    @property
    def hours(self) -> int:
        return self.regions[0].demand.hours

    @property
    def period_length(self) -> int:
        return self.regions[0].demand.period_length

    @property
    def n_periods(self) -> int:
        return self.regions[0].demand.n_periods

    # -- lookups ---------------------------------------------------------

    @cached_property
    def region_by_id(self) -> dict:
        return {r.id: r for r in self.regions}

    @cached_property
    def site_by_id(self) -> dict:
        return {s.id: s for s in self.sites}

    @cached_property
    def unit_by_id(self) -> dict:
        return {u.id: u for u in self.units}

    @cached_property
    def cluster_by_id(self) -> dict:
        return {c.id: c for c in self.clusters}

    @cached_property
    def storage_by_id(self) -> dict:
        return {s.id: s for s in self.storage}

    @cached_property
    def line_by_id(self) -> dict:
        return {l.id: l for l in self.lines}

    @cached_property
    def cluster_of_member(self) -> dict:
        owner: dict = {}
        for c in self.clusters:
            for m in c.members:
                owner[m] = c.id
        return owner

    @property
    def vre_clusters(self) -> tuple[ResourceCluster, ...]:
        return tuple(c for c in self.clusters if c.is_vre)

    @property
    def thermal_clusters(self) -> tuple[ResourceCluster, ...]:
        return tuple(c for c in self.clusters if not c.is_vre)

    @property
    def interregional_lines(self) -> tuple[TransmissionLine, ...]:
        return tuple(l for l in self.lines if l.kind == "interregional")

    @cached_property
    def fine_regions(self) -> tuple[str, ...]:
        return tuple(sorted(self.partition))

    def with_updates(self, **kwargs) -> "SystemCase":
        return replace(self, **kwargs)


# -- shared numerics -----------------------------------------------------


def weighted_mean(values, weights) -> float:
    """Capacity-weighted mean; singleton groups pass through bit-exactly."""
    values = list(values)
    weights = list(weights)
    if len(values) == 1:
        return float(values[0])
    total = float(sum(weights))
    if total == 0.0:
        return float(sum(values)) / len(values)
    return float(sum(v * w for v, w in zip(values, weights)) / total)


def vre_aggregate_profile(sites: list[Site]) -> Series:
    """Capacity-weighted hourly profile over member sites."""
    if not sites:
        raise ValueError("cannot build a profile from zero sites")
    if len(sites) == 1:
        return sites[0].profile
    caps = np.array([s.capacity_limit for s in sites])
    total = caps.sum()
    stacked = np.vstack([s.profile.values for s in sites])
    if total == 0.0:
        vals = stacked.mean(axis=0)
    else:
        vals = (caps[:, None] * stacked).sum(axis=0) / total
    return Series(vals, sites[0].profile.period_length)


def derive_thermal_params(units: list[ThermalUnit]) -> ThermalParams:
    """Capacity-weighted operating parameters for a thermal cluster."""
    if not units:
        raise ValueError("cannot derive thermal parameters from zero units")
    caps = [u.capacity for u in units]
    return ThermalParams(
        heat_rate=weighted_mean([u.heat_rate for u in units], caps),
        min_output=weighted_mean([u.min_output for u in units], caps),
        ramp_rate=weighted_mean([u.ramp_rate for u in units], caps),
        start_cost=weighted_mean([u.start_cost for u in units], caps),
        emission_factor=weighted_mean([u.emission_factor for u in units], caps),
        fuel_cost=weighted_mean([u.fuel_cost for u in units], caps),
        vom=weighted_mean([u.vom for u in units], caps),
    )


def site_fixed_cost(site: Site, hours: int) -> float:
    """Annualized $/MW-yr of building the site, spur hookup included.

    LCOE prices delivered energy, so cost per MW over the case year is
    lcoe * cf * hours, plus the spur charge.
    """
    return site.lcoe * site.annual_cf * hours + site.spur_cost


# -- validation ----------------------------------------------------------


def validate(case: SystemCase) -> list[Violation]:
    """Structural and referential checks. Returns all violations found."""
    out: list[Violation] = []

    def bad(entity: str, rule: str, detail: str):
        out.append(Violation(entity, rule, detail))

    if not case.regions:
        bad("case", "nonempty", "a case needs at least one region")
        return out

    ids: list[str] = []
    for group in (case.regions, case.sites, case.units, case.clusters, case.storage, case.lines):
        seen: set = set()
        for item in group:
            if item.id in seen:
                bad(item.id, "unique-id", "duplicate id within entity table")
            seen.add(item.id)
            ids.append(item.id)

    hours = case.regions[0].demand.hours
    plen = case.regions[0].demand.period_length
    for r in case.regions:
        if r.demand.hours != hours or r.demand.period_length != plen:
            bad(r.id, "aligned-demand", "all regions must share hours and period_length")
        if np.any(r.demand.values < 0):
            bad(r.id, "nonnegative-demand", "demand has negative entries")
        if r.urban_population < 0:
            bad(r.id, "nonnegative-population", str(r.urban_population))
        if r.reserve_margin < 0:
            bad(r.id, "nonnegative-reserve-margin", str(r.reserve_margin))

    if len(case.period_weights) != case.n_periods:
        bad("case", "weights-shape", f"{len(case.period_weights)} weights for {case.n_periods} periods")
    if any(w <= 0 for w in case.period_weights):
        bad("case", "positive-weights", "period weights must be > 0")
    if case.nse_cost <= 0:
        bad("case", "positive-nse-cost", str(case.nse_cost))
    if case.carbon_fee < 0:
        bad("case", "nonnegative-carbon-fee", str(case.carbon_fee))
    if case.uc_mode not in UC_MODES:
        bad("case", "uc-mode", case.uc_mode)

    fine_universe = set(case.partition)
    region_ids = set(case.region_by_id)
    for fine, coarse in case.partition.items():
        if coarse not in region_ids:
            bad(fine, "partition-image", f"maps to unknown region {coarse}")

    owner = case.cluster_of_member
    spur_ids = {l.id for l in case.lines if l.kind == "spur"}

    for s in case.sites:
        if s.tech not in VRE_TECHS:
            bad(s.id, "vre-tech", s.tech)
        if s.fine_region not in fine_universe:
            bad(s.id, "known-fine-region", s.fine_region)
        if s.capacity_limit <= 0:
            bad(s.id, "positive-capacity-limit", str(s.capacity_limit))
        if s.lcoe <= 0:
            bad(s.id, "positive-lcoe", str(s.lcoe))
        if not (0.0 <= s.annual_cf <= 1.0):
            bad(s.id, "cf-range", str(s.annual_cf))
        if s.profile.hours != hours or s.profile.period_length != plen:
            bad(s.id, "aligned-profile", "site profile misaligned with demand")
        if np.any(s.profile.values < 0) or np.any(s.profile.values > 1):
            bad(s.id, "profile-range", "profile outside [0, 1]")
        if s.id not in owner:
            bad(s.id, "clustered", "site belongs to no cluster")
        if f"spur_{s.id}" not in spur_ids:
            bad(s.id, "spur-line", "no spur line spur_<site> present")
        else:
            spur = case.line_by_id[f"spur_{s.id}"]
            if spur.capacity != s.spur_capacity:
                bad(s.id, "spur-capacity", "spur line capacity != site spur_capacity")
            if spur.fine_endpoints[0] != s.fine_region:
                bad(s.id, "spur-origin", "spur line does not start at the site's fine region")
        if s.spur_capacity != s.capacity_limit:
            bad(s.id, "spur-equals-limit", f"{s.spur_capacity} != {s.capacity_limit}")

    for u in case.units:
        if u.fine_region not in fine_universe:
            bad(u.id, "known-fine-region", u.fine_region)
        if u.capacity < 0:
            bad(u.id, "nonnegative-capacity", str(u.capacity))
        if u.heat_rate <= 0:
            bad(u.id, "positive-heat-rate", str(u.heat_rate))
        if not (0.0 <= u.min_output <= 1.0):
            bad(u.id, "min-output-range", str(u.min_output))
        if not (0.0 < u.ramp_rate <= 1.0):
            bad(u.id, "ramp-range", str(u.ramp_rate))
        # the plant column is the ownership pointer; it must agree with the
        # owning cluster's member list
        if u.id not in owner:
            bad(u.id, "clustered", "unit belongs to no cluster")
        elif owner[u.id] != u.plant:
            bad(u.id, "plant-pointer", f"plant {u.plant} but clustered under {owner[u.id]}")

    for c in case.clusters:
        if c.region not in region_ids:
            bad(c.id, "known-region", c.region)
        if c.existing_capacity < 0 or c.max_new_capacity < 0:
            bad(c.id, "nonnegative-capacity", "existing/max_new must be >= 0")
        if c.fixed_cost < 0 or c.fom_cost < 0:
            bad(c.id, "nonnegative-cost", "fixed/fom must be >= 0")
        if c.is_vre:
            if not c.members:
                bad(c.id, "vre-members", "VRE cluster without member sites")
            if c.aggregate_profile is None:
                bad(c.id, "vre-profile", "VRE cluster without aggregate profile")
            elif np.any(c.aggregate_profile.values < 0) or np.any(c.aggregate_profile.values > 1):
                bad(c.id, "profile-range", "aggregate profile outside [0, 1]")
            for m in c.members:
                site = case.site_by_id.get(m)
                if site is None:
                    bad(c.id, "member-exists", m)
                else:
                    if site.tech != c.tech:
                        bad(c.id, "member-tech", f"{m} is {site.tech}, cluster is {c.tech}")
                    if case.partition.get(site.fine_region) != c.region:
                        bad(c.id, "member-region", f"{m} maps outside {c.region}")
        else:
            if c.thermal is None:
                bad(c.id, "thermal-params", "thermal cluster without operating parameters")
            for m in c.members:
                unit = case.unit_by_id.get(m)
                if unit is None:
                    bad(c.id, "member-exists", m)
                elif case.partition.get(unit.fine_region) != c.region:
                    bad(c.id, "member-region", f"{m} maps outside {c.region}")

    for st in case.storage:
        if st.region not in region_ids:
            bad(st.id, "known-region", st.region)
        if not (0.0 < st.efficiency_rt <= 1.0):
            bad(st.id, "efficiency-range", str(st.efficiency_rt))
        if st.existing_power < 0 or st.existing_energy < 0:
            bad(st.id, "nonnegative-capacity", "existing power/energy must be >= 0")

    for l in case.lines:
        if l.kind not in LINE_KINDS:
            bad(l.id, "line-kind", l.kind)
            continue
        if l.capacity < 0 or l.max_expansion < 0 or l.expansion_cost < 0:
            bad(l.id, "nonnegative-line", "capacity/expansion fields must be >= 0")
        for f in l.fine_endpoints:
            if f not in fine_universe:
                bad(l.id, "known-fine-endpoint", f)
        if l.kind == "interregional":
            if len(l.endpoints) != 2 or l.endpoints[0] == l.endpoints[1]:
                bad(l.id, "two-distinct-endpoints", str(l.endpoints))
            for e in l.endpoints:
                if e not in region_ids:
                    bad(l.id, "known-endpoint", e)
            if len(l.endpoints) == 2 and all(f in fine_universe for f in l.fine_endpoints):
                image = {case.partition[f] for f in l.fine_endpoints}
                if image != set(l.endpoints):
                    bad(l.id, "endpoint-consistency", "fine endpoints map to different regions")
        else:
            if len(l.endpoints) != 1 or l.endpoints[0] not in region_ids:
                bad(l.id, "one-known-endpoint", str(l.endpoints))

    # spur lines must belong to actual sites
    site_ids = set(case.site_by_id)
    for l in case.lines:
        if l.kind == "spur" and not (l.id.startswith("spur_") and l.id[5:] in site_ids):
            bad(l.id, "spur-owner", "spur line without matching site")

    return out


def require_valid(case: SystemCase) -> SystemCase:
    violations = validate(case)
    if violations:
        lines = "; ".join(str(v) for v in violations[:8])
        more = "" if len(violations) <= 8 else f" (+{len(violations) - 8} more)"
        raise CaseError(f"invalid case: {lines}{more}", violations)
    return case
