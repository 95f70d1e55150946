"""Expansion and operations LPs over a SystemCase.

One builder covers three uses that must stay structurally identical:

* monolithic capacity expansion (investments free, one chronology block per
  representative period, optional per-region reserve rows),
* decomposition subproblems (one period, investments pinned by bounds, no
  investment cost in the objective),
* production-cost runs (all hours as a single cyclic year block, investments
  pinned from a portfolio, line capacities overridden, fixed costs sunk).

Chronology is cyclic within each block: state of charge, ramps and
commitment linking wrap from the last hour of a block to its first. Every
balance row carries non-served energy (bounded by demand) and a free
surplus/dump column, so operations are feasible for any capacity vector and
balance duals stay inside [0, nse_cost].

Unit commitment modes: "relaxed" uses a continuous committed-capacity
variable with startup costs on increases and gen in [min_output*c, c];
"none" drops commitment and forces gen >= min_output * live capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lp import EQ, GE, LE, LinearProgram, LpBuilder, Solution
from .model import ResourceCluster, StorageCluster, SystemCase, TransmissionLine

PRICE_TOL = 1e-6


@dataclass(frozen=True)
class BuildOptions:
    uc: str = "relaxed"
    reserve: bool = True
    periods: tuple[int, ...] | None = None  # None = all representative periods
    year_chronology: bool = False  # single cyclic block spanning all hours
    fix: dict | None = None  # investment var name -> pinned value
    include_investment_cost: bool = True
    line_capacity_override: dict | None = None  # line id -> operating MW


@dataclass
class VarIndex:
    """Column/row handles into a built LP."""

    inv: dict = field(default_factory=dict)  # investment var name -> col
    gen: dict = field(default_factory=dict)  # (cluster, k) -> col
    commit: dict = field(default_factory=dict)
    start: dict = field(default_factory=dict)
    shut: dict = field(default_factory=dict)
    charge: dict = field(default_factory=dict)
    discharge: dict = field(default_factory=dict)
    soc: dict = field(default_factory=dict)
    flow_fwd: dict = field(default_factory=dict)
    flow_rev: dict = field(default_factory=dict)
    nse: dict = field(default_factory=dict)
    spill: dict = field(default_factory=dict)
    balance_row: dict = field(default_factory=dict)  # (region, k) -> row
    hours: list = field(default_factory=list)  # global hour index per k
    hour_weight: np.ndarray = field(default_factory=lambda: np.zeros(0))


# The one encoding of investment decisions: every investment column is named
# "<prefix>[<entity id>]", and its prefix maps to the ExpansionSolution field
# that holds the decision. Everything else derives from this table.
INVESTMENT_PREFIXES = {
    "vre_new": "xv",
    "thermal_new": "xg",
    "thermal_retired": "ret",
    "storage_new_power": "xp",
    "storage_new_energy": "xe",
    "line_expansion": "xl",
}
_KIND_OF_PREFIX = {prefix: kind for kind, prefix in INVESTMENT_PREFIXES.items()}


def investment_name(kind: str, eid: str) -> str:
    return f"{INVESTMENT_PREFIXES[kind]}[{eid}]"


def investment_entries(case: SystemCase):
    """Ordered investment variables: (name, kind, entity id, lo, hi, cost),
    where kind is the ExpansionSolution field holding the decision.

    The order is the shared contract between monolithic LPs, decomposition
    masters and subproblems.
    """

    def entry(kind, eid, hi, cost):
        return (investment_name(kind, eid), kind, eid, 0.0, hi, cost)

    entries = []
    for c in case.vre_clusters:
        entries.append(entry("vre_new", c.id, c.max_new_capacity, c.fixed_cost + c.fom_cost))
    for c in case.thermal_clusters:
        entries.append(entry("thermal_new", c.id, c.max_new_capacity, c.fixed_cost + c.fom_cost))
    for c in case.thermal_clusters:
        entries.append(entry("thermal_retired", c.id, c.existing_capacity, -c.fom_cost))
    for s in case.storage:
        entries.append(entry("storage_new_power", s.id, np.inf, s.power_cost))
    for s in case.storage:
        entries.append(entry("storage_new_energy", s.id, np.inf, s.energy_cost))
    for l in case.interregional_lines:
        entries.append(entry("line_expansion", l.id, l.max_expansion, l.expansion_cost))
    return entries


def fixed_cost(case: SystemCase, values: dict) -> float:
    """Annualized investment plus fixed O&M on live capacity for named
    investment values, summed entity by entity in case order."""

    def v(kind, eid):
        return values[investment_name(kind, eid)]

    total = 0.0
    for c in case.vre_clusters:
        new = v("vre_new", c.id)
        total += c.fixed_cost * new + c.fom_cost * (c.existing_capacity + new)
    for c in case.thermal_clusters:
        new = v("thermal_new", c.id)
        live = c.existing_capacity - v("thermal_retired", c.id) + new
        total += c.fixed_cost * new + c.fom_cost * live
    for s in case.storage:
        total += s.power_cost * v("storage_new_power", s.id) + s.energy_cost * v("storage_new_energy", s.id)
    for l in case.interregional_lines:
        total += l.expansion_cost * v("line_expansion", l.id)
    return total


@dataclass
class InvestmentVector:
    """Just the investment decisions of an expansion solution, enough to
    drive translation without the dispatch series."""

    vre_new: dict = field(default_factory=dict)
    thermal_new: dict = field(default_factory=dict)
    thermal_retired: dict = field(default_factory=dict)
    storage_new_power: dict = field(default_factory=dict)
    storage_new_energy: dict = field(default_factory=dict)
    line_expansion: dict = field(default_factory=dict)

    @classmethod
    def from_named_values(cls, values: dict) -> "InvestmentVector":
        """Parse {"xv[c]": mw, "xg[c]": ..., ...} as written by
        ExpansionSolution.investment_values."""
        out = cls()
        for name, value in values.items():
            prefix, _, rest = name.partition("[")
            if prefix not in _KIND_OF_PREFIX or not rest.endswith("]"):
                raise ValueError(f"unrecognized investment variable {name!r}")
            getattr(out, _KIND_OF_PREFIX[prefix])[rest[:-1]] = float(value)
        return out


def add_investment_columns(case: SystemCase, b: LpBuilder, ix: VarIndex, fix=None, include_cost=True) -> None:
    """Investment columns in investment_entries order, pinned where fix
    names them; with costs, the fixed O&M of existing capacity is the
    objective offset."""
    fix = fix or {}
    for name, _kind, _eid, lo, hi, cost in investment_entries(case):
        if name in fix:
            lo = hi = float(fix[name])
        ix.inv[name] = b.var(name, lo, hi, cost if include_cost else 0.0)
    if include_cost:
        for c in case.clusters:
            b.obj_offset += c.fom_cost * c.existing_capacity


def _blocks(case: SystemCase, opts: BuildOptions):
    """Chronology blocks as (global hour indices, weight per hour array)."""
    plen = case.period_length
    periods = opts.periods if opts.periods is not None else tuple(range(case.n_periods))
    per_period = [
        (list(range(p * plen, (p + 1) * plen)), np.full(plen, case.period_weights[p]))
        for p in periods
    ]
    if opts.year_chronology:
        hours = [h for hs, _ in per_period for h in hs]
        weights = np.concatenate([w for _, w in per_period])
        return [(hours, weights)]
    return per_period


def build_lp(case: SystemCase, opts: BuildOptions) -> tuple[LinearProgram, VarIndex]:
    b = LpBuilder()
    ix = VarIndex()
    override = opts.line_capacity_override or {}
    add_investment_columns(case, b, ix, opts.fix, opts.include_investment_cost)

    blocks = _blocks(case, opts)
    ix.hours = [h for hours, _w in blocks for h in hours]
    ix.hour_weight = np.concatenate([w for _hours, w in blocks])

    demand = {r.id: r.demand.values for r in case.regions}

    # -- operations columns, block by block ----------------------------------
    k0 = 0
    for hours, w in blocks:
        nk = len(hours)
        for c in case.vre_clusters:
            for k in range(nk):
                ix.gen[(c.id, k0 + k)] = b.var(f"g[{c.id},{k0 + k}]")
        for c in case.thermal_clusters:
            mc = c.thermal.marginal_cost(case.carbon_fee)
            for k in range(nk):
                ix.gen[(c.id, k0 + k)] = b.var(f"g[{c.id},{k0 + k}]", obj=w[k] * mc)
            if opts.uc == "relaxed":
                for k in range(nk):
                    ix.commit[(c.id, k0 + k)] = b.var(f"c[{c.id},{k0 + k}]")
                for k in range(nk):
                    ix.start[(c.id, k0 + k)] = b.var(
                        f"su[{c.id},{k0 + k}]", obj=w[k] * c.thermal.start_cost
                    )
                for k in range(nk):
                    ix.shut[(c.id, k0 + k)] = b.var(f"sd[{c.id},{k0 + k}]")
        for s in case.storage:
            for k in range(nk):
                ix.charge[(s.id, k0 + k)] = b.var(f"ch[{s.id},{k0 + k}]")
            for k in range(nk):
                ix.discharge[(s.id, k0 + k)] = b.var(f"dis[{s.id},{k0 + k}]")
            for k in range(nk):
                ix.soc[(s.id, k0 + k)] = b.var(f"soc[{s.id},{k0 + k}]")
        for l in case.interregional_lines:
            cap = override.get(l.id)
            hi = cap if cap is not None else np.inf
            for k in range(nk):
                ix.flow_fwd[(l.id, k0 + k)] = b.var(f"f+[{l.id},{k0 + k}]", 0.0, hi)
            for k in range(nk):
                ix.flow_rev[(l.id, k0 + k)] = b.var(f"f-[{l.id},{k0 + k}]", 0.0, hi)
        for r in case.regions:
            dvals = demand[r.id]
            for k in range(nk):
                ix.nse[(r.id, k0 + k)] = b.var(
                    f"nse[{r.id},{k0 + k}]", 0.0, dvals[hours[k]], w[k] * case.nse_cost
                )
            for k in range(nk):
                ix.spill[(r.id, k0 + k)] = b.var(f"sp[{r.id},{k0 + k}]")
        k0 += nk

    # -- rows ------------------------------------------------------------------
    k0 = 0
    for hours, w in blocks:
        nk = len(hours)
        for k in range(nk):
            kk = k0 + k
            h = hours[k]
            for r in case.regions:
                terms = [(ix.nse[(r.id, kk)], 1.0), (ix.spill[(r.id, kk)], -1.0)]
                for c in case.clusters:
                    if c.region == r.id:
                        terms.append((ix.gen[(c.id, kk)], 1.0))
                for s in case.storage:
                    if s.region == r.id:
                        terms.append((ix.discharge[(s.id, kk)], 1.0))
                        terms.append((ix.charge[(s.id, kk)], -1.0))
                for l in case.interregional_lines:
                    if l.endpoints[0] == r.id:
                        terms.append((ix.flow_fwd[(l.id, kk)], -1.0))
                        terms.append((ix.flow_rev[(l.id, kk)], 1.0))
                    elif l.endpoints[1] == r.id:
                        terms.append((ix.flow_fwd[(l.id, kk)], 1.0))
                        terms.append((ix.flow_rev[(l.id, kk)], -1.0))
                ix.balance_row[(r.id, kk)] = b.row(
                    f"bal[{r.id},{kk}]", EQ, demand[r.id][h], terms
                )

        for c in case.vre_clusters:
            xv = ix.inv[investment_name("vre_new", c.id)]
            prof = c.aggregate_profile.values
            for k in range(nk):
                rho = prof[hours[k]]
                b.row(
                    f"vcap[{c.id},{k0 + k}]",
                    LE,
                    rho * c.existing_capacity,
                    [(ix.gen[(c.id, k0 + k)], 1.0), (xv, -rho)],
                )

        for c in case.thermal_clusters:
            xg = ix.inv[investment_name("thermal_new", c.id)]
            ret = ix.inv[investment_name("thermal_retired", c.id)]
            th = c.thermal
            e0 = c.existing_capacity
            for k in range(nk):
                kk = k0 + k
                prev = k0 + (k - 1) % nk
                g = ix.gen[(c.id, kk)]
                if opts.uc == "relaxed":
                    cm = ix.commit[(c.id, kk)]
                    b.row(f"ccap[{c.id},{kk}]", LE, e0, [(cm, 1.0), (xg, -1.0), (ret, 1.0)])
                    b.row(f"gc[{c.id},{kk}]", LE, 0.0, [(g, 1.0), (cm, -1.0)])
                    if th.min_output > 0:
                        b.row(f"gmin[{c.id},{kk}]", GE, 0.0, [(g, 1.0), (cm, -th.min_output)])
                    b.row(
                        f"link[{c.id},{kk}]",
                        EQ,
                        0.0,
                        [
                            (cm, 1.0),
                            (ix.commit[(c.id, prev)], -1.0),
                            (ix.start[(c.id, kk)], -1.0),
                            (ix.shut[(c.id, kk)], 1.0),
                        ],
                    )
                else:
                    b.row(f"gcap[{c.id},{kk}]", LE, e0, [(g, 1.0), (xg, -1.0), (ret, 1.0)])
                    if th.min_output > 0:
                        b.row(
                            f"gmin[{c.id},{kk}]",
                            GE,
                            th.min_output * e0,
                            [(g, 1.0), (xg, -th.min_output), (ret, th.min_output)],
                        )
                if th.ramp_rate < 1.0:
                    gp = ix.gen[(c.id, prev)]
                    r = th.ramp_rate
                    b.row(
                        f"rup[{c.id},{kk}]", LE, r * e0,
                        [(g, 1.0), (gp, -1.0), (xg, -r), (ret, r)],
                    )
                    b.row(
                        f"rdn[{c.id},{kk}]", LE, r * e0,
                        [(gp, 1.0), (g, -1.0), (xg, -r), (ret, r)],
                    )

        for s in case.storage:
            xp = ix.inv[investment_name("storage_new_power", s.id)]
            xe = ix.inv[investment_name("storage_new_energy", s.id)]
            for k in range(nk):
                kk = k0 + k
                prev = k0 + (k - 1) % nk
                b.row(
                    f"soc[{s.id},{kk}]",
                    EQ,
                    0.0,
                    [
                        (ix.soc[(s.id, kk)], 1.0),
                        (ix.soc[(s.id, prev)], -1.0),
                        (ix.charge[(s.id, kk)], -s.efficiency_rt),
                        (ix.discharge[(s.id, kk)], 1.0),
                    ],
                )
                b.row(f"emax[{s.id},{kk}]", LE, s.existing_energy, [(ix.soc[(s.id, kk)], 1.0), (xe, -1.0)])
                b.row(f"chp[{s.id},{kk}]", LE, s.existing_power, [(ix.charge[(s.id, kk)], 1.0), (xp, -1.0)])
                b.row(f"dsp[{s.id},{kk}]", LE, s.existing_power, [(ix.discharge[(s.id, kk)], 1.0), (xp, -1.0)])

        for l in case.interregional_lines:
            if l.id in override:
                continue  # flow bounds already carry the operating capacity
            xl = ix.inv[investment_name("line_expansion", l.id)]
            for k in range(nk):
                kk = k0 + k
                b.row(f"fw[{l.id},{kk}]", LE, l.capacity, [(ix.flow_fwd[(l.id, kk)], 1.0), (xl, -1.0)])
                b.row(f"rv[{l.id},{kk}]", LE, l.capacity, [(ix.flow_rev[(l.id, kk)], 1.0), (xl, -1.0)])
        k0 += nk

    if opts.reserve:
        add_reserve_rows(case, b, ix)

    return b.build(), ix


def add_reserve_rows(case: SystemCase, b: LpBuilder, ix: VarIndex) -> None:
    """Per-region firm capacity >= (1 + margin) * peak demand. VRE counts at
    its period-max profile over the case's own hours, storage at power."""
    for r in case.regions:
        peak = float(np.max(r.demand.values))
        rhs = (1.0 + r.reserve_margin) * peak
        terms = []
        for c in case.thermal_clusters:
            if c.region == r.id:
                terms.append((ix.inv[investment_name("thermal_new", c.id)], 1.0))
                terms.append((ix.inv[investment_name("thermal_retired", c.id)], -1.0))
                rhs -= c.existing_capacity
        for c in case.vre_clusters:
            if c.region == r.id:
                credit = float(np.max(c.aggregate_profile.values))
                terms.append((ix.inv[investment_name("vre_new", c.id)], credit))
                rhs -= credit * c.existing_capacity
        for s in case.storage:
            if s.region == r.id:
                terms.append((ix.inv[investment_name("storage_new_power", s.id)], 1.0))
                rhs -= s.existing_power
        b.row(f"reserve[{r.id}]", GE, rhs, terms)


def build_expansion_lp(case: SystemCase, uc: str | None = None, reserve: bool = True):
    """Monolithic phase-1 LP: weighted operations plus free investments."""
    opts = BuildOptions(uc=uc or case.uc_mode, reserve=reserve)
    return build_lp(case, opts)


def build_operations_lp(case: SystemCase, portfolio, uc: str | None = None):
    """Phase-2 production-cost LP: full cyclic chronology, capacities pinned
    to the portfolio, no reserve rows, investment costs sunk (objective is
    weighted operational cost only)."""
    fix = dict(portfolio.investment_fixing(case))
    override = dict(portfolio.line_capacity)
    opts = BuildOptions(
        uc=uc or case.uc_mode,
        reserve=False,
        year_chronology=True,
        fix=fix,
        include_investment_cost=False,
        line_capacity_override=override,
    )
    return build_lp(case, opts)


# -- solution extraction ------------------------------------------------------


@dataclass
class ExpansionSolution:
    """Primal decision summary for one solved planning or operations LP."""

    objective: float
    fixed_cost: float
    variable_cost: float  # fuel + vom + startup
    nse_cost_total: float
    carbon_fee_cost: float
    vre_new: dict
    thermal_new: dict
    thermal_retired: dict
    storage_new_power: dict
    storage_new_energy: dict
    line_expansion: dict
    dispatch: dict  # cluster id -> MWh per included hour
    startups: dict  # cluster id -> MW started per hour (empty when uncommitted)
    charge: dict
    discharge: dict
    soc: dict
    flow_net: dict  # line id -> MW per hour, fwd - rev
    nse: dict  # region id -> MWh per hour
    spill: dict
    prices: dict  # region id -> $/MWh per hour
    emissions_by_cluster: dict  # cluster id -> tCO2 (weighted)
    hours: list
    hour_weight: np.ndarray

    @property
    def total_nse(self) -> float:
        return float(sum((v * self.hour_weight).sum() for v in self.nse.values()))

    @property
    def total_emissions(self) -> float:
        return float(sum(self.emissions_by_cluster.values()))

    def investment_values(self) -> dict:
        return {
            investment_name(kind, eid): v
            for kind in INVESTMENT_PREFIXES
            for eid, v in getattr(self, kind).items()
        }


def extract_solution(case: SystemCase, ix: VarIndex, sol: Solution) -> ExpansionSolution:
    if not sol.is_optimal:
        raise ValueError(f"cannot extract from a {sol.status} solution")
    x = sol.x
    w = ix.hour_weight
    nk = len(ix.hours)

    def series(index_map, key) -> np.ndarray:
        return np.array([x[index_map[(key, k)]] for k in range(nk)])

    values = {name: float(x[col]) for name, col in ix.inv.items()}
    decisions = {kind: {} for kind in INVESTMENT_PREFIXES}
    for name, kind, eid, *_ in investment_entries(case):
        decisions[kind][eid] = values[name]

    dispatch = {c.id: series(ix.gen, c.id) for c in case.clusters}
    charge = {s.id: series(ix.charge, s.id) for s in case.storage}
    discharge = {s.id: series(ix.discharge, s.id) for s in case.storage}
    soc = {s.id: series(ix.soc, s.id) for s in case.storage}
    flow = {
        l.id: series(ix.flow_fwd, l.id) - series(ix.flow_rev, l.id)
        for l in case.interregional_lines
    }
    nse = {r.id: series(ix.nse, r.id) for r in case.regions}
    spill = {r.id: series(ix.spill, r.id) for r in case.regions}

    variable = 0.0
    fee_cost = 0.0
    emissions = {}
    startups = {}
    for c in case.thermal_clusters:
        th = c.thermal
        energy = dispatch[c.id] * w
        variable += float(energy.sum()) * (th.fuel_cost * th.heat_rate + th.vom)
        emissions[c.id] = float(energy.sum()) * th.heat_rate * th.emission_factor
        fee_cost += case.carbon_fee * emissions[c.id]
        if ix.start:
            startups[c.id] = series(ix.start, c.id)
            variable += float((startups[c.id] * w).sum()) * th.start_cost
    nse_cost_total = case.nse_cost * float(sum((v * w).sum() for v in nse.values()))

    prices = extract_prices(case, ix, sol)

    return ExpansionSolution(
        objective=float(sol.objective),
        fixed_cost=fixed_cost(case, values),
        variable_cost=variable,
        nse_cost_total=nse_cost_total,
        carbon_fee_cost=fee_cost,
        **decisions,
        dispatch=dispatch,
        startups=startups,
        charge=charge,
        discharge=discharge,
        soc=soc,
        flow_net=flow,
        nse=nse,
        spill=spill,
        prices=prices,
        emissions_by_cluster=emissions,
        hours=list(ix.hours),
        hour_weight=w,
    )


def extract_prices(case: SystemCase, ix: VarIndex, sol: Solution) -> dict:
    """Zonal prices: balance-row dual / period weight, bounds-checked."""
    if not sol.is_optimal:
        raise ValueError(f"no prices on a {sol.status} solution")
    duals = sol.row_duals
    w = ix.hour_weight
    nk = len(ix.hours)
    max_mc = 0.0
    for c in case.thermal_clusters:
        max_mc = max(max_mc, c.thermal.marginal_cost(case.carbon_fee) + c.thermal.start_cost)
    cap = max(case.nse_cost, max_mc)
    out = {}
    for r in case.regions:
        p = np.array([duals[ix.balance_row[(r.id, k)]] for k in range(nk)]) / w
        lo, hi = float(p.min()), float(p.max())
        if lo < -PRICE_TOL * (1.0 + cap) or hi > cap * (1.0 + PRICE_TOL) + PRICE_TOL:
            raise ValueError(f"price out of bounds in {r.id}: [{lo}, {hi}]")
        out[r.id] = p
    return out
