"""Expansion and operations LPs over a SystemCase.

One builder covers three uses that must stay structurally identical:

* monolithic capacity expansion (investments free, one chronology block per
  representative period, optional per-region reserve rows),
* decomposition subproblems (one period, investments pinned by bounds),
* production-cost runs (year_chronology: every period, its blocks linked
  end to end, investments pinned from a portfolio, over the portfolio's
  case, whose lines carry their operating capacity).

A build's investments have one in-memory form: the named vector
{name: value} over investment_entries(case), in that order, with names
such as "xv[<cluster>]" and "xg[<cluster>]" (INVESTMENT_PREFIXES).
ExpansionSolution.investment holds it, BuildOptions.fix pins it,
fixed_cost prices it and investments.csv stores it.

Investment costs and the fixed O&M of existing capacity enter the objective
only when nothing is pinned (no ``fix``): a pinned LP is an operations LP,
and its investment costs are sunk.

Every LP has one chronology block per period. Chronology is cyclic within
each block: state of charge, ramps and commitment linking wrap from the
last hour of a block to its first. With year_chronology the blocks are
linked end to end instead, cyclic over the year: the first hour of a block
follows the last hour of the block before, and the first block's follows
the last block's. Every balance row carries non-served energy (bounded by
demand) and a free surplus/dump column, so operations are feasible for any
capacity vector and balance duals stay inside [0, nse_cost].

Unit commitment modes (BuildOptions.uc): "relaxed" uses a continuous
committed-capacity variable with startup costs on increases and gen in
[min_output*c, c]; "none" drops commitment and forces gen >= min_output *
live capacity. The expansion and its subproblems take the mode from the
case (SystemCase.uc_mode); the operations LP is always relaxed.

Layout (pinned by tests/test_layout.py). Columns: the investment columns
first, in investment_entries order; then block by block, and within a
block entity by entity (VRE clusters, thermal clusters, storage, lines,
regions), family by family, hour by hour:

    VRE      gen
    thermal  gen [commit start shut]       (bracketed: uc "relaxed" only)
    storage  charge discharge soc
    line     flow_fwd flow_rev
    region   nse spill

Rows, block by block: the balance rows hour-major (every region of an hour
before the next hour), then entity by entity with each entity's rows
interleaved per hour (bracketed rows only where they apply):

    VRE      gen <= profile * capacity
    thermal  commit <= capacity, gen <= commit, [gen >= min * commit],
             commit - previous commit = start - shut      (uc "relaxed")
             gen <= capacity, [gen >= min * capacity]     (uc "none")
             then [ramp up, ramp down]
    storage  soc balance, soc <= energy, charge <= power, discharge <= power
    line     fwd - xl <= capacity, rev - xl <= capacity

and last the per-region reserve rows when requested. So a block is laid
out as the one-period LP of its period, and the operations LP of a build
is its Benders subproblems (one period each, relaxed) laid end to end, but
for the previous-hour entries of each block's first hour: the last bases
of those subproblems place on it by concatenation (placed_basis).

VarIndex records where each column family and the balance rows lie.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lp import EQ, GE, LE, LOWER, LinearProgram, LpBuilder, Solution
from .model import SystemCase

PRICE_TOL = 1e-6


@dataclass(frozen=True)
class BuildOptions:
    uc: str = "relaxed"
    reserve: bool = True
    periods: tuple[int, ...] | None = None  # None = all representative periods
    year_chronology: bool = False  # blocks linked end to end, cyclic over the year
    fix: dict | None = None  # investment var name -> pinned value; costs sunk


@dataclass
class VarIndex:
    """Column and row indices into a built LP.

    inv is the slice of investment columns, in investment_entries order.
    Every other family is an (entities, hours) array of indices: gen over
    case.clusters; commit, start and shut over case.thermal_clusters (no
    entities unless uc is "relaxed"); charge, discharge and soc over
    case.storage; flow_fwd and flow_rev over case.interregional_lines; nse,
    spill and balance_row over case.regions.
    """

    inv: slice | None = None
    gen: np.ndarray | None = None
    commit: np.ndarray | None = None
    start: np.ndarray | None = None
    shut: np.ndarray | None = None
    charge: np.ndarray | None = None
    discharge: np.ndarray | None = None
    soc: np.ndarray | None = None
    flow_fwd: np.ndarray | None = None
    flow_rev: np.ndarray | None = None
    nse: np.ndarray | None = None
    spill: np.ndarray | None = None
    balance_row: np.ndarray | None = None
    hours: list = field(default_factory=list)  # global hour index per k
    hour_weight: np.ndarray = field(default_factory=lambda: np.zeros(0))


# The one encoding of investment decisions: every investment column is named
# "<prefix>[<entity id>]" after the kind of decision it holds, and a build is
# the named vector {name: value} in investment_entries order. Everything else
# derives from this table.
INVESTMENT_PREFIXES = {
    "vre_new": "xv",
    "thermal_new": "xg",
    "thermal_retired": "ret",
    "storage_new_power": "xp",
    "storage_new_energy": "xe",
    "line_expansion": "xl",
}


def investment_name(kind: str, eid: str) -> str:
    return f"{INVESTMENT_PREFIXES[kind]}[{eid}]"


def investment_entries(case: SystemCase):
    """Ordered investment variables: (name, kind, entity id, lo, hi, cost),
    where kind is a key of INVESTMENT_PREFIXES.

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


def add_investment_columns(case: SystemCase, b: LpBuilder, ix: VarIndex, fix=None) -> dict:
    """Investment columns in investment_entries order, pinned where fix
    names them. Without fix, the columns carry their costs and the fixed
    O&M of existing capacity is the objective offset; with it, both are
    sunk. Returns kind -> column per entity of that kind, in case order."""
    charge = not fix
    fix = fix or {}
    entries = investment_entries(case)
    lo = [float(fix[name]) if name in fix else lo for name, _k, _e, lo, _h, _c in entries]
    hi = [float(fix[name]) if name in fix else hi for name, _k, _e, _l, hi, _c in entries]
    cost = [cost if charge else 0.0 for *_, cost in entries]
    cols = b.vars(len(entries), lo, hi, cost)
    ix.inv = slice(int(cols[0]), int(cols[-1]) + 1) if len(cols) else slice(0, 0)
    if charge:
        for c in case.clusters:
            b.obj_offset += c.fom_cost * c.existing_capacity
    inv = {kind: [] for kind in INVESTMENT_PREFIXES}
    for (_n, kind, *_), col in zip(entries, cols.tolist()):
        inv[kind].append(col)
    return inv


def _hourly_rows(b: LpBuilder, nk: int, groups) -> np.ndarray:
    """One row block over nk hours with the rows of an hour interleaved:
    groups lists (sense, rhs, terms) per row of an hour, terms are
    (column, coefficient) pairs, and each rhs, column and coefficient is a
    scalar or an (nk,) array. Returns the (nk, len(groups)) row indices."""
    terms = [(i, col, coef) for i, (_s, _r, group) in enumerate(groups) for col, coef in group]
    rows, cols, vals = (np.empty((len(terms), nk), dtype) for dtype in (int, int, float))
    for t, (i, col, coef) in enumerate(terms):
        rows[t], cols[t], vals[t] = i, col, coef
    rows += np.arange(nk) * len(groups)
    rhs = np.empty((len(groups), nk))
    for i, (_sense, value, _terms) in enumerate(groups):
        rhs[i] = value
    senses = np.tile([sense for sense, _r, _t in groups], nk)
    return b.rows(senses, rhs.T.ravel(), rows.ravel(), cols.ravel(), vals.ravel()).reshape(nk, len(groups))


def build_lp(case: SystemCase, opts: BuildOptions) -> tuple[LinearProgram, VarIndex]:
    b = LpBuilder()
    ix = VarIndex()
    relaxed = opts.uc == "relaxed"
    inv = add_investment_columns(case, b, ix, opts.fix)

    nk = case.period_length
    periods = opts.periods if opts.periods is not None else range(case.n_periods)
    # one chronology block per period: its global hours, their weights and its slice of ix.hours
    blocks = [
        (np.arange(p * nk, (p + 1) * nk), np.full(nk, case.period_weights[p]), slice(i * nk, (i + 1) * nk))
        for i, p in enumerate(periods)
    ]
    ix.hours = np.concatenate([hours for hours, _w, _ks in blocks]).tolist()
    ix.hour_weight = np.concatenate([w for _hours, w, _ks in blocks])
    nk_all = len(ix.hours)
    n_committed = len(case.thermal_clusters) if relaxed else 0

    def family(n_entities) -> np.ndarray:
        return np.zeros((n_entities, nk_all), dtype=int)

    def previous(cols: np.ndarray, ks: slice) -> np.ndarray:
        """The column of the hour before each hour of block ks: cyclic over
        every block (year_chronology) or within the block."""
        return np.roll(cols, 1)[ks] if opts.year_chronology else np.roll(cols[ks], 1)

    ix.gen = family(len(case.clusters))
    ix.commit, ix.start, ix.shut = (family(n_committed) for _ in range(3))
    ix.charge, ix.discharge, ix.soc = (family(len(case.storage)) for _ in range(3))
    ix.flow_fwd, ix.flow_rev = (family(len(case.interregional_lines)) for _ in range(2))
    ix.nse, ix.spill, ix.balance_row = (family(len(case.regions)) for _ in range(3))
    cluster_pos = {c.id: i for i, c in enumerate(case.clusters)}
    demand = [r.demand.values for r in case.regions]

    # -- columns, block by block -------------------------------------------------
    for hours, w, ks in blocks:
        for c in case.vre_clusters:
            ix.gen[cluster_pos[c.id], ks] = b.vars(nk)
        for i, c in enumerate(case.thermal_clusters):
            ix.gen[cluster_pos[c.id], ks] = b.vars(nk, obj=w * c.thermal.marginal_cost(case.carbon_fee))
            if relaxed:
                ix.commit[i, ks] = b.vars(nk)
                ix.start[i, ks] = b.vars(nk, obj=w * c.thermal.start_cost)
                ix.shut[i, ks] = b.vars(nk)
        for i, _s in enumerate(case.storage):
            ix.charge[i, ks] = b.vars(nk)
            ix.discharge[i, ks] = b.vars(nk)
            ix.soc[i, ks] = b.vars(nk)
        for i, _l in enumerate(case.interregional_lines):
            ix.flow_fwd[i, ks] = b.vars(nk)
            ix.flow_rev[i, ks] = b.vars(nk)
        for i, _r in enumerate(case.regions):
            ix.nse[i, ks] = b.vars(nk, 0.0, demand[i][hours], w * case.nse_cost)
            ix.spill[i, ks] = b.vars(nk)

    # -- rows, block by block ----------------------------------------------------
    for hours, _w, ks in blocks:
        balance = []
        for i, r in enumerate(case.regions):
            terms = [(ix.nse[i, ks], 1.0), (ix.spill[i, ks], -1.0)]
            for c in case.clusters:
                if c.region == r.id:
                    terms.append((ix.gen[cluster_pos[c.id], ks], 1.0))
            for j, s in enumerate(case.storage):
                if s.region == r.id:
                    terms.append((ix.discharge[j, ks], 1.0))
                    terms.append((ix.charge[j, ks], -1.0))
            for j, l in enumerate(case.interregional_lines):
                if l.endpoints[0] == r.id:
                    terms.append((ix.flow_fwd[j, ks], -1.0))
                    terms.append((ix.flow_rev[j, ks], 1.0))
                elif l.endpoints[1] == r.id:
                    terms.append((ix.flow_fwd[j, ks], 1.0))
                    terms.append((ix.flow_rev[j, ks], -1.0))
            balance.append((EQ, demand[i][hours], terms))
        ix.balance_row[:, ks] = _hourly_rows(b, nk, balance).T

        for c, xv in zip(case.vre_clusters, inv["vre_new"]):
            rho = c.aggregate_profile.values[hours]
            gen = ix.gen[cluster_pos[c.id], ks]
            _hourly_rows(b, nk, [(LE, rho * c.existing_capacity, [(gen, 1.0), (xv, -rho)])])

        for i, c in enumerate(case.thermal_clusters):
            xg = inv["thermal_new"][i]
            ret = inv["thermal_retired"][i]
            th = c.thermal
            e0 = c.existing_capacity
            g = ix.gen[cluster_pos[c.id], ks]
            if relaxed:
                cm = ix.commit[i, ks]
                rows = [
                    (LE, e0, [(cm, 1.0), (xg, -1.0), (ret, 1.0)]),
                    (LE, 0.0, [(g, 1.0), (cm, -1.0)]),
                ]
                if th.min_output > 0:
                    rows.append((GE, 0.0, [(g, 1.0), (cm, -th.min_output)]))
                cp = previous(ix.commit[i], ks)
                rows.append((EQ, 0.0, [(cm, 1.0), (cp, -1.0), (ix.start[i, ks], -1.0), (ix.shut[i, ks], 1.0)]))
            else:
                rows = [(LE, e0, [(g, 1.0), (xg, -1.0), (ret, 1.0)])]
                if th.min_output > 0:
                    rows.append((GE, th.min_output * e0, [(g, 1.0), (xg, -th.min_output), (ret, th.min_output)]))
            if th.ramp_rate < 1.0:
                gp = previous(ix.gen[cluster_pos[c.id]], ks)
                r = th.ramp_rate
                rows.append((LE, r * e0, [(g, 1.0), (gp, -1.0), (xg, -r), (ret, r)]))
                rows.append((LE, r * e0, [(gp, 1.0), (g, -1.0), (xg, -r), (ret, r)]))
            _hourly_rows(b, nk, rows)

        for i, s in enumerate(case.storage):
            xp = inv["storage_new_power"][i]
            xe = inv["storage_new_energy"][i]
            soc, ch, dis = ix.soc[i, ks], ix.charge[i, ks], ix.discharge[i, ks]
            _hourly_rows(b, nk, [
                (EQ, 0.0, [(soc, 1.0), (previous(ix.soc[i], ks), -1.0), (ch, -s.efficiency_rt), (dis, 1.0)]),
                (LE, s.existing_energy, [(soc, 1.0), (xe, -1.0)]),
                (LE, s.existing_power, [(ch, 1.0), (xp, -1.0)]),
                (LE, s.existing_power, [(dis, 1.0), (xp, -1.0)]),
            ])

        for i, l in enumerate(case.interregional_lines):
            xl = inv["line_expansion"][i]
            _hourly_rows(b, nk, [
                (LE, l.capacity, [(ix.flow_fwd[i, ks], 1.0), (xl, -1.0)]),
                (LE, l.capacity, [(ix.flow_rev[i, ks], 1.0), (xl, -1.0)]),
            ])
    if opts.reserve:
        add_reserve_rows(case, b, inv)

    return b.build(), ix


def placed_basis(lp: LinearProgram, ix: VarIndex, bases: list):
    """The bases of the one-period subproblems of lp's periods, in order
    ((cols, rows) status codes of each, as BendersResult.bases holds them),
    placed on lp, an LP that build_lp built over the same case with
    year_chronology (ix its VarIndex), which is those subproblems laid end
    to end: their columns after the investments, which are pinned and
    placed at their lower bound, and their rows. None unless they have
    lp's shape."""
    n_inv = ix.inv.stop
    cols = np.concatenate([np.full(n_inv, LOWER, dtype=np.int8), *(c[n_inv:] for c, _r in bases)])
    rows = np.concatenate([r for _c, r in bases])
    if (cols.size, rows.size) != (lp.n_vars, lp.n_rows):
        return None
    return cols, rows


def add_reserve_rows(case: SystemCase, b: LpBuilder, inv: dict) -> None:
    """Per-region firm capacity >= (1 + margin) * peak demand. VRE counts at
    its period-max profile over the case's own hours, storage at power.
    inv is the kind -> columns map from add_investment_columns."""
    for r in case.regions:
        peak = float(np.max(r.demand.values))
        rhs = (1.0 + r.reserve_margin) * peak
        terms = []
        for i, c in enumerate(case.thermal_clusters):
            if c.region == r.id:
                terms.append((inv["thermal_new"][i], 1.0))
                terms.append((inv["thermal_retired"][i], -1.0))
                rhs -= c.existing_capacity
        for i, c in enumerate(case.vre_clusters):
            if c.region == r.id:
                credit = float(np.max(c.aggregate_profile.values))
                terms.append((inv["vre_new"][i], credit))
                rhs -= credit * c.existing_capacity
        for i, s in enumerate(case.storage):
            if s.region == r.id:
                terms.append((inv["storage_new_power"][i], 1.0))
                rhs -= s.existing_power
        b.row(f"reserve[{r.id}]", GE, rhs, terms)


def build_expansion_lp(case: SystemCase, reserve: bool = True):
    """Monolithic phase-1 LP under the case's uc_mode: weighted operations
    plus free investments."""
    opts = BuildOptions(uc=case.uc_mode, reserve=reserve)
    return build_lp(case, opts)


def build_operations_lp(portfolio):
    """Phase-2 production-cost LP over the portfolio's case: full cyclic
    chronology with relaxed commitment whatever the case's uc_mode,
    investments pinned to portfolio.investment (every xl at 0, so each line
    row bounds a flow by the line's operating capacity), no reserve rows,
    investment costs sunk (objective is weighted operational cost only)."""
    opts = BuildOptions(uc="relaxed", reserve=False, year_chronology=True, fix=portfolio.investment)
    return build_lp(portfolio.case, opts)


# -- solution extraction ------------------------------------------------------


@dataclass
class ExpansionSolution:
    """Primal decision summary for one solved planning or operations LP."""

    objective: float
    fixed_cost: float
    variable_cost: float  # fuel + vom + startup
    nse_cost_total: float
    carbon_fee_cost: float
    investment: dict  # investment name -> value, in investment_entries order
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


def extract_solution(case: SystemCase, ix: VarIndex, sol: Solution) -> ExpansionSolution:
    if not sol.is_optimal:
        raise ValueError(f"cannot extract from a {sol.status} solution")
    x = sol.x
    w = ix.hour_weight

    investment = dict(zip((name for name, *_ in investment_entries(case)), x[ix.inv].tolist()))

    dispatch = {c.id: x[ix.gen[i]] for i, c in enumerate(case.clusters)}
    charge = {s.id: x[ix.charge[i]] for i, s in enumerate(case.storage)}
    discharge = {s.id: x[ix.discharge[i]] for i, s in enumerate(case.storage)}
    soc = {s.id: x[ix.soc[i]] for i, s in enumerate(case.storage)}
    flow = {
        l.id: x[ix.flow_fwd[i]] - x[ix.flow_rev[i]]
        for i, l in enumerate(case.interregional_lines)
    }
    nse = {r.id: x[ix.nse[i]] for i, r in enumerate(case.regions)}
    spill = {r.id: x[ix.spill[i]] for i, r in enumerate(case.regions)}

    variable = 0.0
    fee_cost = 0.0
    emissions = {}
    startups = {}
    for i, c in enumerate(case.thermal_clusters):
        th = c.thermal
        energy = dispatch[c.id] * w
        variable += float(energy.sum()) * (th.fuel_cost * th.heat_rate + th.vom)
        emissions[c.id] = float(energy.sum()) * th.heat_rate * th.emission_factor
        fee_cost += case.carbon_fee * emissions[c.id]
        if len(ix.start):
            startups[c.id] = x[ix.start[i]]
            variable += float((startups[c.id] * w).sum()) * th.start_cost
    nse_cost_total = case.nse_cost * float(sum((v * w).sum() for v in nse.values()))

    prices = extract_prices(case, ix, sol)

    return ExpansionSolution(
        objective=float(sol.objective),
        fixed_cost=fixed_cost(case, investment),
        variable_cost=variable,
        nse_cost_total=nse_cost_total,
        carbon_fee_cost=fee_cost,
        investment=investment,
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
    max_mc = 0.0
    for c in case.thermal_clusters:
        max_mc = max(max_mc, c.thermal.marginal_cost(case.carbon_fee) + c.thermal.start_cost)
    cap = max(case.nse_cost, max_mc)
    out = {}
    for r, rows in zip(case.regions, ix.balance_row):
        p = sol.row_duals[rows] / ix.hour_weight
        lo, hi = float(p.min()), float(p.max())
        if lo < -PRICE_TOL * (1.0 + cap) or hi > cap * (1.0 + PRICE_TOL) + PRICE_TOL:
            raise ValueError(f"price out of bounds in {r.id}: [{lo}, {hi}]")
        out[r.id] = p
    return out
