"""Scoring of a resolution combo against the high-resolution baseline.

Site-choice overlap (SCO) per tech is the capacity-weighted Jaccard
overlap of invested MW per site, in percent. The capacity and regional
error metrics follow the sqrt-of-sum-over-count form exactly as stated
(sqrt of summed squared differences, divided by entity count); the
conventional RMSE rides along in secondary fields for sanity but the
verbatim value is the contract.

Profit per region nets energy revenue at zonal prices against fuel, VOM,
startup, and carbon-fee outlays of that region's generators, plus storage
arbitrage earned there. Fixed costs are excluded and reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .caseio import write_csv
from .expansion import ExpansionSolution
from .lp import Basis
from .model import WIND_TECHS, SystemCase
from .translate import Portfolio, SiteAllocation


class DispatchedBuild(NamedTuple):
    """A build translated onto the fine sites and dispatched there: the
    record of a combo, and of the HRB it is scored against. basis is the
    optimal basis of its operations LP when that was solved cold, on the
    full LP: the HRB's is the one every other combo's dispatch starts from."""

    allocation: SiteAllocation
    portfolio: Portfolio  # its case holds any template cluster it dispatched
    operations: ExpansionSolution
    basis: Basis | None = None


def sco(a: SiteAllocation, b: SiteAllocation, tech: str, case: SystemCase) -> float:
    lo = hi = 0.0
    a_mw, b_mw = a.total("site"), b.total("site")
    for s in case.sites:
        if s.tech != tech:
            continue
        av = a_mw.get(s.id, 0.0)
        bv = b_mw.get(s.id, 0.0)
        lo += min(av, bv)
        hi += max(av, bv)
    if hi == 0.0:
        return 100.0
    # divide first so identical allocations give exactly 100.0
    return 100.0 * (lo / hi)


def _check_universe(a: dict, b: dict, what: str) -> None:
    if set(a) != set(b):
        only_a = sorted(set(a) - set(b))[:3]
        only_b = sorted(set(b) - set(a))[:3]
        raise ValueError(f"mismatched {what} universes: {only_a} vs {only_b}")


def mse_lines(case_lines: dict, hrb_lines: dict) -> float:
    """sqrt(sum of squared GW differences) / line count."""
    _check_universe(case_lines, hrb_lines, "line")
    if not hrb_lines:
        return 0.0
    sq = sum(((case_lines[k] - hrb_lines[k]) / 1000.0) ** 2 for k in hrb_lines)
    return float(np.sqrt(sq)) / len(hrb_lines)


def mse_regional(values: dict, hrb_values: dict) -> float:
    """sqrt(sum of squared differences) / region count."""
    _check_universe(values, hrb_values, "region")
    if not hrb_values:
        return 0.0
    sq = sum((values[k] - hrb_values[k]) ** 2 for k in hrb_values)
    return float(np.sqrt(sq)) / len(hrb_values)


def rmse(values: dict, hrb_values: dict) -> float:
    _check_universe(values, hrb_values, "entity")
    if not hrb_values:
        return 0.0
    sq = [(values[k] - hrb_values[k]) ** 2 for k in hrb_values]
    return float(np.sqrt(np.mean(sq)))


@dataclass
class Financials:
    variable_cost: float  # fuel + vom + startup
    nse_cost: float
    abatement_fee: float
    emissions_by_region: dict
    profit_by_region: dict
    revenue_by_region: dict
    price_by_region_hour: dict  # region -> 24 hour-of-day means


def financials(sol: ExpansionSolution, case: SystemCase) -> Financials:
    w = sol.hour_weight
    region_of = {c.id: c.region for c in case.clusters}

    emissions = {r.id: 0.0 for r in case.regions}
    profit = {r.id: 0.0 for r in case.regions}
    revenue = {r.id: 0.0 for r in case.regions}

    for c in case.clusters:
        rid = region_of[c.id]
        energy = sol.dispatch[c.id] * w
        rev = float((sol.prices[rid] * energy).sum())
        revenue[rid] += rev
        profit[rid] += rev
        if not c.is_vre:
            th = c.thermal
            mwh = float(energy.sum())
            emissions[rid] += mwh * th.heat_rate * th.emission_factor
            profit[rid] -= mwh * (th.fuel_cost * th.heat_rate + th.vom)
            profit[rid] -= case.carbon_fee * mwh * th.heat_rate * th.emission_factor
            if c.id in sol.startups:
                profit[rid] -= float((sol.startups[c.id] * w).sum()) * th.start_cost
    for s in case.storage:
        arb = float((sol.prices[s.region] * (sol.discharge[s.id] - sol.charge[s.id]) * w).sum())
        profit[s.region] += arb
        revenue[s.region] += arb

    hours = np.asarray(sol.hours)
    hod = hours % 24
    price_hod = {}
    for r in case.regions:
        p = sol.prices[r.id]
        means = np.zeros(24)
        for h in range(24):
            mask = hod == h
            means[h] = float(p[mask].mean()) if mask.any() else 0.0
        price_hod[r.id] = tuple(means)

    fee = case.carbon_fee * float(sum(emissions.values()))
    return Financials(
        variable_cost=sol.variable_cost,
        nse_cost=case.nse_cost * sol.total_nse,
        abatement_fee=fee,
        emissions_by_region=emissions,
        profit_by_region=profit,
        revenue_by_region=revenue,
        price_by_region_hour=price_hod,
    )


def cost_recovery(sol: ExpansionSolution, case: SystemCase) -> dict:
    """Adding-up identity at zonal prices.

    Load payments minus the shed-load penalty must equal generator energy
    revenue plus storage arbitrage plus congestion rent. Spilled energy
    carries a zero price so it drops out. Returns both sides and the parts;
    callers assert the match.
    """
    w = sol.hour_weight
    region_of = {c.id: c.region for c in case.clusters}

    hours = np.asarray(sol.hours)
    load_payment = 0.0
    nse_penalty = 0.0
    for r in case.regions:
        p = sol.prices[r.id]
        dem = r.demand.values[hours]
        load_payment += float((p * dem * w).sum())
        nse_penalty += float((p * sol.nse[r.id] * w).sum())

    gen_revenue = 0.0
    for c in case.clusters:
        p = sol.prices[region_of[c.id]]
        gen_revenue += float((p * sol.dispatch[c.id] * w).sum())

    arbitrage = 0.0
    for s in case.storage:
        p = sol.prices[s.region]
        arbitrage += float((p * (sol.discharge[s.id] - sol.charge[s.id]) * w).sum())

    congestion = 0.0
    for l in case.interregional_lines:
        a, b = l.endpoints
        f = sol.flow_net[l.id]
        congestion += float(((sol.prices[b] - sol.prices[a]) * f * w).sum())

    spill_value = 0.0
    for r in case.regions:
        spill_value += float((sol.prices[r.id] * sol.spill[r.id] * w).sum())

    return {
        "load_payment": load_payment,
        "nse_penalty": nse_penalty,
        "gen_revenue": gen_revenue,
        "storage_arbitrage": arbitrage,
        "congestion_rent": congestion,
        "spill_value": spill_value,
        "lhs": load_payment - nse_penalty,
        "rhs": gen_revenue + arbitrage + congestion,
    }


def phase_summary(parts, case: SystemCase) -> dict:
    """What the report compares of a phase's solution on case, given as a
    chronological list of parts (one per Benders period, or one for a
    whole dispatch): weighted MWh by thermal tech, and "variable_cost" in
    dollars. VRE energy is left out: curtailing it costs nothing, so its
    split between use and curtailment is one optimal vertex among many,
    not a function of the build."""
    w = np.concatenate([p.hour_weight for p in parts])
    out: dict = {}
    for c in case.thermal_clusters:
        energy = np.concatenate([p.dispatch[c.id] for p in parts]) * w
        out[c.tech] = out.get(c.tech, 0.0) + float(energy.sum())
    out["variable_cost"] = sum(p.variable_cost for p in parts)
    return out


def phase_compare(phase1: dict, operations: ExpansionSolution, case: SystemCase) -> dict:
    """(phase 1, phase 2, delta) per key of the phase-1 summary and of the
    summary of operations on case (see phase_summary)."""
    p2 = phase_summary([operations], case)
    out = {}
    for key in sorted(set(phase1) | set(p2)):
        a, b = phase1.get(key, 0.0), p2.get(key, 0.0)
        out[key] = (a, b, b - a)
    return out


@dataclass
class MetricsReport:
    combo: str
    sco_by_tech: dict  # tech -> percent
    mse_cap: float  # GW
    mse_profit: float  # $
    mse_emiss: float  # tCO2
    rmse_cap: float
    rmse_profit: float
    rmse_emiss: float
    total_cost: float
    fixed_cost: float
    variable_cost: float
    nse_cost: float
    abatement_fee: float
    emissions_by_region: dict
    profit_by_region: dict
    price_by_region_hour: dict
    phase_delta: dict  # thermal tech or "variable_cost" -> (phase1, phase2, delta)
    total_nse: float = 0.0
    total_emissions: float = 0.0

    def rows(self):
        """Long-format rows (combo, metric, key, value)."""
        out = []
        for tech in sorted(self.sco_by_tech):
            out.append((self.combo, "sco", tech, self.sco_by_tech[tech]))
        for name in ("mse_cap", "mse_profit", "mse_emiss", "rmse_cap",
                     "rmse_profit", "rmse_emiss", "total_cost", "fixed_cost",
                     "variable_cost", "nse_cost", "abatement_fee", "total_nse",
                     "total_emissions"):
            out.append((self.combo, name, "", getattr(self, name)))
        for rid in sorted(self.emissions_by_region):
            out.append((self.combo, "emissions", rid, self.emissions_by_region[rid]))
        for rid in sorted(self.profit_by_region):
            out.append((self.combo, "profit", rid, self.profit_by_region[rid]))
        for rid in sorted(self.price_by_region_hour):
            for h, v in enumerate(self.price_by_region_hour[rid]):
                out.append((self.combo, "price_hod", f"{rid}:{h:02d}", v))
        for tech in sorted(self.phase_delta):
            p1, p2, d = self.phase_delta[tech]
            out.append((self.combo, "phase1_mwh", tech, p1))
            out.append((self.combo, "phase2_mwh", tech, p2))
            out.append((self.combo, "phase_delta", tech, d))
        return out


def build_report(
    combo: str,
    phase1: dict,
    fixed_cost: float,
    fine: SystemCase,
    build: DispatchedBuild,
    baseline: DispatchedBuild,
) -> MetricsReport:
    """Score a combo's dispatched build against the baseline's, with its
    phase-1 summary (see phase_summary) and the fixed cost of its build."""
    fin = financials(build.operations, build.portfolio.case)
    hrb_fin = financials(baseline.operations, baseline.portfolio.case)
    line_capacity = build.portfolio.line_capacity
    hrb_line_capacity = baseline.portfolio.line_capacity

    techs = sorted({s.tech for s in fine.sites})
    sco_by_tech = {t: sco(build.allocation, baseline.allocation, t, fine) for t in techs}

    report = MetricsReport(
        combo=combo,
        sco_by_tech=sco_by_tech,
        mse_cap=mse_lines(line_capacity, hrb_line_capacity),
        mse_profit=mse_regional(fin.profit_by_region, hrb_fin.profit_by_region),
        mse_emiss=mse_regional(fin.emissions_by_region, hrb_fin.emissions_by_region),
        rmse_cap=rmse({k: v / 1000.0 for k, v in line_capacity.items()},
                      {k: v / 1000.0 for k, v in hrb_line_capacity.items()}),
        rmse_profit=rmse(fin.profit_by_region, hrb_fin.profit_by_region),
        rmse_emiss=rmse(fin.emissions_by_region, hrb_fin.emissions_by_region),
        total_cost=fixed_cost + fin.variable_cost + fin.nse_cost + fin.abatement_fee,
        fixed_cost=fixed_cost,
        variable_cost=fin.variable_cost,
        nse_cost=fin.nse_cost,
        abatement_fee=fin.abatement_fee,
        emissions_by_region=fin.emissions_by_region,
        profit_by_region=fin.profit_by_region,
        price_by_region_hour=fin.price_by_region_hour,
        phase_delta=phase_compare(phase1, build.operations, build.portfolio.case),
        total_nse=build.operations.total_nse,
        total_emissions=float(sum(fin.emissions_by_region.values())),
    )
    return report


def sco_column(report: MetricsReport, techs) -> float:
    """The mean SCO over those of techs that the report scores; 100 when it
    scores none of them."""
    vals = [report.sco_by_tech[t] for t in techs if t in report.sco_by_tech]
    return sum(vals) / len(vals) if vals else 100.0


def write_report(reports, path: str) -> None:
    write_csv(path, ("case", "metric", "key", "value"), (row for rep in reports for row in rep.rows()))


def format_summary(reports) -> str:
    """Human-readable table of the headline numbers."""
    headers = ("case", "sco_solar", "sco_wind", "mse_cap_gw", "mse_profit",
               "mse_emiss", "total_cost", "nse_mwh", "emissions_t")
    rows = [headers]
    for r in reports:
        rows.append((
            r.combo,
            f"{sco_column(r, ('solar',)):.1f}",
            f"{sco_column(r, WIND_TECHS):.1f}",
            f"{r.mse_cap:.6g}",
            f"{r.mse_profit:.6g}",
            f"{r.mse_emiss:.6g}",
            f"{r.total_cost:.6g}",
            f"{r.total_nse:.6g}",
            f"{r.total_emissions:.6g}",
        ))
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(headers))]
    lines = []
    for row in rows:
        lines.append("  ".join(str(v).rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)
