"""Scoring of a resolution combo against the high-resolution baseline.

README's `report.csv` section defines each row. Site-choice overlap (SCO)
per tech is the capacity-weighted Jaccard overlap of new MW per site, in
percent. The capacity and regional errors (mse_*) take the form the paper
states, ||d||_2 / n over n entities in the quantity's own units (GW, $,
tCO2): despite the name, not a mean squared error.

A dispatch's energy, emissions and costs are totals of its
ExpansionSolution (one expansion.ThermalAccount per thermal cluster);
this module adds only regional profit and hour-of-day prices. Fixed costs
are priced apart (expansion.fixed_cost).
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
    optimal basis of its operations LP, on the full LP, when it was
    dispatched without a baseline: the HRB's is the one every other combo's
    dispatch starts from."""

    allocation: SiteAllocation
    # its case holds any template cluster it dispatched, and the fine lines
    # at the operating capacity it dispatched them at
    portfolio: Portfolio
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


def _norm_over_count(values: dict, hrb_values: dict, what: str, unit: float = 1.0) -> float:
    """||values - hrb_values||_2 / entity count, each difference divided by
    unit; the two must hold the same entities."""
    if set(values) != set(hrb_values):
        only_a = sorted(set(values) - set(hrb_values))[:3]
        only_b = sorted(set(hrb_values) - set(values))[:3]
        raise ValueError(f"mismatched {what} universes: {only_a} vs {only_b}")
    if not hrb_values:
        return 0.0
    sq = sum(((values[k] - hrb_values[k]) / unit) ** 2 for k in hrb_values)
    return float(np.sqrt(sq)) / len(hrb_values)


def mse_lines(case_lines: dict, hrb_lines: dict) -> float:
    """The line capacity error in GW, of capacities in MW."""
    return _norm_over_count(case_lines, hrb_lines, "line", 1000.0)


def mse_regional(values: dict, hrb_values: dict) -> float:
    """The regional error, in the values' units."""
    return _norm_over_count(values, hrb_values, "region")


@dataclass
class Financials:
    profit_by_region: dict
    price_by_region_hour: dict  # region -> 24 hour-of-day means


def financials(sol: ExpansionSolution, case: SystemCase) -> Financials:
    """Profit per region: revenue at zonal prices, less the thermal
    clusters' cost and carbon fee, plus storage arbitrage; and each
    region's mean price per hour of day."""
    w = sol.hour_weight
    profit = {r.id: 0.0 for r in case.regions}
    for c in case.clusters:
        profit[c.region] += float((sol.prices[c.region] * (sol.dispatch[c.id] * w)).sum())
    for a in sol.thermal.values():
        profit[a.region] -= a.cost + sol.carbon_fee * a.emissions
    for s in case.storage:
        profit[s.region] += float((sol.prices[s.region] * (sol.discharge[s.id] - sol.charge[s.id]) * w).sum())

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
    return Financials(profit_by_region=profit, price_by_region_hour=price_hod)


def phase_summary(parts) -> dict:
    """What the report compares of a phase's solution, given as a
    chronological list of parts (one per Benders period, or one for a
    whole dispatch): weighted MWh by thermal tech, and "variable_cost" in
    dollars, each summed over the parts' thermal accounts. VRE energy is
    left out: curtailing it costs nothing, so its split between use and
    curtailment is one optimal vertex among many, not a function of the
    build."""
    out: dict = {}
    for p in parts:
        for a in p.thermal.values():
            out[a.tech] = out.get(a.tech, 0.0) + a.energy
    out["variable_cost"] = sum(p.variable_cost for p in parts)
    return out


def phase_compare(phase1: dict, operations: ExpansionSolution) -> dict:
    """(phase 1, phase 2, delta) per key of the phase-1 summary and of the
    summary of operations (see phase_summary)."""
    p2 = phase_summary([operations])
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
        for name in ("mse_cap", "mse_profit", "mse_emiss", "total_cost", "fixed_cost",
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
    ops = build.operations
    fin = financials(ops, build.portfolio.case)
    hrb_fin = financials(baseline.operations, baseline.portfolio.case)
    techs = sorted({s.tech for s in fine.sites})
    sco_by_tech = {t: sco(build.allocation, baseline.allocation, t, fine) for t in techs}

    return MetricsReport(
        combo=combo,
        sco_by_tech=sco_by_tech,
        mse_cap=mse_lines(build.portfolio.line_capacity, baseline.portfolio.line_capacity),
        mse_profit=mse_regional(fin.profit_by_region, hrb_fin.profit_by_region),
        mse_emiss=mse_regional(ops.emissions_by_region, baseline.operations.emissions_by_region),
        total_cost=fixed_cost + ops.variable_cost + ops.nse_cost + ops.carbon_fee_cost,
        fixed_cost=fixed_cost,
        variable_cost=ops.variable_cost,
        nse_cost=ops.nse_cost,
        abatement_fee=ops.carbon_fee_cost,
        emissions_by_region=ops.emissions_by_region,
        profit_by_region=fin.profit_by_region,
        price_by_region_hour=fin.price_by_region_hour,
        phase_delta=phase_compare(phase1, ops),
        total_nse=ops.total_nse,
        total_emissions=ops.total_emissions,
    )


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
