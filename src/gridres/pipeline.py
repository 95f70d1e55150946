"""Resolution-ladder orchestration.

A ladder is a list of resolution combos run against one fine system. The
high-resolution baseline (HRB) is the identity partition at full
chronology with relaxed commitment; it always runs first and every other
combo is scored against it. Each combo follows the same six stages:

    aggregate -> cluster -> expand -> translate -> operate -> metrics

with every intermediate written under out/<combo>/. A stage failure
aborts only its own combo; the error is tagged with the stage name and
the ladder carries on.

ladder.csv holds only deterministic columns so reruns with the same seed
are byte-identical; wall-clock numbers go to side files instead:
ladder_timing.csv per ladder, <combo>/stage_timing.csv per combo (the wall
seconds of its set-up and of each stage it reached, summing to its
runtime_s) and <combo>/benders_timing.csv per Benders solve. A failed
combo leaves its full traceback in <combo>/error.txt.
"""

from __future__ import annotations

import csv
import math
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import yaml

from .benders import solve_benders
from .caseio import load_system, write_case, write_csv
from .expansion import (
    BuildOptions,
    ExpansionSolution,
    build_lp,
    build_operations_lp,
    extract_solution,
)
from .lp import solve_simplex
from .metrics import MetricsReport, build_report, format_summary, write_report
from .model import VRE_TECHS, WIND_TECHS, SystemCase
from .spatial import RegionPartition, aggregate_spatial
from .syngen import PATHWAY_CARBON_FEE, SynthConfig, generate
from .temporal import apply_temporal, cluster_timesteps, write_reduction
from .translate import (
    SiteAllocation,
    build_portfolio,
    read_allocation,
    translate_solution,
    write_allocation,
    write_portfolio,
)


class ConfigError(Exception):
    pass


class StageError(Exception):
    """Failure of one pipeline stage; message is prefixed with the stage."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"{stage}: {message}")


@dataclass(frozen=True)
class PartitionSpec:
    name: str
    path: str | None = None  # CSV with fine_region,region columns
    n_regions: int | None = None  # or: chunk the fine regions evenly

    def __post_init__(self):
        if (self.path is None) == (self.n_regions is None):
            raise ConfigError(f"partition {self.name}: give exactly one of path / regions")
        if self.n_regions is not None and not (_is_int(self.n_regions) and self.n_regions >= 1):
            raise ConfigError(
                f"partition {self.name}: regions must be an integer >= 1, got {self.n_regions!r}"
            )


@dataclass(frozen=True)
class Combo:
    name: str
    partition: PartitionSpec | None  # None = identity (HRB space)
    k: int | None  # None = all periods
    uc: str

    @property
    def k_label(self) -> str:
        return "all" if self.k is None else str(self.k)


HRB_NAME = "hrb"

# sentinel handed to combos when the baseline solve itself failed;
# a plain string so it survives pickling into worker processes
_FAILED_BASELINE = "baseline-failed"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(low: float, value) -> bool:
    return _is_number(value) and low <= value < math.inf  # also rejects NaN


# synth field -> (test, what it must be); a count is an integer >= 1
_COUNT = (lambda v: _is_int(v) and v >= 1, "an integer >= 1")
_NONNEGATIVE = (lambda v: _finite(0.0, v), "a finite number >= 0")
_SYNTH_CHECKS = {
    **dict.fromkeys(("n_regions", "periods", "period_length", "units_per_plant"), _COUNT),
    "sites_per_region": (
        lambda d: isinstance(d, dict) and set(d) <= set(VRE_TECHS)
        and all(_is_int(c) and c >= 0 for c in d.values()),
        f"a map of some of {', '.join(VRE_TECHS)} to integers >= 0",
    ),
    "demand_peak_range": (
        lambda r: isinstance(r, (list, tuple)) and len(r) == 2
        and _finite(0.0, r[0]) and r[0] > 0.0 and _finite(r[0], r[1]),
        "[low, high] with 0 < low <= high, both finite",
    ),
    **dict.fromkeys(
        ("spatial_correlation_length", "profile_noise", "demand_noise", "line_capacity_frac"),
        _NONNEGATIVE,
    ),
    "pathway": (
        lambda v: isinstance(v, str) and v in PATHWAY_CARBON_FEE,
        f"one of {', '.join(PATHWAY_CARBON_FEE)}",
    ),
    "nse_cost": (lambda v: _finite(0.0, v) and v > 0.0, "a finite number > 0"),
}


@dataclass
class RunConfig:
    out_dir: str
    input_dir: str | None = None
    synth: SynthConfig | None = None
    seed: int = 0
    partitions: tuple = ()
    k_values: tuple = ("all",)
    force_extremes: bool = False
    uc_modes: tuple = ("relaxed",)
    gap_tol: float = 1e-4
    max_iter: int = 200
    stab_weight: float = 0.3
    beta: float = 1.0
    jobs: int = 1
    sub_jobs: int = 1

    def __post_init__(self):
        if (self.input_dir is None) == (self.synth is None):
            raise ConfigError("give exactly one of input dir / synthetic config")
        if self.synth is not None:
            for key, (ok, what) in _SYNTH_CHECKS.items():
                value = getattr(self.synth, key)
                if not ok(value):
                    raise ConfigError(f"synth.{key} must be {what}, got {value!r}")
        for uc in self.uc_modes:
            if uc not in ("none", "relaxed"):
                raise ConfigError(f"unknown uc mode {uc!r}")
        for k in self.k_values:
            if k != "all" and (not _is_int(k) or k < 1):
                raise ConfigError(f"k must be a positive integer or 'all', got {k!r}")
        # two combos with one name would write into one directory
        for key, values in (
            ("partition name", [p.name for p in self.partitions]),
            ("k_values entry", self.k_values),
            ("uc_modes entry", self.uc_modes),
        ):
            repeated = sorted({str(v) for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigError(f"repeated {key}: {', '.join(repeated)}")
        for key in ("stab_weight", "gap_tol", "beta"):
            value = getattr(self, key)
            if not _is_number(value):
                raise ConfigError(f"{key} must be a number, got {value!r}")
        for key in ("seed", "jobs", "sub_jobs"):
            value = getattr(self, key)
            if not _is_int(value):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        if not 0.0 <= self.stab_weight < 1.0:
            raise ConfigError("stab_weight must be in [0, 1)")
        if self.jobs < 1 or self.sub_jobs < 1:
            raise ConfigError("jobs and sub_jobs must be >= 1")
        if not _is_int(self.max_iter) or self.max_iter < 1:
            raise ConfigError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        # negated comparisons so that NaN is rejected too
        if not self.gap_tol >= 0.0:
            raise ConfigError(f"gap_tol must be >= 0, got {self.gap_tol!r}")
        if not self.beta >= 0.0:
            raise ConfigError(f"beta must be >= 0, got {self.beta!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        d = dict(d)
        synth = d.pop("synth", None)
        if synth is not None:
            try:
                synth = SynthConfig(**synth)
            except TypeError as e:
                raise ConfigError(f"bad synth config: {e}") from None
        parts = []
        for p in d.pop("partitions", ()) or ():
            if not isinstance(p, dict) or "name" not in p:
                raise ConfigError(f"a partition needs a name and a path or regions, got {p!r}")
            parts.append(
                PartitionSpec(
                    name=str(p["name"]),
                    path=p.get("path"),
                    n_regions=p.get("regions"),
                )
            )
        known = {
            "out_dir", "input_dir", "seed", "k_values", "force_extremes",
            "uc_modes", "gap_tol", "max_iter", "stab_weight", "beta",
            "jobs", "sub_jobs",
        }
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "out_dir" not in d:
            raise ConfigError("out_dir is required")
        kw = dict(d)
        kw["synth"] = synth
        kw["partitions"] = tuple(parts)
        for key in ("k_values", "uc_modes"):
            if key in kw:
                kw[key] = tuple(kw[key])
        try:
            return cls(**kw)
        except TypeError as e:
            raise ConfigError(str(e)) from None

    @classmethod
    def from_yaml(cls, path: str) -> "RunConfig":
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path) as fh:
            try:
                d = yaml.safe_load(fh)
            except yaml.YAMLError as e:
                raise ConfigError(f"bad YAML in {path}: {e}") from None
        if not isinstance(d, dict):
            raise ConfigError(f"config root must be a mapping: {path}")
        return cls.from_dict(d)

    def load_fine(self) -> SystemCase:
        if self.input_dir is not None:
            return load_system(self.input_dir)
        return generate(self.synth, seed=self.seed)

    def check_fine(self, fine: SystemCase) -> None:
        """Reject partitions that fine cannot take: a region count above its
        regions, or a partition file that cannot be read or does not map
        exactly its regions."""
        ids = {r.id for r in fine.regions}
        for p in self.partitions:
            if p.n_regions is not None and p.n_regions > len(fine.regions):
                raise ConfigError(
                    f"partition {p.name}: regions {p.n_regions} exceeds the "
                    f"{len(fine.regions)} regions of the fine system"
                )
            if p.path is not None:
                try:
                    mapped = set(load_partition_file(p.path).mapping)
                except (OSError, ValueError) as e:
                    raise ConfigError(f"partition {p.name}: {e}") from None
                if mapped != ids:
                    raise ConfigError(
                        f"partition {p.name}: {p.path} misses fine regions "
                        f"{sorted(ids - mapped)} and maps unknown regions {sorted(mapped - ids)}"
                    )

    def combos(self) -> list:
        out = [Combo(HRB_NAME, None, None, "relaxed")]
        for p in self.partitions:
            for k in self.k_values:
                kk = None if k == "all" else int(k)
                for uc in self.uc_modes:
                    out.append(Combo(f"{p.name}-k{'all' if kk is None else kk}-{uc}", p, kk, uc))
        return out


def chunk_partition(fine: SystemCase, n: int, name: str) -> RegionPartition:
    """Split the fine regions, in id order, into n contiguous groups of
    near-equal size. Singleton groups keep their member's name so a full
    split is the identity partition."""
    ids = sorted(r.id for r in fine.regions)
    if not 1 <= n <= len(ids):
        raise ValueError(f"cannot split {len(ids)} regions into {n} groups")
    base, extra = divmod(len(ids), n)
    mapping = {}
    pos = 0
    for g in range(n):
        size = base + (1 if g < extra else 0)
        group = ids[pos:pos + size]
        pos += size
        coarse = group[0] if len(group) == 1 else f"{name}_{g:02d}"
        for rid in group:
            mapping[rid] = coarse
    return RegionPartition.from_mapping(mapping)


def load_partition_file(path: str) -> RegionPartition:
    if not os.path.exists(path):
        raise FileNotFoundError(f"partition file not found: {path}")
    mapping = {}
    with open(path, newline="") as fh:
        rd = csv.DictReader(fh)
        if rd.fieldnames is None or not {"fine_region", "region"} <= set(rd.fieldnames):
            raise ValueError(f"{path}: expected columns fine_region,region")
        for row in rd:
            mapping[row["fine_region"]] = row["region"]
    return RegionPartition.from_mapping(mapping)


def resolve_partition(fine: SystemCase, spec: PartitionSpec | None) -> RegionPartition:
    if spec is None:
        return RegionPartition.identity(fine)
    if spec.path is not None:
        return load_partition_file(spec.path)
    return chunk_partition(fine, spec.n_regions, spec.name)


@dataclass
class Baseline:
    """The HRB artifacts every other combo is scored against."""

    allocation: SiteAllocation
    operations: ExpansionSolution
    ops_case: SystemCase
    line_capacity: dict


@dataclass
class CaseResult:
    combo: Combo
    n_regions: int = 0
    report: MetricsReport | None = None
    runtime_s: float = 0.0
    error: str | None = None
    artifacts_dir: str = ""
    baseline: Baseline | None = None  # populated for the HRB combo

    @property
    def ok(self) -> bool:
        return self.error is None


def write_investments(values: dict, path: str) -> None:
    """investments.csv: named investment values (see investment_entries), by name."""
    write_csv(path, ("variable", "value"), ((k, float(v)) for k, v in sorted(values.items())))


def write_operations(operations: ExpansionSolution, path: str) -> None:
    """operations.csv: headline numbers of a fine-resolution dispatch."""
    write_csv(
        path,
        ("metric", "value"),
        (
            ("objective", float(operations.objective)),
            ("variable_cost", float(operations.variable_cost)),
            ("nse_cost", float(operations.nse_cost_total)),
            ("carbon_fee_cost", float(operations.carbon_fee_cost)),
            ("total_nse", float(operations.total_nse)),
            ("total_emissions", float(operations.total_emissions)),
        ),
    )


def run_case(
    rc: RunConfig,
    combo: Combo,
    fine: SystemCase | None = None,
    baseline: Baseline | None = None,
) -> CaseResult:
    """Execute one combo end to end. Any stage failure is wrapped in a
    stage-tagged error on the result; nothing is raised."""
    t0 = time.perf_counter()
    out = CaseResult(combo=combo)
    art = os.path.join(rc.out_dir, combo.name)
    os.makedirs(art, exist_ok=True)
    out.artifacts_dir = art
    write_csv(
        os.path.join(art, "combo.csv"),
        ("field", "value"),
        (("name", combo.name), ("k", combo.k_label), ("uc", combo.uc)),
    )
    error_path = os.path.join(art, "error.txt")
    if os.path.exists(error_path):  # left by an earlier run into this directory
        os.remove(error_path)
    starts = [("setup", t0)]  # (stage, start time) of each stage reached

    @contextmanager
    def stage(name: str):
        """Time the stage name and tag its failure with it."""
        starts.append((name, time.perf_counter()))
        try:
            yield
        except Exception as e:
            raise StageError(name, str(e)) from e

    try:
        if fine is None:
            fine = rc.load_fine()

        # 1: spatial aggregation
        with stage("aggregate"):
            partition = resolve_partition(fine, combo.partition)
            coarse = aggregate_spatial(fine, partition)
            write_case(coarse, os.path.join(art, "coarse"))
        out.n_regions = len(coarse.regions)

        # 2: temporal reduction
        with stage("cluster"):
            reduced = coarse
            if combo.k is not None and combo.k < coarse.n_periods:
                red = cluster_timesteps(
                    coarse, combo.k, force_extremes=rc.force_extremes, seed=rc.seed
                )
                reduced = apply_temporal(coarse, red)
                write_reduction(red, os.path.join(art, "reduction.csv"))
                write_case(reduced, os.path.join(art, "reduced"))

        # 3: capacity expansion with reserves
        with stage("expand"):
            bres = solve_benders(
                reduced,
                uc=combo.uc,
                reserve=True,
                gap_tol=rc.gap_tol,
                max_iter=rc.max_iter,
                stab_weight=rc.stab_weight,
                sub_jobs=rc.sub_jobs,
            )
            write_csv(
                os.path.join(art, "benders_timing.csv"),
                ("iteration", "master_s", "sub_s", "sub_iterations", "warm_fallbacks"),
                bres.timing,
            )
            if not bres.converged:
                raise RuntimeError(
                    f"no convergence in {bres.iterations} iterations, gap {bres.gap:.3e}"
                )
            write_csv(
                os.path.join(art, "benders_log.csv"),
                ("iteration", "lower_bound", "upper_bound", "gap"),
                ((it, float(lb), float(ub), float(g)) for it, lb, ub, g in bres.log),
            )
            write_investments(bres.solution.investment_values(), os.path.join(art, "investments.csv"))

        # 4: translate the coarse build onto the fine system
        with stage("translate"):
            allocation, portfolio = translate_solution(
                bres.solution, coarse, fine, beta=rc.beta
            )
            write_allocation(allocation, os.path.join(art, "allocation.csv"))
            write_portfolio(portfolio, os.path.join(art, "portfolio.csv"))

        # 5: fine-resolution dispatch of the translated build
        with stage("operate"):
            operations = dispatch_portfolio(portfolio)
            write_operations(operations, os.path.join(art, "operations.csv"))

        # 6: score against the baseline
        with stage("metrics"):
            if combo.name == HRB_NAME:
                baseline = Baseline(
                    allocation=allocation,
                    operations=operations,
                    ops_case=portfolio.case,
                    line_capacity=portfolio.line_capacity,
                )
            elif isinstance(baseline, str):
                raise RuntimeError("baseline combo failed, nothing to score against")
            elif baseline is None:
                # standalone invocation: the reference must still be the HRB
                hrb_res = run_case(rc, Combo(HRB_NAME, None, None, "relaxed"), fine, None)
                if not hrb_res.ok:
                    raise RuntimeError(f"baseline run failed ({hrb_res.error})")
                baseline = hrb_res.baseline
            report = build_report(
                combo.name,
                bres.solution,
                operations,
                coarse,
                fine,
                allocation,
                baseline.allocation,
                baseline.operations,
                portfolio.line_capacity,
                baseline.line_capacity,
                ops_case=portfolio.case,
                hrb_ops_case=baseline.ops_case,
            )
            write_report([report], os.path.join(art, "report.csv"))

        out.report = report
        if combo.name == HRB_NAME:
            out.baseline = baseline
    except Exception as e:
        # a StageError names its stage; anything else is a config or load
        # problem before stage 1
        out.error = str(e) if isinstance(e, StageError) else f"setup: {e}"
        with open(error_path, "w") as fh:
            fh.write("".join(traceback.format_exception(e)))

    end = time.perf_counter()
    out.runtime_s = end - t0
    stops = [t for _name, t in starts[1:]] + [end]
    write_csv(
        os.path.join(art, "stage_timing.csv"),
        ("stage", "seconds"),
        ((name, stop - start) for (name, start), stop in zip(starts, stops)),
    )
    return out


def _is_hrb_equivalent(combo: Combo, fine: SystemCase) -> bool:
    if combo.uc != "relaxed" or combo.k is not None:
        return False
    if combo.partition is None:
        return True
    try:
        part = resolve_partition(fine, combo.partition)
    except Exception:
        return False
    return part.mapping == {r.id: r.id for r in fine.regions}


def _sco_column(report: MetricsReport, techs) -> float:
    vals = [report.sco_by_tech[t] for t in techs if t in report.sco_by_tech]
    return sum(vals) / len(vals) if vals else 100.0


LADDER_COLUMNS = (
    "combo", "n_regions", "k", "uc", "sco_solar", "sco_wind", "mse_cap",
    "mse_profit", "mse_emiss", "total_cost", "nse", "emissions",
)


def _ladder_row(res: CaseResult):
    r = res.report
    return (
        res.combo.name,
        res.n_regions,
        res.combo.k_label,
        res.combo.uc,
        float(_sco_column(r, ("solar",))),
        float(_sco_column(r, WIND_TECHS)),
        float(r.mse_cap),
        float(r.mse_profit),
        float(r.mse_emiss),
        float(r.total_cost),
        float(r.total_nse),
        float(r.total_emissions),
    )


@dataclass
class ExperimentReport:
    results: list
    ladder_path: str
    timing_path: str
    report_path: str

    @property
    def failed(self) -> list:
        return [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failed


def run_ladder(rc: RunConfig) -> ExperimentReport:
    combos = rc.combos()
    if len(combos) < 2:
        raise ConfigError("a ladder needs at least one combo besides the baseline")
    fine = rc.load_fine()
    rc.check_fine(fine)
    os.makedirs(rc.out_dir, exist_ok=True)
    if rc.synth is not None:
        write_case(fine, os.path.join(rc.out_dir, "system"))

    results = [run_case(rc, combos[0], fine, None)]  # HRB first
    baseline = results[0].baseline if results[0].ok else _FAILED_BASELINE

    rest = combos[1:]
    reuse = [c for c in rest if _is_hrb_equivalent(c, fine) and results[0].ok]
    solve = [c for c in rest if c not in reuse]

    if rc.jobs > 1 and len(solve) > 1:
        with ProcessPoolExecutor(max_workers=rc.jobs) as pool:
            solved = list(pool.map(run_case, *zip(*[(rc, c, fine, baseline) for c in solve])))
    else:
        solved = [run_case(rc, c, fine, baseline) for c in solve]
    by_name = {r.combo.name: r for r in solved}

    for combo in rest:
        if combo in reuse:
            results.append(_clone_hrb_result(rc, combo, results[0], fine))
        else:
            results.append(by_name[combo.name])

    ladder_path = os.path.join(rc.out_dir, "ladder.csv")
    timing_path = os.path.join(rc.out_dir, "ladder_timing.csv")
    report_path = os.path.join(rc.out_dir, "report.csv")
    write_csv(
        ladder_path,
        LADDER_COLUMNS,
        (_ladder_row(r) for r in results if r.ok),
    )
    write_csv(
        timing_path,
        ("combo", "runtime_s", "status"),
        ((r.combo.name, f"{r.runtime_s:.6f}", "ok" if r.ok else r.error) for r in results),
    )
    write_report([r.report for r in results if r.ok], report_path)
    return ExperimentReport(
        results=results,
        ladder_path=ladder_path,
        timing_path=timing_path,
        report_path=report_path,
    )


def _clone_hrb_result(rc: RunConfig, combo: Combo, hrb: CaseResult, fine: SystemCase) -> CaseResult:
    """A combo that is exactly the baseline resolution reuses the baseline
    solve; its artifacts directory just points at the baseline's."""
    t0 = time.perf_counter()
    rep = replace(hrb.report, combo=combo.name)
    art = os.path.join(rc.out_dir, combo.name)
    os.makedirs(art, exist_ok=True)
    write_report([rep], os.path.join(art, "report.csv"))
    with open(os.path.join(art, "baseline_alias.txt"), "w") as fh:
        fh.write(f"identical to {hrb.combo.name}; see {hrb.artifacts_dir}\n")
    return CaseResult(
        combo=combo,
        n_regions=hrb.n_regions,
        report=rep,
        runtime_s=time.perf_counter() - t0,
        artifacts_dir=art,
    )


def summarize(report: ExperimentReport) -> str:
    lines = [format_summary([r.report for r in report.results if r.ok])]
    for r in report.failed:
        lines.append(f"FAILED {r.combo.name}: {r.error}")
    return "\n".join(lines)


# -- rebuilding results from persisted artifacts -------------------------------


def read_investments(path: str) -> dict:
    out = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out[row["variable"]] = float(row["value"])
    return out


def _read_combo_meta(combo_dir: str) -> dict:
    meta = {}
    path = os.path.join(combo_dir, "combo.csv")
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            meta[row["field"]] = row["value"]
    return meta


def _replay_phase1(combo_dir: str) -> tuple:
    """Re-derive the phase-1 solution of a persisted combo by pinning its
    saved investments into the expansion LP. Returns (coarse, solution)."""
    meta = _read_combo_meta(combo_dir)
    reduced_dir = os.path.join(combo_dir, "reduced")
    case_dir = reduced_dir if os.path.isdir(reduced_dir) else os.path.join(combo_dir, "coarse")
    coarse = load_system(case_dir)
    fix = read_investments(os.path.join(combo_dir, "investments.csv"))
    lp, ix = build_lp(
        coarse,
        BuildOptions(uc=meta.get("uc", "relaxed"), reserve=True, fix=fix),
    )
    sol = solve_simplex(lp)
    if not sol.is_optimal:
        raise RuntimeError(f"phase-1 replay is {sol.status}")
    return coarse, extract_solution(coarse, ix, sol)


def dispatch_portfolio(portfolio) -> ExpansionSolution:
    """Dispatch a translated build, with relaxed unit commitment, over the
    full chronology of its case, which includes any template cluster the
    translation created."""
    lp, ix = build_operations_lp(portfolio.case, portfolio, uc="relaxed")
    sol = solve_simplex(lp)
    if not sol.is_optimal:
        raise RuntimeError(f"operations LP is {sol.status}")
    return extract_solution(portfolio.case, ix, sol)


def replay_operations(fine: SystemCase, allocation_path: str, coarse: SystemCase | None = None):
    """Re-dispatch a saved allocation on the fine case. Given the coarse case
    the allocation was translated from, template clusters and storage in it
    are rebuilt from their provenance cluster; without it, an allocation
    onto a template is refused ("unknown fine thermal cluster")."""
    allocation = read_allocation(allocation_path)
    portfolio = build_portfolio(fine, allocation, coarse)
    return allocation, portfolio, dispatch_portfolio(portfolio)


def rescore_from_artifacts(rc: RunConfig, combo_dir: str, baseline_dir: str) -> MetricsReport:
    """Rebuild a combo's metrics report from its persisted artifacts,
    re-solving the cheap pinned LPs rather than trusting stale series."""
    fine = rc.load_fine()
    meta = _read_combo_meta(combo_dir)
    coarse, expansion = _replay_phase1(combo_dir)
    allocation, portfolio, operations = replay_operations(
        fine, os.path.join(combo_dir, "allocation.csv"), coarse
    )
    hrb_allocation, hrb_portfolio, hrb_operations = replay_operations(
        fine, os.path.join(baseline_dir, "allocation.csv")
    )
    return build_report(
        meta.get("name", os.path.basename(combo_dir)),
        expansion,
        operations,
        coarse,
        fine,
        allocation,
        hrb_allocation,
        hrb_operations,
        portfolio.line_capacity,
        hrb_portfolio.line_capacity,
        ops_case=portfolio.case,
        hrb_ops_case=hrb_portfolio.case,
    )
