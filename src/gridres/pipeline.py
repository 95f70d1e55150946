"""Resolution-ladder orchestration.

A ladder is a list of resolution combos run against one fine system. The
high-resolution baseline (HRB) is the identity partition at full
chronology with relaxed commitment; it always runs first and every other
combo is scored against it. Every combo, one at the HRB's own resolution
included, follows the same six stages in its own directory:

    aggregate -> cluster -> expand -> translate -> operate -> metrics

with every intermediate written under out/<combo>/. The first five are
run_aggregate, run_cluster, run_expand, run_translate and run_operate: each
writes its files into the combo directory and returns what the next one
reads, and the CLI stage commands call the same functions one at a time on
the files of the stage before (STAGE_FILES). A stage failure aborts only
its own combo; the error is tagged with the stage name and the ladder
carries on.

A combo's commitment mode is stored once, as the uc_mode of its case:
run_aggregate sets it in coarse/, clustering copies it into reduced/, and
expansion reads it from there. Dispatch at full resolution is relaxed:
translate.build_portfolio sets that mode on the portfolio's case.

ladder.csv holds only deterministic columns so reruns with the same seed
are byte-identical; wall-clock numbers go to side files instead:
ladder_timing.csv per ladder, <combo>/stage_timing.csv per combo (the wall
seconds of its set-up and of each stage it reached, summing to its
runtime_s), <combo>/benders_timing.csv per Benders solve and
<combo>/operate_timing.csv for the dispatch's solve. A failed combo leaves
its full traceback in <combo>/error.txt.

The operate stage of every combo but the HRB starts from the optimal
basis of the HRB's dispatch (DispatchedBuild.basis, handed on through
CaseResult.baseline), since its operations LP is the HRB's with another
build pinned; a build equal to the HRB's reuses the HRB's dispatch
(dispatch_portfolio). The HRB's own operate stage starts from the last
bases of its Benders subproblems (BendersResult.bases), which run_expand
writes to benders_bases.csv: in memory in the ladder, and read back from
that file by ``gridres operate`` and by the baseline replays of
``gridres operate --baseline-dir`` and ``gridres metrics``, so each of
them starts from the same bases and writes what the ladder writes. Those
bases fit only an expansion at the HRB's resolution (bases_fit), so
run_expand computes and writes them for no other, and read_bases looks
for the file of no other.

Phase 1 reaches the report only as the two things Benders returns of it:
the build, which run_expand writes to investments.csv and the report
prices with expansion.fixed_cost, and its summary
(metrics.phase_summary), which run_expand writes to phase1.csv.
rescore_from_artifacts (``gridres metrics``) re-scores a combo from its
files: it reads both, re-dispatches the HRB's saved allocation and then
the combo's from the HRB's basis, and solves no Benders subproblem. It
names the report after the combo directory, and for a ladder combo the
report equals its report.csv byte for byte.
"""

from __future__ import annotations

import logging
import math
import os
import shutil
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np
import yaml

from .benders import STAB_WEIGHT, BendersResult, check_options, solve_benders
from .caseio import _Table, load_system, read_partition, write_case, write_csv
from .expansion import (
    ExpansionSolution,
    build_lp,
    build_operations_lp,
    extract_solution,
    fixed_cost,
    investment_entries,
    placed_basis,
)
from .lp import PRIMAL_TOL, STATUS_CODES, Basis, ReducedModel, solve_simplex
from .metrics import (
    HEADLINE_COLUMNS,
    DispatchedBuild,
    MetricsReport,
    build_report,
    format_summary,
    headline,
    write_report,
)
from .model import UC_MODES, VRE_TECHS, CaseError, SystemCase
from .spatial import RegionPartition, aggregate_spatial
from .syngen import PATHWAY_CARBON_FEE, SynthConfig, generate
from .temporal import apply_temporal, cluster_timesteps, write_reduction
from .translate import (
    build_portfolio,
    read_allocation,
    translate_solution,
    write_allocation,
    write_portfolio,
)

logger = logging.getLogger(__name__)


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
        # the name is the combo directory's: one directory inside out_dir
        if self.name in ("", ".", "..") or any(sep and sep in self.name for sep in ("/", os.sep, os.altsep)):
            raise ConfigError(f"partition name must be one directory name, got {self.name!r}")
        if (self.path is None) == (self.n_regions is None):
            raise ConfigError(f"partition {self.name}: give exactly one of path / regions")
        if self.path is not None and not _is_path(self.path):
            raise ConfigError(f"partition {self.name}: path must be a non-empty string, got {self.path!r}")
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_path(value) -> bool:
    return isinstance(value, str) and value != ""


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
    stab_weight: float = STAB_WEIGHT
    beta: float = 1.0
    jobs: int = 1
    sub_jobs: int = 1

    def __post_init__(self):
        if (self.input_dir is None) == (self.synth is None):
            raise ConfigError("give exactly one of input dir / synthetic config")
        if not _is_path(self.out_dir):
            raise ConfigError(f"out_dir must be a non-empty string, got {self.out_dir!r}")
        if self.input_dir is not None and not _is_path(self.input_dir):
            raise ConfigError(f"input_dir must be a non-empty string, got {self.input_dir!r}")
        if not isinstance(self.force_extremes, bool):
            raise ConfigError(f"force_extremes must be true or false, got {self.force_extremes!r}")
        if self.synth is not None:
            for key, (ok, what) in _SYNTH_CHECKS.items():
                value = getattr(self.synth, key)
                if not ok(value):
                    raise ConfigError(f"synth.{key} must be {what}, got {value!r}")
        for uc in self.uc_modes:
            if uc not in UC_MODES:
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
        for key in ("gap_tol", "beta"):
            value = getattr(self, key)
            if not _is_number(value):
                raise ConfigError(f"{key} must be a number, got {value!r}")
        for key in ("seed", "jobs"):
            value = getattr(self, key)
            if not _is_int(value):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be an integer >= 1, got {self.jobs!r}")
        try:
            check_options(self.max_iter, self.stab_weight, self.sub_jobs)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        # negated comparisons so that NaN is rejected too
        if not self.gap_tol >= 0.0:
            raise ConfigError(f"gap_tol must be >= 0, got {self.gap_tol!r}")
        if not self.beta >= 0.0:
            raise ConfigError(f"beta must be >= 0, got {self.beta!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        d = dict(d)
        for key in ("partitions", "k_values", "uc_modes"):
            if key in d and not isinstance(d[key], (list, tuple)):
                raise ConfigError(f"{key} must be a list, got {d[key]!r}")
        synth = d.pop("synth", None)
        if synth is not None:
            try:
                synth = SynthConfig(**synth)
            except TypeError as e:
                raise ConfigError(f"bad synth config: {e}") from None
        parts = []
        for p in d.pop("partitions", ()):
            if not isinstance(p, dict) or "name" not in p:
                raise ConfigError(f"a partition needs a name and a path or regions, got {p!r}")
            unknown = set(p) - {"name", "path", "regions"}
            if unknown:
                raise ConfigError(f"partition {p['name']}: unknown keys: {sorted(unknown)}")
            parts.append(
                PartitionSpec(
                    name=str(p["name"]),
                    path=p.get("path"),
                    n_regions=p.get("regions"),
                )
            )
        unknown = set(d) - {f.name for f in fields(cls)}
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
                    combo = Combo("", p, kk, uc)
                    out.append(replace(combo, name=f"{p.name}-k{combo.k_label}-{uc}"))
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
    return RegionPartition.from_mapping(read_partition(path))


def resolve_partition(fine: SystemCase, spec: PartitionSpec | None) -> RegionPartition:
    if spec is None:
        return RegionPartition.identity(fine)
    if spec.path is not None:
        return load_partition_file(spec.path)
    return chunk_partition(fine, spec.n_regions, spec.name)


@dataclass
class CaseResult:
    combo: Combo
    n_regions: int = 0
    report: MetricsReport | None = None
    runtime_s: float = 0.0
    error: str | None = None
    artifacts_dir: str = ""
    baseline: DispatchedBuild | None = None  # the HRB combo's own record

    @property
    def ok(self) -> bool:
        return self.error is None


def write_investments(values: dict, path: str) -> None:
    """investments.csv: named investment values (see investment_entries), by name."""
    write_csv(path, ("variable", "value"), ((k, float(v)) for k, v in sorted(values.items())))


def write_bases(bases: list, path: str) -> None:
    """benders_bases.csv: the status codes of BendersResult.bases, one row
    per period, as one digit per column (cols) and per row (rows) of the
    period's subproblem."""

    def digits(codes):
        return (codes + ord("0")).tobytes().decode()

    write_csv(path, ("period", "cols", "rows"), ((p, digits(c), digits(r)) for p, (c, r) in enumerate(bases)))


def bases_fit(case: SystemCase, fine: SystemCase) -> bool:
    """Whether the Benders bases of an expansion of case can start the
    dispatch of its build on fine (expansion.placed_basis): only when its
    subproblems laid end to end are that build's operations LP, so when
    case is fine at full resolution, over fine's regions and every period,
    with relaxed commitment, as the HRB is and an identity-partition combo
    at k all."""
    return case.uc_mode == "relaxed" and case.partition == fine.partition and case.n_periods == fine.n_periods


def read_bases(combo_dir: str, fine: SystemCase) -> list | None:
    """benders_bases.csv of a combo directory as BendersResult.bases, or
    None when the directory holds no investments.csv (no converged
    expansion) or its expansion's bases do not fit its dispatch on fine
    (bases_fit; no file is looked for then). The file must hold one row for
    each period of the case its expansion solved (combo_case_dir), and
    nothing else, with one HiGHS basis status code per column and per row
    of the period's Benders subproblem."""
    if not os.path.exists(os.path.join(combo_dir, "investments.csv")):
        return None
    case_dir = combo_case_dir(combo_dir)
    case = load_system(case_dir)
    if not bases_fit(case, fine):
        return None
    path = os.path.join(combo_dir, "benders_bases.csv")
    table = _Table(path, ("period", "cols", "rows"))
    lp, _ix = build_lp(case, periods=(0,))
    digits = [ord("0") + code for code in STATUS_CODES]
    bases = {}
    for rowno, row in table:
        period = table.cell(rowno, row, "period", int)
        if period in bases:
            raise CaseError(f"{path} row {rowno}: duplicate period {period}")
        pair = []
        for column, expected in (("cols", lp.n_vars), ("rows", lp.n_rows)):
            codes = np.frombuffer(table.cell(rowno, row, column).encode(), dtype=np.uint8)
            bad = codes[~np.isin(codes, digits)]
            if bad.size:
                raise CaseError(f"{path} row {rowno}: {chr(bad[0])!r} is not a HiGHS basis status code")
            if codes.size != expected:
                raise CaseError(f"{path} row {rowno}: {codes.size} codes in {column}, expected {expected}")
            pair.append((codes - ord("0")).astype(np.int8))
        bases[period] = tuple(pair)
    periods = range(case.n_periods)
    missing, unknown = sorted(set(periods) - set(bases)), sorted(set(bases) - set(periods))
    if missing or unknown:
        raise CaseError(f"{path} does not match {case_dir}: missing periods {missing}, unknown periods {unknown}")
    return [bases[p] for p in periods]


def write_operations(operations: ExpansionSolution, path: str) -> None:
    """operations.csv: headline numbers of a fine-resolution dispatch, its
    totals those report.csv gives of it."""
    write_csv(
        path,
        ("metric", "value"),
        (
            ("objective", float(operations.objective)),
            ("variable_cost", float(operations.variable_cost)),
            ("nse_cost", float(operations.nse_cost)),
            ("carbon_fee_cost", float(operations.carbon_fee_cost)),
            ("total_nse", float(operations.total_nse)),
            ("total_emissions", float(operations.total_emissions)),
        ),
    )


# -- the per-combo stages, each writing into the combo directory art -------------

# What each stage writes into a combo directory, in stage order. Before a
# stage runs, clear_from removes its own and every later stage's files, so
# no stage reads a file left by an earlier run: run_case clears from
# aggregate once, and each CLI stage command from its own stage.
STAGE_FILES = (
    ("aggregate", ("coarse",)),
    ("cluster", ("reduction.csv", "reduced")),
    ("expand", ("benders_timing.csv", "benders_log.csv", "investments.csv", "phase1.csv", "benders_bases.csv")),
    ("translate", ("allocation.csv", "portfolio.csv")),
    ("operate", ("operations.csv", "operate_timing.csv")),
)


def clear_from(stage: str, art: str) -> None:
    """Remove the files of stage and of every later stage from art."""
    first = [name for name, _files in STAGE_FILES].index(stage)
    for _name, files in STAGE_FILES[first:]:
        for f in files:
            path = os.path.join(art, f)
            if os.path.isdir(path):
                shutil.rmtree(path)
            elif os.path.exists(path):
                os.remove(path)


def run_aggregate(fine: SystemCase, spec: PartitionSpec | None, uc_mode: str, art: str) -> SystemCase:
    """Aggregate fine onto spec's partition (None: the identity) into coarse/,
    as a case to be expanded under the commitment mode uc_mode."""
    coarse = aggregate_spatial(fine, resolve_partition(fine, spec)).with_updates(uc_mode=uc_mode)
    write_case(coarse, os.path.join(art, "coarse"))
    return coarse


def run_cluster(rc: RunConfig, coarse: SystemCase, k: int | None, art: str) -> SystemCase:
    """Reduce coarse to k representative periods into reduction.csv and
    reduced/. A k of None or of at least the period count keeps every
    period and writes nothing."""
    if k is None or k >= coarse.n_periods:
        return coarse
    red = cluster_timesteps(coarse, k, force_extremes=rc.force_extremes, seed=rc.seed)
    reduced = apply_temporal(coarse, red)
    write_reduction(red, os.path.join(art, "reduction.csv"))
    write_case(reduced, os.path.join(art, "reduced"))
    return reduced


def combo_case_dir(art: str) -> str:
    """The case a combo's expansion solves: reduced/ if it has one, else coarse/."""
    reduced_dir = os.path.join(art, "reduced")
    return reduced_dir if os.path.isdir(reduced_dir) else os.path.join(art, "coarse")


def run_expand(rc: RunConfig, case: SystemCase, fine: SystemCase, art: str) -> BendersResult:
    """Solve the capacity expansion of case, under its uc_mode, with reserves
    by Benders. Writes benders_timing.csv and benders_log.csv, and on
    convergence its investment to investments.csv, its phase-1 summary to
    phase1.csv and, where they fit the dispatch on fine (bases_fit), its
    subproblems' last bases to benders_bases.csv; returns the
    BendersResult, whose bases are empty where they do not fit."""
    bres = solve_benders(
        case,
        reserve=True,
        gap_tol=rc.gap_tol,
        max_iter=rc.max_iter,
        stab_weight=rc.stab_weight,
        sub_jobs=rc.sub_jobs,
        bases=bases_fit(case, fine),
    )
    write_csv(
        os.path.join(art, "benders_timing.csv"),
        ("iteration", "master_s", "sub_s", "sub_iterations", "warm_fallbacks", "ipm_retries"),
        bres.timing,
    )
    write_csv(
        os.path.join(art, "benders_log.csv"),
        ("iteration", "lower_bound", "upper_bound", "gap"),
        ((it, float(lb), float(ub), float(g)) for it, lb, ub, g in bres.log),
    )
    if bres.converged:
        write_investments(bres.investment, os.path.join(art, "investments.csv"))
        phase1 = ((k, float(v)) for k, v in bres.phase1.items())
        write_csv(os.path.join(art, "phase1.csv"), ("key", "value"), phase1)
        if bres.bases:
            write_bases(bres.bases, os.path.join(art, "benders_bases.csv"))
    return bres


def run_translate(rc: RunConfig, investment: dict, coarse: SystemCase, fine: SystemCase, art: str) -> tuple:
    """Translate the coarse build onto fine into allocation.csv and
    portfolio.csv; returns (allocation, portfolio)."""
    allocation, portfolio = translate_solution(investment, coarse, fine, beta=rc.beta)
    write_allocation(allocation, os.path.join(art, "allocation.csv"))
    write_portfolio(portfolio, os.path.join(art, "portfolio.csv"))
    return allocation, portfolio


def run_operate(
    allocation, portfolio, art: str, baseline: DispatchedBuild | None = None, bases: list | None = None
) -> DispatchedBuild:
    """Dispatch the translated build at full resolution into operations.csv,
    from baseline, the HRB's record, when given, else from bases, those of
    the combo's own Benders subproblems (dispatch_portfolio). Its solve goes
    to operate_timing.csv."""
    operations, solve, basis = dispatch_portfolio(portfolio, baseline, bases)
    write_operations(operations, os.path.join(art, "operations.csv"))
    write_csv(os.path.join(art, "operate_timing.csv"), OperateSolve._fields, [solve])
    return DispatchedBuild(allocation, portfolio, operations, basis)


def run_case(
    rc: RunConfig,
    combo: Combo,
    fine: SystemCase,
    baseline: DispatchedBuild | None = None,
) -> CaseResult:
    """Execute one combo end to end and score it against baseline, the
    HRB's record (run_ladder runs the HRB first). The HRB scores itself; any
    other combo without a baseline fails its metrics stage. Any stage
    failure is wrapped in a stage-tagged error on the result; nothing is
    raised."""
    t0 = time.perf_counter()
    logger.info("combo %s: start", combo.name)
    out = CaseResult(combo=combo)
    art = os.path.join(rc.out_dir, combo.name)
    os.makedirs(art, exist_ok=True)
    out.artifacts_dir = art
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
        with stage("aggregate"):
            clear_from("aggregate", art)
            coarse = run_aggregate(fine, combo.partition, combo.uc, art)
        out.n_regions = len(coarse.regions)
        with stage("cluster"):
            reduced = run_cluster(rc, coarse, combo.k, art)
        with stage("expand"):
            bres = run_expand(rc, reduced, fine, art)
            if not bres.converged:
                raise RuntimeError(
                    f"no convergence in {bres.iterations} iterations, gap {bres.gap:.3e}"
                )
        with stage("translate"):
            allocation, portfolio = run_translate(rc, bres.investment, coarse, fine, art)
        with stage("operate"):
            build = run_operate(allocation, portfolio, art, baseline, bres.bases)
        with stage("metrics"):
            if combo.name == HRB_NAME:
                baseline = out.baseline = build
            elif baseline is None:
                raise RuntimeError("no baseline to score against: none was given, or the baseline combo failed")
            report = build_report(
                combo.name, bres.phase1, fixed_cost(reduced, bres.investment), fine, build, baseline
            )
            write_report([report], os.path.join(art, "report.csv"))

        out.report = report
    except Exception as e:
        out.error = str(e)  # a StageError names its stage
        with open(error_path, "w") as fh:
            fh.write("".join(traceback.format_exception(e)))

    end = time.perf_counter()
    out.runtime_s = end - t0
    logger.info("combo %s: %s in %.2f s", combo.name, "ok" if out.ok else out.error, out.runtime_s)
    stops = [t for _name, t in starts[1:]] + [end]
    write_csv(
        os.path.join(art, "stage_timing.csv"),
        ("stage", "seconds"),
        ((name, stop - start) for (name, start), stop in zip(starts, stops)),
    )
    return out


LADDER_COLUMNS = ("combo", "n_regions", "k", "uc", *HEADLINE_COLUMNS)


def _ladder_row(res: CaseResult):
    return (res.combo.name, res.n_regions, res.combo.k_label, res.combo.uc, *headline(res.report))


@dataclass
class ExperimentReport:
    results: list
    ladder_path: str

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

    hrb = run_case(rc, combos[0], fine, None)  # HRB first
    rest = combos[1:]
    args = [(rc, c, fine, hrb.baseline) for c in rest]  # a None baseline fails their metrics
    if rc.jobs > 1 and len(rest) > 1:
        with ProcessPoolExecutor(max_workers=rc.jobs) as pool:
            results = [hrb, *pool.map(run_case, *zip(*args))]
    else:
        results = [hrb, *(run_case(*a) for a in args)]

    ladder_path = os.path.join(rc.out_dir, "ladder.csv")
    write_csv(ladder_path, LADDER_COLUMNS, (_ladder_row(r) for r in results if r.ok))
    write_csv(
        os.path.join(rc.out_dir, "ladder_timing.csv"),
        ("combo", "runtime_s", "status"),
        ((r.combo.name, f"{r.runtime_s:.6f}", "ok" if r.ok else r.error) for r in results),
    )
    write_report([r.report for r in results if r.ok], os.path.join(rc.out_dir, "report.csv"))
    return ExperimentReport(results=results, ladder_path=ladder_path)


def summarize(report: ExperimentReport) -> str:
    lines = [format_summary([r.report for r in report.results if r.ok])]
    for r in report.failed:
        lines.append(f"FAILED {r.combo.name}: {r.error}")
    return "\n".join(lines)


# -- rebuilding results from persisted artifacts -------------------------------


def _read_named(path: str, column: str, names, case_dir: str) -> dict:
    """The rows of a (column, value) file as name -> (row number, float
    value). The file must name exactly names, those of the case loaded
    from case_dir, each once; a mismatch is refused with both lists, and a
    repeated name with its row number."""
    table = _Table(path, (column, "value"))
    saved: dict = {}
    for rowno, row in table:
        name = table.cell(rowno, row, column)
        if name in saved:
            raise CaseError(f"{path} row {rowno}: duplicate {column} {name}")
        saved[name] = (rowno, table.cell(rowno, row, "value", float))
    missing, unknown = sorted(set(names) - set(saved)), sorted(set(saved) - set(names))
    if missing or unknown:
        raise CaseError(f"{path} does not match {case_dir}: missing {missing}, unknown {unknown}")
    return saved


def read_investments(path: str, case: SystemCase, case_dir: str) -> dict:
    """Read investments.csv as the named investment vector of case, loaded
    from case_dir, in investment_entries order. The file must name every
    investment of the case and nothing else, each with a finite value
    within its bounds up to the LP's primal tolerance."""
    entries = investment_entries(case)
    saved = _read_named(path, "variable", [name for name, *_ in entries], case_dir)
    for name, _kind, _eid, lo, hi, _cost in entries:
        rowno, value = saved[name]
        low, high = lo - PRIMAL_TOL * (1.0 + abs(lo)), hi + PRIMAL_TOL * (1.0 + abs(hi))
        if not (math.isfinite(value) and low <= value <= high):
            raise CaseError(f"{path} row {rowno}: {name} = {value!r} is not a finite number in [{lo}, {hi}]")
    return {name: saved[name][1] for name, *_ in entries}


def read_phase1(path: str, case: SystemCase, case_dir: str) -> dict:
    """Read phase1.csv as the phase-1 summary of case, loaded from
    case_dir: one finite value for each thermal tech of the case and for
    "variable_cost", and nothing else."""
    keys = [*dict.fromkeys(c.tech for c in case.thermal_clusters), "variable_cost"]
    saved = _read_named(path, "key", keys, case_dir)
    for key in keys:
        rowno, value = saved[key]
        if not math.isfinite(value):
            raise CaseError(f"{path} row {rowno}: {key} = {value!r} is not a finite number")
    return {key: saved[key][1] for key in keys}


class OperateSolve(NamedTuple):
    """The operations LP's solve, as operate_timing.csv records it."""

    seconds: float  # wall time of the dispatch's solve
    simplex_iterations: int
    warm: int  # 1 if the accepted optimum came from the warm start, else 0


def dispatch_portfolio(
    portfolio, baseline: DispatchedBuild | None = None, bases: list | None = None
) -> tuple[ExpansionSolution, OperateSolve, Basis | None]:
    """Dispatch a translated build, with relaxed unit commitment, over the
    full chronology of its case, which includes any template cluster the
    translation created. Returns the operations, the solve and, without
    baseline, the optimal basis on the full LP (the HRB's is the warm start
    of every other combo).

    Given baseline, the HRB's record on the same fine case, the build's
    operations LP is the HRB's with another build pinned, so the solve
    starts from the HRB's basis on the row-reduced LP (lp.ReducedModel). A
    build equal to the HRB's has the HRB's LP and reuses its dispatch: no
    solve, 0 iterations, warm.

    Without baseline, the solve starts in the same way from bases, the last
    bases of the Benders subproblems of the build's expansion
    (BendersResult.bases), laid end to end (expansion.placed_basis), as the
    HRB's fit its LP. A start of another shape than the LP's (an LP with a
    template cluster, bases of uc "none" or missing a period) or a failed
    warm attempt is solved cold."""
    if (
        baseline is not None
        and portfolio.investment == baseline.portfolio.investment
        and portfolio.line_capacity == baseline.portfolio.line_capacity
    ):
        return baseline.operations, OperateSolve(0.0, 0, 1), None
    lp, ix = build_operations_lp(portfolio)
    t0 = time.perf_counter()
    warm = ReducedModel(baseline.basis if baseline is not None else placed_basis(ix, bases) if bases else None)
    sol = solve_simplex(lp, warm)
    solve = OperateSolve(time.perf_counter() - t0, sol.stats.iterations, int(sol.stats.warm))
    if not sol.is_optimal:
        raise RuntimeError(f"operations LP is {sol.status}")
    return extract_solution(portfolio.case, ix, sol), solve, None if baseline is not None else warm.full_basis(lp)


def replay_operations(
    fine: SystemCase,
    combo_dir: str,
    coarse: SystemCase | None = None,
    baseline: DispatchedBuild | None = None,
) -> DispatchedBuild:
    """Re-dispatch the allocation.csv of combo_dir on the fine case, from
    baseline, the HRB's record, when given, else from the directory's own
    Benders bases (read_bases; dispatch_portfolio). Given the coarse case
    the allocation was translated from, template clusters and storage in it
    are rebuilt from their provenance cluster; without it, an allocation
    onto a template is refused ("unknown fine thermal cluster")."""
    allocation = read_allocation(os.path.join(combo_dir, "allocation.csv"))
    portfolio = build_portfolio(fine, allocation, coarse)
    bases = read_bases(combo_dir, fine) if baseline is None else None
    operations, _solve, basis = dispatch_portfolio(portfolio, baseline, bases)
    return DispatchedBuild(allocation, portfolio, operations, basis)


def rescore_from_artifacts(rc: RunConfig, combo_dir: str, baseline_dir: str) -> MetricsReport:
    """Rebuild a combo's metrics report from its persisted artifacts: the
    phase-1 summary of phase1.csv, the fixed cost of investments.csv, and
    the dispatch of the baseline's and the combo's saved allocations, the
    baseline's from its saved Benders bases and the combo's from the
    baseline's basis, as in the ladder. The report is named after
    combo_dir."""
    fine = rc.load_fine()
    case_dir = combo_case_dir(combo_dir)
    case = load_system(case_dir)
    investment = read_investments(os.path.join(combo_dir, "investments.csv"), case, case_dir)
    phase1 = read_phase1(os.path.join(combo_dir, "phase1.csv"), case, case_dir)
    baseline = replay_operations(fine, baseline_dir)
    build = replay_operations(fine, combo_dir, case, baseline)
    name = os.path.basename(os.path.normpath(combo_dir))
    return build_report(name, phase1, fixed_cost(case, investment), fine, build, baseline)
