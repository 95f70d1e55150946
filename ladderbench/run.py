"""Ladder benchmark: drives gridres.pipeline.run_ladder as a closed loop.

    python3 ladderbench/run.py --workload weeks --seed 0 --seconds 56 --trace 0

One client in one process runs one ladder at a time (jobs=1) on the
workload's fixed system, with ``--seed`` as ``RunConfig.seed``, until the
next ladder would end past ``--seconds``. Set-up (imports, config build,
generating and writing the fine case) is measured in fresh subprocesses,
several times. The math libraries get one thread each (THREAD_VARS): with
``jobs=1`` and ``sub_jobs=1`` the ladder is serial, and idle BLAS threads
spinning on a shared machine add noise, not speed. The first ladder of a
run warms caches and lazy imports; it is gated but not sampled.

``--trace 0`` reports the end-to-end metrics, taken with tracing off, as
medians over the run's ladders and set-ups. Each time is scaled by the
calibration kernel timed right before and after it (calibrate.py), so that
the machine's drifting speed cancels; the record line keeps every raw
sample and calibration. ``--trace 1`` alternates untraced and traced
ladders and reports the per-layer medians of the traced ones, unscaled,
plus the tracing overhead.

Every ladder passes the correctness gate (gate.py) or the run fails:
every combo ok, ladder.csv within tolerance of the committed reference,
and byte-identical across all ladders of the run, traced or not.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted`` (combos run), ``failed`` (combos that failed or missed the
reference) and ``metrics``; the run exits 1 when it is not correct. The
line before it records the environment, the workload config and every
sample. Ladder outputs, spans and the result go to ``ladderbench/work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = BENCH_DIR / "work"
SETUP_REPEATS = 5
MIN_LADDERS = 3
LADDER_KEYS = ("ladder_s", "ladder_cpu_s", "hrb_s", "coarse_s")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """One thread per math library, here and in the set-up subprocesses.
    Takes effect only before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_checkout() -> None:
    """Import gridres from this checkout's src/ and nowhere else."""
    if not (SRC / "gridres" / "__init__.py").is_file():
        raise SystemExit(f"ladderbench: no gridres package under {SRC}")
    for path in (str(BENCH_DIR), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import gridres

    if Path(gridres.__file__).resolve().parent != (SRC / "gridres").resolve():
        raise SystemExit(f"ladderbench: imported gridres from {gridres.__file__}, not {SRC}")


def setup_probe(spec: dict, target: str) -> float:
    """One cold set-up, timed from before the package import."""
    t0 = time.perf_counter()
    use_checkout()
    from gridres.caseio import write_case
    from gridres.pipeline import RunConfig
    from gridres.syngen import SynthConfig, generate

    RunConfig.from_dict(spec["config"])
    write_case(generate(SynthConfig(**spec["synth"]), seed=spec["system_seed"]), target)
    return time.perf_counter() - t0


def measure_setup(workload, seed: int, work: Path) -> list:
    """Set up SETUP_REPEATS times in fresh interpreters, with a calibration
    before and after each. Returns one {setup_s, cal_s} sample per set-up.
    The case written by the first is the ladders' input."""
    from calibrate import calibrate

    spec = json.dumps({
        "synth": workload.synth,
        "system_seed": workload.system_seed,
        "config": workload.run_config(str(work / "ladder"), str(work / "setup-0"), seed),
    })
    samples = []
    cal = calibrate()
    for i in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", spec,
             str(work / f"setup-{i}")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        before, cal = cal, calibrate()
        samples.append({"setup_s": float(out.stdout.strip().splitlines()[-1]),
                        "cal_s": (before + cal) / 2})
        if i:
            shutil.rmtree(work / f"setup-{i}")
    return samples


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class LadderRunner:
    """Runs the ladders of one benchmark run and applies the gate to each."""

    def __init__(self, workload, seed: int, case_dir: Path, out_dir: Path, reference: Path):
        self.workload = workload
        self.seed = seed
        self.case_dir = case_dir
        self.out_dir = out_dir
        self.reference = reference.read_text() if reference.exists() else None
        self.first_text: str | None = None
        self.attempted = 0
        self.failed = 0
        self.identical = True

    def run(self, tracer=None) -> dict:
        from gate import failed_combos
        from gridres.pipeline import RunConfig, run_ladder
        from workloads import GAP_TOL

        shutil.rmtree(self.out_dir, ignore_errors=True)
        rc = RunConfig.from_dict(
            self.workload.run_config(str(self.out_dir), str(self.case_dir), self.seed))
        root = None
        if tracer is None:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            report = run_ladder(rc)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        else:
            with tracer.ladder(workload=self.workload.name, seed=self.seed) as root:
                cpu0 = time.process_time()
                report = run_ladder(rc)
                cpu = time.process_time() - cpu0
            wall = root.duration
        text = Path(report.ladder_path).read_text()
        if self.first_text is None:
            self.first_text = text
        self.identical &= text == self.first_text
        bad = failed_combos(report, text, self.reference, GAP_TOL)
        self.attempted += len(report.results)
        self.failed += len(bad)
        return {
            "ladder_s": wall,
            "ladder_cpu_s": cpu,
            "hrb_s": report.results[0].runtime_s,
            "coarse_s": sum(r.runtime_s for r in report.results[1:]),
            "failed_combos": sorted(bad),
            "root": root,
        }


def _median(values: list):
    if not values or any(v is None for v in values):
        return None
    return statistics.median(values)


def traced_metrics(tracer, workload, work: Path, untraced: list, traced: list) -> dict:
    import gridres.caseio as caseio
    import gridres.syngen as syngen
    from gate import stage_sum_ok
    from tracing import LAYER_METRICS, ladder_metrics, span_total, write_spans

    with tracer, tracer.ladder(kind="setup") as setup_root:
        case = syngen.generate(syngen.SynthConfig(**workload.synth), seed=workload.system_seed)
        caseio.write_case(case, str(work / "setup-traced"))
    per_ladder = [ladder_metrics(tracer.spans, s["root"], tracer.missing) for s in traced]
    metrics = {name: {"value": _median([m[name] for m in per_ladder]), "unit": unit}
               for name, (unit, _needs) in LAYER_METRICS.items()}
    metrics["syngen.generate_s"] = {
        "value": None if "syngen.generate" in tracer.missing
        else span_total(tracer.spans, setup_root, "syngen.generate"),
        "unit": "s",
    }
    metrics["trace.overhead_frac"] = {
        "value": _median([s["ladder_s"] for s in traced])
        / _median([s["ladder_s"] for s in untraced]) - 1.0,
        "unit": "ratio",
    }
    write_spans(tracer.spans, str(work / "spans.jsonl"))
    if tracer.missing:
        print(f"ladderbench: not traced, missing: {sorted(tracer.missing)}", file=sys.stderr)
    hook_errors = sorted({s.name for s in tracer.spans if "hook_error" in s.attrs})
    if hook_errors:
        print(f"ladderbench: span details lost for {hook_errors}", file=sys.stderr)
    frac = metrics["pipeline.stage_sum_frac"]["value"]
    if frac is not None and not stage_sum_ok(frac):
        print(f"ladderbench: stages cover {frac:.4f} of ladder_s, not within 2%", file=sys.stderr)
    return metrics


def run_benchmark(workload, seed: int, seconds: float, trace: bool,
                  reference_dir: Path = REFERENCE_DIR, work_dir: Path = WORK_DIR) -> tuple:
    """Returns (record, result): the run's provenance and samples, and the
    JSON object the benchmark prints last."""
    from calibrate import CAL_REF_S, calibrate, scale
    from tracing import Tracer

    work = work_dir / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    calibrate()  # warm-up of the kernel itself
    setups = measure_setup(workload, seed, work)
    runner = LadderRunner(workload, seed, work / "setup-0", work / "ladder",
                          workload.reference_file(reference_dir))
    tracer = Tracer() if trace else None

    untraced, traced, rounds = [], [], []
    start = time.perf_counter()
    runner.run()  # warm-up: gated, not sampled
    cal = calibrate()
    while True:
        round_start = time.perf_counter()
        before, sample = cal, runner.run()
        cal = calibrate()
        sample["cal_s"] = (before + cal) / 2
        untraced.append(sample)
        if trace:
            with tracer:
                traced.append(runner.run(tracer))
            cal = calibrate()
        rounds.append(time.perf_counter() - round_start)
        enough = len(untraced) >= (1 if trace else MIN_LADDERS)
        if enough and time.perf_counter() - start + statistics.fmean(rounds) > seconds:
            break

    if trace:
        metrics = traced_metrics(tracer, workload, work, untraced, traced)
    else:
        metrics = {key: {"value": _median([scale(s[key], s["cal_s"]) for s in untraced]),
                         "unit": "s"}
                   for key in LADDER_KEYS}
        metrics["setup_s"] = {
            "value": statistics.median(scale(s["setup_s"], s["cal_s"]) for s in setups),
            "unit": "s",
        }
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        }

    result = {
        "correct": runner.failed == 0 and runner.identical and runner.reference is not None,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    record = {
        "env": environment(),
        "workload": asdict(workload),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "reference_found": runner.reference is not None,
        "ladder_csv_identical": runner.identical,
        "cal_ref_s": CAL_REF_S,
        "setups": setups,
        "raw_medians": {key: _median([s[key] for s in untraced]) for key in LADDER_KEYS},
        "ladders": [{k: v for k, v in s.items() if k != "root"} for s in untraced],
        "traced_ladders": [{k: v for k, v in s.items() if k != "root"} for s in traced],
    }
    (work / "result.json").write_text(json.dumps({"record": record, "result": result}, indent=1))
    return record, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=56.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", nargs=2, metavar=("SPEC", "DIR"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    pin_threads()

    if args.setup_probe:
        spec, target = args.setup_probe
        print(repr(setup_probe(json.loads(spec), target)))
        return 0

    use_checkout()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"ladderbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    record, result = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                                   bool(args.trace))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
