"""Tests of the benchmark's own code, on a tiny ladder that runs in seconds.

    python3 -m pytest ladderbench/tests -q
"""

import json
import shutil
import statistics
import subprocess
import sys

import pytest

import calibrate
import gate
import run
import tracing
from make_references import write_reference
from workloads import WORKLOADS, Workload

import gridres

TINY = Workload(
    name="tiny",
    why="tiny ladder for the benchmark's own tests",
    synth={
        "n_regions": 2,
        "periods": 2,
        "period_length": 6,
        "sites_per_region": {"solar": 1, "onshore_wind": 1},
        "units_per_plant": 1,
    },
    system_seed=3,
    partitions=(1,),
    k_values=("all", 1),
)


@pytest.fixture(scope="module")
def bench_dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("bench")
    write_reference(TINY, base / "reference", base / "refwork", seeds=(0, 1))
    return base / "reference", base / "work"


@pytest.fixture(scope="module")
def untraced(bench_dirs):
    return run.run_benchmark(TINY, 0, 0.0, False, *bench_dirs)


@pytest.fixture(scope="module")
def traced(bench_dirs):
    return run.run_benchmark(TINY, 0, 0.0, True, *bench_dirs)


def _benchmark_json():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_result_schema(untraced, traced):
    for record, result in (untraced, traced):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 3
        for metric in result["metrics"].values():
            assert set(metric) == {"value", "unit"}
            assert isinstance(metric["value"], (int, float))
        json.loads(json.dumps(result))
        assert record["env"]["nproc"] >= 1
        assert {"python", "numpy", "scipy", "commit"} <= set(record["env"])
        assert record["workload"]["name"] == "tiny" and record["seed"] == 0


def test_metric_names_match_benchmark_json(untraced, traced):
    spec = _benchmark_json()
    units = lambda result: {k: m["unit"] for k, m in result["metrics"].items()}
    assert units(untraced[1]) == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert units(traced[1]) == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_times_are_scaled_by_the_calibration(untraced):
    record, result = untraced
    ladders = record["ladders"]
    assert len(ladders) >= 3 and all(s["cal_s"] > 0 for s in ladders)
    for key in run.LADDER_KEYS:
        scaled = [calibrate.scale(s[key], s["cal_s"]) for s in ladders]
        assert result["metrics"][key]["value"] == pytest.approx(statistics.median(scaled))
    setups = [calibrate.scale(s["setup_s"], s["cal_s"]) for s in record["setups"]]
    assert result["metrics"]["setup_s"]["value"] == pytest.approx(statistics.median(setups))
    assert calibrate.scale(2.0, calibrate.CAL_REF_S / 2) == pytest.approx(4.0)


def test_traced_ladder_matches_untraced_bytes(traced):
    record, _ = traced
    assert record["traced_ladders"] and record["ladder_csv_identical"]


def test_reference_mismatch_fails_the_run(bench_dirs, tmp_path):
    refs, work = bench_dirs
    (tmp_path / "reference").mkdir()
    text = (refs / "tiny.csv").read_text()
    (tmp_path / "reference" / "tiny.csv").write_text(text.replace("relaxed", "none", 1))
    _, result = run.run_benchmark(TINY, 0, 0.0, False, tmp_path / "reference", work)
    assert result["correct"] is False and result["failed"] >= 1


def test_stages_add_up_to_the_ladder(traced):
    metrics = traced[1]["metrics"]
    stages = sum(metrics[f"pipeline.{s}_s"]["value"] for s in tracing.STAGES)
    assert gate.stage_sum_ok(metrics["pipeline.stage_sum_frac"]["value"])
    assert stages + metrics["pipeline.other_s"]["value"] > 0
    assert gate.stage_sum_ok(1.019) and not gate.stage_sum_ok(0.97)


def test_benders_solves_split_into_master_and_subproblems(traced):
    m = {k: v["value"] for k, v in traced[1]["metrics"].items()}
    assert m["benders.master_calls"] == m["benders.iterations"]
    assert m["lp.solve_calls"] > m["benders.master_calls"]
    assert 0 < m["benders.sub_wall_s"] <= m["benders.sub_s"] + 1e-9
    assert m["lp.failures"] == 0


def _module_attrs():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "gridres" or name.startswith("gridres.")
        for attr, value in vars(mod).items()
    }


def test_wrappers_restore_every_attribute():
    before = _module_attrs()
    original = gridres.benders.solve_simplex
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            assert gridres.benders.solve_simplex is not original
            assert gridres.pipeline.solve_simplex is not original
            raise RuntimeError("leave the block early")
    after = _module_attrs()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_missing_name_is_reported_not_fatal(monkeypatch):
    extra = (("lp", "no_such_function"), ("no_such_module", "f"))
    monkeypatch.setattr(tracing, "WRAPPED", tracing.WRAPPED + extra)
    tracer = tracing.Tracer()
    with tracer:
        pass
    assert tracer.missing == {"lp.no_such_function", "no_such_module.f"}

    root = tracing.Span(1, None, 1, "ladder", 0.0, 1.0)
    metrics = tracing.ladder_metrics([root], root, missing={"lp.kkt_residuals"})
    assert metrics["lp.kkt_s"] is None and metrics["lp.overhead_s"] is None
    assert metrics["lp.solve_s"] == 0.0


def test_failing_hook_does_not_fail_the_call(monkeypatch):
    from gridres.lp import GE, LpBuilder

    def broken(tracer, span, result):
        raise AttributeError("no such field")

    monkeypatch.setitem(tracing._HOOKS, "lp.solve_simplex", (None, broken, None))
    b = LpBuilder()
    x = b.var("x", obj=1.0)
    b.row("floor", GE, 1.0, [(x, 1.0)])
    tracer = tracing.Tracer()
    with tracer:
        sol = gridres.lp.solve_simplex(b.build())
    assert sol.is_optimal and abs(sol.objective - 1.0) < 1e-9
    (span,) = [s for s in tracer.spans if s.name == "lp.solve_simplex"]
    assert "no such field" in span.attrs["hook_error"]
    assert "failed" not in span.attrs


def test_gate_tolerance_follows_gap_tol():
    ref = "combo,n_regions,k,uc,total_cost\nhrb,2,all,relaxed,1000.0\np1,1,all,relaxed,5.0\n"

    def row(cost, uc="relaxed"):
        return f"combo,n_regions,k,uc,total_cost\nhrb,2,all,{uc},{cost!r}\np1,1,all,relaxed,5.0\n"

    assert gate.mismatched_combos(ref, ref, 1e-4) == set()
    assert gate.mismatched_combos(row(1000.5), ref, 1e-4) == set()
    assert gate.mismatched_combos(row(1002.0), ref, 1e-4) == {"hrb"}
    assert gate.mismatched_combos(row(1002.0), ref, 1e-3) == set()
    assert gate.mismatched_combos(row(1000.0, uc="none"), ref, 1e-4) == {"hrb"}
    assert gate.mismatched_combos(ref.rsplit("p1", 1)[0], ref, 1e-4) == {"p1"}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "ladderbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "ladderbench/run.py", "--workload", "weeks", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
