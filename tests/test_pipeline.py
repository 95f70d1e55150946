"""End-to-end ladder orchestration on a tiny synthetic system."""

import csv
import logging
import os
import re
import shutil
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gridres import benders, expansion, pipeline
from gridres import lp as lp_module
from gridres.caseio import load_system, write_case
from gridres.cli import main as cli_main
from gridres.expansion import investment_entries
from gridres.metrics import write_report
from gridres.pipeline import (
    Combo,
    ConfigError,
    HRB_NAME,
    LADDER_COLUMNS,
    PartitionSpec,
    STAGE_FILES,
    RunConfig,
    chunk_partition,
    load_partition_file,
    rescore_from_artifacts,
    run_case,
    run_ladder,
)
from gridres.syngen import SynthConfig, generate

TINY_SYNTH = {
    "n_regions": 2,
    "periods": 2,
    "period_length": 6,
    "sites_per_region": {"solar": 1, "onshore_wind": 1},
    "units_per_plant": 1,
}

CONFIG_TEMPLATE = """\
out_dir: {out_dir}
seed: 3
k_values: ["all", 1]
uc_modes: [relaxed]
synth:
  n_regions: 2
  periods: 2
  period_length: 6
  sites_per_region: {{solar: 1, onshore_wind: 1}}
  units_per_plant: 1
partitions:
  - name: r1
    regions: 1
  - name: ident
    regions: 2
"""


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# -- configuration --------------------------------------------------------------------


def test_config_requires_out_dir():
    with pytest.raises(ConfigError, match="out_dir is required"):
        RunConfig.from_dict({"seed": 1})


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match=r"unknown config keys: \['colour'\]"):
        RunConfig.from_dict({"out_dir": "o", "input_dir": "i", "colour": "red"})


def test_config_needs_exactly_one_input():
    with pytest.raises(ConfigError, match="exactly one of input dir / synthetic"):
        RunConfig.from_dict({"out_dir": "o"})
    with pytest.raises(ConfigError, match="exactly one"):
        RunConfig.from_dict({"out_dir": "o", "input_dir": "i", "synth": TINY_SYNTH})


def test_config_validates_uc_and_k():
    base = {"out_dir": "o", "input_dir": "i"}
    with pytest.raises(ConfigError, match="unknown uc mode 'fancy'"):
        RunConfig.from_dict({**base, "uc_modes": ["fancy"]})
    with pytest.raises(ConfigError, match="k must be a positive integer or 'all', got 0"):
        RunConfig.from_dict({**base, "k_values": [0]})
    with pytest.raises(ConfigError, match="k must be a positive integer"):
        RunConfig.from_dict({**base, "k_values": ["weekly"]})


def test_config_validates_solver_knobs():
    base = {"out_dir": "o", "input_dir": "i"}
    with pytest.raises(ConfigError, match=r"stab_weight must be in \[0, 1\)"):
        RunConfig.from_dict({**base, "stab_weight": 1.0})
    with pytest.raises(ConfigError, match="jobs and sub_jobs must be >= 1"):
        RunConfig.from_dict({**base, "jobs": 0})
    with pytest.raises(ConfigError, match="max_iter must be an integer >= 1, got 0"):
        RunConfig.from_dict({**base, "max_iter": 0})
    with pytest.raises(ConfigError, match="gap_tol must be >= 0, got -1"):
        RunConfig.from_dict({**base, "gap_tol": -1.0})
    with pytest.raises(ConfigError, match="beta must be >= 0, got -2"):
        RunConfig.from_dict({**base, "beta": -2.0})
    # YAML .nan parses to a float NaN, which fails every comparison
    for key in ("max_iter", "gap_tol", "beta"):
        with pytest.raises(ConfigError, match=f"{key} must be"):
            RunConfig.from_dict({**base, **yaml.safe_load(f"{key}: .nan")})


def test_config_rejects_repeated_combo_fields():
    base = {"out_dir": "o", "input_dir": "i"}
    parts = [{"name": "p", "regions": 1}, {"name": "p", "regions": 2}]
    with pytest.raises(ConfigError, match="repeated partition name: p"):
        RunConfig.from_dict({**base, "partitions": parts})
    with pytest.raises(ConfigError, match="repeated k_values entry: 2"):
        RunConfig.from_dict({**base, "k_values": [2, "all", 2]})
    with pytest.raises(ConfigError, match="repeated uc_modes entry: none"):
        RunConfig.from_dict({**base, "uc_modes": ["none", "relaxed", "none"]})


@pytest.mark.parametrize(
    "key, value",
    [
        ("gap_tol", "1e-4"), ("beta", "1"), ("stab_weight", None), ("gap_tol", True),
        ("max_iter", "200"), ("max_iter", 2.0), ("max_iter", True),
        ("jobs", "2"), ("jobs", 1.5), ("sub_jobs", "1"), ("sub_jobs", None),
        ("k_values", 1), ("k_values", "all"), ("uc_modes", "none"), ("partitions", 1),
        ("out_dir", 5), ("out_dir", ""), ("input_dir", 7), ("force_extremes", "no"),
    ],
)
def test_config_names_a_wrongly_typed_field(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be"):
        RunConfig.from_dict({"out_dir": "o", "input_dir": "i", key: value})


def test_config_rejects_bad_synth_block():
    with pytest.raises(ConfigError, match="bad synth config"):
        RunConfig.from_dict({"out_dir": "o", "synth": {"n_rooms": 4}})


def test_partition_spec_needs_exactly_one_source():
    with pytest.raises(ConfigError, match="exactly one of path / regions"):
        PartitionSpec("p", path="p.csv", n_regions=2)
    with pytest.raises(ConfigError, match="exactly one"):
        PartitionSpec("p")


def _perturbed(field, value, out_dir="o"):
    """A valid tiny ladder config with one field, a key path, set to value."""
    d = {
        "out_dir": out_dir,
        "seed": 3,
        "k_values": ["all", 1],
        "synth": {
            **TINY_SYNTH,
            "sites_per_region": dict(TINY_SYNTH["sites_per_region"]),
            "demand_peak_range": [600.0, 1400.0],
        },
        "partitions": [{"name": "r1", "regions": 1}],
    }
    target = d
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    return d


@pytest.mark.parametrize(
    "field, value, message",
    [
        (("partitions", 0, "regions"), "1", "partition r1: regions must be an integer >= 1, got '1'"),
        (("partitions", 0, "regions"), 0, "partition r1: regions must be an integer >= 1, got 0"),
        (("partitions", 0), {"regions": 1}, "a partition needs a name"),
        (("synth", "n_regions"), -1, "synth.n_regions must be an integer >= 1, got -1"),
        (("synth", "n_regions"), "2", "synth.n_regions must be an integer >= 1, got '2'"),
        (("synth", "periods"), 0, "synth.periods must be an integer >= 1, got 0"),
        (("synth", "units_per_plant"), 1.0, "synth.units_per_plant must be an integer"),
        (("synth", "profile_noise"), float("nan"), "synth.profile_noise must be a finite number"),
        (("synth", "demand_noise"), -0.1, "synth.demand_noise must be a finite number >= 0"),
        (("synth", "nse_cost"), 0.0, "synth.nse_cost must be a finite number > 0"),
        (("synth", "demand_peak_range"), [900.0, 600.0], "synth.demand_peak_range must be"),
        (("synth", "demand_peak_range"), [600.0, float("inf")], "synth.demand_peak_range must be"),
        (("synth", "sites_per_region", "solar"), -1, "synth.sites_per_region must be a map"),
        (("synth", "sites_per_region", "geothermal"), 1, "synth.sites_per_region must be a map"),
        (("synth", "pathway"), "XX", "synth.pathway must be one of BAU, CP, got 'XX'"),
        (("seed",), "3", "seed must be an integer"),
        (("partitions", 0), {"name": "r1", "path": 12}, "partition r1: path must be a non-empty string, got 12"),
        (("partitions", 0, "colour"), "red", "partition r1: unknown keys: ['colour']"),
    ],
)
def test_config_names_a_bad_field_at_load(field, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        RunConfig.from_dict(_perturbed(field, value))


def test_ladder_checks_the_config_against_the_fine_system_first(tmp_path):
    rc = RunConfig.from_dict(_perturbed(("partitions", 0, "regions"), 9, str(tmp_path / "out")))
    with pytest.raises(ConfigError, match="^partition r1: regions 9 exceeds the 2 regions"):
        run_ladder(rc)
    assert not (tmp_path / "out").exists()  # no combo, not even the baseline, ran


def _path_partition_config(tmp_path, path):
    d = yaml.safe_load(CONFIG_TEMPLATE.format(out_dir=tmp_path / "out"))
    d["partitions"][0] = {"name": "fromfile", "path": str(path)}
    return RunConfig.from_dict(d)


def test_ladder_rejects_a_missing_partition_file_first(tmp_path):
    missing = tmp_path / "gone.csv"
    message = f"partition fromfile: partition file not found: {missing}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        run_ladder(_path_partition_config(tmp_path, missing))
    assert not (tmp_path / "out").exists()


def test_ladder_rejects_a_partition_file_of_other_regions_first(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("fine_region,region\nR01,A\nX9,A\n")
    with pytest.raises(
        ConfigError,
        match=re.escape(
            f"partition fromfile: {path} misses fine regions ['R02'] and maps unknown regions ['X9']"
        ),
    ):
        run_ladder(_path_partition_config(tmp_path, path))
    assert not (tmp_path / "out").exists()


FIELDS = [
    ("seed",), ("k_values", 1), ("partitions", 0, "regions"),
    *[("synth", key) for key in (
        "n_regions", "periods", "period_length", "units_per_plant", "spatial_correlation_length",
        "profile_noise", "demand_noise", "line_capacity_frac", "nse_cost",
    )],
    ("synth", "demand_peak_range", 0), ("synth", "sites_per_region", "solar"),
]


@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from(FIELDS),
    value=st.one_of(
        st.integers(-1, 3),
        st.sampled_from([0.0, 0.25, 2.5, -0.5, 1e6, float("nan"), float("inf"), "2", None, True, [1]]),
    ),
)
def test_a_perturbed_config_fails_at_load_or_runs_clean(field, value):
    with tempfile.TemporaryDirectory() as out:
        try:
            rc = RunConfig.from_dict(_perturbed(field, value, out))
            report = run_ladder(rc)
        except ConfigError:
            event("ConfigError")
            return
        event("ran")
        assert [r.error for r in report.results if not r.ok] == []


def test_config_from_yaml(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(CONFIG_TEMPLATE.format(out_dir=tmp_path / "out"))
    rc = RunConfig.from_yaml(str(cfg))
    assert rc.seed == 3
    assert rc.k_values == ("all", 1)
    assert rc.synth.n_regions == 2
    assert [p.name for p in rc.partitions] == ["r1", "ident"]
    assert rc.partitions[0].n_regions == 1


def test_config_from_yaml_errors(tmp_path):
    with pytest.raises(ConfigError, match="config file not found"):
        RunConfig.from_yaml(str(tmp_path / "nope.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("out_dir: [unclosed\n")
    with pytest.raises(ConfigError, match="bad YAML"):
        RunConfig.from_yaml(str(bad))
    listy = tmp_path / "list.yaml"
    listy.write_text("- a\n- b\n")
    with pytest.raises(ConfigError, match="config root must be a mapping"):
        RunConfig.from_yaml(str(listy))


def test_combo_enumeration_puts_the_baseline_first():
    rc = RunConfig(
        out_dir="o",
        input_dir="i",
        partitions=(PartitionSpec("p1", n_regions=1), PartitionSpec("p2", n_regions=2)),
        k_values=("all", 2),
        uc_modes=("relaxed", "none"),
    )
    combos = rc.combos()
    assert combos[0].name == HRB_NAME
    assert combos[0].partition is None and combos[0].k is None
    assert len(combos) == 1 + 2 * 2 * 2
    assert combos[1].name == "p1-kall-relaxed"
    assert combos[2].name == "p1-kall-none"
    assert combos[3].name == "p1-k2-relaxed"
    assert combos[-1].name == "p2-k2-none"


# -- partitions -------------------------------------------------------------------------


def _fine_ids(case):
    return sorted(r.id for r in case.regions)


@pytest.fixture(scope="module")
def six_region_case():
    return generate(SynthConfig(**{**TINY_SYNTH, "n_regions": 6}), seed=1)


def test_chunk_partition_is_contiguous(six_region_case):
    part = chunk_partition(six_region_case, 3, "west")
    ids = _fine_ids(six_region_case)
    assert part.mapping == {
        ids[0]: "west_00", ids[1]: "west_00",
        ids[2]: "west_01", ids[3]: "west_01",
        ids[4]: "west_02", ids[5]: "west_02",
    }


def test_chunk_partition_uneven_sizes(six_region_case):
    part = chunk_partition(six_region_case, 4, "q")
    sizes = [len(part.members(c)) for c in part.coarse_names]
    assert sorted(sizes) == [1, 1, 2, 2]


def test_full_chunk_split_is_the_identity(six_region_case):
    part = chunk_partition(six_region_case, 6, "x")
    assert part.mapping == {r: r for r in _fine_ids(six_region_case)}


def test_chunk_partition_bounds(six_region_case):
    with pytest.raises(ValueError, match="cannot split 6 regions into 7"):
        chunk_partition(six_region_case, 7, "x")
    with pytest.raises(ValueError, match="cannot split"):
        chunk_partition(six_region_case, 0, "x")


def test_partition_file_round_trip(tmp_path):
    path = tmp_path / "part.csv"
    path.write_text("fine_region,region\nR01,W\nR02,W\n")
    part = load_partition_file(str(path))
    assert part.mapping == {"R01": "W", "R02": "W"}


def test_partition_file_errors(tmp_path):
    with pytest.raises(FileNotFoundError, match="partition file not found"):
        load_partition_file(str(tmp_path / "gone.csv"))
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match=re.escape(f"{bad}: schema mismatch, missing columns ['fine_region', 'region']")):
        load_partition_file(str(bad))


def test_partition_file_rejects_a_repeated_fine_region(tmp_path):
    path = tmp_path / "twice.csv"
    path.write_text("fine_region,region\nR01,W\nR02,W\nR01,E\n")
    message = f"{path} row 4: duplicate fine region R01"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_partition_file(str(path))
    with pytest.raises(ConfigError, match=f"^{re.escape('partition fromfile: ' + message)}$"):
        run_ladder(_path_partition_config(tmp_path, path))
    assert not (tmp_path / "out").exists()


# -- single-combo execution ------------------------------------------------------------


def test_run_case_tags_errors_with_the_stage(tmp_path):
    fine = generate(SynthConfig(**TINY_SYNTH), seed=3)
    rc = RunConfig(out_dir=str(tmp_path), synth=SynthConfig(**TINY_SYNTH), seed=3)
    missing = tmp_path / "gone.csv"
    combo = Combo("bad-kall-relaxed", PartitionSpec("bad", path=str(missing)), None, "relaxed")
    res = run_case(rc, combo, fine, None)
    assert not res.ok
    assert res.error == f"aggregate: partition file not found: {missing}"
    assert res.report is None


def test_a_failed_stage_leaves_its_traceback(tmp_path, monkeypatch):
    fine = generate(SynthConfig(**TINY_SYNTH), seed=3)
    rc = RunConfig(out_dir=str(tmp_path), synth=SynthConfig(**TINY_SYNTH), seed=3)

    def broken_translation(*args, **kwargs):
        raise ZeroDivisionError("forced translate failure")

    monkeypatch.setattr(pipeline, "translate_solution", broken_translation)
    res = run_case(rc, Combo(HRB_NAME, None, None, "relaxed"), fine, None)
    assert res.error == "translate: forced translate failure"
    with open(os.path.join(res.artifacts_dir, "error.txt")) as fh:
        text = fh.read()
    assert text.startswith("Traceback (most recent call last):")
    assert "in broken_translation" in text  # the frame that raised
    assert "ZeroDivisionError: forced translate failure" in text
    assert text.rstrip().endswith("StageError: translate: forced translate failure")

    # a later successful run into the same directory clears the stale file
    monkeypatch.undo()
    assert run_case(rc, Combo(HRB_NAME, None, None, "relaxed"), fine, None).ok
    assert not os.path.exists(os.path.join(res.artifacts_dir, "error.txt"))


def test_a_failed_combo_times_the_stages_it_reached(tmp_path, monkeypatch):
    fine = generate(SynthConfig(**TINY_SYNTH), seed=3)
    rc = RunConfig(out_dir=str(tmp_path), synth=SynthConfig(**TINY_SYNTH), seed=3)

    def broken_operation(*args, **kwargs):
        raise ZeroDivisionError("forced operate failure")

    monkeypatch.setattr(pipeline, "dispatch_portfolio", broken_operation)
    res = run_case(rc, Combo(HRB_NAME, None, None, "relaxed"), fine, None)
    assert res.error == "operate: forced operate failure"
    rows = _read_csv(os.path.join(res.artifacts_dir, "stage_timing.csv"))
    assert rows[0] == ["stage", "seconds"]
    assert [r[0] for r in rows[1:]] == ["setup", "aggregate", "cluster", "expand", "translate", "operate"]
    assert all(float(r[1]) >= 0.0 for r in rows[1:])


def test_ladder_needs_a_second_combo(tmp_path):
    rc = RunConfig(out_dir=str(tmp_path), synth=SynthConfig(**TINY_SYNTH))
    with pytest.raises(ConfigError, match="at least one combo besides the baseline"):
        run_ladder(rc)


# -- the full ladder -----------------------------------------------------------------


@pytest.fixture(scope="module")
def ladder_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("ladder")
    cfg = root / "run.yaml"
    out = root / "out"
    cfg.write_text(CONFIG_TEMPLATE.format(out_dir=out))
    code = cli_main(["--config", str(cfg), "ladder"])
    return code, str(out), str(cfg)


ALL_COMBOS = ("hrb", "r1-kall-relaxed", "r1-k1-relaxed", "ident-kall-relaxed", "ident-k1-relaxed")


def test_a_library_ladder_logs_each_combo_and_prints_nothing(tmp_path, caplog, capsys):
    rc = RunConfig.from_dict(yaml.safe_load(CONFIG_TEMPLATE.format(out_dir=tmp_path / "out")))
    with caplog.at_level(logging.INFO, logger="gridres"):
        report = run_ladder(rc)
    assert report.ok
    messages = [rec.getMessage() for rec in caplog.records if rec.name == "gridres.pipeline"]
    assert [m.split(":")[0] for m in messages] == [f"combo {c}" for c in ALL_COMBOS for _ in "se"]
    assert all(re.fullmatch(r"combo \S+: ok in \d+\.\d\d s", m) for m in messages[1::2])
    assert capsys.readouterr() == ("", "")


def test_the_cli_logs_progress_to_stderr_only(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(CONFIG_TEMPLATE.format(out_dir=tmp_path / "out"))
    capsys.readouterr()
    assert cli_main(["--config", str(cfg), "ladder"]) == 0
    out, err = capsys.readouterr()
    assert "combo" not in out and out.endswith(f"wrote {tmp_path / 'out' / 'ladder.csv'}\n")
    combos = [line.split(" ", 1)[1] for line in err.splitlines() if " combo " in line]
    assert [m.split(":")[0] for m in combos] == [f"combo {c}" for c in ALL_COMBOS for _ in "se"]
    assert all(re.fullmatch(r"\d\d:\d\d:\d\d (combo|benders iteration) .*", line) for line in err.splitlines())
    # main removes its handler: the next library call prints nothing again
    assert [type(h) for h in logging.getLogger("gridres").handlers] == [logging.NullHandler]


def test_ladder_exit_code_and_layout(ladder_run):
    code, out, _ = ladder_run
    assert code == 0
    for name in ALL_COMBOS:
        assert os.path.isdir(os.path.join(out, name)), name
    assert os.path.isdir(os.path.join(out, "system"))  # the generated input
    assert os.path.exists(os.path.join(out, "report.csv"))


def test_ladder_csv_shape(ladder_run):
    _, out, _ = ladder_run
    rows = _read_csv(os.path.join(out, "ladder.csv"))
    assert tuple(rows[0]) == LADDER_COLUMNS
    assert [r[0] for r in rows[1:]] == list(ALL_COMBOS)


def test_baseline_row_scores_itself_perfectly(ladder_run):
    _, out, _ = ladder_run
    rows = _read_csv(os.path.join(out, "ladder.csv"))
    hrb = dict(zip(rows[0], rows[1]))
    assert hrb["combo"] == "hrb"
    assert hrb["n_regions"] == "2"
    assert hrb["k"] == "all"
    assert hrb["uc"] == "relaxed"
    assert float(hrb["sco_solar"]) == 100.0
    assert float(hrb["sco_wind"]) == 100.0
    assert float(hrb["mse_cap"]) == 0.0
    assert float(hrb["mse_profit"]) == 0.0
    assert float(hrb["mse_emiss"]) == 0.0
    assert float(hrb["total_cost"]) > 0.0


def test_identity_combo_scores_as_the_baseline(ladder_run):
    # a combo at the baseline's resolution runs the same stages as any other
    # and writes what the baseline wrote; only its report carries its name
    _, out, _ = ladder_run
    rows = _read_csv(os.path.join(out, "ladder.csv"))
    by_combo = {r[0]: r[1:] for r in rows[1:]}
    assert by_combo["ident-kall-relaxed"] == by_combo["hrb"]

    def files(name):
        return {
            path: data for path, data in _tree_bytes(Path(out, name)).items()
            if path != "report.csv" and "timing" not in path
        }

    assert files("ident-kall-relaxed") == files("hrb")


def test_combo_artifacts_present(ladder_run):
    _, out, _ = ladder_run
    combo = os.path.join(out, "r1-k1-relaxed")
    for name in (
        "coarse", "reduction.csv", "reduced", "benders_log.csv",
        "investments.csv", "phase1.csv", "allocation.csv", "portfolio.csv", "operations.csv",
        "report.csv",
    ):
        assert os.path.exists(os.path.join(combo, name)), name
    # full-chronology baseline has no reduction artifacts
    assert not os.path.exists(os.path.join(out, "hrb", "reduction.csv"))


def test_benders_timing_has_one_row_per_iteration(ladder_run):
    _, out, _ = ladder_run
    combo = os.path.join(out, "r1-k1-relaxed")
    log = _read_csv(os.path.join(combo, "benders_log.csv"))
    rows = _read_csv(os.path.join(combo, "benders_timing.csv"))
    assert rows[0] == ["iteration", "master_s", "sub_s", "sub_iterations", "warm_fallbacks", "ipm_retries"]
    assert [r[0] for r in rows[1:]] == [r[0] for r in log[1:]]
    for r in rows[1:]:
        assert float(r[1]) > 0.0 and float(r[2]) > 0.0
        assert int(r[3]) >= 0
        assert r[4] == "0" and r[5] == "0"
    assert not os.path.exists(os.path.join(combo, "error.txt"))


def test_stage_timing_sums_to_the_combo_runtime(ladder_run):
    _, out, _ = ladder_run
    runtime = {r[0]: float(r[1]) for r in _read_csv(os.path.join(out, "ladder_timing.csv"))[1:]}
    for name in ALL_COMBOS:
        rows = _read_csv(os.path.join(out, name, "stage_timing.csv"))
        assert rows[0] == ["stage", "seconds"]
        assert [r[0] for r in rows[1:]] == [
            "setup", "aggregate", "cluster", "expand", "translate", "operate", "metrics",
        ]
        seconds = [float(r[1]) for r in rows[1:]]
        assert all(s >= 0.0 for s in seconds)
        assert sum(seconds) == pytest.approx(runtime[name], rel=0.02), name


def test_timing_file_reports_every_combo(ladder_run):
    _, out, _ = ladder_run
    rows = _read_csv(os.path.join(out, "ladder_timing.csv"))
    assert rows[0] == ["combo", "runtime_s", "status"]
    assert [r[0] for r in rows[1:]] == list(ALL_COMBOS)
    for r in rows[1:]:
        assert r[2] == "ok"
        assert float(r[1]) > 0.0


def test_long_report_covers_every_combo(ladder_run):
    _, out, _ = ladder_run
    rows = _read_csv(os.path.join(out, "report.csv"))
    assert rows[0] == ["case", "metric", "key", "value"]
    assert {r[0] for r in rows[1:]} == set(ALL_COMBOS)


def test_ladder_rerun_is_byte_identical(ladder_run, tmp_path):
    _, out, cfg = ladder_run
    out2 = tmp_path / "out2"
    code = cli_main(["--config", cfg, "--out", str(out2), "ladder"])
    assert code == 0
    with open(os.path.join(out, "ladder.csv"), "rb") as fh:
        first = fh.read()
    with open(out2 / "ladder.csv", "rb") as fh:
        second = fh.read()
    assert first == second


def test_rescoring_from_artifacts_matches(ladder_run):
    _, out, cfg = ladder_run
    rc = RunConfig.from_yaml(cfg)
    rep = rescore_from_artifacts(
        rc, os.path.join(out, "r1-k1-relaxed"), os.path.join(out, "hrb")
    )
    persisted = {
        (r[1], r[2]): float(r[3])
        for r in _read_csv(os.path.join(out, "r1-k1-relaxed", "report.csv"))[1:]
    }
    assert rep.total_cost == pytest.approx(persisted[("total_cost", "")], rel=1e-6)
    assert rep.sco_by_tech["solar"] == pytest.approx(persisted[("sco", "solar")], abs=1e-9)
    assert rep.mse_cap == pytest.approx(persisted[("mse_cap", "")], abs=1e-9)
    assert rep.mse_profit == pytest.approx(persisted[("mse_profit", "")], rel=1e-6, abs=1e-6)


def test_rescoring_solves_only_the_two_operations_lps(ladder_run, monkeypatch):
    # phase 1 is read from phase1.csv and investments.csv: re-scoring builds
    # and solves the combo's and the baseline's operations LPs, no Benders
    # subproblem and no expansion
    _, out, cfg = ladder_run
    rc = RunConfig.from_yaml(cfg)
    built, solved = [], []
    real_build, real_solve = expansion.build_lp, lp_module.solve_simplex

    def build_spy(case, opts):
        built.append(opts)
        return real_build(case, opts)

    def solve_spy(lp, warm=None):
        solved.append(lp)
        return real_solve(lp, warm)

    def no_benders(*args, **kwargs):
        raise AssertionError("re-scoring ran Benders")

    for module in (expansion, benders):
        monkeypatch.setattr(module, "build_lp", build_spy)
    for module in (pipeline, benders):
        monkeypatch.setattr(module, "solve_simplex", solve_spy)
        monkeypatch.setattr(module, "solve_benders", no_benders)
    rescore_from_artifacts(rc, os.path.join(out, "r1-k1-relaxed"), os.path.join(out, "hrb"))
    assert [(opts.year_chronology, opts.periods, opts.reserve) for opts in built] == [(True, None, False)] * 2
    assert len(solved) == 2


def test_every_combo_but_the_hrb_dispatches_from_the_hrb_basis(ladder_run):
    # no combo of the ladder adds a template cluster, so every operations LP
    # has the HRB's shape; each records its solve in operate_timing.csv. The
    # identity combo's build is the HRB's, whose dispatch it reuses unsolved
    _, out, _ = ladder_run
    solves = {}
    for name in ALL_COMBOS:
        header, row = _read_csv(os.path.join(out, name, "operate_timing.csv"))
        assert header == ["seconds", "simplex_iterations", "warm"]
        assert float(row[0]) >= 0.0 and int(row[1]) >= 0
        solves[name] = row
    assert {name: row[2] for name, row in solves.items()} == {
        name: "0" if name == HRB_NAME else "1" for name in ALL_COMBOS
    }
    assert solves["ident-kall-relaxed"] == ["0.0", "0", "1"]
    assert int(solves[HRB_NAME][1]) > 0


def _rescore_rows(rc, out, combo, tmp_path):
    """(metric, key) -> value of the re-scored report of combo."""
    path = tmp_path / f"{combo}.csv"
    write_report([rescore_from_artifacts(rc, os.path.join(out, combo), os.path.join(out, HRB_NAME))], str(path))
    return _report_values(path)


def _report_values(path):
    return {(metric, key): float(value) for _case, metric, key, value in _read_csv(path)[1:]}


def test_rescoring_starts_the_combo_from_the_baseline_basis(ladder_run, monkeypatch, tmp_path):
    # the baseline is dispatched first, cold, and hands its basis on
    _, out, cfg = ladder_run
    rc = RunConfig.from_yaml(cfg)
    stats = []
    real = lp_module.solve_simplex

    def solve_spy(lp, warm=None):
        sol = real(lp, warm)
        stats.append(sol.stats)
        return sol

    monkeypatch.setattr(pipeline, "solve_simplex", solve_spy)
    rows = _rescore_rows(rc, out, "r1-k1-relaxed", tmp_path)
    assert [s.warm for s in stats] == [False, True]
    assert rows == _report_values(os.path.join(out, "r1-k1-relaxed", "report.csv"))


def test_a_failed_warm_dispatch_falls_back_to_the_cold_solve(ladder_run, monkeypatch, tmp_path):
    # the combo's dispatch falls back cold when its warm attempt fails, and
    # scores within round-off of the warm one: no report row reads the vertex
    _, out, cfg = ladder_run
    rc = RunConfig.from_yaml(cfg)
    failed = []

    class FailingWarm(lp_module.ReducedModel):
        def attempt(self, lp):
            failed.append(lp)
            return lp_module.Attempt("failed", "forced warm failure")

    monkeypatch.setattr(pipeline, "ReducedModel", FailingWarm)
    for combo in ("r1-kall-relaxed", "r1-k1-relaxed", "ident-k1-relaxed"):  # not the HRB's build
        failed.clear()
        got = _rescore_rows(rc, out, combo, tmp_path)
        assert len(failed) == 1, combo
        want = _report_values(os.path.join(out, combo, "report.csv"))
        assert got.keys() == want.keys()
        off = {k: (got[k], v) for k, v in want.items() if abs(got[k] - v) > 1e-9 * max(1.0, abs(v))}
        assert off == {}, combo


def test_the_hrb_basis_is_converted_by_the_first_combo_that_maps_it(tmp_path, monkeypatch):
    # the HRB's own stages read no status codes; the first combo started
    # from its basis reads them, and later ones reuse them
    read = []
    real = lp_module.Basis.codes

    def spy(self):
        read.append(self._codes is None)
        return real(self)

    monkeypatch.setattr(lp_module.Basis, "codes", spy)
    rc = RunConfig.from_dict(yaml.safe_load(CONFIG_TEMPLATE.format(out_dir=tmp_path / "out")))
    fine = rc.load_fine()
    hrb, *combos = (c for c in rc.combos() if c.name in (HRB_NAME, "r1-kall-relaxed", "r1-k1-relaxed"))
    hrb = run_case(rc, hrb, fine, None)
    assert hrb.ok and hrb.baseline.basis is not None and read == []
    for combo in combos:
        assert run_case(rc, combo, fine, hrb.baseline).ok
    assert read == [True, False]


def test_failed_combo_does_not_sink_the_ladder(tmp_path, monkeypatch):
    real = pipeline.aggregate_spatial

    def failing_for_bad(fine, partition):
        if partition.coarse_names == ("BAD",):
            raise ValueError("forced aggregate failure")
        return real(fine, partition)

    monkeypatch.setattr(pipeline, "aggregate_spatial", failing_for_bad)
    (tmp_path / "bad.csv").write_text("fine_region,region\nR01,BAD\nR02,BAD\n")
    cfg = tmp_path / "run.yaml"
    out = tmp_path / "out"
    cfg.write_text(
        f"out_dir: {out}\n"
        "seed: 3\n"
        "k_values: [\"all\"]\n"
        "synth:\n"
        "  n_regions: 2\n"
        "  periods: 2\n"
        "  period_length: 6\n"
        "  sites_per_region: {solar: 1, onshore_wind: 1}\n"
        "  units_per_plant: 1\n"
        "partitions:\n"
        "  - name: bad\n"
        f"    path: {tmp_path / 'bad.csv'}\n"
        "  - name: ident\n"
        "    regions: 2\n"
    )
    code = cli_main(["--config", str(cfg), "ladder"])
    assert code == 2
    rows = _read_csv(out / "ladder.csv")
    assert [r[0] for r in rows[1:]] == ["hrb", "ident-kall-relaxed"]
    timing = {r[0]: r[2] for r in _read_csv(out / "ladder_timing.csv")[1:]}
    assert timing["bad-kall-relaxed"] == "aggregate: forced aggregate failure"
    assert timing["hrb"] == "ok"
    assert (out / "bad-kall-relaxed" / "error.txt").read_text().startswith("Traceback")


def test_a_failed_baseline_fails_every_other_combo_in_metrics(tmp_path, monkeypatch):
    real = pipeline.resolve_partition

    def failing_for_the_hrb(fine, spec):
        if spec is None:  # only the HRB has no partition spec
            raise ValueError("forced baseline failure")
        return real(fine, spec)

    monkeypatch.setattr(pipeline, "resolve_partition", failing_for_the_hrb)
    cfg = tmp_path / "run.yaml"
    out = tmp_path / "out"
    cfg.write_text(CONFIG_TEMPLATE.format(out_dir=out))
    assert cli_main(["--config", str(cfg), "ladder"]) == 2
    assert _read_csv(out / "ladder.csv") == [list(LADDER_COLUMNS)]
    status = {r[0]: r[2] for r in _read_csv(out / "ladder_timing.csv")[1:]}
    assert status.pop(HRB_NAME) == "aggregate: forced baseline failure"
    message = "metrics: no baseline to score against: none was given, or the baseline combo failed"
    assert status == dict.fromkeys(ALL_COMBOS[1:], message)


def _deterministic_files(out):
    """Every file of a ladder's output but the wall-clock side files, by
    path relative to out."""
    return {
        os.path.relpath(os.path.join(d, f), out): Path(d, f).read_bytes()
        for d, _, files in os.walk(out)
        for f in files
        if "timing" not in f
    }


def test_a_process_pool_ladder_equals_a_serial_one(tmp_path):
    def ladder(jobs):
        rc = RunConfig(
            out_dir=str(tmp_path / f"jobs{jobs}"),
            synth=SynthConfig(n_regions=4, periods=3, period_length=24),
            seed=2,
            partitions=(PartitionSpec("p1", n_regions=1), PartitionSpec("p2", n_regions=2)),
            k_values=(1, 2),
            jobs=jobs,
        )
        report = run_ladder(rc)
        assert report.ok
        return _deterministic_files(rc.out_dir)

    serial, pooled = ladder(1), ladder(2)
    assert {"ladder.csv", "report.csv", os.path.join("p2-k1-relaxed", "benders_log.csv")} <= set(serial)
    assert sorted(pooled) == sorted(serial)
    assert [name for name in serial if pooled[name] != serial[name]] == []


# -- other CLI commands -----------------------------------------------------------------


def test_cli_gen(ladder_run, tmp_path):
    _, _, cfg = ladder_run
    out = tmp_path / "gen_out"
    code = cli_main(["--config", cfg, "--out", str(out), "gen"])
    assert code == 0
    assert os.path.exists(out / "system" / "regions.csv")


def test_cli_config_problems_exit_1(ladder_run, tmp_path):
    _, _, cfg = ladder_run
    assert cli_main(["--config", str(tmp_path / "gone.yaml"), "gen"]) == 1
    assert cli_main(["--config", cfg, "bogus"]) == 1
    assert cli_main(["gen"]) == 1  # --config is required
    assert cli_main(["--config", cfg, "aggregate", "--partition", "nope"]) == 1


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("k_values", 1, "k_values must be a list, got 1"),
        ("partitions", 1, "partitions must be a list, got 1"),
        ("out_dir", 5, "out_dir must be a non-empty string, got 5"),
    ],
)
def test_cli_ladder_names_a_malformed_config_field(tmp_path, capsys, key, value, message):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(_perturbed((key,), value, str(tmp_path / "out"))))
    capsys.readouterr()
    assert cli_main(["--config", str(cfg), "ladder"]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_cli_reports_unreadable_input_files_in_one_line(ladder_run, tmp_path, capsys):
    # translate and operate read investments.csv and allocation.csv from a
    # combo directory, here a copy of the ladder's r1-kall-relaxed
    _, out, cfg = ladder_run
    combo_dir = tmp_path / "r1-kall-relaxed"
    shutil.copytree(os.path.join(out, "r1-kall-relaxed"), combo_dir)
    investments = combo_dir / "investments.csv"
    investments.write_text("variable,mw\nnew_x,1.0\n")
    capsys.readouterr()
    args = ["--config", cfg, "--out", str(combo_dir)]
    assert cli_main([*args, "translate"]) == 1
    assert capsys.readouterr().err == f"input error: {investments}: schema mismatch, missing columns ['value']\n"
    allocation = combo_dir / "allocation.csv"  # the refused translate deleted the ladder's
    allocation.write_text("entity_kind,entity_id,mw\nsite,s1,1.0\n")
    assert cli_main([*args, "operate"]) == 1
    assert capsys.readouterr().err == (
        f"input error: {allocation}: schema mismatch, missing columns ['provenance_cluster']\n"
    )
    allocation.write_text("entity_kind,entity_id,mw,provenance_cluster\nline,L1,300.0,c1\n")
    assert cli_main([*args, "operate"]) == 1
    assert capsys.readouterr().err == (
        f"input error: {allocation} row 2: line L1 names provenance cluster 'c1'\n"
    )


@pytest.mark.parametrize(
    "row, message",
    [
        ("cluster,GHOST,5.0,r1_00_gas", "unknown fine thermal cluster GHOST"),
        ("line,BOGUS,123.0,", "unknown fine interregional lines ['BOGUS']"),
    ],
    ids=["cluster", "line"],
)
def test_cli_operate_refuses_an_allocation_the_fine_case_lacks(ladder_run, tmp_path, capsys, row, message):
    _, out, cfg = ladder_run
    combo_dir = tmp_path / "r1-kall-relaxed"
    shutil.copytree(os.path.join(out, "r1-kall-relaxed"), combo_dir)
    allocation = combo_dir / "allocation.csv"
    allocation.write_text(allocation.read_text() + row + "\n")
    capsys.readouterr()
    assert cli_main(["--config", cfg, "--out", str(combo_dir), "operate"]) == 1
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_cli_ladder_on_a_case_without_scalars_exits_1(tmp_path, capsys):
    case_dir = tmp_path / "case"
    write_case(generate(SynthConfig(**TINY_SYNTH), seed=3), str(case_dir))
    os.remove(case_dir / "scalars.csv")
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"out_dir: {tmp_path / 'out'}\ninput_dir: {case_dir}\npartitions: [{{name: r1, regions: 1}}]\n")
    capsys.readouterr()
    assert cli_main(["--config", str(cfg), "ladder"]) == 1
    assert capsys.readouterr().err == f"input error: {case_dir / 'scalars.csv'}: missing file\n"


BUILD_FILES = ("investments.csv", "phase1.csv", "allocation.csv", "portfolio.csv", "operations.csv")
CHAIN_FILES = ("benders_log.csv", *BUILD_FILES)


def _tree_bytes(root):
    """relative path -> bytes of every file under root."""
    root = Path(root)
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _cli_chain(cfg, out, *stages):
    for stage in stages:
        assert cli_main(["--config", cfg, "--out", str(out), *stage]) == 0, stage


def test_cli_stage_chain(ladder_run, tmp_path):
    # a temporal-only chain: aggregate without --partition is the identity,
    # and a k of at least the period count keeps every period, so expand
    # solves coarse/ as the HRB does. A re-run stage first deletes what it
    # and every later stage wrote before: neither the reduction of an
    # earlier 1-region aggregation nor that of an earlier cluster survives
    _, out, cfg = ladder_run
    chain = tmp_path / "chain"
    _cli_chain(cfg, chain, ["aggregate", "--partition", "r1"], ["cluster", "--k", "1"])
    assert os.path.exists(chain / "reduction.csv") and os.path.isdir(chain / "reduced")
    _cli_chain(cfg, chain, ["aggregate"])
    assert not os.path.exists(chain / "reduction.csv") and not os.path.exists(chain / "reduced")
    _cli_chain(cfg, chain, ["cluster", "--k", "1"])
    assert os.path.exists(chain / "reduction.csv") and os.path.isdir(chain / "reduced")
    _cli_chain(cfg, chain, ["cluster", "--k", "99"])
    assert not os.path.exists(chain / "reduction.csv") and not os.path.exists(chain / "reduced")
    _cli_chain(cfg, chain, ["expand"], ["translate"], ["operate"])
    hrb = Path(out, HRB_NAME)
    assert _tree_bytes(chain / "coarse") == _tree_bytes(hrb / "coarse")
    assert {name: (chain / name).read_bytes() for name in CHAIN_FILES} == {
        name: (hrb / name).read_bytes() for name in CHAIN_FILES
    }


def test_cli_chain_writes_the_ladder_combo_files(ladder_run, tmp_path):
    # operate starts from the HRB's basis, as the ladder's operate stage does
    _, out, cfg = ladder_run
    chain = tmp_path / "chain"
    _cli_chain(
        cfg, chain,
        ["aggregate", "--partition", "r1"], ["cluster", "--k", "1"], ["expand"], ["translate"],
        ["operate", "--baseline-dir", os.path.join(out, HRB_NAME)],
    )
    combo = Path(out, "r1-k1-relaxed")
    for case_dir in ("coarse", "reduced"):
        assert _tree_bytes(chain / case_dir) == _tree_bytes(combo / case_dir)
    for name in ("reduction.csv", *CHAIN_FILES):
        assert (chain / name).read_bytes() == (combo / name).read_bytes(), name


def test_a_non_converged_expand_leaves_no_build(ladder_run, tmp_path, capsys):
    # after a full chain, an expand that stops at max_iter deletes the build
    # and what was made of it, so translate has no stale build to read; it
    # keeps the bounds of each iteration it ran
    _, _, cfg = ladder_run
    chain = tmp_path / "chain"
    _cli_chain(cfg, chain, ["aggregate"], ["expand"], ["translate"], ["operate"])
    one_iteration = tmp_path / "one.yaml"
    one_iteration.write_text(Path(cfg).read_text() + "max_iter: 1\n")
    assert cli_main(["--config", str(one_iteration), "--out", str(chain), "expand"]) == 2
    assert os.path.exists(chain / "benders_timing.csv")
    log = _read_csv(chain / "benders_log.csv")
    assert log[0] == ["iteration", "lower_bound", "upper_bound", "gap"]
    assert [row[0] for row in log[1:]] == ["1"]
    assert [name for name in BUILD_FILES if os.path.exists(chain / name)] == []
    capsys.readouterr()
    assert cli_main(["--config", cfg, "--out", str(chain), "translate"]) == 1
    assert capsys.readouterr().err == f"input error: {chain / 'investments.csv'}: missing file\n"


def test_cli_chain_of_a_none_combo_writes_the_ladder_combo_files(tmp_path):
    # the commitment mode is given once, to aggregate, and stored in the
    # case: cluster copies it into reduced/, and expand and metrics read it
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        CONFIG_TEMPLATE.format(out_dir=tmp_path / "out").replace("uc_modes: [relaxed]", "uc_modes: [relaxed, none]")
    )
    rc = RunConfig.from_yaml(str(cfg))
    fine = rc.load_fine()
    combos = {c.name: c for c in rc.combos()}
    hrb = run_case(rc, combos[HRB_NAME], fine)
    assert run_case(rc, combos["r1-k1-none"], fine, hrb.baseline).ok

    chain = tmp_path / "chain" / "r1-k1-none"
    _cli_chain(
        str(cfg), chain,
        ["aggregate", "--partition", "r1", "--uc", "none"], ["cluster", "--k", "1"],
        ["expand"], ["translate"], ["operate", "--baseline-dir", str(hrb.artifacts_dir)],
    )
    for case_dir in ("coarse", "reduced"):
        header, values = _read_csv(chain / case_dir / "scalars.csv")
        assert dict(zip(header, values))["uc_mode"] == "none", case_dir
    combo = Path(rc.out_dir, "r1-k1-none")
    written = {name: data for name, data in _tree_bytes(combo).items() if "timing" not in name}
    assert written.pop("report.csv")
    assert {name: data for name, data in _tree_bytes(chain).items() if "timing" not in name} == written

    dest = tmp_path / "rescored"
    code = cli_main([
        "--config", str(cfg), "--out", str(dest), "metrics",
        "--combo-dir", str(chain), "--baseline-dir", str(hrb.artifacts_dir),
    ])
    assert code == 0
    assert (dest / "rescore-r1-k1-none.csv").read_bytes() == (combo / "report.csv").read_bytes()


def test_a_refused_translate_leaves_no_stale_outputs(ladder_run, tmp_path, capsys):
    # a copy of r1-kall-relaxed with a nan in investments.csv: translate
    # refuses it and deletes the earlier build's allocation, portfolio and
    # dispatch, so operate has no stale allocation to dispatch
    _, out, cfg = ladder_run
    combo_dir = tmp_path / "r1-kall-relaxed"
    shutil.copytree(os.path.join(out, "r1-kall-relaxed"), combo_dir)
    later = ("allocation.csv", "portfolio.csv", "operations.csv")
    assert all(os.path.exists(combo_dir / name) for name in later)
    path = combo_dir / "investments.csv"
    header, first, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header, f"{first.split(',')[0]},nan", *rows]) + "\n")
    args = ["--config", cfg, "--out", str(combo_dir)]
    assert cli_main([*args, "translate"]) == 1
    assert [name for name in later if os.path.exists(combo_dir / name)] == []
    capsys.readouterr()
    assert cli_main([*args, "operate"]) == 1
    assert capsys.readouterr().err == f"input error: {combo_dir / 'allocation.csv'}: missing file\n"


@pytest.mark.parametrize(
    "command, case_dir", [(["cluster", "--k", "1"], "coarse"), (["expand"], "reduced")], ids=["cluster", "expand"]
)
def test_a_refused_stage_leaves_no_stale_outputs(ladder_run, tmp_path, command, case_dir):
    # a copy of r1-k1-relaxed whose case that the stage reads lost its
    # scalars.csv: the stage fails and deletes its own and every later
    # stage's files
    _, out, cfg = ladder_run
    combo_dir = tmp_path / "r1-k1-relaxed"
    shutil.copytree(os.path.join(out, "r1-k1-relaxed"), combo_dir)
    (combo_dir / case_dir / "scalars.csv").unlink()
    assert cli_main(["--config", cfg, "--out", str(combo_dir), *command]) == 1
    first = [name for name, _files in STAGE_FILES].index(command[0])
    stale = [f for _name, files in STAGE_FILES[first:] for f in files if os.path.exists(combo_dir / f)]
    assert stale == []


def test_cli_rejects_a_k_below_1(ladder_run, tmp_path, capsys):
    _, _, cfg = ladder_run
    capsys.readouterr()
    assert cli_main(["--config", cfg, "--out", str(tmp_path), "cluster", "--k", "0"]) == 1
    assert capsys.readouterr().err == "config error: argument --k: must be >= 1, got 0\n"


def test_cli_aggregate_rejects_more_regions_than_the_fine_system(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(CONFIG_TEMPLATE.format(out_dir=tmp_path / "out") + "  - name: big\n    regions: 3\n")
    capsys.readouterr()
    assert cli_main(["--config", str(cfg), "aggregate", "--partition", "big"]) == 1
    assert capsys.readouterr().err == (
        "config error: partition big: regions 3 exceeds the 2 regions of the fine system\n"
    )
    assert not os.path.exists(tmp_path / "out" / "coarse")


def test_cli_metrics_rescores_a_combo(ladder_run, tmp_path):
    _, out, cfg = ladder_run
    dest = tmp_path / "rescored"
    code = cli_main([
        "--config", cfg, "--out", str(dest), "metrics",
        "--combo-dir", os.path.join(out, "r1-kall-relaxed"),
        "--baseline-dir", os.path.join(out, "hrb"),
    ])
    assert code == 0
    rows = _read_csv(dest / "rescore-r1-kall-relaxed.csv")
    assert rows[0] == ["case", "metric", "key", "value"]


@pytest.mark.parametrize("combo", ALL_COMBOS[1:])
def test_cli_metrics_reproduces_the_ladder_report(ladder_run, tmp_path, combo):
    _, out, cfg = ladder_run
    dest = tmp_path / "rescored"
    code = cli_main([
        "--config", cfg, "--out", str(dest), "metrics",
        "--combo-dir", os.path.join(out, combo),
        "--baseline-dir", os.path.join(out, "hrb"),
    ])
    assert code == 0
    assert (dest / f"rescore-{combo}.csv").read_bytes() == Path(out, combo, "report.csv").read_bytes()


def test_cli_metrics_without_out_keeps_the_ladder_report(ladder_run, tmp_path):
    # the README's invocation: the re-score goes next to the ladder's own
    # report.csv, which holds every combo, and must not replace it
    _, out, _ = ladder_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    cfg = tmp_path / "run.yaml"
    cfg.write_text(CONFIG_TEMPLATE.format(out_dir=copy))
    before = (copy / "report.csv").read_bytes()
    code = cli_main([
        "--config", str(cfg), "metrics",
        "--combo-dir", str(copy / "r1-k1-relaxed"), "--baseline-dir", str(copy / "hrb"),
    ])
    assert code == 0
    assert (copy / "report.csv").read_bytes() == before
    assert (copy / "rescore-r1-k1-relaxed.csv").read_bytes() == (copy / "r1-k1-relaxed" / "report.csv").read_bytes()


@pytest.mark.parametrize(
    "command, dropped, added, value",
    [
        ("metrics", 1, [], None),
        ("metrics", 0, ["xv[nowhere]"], None),
        ("metrics", 0, [], "nan"),
        ("metrics", 0, [], "1e9"),
        ("translate", 1, [], None),
        ("translate", 0, ["xv[nowhere]"], None),
        ("translate", 0, [], "nan"),
        ("translate", 0, [], "1e9"),
    ],
    ids=[
        "missing", "unknown", "nan", "above-bound",
        "translate-missing", "translate-unknown", "translate-nan", "translate-above-bound",
    ],
)
def test_cli_metrics_rejects_investments_that_do_not_match_the_case(
    ladder_run, tmp_path, capsys, command, dropped, added, value
):
    # a copy of r1-k1-relaxed whose investments.csv lost its first row,
    # gained a name its case does not have, or holds a value that is not
    # finite or lies above its bound in its first row, re-scored or translated
    _, out, cfg = ladder_run
    combo_dir = tmp_path / "r1-k1-relaxed"
    shutil.copytree(os.path.join(out, "r1-k1-relaxed"), combo_dir)
    path = combo_dir / "investments.csv"
    header, *rows = path.read_text().splitlines()
    first = rows[0].split(",")[0]
    if value is not None:
        rows[0] = f"{first},{value}"
    path.write_text("\n".join([header, *rows[dropped:], *(f"{name},1.0" for name in added)]) + "\n")
    missing = [row.split(",")[0] for row in rows[:dropped]]
    if command == "metrics":
        dest = tmp_path / "cli"
        args = ["metrics", "--combo-dir", str(combo_dir), "--baseline-dir", os.path.join(out, "hrb")]
        case_dir = combo_dir / "reduced"
    else:
        # translate reads the combo directory's coarse/ and investments.csv
        dest = combo_dir  # whose allocation.csv the refused translate deletes
        args = ["translate"]
        case_dir = combo_dir / "coarse"
    capsys.readouterr()
    code = cli_main(["--config", cfg, "--out", str(dest), *args])
    assert code == 1
    if value is None:
        expected = f"{path} does not match {case_dir}: missing {missing}, unknown {added}"
    else:
        bounds = {name: (lo, hi) for name, _, _, lo, hi, _ in investment_entries(load_system(str(case_dir)))}
        lo, hi = bounds[first]
        expected = f"{path} row 2: {first} = {float(value)!r} is not a finite number in [{lo}, {hi}]"
    assert capsys.readouterr().err == f"input error: {expected}\n"
    assert not os.path.exists(dest / "allocation.csv")


@pytest.mark.parametrize(
    "dropped, added, value",
    [(None, [], None), (1, [], None), (0, ["fusion"], None), (0, [], "nan"), (0, [], "many")],
    ids=["no-file", "missing", "unknown", "nan", "not-a-number"],
)
def test_cli_metrics_rejects_a_phase1_that_does_not_match_the_case(
    ladder_run, tmp_path, capsys, dropped, added, value
):
    # a copy of r1-k1-relaxed whose phase1.csv is gone, lost its first row,
    # gained a tech its case does not have, or holds a value that is not a
    # finite number in its first row, re-scored
    _, out, cfg = ladder_run
    combo_dir = tmp_path / "r1-k1-relaxed"
    shutil.copytree(os.path.join(out, "r1-k1-relaxed"), combo_dir)
    path = combo_dir / "phase1.csv"
    header, *rows = path.read_text().splitlines()
    first = rows[0].split(",")[0]
    if dropped is None:
        path.unlink()
        expected = f"{path}: missing file"
    else:
        if value is not None:
            rows[0] = f"{first},{value}"
        path.write_text("\n".join([header, *rows[dropped:], *(f"{name},1.0" for name in added)]) + "\n")
        if value == "nan":
            expected = f"{path} row 2: {first} = nan is not a finite number"
        elif value is not None:
            expected = f"{path} row 2: bad value {value!r} in column value"
        else:
            missing = [row.split(",")[0] for row in rows[:dropped]]
            expected = f"{path} does not match {combo_dir / 'reduced'}: missing {missing}, unknown {added}"
    capsys.readouterr()
    code = cli_main([
        "--config", cfg, "--out", str(tmp_path / "cli"), "metrics",
        "--combo-dir", str(combo_dir), "--baseline-dir", os.path.join(out, "hrb"),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"input error: {expected}\n"


@pytest.mark.parametrize("name", ["investments.csv", "phase1.csv"])
def test_cli_metrics_rejects_a_repeated_name(ladder_run, tmp_path, capsys, name):
    # a copy of r1-k1-relaxed whose file repeats its first name with
    # another value as a last row: the first value must not be overwritten
    _, out, cfg = ladder_run
    combo_dir = tmp_path / "r1-k1-relaxed"
    shutil.copytree(os.path.join(out, "r1-k1-relaxed"), combo_dir)
    path = combo_dir / name
    header, *rows = path.read_text().splitlines()
    first = rows[0].split(",")[0]
    path.write_text("\n".join([header, *rows, f"{first},0.0"]) + "\n")
    column = header.split(",")[0]
    capsys.readouterr()
    code = cli_main([
        "--config", cfg, "--out", str(tmp_path / "cli"), "metrics",
        "--combo-dir", str(combo_dir), "--baseline-dir", os.path.join(out, "hrb"),
    ])
    assert code == 1
    expected = f"{path} row {len(rows) + 2}: duplicate {column} {first}"
    assert capsys.readouterr().err == f"input error: {expected}\n"
