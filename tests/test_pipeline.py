"""End-to-end ladder orchestration on a tiny synthetic system."""

import csv
import os
import re
import tempfile

import pytest
import yaml
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gridres import pipeline
from gridres.cli import main as cli_main
from gridres.pipeline import (
    Combo,
    ConfigError,
    HRB_NAME,
    LADDER_COLUMNS,
    PartitionSpec,
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
    with pytest.raises(ValueError, match="expected columns fine_region,region"):
        load_partition_file(str(bad))


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
    # combo metadata lands even when the combo fails
    assert os.path.exists(os.path.join(str(tmp_path), combo.name, "combo.csv"))


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


def test_identity_combo_reuses_the_baseline(ladder_run):
    _, out, _ = ladder_run
    rows = _read_csv(os.path.join(out, "ladder.csv"))
    by_combo = {r[0]: r[1:] for r in rows[1:]}
    assert by_combo["ident-kall-relaxed"] == by_combo["hrb"]
    alias = os.path.join(out, "ident-kall-relaxed", "baseline_alias.txt")
    with open(alias) as fh:
        assert "identical to hrb" in fh.read()
    # the reduced combo at the same partition still solves on its own
    assert not os.path.exists(os.path.join(out, "ident-k1-relaxed", "baseline_alias.txt"))


def test_combo_artifacts_present(ladder_run):
    _, out, _ = ladder_run
    combo = os.path.join(out, "r1-k1-relaxed")
    for name in (
        "combo.csv", "coarse", "reduction.csv", "reduced", "benders_log.csv",
        "investments.csv", "allocation.csv", "portfolio.csv", "operations.csv",
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
    assert rows[0] == ["iteration", "master_s", "sub_s", "sub_iterations", "warm_fallbacks"]
    assert [r[0] for r in rows[1:]] == [r[0] for r in log[1:]]
    for r in rows[1:]:
        assert float(r[1]) > 0.0 and float(r[2]) > 0.0
        assert int(r[3]) >= 0
        assert r[4] == "0"
    assert not os.path.exists(os.path.join(combo, "error.txt"))


def test_stage_timing_sums_to_the_combo_runtime(ladder_run):
    _, out, _ = ladder_run
    runtime = {r[0]: float(r[1]) for r in _read_csv(os.path.join(out, "ladder_timing.csv"))[1:]}
    for name in ("hrb", "r1-kall-relaxed", "r1-k1-relaxed", "ident-k1-relaxed"):
        rows = _read_csv(os.path.join(out, name, "stage_timing.csv"))
        assert rows[0] == ["stage", "seconds"]
        assert [r[0] for r in rows[1:]] == [
            "setup", "aggregate", "cluster", "expand", "translate", "operate", "metrics",
        ]
        seconds = [float(r[1]) for r in rows[1:]]
        assert all(s >= 0.0 for s in seconds)
        assert sum(seconds) == pytest.approx(runtime[name], rel=0.02), name
    # a combo that reuses the baseline runs no stage of its own
    assert not os.path.exists(os.path.join(out, "ident-kall-relaxed", "stage_timing.csv"))


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


def test_failed_combo_does_not_sink_the_ladder(tmp_path):
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
        f"    path: {tmp_path / 'gone.csv'}\n"
        "  - name: ident\n"
        "    regions: 2\n"
    )
    code = cli_main(["--config", str(cfg), "ladder"])
    assert code == 2
    rows = _read_csv(out / "ladder.csv")
    assert [r[0] for r in rows[1:]] == ["hrb", "ident-kall-relaxed"]
    timing = {r[0]: r[2] for r in _read_csv(out / "ladder_timing.csv")[1:]}
    assert timing["bad-kall-relaxed"].startswith("aggregate: partition file not found")
    assert timing["hrb"] == "ok"
    assert (out / "bad-kall-relaxed" / "error.txt").read_text().startswith("Traceback")


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


def test_cli_stage_chain(tmp_path):
    cfg = tmp_path / "run.yaml"
    out = tmp_path / "out"
    cfg.write_text(CONFIG_TEMPLATE.format(out_dir=out))

    assert cli_main(["--config", str(cfg), "gen"]) == 0
    assert cli_main(["--config", str(cfg), "aggregate", "--partition", "r1"]) == 0
    assert os.path.isdir(out / "r1")
    assert cli_main(["--config", str(cfg), "cluster", "--k", "1"]) == 0
    assert os.path.exists(out / "reduction.csv")
    assert os.path.isdir(out / "reduced")
    assert cli_main(["--config", str(cfg), "expand", "--partition", "r1", "--k", "1"]) == 0
    assert os.path.exists(out / "investments.csv")
    assert (
        cli_main([
            "--config", str(cfg), "translate",
            "--coarse", str(out / "r1"),
            "--investments", str(out / "investments.csv"),
        ])
        == 0
    )
    assert os.path.exists(out / "allocation.csv")
    assert os.path.exists(out / "portfolio.csv")
    assert (
        cli_main(["--config", str(cfg), "operate", "--allocation", str(out / "allocation.csv")])
        == 0
    )
    assert os.path.exists(out / "operations.csv")


def test_cli_metrics_rescores_a_combo(ladder_run, tmp_path):
    _, out, cfg = ladder_run
    dest = tmp_path / "rescored"
    code = cli_main([
        "--config", cfg, "--out", str(dest), "metrics",
        "--combo-dir", os.path.join(out, "r1-kall-relaxed"),
        "--baseline-dir", os.path.join(out, "hrb"),
    ])
    assert code == 0
    rows = _read_csv(dest / "report.csv")
    assert rows[0] == ["case", "metric", "key", "value"]
