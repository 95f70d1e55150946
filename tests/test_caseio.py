"""Round-trip and error-reporting contract of the CSV case format."""

import csv
import io
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridres.caseio import _fmt, load_system, write_case, write_csv
from gridres.model import CaseError, Region
from gridres.spatial import RegionPartition, aggregate_spatial
from gridres.syngen import SynthConfig, generate

from conftest import make_case, make_site, make_thermal_cluster, make_unit, make_vre_cluster, series, spur_line


def _hand_case():
    units = [
        make_unit("u1", "R1", "g1", 50.0, heat_rate=7.5),
        make_unit("u2", "R1", "g1", 30.0, heat_rate=9.25),
    ]
    site = make_site("s1", "R1", "solar", 12.0, 41.5, series([0.0, 0.625, 0.5, 0.0], 2))
    cluster = make_thermal_cluster("g1", "R1", units, max_new=20.0, fixed_cost=55.125)
    vre = make_vre_cluster("v1", "R1", [site], fixed_cost=90.0)
    region = Region(
        id="R1", urban_population=250_000, reserve_margin=0.15,
        demand=series([10.0, 20.5, 15.25, 11.0], 2),
    )
    return make_case(
        [region], [cluster, vre], sites=[site], units=units,
        lines=[spur_line(site)], carbon_fee=200.0, period_weights=(3.0, 1.0),
    )


def _dir_bytes(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_round_trip_equality(tmp_path):
    case = _hand_case()
    write_case(case, str(tmp_path / "case"))
    assert load_system(str(tmp_path / "case")) == case


def test_write_is_byte_deterministic(tmp_path):
    case = _hand_case()
    write_case(case, str(tmp_path / "a"))
    write_case(case, str(tmp_path / "b"))
    assert _dir_bytes(tmp_path / "a") == _dir_bytes(tmp_path / "b")


def test_second_round_trip_is_byte_identical(tmp_path):
    # float repr is exact, so load(write(c)) re-serializes to the same bytes
    case = _hand_case()
    write_case(case, str(tmp_path / "a"))
    write_case(load_system(str(tmp_path / "a")), str(tmp_path / "b"))
    assert _dir_bytes(tmp_path / "a") == _dir_bytes(tmp_path / "b")


def test_load_is_deterministic(tmp_path):
    write_case(_hand_case(), str(tmp_path / "case"))
    first = load_system(str(tmp_path / "case"))
    second = load_system(str(tmp_path / "case"))
    assert first == second
    assert [c.id for c in first.clusters] == [c.id for c in second.clusters]


def test_synth_case_round_trip(tmp_path):
    case = generate(SynthConfig(n_regions=3, periods=2, period_length=24), seed=4)
    write_case(case, str(tmp_path / "case"))
    assert load_system(str(tmp_path / "case")) == case


def test_aggregated_case_round_trip(tmp_path):
    # merged clusters re-point their units' plant column; the written case
    # must load back unchanged
    fine = generate(SynthConfig(n_regions=4, periods=2, period_length=24), seed=4)
    part = RegionPartition.from_mapping(
        {r: "west" if r in ("R01", "R02") else "east" for r in fine.fine_regions}
    )
    coarse = aggregate_spatial(fine, part)
    write_case(coarse, str(tmp_path / "coarse"))
    assert load_system(str(tmp_path / "coarse")) == coarse


def test_missing_file_reported(tmp_path):
    case_dir = tmp_path / "case"
    write_case(_hand_case(), str(case_dir))
    os.remove(case_dir / "units.csv")
    with pytest.raises(CaseError, match="units.csv: missing file"):
        load_system(str(case_dir))


def test_schema_mismatch_reported(tmp_path):
    case_dir = tmp_path / "case"
    write_case(_hand_case(), str(case_dir))
    path = case_dir / "regions.csv"
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace("urban_population", "pop")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CaseError, match="regions.csv: schema mismatch"):
        load_system(str(case_dir))


def test_dangling_site_cluster_reference(tmp_path):
    case_dir = tmp_path / "case"
    write_case(_hand_case(), str(case_dir))
    path = case_dir / "sites.csv"
    path.write_text(path.read_text().replace(",v1,", ",nope,"))
    with pytest.raises(CaseError, match="site s1 references unknown cluster nope"):
        load_system(str(case_dir))


def test_dangling_unit_plant_reference(tmp_path):
    case_dir = tmp_path / "case"
    write_case(_hand_case(), str(case_dir))
    path = case_dir / "units.csv"
    path.write_text(path.read_text().replace("u1,R1,g1", "u1,R1,gX"))
    with pytest.raises(CaseError, match="unit u1 references unknown plant gX"):
        load_system(str(case_dir))


def test_bad_value_names_file_and_row(tmp_path):
    case_dir = tmp_path / "case"
    write_case(_hand_case(), str(case_dir))
    path = case_dir / "scalars.csv"
    text = path.read_text().replace("200.0", "two hundred")
    path.write_text(text)
    with pytest.raises(CaseError, match=r"scalars.csv row 2: bad value 'two hundred' in column carbon_fee$"):
        load_system(str(case_dir))


def test_profile_out_of_range_rejected(tmp_path):
    case_dir = tmp_path / "case"
    write_case(_hand_case(), str(case_dir))
    path = case_dir / "site_profiles.csv"
    path.write_text(path.read_text().replace("0.625", "1.2"))
    with pytest.raises(CaseError) as err:
        load_system(str(case_dir))
    assert any(v.rule == "profile-range" for v in err.value.violations)


def test_noncontiguous_demand_hours(tmp_path):
    case_dir = tmp_path / "case"
    write_case(_hand_case(), str(case_dir))
    path = case_dir / "demand.csv"
    lines = path.read_text().splitlines()
    dropped = [l for l in lines if not l.startswith("R1,2,")]
    path.write_text("\n".join(dropped) + "\n")
    with pytest.raises(CaseError, match="hours must be contiguous"):
        load_system(str(case_dir))


@pytest.mark.parametrize("name, row", [("demand.csv", "R1,1,20.5"), ("site_profiles.csv", "s1,1,0.625")])
def test_a_repeated_hour_names_file_and_row(tmp_path, name, row):
    case_dir = tmp_path / "case"
    write_case(_hand_case(), str(case_dir))
    path = case_dir / name
    lines = path.read_text().splitlines()
    assert lines[2] == row
    path.write_text("\n".join(lines + [row.replace(row.rsplit(",", 1)[1], "0.5")]) + "\n")
    key = row.split(",")[0]
    with pytest.raises(CaseError, match=f"^{re.escape(str(path))} row 6: duplicate hour 1 for {key}$"):
        load_system(str(case_dir))


def test_extremes_included_is_empty_true_or_false(tmp_path):
    case_dir = tmp_path / "case"
    write_case(_hand_case(), str(case_dir))
    path = case_dir / "scalars.csv"
    text = path.read_text()
    assert text.endswith(",false\n")
    path.write_text(text.replace(",false\n", ",\n"))
    assert load_system(str(case_dir)).extremes_included is False
    path.write_text(text.replace(",false\n", ",True\n"))
    message = f"{path} row 2: bad value 'True' in column extremes_included"
    with pytest.raises(CaseError, match=f"^{re.escape(message)}$"):
        load_system(str(case_dir))


def test_not_a_directory():
    with pytest.raises(CaseError, match="not a case directory"):
        load_system("/nonexistent/path/to/case")


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    n_regions=st.integers(min_value=1, max_value=4),
    periods=st.integers(min_value=1, max_value=3),
)
def test_round_trip_property(tmp_path_factory, seed, n_regions, periods):
    case = generate(
        SynthConfig(n_regions=n_regions, periods=periods, period_length=24), seed=seed
    )
    directory = str(tmp_path_factory.mktemp("case"))
    write_case(case, directory)
    assert load_system(directory) == case


def test_write_csv_formats_every_cell_type_as_fmt_does(tmp_path):
    row = (
        "R1", "", 1.5, -0.0, 0.1, float("nan"), float("inf"), -float("inf"), 1e300,
        np.float64(-0.0), np.float64(2.5), np.float64("nan"), np.float32(0.1),
        0, -7, 2**70, np.int64(4), np.int32(-3),
        True, False, np.bool_(True), np.bool_(False), None,
    )
    path = tmp_path / "mixed.csv"
    write_csv(str(path), ["c"] * len(row), [row, row[::-1]])
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["c"] * len(row))
    for r in (row, row[::-1]):
        writer.writerow([_fmt(x) for x in r])
    assert path.read_bytes() == want.getvalue().encode()
    cells = path.read_text().splitlines()[1].split(",")
    assert cells[3] == "-0.0" and cells[5] == "nan" and cells[18] == "true"
