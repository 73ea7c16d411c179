"""End-to-end exercise of the run / compare / seed / verify subcommands."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from qosalloc.cli import main
from qosalloc.profile import Profile
from qosalloc.scenarios import tracking_rates

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def tracking_doc(run_length: int = 8) -> dict:
    """The committed QoS-level-2 tracking scenario, cut to run_length epochs."""
    doc = json.loads((SCENARIO_DIR / "tracking_q2.json").read_text(encoding="utf-8"))
    doc["run_length"] = run_length
    return doc


@pytest.fixture()
def scenario_file(tmp_path):
    doc = tracking_doc()
    shutil.copy(SCENARIO_DIR / doc["rate_trace"], tmp_path)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_run_writes_outputs(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", str(scenario_file), "--out", str(out)])
    assert code == 0
    for name in ("metrics.csv", "epochs.csv", "plot_total_bw.csv", "profile_s1.csv",
                 "timings.csv"):
        assert (out / name).exists(), name
    stdout = capsys.readouterr().out
    assert "avg RAB" in stdout


def test_run_seed_override_changes_outputs(scenario_file, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", str(scenario_file), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(scenario_file), "--out", str(out_b),
                 "--seed", "424242"]) == 0
    assert (out_a / "profile_s1.csv").read_bytes() != (out_b / "profile_s1.csv").read_bytes()


def test_compare_prints_every_service(tmp_path, capsys):
    doc = tracking_doc()
    doc["services"] = [{"qos_level": 2}, {"qos_level": 3}]
    doc["rate_trace"] = {"inline": [[rate, 20.0] for rate in tracking_rates(8)]}
    path = tmp_path / "two_services.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["compare", "--config", str(path), "--out", str(tmp_path / "cmp"),
                 "--variants", "grnn_bounded@16,knn"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split()[:3] for line in lines if "avg RAB" in line]
    assert rows == [[label, "service", s] for label in ("grnn_bounded_S16", "knn_k5")
                    for s in ("1", "2")]


def test_compare_writes_table(scenario_file, tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main([
        "compare", "--config", str(scenario_file), "--out", str(out),
        "--variants", "grnn_bounded@16,knn,grnn_unbounded",
    ])
    assert code == 0
    table = (out / "comparison.csv").read_text().splitlines()
    assert table[0].startswith("variant,")
    assert len(table) == 4
    assert (out / "comparison_timing.csv").exists()
    assert (out / "plot_compare.csv").exists()
    stdout = capsys.readouterr().out
    assert "grnn_bounded_S16" in stdout


@pytest.mark.parametrize("variants", [",", "grnn_unbounded@16"],
                         ids=["empty_list", "unbounded_with_capacity"])
def test_compare_rejects_bad_variants(scenario_file, tmp_path, capsys, variants):
    out = tmp_path / "cmp"
    code = main(["compare", "--config", str(scenario_file), "--out", str(out),
                 "--variants", variants])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_seed_generates_profile(scenario_file, tmp_path, capsys):
    out = tmp_path / "seed.csv"
    code = main(["seed", "--config", str(scenario_file), "--out", str(out)])
    assert code == 0
    profile = Profile.load(out)
    assert profile.size == 16
    assert "16-record" in capsys.readouterr().out


def test_seed_with_overrides(scenario_file, tmp_path):
    out = tmp_path / "seed.csv"
    code = main(["seed", "--config", str(scenario_file), "--out", str(out),
                 "--records", "5", "--nominal-rate", "20.0"])
    assert code == 0
    assert Profile.load(out).size == 5


@pytest.mark.parametrize("rate", ["nan", "inf", "-inf", "-1"])
def test_seed_rejects_bad_nominal_rate(scenario_file, tmp_path, capsys, rate):
    # nan and inf used to write a profile whose responses were all level 1
    out = tmp_path / "seed.csv"
    code = main(["seed", "--config", str(scenario_file), "--out", str(out),
                 f"--nominal-rate={rate}"])
    assert code == 2
    assert "nominal_rate" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_negative_seed_override(scenario_file, tmp_path, capsys):
    code = main(["run", "--config", str(scenario_file), "--out", str(tmp_path / "o"),
                 "--seed", "-1"])
    assert code == 2
    assert "rng_seed must be >= 0" in capsys.readouterr().err


def test_verify_runs_scaled_suites(capsys):
    code = main(["verify", "--scale", "0.01"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "monotonicity" in out
    assert "6/6 suites passed" in out


@pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1", "many"])
def test_verify_rejects_bad_scale(capsys, scale):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--scale", scale])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_config_errors_are_reported(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rng_seed": 1}))
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_oversized_grid_is_an_error_not_an_allocation(scenario_file, tmp_path, capsys):
    # 100,000,001 points per link: the grid arrays alone would need 71.1 PiB
    config = json.loads(scenario_file.read_text())
    config["grid"] = {"step": 0.001, "max_per_link": [100000, 100000]}
    huge = tmp_path / "huge_grid.json"
    huge.write_text(json.dumps(config))
    tracemalloc.start()
    try:
        code = main(["run", "--config", str(huge), "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert peak < 2**20  # nothing of the grid's size was allocated
    assert not (tmp_path / "o").exists()


def test_seed_file_beyond_capacity_is_a_config_error(scenario_file, tmp_path, capsys):
    doc = json.loads(scenario_file.read_text())
    assert doc["capacity"] == 31
    seed = Profile(2, doc["levels"], None)
    for k in range(40):
        seed.append((1.25 * k, 1.25 * (k % 7)), 1 + k % 12)
    seed.save(tmp_path / "seed40.csv")
    doc["seed_profile"] = {"file": "seed40.csv"}
    path = tmp_path / "seed40.json"
    path.write_text(json.dumps(doc))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert (f"error: seed_profile.file {tmp_path / 'seed40.csv'} holds 40 records, "
            f"more than the profile capacity 31") in err
    assert "use update()" not in err
    assert not (tmp_path / "o").exists()


def test_run_too_large_to_screen_is_an_error_not_an_allocation(scenario_file, tmp_path, capsys):
    # an unbounded 3-link profile growing for 10**9 epochs: one screen of the
    # stress grid would take about 5.8 TiB
    config = json.loads(scenario_file.read_text())
    config["grid"]["max_per_link"] = [50.0, 30.0, 30.0]
    config["links"] = [{"capacity": 300.0, "background": 40.0}] * 3
    config["predictor"]["kind"] = "grnn_unbounded"
    config["run_length"] = 10**9
    huge = tmp_path / "huge_run.json"
    huge.write_text(json.dumps(config))
    tracemalloc.start()
    try:
        code = main(["run", "--config", str(huge), "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "more than 256 MiB" in capsys.readouterr().err
    assert peak < 2**20
    assert not (tmp_path / "o").exists()


def test_module_entry_point_runs_verify():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "qosalloc", "verify", "--scale", "0.01"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "6/6 suites passed" in proc.stdout
