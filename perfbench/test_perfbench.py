"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench -q``.

They run the benchmark's own command and assert on counts, exit codes and
correctness flags only; no test asserts a time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
COUNT_UNITS = {"count", "B"}


def bench(*args: str, cwd: Path = CHECKOUT) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result, proc.stdout + proc.stderr


def traced_counts(workload: str, seed: int = 1) -> dict:
    code, result, out = bench("--workload", workload, "--seed", str(seed), "--trace", "1")
    assert code == 0 and result is not None and result["correct"], out
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in COUNT_UNITS}


@pytest.mark.parametrize("workload", ["track_ref", "compare_sweep"])
def test_traced_counts_repeat_exactly(workload):
    first = traced_counts(workload)
    assert first["predictor.predict_batch.kernel_evals"] > 0
    assert first["search.search.grid_points"] > 0
    if workload == "compare_sweep":
        assert first["baselines.knn_predict_batch.distance_evals"] > 0
    assert traced_counts(workload) == first


def test_kernel_work_per_epoch_scales_with_size():
    ref = traced_counts("track_ref")
    stress = traced_counts("stress_contended")

    def per_epoch(counts):
        return counts["predictor.predict_batch.kernel_evals"] / counts["controller.step.calls"]

    assert per_epoch(stress) > per_epoch(ref)
    assert stress["profile.update.replaces"] == stress["profile.update.calls"]


def _copy_checkout(tmp_path: Path, with_program: bool) -> Path:
    dest = tmp_path / "checkout"
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy2(CHECKOUT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_program:
        shutil.copytree(CHECKOUT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_fails_without_the_program(tmp_path):
    code, result, out = bench("--workload", "track_ref", "--seconds", "1",
                              cwd=_copy_checkout(tmp_path, with_program=False))
    assert code != 0, out
    assert result is None, out


def test_digest_mismatch_fails_the_run(tmp_path):
    dest = _copy_checkout(tmp_path, with_program=True)
    digests_path = dest / "perfbench" / "digests.json"
    digests = json.loads(digests_path.read_text())
    digests["track_ref"]["1"]["epochs.csv"] = "0" * 64
    digests_path.write_text(json.dumps(digests))
    code, result, out = bench("--workload", "track_ref", "--seed", "1", "--seconds", "1", cwd=dest)
    assert code != 0, out
    assert result is not None and not result["correct"], out
    assert 0 < result["failed"] == result["attempted"], out
    assert "digest mismatch: epochs.csv" in out
