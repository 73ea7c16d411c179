"""The package's public names, and the README quickstart run against them."""

from __future__ import annotations

import re
from pathlib import Path

import qosalloc

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "AllocationResult", "ConfigError", "DEFAULT_SIGMA2", "EmptyProfileError", "EndOfRun",
    "GrnnPredictor", "KernelParams", "KnnPredictor", "LinkSpec", "MetricsReport",
    "Prediction", "PredictorKind", "Profile", "ProfileFormatError", "QosConfig",
    "QosController", "ScenarioConfig", "ScenarioResult", "SearchGrid", "SeedSpec",
    "ServiceSpec", "Simulator", "UpdateResult", "Variant", "compare_predictors",
    "compute_erab", "load_scenario", "membership_c_form", "predict", "predict_batch",
    "quantize", "run_scenario", "search", "seed_profile_generate", "variation_bound",
]


def test_public_names_are_pinned():
    assert sorted(qosalloc.__all__) == PUBLIC


def test_every_public_name_resolves():
    namespace: dict = {}
    exec("from qosalloc import *", namespace)
    assert [name for name in PUBLIC if namespace.get(name) is None] == []


def test_readme_quickstart_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md quickstart", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 20  # one line per epoch
