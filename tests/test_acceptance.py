"""Acceptance gate: one test per shipped guarantee, at full size.

Run with `pytest tests/test_acceptance.py -v -rA` to see the per-criterion
pass/fail lines (pytest hides captured stdout for passing tests otherwise).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from qosalloc.baselines import PredictorKind
from qosalloc.harness import Variant, compare_predictors, run_scenario
from qosalloc.scenarios import THRESHOLDS, TARGETS, comparison_scenario, tracking_scenario
from qosalloc.verification import (
    determinism_suite,
    membership_forms_suite,
    monotonicity_suite,
    search_oracle_suite,
    store_laws_suite,
    variation_bound_suite,
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_monotonicity_suite():
    result = monotonicity_suite(instances=1100)
    enough = all(count >= 1000 for count in result.counts.values())
    ok = result.violations == 0 and result.elapsed_s < 60.0 and enough
    _report(
        "1 monotonicity (appends/removals over 1100 instances)",
        ok,
        f"{result.violations} violations, {result.elapsed_s:.1f}s, {result.detail}",
    )


def test_criterion_2_membership_form_equivalence():
    result = membership_forms_suite(instances=100)
    _report(
        "2 membership-form equivalence",
        result.violations == 0,
        f"{result.trials} grid points, {result.violations} disagreements",
    )


def test_criterion_3_variation_bound():
    result = variation_bound_suite(events=1000)
    _report(
        "3 prediction variation bound",
        result.violations == 0,
        f"{result.trials} append events, {result.violations} violations",
    )


def test_criterion_4_closed_loop_tracking():
    t0 = time.perf_counter()
    details = []
    ok = True
    for q in (1, 2, 3):
        config = tracking_scenario(qos_level=q)
        log = run_scenario(config).controllers[0].log
        tail = np.array([rec.erab for rec in log[-20:]])
        mean_erab = float(tail.mean())
        mean_dlr = float(np.maximum(-tail, 0.0).mean())
        target = TARGETS[q - 1]
        band_lo = THRESHOLDS[target - 2] - 2.5
        band_hi = THRESHOLDS[target - 1] + 2.5
        q_ok = band_lo <= mean_erab <= band_hi and mean_dlr <= 0.5
        ok = ok and q_ok
        details.append(
            f"q={q}: mean ERAB {mean_erab:.2f} in [{band_lo},{band_hi}], "
            f"mean DLR {mean_dlr:.3f}"
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report("4 closed-loop tracking", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_5_comparison_orderings():
    config = comparison_scenario()
    variants = [
        Variant(PredictorKind("grnn_bounded"), 16),
        Variant(PredictorKind("grnn_bounded"), 31),
        Variant(PredictorKind("grnn_bounded"), 46),
        Variant(PredictorKind("knn", 5)),
        Variant(PredictorKind("grnn_unbounded")),
    ]
    results = dict(compare_predictors(config, variants))
    s16 = results["grnn_bounded_S16"].reports[0]
    s31 = results["grnn_bounded_S31"].reports[0]
    s46 = results["grnn_bounded_S46"].reports[0]
    knn = results["knn_k5"].reports[0]

    times = (s16.final_search_time_ms, s31.final_search_time_ms, s46.final_search_time_ms)
    ok_time = times[0] < times[1] < times[2]
    _report(
        "5a search time strictly increasing in profile capacity",
        ok_time,
        f"S16/S31/S46 = {times[0]:.3f}/{times[1]:.3f}/{times[2]:.3f} ms",
    )

    variations = (s16.avg_bw_variation, s31.avg_bw_variation, s46.avg_bw_variation)
    ok_var = variations[0] >= variations[1] >= variations[2]
    _report(
        "5b bandwidth variation non-increasing in capacity",
        ok_var,
        f"S16/S31/S46 = {variations[0]:.3f}/{variations[1]:.3f}/{variations[2]:.3f} Mbps",
    )

    ok_dlr = knn.avg_dlr >= s31.avg_dlr
    _report(
        "5c kNN loss at least the bounded predictor's",
        ok_dlr,
        f"kNN {knn.avg_dlr:.3f} vs S31 {s31.avg_dlr:.3f} Mbps",
    )

    bounded_log = results["grnn_bounded_S31"].controllers[0].log
    unbounded_log = results["grnn_unbounded"].controllers[0].log
    first15 = [
        bounded_log[t].allocation == unbounded_log[t].allocation for t in range(15)
    ]
    _report(
        "5d bounded S31 and unbounded identical for first 15 post-seed epochs",
        all(first15),
        f"matches: {sum(first15)}/15 (divergence allowed only after capacity)",
    )


def test_criterion_6_search_oracle_equivalence():
    result = search_oracle_suite(instances=100)
    _report(
        "6 search equals naive enumeration oracle",
        result.violations == 0,
        f"{result.trials} instances ({result.detail}), {result.violations} mismatches",
    )


def test_criterion_7_profile_store_laws():
    result = store_laws_suite(updates=10000)
    _report(
        "7 profile-store laws over 10^4 updates",
        result.violations == 0,
        f"{result.detail}, {result.violations} violations",
    )


def test_criterion_8_determinism():
    result = determinism_suite()
    _report(
        "8 byte-identical re-runs",
        result.violations == 0,
        f"{result.trials} files compared, {result.violations} diffs ({result.detail})",
    )
