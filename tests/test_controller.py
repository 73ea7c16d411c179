"""Measurement quantization and the per-epoch control loop."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qosalloc.controller import (
    ConfigError,
    QosConfig,
    QosController,
    compute_erab,
    quantize,
)
from qosalloc.predictor import KernelParams
from qosalloc.profile import REPLACED_FALLBACK, Profile
from qosalloc.search import SearchGrid

REFERENCE_THRESHOLDS = (
    -11.25, -8.75, -6.25, -3.75, -1.25, 1.25, 3.75, 6.25, 8.75, 11.25, 13.75,
)


def reference_config(**overrides):
    defaults = dict(
        level_count=12,
        thresholds=REFERENCE_THRESHOLDS,
        targets=(7, 9, 11),
        kernel=KernelParams(200.0),
        grid=SearchGrid(1.25, (50.0, 30.0)),
        capacity=31,
    )
    defaults.update(overrides)
    return QosConfig(**defaults)


def small_config(**overrides):
    defaults = dict(
        level_count=3,
        thresholds=(-5.0, 5.0),
        targets=(2,),
        kernel=KernelParams(100.0),
        grid=SearchGrid(10.0, (30.0,)),
        capacity=31,
    )
    defaults.update(overrides)
    return QosConfig(**defaults)


class TestComputeErab:
    def test_surplus_branch(self):
        assert compute_erab(45.0, 40.0) == 5.0

    def test_loss_branch(self):
        assert compute_erab(35.0, 40.0) == -5.0

    def test_boundary_is_zero(self):
        assert compute_erab(40.0, 40.0) == 0.0

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            compute_erab(-1.0, 40.0)
        with pytest.raises(ValueError):
            compute_erab(40.0, -1.0)

    @given(st.floats(0, 1000), st.floats(0, 1000))
    def test_sign_encodes_branch(self, total, rate):
        erab = compute_erab(total, rate)
        assert erab == total - rate


class TestQuantize:
    def test_reference_values(self):
        config = reference_config()
        assert quantize(0.0, config) == 6
        assert quantize(-11.25, config) == 1  # closed right end of the first bin
        assert quantize(13.06, config) == 11
        assert quantize(0.79, config) == 6
        assert quantize(6.69, config) == 9
        assert quantize(100.0, config) == 12
        assert quantize(-100.0, config) == 1

    def test_right_closed_intervals(self):
        config = reference_config()
        assert quantize(1.25, config) == 6
        assert quantize(1.2500001, config) == 7

    @given(st.floats(-200, 200))
    def test_levels_cover_the_line(self, erab):
        config = reference_config()
        level = quantize(erab, config)
        assert 1 <= level <= 12
        if level > 1:
            assert erab > config.thresholds[level - 2]
        if level < 12:
            assert erab <= config.thresholds[level - 1]


class TestQosConfigValidation:
    def test_threshold_count(self):
        with pytest.raises(ConfigError):
            reference_config(thresholds=(1.0, 2.0))

    def test_thresholds_increasing(self):
        with pytest.raises(ConfigError):
            small_config(thresholds=(5.0, -5.0))

    def test_targets_increasing_and_bounded(self):
        with pytest.raises(ConfigError):
            reference_config(targets=(7, 7, 11))
        with pytest.raises(ConfigError):
            reference_config(targets=(7, 9, 13))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_min_kernel_sum_must_be_finite_and_non_negative(self, value):
        with pytest.raises(ConfigError, match="min_kernel_sum"):
            reference_config(min_kernel_sum=value)

    def test_target_lookup(self):
        config = reference_config()
        assert config.target_for(1) == 7
        assert config.target_for(3) == 11
        with pytest.raises(ConfigError):
            config.target_for(4)


class TestInitialize:
    def test_all_positive_seed_starts_at_origin(self):
        config = small_config()
        seed = Profile(1, 3, 31, [((30.0,), 3)])
        ctrl = QosController(config, seed, qos_level=1)
        assert ctrl.current_allocation == (0.0,)

    def test_two_record_seed_reproduces_search(self):
        config = small_config()
        seed = Profile(1, 3, 31, [((0.0,), 1), ((30.0,), 3)])
        ctrl = QosController(config, seed, qos_level=1)
        assert ctrl.current_allocation == (20.0,)

    def test_empty_seed_rejected(self):
        with pytest.raises(ConfigError):
            QosController(small_config(), Profile(1, 3, 31), qos_level=1)

    def test_level_count_mismatch_rejected(self):
        seed = Profile(1, 13, 31, [((0.0,), 13)])
        with pytest.raises(ConfigError):
            QosController(small_config(), seed, qos_level=1)

    def test_link_count_mismatch_rejected(self):
        seed = Profile(2, 3, 31, [((0.0, 0.0), 1)])
        with pytest.raises(ConfigError):
            QosController(small_config(), seed, qos_level=1)

    def test_capacity_mismatch_rejected(self):
        seed = Profile(1, 3, 7, [((0.0,), 1)])
        with pytest.raises(ConfigError):
            QosController(small_config(), seed, qos_level=1)


class TestStep:
    def test_all_positive_profile_keeps_origin(self):
        config = small_config()
        seed = Profile(1, 3, 31, [((30.0,), 3)])
        ctrl = QosController(config, seed, qos_level=1)
        rec = ctrl.step(100.0)  # lands in the top level
        assert rec.response == 3
        assert ctrl.current_allocation == (0.0,)

    def test_positive_measurement_lowers_total(self):
        # appending ((20,), 3) makes (10,) feasible: next total 10 <= 20
        config = small_config()
        seed = Profile(1, 3, 31, [((0.0,), 1), ((30.0,), 3)])
        ctrl = QosController(config, seed, qos_level=1)
        assert ctrl.current_allocation == (20.0,)
        rec = ctrl.step(10.0)  # > 5 -> level 3
        new_alloc = ctrl.current_allocation
        assert rec.response == 3
        assert ctrl.profile.allocation_matrix()[-1].tolist() == [20.0]
        assert ctrl.profile.response_vector()[-1] == 3
        assert sum(new_alloc) <= 20.0
        assert new_alloc == (10.0,)  # frozen from the enumeration oracle

    def test_negative_measurement_never_lowers_total(self):
        config = small_config()
        seed = Profile(1, 3, 31, [((0.0,), 1), ((30.0,), 3)])
        ctrl = QosController(config, seed, qos_level=1)
        rec = ctrl.step(-10.0)  # <= -5 -> level 1
        new_alloc = ctrl.current_allocation
        assert rec.response == 1
        assert sum(new_alloc) >= 20.0
        assert new_alloc == (20.0,)  # frozen: (20,) stays the cheapest member

    def test_outcome_response_matches_quantize(self):
        config = small_config()
        seed = Profile(1, 3, 31, [((0.0,), 1), ((30.0,), 3)])
        ctrl = QosController(config, seed, qos_level=1)
        for erab in (-20.0, -5.0, 0.0, 5.0, 20.0):
            rec = ctrl.step(float(erab))
            assert rec.response == quantize(erab, config)
            assert rec is ctrl.log[-1]

    def test_log_carries_applied_allocation_and_rate(self):
        config = small_config()
        seed = Profile(1, 3, 31, [((0.0,), 1), ((30.0,), 3)])
        ctrl = QosController(config, seed, qos_level=1)
        applied_before = ctrl.current_allocation
        ctrl.step(7.0, source_rate=13.0)
        rec = ctrl.log[-1]
        assert rec.epoch == 1
        assert rec.allocation == applied_before
        assert rec.source_rate == 13.0
        assert rec.erab == 7.0
        assert rec.feasible_found
        assert not rec.search_fallback

    @pytest.mark.parametrize("erab", [math.nan, math.inf, -math.inf])
    def test_non_finite_measurement_rejected_before_any_change(self, erab):
        # nan used to quantize to level 1 and inf to the top level, and
        # both were written into the profile
        config = small_config()
        seed = Profile(1, 3, 31, [((0.0,), 1), ((30.0,), 3)])
        ctrl = QosController(config, seed, qos_level=1)
        before = (ctrl.profile.to_bytes(), ctrl.current_result)
        with pytest.raises(ValueError, match="finite"):
            ctrl.step(erab)
        assert (ctrl.profile.to_bytes(), ctrl.current_result) == before
        assert ctrl.log == []

    def test_source_rate_defaults_to_nan(self):
        config = small_config()
        seed = Profile(1, 3, 31, [((30.0,), 3)])
        ctrl = QosController(config, seed, qos_level=1)
        rec = ctrl.step(0.0)
        assert math.isnan(rec.source_rate)

    def test_low_confidence_flag_marks_thin_kernel_sums(self):
        # single far-away record: kernel sum at the chosen origin is far
        # below the configured floor; the allocation is applied anyway
        config = small_config(min_kernel_sum=0.9)
        seed = Profile(1, 3, 31, [((30.0,), 3)])
        ctrl = QosController(config, seed, qos_level=1)
        assert ctrl.current_allocation == (0.0,)
        ctrl.step(10.0)
        assert ctrl.log[-1].low_confidence
        # with the floor disabled the same epoch is not flagged
        ctrl2 = QosController(small_config(), Profile(1, 3, 31, [((30.0,), 3)]), 1)
        ctrl2.step(10.0)
        assert not ctrl2.log[-1].low_confidence


class TestClosedLoopInvariants:
    def test_deterministic_replay(self):
        rng = np.random.default_rng(17)
        erabs = rng.uniform(-20, 20, 30)

        def run():
            config = small_config(capacity=5)
            seed = Profile(1, 3, 5, [((0.0,), 1), ((30.0,), 3)])
            ctrl = QosController(config, seed, qos_level=1)
            for e in erabs:
                ctrl.step(float(e))
            return (
                [(r.allocation, r.response, r.update_action) for r in ctrl.log],
                ctrl.profile.to_bytes(),
            )

        assert run() == run()

    def test_qos_awareness_over_random_runs(self):
        # negative feedback must not shrink the next total; positive must
        # not grow it (fallback evictions and infeasible searches excluded)
        rng = np.random.default_rng(23)
        checks = 0
        for _ in range(40):
            capacity = int(rng.integers(3, 9))
            config = small_config(
                capacity=capacity,
                kernel=KernelParams(float(rng.uniform(50, 1000))),
                grid=SearchGrid(5.0, (30.0,)),
            )
            p0 = int(rng.integers(1, capacity + 1))
            seed = Profile(
                1, 3, capacity,
                [
                    ((float(rng.integers(0, 7) * 5.0),), int(rng.integers(1, 4)))
                    for _ in range(p0)
                ],
            )
            ctrl = QosController(config, seed, qos_level=1)
            for _ in range(25):
                before = ctrl.current_result
                erab = float(rng.uniform(-30, 30))
                ctrl.step(erab)
                after = ctrl.current_result
                rec = ctrl.log[-1]
                if rec.update_action == REPLACED_FALLBACK:
                    continue
                if not (before.feasible_found and after.feasible_found):
                    continue
                checks += 1
                if rec.response < ctrl.target:
                    assert after.total >= before.total - 1e-9, (
                        f"negative response shrank total: {before.total} -> {after.total}"
                    )
                else:
                    assert after.total <= before.total + 1e-9, (
                        f"positive response grew total: {before.total} -> {after.total}"
                    )
        assert checks > 200  # the property must actually have been exercised
