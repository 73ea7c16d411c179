"""Rate distribution, clamping, contention, and the epoch loop."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qosalloc.controller import QosConfig, QosController
from qosalloc.netsim import (
    EndOfRun,
    LinkSpec,
    ServiceSpec,
    Simulator,
    distribute_rate,
    transmit,
)
from qosalloc.predictor import KernelParams
from qosalloc.profile import Profile
from qosalloc.search import SearchGrid


class TestDistributeRate:
    def test_allocation_equal_to_rate(self):
        np.testing.assert_array_equal(distribute_rate(40.0, (30.0, 10.0)), [30.0, 10.0])

    def test_proportional_split(self):
        np.testing.assert_allclose(distribute_rate(40.0, (25.0, 25.0)), [20.0, 20.0])

    def test_zero_rate(self):
        np.testing.assert_array_equal(distribute_rate(0.0, (10.0, 5.0)), [0.0, 0.0])

    def test_zero_allocation_is_total_loss(self):
        np.testing.assert_array_equal(distribute_rate(40.0, (0.0, 0.0)), [0.0, 0.0])

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            distribute_rate(-1.0, (10.0,))

    @given(
        st.floats(0.001, 500),
        st.lists(st.floats(0, 100), min_size=1, max_size=4).filter(lambda xs: sum(xs) > 0),
    )
    def test_conservation(self, rate, alloc):
        r = distribute_rate(rate, alloc)
        assert abs(r.sum() - rate) <= 1e-12 * max(1.0, rate)
        assert (r >= 0).all()


class TestTransmit:
    def test_ample_headroom_is_exact(self):
        links = [LinkSpec(300.0, 40.0), LinkSpec(300.0, 40.0)]
        assert transmit(links, (30.0, 15.0), 40.0) == 5.0

    def test_clamp_reduces_effective_total(self):
        links = [LinkSpec(60.0, 40.0), LinkSpec(60.0, 40.0)]
        # link 1 clamps 30 -> 20, so |x_eff| = 35 and ERAB = -5
        assert transmit(links, (30.0, 15.0), 40.0) == -5.0

    def test_zero_allocation_loses_everything(self):
        links = [LinkSpec(300.0), LinkSpec(300.0)]
        assert transmit(links, (0.0, 0.0), 40.0) == -40.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            transmit([LinkSpec(300.0)], (1.0, 2.0), 10.0)

    def test_monotone_contention(self):
        # more background never increases the measured ERAB
        rng = np.random.default_rng(31)
        for _ in range(200):
            caps = rng.uniform(50, 300, 2)
            bg = rng.uniform(0, caps)
            alloc = tuple(rng.uniform(0, 60, 2))
            rate = float(rng.uniform(0, 80))
            base = transmit([LinkSpec(c, b) for c, b in zip(caps, bg)], alloc, rate)
            bumped = np.minimum(bg + rng.uniform(0, 30, 2), caps)
            more = transmit([LinkSpec(c, b) for c, b in zip(caps, bumped)], alloc, rate)
            assert more <= base + 1e-12

    def test_background_validation(self):
        with pytest.raises(ValueError):
            LinkSpec(100.0, 150.0)
        with pytest.raises(ValueError):
            LinkSpec(100.0, -1.0)
        with pytest.raises(ValueError):
            LinkSpec(100.0, (50.0, 120.0))

    @pytest.mark.parametrize("capacity", [float("nan"), float("inf"), -1.0])
    def test_capacity_checked_before_background(self, capacity):
        with pytest.raises(ValueError, match="capacity must be finite"):
            LinkSpec(capacity, 40.0)


def contention_controller():
    """Controller whose initial search lands on (20, 0) on a 10-step grid.

    Memberships were frozen from the enumeration oracle: with records
    {((40,20),3), ((0,0),1)} at sigma2=400, the cheapest point with
    y* >= 1.5 is (20, 0).
    """
    config = QosConfig(
        level_count=3,
        thresholds=(-5.0, 5.0),
        targets=(2,),
        kernel=KernelParams(400.0),
        grid=SearchGrid(20.0, (40.0, 20.0)),
        capacity=31,
    )
    seed = Profile(2, 3, 31, [((40.0, 20.0), 3), ((0.0, 0.0), 1)])
    return QosController(config, seed, qos_level=1)


class TestServiceSpec:
    @pytest.mark.parametrize("rate", [math.nan, math.inf, -1.0])
    def test_rejects_non_finite_or_negative_rates(self, rate):
        # nan < 0 is False, so a nan rate used to pass validation
        with pytest.raises(ValueError, match="finite"):
            ServiceSpec((15.0, rate), 1)


class TestSimulator:
    def test_single_service_ample_capacity_reduces_to_erab(self):
        ctrl = contention_controller()
        assert ctrl.current_allocation == (20.0, 0.0)
        sim = Simulator(
            [LinkSpec(300.0), LinkSpec(300.0)],
            [ServiceSpec((15.0, 15.0), 1)],
            [ctrl],
        )
        outcomes = sim.run_epoch()
        assert outcomes[0].erab == 5.0  # |x| - R = 20 - 15
        assert outcomes[0].applied_allocation == (20.0, 0.0)
        assert outcomes[0].source_rate == 15.0

    def test_two_services_clamp_in_index_order(self):
        # both controllers start at (20, 0); link 1 has 25 Mbps headroom,
        # so service 1 gets its full 20 and service 2 is clamped to 5
        ctrl_a = contention_controller()
        ctrl_b = contention_controller()
        sim = Simulator(
            [LinkSpec(25.0), LinkSpec(60.0)],
            [ServiceSpec((15.0,), 1), ServiceSpec((10.0,), 1)],
            [ctrl_a, ctrl_b],
        )
        outcomes = sim.run_epoch()
        assert outcomes[0].erab == 5.0  # 20 - 15
        assert outcomes[1].erab == -5.0  # clamped to 5, rate 10

    def test_zero_length_trace_ends_immediately(self):
        ctrl = contention_controller()
        sim = Simulator(
            [LinkSpec(300.0), LinkSpec(300.0)], [ServiceSpec((), 1)], [ctrl]
        )
        with pytest.raises(EndOfRun):
            sim.run_epoch()

    def test_trace_exhaustion_mid_run(self):
        ctrl = contention_controller()
        sim = Simulator(
            [LinkSpec(300.0), LinkSpec(300.0)], [ServiceSpec((15.0,), 1)], [ctrl]
        )
        sim.run_epoch()
        with pytest.raises(EndOfRun):
            sim.run_epoch()

    def test_background_trace_advances_per_epoch(self):
        ctrl = contention_controller()
        links = [LinkSpec(60.0, (0.0, 45.0)), LinkSpec(60.0, 0.0)]
        sim = Simulator(links, [ServiceSpec((15.0, 15.0), 1)], [ctrl])
        first = sim.run_epoch()[0]
        assert first.erab == 5.0  # no background yet
        second = sim.run_epoch()[0]
        # epoch-2 allocation is whatever the controller chose; its link-1
        # share is clamped to 15 Mbps of headroom
        applied = np.asarray(second.applied_allocation)
        eff = np.minimum(applied, [60.0 - 45.0, 60.0])
        assert second.erab == pytest.approx(eff.sum() - 15.0)

    def test_determinism(self):
        def run():
            ctrl = contention_controller()
            sim = Simulator(
                [LinkSpec(30.0), LinkSpec(30.0)],
                [ServiceSpec((15.0, 22.0, 9.0, 30.0), 1)],
                [ctrl],
            )
            return [
                (o.erab, o.response, o.applied_allocation)
                for epoch in sim.run(4)
                for o in epoch
            ]

        assert run() == run()

    def test_noise_requires_rng(self):
        ctrl = contention_controller()
        with pytest.raises(ValueError):
            Simulator(
                [LinkSpec(300.0), LinkSpec(300.0)],
                [ServiceSpec((15.0,), 1)],
                [ctrl],
                noise_std=1.0,
            )

    def test_noise_is_reproducible(self):
        def run():
            ctrl = contention_controller()
            sim = Simulator(
                [LinkSpec(300.0), LinkSpec(300.0)],
                [ServiceSpec((15.0, 15.0, 15.0), 1)],
                [ctrl],
                noise_std=0.5,
                rng=np.random.default_rng(99),
            )
            return [o.erab for epoch in sim.run(3) for o in epoch]

        first = run()
        assert first == run()
        assert any(e != 5.0 for e in first)  # the noise actually fired

    def test_controller_count_mismatch(self):
        ctrl = contention_controller()
        with pytest.raises(ValueError):
            Simulator([LinkSpec(300.0), LinkSpec(300.0)], [], [ctrl])
