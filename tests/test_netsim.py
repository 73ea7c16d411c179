"""Link and service specs, clamping, contention, and the epoch loop."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from qosalloc.controller import QosConfig, QosController
from qosalloc.netsim import EndOfRun, LinkSpec, ServiceSpec, Simulator
from qosalloc.predictor import KernelParams
from qosalloc.profile import Profile
from qosalloc.search import SearchGrid


class TestLinkSpec:
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


class FixedAllocation:
    """Stands in for a controller: applies one allocation and keeps each measured ERAB."""

    def __init__(self, allocation):
        self.current_allocation = tuple(allocation)
        self.config = SimpleNamespace(grid=SimpleNamespace(link_count=len(allocation)))
        self.erabs = []

    def step(self, erab, source_rate):
        self.erabs.append(erab)
        return self.current_allocation, None


def measured_erab(links, allocation, rate):
    """The ERAB one Simulator epoch measures for a fixed allocation alone on links."""
    fixed = FixedAllocation(allocation)
    Simulator(links, [ServiceSpec((rate,), 1)], [fixed]).run_epoch()
    return fixed.erabs[0]


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
    def test_clamp_reduces_effective_total(self):
        links = [LinkSpec(60.0, 40.0), LinkSpec(60.0, 40.0)]
        # link 1 clamps 30 -> 20, so |x_eff| = 35 and ERAB = -5
        assert measured_erab(links, (30.0, 15.0), 40.0) == -5.0

    def test_zero_allocation_loses_everything(self):
        assert measured_erab([LinkSpec(300.0), LinkSpec(300.0)], (0.0, 0.0), 40.0) == -40.0

    def test_monotone_contention(self):
        # more background never increases the measured ERAB
        rng = np.random.default_rng(31)
        for _ in range(200):
            caps = rng.uniform(50, 300, 2)
            bg = rng.uniform(0, caps)
            alloc = tuple(rng.uniform(0, 60, 2))
            rate = float(rng.uniform(0, 80))
            base = measured_erab([LinkSpec(c, b) for c, b in zip(caps, bg)], alloc, rate)
            bumped = np.minimum(bg + rng.uniform(0, 30, 2), caps)
            more = measured_erab([LinkSpec(c, b) for c, b in zip(caps, bumped)], alloc, rate)
            assert more <= base + 1e-12

    def test_single_service_ample_capacity_reduces_to_erab(self):
        ctrl = contention_controller()
        assert ctrl.current_allocation == (20.0, 0.0)
        sim = Simulator(
            [LinkSpec(300.0), LinkSpec(300.0)],
            [ServiceSpec((15.0, 15.0), 1)],
            [ctrl],
        )
        records = sim.run_epoch()
        assert records == ctrl.log
        assert records[0].erab == 5.0  # |x| - R = 20 - 15
        assert records[0].allocation == (20.0, 0.0)
        assert records[0].source_rate == 15.0

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
        records = sim.run_epoch()
        assert records[0].erab == 5.0  # 20 - 15
        assert records[1].erab == -5.0  # clamped to 5, rate 10

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
        applied = np.asarray(second.allocation)
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
                (o.erab, o.response, o.allocation)
                for epoch in sim.run(4)
                for o in epoch
            ]

        assert run() == run()

    @pytest.mark.parametrize("noise_std, rng", [
        (1.0, None), (math.nan, np.random.default_rng(0)),
    ], ids=["no_rng", "nan_std"])
    def test_noise_needs_rng_and_finite_std(self, noise_std, rng):
        # a nan noise_std used to pass validation and mean "no noise"
        ctrl = contention_controller()
        with pytest.raises(ValueError):
            Simulator(
                [LinkSpec(300.0), LinkSpec(300.0)],
                [ServiceSpec((15.0,), 1)],
                [ctrl],
                noise_std=noise_std,
                rng=rng,
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

    def test_link_count_mismatch(self):
        with pytest.raises(ValueError, match="2 links"):
            Simulator([LinkSpec(300.0)], [ServiceSpec((15.0,), 1)], [contention_controller()])
