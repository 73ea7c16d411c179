"""kNN predictor, unbounded growth, and agreement with the bounded loop."""

from __future__ import annotations

import time

import numpy as np
import pytest

from qosalloc.baselines import KnnPredictor, PredictorKind
from qosalloc.controller import QosConfig, QosController
from qosalloc.predictor import GrnnPredictor, KernelParams, predict, round_response
from qosalloc.profile import APPENDED, Profile, UpdateResult
from qosalloc.search import SearchGrid, search


class TestPredictorKind:
    def test_tags(self):
        assert PredictorKind("grnn_bounded").bounded
        assert not PredictorKind("grnn_unbounded").bounded
        assert not PredictorKind("knn").bounded

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            PredictorKind("oracle")
        with pytest.raises(ValueError):
            PredictorKind("knn", knn_k=0)

    def test_labels(self):
        assert PredictorKind("knn", knn_k=7).label == "knn_k7"
        assert PredictorKind("grnn_bounded").label == "grnn_bounded"


def knn_one(x, profile, k):
    """KnnPredictor(k) at the single candidate x: (y*, kernel sum)."""
    y_star, kernel_sum = KnnPredictor(k).predict_batch(np.array([x], dtype=float), profile)
    return float(y_star[0]), float(kernel_sum[0])


class TestKnnPredict:
    def test_k1_returns_nearest(self):
        profile = Profile(1, 12, None, [((0.0,), 2), ((10.0,), 4), ((100.0,), 12)])
        y_star, _ = knn_one((9.0,), profile, 1)
        assert y_star == 4.0
        assert round_response(y_star, 12) == 4

    def test_k2_distance_tie_keeps_lowest_index(self):
        # x=(5,) is 25 away from both (0,) and (10,); 9025 from (100,)
        profile = Profile(1, 12, None, [((0.0,), 2), ((10.0,), 4), ((100.0,), 12)])
        y_star, kernel_sum = knn_one((5.0,), profile, 2)
        assert y_star == 3.0
        assert round_response(y_star, 12) == 3
        assert kernel_sum == 2.0

    def test_k_equal_p_is_global_mean(self):
        profile = Profile(1, 12, None, [((0.0,), 2), ((10.0,), 4), ((100.0,), 12)])
        y_star, _ = knn_one((50.0,), profile, 3)
        assert y_star == pytest.approx((2 + 4 + 12) / 3)

    def test_k_larger_than_profile_rejected(self):
        profile = Profile(1, 12, None, [((0.0,), 2)])
        with pytest.raises(ValueError):
            knn_one((0.0,), profile, 2)

    def test_not_equivalent_to_kernel_predictor(self):
        # uniform weighting over all records differs from kernel weighting
        profile = Profile(1, 12, None, [((0.0,), 1), ((10.0,), 12)])
        k_mean, _ = knn_one((0.0,), profile, 2)
        kernel = predict((0.0,), profile, KernelParams(50.0)).y_star
        assert k_mean != kernel

    def test_batch_matches_single(self):
        rng = np.random.default_rng(4)
        profile = Profile(
            2, 12, None,
            [(tuple(rng.uniform(0, 50, 2)), int(rng.integers(1, 13))) for _ in range(12)],
        )
        predictor = KnnPredictor(5)
        xs = rng.uniform(0, 50, (15, 2))
        y_star, ksum = predictor.predict_batch(xs, profile)
        for i in range(15):
            single, _ = predictor.predict_batch(xs[i:i + 1], profile)
            assert single[0] == y_star[i]
        assert (ksum == 5.0).all()

    def test_plugs_into_search(self):
        profile = Profile(1, 12, None, [((0.0,), 1), ((20.0,), 12), ((30.0,), 12)])
        grid = SearchGrid(10.0, (30.0,))
        result = search(grid, profile, KnnPredictor(1), 7)
        # nearest-record prediction: (20,) is the cheapest point whose
        # nearest record has level >= 7
        assert result.allocation == (20.0,)


class TestUnboundedGrowth:
    def test_append_grows_past_any_capacity(self):
        profile = Profile(1, 12, None, [((0.0,), 1)])
        for i in range(10_000):
            result = profile.update((float(i % 50),), 1 + i % 12, target=7)
            assert result == UpdateResult(APPENDED, i + 1)
        assert profile.size == 1 + 10_000

    def test_prediction_cost_grows_with_profile(self):
        rng = np.random.default_rng(12)
        kernel = KernelParams(200.0)
        predictor = GrnnPredictor(kernel)
        xs = rng.uniform(0, 50, (64, 2))

        def per_prediction_seconds(p):
            profile = Profile(
                2, 12, None,
                [(tuple(rng.uniform(0, 50, 2)), int(rng.integers(1, 13)))
                 for _ in range(p)],
            )
            predictor.predict_batch(xs, profile)  # warm-up
            samples = []
            for _ in range(9):
                t0 = time.perf_counter()
                predictor.predict_batch(xs, profile)
                samples.append(time.perf_counter() - t0)
            # additive noise: the minimum is the robust cost estimate
            return float(np.min(samples))

        sizes = np.array([500, 1000, 2000, 4000])
        times = np.array([per_prediction_seconds(int(p)) for p in sizes])
        slope = np.polyfit(sizes, times, 1)[0]
        assert slope > 0, f"per-prediction cost did not grow: {times}"


class TestBoundedUnboundedAgreement:
    def test_identical_until_capacity_reached(self):
        config = QosConfig(
            level_count=3,
            thresholds=(-5.0, 5.0),
            targets=(2,),
            kernel=KernelParams(100.0),
            grid=SearchGrid(10.0, (30.0,)),
            capacity=5,
        )
        seed_records = [((0.0,), 1), ((30.0,), 3)]
        bounded = QosController(config, Profile(1, 3, 5, seed_records), 1)
        unbounded = QosController(config, Profile(1, 3, None, seed_records), 1)
        rng = np.random.default_rng(8)
        erabs = [float(e) for e in rng.uniform(-15, 15, 10)]
        divergence_epoch = None
        for t, erab in enumerate(erabs, start=1):
            a, _ = bounded.step(erab)
            b, _ = unbounded.step(erab)
            if t <= 3:
                # bounded appends until p=5: epochs 1..3 update identically,
                # so allocations for epochs 2..4 match exactly
                assert a == b
            if a != b and divergence_epoch is None:
                divergence_epoch = t
        assert bounded.profile.size == 5
        assert unbounded.profile.size == 12
