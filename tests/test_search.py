"""Grid enumeration, membership forms, search tie-breaking, scaling.

Derived expectations (memberships at sigma2=100, the chosen allocations)
were frozen from an independent pure-python enumeration oracle; the
randomized oracle-equivalence sweep itself lives in the verification
module and the acceptance suite.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from qosalloc.baselines import KnnPredictor, knn_predict
from qosalloc.predictor import EmptyProfileError, KernelParams, predict
from qosalloc.profile import Profile
from qosalloc.search import (
    SearchGrid,
    membership,
    membership_c_form,
    search,
    total_bandwidth,
)
from qosalloc.verification import naive_search


def two_point_profile():
    return Profile(1, 3, None, [((0.0,), 1), ((30.0,), 3)])


class TestSearchGrid:
    def test_cardinality(self):
        grid = SearchGrid(1.25, (50.0, 30.0))
        assert grid.steps_per_link == (40, 24)
        assert grid.size == 41 * 25

    def test_points_are_step_multiples_row_major(self):
        grid = SearchGrid(10.0, (20.0, 10.0))
        expected = [
            [0.0, 0.0], [0.0, 10.0],
            [10.0, 0.0], [10.0, 10.0],
            [20.0, 0.0], [20.0, 10.0],
        ]
        np.testing.assert_array_equal(grid.points(), expected)

    def test_endpoint_included_despite_float_division(self):
        grid = SearchGrid(0.1, (0.3,))
        assert grid.steps_per_link == (3,)

    def test_arrays_built_once_and_read_only(self):
        grid = SearchGrid(1.25, (50.0, 30.0))
        assert grid.counts() is grid.counts()
        assert grid.points() is grid.points()
        for arr in (grid.counts(), grid.points()):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1
        # the cache is not a field: equality and hashing are unchanged
        assert grid == SearchGrid(1.25, (50.0, 30.0))
        assert hash(grid) == hash(SearchGrid(1.25, (50.0, 30.0)))

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchGrid(0.0, (10.0,))
        with pytest.raises(ValueError):
            SearchGrid(1.0, ())
        with pytest.raises(ValueError):
            SearchGrid(1.0, (-5.0,))


class TestMembership:
    def test_single_positive_record_everything_is_member(self):
        profile = Profile(1, 12, None, [((30.0,), 12)])
        k = KernelParams(100.0)
        for x in [(0.0,), (10.0,), (500.0,)]:
            assert membership(x, profile, k, 7)

    def test_direct_evaluation_cases(self):
        profile = two_point_profile()
        k = KernelParams(100.0)
        assert not membership((10.0,), profile, k, 2)  # y* ~ 1.095 < 1.5
        assert membership((20.0,), profile, k, 2)  # y* ~ 2.905 >= 1.5

    def test_empty_profile(self):
        with pytest.raises(EmptyProfileError):
            membership((1.0,), Profile(1, 3, None), KernelParams(), 2)


class TestMembershipCForm:
    def test_all_records_at_target_level(self):
        profile = Profile(1, 12, None, [((0.0,), 7), ((30.0,), 7)])
        c1, c2, c3, member = membership_c_form((15.0,), profile, KernelParams(100.0), 7)
        assert c1 == 0.0
        assert c3 == 0.0
        assert member

    def test_agrees_with_direct_membership(self):
        profile = two_point_profile()
        k = KernelParams(100.0)
        c1, c2, c3, member = membership_c_form((20.0,), profile, k, 2)
        assert member
        assert member == membership((20.0,), profile, k, 2)
        _, _, _, member10 = membership_c_form((10.0,), profile, k, 2)
        assert not member10

    def test_all_negative_profile_is_never_member(self):
        # C1 = 0 and C3 = sum of weights, so C2 = half the weights loses
        profile = Profile(1, 3, None, [((0.0,), 1), ((10.0,), 1), ((30.0,), 1)])
        k = KernelParams(200.0)
        for x in [(0.0,), (15.0,), (30.0,)]:
            c1, c2, c3, member = membership_c_form(x, profile, k, 2)
            assert c1 == 0.0
            assert not member

    def test_empty_profile(self):
        with pytest.raises(EmptyProfileError):
            membership_c_form((1.0,), Profile(1, 3, None), KernelParams(), 2)


class TestSearch:
    def test_one_dimensional_brute_force_case(self):
        grid = SearchGrid(10.0, (30.0,))
        result = search(grid, two_point_profile(), KernelParams(100.0), 2)
        assert result.allocation == (20.0,)
        assert result.total == 20.0
        assert result.feasible_found
        assert result.prediction.y_hat >= 2

    def test_all_positive_profile_returns_origin(self):
        profile = Profile(2, 12, None, [((10.0, 10.0), 12), ((40.0, 20.0), 12)])
        grid = SearchGrid(5.0, (50.0, 30.0))
        result = search(grid, profile, KernelParams(200.0), 7)
        assert result.allocation == (0.0, 0.0)
        assert result.total == 0.0
        assert result.feasible_found

    def test_infeasible_returns_highest_prediction_fallback(self):
        profile = Profile(1, 3, None, [((0.0,), 1), ((10.0,), 1), ((30.0,), 1)])
        grid = SearchGrid(10.0, (30.0,))
        result = search(grid, profile, KernelParams(100.0), 2)
        assert not result.feasible_found
        # every grid point predicts level 1; the fallback maximizes y*
        pts = grid.points()
        from qosalloc.predictor import predict_batch

        y_star, _ = predict_batch(pts, profile, KernelParams(100.0))
        assert result.allocation == tuple(pts[int(np.argmax(y_star))])

    def test_tie_breaks_prefer_higher_prediction(self):
        # (0, 10) and (10, 0) share total 10; records make (10, 0) safer
        profile = Profile(2, 12, None, [((10.0, 0.0), 12), ((0.0, 10.0), 8), ((0.0, 0.0), 1)])
        grid = SearchGrid(10.0, (10.0, 10.0))
        result = search(grid, profile, KernelParams(60.0), 7)
        assert result.feasible_found
        assert result.total == 10.0
        assert result.allocation == (10.0, 0.0)

    def test_tie_breaks_lexicographic_when_predictions_equal(self):
        # symmetric profile: both total-10 points predict identically, so
        # the lexicographically smaller (0, 10) must win
        profile = Profile(2, 12, None, [((10.0, 10.0), 12), ((0.0, 0.0), 12)])
        grid = SearchGrid(10.0, (10.0, 10.0))
        result = search(grid, profile, KernelParams(100.0), 7)
        assert result.allocation == (0.0, 0.0)  # origin is a member here
        # force the tie at total 10 by making the origin non-member
        profile2 = Profile(2, 12, None, [((10.0, 10.0), 12), ((0.0, 0.0), 1)])
        result2 = search(grid, profile2, KernelParams(30.0), 7)
        assert result2.total == 10.0
        assert result2.allocation == (0.0, 10.0)

    def test_result_prediction_matches_chosen_point(self):
        profile = two_point_profile()
        k = KernelParams(100.0)
        result = search(SearchGrid(10.0, (30.0,)), profile, k, 2)
        assert result.prediction == predict(result.allocation, profile, k)

    def test_result_prediction_equals_single_point_predict(self):
        # the result's prediction comes from the batch row; it must equal a
        # fresh single-point prediction field by field, underflow included
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(1, 4))
            cells = [int(rng.integers(2, 9)) for _ in range(n)]
            grid = SearchGrid(2.5, tuple(c * 2.5 for c in cells))
            records = [
                (tuple(float(rng.integers(0, c + 1) * 2.5) for c in cells),
                 int(rng.integers(1, 13)))
                for _ in range(int(rng.integers(1, 20)))
            ]
            profile = Profile(n, 12, None, records)
            k = KernelParams(float(rng.choice([1e-3, 0.5, 50.0, 800.0])))
            target = int(rng.integers(2, 13))
            result = search(grid, profile, k, target)
            expected = predict(result.allocation, profile, k)
            assert result.prediction.y_star == expected.y_star
            assert result.prediction.y_hat == expected.y_hat
            assert result.prediction.kernel_sum == expected.kernel_sum
            knn = KnnPredictor(int(rng.integers(1, len(records) + 1)))
            result = search(grid, profile, None, target, predictor=knn)
            expected = knn_predict(result.allocation, profile, knn.k_neighbors)
            assert result.prediction.y_star == expected.y_star
            assert result.prediction.y_hat == expected.y_hat
            assert result.prediction.kernel_sum == expected.kernel_sum

    def test_empty_profile(self):
        with pytest.raises(EmptyProfileError):
            search(SearchGrid(10.0, (30.0,)), Profile(1, 3, None), KernelParams(), 2)

    def test_link_count_mismatch(self):
        with pytest.raises(ValueError):
            search(SearchGrid(10.0, (30.0, 30.0)), two_point_profile(), KernelParams(), 2)


def test_matches_naive_oracle_spot_checks():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(1, 3))
        cells = [int(rng.integers(2, 8)) for _ in range(n)]
        step = float(rng.uniform(0.5, 4.0))
        grid = SearchGrid(step, tuple(c * step for c in cells))
        records = [
            (
                tuple(float(rng.integers(0, c + 1) * step) for c in cells),
                int(rng.integers(1, 13)),
            )
            for _ in range(int(rng.integers(2, 15)))
        ]
        profile = Profile(n, 12, None, records)
        sigma2 = float(rng.uniform(50, 2000))
        target = int(rng.integers(2, 13))
        result = search(grid, profile, KernelParams(sigma2), target)
        expected_alloc, expected_feasible = naive_search(
            step, grid.max_per_link, records, sigma2, target, 12
        )
        assert result.allocation == expected_alloc
        assert result.feasible_found == expected_feasible


def test_search_cost_scales_linearly_with_profile_size():
    # doubling-twice the record count must cost at most 8x (linear + slack)
    rng = np.random.default_rng(9)
    grid = SearchGrid(1.25, (50.0, 30.0))
    k = KernelParams(200.0)

    def timed(p):
        records = [
            (tuple(rng.uniform(0, 50, 2)), int(rng.integers(1, 13))) for _ in range(p)
        ]
        profile = Profile(2, 12, None, records)
        search(grid, profile, k, 7)  # warm-up
        samples = []
        for _ in range(9):
            t0 = time.perf_counter()
            search(grid, profile, k, 7)
            samples.append(time.perf_counter() - t0)
        # scheduler noise is additive, so the minimum tracks the true cost
        return float(np.min(samples))

    t16 = timed(16)
    t64 = timed(64)
    assert t64 <= 8.0 * t16, f"search time grew superlinearly: {t16:.6f}s -> {t64:.6f}s"


def test_total_bandwidth_helper():
    assert total_bandwidth((1.25, 2.5, 0.0)) == 3.75
