"""Grid enumeration, membership forms, search tie-breaking, scaling.

Derived expectations (memberships at sigma2=100, the chosen allocations)
were frozen from an independent pure-python enumeration oracle; the
randomized oracle-equivalence sweep itself lives in the verification
module and the acceptance suite.
"""

from __future__ import annotations

import importlib
import math
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qosalloc.baselines import KnnPredictor
from qosalloc.predictor import (
    EmptyProfileError,
    GrnnPredictor,
    KernelParams,
    Prediction,
    lattice_batch,
    predict,
    predict_batch,
    round_response,
)
from qosalloc.profile import Profile
from qosalloc.search import AllocationResult, SearchGrid, membership_c_form, search
from qosalloc.verification import naive_search, random_instance

# the package re-exports the search function under the module's name
search_module = importlib.import_module("qosalloc.search")
predictor_module = importlib.import_module("qosalloc.predictor")


def full_grid_search(grid, profile, predictor, target):
    """Reference: search() as one predict_batch call over the whole grid."""
    counts = grid.counts()
    pts = grid.points()
    y_star, kernel_sum = predictor.predict_batch(pts, profile)
    members = y_star >= target - 0.5
    if members.any():
        total_c = counts.sum(axis=1)
        best_total = total_c[members].min()
        cand = members & (total_c == best_total)
        best_y = y_star[cand].max()
        cand &= y_star == best_y
        idx = int(np.argmax(cand))
        feasible = True
    else:
        idx = int(np.argmax(y_star))
        feasible = False
    allocation = tuple(float(v) for v in pts[idx])
    ys = float(y_star[idx])
    return AllocationResult(
        allocation=allocation,
        total=float(np.sum(pts[idx])),
        prediction=Prediction(y_star=ys, y_hat=round_response(ys, profile.level_count),
                              kernel_sum=float(kernel_sum[idx])),
        feasible_found=feasible,
    )


class SpyPredictor:
    """Wraps a predictor and keeps the grid rows of every block it was asked for.

    Its interval is (-inf, inf) everywhere, so the screen rules out no
    point and the search predicts the grid in grid.blocks().
    """

    def __init__(self, inner):
        self.inner = inner
        self.batches = []

    def predict_bounds(self, grid, profile):
        return np.full(grid.size, -np.inf), np.full(grid.size, np.inf)

    def predict_grid(self, grid, rows, profile):
        self.batches.append(np.arange(grid.size)[rows])
        return self.inner.predict_grid(grid, rows, profile)


def large_grid():
    """41 x 25 x 25 = 25,625 points: four blocks at the default block minimum.

    A fresh instance each time, so no test sees blocks cached under a
    patched block minimum.
    """
    return SearchGrid(1.25, (50.0, 30.0, 30.0))


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


def is_member(x, profile, kernel, target):
    """The direct membership test: x is predicted to meet target."""
    return predict(x, profile, kernel).y_star >= target - 0.5


class TestMembership:
    def test_single_positive_record_everything_is_member(self):
        profile = Profile(1, 12, None, [((30.0,), 12)])
        k = KernelParams(100.0)
        for x in [(0.0,), (10.0,), (500.0,)]:
            assert is_member(x, profile, k, 7)

    def test_direct_evaluation_cases(self):
        profile = two_point_profile()
        k = KernelParams(100.0)
        assert not is_member((10.0,), profile, k, 2)  # y* ~ 1.095 < 1.5
        assert is_member((20.0,), profile, k, 2)  # y* ~ 2.905 >= 1.5

    def test_empty_profile(self):
        with pytest.raises(EmptyProfileError):
            is_member((1.0,), Profile(1, 3, None), KernelParams(), 2)


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
        assert member == is_member((20.0,), profile, k, 2)
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
        result = search(grid, two_point_profile(), GrnnPredictor(KernelParams(100.0)), 2)
        assert result.allocation == (20.0,)
        assert result.total == 20.0
        assert result.feasible_found
        assert result.prediction.y_hat >= 2

    def test_all_positive_profile_returns_origin(self):
        profile = Profile(2, 12, None, [((10.0, 10.0), 12), ((40.0, 20.0), 12)])
        grid = SearchGrid(5.0, (50.0, 30.0))
        result = search(grid, profile, GrnnPredictor(KernelParams(200.0)), 7)
        assert result.allocation == (0.0, 0.0)
        assert result.total == 0.0
        assert result.feasible_found

    def test_infeasible_returns_highest_prediction_fallback(self):
        profile = Profile(1, 3, None, [((0.0,), 1), ((10.0,), 1), ((30.0,), 1)])
        grid = SearchGrid(10.0, (30.0,))
        result = search(grid, profile, GrnnPredictor(KernelParams(100.0)), 2)
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
        result = search(grid, profile, GrnnPredictor(KernelParams(60.0)), 7)
        assert result.feasible_found
        assert result.total == 10.0
        assert result.allocation == (10.0, 0.0)

    def test_tie_breaks_lexicographic_when_predictions_equal(self):
        # symmetric profile: both total-10 points predict identically, so
        # the lexicographically smaller (0, 10) must win
        profile = Profile(2, 12, None, [((10.0, 10.0), 12), ((0.0, 0.0), 12)])
        grid = SearchGrid(10.0, (10.0, 10.0))
        result = search(grid, profile, GrnnPredictor(KernelParams(100.0)), 7)
        assert result.allocation == (0.0, 0.0)  # origin is a member here
        # force the tie at total 10 by making the origin non-member
        profile2 = Profile(2, 12, None, [((10.0, 10.0), 12), ((0.0, 0.0), 1)])
        result2 = search(grid, profile2, GrnnPredictor(KernelParams(30.0)), 7)
        assert result2.total == 10.0
        assert result2.allocation == (0.0, 10.0)

    def test_result_prediction_matches_chosen_point(self):
        profile = two_point_profile()
        k = KernelParams(100.0)
        result = search(SearchGrid(10.0, (30.0,)), profile, GrnnPredictor(k), 2)
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
            result = search(grid, profile, GrnnPredictor(k), target)
            expected = predict(result.allocation, profile, k)
            assert result.prediction.y_star == expected.y_star
            assert result.prediction.y_hat == expected.y_hat
            assert result.prediction.kernel_sum == expected.kernel_sum
            knn = KnnPredictor(int(rng.integers(1, len(records) + 1)))
            result = search(grid, profile, knn, target)
            y_star, kernel_sum = knn.predict_batch(np.array([result.allocation]), profile)
            assert result.prediction.y_star == y_star[0]
            assert result.prediction.y_hat == round_response(y_star[0], 12)
            assert result.prediction.kernel_sum == kernel_sum[0]
            assert result.total == float(np.sum(result.allocation))

    def test_empty_profile(self):
        with pytest.raises(EmptyProfileError):
            search(SearchGrid(10.0, (30.0,)), Profile(1, 3, None), GrnnPredictor(), 2)

    def test_link_count_mismatch(self):
        with pytest.raises(ValueError):
            search(SearchGrid(10.0, (30.0, 30.0)), two_point_profile(), GrnnPredictor(), 2)


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
        result = search(grid, profile, GrnnPredictor(KernelParams(sigma2)), target)
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
        search(grid, profile, GrnnPredictor(k), 7)  # warm-up
        samples = []
        for _ in range(9):
            t0 = time.perf_counter()
            search(grid, profile, GrnnPredictor(k), 7)
            samples.append(time.perf_counter() - t0)
        # scheduler noise is additive, so the minimum tracks the true cost
        return float(np.min(samples))

    t16 = timed(16)
    t64 = timed(64)
    assert t64 <= 8.0 * t16, f"search time grew superlinearly: {t16:.6f}s -> {t64:.6f}s"


def assert_block_rule(grid, block_min):
    """grid.blocks() partitions the grid into whole layers, smallest total first."""
    blocks = grid.blocks()
    if grid.size < 2 * block_min:
        assert len(blocks) == 1
    if len(blocks) == 1:
        assert blocks == (slice(None),)
        return
    totals = grid.counts().sum(axis=1)
    rows = [np.arange(grid.size)[r] for r in blocks]
    np.testing.assert_array_equal(np.sort(np.concatenate(rows)), np.arange(grid.size))
    earlier = 0
    for k, r in enumerate(rows):
        assert not blocks[k].flags.writeable
        layer = totals[r]
        assert np.all(np.diff(layer) >= 0)
        assert np.all(np.diff(r)[np.diff(layer) == 0] > 0)  # row-major within a layer
        assert len(r) >= block_min
        if k + 1 < len(blocks):
            assert layer.max() < totals[rows[k + 1]].min()  # no layer spans two blocks
            need = max(block_min, earlier)
            assert len(r) >= need
            # the shortest run of whole layers that reaches the minimum
            assert np.count_nonzero(layer < layer.max()) < need
        earlier += len(r)


def level_by_total_profile(rng, symmetric, records=24):
    """Records whose level rises with total bandwidth, like a real profile.

    With symmetric=True every record has x2 == x3, so each point and its
    mirror (x1, x3, x2) predict bit-identically: the step-multiple
    coordinates make every squared distance exact.
    """
    recs = []
    for _ in range(records):
        c = [int(rng.integers(0, 41)), int(rng.integers(0, 25)), int(rng.integers(0, 25))]
        if symmetric:
            c[2] = c[1]
        level = round((sum(c) * 1.25 - 45.0) / 2.5) + 6 + int(rng.integers(-1, 2))
        recs.append((tuple(v * 1.25 for v in c), int(np.clip(level, 1, 12))))
    return Profile(3, 12, None, recs)


class TestBlockedSearch:
    def test_by_total_order_equals_lexsort(self):
        for grid in (SearchGrid(1.0, (7.0,)), SearchGrid(1.25, (50.0, 30.0)),
                     large_grid(), SearchGrid(2.0, (6.0, 0.0, 10.0))):
            counts = grid.counts()
            keys = tuple(counts[:, j] for j in range(grid.link_count - 1, -1, -1))
            order = grid.by_total_order()
            np.testing.assert_array_equal(order, np.lexsort(keys + (counts.sum(axis=1),)))
            assert order is grid.by_total_order()
            assert not order.flags.writeable

    def test_blocks_follow_the_size_rule(self, monkeypatch):
        grid = large_grid()
        assert_block_rule(grid, search_module._BLOCK_MIN)
        assert len(grid.blocks()) == 4
        assert_block_rule(SearchGrid(1.25, (50.0, 30.0)), search_module._BLOCK_MIN)
        rng = np.random.default_rng(5)
        for block_min in (2, 3, 5, 8):
            monkeypatch.setattr(search_module, "_BLOCK_MIN", block_min)
            for _ in range(20):
                grid, _, _, _ = random_instance(rng)
                assert_block_rule(grid, block_min)

    def test_one_block_grid_is_one_call_on_the_grid(self):
        grid = SearchGrid(1.25, (50.0, 30.0))
        profile = Profile(2, 12, None, [((10.0, 10.0), 4), ((40.0, 20.0), 12)])
        spy = SpyPredictor(GrnnPredictor(KernelParams(200.0)))
        search(grid, profile, spy, 7)
        assert len(spy.batches) == 1
        np.testing.assert_array_equal(spy.batches[0], np.arange(grid.size))

    def test_early_winner_skips_later_blocks(self):
        grid = large_grid()
        profile = Profile(3, 12, None, [((10.0, 10.0, 10.0), 12), ((40.0, 20.0, 20.0), 12)])
        spy = SpyPredictor(GrnnPredictor(KernelParams(200.0)))
        result = search(grid, profile, spy, 7)
        assert result.allocation == (0.0, 0.0, 0.0)
        assert len(spy.batches) == 1
        assert sum(len(b) for b in spy.batches) < grid.size
        # an infeasible search still sees every point
        spy.batches.clear()
        negative = Profile(3, 12, None, [((10.0, 10.0, 10.0), 3), ((40.0, 20.0, 20.0), 5)])
        result = search(grid, negative, spy, 7)
        assert not result.feasible_found
        assert len(spy.batches) == len(grid.blocks())
        assert sum(len(b) for b in spy.batches) == grid.size

    def test_winner_needs_its_whole_layer(self, monkeypatch):
        # 3 x 3 grid in blocks {total 0, 1}, {total 2}, {total 3, 4}: the
        # cheapest members, (0, 20) and (20, 0), share total 2 and the
        # later one in row-major order predicts higher, so a block edge
        # inside that layer would hand the search the wrong one
        monkeypatch.setattr(search_module, "_BLOCK_MIN", 3)
        grid = SearchGrid(10.0, (20.0, 20.0))
        profile = Profile(2, 12, None, [
            ((0.0, 0.0), 1), ((10.0, 0.0), 1), ((0.0, 10.0), 1),
            ((0.0, 20.0), 11), ((20.0, 0.0), 12),
        ])
        predictor = GrnnPredictor(KernelParams(30.0))
        result = search(grid, profile, predictor, 9)
        assert result.allocation == (20.0, 0.0)
        assert result == full_grid_search(grid, profile, predictor, 9)
        totals = grid.counts().sum(axis=1)
        assert [sorted(set(totals[rows])) for rows in grid.blocks()] == [[0, 1], [2], [3, 4]]

    def test_small_blocks_match_naive_oracle(self, monkeypatch):
        rng = np.random.default_rng(20)
        for block_min in (2, 3, 5, 8):
            monkeypatch.setattr(search_module, "_BLOCK_MIN", block_min)
            for trial in range(15):
                grid, profile, kernel, target = random_instance(rng)
                if trial % 3 == 0:  # every record below target: no member anywhere
                    profile = Profile(profile.link_count, 12, None, [
                        (r.allocation, int(rng.integers(1, target))) for r in profile.records])
                predictor = GrnnPredictor(kernel)
                result = search(grid, profile, predictor, target)
                assert result == full_grid_search(grid, profile, predictor, target)
                if trial % 3 == 0:
                    assert not result.feasible_found
                records = [(r.allocation, r.response) for r in profile.records]
                expected = naive_search(grid.step, grid.max_per_link, records,
                                        kernel.sigma2, target, 12)
                assert (result.allocation, result.feasible_found) == expected
                knn = KnnPredictor(int(rng.integers(1, profile.size + 1)))
                assert search(grid, profile, knn, target) == full_grid_search(
                    grid, profile, knn, target)

    def test_large_grid_matches_full_grid_reference(self):
        grid = large_grid()
        block_of = np.empty(grid.size, dtype=int)
        for k, rows in enumerate(grid.blocks()):
            block_of[rows] = k
        totals = grid.counts().sum(axis=1)
        predictor = GrnnPredictor(KernelParams(200.0))
        rng = np.random.default_rng(31)
        winner_blocks, tied, infeasible = set(), 0, 0
        profiles = [level_by_total_profile(rng, symmetric=k % 2 == 1) for k in range(4)]
        profiles.append(Profile(3, 12, None, [
            (r.allocation, min(r.response, 6)) for r in profiles[0].records]))
        for profile in profiles:
            y_star, _ = predictor.predict_batch(grid.points(), profile)
            for target in (2, 5, 7, 9, 11, 12):
                result = search(grid, profile, predictor, target)
                expected = full_grid_search(grid, profile, predictor, target)
                assert result.allocation == expected.allocation
                assert result.total == expected.total
                assert result.prediction == expected.prediction
                assert result.feasible_found == expected.feasible_found
                if not result.feasible_found:
                    infeasible += 1
                    continue
                idx = int(np.flatnonzero((grid.points() == result.allocation).all(axis=1))[0])
                winner_blocks.add(int(block_of[idx]))
                layer = totals == totals[idx]
                tied += np.count_nonzero(layer & (y_star == y_star[idx])) > 1
        # the cases cover a winner in every block, tied layers and no member
        assert winner_blocks == set(range(len(grid.blocks())))
        assert tied > 0 and infeasible > 0


def lattice_records(rng, grid, p, level_count=12):
    """p records at random grid points of grid, with random levels."""
    counts = np.stack([rng.integers(0, c + 1, p) for c in grid.steps_per_link], axis=1)
    return [(tuple(float(v) for v in row * grid.step), int(rng.integers(1, level_count + 1)))
            for row in counts]


class CountingLattice:
    """Stands in for the predictor module's lattice_batch and records the rows it serves."""

    def __init__(self):
        self.calls = []

    def __call__(self, table, offsets, bases, profile, columns):
        self.calls.append(len(offsets))
        return lattice_batch(table, offsets, bases, profile, columns)


# grids whose steps pass the exactness check, on 1, 2 and 3 links
EXACT_GRIDS = [
    SearchGrid(1.25, (50.0,)), SearchGrid(0.5, (6.0, 4.0)), SearchGrid(2.5, (20.0, 10.0, 12.5)),
    SearchGrid(1.25, (50.0, 30.0)), SearchGrid(0.5, (3.0, 2.0, 4.0)), SearchGrid(2.5, (100.0,)),
]


class TestKernelTable:
    @pytest.mark.parametrize("grid", EXACT_GRIDS, ids=repr)
    def test_entries_equal_predict_batch_weights(self, grid):
        rng = np.random.default_rng(grid.size)
        sigma2 = 7.3
        table, offsets = grid.kernel_table(sigma2)
        assert table.size == math.prod(2 * c + 1 for c in grid.steps_per_link)
        assert not table.flags.writeable and not offsets.flags.writeable
        records = lattice_records(rng, grid, 12)
        profile = Profile(grid.link_count, 12, None, records)
        bases = grid.record_bases(profile.allocation_matrix())
        for i, (alloc, _) in enumerate(records):
            one = Profile(grid.link_count, 12, None, [(alloc, 1)])
            _, weights = predict_batch(grid.points(), one, KernelParams(sigma2))
            assert np.array_equal(table[offsets + bases[i]], weights)

    def test_cached_per_sigma2_on_the_grid(self):
        grid = SearchGrid(1.25, (50.0, 30.0))
        table, offsets = grid.kernel_table(200.0)
        assert table.size == 81 * 49
        assert grid.kernel_table(200.0)[0] is table
        assert grid.kernel_table(200.0)[1] is offsets
        other, _ = grid.kernel_table(300.0)
        assert other is not table and not np.array_equal(other, table)
        assert grid.kernel_table(300.0)[0] is other
        # the cache is not a field: equality and hashing are unchanged
        assert grid == SearchGrid(1.25, (50.0, 30.0))
        assert hash(grid) == hash(SearchGrid(1.25, (50.0, 30.0)))

    @pytest.mark.parametrize("grid", [
        SearchGrid(0.7, (7.0,)), SearchGrid(0.7, (7.0, 4.2)), SearchGrid(0.1, (0.3,)),
    ], ids=repr)
    def test_inexact_step_has_no_table(self, grid, monkeypatch):
        assert grid.kernel_table(200.0) is None
        values = np.arange(max(grid.steps_per_link) + 1) * grid.step
        squares = np.square(values[None, :] - values[:, None])
        deltas = np.subtract.outer(np.arange(len(values)), np.arange(len(values)))
        # some pair (c, r) misses the value its offset c - r has elsewhere
        assert any(len(set(squares[deltas == d].tolist())) > 1 for d in range(len(values)))
        spy = CountingLattice()
        monkeypatch.setattr(predictor_module, "lattice_batch", spy)
        rng = np.random.default_rng(7)
        profile = Profile(grid.link_count, 12, None, lattice_records(rng, grid, 6))
        predictor = GrnnPredictor(KernelParams(3.0))
        assert search(grid, profile, predictor, 7) == full_grid_search(grid, profile, predictor, 7)
        assert spy.calls == []

    def test_size_limit(self, monkeypatch):
        monkeypatch.setattr(search_module, "_TABLE_MAX", 41**2)
        # (c, r) pairs in the check, then table entries
        assert SearchGrid(1.25, (50.0,)).kernel_table(1.0) is not None  # 41**2, 81
        assert SearchGrid(1.25, (51.25,)).kernel_table(1.0) is None  # 42**2, 83
        assert SearchGrid(1.25, (50.0, 25.0)).kernel_table(1.0) is None  # 41**2, 81 * 41

    def test_record_bases(self):
        grid = SearchGrid(1.25, (50.0, 30.0))
        allocs = np.array([[0.0, 0.0], [50.0, 30.0], [1.25, 2.5], [-0.0, 30.0]])
        np.testing.assert_array_equal(
            grid.record_bases(allocs), [40 * 49 + 24, 0, 39 * 49 + 22, 40 * 49])
        assert grid.record_bases(np.array([[1.3, 0.0]])) is None  # off the lattice
        assert grid.record_bases(np.array([[0.0, 31.25]])) is None  # outside the box
        assert grid.record_bases(np.array([[0.0, 1.25 + 1e-15]])) is None

    @pytest.mark.parametrize("predictor", [GrnnPredictor(), KnnPredictor(1)], ids=["grnn", "knn"])
    def test_predict_grid_rejects_another_link_count(self, predictor):
        # a 1-link profile broadcast against a 2-link grid used to predict
        # silently from the wrong offsets
        grid = SearchGrid(1.25, (5.0, 5.0))
        profile = Profile(1, 12, None, [((0.0,), 3), ((2.5,), 7)])
        with pytest.raises(ValueError, match="grid has 2 links but records have 1"):
            predictor.predict_grid(grid, slice(None), profile)

    @pytest.mark.parametrize("sigma2", [300.0, 7.3, 0.5, 1e-6])
    def test_search_takes_the_table_and_matches_whole_grid(self, sigma2, monkeypatch):
        spy = CountingLattice()
        monkeypatch.setattr(predictor_module, "lattice_batch", spy)
        rng = np.random.default_rng(int(sigma2 * 1e6) % 2**32)
        predictor = GrnnPredictor(KernelParams(sigma2))
        for grid in EXACT_GRIDS:
            for trial in range(6):
                records = lattice_records(rng, grid, int(rng.integers(1, 40)))
                if trial % 3 == 0:  # every record below target: no member anywhere
                    records = [(a, min(r, 6)) for a, r in records]
                profile = Profile(grid.link_count, 12, None, records)
                for target in (2, 7, 11):
                    before = len(spy.calls)
                    result = search(grid, profile, predictor, target)
                    assert result == full_grid_search(grid, profile, predictor, target)
                    # every grid here has fewer than 2 * _BLOCK_MIN points, so its
                    # candidates are one block: one table call for them, plus one
                    # for the no-member phase
                    calls = spy.calls[before:]
                    assert 1 <= len(calls) <= 1 + (not result.feasible_found)
                    assert all(calls)
                after = len(spy.calls)
                knn = KnnPredictor(int(rng.integers(1, profile.size + 1)))
                assert search(grid, profile, knn, 7) == full_grid_search(grid, profile, knn, 7)
                assert len(spy.calls) == after

    @pytest.mark.parametrize("stray", [(1.3, 2.5), (0.0, 31.25), (51.25, 0.0)],
                             ids=["off_lattice", "outside_box", "beyond_max"])
    def test_stray_record_falls_back(self, stray, monkeypatch):
        spy = CountingLattice()
        monkeypatch.setattr(predictor_module, "lattice_batch", spy)
        grid = SearchGrid(1.25, (50.0, 30.0))
        rng = np.random.default_rng(3)
        predictor = GrnnPredictor(KernelParams(2.0))
        for level in (1, 12):
            records = lattice_records(rng, grid, 10)
            records.insert(int(rng.integers(0, 10)), (stray, level))
            profile = Profile(2, 12, None, records)
            for target in (2, 7, 11):
                assert search(grid, profile, predictor, target) == full_grid_search(
                    grid, profile, predictor, target)
        assert spy.calls == []

    def test_large_grid_searches_block_by_block_on_the_table(self, monkeypatch):
        spy = CountingLattice()
        monkeypatch.setattr(predictor_module, "lattice_batch", spy)
        grid = large_grid()
        predictor = GrnnPredictor(KernelParams(200.0))
        rng = np.random.default_rng(8)
        profile = level_by_total_profile(rng, symmetric=False, records=40)
        negative = Profile(3, 12, None, [(r.allocation, min(r.response, 6))
                                         for r in profile.records])
        result = search(grid, negative, predictor, 9)
        assert not result.feasible_found
        # every response is at most 6, so no interval reaches 8.5 and no point
        # is a candidate: the one table call is the no-member phase's, over
        # fewer rows than the whole grid
        assert len(spy.calls) == 1
        assert 0 < spy.calls[0] < grid.size
        assert result == full_grid_search(grid, negative, predictor, 9)
        for target in (2, 12):
            spy.calls.clear()
            result = search(grid, profile, predictor, target)
            assert result == full_grid_search(grid, profile, predictor, target)
            assert result.feasible_found
            # the candidates are fewer than 2 * _BLOCK_MIN: one block, one call
            assert len(spy.calls) == 1
            assert 0 < spy.calls[0] < search_module._BLOCK_MIN

    def test_empty_profile_still_raises(self):
        with pytest.raises(EmptyProfileError):
            search(SearchGrid(1.25, (50.0, 30.0)), Profile(2, 12, None), GrnnPredictor(), 7)


class TestDistanceRanks:
    @pytest.mark.parametrize("grid", EXACT_GRIDS, ids=repr)
    def test_ranks_order_and_tie_as_the_distances_do(self, grid):
        ranks, offsets = grid.distance_ranks()
        assert ranks.dtype == np.int64
        assert ranks.size == math.prod(2 * c + 1 for c in grid.steps_per_link)
        assert not ranks.flags.writeable
        rng = np.random.default_rng(grid.size)
        allocs = np.array([a for a, _ in lattice_records(rng, grid, 12)])
        got = ranks[offsets[:, None] + grid.record_bases(allocs)[None, :]]
        d2 = ((grid.points()[:, None, :] - allocs[None, :, :]) ** 2).sum(axis=2)
        # equal dense rankings: every order and every tie is kept
        assert np.array_equal(np.unique(got, return_inverse=True)[1],
                              np.unique(d2, return_inverse=True)[1])

    def test_reference_grid_ranks_are_cached_beside_the_kernel_table(self):
        grid = SearchGrid(1.25, (50.0, 30.0))
        table, table_offsets = grid.kernel_table(200.0)
        ranks, offsets = grid.distance_ranks()
        assert ranks.size == 3969 and ranks.nbytes == 31_752
        assert offsets is table_offsets
        assert grid.distance_ranks()[0] is ranks
        assert grid.kernel_table(200.0)[0] is table  # building the ranks kept the table

    def test_no_ranks_where_no_table(self, monkeypatch):
        assert SearchGrid(0.7, (7.0, 4.2)).distance_ranks() is None
        assert SearchGrid(0.3, (0.3,) * 8).distance_ranks() is None  # numpy sums pairwise
        assert SearchGrid(0.3, (0.3,) * 7).distance_ranks() is not None
        monkeypatch.setattr(search_module, "_TABLE_MAX", 41**2)
        assert SearchGrid(1.25, (50.0,)).distance_ranks() is not None
        assert SearchGrid(1.25, (50.0, 25.0)).distance_ranks() is None


# most step counts per link in the screen's property tests, by link count
SCREEN_MAX_STEPS = {1: 40, 2: 12, 3: 5, 4: 3}


@st.composite
def screen_cases(draw):
    """A grid, a kernel and a profile of 1-600 records, on the lattice or off it.

    Steps 0.5 and 1.25 pass the kernel table's exactness check, 0.7 does
    not. Responses are uniform in a drawn level range or rise with the
    record's total; a bounded profile is filled to capacity and then
    updated past it, so its slot order is not its insertion order.
    """
    n = draw(st.integers(1, 4))
    step = draw(st.sampled_from([0.5, 0.7, 1.25]))
    steps = np.array([draw(st.integers(0, SCREEN_MAX_STEPS[n])) for _ in range(n)])
    grid = SearchGrid(step, tuple(float(c) * step for c in steps))
    kernel = KernelParams(10.0 ** draw(st.floats(-6.0, 4.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.integers(1, 600))
    allocs = rng.integers(0, steps + 1, size=(p, n)) * step
    placement = draw(st.sampled_from(["lattice", "off_lattice", "mixed"]))
    if placement != "lattice":
        stray = rng.uniform(0.0, 1.2, size=(p, n)) * (steps + 1) * step
        keep = rng.random(p) < 0.8 if placement == "mixed" else np.zeros(p, dtype=bool)
        allocs = np.where(keep[:, None], allocs, stray)
    if draw(st.booleans()):
        low = draw(st.integers(1, 12))
        responses = rng.integers(low, draw(st.integers(low, 12)) + 1, size=p)
    else:
        scale = max(1.0, float(steps.sum()) * step)
        responses = np.clip(np.rint(allocs.sum(axis=1) / scale * 11) + 1, 1, 12)
    records = [(tuple(a), int(r)) for a, r in zip(allocs.tolist(), responses.tolist())]
    if draw(st.booleans()):  # bounded
        extra = draw(st.integers(0, min(8, p - 1)))
        profile = Profile(n, 12, p - extra, records[:p - extra])
        for alloc, response in records[p - extra:]:
            profile.update(alloc, response, target=7)
    else:
        profile = Profile(n, 12, None, records)
    return grid, kernel, profile


SCREEN_SETTINGS = settings(max_examples=120, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


class TestScreen:
    @SCREEN_SETTINGS
    @given(screen_cases())
    def test_interval_holds_the_exact_y_star(self, case):
        grid, kernel, profile = case
        predictor = GrnnPredictor(kernel)
        lo, hi = predictor.predict_bounds(grid, profile)
        assert lo.shape == hi.shape == (grid.size,)
        y_star, kernel_sum = predictor.predict_grid(grid, slice(None), profile)
        assert np.all((lo <= y_star) & (y_star <= hi))
        finite = np.isfinite(lo)
        assert np.array_equal(finite, np.isfinite(hi))
        # the interval is infinite wherever the exact kernel sum underflows
        assert np.all(kernel_sum[finite] > 0.0)
        tol = predictor_module._SCREEN_TOL * profile.level_count
        # the screened y* sits far inside the interval: the error bound has a
        # margin of 1000x below tol
        middle = (lo[finite] + hi[finite]) / 2
        assert np.all(np.abs(middle - y_star[finite]) < 1e-3 * tol)
        knn_lo, knn_hi = KnnPredictor(1).predict_bounds(grid, profile)
        responses = profile.response_vector()
        assert np.all(knn_lo == responses.min()) and np.all(knn_hi == responses.max())

    @SCREEN_SETTINGS
    @given(screen_cases(), st.integers(1, 600))
    def test_screened_search_equals_whole_grid(self, case, k):
        grid, kernel, profile = case
        knn = KnnPredictor(min(k, profile.size))
        for predictor in (GrnnPredictor(kernel), knn):
            for target in (2, 7, 11):
                expected = full_grid_search(grid, profile, predictor, target)
                assert search(grid, profile, predictor, target) == expected

    def test_interval_is_infinite_only_where_the_kernel_sum_is_tiny(self):
        grid = SearchGrid(1.25, (50.0, 30.0))
        records = [((10.0, 5.0), 3), ((40.0, 25.0), 9)]
        profile = Profile(2, 12, None, records)
        # at sigma2 = 1e-6 a record's weight one step away is exp(-1.5625e6) = 0
        lo, hi = GrnnPredictor(KernelParams(1e-6)).predict_bounds(grid, profile)
        finite = np.flatnonzero(np.isfinite(lo))
        on_records = np.flatnonzero((grid.points() == (10.0, 5.0)).all(axis=1)
                                    | (grid.points() == (40.0, 25.0)).all(axis=1))
        np.testing.assert_array_equal(finite, on_records)
        assert np.all(lo[~np.isfinite(lo)] == -np.inf) and np.all(hi[~np.isfinite(hi)] == np.inf)
        # at sigma2 = 200 every point keeps weight, and y* lies between the levels
        lo, hi = GrnnPredictor(KernelParams(200.0)).predict_bounds(grid, profile)
        assert np.all(np.isfinite(lo)) and np.all(lo > 2.9) and np.all(hi < 9.1)

    @pytest.mark.parametrize("predictor", [GrnnPredictor(), KnnPredictor(1)], ids=["grnn", "knn"])
    def test_bounds_reject_an_empty_profile(self, predictor):
        with pytest.raises(EmptyProfileError):
            predictor.predict_bounds(SearchGrid(1.25, (5.0, 5.0)), Profile(2, 12, None))

    def test_grnn_bounds_reject_another_link_count(self):
        profile = Profile(1, 12, None, [((0.0,), 3)])
        with pytest.raises(ValueError, match="grid has 2 links but records have 1"):
            GrnnPredictor().predict_bounds(SearchGrid(1.25, (5.0, 5.0)), profile)

    def test_totals_cached_read_only(self):
        grid = SearchGrid(1.25, (50.0, 30.0))
        totals = grid.totals()
        assert totals is grid.totals() and not totals.flags.writeable
        np.testing.assert_array_equal(totals, grid.counts().sum(axis=1))
