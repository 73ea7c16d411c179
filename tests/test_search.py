"""Grid enumeration, membership forms, search tie-breaking, scaling.

Derived expectations (memberships at sigma2=100, the chosen allocations)
were frozen from an independent pure-python enumeration oracle; the
randomized oracle-equivalence sweep itself lives in the verification
module and the acceptance suite.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qosalloc.baselines import KnnPredictor
from qosalloc.predictor import (
    EmptyProfileError,
    GrnnPredictor,
    KernelParams,
    Prediction,
    predict,
    predict_batch,
    round_response,
)
from qosalloc.profile import Profile
from qosalloc.search import AllocationResult, SearchGrid, membership_c_form, search
from qosalloc.verification import membership_forms_suite, naive_search, random_instance

# the package re-exports the search function under the module's name
search_module = importlib.import_module("qosalloc.search")
predictor_module = importlib.import_module("qosalloc.predictor")


def grid_counts(grid):
    """Reference: every grid point's int64 step counts, row-major, from a meshgrid."""
    axes = [np.arange(c + 1) for c in grid.steps_per_link]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, grid.link_count)


def full_grid_search(grid, profile, predictor, target):
    """Reference: search() as one predict_batch call over the whole grid."""
    counts = grid_counts(grid)
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
    point and every grid point is a candidate.
    """

    def __init__(self, inner):
        self.inner = inner
        self.batches = []

    def predict_bounds(self, grid, profile):
        return np.full(grid.size, -np.inf), np.full(grid.size, np.inf)

    def predict_grid(self, grid, rows, profile):
        self.batches.append(np.arange(grid.size)[rows])
        return self.inner.predict_grid(grid, rows, profile)


def search_blocks(grid):
    """The blocks a search predicts when every grid point is a candidate.

    One record at level 1 and target 12: no point is a member, so the
    search predicts every block.
    """
    spy = SpyPredictor(GrnnPredictor())
    profile = Profile(grid.link_count, 12, None, [((0.0,) * grid.link_count, 1)])
    assert not search(grid, profile, spy, 12).feasible_found
    return spy.batches


def large_grid():
    """41 x 25 x 25 = 25,625 points: four blocks at the default block minimum."""
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
        assert grid.totals() is grid.totals()
        assert grid.by_total_order() is grid.by_total_order()
        for arr in (grid.totals(), grid.by_total_order()):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1
        # points are computed on each call, with the bits of counts * step
        points = grid.points()
        assert points is not grid.points() and points.dtype == np.float64
        assert points.tobytes() == (grid_counts(grid) * 1.25).tobytes()
        points[0, 0] = 99.0  # a fresh array: writing it leaves the grid as it was
        assert grid.points(0).tolist() == [0.0, 0.0]
        # the cache is not a field: equality and hashing are unchanged
        assert grid == SearchGrid(1.25, (50.0, 30.0))
        assert hash(grid) == hash(SearchGrid(1.25, (50.0, 30.0)))

    @settings(max_examples=60, deadline=None)
    @given(step=st.sampled_from([0.1, 0.7, 1.25, 0.3, 3.0]),
           cells=st.lists(st.tuples(st.integers(0, 9), st.floats(0.01, 0.98)),
                          min_size=1, max_size=4),
           picks=st.lists(st.integers(0, 10**6), max_size=12))
    def test_coordinates_match_a_meshgrid_reference(self, step, cells, picks):
        # maxima that are no multiple of the step: (c + f) * step with 0 < f < 1
        grid = SearchGrid(step, tuple((c + f) * step for c, f in cells))
        assert grid.steps_per_link == tuple(c for c, _ in cells)
        counts = grid_counts(grid)
        points = counts * step
        assert grid.points().tobytes() == points.tobytes()
        rows = np.array([p % grid.size for p in picks], dtype=np.intp)
        assert grid.points(rows).tobytes() == points[rows].tobytes()
        assert grid.points(rows.astype(np.uint32)).tobytes() == points[rows].tobytes()
        for r in rows[:2]:
            assert grid.points(r).tobytes() == points[r].tobytes()
            assert grid.points(int(r)).tobytes() == points[r].tobytes()
        mask = np.zeros(grid.size, dtype=bool)
        mask[rows] = True
        assert grid.points(mask).tobytes() == points[mask].tobytes()
        assert grid.points(slice(1, None, 2)).tobytes() == points[1::2].tobytes()
        np.testing.assert_array_equal(grid.totals(), counts.sum(axis=1))
        keys = tuple(counts[:, j] for j in range(grid.link_count - 1, -1, -1))
        np.testing.assert_array_equal(grid.by_total_order(),
                                      np.lexsort(keys + (counts.sum(axis=1),)))

    def test_compact_arrays_at_stress_size(self):
        rng = np.random.default_rng(5)
        profile = Profile._from_arrays(3, 12, 128, rng.integers(0, [41, 25, 25], (128, 3)) * 1.25,
                                       rng.integers(1, 13, 128))
        tracemalloc.start()
        try:
            grid = SearchGrid(1.25, (50.0, 30.0, 30.0))
            predictor = GrnnPredictor(KernelParams(200.0))
            search(grid, profile, predictor, 9)
            del predictor  # with its kept screen product: what remains is the grid's
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # step counts (uint8), totals and order (intp): 77 + 205 + 205 KB;
        # with float64 coordinates and int64 counts of every point they took 1.64 MB
        assert held <= 2**19, held
        assert grid.points(0).dtype == np.float64

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchGrid(0.0, (10.0,))
        with pytest.raises(ValueError):
            SearchGrid(1.0, ())
        with pytest.raises(ValueError):
            SearchGrid(1.0, (-5.0,))

    def test_point_count_is_bounded(self):
        limit = search_module._MAX_POINTS
        assert SearchGrid(1.0, (limit - 1.0,)).size == limit
        assert SearchGrid(1.0, (1023.0, 1023.0)).size == limit
        for maxima in [(float(limit),), (1023.0, 1024.0), (100000.0, 100000.0)]:
            with pytest.raises(ValueError, match=f"more than {limit} points"):
                SearchGrid(1.0, maxima)
        # a step count too large for an int still raises ValueError
        with pytest.raises(ValueError, match="points"):
            SearchGrid(1e-300, (1e300,))


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


def membership_c_form_reference(x, profile, kernel, target):
    """membership_c_form as one Python addition per record, level by level."""
    xv = np.asarray(x, dtype=float)
    allocs = profile.allocation_matrix()
    responses = profile.response_vector()
    d2 = ((allocs - xv) ** 2).sum(axis=1)
    weights = np.exp(-d2 / kernel.sigma2)
    c1 = 0.0
    for u in range(target, profile.level_count + 1):
        for i in np.flatnonzero(responses == u):
            c1 += (u - target) * float(weights[i])
    c2 = 0.0
    for i in range(profile.size):
        c2 += float(weights[i])
    c2 *= 0.5
    c3 = 0.0
    for u in range(1, target):
        for i in np.flatnonzero(responses == u):
            c3 += (target - u) * float(weights[i])
    return c1, c2, c3, bool(c1 + c2 >= c3)


class TestMembershipCFormReference:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 3),
        p=st.integers(1, 200),
        level_count=st.integers(2, 12),
        sigma2=st.sampled_from([1e-6, 0.5]) | st.floats(1.0, 5000.0),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_the_per_record_loop(self, n, p, level_count, sigma2, seed, data):
        rng = np.random.default_rng(seed)
        allocs = rng.uniform(0.0, 60.0, (p, n))
        responses = rng.integers(1, level_count + 1, p)
        profile = Profile(n, level_count, None,
                          [(tuple(a), int(r)) for a, r in zip(allocs, responses)])
        target = data.draw(st.integers(1, level_count))
        k = KernelParams(sigma2)
        for x in (allocs[0], rng.uniform(0.0, 60.0, n)):
            got = membership_c_form(tuple(x), profile, k, target)
            want = membership_c_form_reference(tuple(x), profile, k, target)
            assert got == want
            assert all(type(v) is float for v in got[:3])


class TestMembershipCFormBatch:
    """An (m, n) call gives every row the bits of the one-point call.

    The rows are taken in chunks of _C_FORM_CHUNK // ((p + 1) * n); the
    patched sizes put a chunk boundary after every row or every few rows.
    """

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.integers(1, 3),
        p=st.integers(1, 120),
        m=st.integers(0, 300),
        level_count=st.integers(2, 12),
        sigma2=st.sampled_from([1e-6, 0.5]) | st.floats(1.0, 5000.0),
        target=st.integers(1, 12),
        chunk=st.sampled_from([None, 1, 1000]),
        seed=st.integers(0, 2**32 - 1),
    )
    # no rows; seven chunks at the real _C_FORM_CHUNK
    @example(n=2, p=5, m=0, level_count=12, sigma2=30.0, target=7, chunk=None, seed=1)
    @example(n=3, p=120, m=300, level_count=12, sigma2=300.0, target=7, chunk=None, seed=2)
    def test_rows_match_the_one_point_call_and_the_reference(
            self, n, p, m, level_count, sigma2, target, chunk, seed):
        rng = np.random.default_rng(seed)
        allocs = rng.uniform(0.0, 60.0, (p, n))
        responses = rng.integers(1, level_count + 1, p)
        profile = Profile(n, level_count, None,
                          [(tuple(a), int(r)) for a, r in zip(allocs, responses)])
        target = min(target, level_count)
        k = KernelParams(sigma2)
        xs = np.concatenate([allocs, rng.uniform(0.0, 60.0, (m, n))])[:m]
        with pytest.MonkeyPatch.context() as patch:
            if chunk is not None:
                patch.setattr(search_module, "_C_FORM_CHUNK", chunk)
            got = membership_c_form(xs, profile, k, target)
        assert [v.shape for v in got] == [(m,)] * 4
        assert got[3].dtype == bool
        for i, x in enumerate(xs):
            one = membership_c_form(tuple(x), profile, k, target)
            assert all(type(v) is float for v in one[:3]) and type(one[3]) is bool
            row = (float(got[0][i]), float(got[1][i]), float(got[2][i]), bool(got[3][i]))
            assert row == one == membership_c_form_reference(tuple(x), profile, k, target)

    def test_bad_shapes_raise(self):
        profile = two_point_profile()  # one link
        k = KernelParams(100.0)
        for bad in (np.zeros(2), np.zeros((3, 2)), np.zeros((2, 3, 1)), np.zeros((1, 1, 1)),
                    np.float64(10.0)):
            with pytest.raises(ValueError, match="shape"):
                membership_c_form(bad, profile, k, 2)

    def test_empty_profile(self):
        with pytest.raises(EmptyProfileError):
            membership_c_form(np.zeros((4, 1)), Profile(1, 3, None), KernelParams(), 2)

    def test_suite_checks_every_point_at_scale_0_2(self):
        result = membership_forms_suite(instances=20)
        assert (result.trials, result.violations) == (2203, 0)


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


def test_naive_oracle_reads_a_one_shot_iterable_once():
    allocs = [(0.0, 2.5), (5.0, 0.0), (2.5, 2.5), (5.0, 5.0)]
    responses = [3, 6, 9, 12]
    args = (2.5, (5.0, 5.0))
    expected = naive_search(*args, list(zip(allocs, responses)), 40.0, 8, 12)
    # a bare zip is exhausted by the first grid point if it is walked per point
    assert naive_search(*args, zip(allocs, responses), 40.0, 8, 12) == expected
    assert expected == ((5.0, 2.5), True)


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
    """A search predicts the grid in whole layers, smallest total first."""
    rows = search_blocks(grid)
    if grid.size < 2 * block_min:
        assert len(rows) == 1
    totals = grid_counts(grid).sum(axis=1)
    np.testing.assert_array_equal(np.sort(np.concatenate(rows)), np.arange(grid.size))
    earlier = 0
    for k, r in enumerate(rows):
        layer = totals[r]
        assert np.all(np.diff(layer) >= 0)
        assert np.all(np.diff(r)[np.diff(layer) == 0] > 0)  # row-major within a layer
        assert len(r) >= block_min or len(rows) == 1
        need = max(block_min, earlier)
        if k + 1 < len(rows):
            assert layer.max() < totals[rows[k + 1]].min()  # no layer spans two blocks
            assert len(r) >= need
            # the shortest run of whole layers that reaches the minimum
            assert np.count_nonzero(layer < layer.max()) < need
        elif len(r) >= need:
            # the last block: a cut after the layer that reaches the minimum
            # would leave fewer than block_min rows
            assert np.count_nonzero(layer > layer[need - 1]) < block_min
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
            counts = grid_counts(grid)
            keys = tuple(counts[:, j] for j in range(grid.link_count - 1, -1, -1))
            order = grid.by_total_order()
            np.testing.assert_array_equal(order, np.lexsort(keys + (counts.sum(axis=1),)))
            assert order is grid.by_total_order()
            assert not order.flags.writeable

    def test_blocks_follow_the_size_rule(self, monkeypatch):
        grid = large_grid()
        assert_block_rule(grid, search_module._BLOCK_MIN)
        assert len(search_blocks(grid)) == 4
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
        np.testing.assert_array_equal(spy.batches[0], grid.by_total_order())

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
        assert len(spy.batches) == 4
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
        totals = grid_counts(grid).sum(axis=1)
        assert [sorted(set(totals[rows])) for rows in search_blocks(grid)] == [
            [0, 1], [2], [3, 4]]

    def test_small_blocks_match_naive_oracle(self, monkeypatch):
        rng = np.random.default_rng(20)
        for block_min in (2, 3, 5, 8):
            monkeypatch.setattr(search_module, "_BLOCK_MIN", block_min)
            for trial in range(15):
                grid, profile, kernel, target = random_instance(rng)
                if trial % 3 == 0:  # every record below target: no member anywhere
                    profile = Profile(profile.link_count, 12, None, [
                        (alloc, int(rng.integers(1, target)))
                        for alloc in profile.allocation_matrix()])
                predictor = GrnnPredictor(kernel)
                result = search(grid, profile, predictor, target)
                assert result == full_grid_search(grid, profile, predictor, target)
                if trial % 3 == 0:
                    assert not result.feasible_found
                records = list(zip(profile.allocation_matrix().tolist(),
                                   profile.response_vector().tolist()))
                expected = naive_search(grid.step, grid.max_per_link, records,
                                        kernel.sigma2, target, 12)
                assert (result.allocation, result.feasible_found) == expected
                knn = KnnPredictor(int(rng.integers(1, profile.size + 1)))
                assert search(grid, profile, knn, target) == full_grid_search(
                    grid, profile, knn, target)

    def test_large_grid_matches_full_grid_reference(self):
        grid = large_grid()
        block_of = np.empty(grid.size, dtype=int)
        blocks = search_blocks(grid)
        for k, rows in enumerate(blocks):
            block_of[rows] = k
        totals = grid_counts(grid).sum(axis=1)
        predictor = GrnnPredictor(KernelParams(200.0))
        rng = np.random.default_rng(31)
        winner_blocks, tied, infeasible = set(), 0, 0
        profiles = [level_by_total_profile(rng, symmetric=k % 2 == 1) for k in range(4)]
        profiles.append(Profile(3, 12, None, zip(
            profiles[0].allocation_matrix(), np.minimum(profiles[0].response_vector(), 6))))
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
        assert winner_blocks == set(range(len(blocks)))
        assert tied > 0 and infeasible > 0


def lattice_records(rng, grid, p, level_count=12):
    """p records at random grid points of grid, with random levels."""
    counts = np.stack([rng.integers(0, c + 1, p) for c in grid.steps_per_link], axis=1)
    return [(tuple(float(v) for v in row * grid.step), int(rng.integers(1, level_count + 1)))
            for row in counts]


class CountingBatch:
    """Stands in for the predictor module's predict_batch and records the rows it serves."""

    def __init__(self):
        self.calls = []

    def __call__(self, xs, profile, kernel):
        self.calls.append(len(xs))
        return predict_batch(xs, profile, kernel)


# grids whose steps pass the exactness check, on 1, 2 and 3 links
EXACT_GRIDS = [
    SearchGrid(1.25, (50.0,)), SearchGrid(0.5, (6.0, 4.0)), SearchGrid(2.5, (20.0, 10.0, 12.5)),
    SearchGrid(1.25, (50.0, 30.0)), SearchGrid(0.5, (3.0, 2.0, 4.0)), SearchGrid(2.5, (100.0,)),
]


class TestLatticeSearch:
    @pytest.mark.parametrize("predictor", [GrnnPredictor(), KnnPredictor(1)], ids=["grnn", "knn"])
    def test_predict_grid_rejects_another_link_count(self, predictor):
        # a 1-link profile broadcast against a 2-link grid used to predict
        # silently from the wrong offsets
        grid = SearchGrid(1.25, (5.0, 5.0))
        profile = Profile(1, 12, None, [((0.0,), 3), ((2.5,), 7)])
        with pytest.raises(ValueError, match="grid has 2 links but records have 1"):
            predictor.predict_grid(grid, slice(None), profile)

    @pytest.mark.parametrize("sigma2", [300.0, 7.3, 0.5, 1e-6])
    def test_search_predicts_one_block_and_matches_whole_grid(self, sigma2, monkeypatch):
        spy = CountingBatch()
        monkeypatch.setattr(predictor_module, "predict_batch", spy)
        rng = np.random.default_rng(int(sigma2 * 1e6) % 2**32)
        predictor = GrnnPredictor(KernelParams(sigma2))
        for grid in EXACT_GRIDS:
            for trial in range(6):
                records = lattice_records(rng, grid, int(rng.integers(1, 40)))
                if trial % 3 == 0:  # every record below target: no member anywhere
                    records = [(a, min(r, 6)) for a, r in records]
                profile = Profile(grid.link_count, 12, None, records)
                for target in (2, 7, 11):
                    spy.calls.clear()
                    result = search(grid, profile, predictor, target)
                    # every grid here has fewer than 2 * _BLOCK_MIN points, so its
                    # candidates are one block: one call for them, plus one
                    # for the no-member phase
                    calls = list(spy.calls)
                    assert 1 <= len(calls) <= 1 + (not result.feasible_found)
                    assert all(calls) and sum(calls) <= grid.size
                    assert result == full_grid_search(grid, profile, predictor, target)
                knn = KnnPredictor(int(rng.integers(1, profile.size + 1)))
                spy.calls.clear()
                assert search(grid, profile, knn, 7) == full_grid_search(grid, profile, knn, 7)
                assert spy.calls == []

    @pytest.mark.parametrize("stray", [(1.3, 2.5), (0.0, 31.25), (51.25, 0.0)],
                             ids=["off_lattice", "outside_box", "beyond_max"])
    def test_stray_record_is_served(self, stray, monkeypatch):
        batch_calls = []
        predict_batch = KnnPredictor.predict_batch

        def counting_batch(predictor, xs, profile):
            batch_calls.append(len(xs))
            return predict_batch(predictor, xs, profile)

        grid = SearchGrid(1.25, (50.0, 30.0))
        rng = np.random.default_rng(3)
        for level in (1, 12):
            records = lattice_records(rng, grid, 10)
            records.insert(int(rng.integers(0, 10)), (stray, level))
            profile = Profile(2, 12, None, records)
            for predictor in (GrnnPredictor(KernelParams(2.0)), KnnPredictor(3)):
                for target in (2, 7, 11):
                    expected = full_grid_search(grid, profile, predictor, target)
                    with monkeypatch.context() as patch:
                        patch.setattr(KnnPredictor, "predict_batch", counting_batch)
                        assert search(grid, profile, predictor, target) == expected
        # the kNN neighbor sets serve a record off the grid as any other
        assert batch_calls == []

    def test_large_grid_searches_block_by_block(self, monkeypatch):
        spy = CountingBatch()
        monkeypatch.setattr(predictor_module, "predict_batch", spy)
        grid = large_grid()
        predictor = GrnnPredictor(KernelParams(200.0))
        rng = np.random.default_rng(8)
        profile = level_by_total_profile(rng, symmetric=False, records=40)
        negative = Profile(3, 12, None, zip(profile.allocation_matrix(),
                                            np.minimum(profile.response_vector(), 6)))
        result = search(grid, negative, predictor, 9)
        assert not result.feasible_found
        # every response is at most 6, so no interval reaches 8.5 and no point
        # is a candidate: the one call is the no-member phase's, over fewer
        # rows than the whole grid
        assert len(spy.calls) == 1
        assert 0 < spy.calls[0] < grid.size
        assert result == full_grid_search(grid, negative, predictor, 9)
        for target in (2, 12):
            spy.calls.clear()
            result = search(grid, profile, predictor, target)
            assert result.feasible_found
            # the candidates are fewer than 2 * _BLOCK_MIN: one block, one call
            assert len(spy.calls) == 1
            assert 0 < spy.calls[0] < search_module._BLOCK_MIN
            assert result == full_grid_search(grid, profile, predictor, target)

    def test_empty_profile_still_raises(self):
        with pytest.raises(EmptyProfileError):
            search(SearchGrid(1.25, (50.0, 30.0)), Profile(2, 12, None), GrnnPredictor(), 7)


# most step counts per link in the screen's property tests, by link count
SCREEN_MAX_STEPS = {1: 40, 2: 12, 3: 5, 4: 3}


@st.composite
def screen_cases(draw):
    """A grid, a kernel and a profile of 1-600 records, on the lattice or off it.

    Step 0.7 is inexact in binary, 0.5 and 1.25 are not. Responses are
    uniform in a drawn level range or rise with the record's total; a
    bounded profile is filled to capacity and then updated past it, so its
    slot order is not its insertion order.
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

    @pytest.mark.parametrize("grid", [
        SearchGrid(1.25, (50.0,)), SearchGrid(1.25, (50.0, 30.0)), SearchGrid(2.5, (20.0, 10.0, 12.5)),
    ], ids=repr)
    def test_all_finite_intervals_equal_the_masked_ones(self, grid, monkeypatch):
        # every screened sum reaches tau here, so the screen skips its masks;
        # a tau inside the range of the sums forces the masked path, which
        # must give the same bits wherever its interval stays finite
        rng = np.random.default_rng(grid.size)
        profile = Profile(grid.link_count, 12, None, lattice_records(rng, grid, 9))
        predictor = GrnnPredictor(KernelParams(30.0))
        lo, hi = predictor.predict_bounds(grid, profile)
        assert np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))
        _, kernel_sum = predictor.predict_grid(grid, slice(None), profile)
        monkeypatch.setattr(predictor_module, "_SCREEN_MIN_SUM", float(np.median(kernel_sum)))
        masked_lo, masked_hi = predictor.predict_bounds(grid, profile)
        finite = np.isfinite(masked_lo)
        assert 0 < np.count_nonzero(finite) < grid.size
        assert np.array_equal(masked_lo[finite], lo[finite])
        assert np.array_equal(masked_hi[finite], hi[finite])
        assert np.all(masked_lo[~finite] == -np.inf) and np.all(masked_hi[~finite] == np.inf)

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
        np.testing.assert_array_equal(totals, grid_counts(grid).sum(axis=1))
