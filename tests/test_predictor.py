"""Kernel predictor: frozen examples, bounds, and numeric invariants.

Expected values marked "direct evaluation" were computed with an
independent pure-python weighted-mean oracle (math.exp, explicit loops)
before this module's implementation existed.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qosalloc import predictor as predictor_module
from qosalloc.baselines import KnnPredictor
from qosalloc.predictor import (
    EmptyProfileError,
    GrnnPredictor,
    KernelParams,
    predict,
    predict_batch,
    round_response,
    variation_bound,
)
from qosalloc.profile import Profile
from qosalloc.search import SearchGrid
from test_search import search_blocks


def make_profile(records, link_count=None, level_count=12):
    n = link_count or len(records[0][0])
    return Profile(n, level_count, None, records)


class TestKernelDistance:
    """The kernel's distance D, seen through a one-record profile's kernel sum."""

    @staticmethod
    def weight(x, record, sigma2=1000.0):
        return predict(x, make_profile([(record, 1)]), KernelParams(sigma2)).kernel_sum

    def test_identity(self):
        assert self.weight((10.0, 10.0), (10.0, 10.0)) == 1.0

    def test_hand_expanded(self):
        assert self.weight((10.0, 10.0), (30.0, 30.0)) == np.exp(800.0 / -1000.0)

    def test_single_axis(self):
        assert self.weight((45.0, 0.0), (0.0, 0.0)) == np.exp(2025.0 / -1000.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            self.weight((1.0, 2.0), (1.0,))
        with pytest.raises(ValueError):
            self.weight((1.0,), (1.0, 2.0))

    # Mbps-scale values; squaring a subnormal difference would underflow
    # to zero and void the one-iff-equal claim
    bandwidth = st.floats(0, 100).map(lambda v: round(v, 6))

    @given(st.integers(1, 4), st.data())
    def test_symmetric_and_bounded(self, n, data):
        a = data.draw(st.lists(self.bandwidth, min_size=n, max_size=n))
        b = data.draw(st.lists(self.bandwidth, min_size=n, max_size=n))
        w = self.weight(a, b, sigma2=1.0)
        assert 0.0 <= w <= 1.0
        assert w == self.weight(b, a, sigma2=1.0)
        assert (w == 1.0) == (a == b)


class TestPredict:
    def test_single_record_collapses(self):
        profile = make_profile([((10.0, 10.0), 4)])
        for x in [(10.0, 10.0), (0.0, 0.0), (99.0, 1.0)]:
            pred = predict(x, profile, KernelParams(800.0))
            assert pred.y_star == 4.0
            assert pred.y_hat == 4

    def test_equidistant_symmetry(self):
        profile = make_profile([((10.0, 10.0), 4), ((30.0, 30.0), 8)])
        pred = predict((20.0, 20.0), profile, KernelParams(800.0))
        assert pred.y_star == pytest.approx(6.0, abs=1e-12)
        assert pred.y_hat == 6

    def test_weighted_mean(self):
        # direct evaluation with weights {1, e^-1}
        profile = make_profile([((10.0, 10.0), 4), ((30.0, 30.0), 8)])
        pred = predict((10.0, 10.0), profile, KernelParams(800.0))
        assert pred.y_star == pytest.approx(5.075765685479981, abs=1e-12)
        assert pred.y_hat == 5
        assert pred.kernel_sum == pytest.approx(1.0 + math.exp(-1.0), abs=1e-12)

    def test_empty_profile(self):
        with pytest.raises(EmptyProfileError):
            predict((1.0,), Profile(1, 12, None), KernelParams())

    def test_dimension_mismatch(self):
        profile = make_profile([((10.0, 10.0), 4)])
        with pytest.raises(ValueError):
            predict((1.0,), profile, KernelParams())

    def test_pure_function(self):
        profile = make_profile([((10.0, 10.0), 4), ((30.0, 30.0), 8)])
        k = KernelParams(640.0)
        first = predict((17.0, 4.0), profile, k)
        second = predict((17.0, 4.0), profile, k)
        assert first == second

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        profile = make_profile(
            [(tuple(rng.uniform(0, 50, 2)), int(rng.integers(1, 13))) for _ in range(9)]
        )
        k = KernelParams(333.0)
        xs = rng.uniform(0, 50, (20, 2))
        y_star, ksum = predict_batch(xs, profile, k)
        for i in range(20):
            single = predict(tuple(xs[i]), profile, k)
            assert single.y_star == y_star[i]
            assert single.kernel_sum == ksum[i]

    def test_underflow_falls_back_to_nearest(self):
        # distances drive every weight to exact zero; nearest record wins
        profile = make_profile([((0.0,), 1), ((2000.0,), 5)], level_count=12)
        pred = predict((1950.0,), profile, KernelParams(1.0))
        assert pred.kernel_sum == 0.0
        assert pred.y_star == 5.0
        assert pred.y_hat == 5

    def test_underflow_tie_keeps_lowest_index(self):
        profile = make_profile([((0.0,), 2), ((2000.0,), 5)], level_count=12)
        pred = predict((1000.0,), profile, KernelParams(1.0))
        assert pred.kernel_sum == 0.0
        assert pred.y_star == 2.0


def row_major_reference(xs, profile, kernel):
    """The original per-record loop: row-wise distance sums, eager nearest."""
    allocs = profile.allocation_matrix()
    responses = profile.response_vector()
    m = xs.shape[0]
    num = np.zeros(m)
    den = np.zeros(m)
    d2_min = np.full(m, np.inf)
    nearest = np.zeros(m, dtype=np.intp)
    for i in range(profile.size):
        d2 = ((xs - allocs[i]) ** 2).sum(axis=1)
        w = np.exp(-d2 / kernel.sigma2)
        num += responses[i] * w
        den += w
        closer = d2 < d2_min
        nearest[closer] = i
        d2_min = np.minimum(d2_min, d2)
    with np.errstate(invalid="ignore"):
        y_star = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0),
                          responses[nearest].astype(float))
    return y_star, den


class TestBitIdentity:
    """predict_batch against the row-major reference, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3),
        records=st.integers(1, 64),
        m=st.integers(1, 3000),
        sigma2=st.sampled_from([1e-6, 1e-3, 0.5]) | st.floats(1.0, 5000.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_row_major_reference(self, n, records, m, sigma2, seed):
        rng = np.random.default_rng(seed)
        # a small integer span makes duplicate records and equidistant
        # candidates (nearest-record ties) common
        allocs = rng.integers(0, 5, (records, n)) * 2.5
        profile = make_profile(
            [(tuple(a), int(r)) for a, r in zip(allocs, rng.integers(1, 13, records))],
            link_count=n,
        )
        xs = rng.integers(0, 9, (m, n)) * 1.25
        # off-lattice rows make the per-link sum's order visible in the bits
        off = rng.random(m) < 0.5
        xs[off] += rng.uniform(0.0, 1.25, (int(off.sum()), n))
        xs[0] = allocs[0]  # weight 1: never underflows
        if m > 1:
            xs[1] = 1e4  # every weight underflows, whatever sigma2
        k = KernelParams(sigma2)
        y_star, ksum = predict_batch(xs, profile, k)
        ref_y, ref_sum = row_major_reference(xs, profile, k)
        assert np.array_equal(y_star, ref_y)
        assert np.array_equal(ksum, ref_sum)
        assert ksum[0] > 0.0
        if m > 1:
            assert ksum[1] == 0.0
        for i in {0, m - 1, int(rng.integers(m))}:
            single = predict(tuple(xs[i]), profile, k)
            assert single.y_star == y_star[i]
            assert single.kernel_sum == ksum[i]
            assert single.y_hat == round_response(y_star[i], profile.level_count)

    def test_underflow_ties_and_mixed_rows(self):
        # records 0 and 2 share an allocation; (5,) is equidistant from (0,)
        # and (10,); at sigma2=1e-3 only the on-record rows keep weight
        profile = make_profile([((0.0,), 3), ((10.0,), 7), ((0.0,), 9)])
        xs = np.array([[5.0], [0.0], [10.0], [100.0], [-3.0]])
        k = KernelParams(1e-3)
        y_star, ksum = predict_batch(xs, profile, k)
        ref_y, ref_sum = row_major_reference(xs, profile, k)
        assert np.array_equal(y_star, ref_y)
        assert np.array_equal(ksum, ref_sum)
        assert list(ksum == 0.0) == [True, False, False, True, True]
        assert y_star[0] == 3.0  # tie between records 0 and 1 keeps record 0
        assert y_star[3] == 7.0
        assert y_star[4] == 3.0  # tie between records 0 and 2 keeps record 0


class TestChunkBoundaries:
    """predict_batch's record chunks against the row-major reference, bit for bit."""

    @staticmethod
    def check(n, m, p, seed, sigma2=300.0):
        rng = np.random.default_rng(seed)
        profile = make_profile(
            [(tuple(rng.uniform(0, 60, n)), int(rng.integers(1, 13))) for _ in range(p)],
            link_count=n,
        )
        xs = rng.uniform(0, 60, (m, n))
        k = KernelParams(sigma2)
        y_star, ksum = predict_batch(xs, profile, k)
        ref_y, ref_sum = row_major_reference(xs, profile, k)
        assert np.array_equal(y_star, ref_y)
        assert np.array_equal(ksum, ref_sum)
        # sigma2=1e-6 underflows every weight: the nearest-record fallback
        # then runs over the same chunks
        assert ksum.any() == (sigma2 > 1e-3)

    @pytest.mark.parametrize("sigma2", [300.0, 1e-6])
    @pytest.mark.parametrize("p", [9, 12, 13, 17])
    def test_records_span_three_or_more_chunks(self, p, sigma2):
        # k = 4 records per chunk; 13 and 17 end on a one-record chunk
        m = predictor_module._CHUNK // 4
        assert predictor_module._chunk_records(p, m) == 4
        self.check(2, m, p, seed=p, sigma2=sigma2)

    @pytest.mark.parametrize("sigma2", [300.0, 1e-6])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_one_record_chunks_around_chunk_size(self, offset, sigma2):
        m = predictor_module._CHUNK + offset
        assert predictor_module._chunk_records(5, m) == 1
        self.check(3, m, 5, seed=100 + offset, sigma2=sigma2)

    @pytest.mark.parametrize("offset", [0, 1])
    def test_two_or_one_record_chunks_at_half_chunk_size(self, offset):
        m = predictor_module._CHUNK // 2 + offset
        assert predictor_module._chunk_records(7, m) == 2 - offset
        self.check(1, m, 7, seed=200 + offset)

    def test_single_candidate_sums_records_in_order(self):
        # one candidate, one chunk of 12 records whose weights span many
        # magnitudes: a pairwise (axis-0) reduction rounds differently
        profile = make_profile(
            [((float(d),), r) for d, r in zip(range(0, 60, 5), [1, 12, 2, 11, 3, 10,
                                                                4, 9, 5, 8, 6, 7])],
            link_count=1,
        )
        xs = np.array([[0.3]])
        k = KernelParams(97.0)
        y_star, ksum = predict_batch(xs, profile, k)
        ref_y, ref_sum = row_major_reference(xs, profile, k)
        assert np.array_equal(y_star, ref_y)
        assert np.array_equal(ksum, ref_sum)


class TestRowIndependence:
    """A row's y* and kernel sum do not depend on the batch it is predicted in.

    Batches of up to _ACCUMULATE_MAX rows add each chunk with one
    np.add.accumulate below a carry row, wider ones row by row; both must
    give every row the bits it gets alone (a one-row batch) and inside a
    batch wide enough for the row loop. Batches of up to _STRIDED_MAX rows
    also read their per-link columns as a view, wider ones from a copy.
    """

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.integers(1, 3),
        p=st.integers(1, 700),
        m=st.integers(1, 2 * predictor_module._ACCUMULATE_MAX),
        chunk=st.sampled_from([None, 64, 700]),
        sigma2=st.sampled_from([1e-6, 0.5, 30.0, 300.0]),
        on_grid=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # p = 1; several chunks at the real _CHUNK; every weight underflows off the records
    @example(n=2, p=1, m=5, chunk=None, sigma2=30.0, on_grid=True, seed=1)
    @example(n=1, p=700, m=120, chunk=None, sigma2=300.0, on_grid=False, seed=2)
    @example(n=3, p=300, m=128, chunk=None, sigma2=30.0, on_grid=True, seed=3)
    @example(n=2, p=40, m=16, chunk=None, sigma2=1e-6, on_grid=False, seed=4)
    @example(n=3, p=50, m=17, chunk=None, sigma2=30.0, on_grid=False, seed=5)
    def test_rows_match_alone_and_in_a_wide_batch(self, n, p, m, chunk, sigma2, on_grid,
                                                   seed):
        rng = np.random.default_rng(seed)
        grid = SearchGrid(1.25, (10.0, 7.5, 5.0)[:n])
        counts = np.stack([rng.integers(0, c + 1, p) for c in grid.steps_per_link], axis=1)
        allocs = counts * grid.step
        if not on_grid:  # the computed path
            allocs = allocs + rng.uniform(0.0, 1.25, (p, n))
        profile = make_profile(
            [(tuple(a), int(r)) for a, r in zip(allocs, rng.integers(1, 13, p))], link_count=n)
        predictor = GrnnPredictor(KernelParams(sigma2))
        rows = rng.integers(0, grid.size, m)
        width = predictor_module._ACCUMULATE_MAX + 1 + int(rng.integers(0, 64))
        wide = np.concatenate([rows, rng.integers(0, grid.size, max(m, width) - m)])
        with pytest.MonkeyPatch.context() as patch:
            if chunk is not None:
                patch.setattr(predictor_module, "_CHUNK", chunk)
            y_star, ksum = predictor.predict_grid(grid, rows, profile)
            wide_y, wide_sum = predictor.predict_grid(grid, wide, profile)
            alone = [predictor.predict_grid(grid, rows[i:i + 1], profile) for i in range(m)]
        assert np.array_equal(y_star, wide_y[:m])
        assert np.array_equal(ksum, wide_sum[:m])
        assert np.array_equal(y_star, [y[0] for y, _ in alone])
        assert np.array_equal(ksum, [s[0] for _, s in alone])

    def test_examples_span_several_chunks(self):
        # the examples above at the real _CHUNK: 700 records in chunks of
        # 273, 300 in chunks of 256
        assert predictor_module._chunk_records(700, 120) == 273
        assert predictor_module._chunk_records(300, predictor_module._ACCUMULATE_MAX) == 256


class TestGridPredictions:
    """predict_grid on lattice records against the row-major reference, bit for bit."""

    @staticmethod
    def check(grid, rows, p, seed, sigma2):
        rng = np.random.default_rng(seed)
        counts = np.stack([rng.integers(0, c + 1, p) for c in grid.steps_per_link], axis=1)
        profile = make_profile(
            [(tuple(row * grid.step), int(rng.integers(1, 13))) for row in counts],
            link_count=grid.link_count,
        )
        y_star, ksum = GrnnPredictor(KernelParams(sigma2)).predict_grid(grid, rows, profile)
        ref_y, ref_sum = row_major_reference(grid.points()[rows], profile, KernelParams(sigma2))
        assert np.array_equal(y_star, ref_y)
        assert np.array_equal(ksum, ref_sum)
        return ksum

    @pytest.mark.parametrize("sigma2", [300.0, 200.0, 7.3, 0.5, 1e-6])
    @pytest.mark.parametrize("grid", [
        SearchGrid(1.25, (50.0,)), SearchGrid(0.5, (6.0, 4.0)),
        SearchGrid(2.5, (20.0, 10.0, 12.5)), SearchGrid(1.25, (50.0, 30.0)),
    ], ids=repr)
    def test_whole_grid_and_row_subsets(self, grid, sigma2):
        rng = np.random.default_rng(grid.size)
        for p in (1, 5, 31):
            ksum = self.check(grid, slice(None), p, seed=p, sigma2=sigma2)
            # sigma2=1e-6 keeps weight only on the records' own points: every
            # other row takes the nearest-record fallback
            if sigma2 < 1e-3:
                assert np.count_nonzero(ksum) <= p < grid.size
            rows = np.sort(rng.choice(grid.size, int(rng.integers(1, grid.size)), replace=False))
            self.check(grid, rows, p, seed=p + 1, sigma2=sigma2)

    @pytest.mark.parametrize("sigma2", [200.0, 1e-6])
    def test_chunk_layouts_on_the_stress_grid(self, sigma2):
        grid = SearchGrid(1.25, (50.0, 30.0, 30.0))
        # the whole grid is one-record chunks; a quarter-chunk of rows is
        # chunks of 4 records, ending on a one-record chunk for p = 13
        assert predictor_module._chunk_records(13, grid.size) == 1
        self.check(grid, slice(None), 5, seed=1, sigma2=sigma2)
        rows = grid.by_total_order()[:predictor_module._CHUNK // 4]
        assert predictor_module._chunk_records(13, len(rows)) == 4
        self.check(grid, rows, 13, seed=2, sigma2=sigma2)
        for rows in search_blocks(grid):
            self.check(grid, rows, 9, seed=len(rows), sigma2=sigma2)


class TestRounding:
    def test_half_up_at_target_boundary(self):
        # y* exactly a - 0.5 must round up to a
        assert round_response(6.5, 12) == 7
        assert round_response(6.499999999, 12) == 6

    def test_clamping(self):
        assert round_response(0.2, 12) == 1
        assert round_response(12.7, 12) == 12

    @given(st.floats(1.0, 12.0), st.integers(2, 12))
    def test_within_levels(self, y_star, level_count):
        assert 1 <= round_response(y_star, level_count) <= level_count


class TestConvexCombination:
    @settings(max_examples=200)
    @given(st.data())
    def test_y_star_within_response_range(self, data):
        n = data.draw(st.integers(1, 3))
        p = data.draw(st.integers(1, 12))
        records = [
            (
                tuple(data.draw(st.floats(0, 80)) for _ in range(n)),
                data.draw(st.integers(1, 12)),
            )
            for _ in range(p)
        ]
        sigma2 = data.draw(st.floats(50, 2000))
        x = tuple(data.draw(st.floats(0, 80)) for _ in range(n))
        profile = make_profile(records, link_count=n)
        pred = predict(x, profile, KernelParams(sigma2))
        responses = [r for _, r in records]
        assert min(responses) - 1e-9 <= pred.y_star <= max(responses) + 1e-9


class TestPermutation:
    def test_permuted_records_agree_to_reassociation(self):
        # summation runs in insertion order, so permuting records can move
        # y* only by float re-association noise
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = int(rng.integers(2, 20))
            records = [
                (tuple(rng.uniform(0, 60, 2)), int(rng.integers(1, 13)))
                for _ in range(p)
            ]
            profile = make_profile(records)
            perm = list(rng.permutation(p))
            shuffled = make_profile([records[i] for i in perm])
            k = KernelParams(float(rng.uniform(50, 2000)))
            x = tuple(rng.uniform(0, 60, 2))
            a = predict(x, profile, k).y_star
            b = predict(x, shuffled, k).y_star
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_same_order_is_bit_identical(self):
        records = [((3.0, 4.0), 2), ((10.0, 1.0), 9), ((7.5, 2.5), 5)]
        k = KernelParams(123.0)
        a = predict((5.0, 5.0), make_profile(records), k)
        b = predict((5.0, 5.0), make_profile(list(records)), k)
        assert a.y_star == b.y_star
        assert a.kernel_sum == b.kernel_sum


class TestVariationBound:
    def test_direct_substitution(self):
        assert variation_bound(11, 12, 11.0) == 1.0
        assert variation_bound(1, 12, 1.0) == 11.0
        assert variation_bound(4, 2, 4.0) == 0.25

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            variation_bound(3, 12, 0.0)
        with pytest.raises(ValueError):
            variation_bound(3, 12, -1.0)
        with pytest.raises(ValueError):
            variation_bound(3, 1, 2.0)
        with pytest.raises(ValueError):
            variation_bound(0, 12, 0.5)
        with pytest.raises(ValueError):
            # kernel sum cannot exceed the record count (weights <= 1)
            variation_bound(2, 12, 3.0)

    def test_append_respects_bound(self):
        # randomized spot check; the full 1000-event sweep runs in the
        # acceptance suite
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(1, 3))
            p = int(rng.integers(1, 25))
            records = [
                (tuple(rng.uniform(0, 60, n)), int(rng.integers(1, 13)))
                for _ in range(p)
            ]
            x = tuple(rng.uniform(0, 60, n))
            k = KernelParams(float(rng.uniform(50, 2000)))
            before = predict(x, make_profile(records, link_count=n), k)
            records.append((tuple(rng.uniform(0, 60, n)), int(rng.integers(1, 13))))
            after = predict(x, make_profile(records, link_count=n), k)
            bound = variation_bound(p + 1, 12, after.kernel_sum)
            assert abs(after.y_star - before.y_star) <= bound + 1e-9


def test_predictor_wrapper_matches_functions():
    profile = make_profile([((0.0,), 1), ((30.0,), 3)], level_count=3)
    k = KernelParams(100.0)
    wrapper = GrnnPredictor(k)
    y_star, kernel_sum = wrapper.predict_batch(np.array([[10.0]]), profile)
    expected = predict((10.0,), profile, k)
    assert (y_star[0], kernel_sum[0]) == (expected.y_star, expected.kernel_sum)


@pytest.mark.parametrize("stray", [(5.0, 7.5), (5.1, 7.5)], ids=["on_lattice", "off_lattice"])
def test_predict_grid_is_predict_batch_on_its_rows(stray, monkeypatch):
    """GrnnPredictor.predict_grid is one predict_batch call on its rows, on the lattice or off it."""
    calls = []

    def counting_batch(xs, *args):
        calls.append(len(xs))
        return predict_batch(xs, *args)

    monkeypatch.setattr(predictor_module, "predict_batch", counting_batch)
    grid = SearchGrid(2.5, (10.0, 7.5))
    profile = make_profile([((0.0, 2.5), 1), (stray, 9), ((10.0, 0.0), 4)])
    wrapper = GrnnPredictor(KernelParams(30.0))
    for rows in (slice(None), np.array([7, 0, 19, 3])):
        y_star, kernel_sum = wrapper.predict_grid(grid, rows, profile)
        ref_y, ref_sum = predict_batch(grid.points()[rows], profile, wrapper.kernel)
        assert np.array_equal(y_star, ref_y)
        assert np.array_equal(kernel_sum, ref_sum)
    assert calls == [grid.size, 4]


@pytest.mark.parametrize("predictor", [GrnnPredictor(), KnnPredictor(2)], ids=["grnn", "knn"])
def test_zero_candidates_give_two_empty_arrays(predictor):
    grid = SearchGrid(2.5, (10.0, 7.5))
    profile = make_profile([((0.0, 2.5), 1), ((5.0, 7.5), 9), ((10.0, 0.0), 4)])
    for y_star, kernel_sum in (predictor.predict_batch(np.empty((0, 2)), profile),
                               predictor.predict_grid(grid, np.array([], np.intp), profile)):
        assert y_star.shape == kernel_sum.shape == (0,)
        assert y_star.dtype == kernel_sum.dtype == np.float64
