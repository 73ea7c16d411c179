"""kNN predictor, unbounded growth, and agreement with the bounded loop."""

from __future__ import annotations

import copy
import gc
import pickle
import re
import time
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qosalloc import baselines as baselines_module
from qosalloc.baselines import KnnPredictor, PredictorKind
from qosalloc.controller import QosConfig, QosController
from qosalloc.predictor import (
    EmptyProfileError, GrnnPredictor, KernelParams, predict, round_response,
)
from qosalloc.profile import APPENDED, Profile, UpdateResult
from qosalloc.search import SearchGrid, search
from test_search import EXACT_GRIDS, full_grid_search, lattice_records


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

    @pytest.mark.parametrize("k", [2.5, True, False, "3", None, 0, -2, 3.0],
                             ids=["fraction", "true", "false", "string", "none", "zero",
                                  "negative", "integral_float"])
    def test_k_must_be_a_positive_integer(self, k):
        with pytest.raises(ValueError, match=rf"knn_k .*{re.escape(repr(k))}"):
            PredictorKind("knn", knn_k=k)
        with pytest.raises(ValueError, match=rf"k_neighbors .*{re.escape(repr(k))}"):
            KnnPredictor(k)

    def test_integer_types_are_taken_as_int(self):
        assert PredictorKind("knn", knn_k=np.int64(3)).knn_k == 3
        assert type(PredictorKind("knn", knn_k=np.int64(3)).knn_k) is int
        assert KnnPredictor(np.int32(4)).k_neighbors == 4


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


def knn_reference(xs, profile, k):
    """kNN by a full stable argsort of every row's squared distances.

    The definition KnnPredictor.predict_batch implements, kept here as the
    reference its grid path must match bit for bit.
    """
    allocs = profile.allocation_matrix()
    responses = profile.response_vector().astype(float)
    d2 = ((xs[:, None, :] - allocs[None, :, :]) ** 2).sum(axis=2)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return responses[order].mean(axis=1), np.full(xs.shape[0], float(k))


# where a stray record sits on the one link it leaves the grid on
STRAYS = ("off_grid", "outside_box", "beyond_max")


@st.composite
def tie_heavy_cases(draw):
    """(grid, profile, k, index rows): records mostly on the grid, many of them tied.

    Records repeat a few anchors or sit at the ends and the middle of each
    link, so many grid points are equidistant from many records. Steps 0.7
    and 0.1 are inexact in binary. A stray record leaves the grid on one
    link: between two grid values, one step outside the box, or past the
    maximum by a fraction of a step. An 8-link grid makes numpy sum each
    distance pairwise instead of in link order.
    """
    step = draw(st.sampled_from([0.5, 1.25, 2.5, 0.7, 0.1]))
    links = draw(st.sampled_from([1, 2, 3, 8]))
    most = 1 if links == 8 else 6
    grid = SearchGrid(step, tuple(c * step for c in draw(
        st.lists(st.integers(0, most), min_size=links, max_size=links))))
    steps = grid.steps_per_link
    symmetric = st.tuples(*[st.sampled_from(sorted({0, c // 2, c})) for c in steps])
    anywhere = st.tuples(*[st.integers(0, c) for c in steps])
    anchors = draw(st.lists(symmetric | anywhere, min_size=1, max_size=4))
    counts = draw(st.lists(st.sampled_from(anchors) | symmetric | anywhere,
                           min_size=1, max_size=24))
    records = []
    for count in counts:
        alloc = [c * step for c in count]
        stray = draw(st.sampled_from((None,) * 3 + STRAYS))
        if stray is not None:
            j = draw(st.integers(0, links - 1))
            alloc[j] = {"off_grid": (count[j] + 0.3) * step,
                        "outside_box": (steps[j] + 1) * step,
                        "beyond_max": grid.max_per_link[j] + 0.4 * step}[stray]
        records.append((tuple(alloc), draw(st.integers(1, 12))))
    profile = Profile(links, 12, None, records)
    k = draw(st.integers(1, profile.size))
    rows = np.array(draw(st.lists(st.integers(0, grid.size - 1), min_size=1, max_size=64)))
    return grid, profile, k, rows


# every point of an 8-link grid as a record, k = 170: numpy sums rows of 8
# or more values pairwise instead of in link order, and each distance here
# ties with dozens of others
EIGHT_LINKS = SearchGrid(0.3, (0.3,) * 8)
EIGHT_LINK_CASE = (EIGHT_LINKS, Profile(8, 12, None, [(tuple(x), 1 + i % 12) for i, x in
                                                       enumerate(EIGHT_LINKS.points())]),
                   170, np.arange(0, EIGHT_LINKS.size, 3))


def no_batch(*args):
    raise AssertionError("predict_grid called predict_batch")


class SpyBatch:
    """Wraps KnnPredictor.predict_batch and counts its calls."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = KnnPredictor.predict_batch

        def spy(predictor, xs, profile):
            self.calls += 1
            return original(predictor, xs, profile)

        monkeypatch.setattr(KnnPredictor, "predict_batch", spy)


def lattice_profile(grid, p, seed):
    return Profile(grid.link_count, 12, None,
                   lattice_records(np.random.default_rng(seed), grid, p))


class TestKnnOnTheGrid:
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_cases())
    @example(EIGHT_LINK_CASE)
    def test_predict_grid_equals_stable_argsort(self, case):
        grid, profile, k, rows = case
        predictor = KnnPredictor(k)
        predictor.predict_batch = no_batch
        for block in (slice(None), rows):
            expected = knn_reference(grid.points()[block], profile, k)
            got = predictor.predict_grid(grid, block, profile)
            assert np.array_equal(got[0], expected[0])
            assert np.array_equal(got[1], expected[1])

    def test_reference_grid_serves_without_predict_batch(self, monkeypatch):
        spy = SpyBatch(monkeypatch)
        grid = SearchGrid(1.25, (50.0, 30.0))
        profile = lattice_profile(grid, 40, seed=5)
        for k in (1, 5, 40):
            y_star, kernel_sum = KnnPredictor(k).predict_grid(grid, slice(None), profile)
            expected = knn_reference(grid.points(), profile, k)
            assert np.array_equal(y_star, expected[0])
            assert np.array_equal(kernel_sum, expected[1])
        assert spy.calls == 0

    @pytest.mark.parametrize("records, k, error", [
        ([], 1, EmptyProfileError), ([((0.0,), 2), ((1.25,), 3)], 3, ValueError),
    ], ids=["empty_profile", "k_above_size"])
    def test_errors_come_before_any_set(self, records, k, error, monkeypatch):
        profile = Profile(1, 12, None, records)
        predictor = KnnPredictor(k)
        with pytest.raises(error) as from_batch:
            predictor.predict_batch(np.zeros((1, 1)), profile)

        def no_work(*args):
            raise AssertionError("did work before checking the profile")

        monkeypatch.setattr(baselines_module, "_NeighborSets", no_work)
        monkeypatch.setattr(SearchGrid, "points", no_work)
        with pytest.raises(error) as from_grid:
            predictor.predict_grid(SearchGrid(1.25, (5.0,)), slice(None), profile)
        assert str(from_grid.value) == str(from_batch.value)
        assert predictor._kept == {}

    @pytest.mark.parametrize("k", [1, 100, 170, 256])
    def test_eight_links_are_served(self, k, monkeypatch):
        # numpy sums rows of 8 or more values pairwise: each distance here
        # ties with dozens of others, and the sets take the same floats
        grid = EIGHT_LINKS
        profile = EIGHT_LINK_CASE[1]
        monkeypatch.setattr(KnnPredictor, "predict_batch", no_batch)
        got = KnnPredictor(k).predict_grid(grid, slice(None), profile)
        expected = knn_reference(grid.points(), profile, k)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])

    @pytest.mark.parametrize("grid", [
        SearchGrid(0.7, (7.0,)), SearchGrid(0.7, (7.0, 4.2)), SearchGrid(0.1, (0.3,)),
    ], ids=repr)
    def test_inexact_steps_search_as_the_full_grid(self, grid, monkeypatch):
        rng = np.random.default_rng(7)
        profile = Profile(grid.link_count, 12, None, lattice_records(rng, grid, 6))
        spy = SpyBatch(monkeypatch)
        for predictor in (GrnnPredictor(KernelParams(3.0)), KnnPredictor(3)):
            expected = full_grid_search(grid, profile, predictor, 7)
            spy.calls = 0
            assert search(grid, profile, predictor, 7) == expected
        assert spy.calls == 0


def kept_sets(predictor, profile):
    """The neighbor sets predictor keeps for profile."""
    return predictor._kept[id(profile)].value


def same_bits(predictor, grid, rows, profile):
    """Whether predict_grid on rows gives predict_batch's bytes there."""
    got = predictor.predict_grid(grid, rows, profile)
    expected = predictor.predict_batch(grid.points()[rows], profile)
    return all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))


class TestNeighborSets:
    GRID = SearchGrid(1.25, (12.5, 10.0))  # 99 points

    def appended_records(self, rng, count):
        """Records, many at a few repeated anchors or at the grid's ends and middle.

        One in ten is anywhere in a box 1.2 times the grid's, mostly off it.
        """
        grid = self.GRID
        steps = grid.steps_per_link
        anchors = [(0, 0), (steps[0], steps[1]), (steps[0] // 2, steps[1] // 2), (3, 5)]
        records = []
        for _ in range(count):
            draw = rng.random()
            if draw < 0.1:
                alloc = tuple(rng.uniform(0.0, 1.2 * np.array(grid.max_per_link)))
            else:
                counts = (anchors[rng.integers(len(anchors))] if draw < 0.6
                          else [rng.integers(c + 1) for c in steps])
                alloc = tuple(float(c) * grid.step for c in counts)
            records.append((alloc, int(rng.integers(1, 13))))
        return records

    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_appends_merge_bit_for_bit(self, k):
        rng = np.random.default_rng(k)
        grid = self.GRID
        profile = Profile(2, 12, None, self.appended_records(rng, k))
        predictor = KnnPredictor(k)
        assert same_bits(predictor, grid, slice(None), profile)
        sets = kept_sets(predictor, profile)
        for alloc, response in self.appended_records(rng, 300):
            profile.update(alloc, response, target=7)
            assert same_bits(predictor, grid, slice(3, 80), profile)
            assert same_bits(predictor, grid, rng.permutation(grid.size), profile)
            allocs = profile.allocation_matrix()
            d2 = ((grid.points()[:, None, :] - allocs[None, :, :]) ** 2).sum(axis=2)
            assert np.array_equal(sets.index, np.argsort(d2, axis=1, kind="stable")[:, :k])
        # every append merged into the first call's sets
        assert kept_sets(predictor, profile) is sets
        assert len(predictor._kept[id(profile)].responses) == profile.size == k + 300

    @pytest.mark.parametrize("grid", EXACT_GRIDS, ids=repr)
    def test_sets_order_and_tie_as_the_distances_do(self, grid):
        rng = np.random.default_rng(grid.size)
        profile = lattice_profile(grid, 12, seed=grid.size)
        allocs, responses = profile.allocation_matrix(), profile.response_vector()
        d2 = ((grid.points()[:, None, :] - allocs[None, :, :]) ** 2).sum(axis=2)
        for k in (1, int(rng.integers(2, 12)), 12):
            sets = baselines_module._NeighborSets(grid.points(), k, allocs, responses)
            order = np.argsort(d2, axis=1, kind="stable")[:, :k]
            assert np.array_equal(sets.index, order)
            assert np.array_equal(sets.dist, np.take_along_axis(d2, order, axis=1))
            assert sets.sums.dtype == np.int64
            assert np.array_equal(sets.sums, responses[order].sum(axis=1))

    @pytest.mark.parametrize("split", [3, 4, 9, 20])
    def test_building_equals_merging_from_any_split(self, split):
        points = self.GRID.points()
        profile = Profile(2, 12, None, self.appended_records(np.random.default_rng(split), 20))
        allocs, responses = profile.allocation_matrix(), profile.response_vector()
        whole = baselines_module._NeighborSets(points, 3, allocs, responses)
        merged = baselines_module._NeighborSets(points, 3, allocs[:split], responses[:split])
        merged.merge(allocs, responses, split)
        for name in ("dist", "index", "sums"):
            assert np.array_equal(getattr(merged, name), getattr(whole, name))

    # records at 1, 2 and 3 on a 1-link grid, k = 3: at the origin their
    # squared distances are 1, 4 and 9, and the appended record's index is 3
    @pytest.mark.parametrize("alloc, origin_row", [
        (3.0, [0, 1, 2]), (2.0, [0, 1, 3]), (1.5, [0, 3, 1]), (0.0, [3, 0, 1]), (4.0, [0, 1, 2]),
    ], ids=["tied_with_the_last", "tied_inside", "between_off_grid", "nearest", "farther"])
    def test_a_merged_record_goes_after_its_ties(self, alloc, origin_row):
        grid = SearchGrid(1.0, (4.0,))
        profile = Profile(1, 12, None, [((1.0,), 2), ((2.0,), 5), ((3.0,), 11)])
        predictor = KnnPredictor(3)
        assert same_bits(predictor, grid, slice(None), profile)
        sets = kept_sets(predictor, profile)
        profile.append((alloc,), 7)
        assert same_bits(predictor, grid, slice(None), profile)
        assert kept_sets(predictor, profile) is sets
        assert sets.index[0].tolist() == origin_row
        assert sets.sums[0] == profile.response_vector()[origin_row].sum()

    @pytest.mark.parametrize("stray", STRAYS)
    def test_stray_appends_merge(self, stray):
        grid = self.GRID
        profile = lattice_profile(grid, 12, seed=8)
        predictor = KnnPredictor(5)
        assert same_bits(predictor, grid, slice(None), profile)
        sets = kept_sets(predictor, profile)
        alloc = {"off_grid": (1.3, 2.5), "outside_box": (2.5, 11.25),
                 "beyond_max": (12.5 + 0.4 * 1.25, 5.0)}[stray]
        profile.append(alloc, 12)
        assert same_bits(predictor, grid, np.random.default_rng(8).permutation(grid.size),
                         profile)
        assert kept_sets(predictor, profile) is sets
        assert len(predictor._kept[id(profile)].responses) == profile.size == 13

    @pytest.mark.parametrize("change", ["record", "response", "grid", "k"])
    def test_other_changes_rebuild(self, change):
        grid = self.GRID
        records = [((0.0, 0.0), 9), ((5.0, 2.5), 10), ((12.5, 10.0), 8), ((2.5, 7.5), 11)]
        profile = Profile(2, 12, 4, records)
        predictor = KnnPredictor(2)
        assert same_bits(predictor, grid, slice(None), profile)
        sets = kept_sets(predictor, profile)
        if change == "record":  # all records positive: the nearest one is evicted
            assert profile.update((3.75, 2.5), 10, target=7).index == 1
            assert profile.response_vector().tolist() == [9, 10, 8, 11]
        elif change == "response":  # a negative newcomer evicts the positive record under it
            assert profile.update((5.0, 2.5), 3, target=7).index == 1
            assert profile.allocation_matrix()[1].tolist() == [5.0, 2.5]
        elif change == "grid":
            grid = SearchGrid(1.25, (12.5, 10.0))
        else:
            predictor.k_neighbors = 3
        rows = np.random.default_rng(3).permutation(grid.size)
        assert same_bits(predictor, grid, rows, profile)
        rebuilt = kept_sets(predictor, profile)
        assert rebuilt is not sets
        assert same_bits(predictor, grid, slice(None), profile)
        assert kept_sets(predictor, profile) is rebuilt

    def test_one_predictor_serves_two_profiles(self):
        rng = np.random.default_rng(2)
        grid = self.GRID
        profiles = [Profile(2, 12, None, self.appended_records(rng, 5)) for _ in range(2)]
        predictor = KnnPredictor(4)
        for profile in profiles:
            assert same_bits(predictor, grid, slice(None), profile)
        sets = [kept_sets(predictor, profile) for profile in profiles]
        for alloc, response in self.appended_records(rng, 40):
            for profile in profiles:
                if rng.random() < 0.5:
                    profile.append(alloc, response)
                assert same_bits(predictor, grid, rng.permutation(grid.size), profile)
        assert [kept_sets(predictor, profile) for profile in profiles] == sets

    def test_sets_go_with_the_profile_or_the_predictor(self):
        grid = self.GRID
        profile = Profile(2, 12, None, self.appended_records(np.random.default_rng(4), 8))
        predictor = KnnPredictor(3)
        predictor.predict_grid(grid, slice(None), profile)
        other = KnnPredictor(3)
        other.predict_grid(grid, slice(None), profile)
        profile_ref, predictor_ref = weakref.ref(profile), weakref.ref(predictor)
        gc.disable()  # both must go by reference counting alone: no cycle holds them
        try:
            del predictor
            assert predictor_ref() is None
            assert len(other._kept) == 1
            del profile
            assert profile_ref() is None
            assert other._kept == {}
        finally:
            gc.enable()

    def test_copies_and_pickles_start_without_sets(self):
        grid = self.GRID
        profile = Profile(2, 12, None, self.appended_records(np.random.default_rng(5), 8))
        predictor = KnnPredictor(3)
        predictor.predict_grid(grid, slice(None), profile)
        for other in (pickle.loads(pickle.dumps(predictor)), copy.copy(predictor),
                      copy.deepcopy(predictor)):
            assert other.k_neighbors == 3 and other._kept == {}
            assert same_bits(other, grid, slice(None), profile)
        assert len(predictor._kept) == 1

    def test_sets_above_the_size_limit_are_not_kept(self, monkeypatch):
        grid = SearchGrid(1.25, (50.0, 30.0))  # 1,025 points
        monkeypatch.setattr(baselines_module, "_SETS_MAX", 5 * grid.size - 1)
        profile = lattice_profile(grid, 40, seed=6)
        spy = SpyBatch(monkeypatch)
        rows = np.random.default_rng(6).choice(grid.size, 300)
        for k in (5, 4):
            predictor = KnnPredictor(k)
            for block in (slice(None), slice(100, 400), rows):
                assert same_bits(predictor, grid, block, profile)
            assert len(predictor._kept) == (k == 4)
        assert spy.calls == 3 * 2  # same_bits' own calls only


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
            bounded.step(erab)
            unbounded.step(erab)
            a, b = bounded.current_allocation, unbounded.current_allocation
            if t <= 3:
                # bounded appends until p=5: epochs 1..3 update identically,
                # so allocations for epochs 2..4 match exactly
                assert a == b
            if a != b and divergence_epoch is None:
                divergence_epoch = t
        assert bounded.profile.size == 5
        assert unbounded.profile.size == 12
