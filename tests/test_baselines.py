"""kNN predictor, unbounded growth, and agreement with the bounded loop."""

from __future__ import annotations

import copy
import gc
import math
import pickle
import re
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
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


@st.composite
def tie_heavy_lattice_cases(draw):
    """(grid, profile, k, index rows): records on the lattice, many of them tied.

    Records repeat a few anchors or sit at the ends and the middle of each
    link, so many grid points are equidistant from many records.
    """
    step = draw(st.sampled_from([0.5, 1.25, 2.5]))
    steps = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
    grid = SearchGrid(step, tuple(c * step for c in steps))
    symmetric = st.tuples(*[st.sampled_from(sorted({0, c // 2, c})) for c in steps])
    anywhere = st.tuples(*[st.integers(0, c) for c in steps])
    anchors = draw(st.lists(symmetric | anywhere, min_size=1, max_size=4))
    counts = draw(st.lists(st.sampled_from(anchors) | symmetric | anywhere,
                           min_size=1, max_size=24))
    records = [(tuple(c * step for c in count), draw(st.integers(1, 12))) for count in counts]
    profile = Profile(len(steps), 12, None, records)
    k = draw(st.integers(1, profile.size))
    rows = np.array(draw(st.lists(st.integers(0, grid.size - 1), min_size=1, max_size=64)))
    return grid, profile, k, rows


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


class TestKnnOnTheLattice:
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_lattice_cases())
    def test_predict_grid_equals_stable_argsort(self, case):
        grid, profile, k, rows = case
        predictor = KnnPredictor(k)
        assert baselines_module._lattice_keys(grid, profile.allocation_matrix()) is not None
        for block in (slice(None), rows):
            expected = knn_reference(grid.points()[block], profile, k)
            got = predictor.predict_grid(grid, block, profile)
            assert np.array_equal(got[0], expected[0])
            assert np.array_equal(got[1], expected[1])

    def test_lattice_path_serves_without_predict_batch(self, monkeypatch):
        spy = SpyBatch(monkeypatch)
        grid = SearchGrid(1.25, (50.0, 30.0))
        profile = lattice_profile(grid, 40, seed=5)
        for k in (1, 5, 40):
            y_star, kernel_sum = KnnPredictor(k).predict_grid(grid, slice(None), profile)
            expected = knn_reference(grid.points(), profile, k)
            assert np.array_equal(y_star, expected[0])
            assert np.array_equal(kernel_sum, expected[1])
        assert spy.calls == 0

    @pytest.mark.parametrize("keys", [1, 39, 41, 2**14])
    def test_row_chunks_equal_stable_argsort(self, keys, monkeypatch):
        # 40 records: one row per chunk, one or two rows per chunk, and the
        # real chunk of 409 rows, which leaves a partial last chunk
        monkeypatch.setattr(baselines_module, "_KNN_KEYS", keys)
        grid = SearchGrid(1.25, (50.0, 30.0))
        profile = lattice_profile(grid, 40, seed=11)
        rows = np.random.default_rng(keys).choice(grid.size, 300)
        for k in (1, 7, 40):
            for block in (slice(None), rows):
                got = KnnPredictor(k).predict_grid(grid, block, profile)
                expected = knn_reference(grid.points()[block], profile, k)
                assert np.array_equal(got[0], expected[0])
                assert np.array_equal(got[1], expected[1])

    @pytest.mark.parametrize("records, k, error", [
        ([], 1, EmptyProfileError), ([((0.0,), 2), ((1.25,), 3)], 3, ValueError),
    ], ids=["empty_profile", "k_above_size"])
    def test_errors_come_before_any_table(self, records, k, error, monkeypatch):
        profile = Profile(1, 12, None, records)
        predictor = KnnPredictor(k)
        with pytest.raises(error) as from_batch:
            predictor.predict_batch(np.zeros((1, 1)), profile)

        def no_table(*args):
            raise AssertionError("read a grid table before checking the profile")

        for name in ("_lattice_keys", "_lattice"):
            monkeypatch.setattr(baselines_module, name, no_table)
        monkeypatch.setattr(SearchGrid, "points", no_table)
        with pytest.raises(error) as from_grid:
            predictor.predict_grid(SearchGrid(1.25, (5.0,)), slice(None), profile)
        assert str(from_grid.value) == str(from_batch.value)

    @pytest.mark.parametrize("grid, stray", [
        (SearchGrid(1.25, (50.0, 30.0)), (1.3, 2.5)),
        (SearchGrid(0.7, (7.0, 4.2)), None),
    ], ids=["off_lattice_record", "inexact_step"])
    def test_falls_back_to_predict_batch(self, grid, stray, monkeypatch):
        monkeypatch.setattr(baselines_module, "_LATTICES", weakref.WeakKeyDictionary())
        profile = lattice_profile(grid, 12, seed=9)
        if stray is not None:
            profile.update(stray, 12, target=7)
        spy = SpyBatch(monkeypatch)
        rows = np.arange(0, grid.size, 3)
        for block in (slice(None), rows):
            got = KnnPredictor(5).predict_grid(grid, block, profile)
            expected = knn_reference(grid.points()[block], profile, 5)
            assert np.array_equal(got[0], expected[0])
        assert spy.calls == 2
        if stray is None:
            assert baselines_module._lattice(grid) is None
        else:  # the ranks are built only for a profile they can serve
            assert grid not in baselines_module._LATTICES

    @pytest.mark.parametrize("k", [1, 100, 170, 256])
    def test_eight_links_fall_back(self, k):
        # numpy sums rows of 8 or more values pairwise: on this grid its
        # distances hold ties that link-order sums do not, and ranks built
        # from those sums would pick other records for k in 164..218
        grid = SearchGrid(0.3, (0.3,) * 8)
        assert baselines_module._lattice(grid) is None
        profile = Profile(8, 12, None,
                          [(tuple(x), 1 + i % 12) for i, x in enumerate(grid.points())])
        got = KnnPredictor(k).predict_grid(grid, slice(None), profile)
        assert np.array_equal(got[0], knn_reference(grid.points(), profile, k)[0])


def same_bits(predictor, grid, rows, profile):
    """Whether predict_grid on rows gives predict_batch's bytes there."""
    got = predictor.predict_grid(grid, rows, profile)
    expected = predictor.predict_batch(grid.points()[rows], profile)
    return all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))


class TestNeighborSets:
    GRID = SearchGrid(1.25, (12.5, 10.0))  # 99 points

    def appended_records(self, rng, count):
        """Lattice records, many at a few repeated anchors or at the grid's ends and middle."""
        steps = self.GRID.steps_per_link
        anchors = [(0, 0), (steps[0], steps[1]), (steps[0] // 2, steps[1] // 2), (3, 5)]
        records = []
        for _ in range(count):
            if rng.random() < 0.6:
                counts = anchors[rng.integers(len(anchors))]
            else:
                counts = [rng.integers(c + 1) for c in steps]
            records.append((tuple(float(c) * self.GRID.step for c in counts),
                            int(rng.integers(1, 13))))
        return records

    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_appends_merge_bit_for_bit(self, k):
        rng = np.random.default_rng(k)
        grid = self.GRID
        profile = Profile(2, 12, None, self.appended_records(rng, k))
        predictor = KnnPredictor(k)
        assert same_bits(predictor, grid, slice(None), profile)
        sets = predictor._sets[id(profile)]
        for alloc, response in self.appended_records(rng, 300):
            profile.update(alloc, response, target=7)
            assert same_bits(predictor, grid, slice(3, 80), profile)
            assert same_bits(predictor, grid, rng.permutation(grid.size), profile)
        # every append merged into the first call's sets
        assert predictor._sets[id(profile)] is sets
        assert len(sets.responses) == profile.size == k + 300
        assert np.array_equal(sets.worst, sets.keys.max(axis=1))

    @pytest.mark.parametrize("change", ["record", "response", "grid", "k", "off_lattice"])
    def test_other_changes_rebuild(self, change):
        grid = self.GRID
        records = [((0.0, 0.0), 9), ((5.0, 2.5), 10), ((12.5, 10.0), 8), ((2.5, 7.5), 11)]
        profile = Profile(2, 12, 4, records)
        predictor = KnnPredictor(2)
        assert same_bits(predictor, grid, slice(None), profile)
        sets = predictor._sets[id(profile)]
        if change == "record":  # all records positive: the nearest one is evicted
            assert profile.update((3.75, 2.5), 10, target=7).index == 1
            assert profile.response_vector().tolist() == [9, 10, 8, 11]
        elif change == "response":  # a negative newcomer evicts the positive record under it
            assert profile.update((5.0, 2.5), 3, target=7).index == 1
            assert profile.allocation_matrix()[1].tolist() == [5.0, 2.5]
        elif change == "grid":
            grid = SearchGrid(1.25, (12.5, 10.0))
        elif change == "k":
            predictor.k_neighbors = 3
        else:
            profile = Profile(2, 12, None, records)
            assert same_bits(predictor, grid, slice(None), profile)
            sets = predictor._sets[id(profile)]
            profile.append((1.3, 0.0), 4)
        rows = np.random.default_rng(3).permutation(grid.size)
        assert same_bits(predictor, grid, rows, profile)
        if change == "off_lattice":
            assert id(profile) not in predictor._sets
        else:
            rebuilt = predictor._sets[id(profile)]
            assert rebuilt is not sets
            assert same_bits(predictor, grid, slice(None), profile)
            assert predictor._sets[id(profile)] is rebuilt

    def test_one_predictor_serves_two_profiles(self):
        rng = np.random.default_rng(2)
        grid = self.GRID
        profiles = [Profile(2, 12, None, self.appended_records(rng, 5)) for _ in range(2)]
        predictor = KnnPredictor(4)
        for profile in profiles:
            assert same_bits(predictor, grid, slice(None), profile)
        sets = [predictor._sets[id(profile)] for profile in profiles]
        for alloc, response in self.appended_records(rng, 40):
            for profile in profiles:
                if rng.random() < 0.5:
                    profile.append(alloc, response)
                assert same_bits(predictor, grid, rng.permutation(grid.size), profile)
        assert [predictor._sets[id(profile)] for profile in profiles] == sets

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
            assert len(other._sets) == 1
            del profile
            assert profile_ref() is None
            assert other._sets == {}
        finally:
            gc.enable()

    def test_copies_and_pickles_start_without_sets(self):
        grid = self.GRID
        profile = Profile(2, 12, None, self.appended_records(np.random.default_rng(5), 8))
        predictor = KnnPredictor(3)
        predictor.predict_grid(grid, slice(None), profile)
        for other in (pickle.loads(pickle.dumps(predictor)), copy.copy(predictor),
                      copy.deepcopy(predictor)):
            assert other.k_neighbors == 3 and other._sets == {}
            assert same_bits(other, grid, slice(None), profile)
        assert len(predictor._sets) == 1

    def test_sets_above_the_key_limit_are_not_kept(self, monkeypatch):
        monkeypatch.setattr(baselines_module, "_LATTICES", weakref.WeakKeyDictionary())
        grid = SearchGrid(1.25, (50.0, 30.0))  # 1,025 points, 3,969 ranks
        monkeypatch.setattr(baselines_module, "_TABLE_MAX", 5 * grid.size - 1)
        profile = lattice_profile(grid, 40, seed=6)
        spy = SpyBatch(monkeypatch)
        rows = np.random.default_rng(6).choice(grid.size, 300)
        for k in (5, 4):
            predictor = KnnPredictor(k)
            for block in (slice(None), slice(100, 400), rows):
                assert same_bits(predictor, grid, block, profile)
            assert len(predictor._sets) == (k == 4)
        assert spy.calls == 3 * 2  # same_bits' own calls only


class TestDistanceRanks:
    @pytest.mark.parametrize("grid", EXACT_GRIDS, ids=repr)
    def test_ranks_order_and_tie_as_the_distances_do(self, grid):
        rng = np.random.default_rng(grid.size)
        allocs = np.array([a for a, _ in lattice_records(rng, grid, 12)])
        ranks, offsets, bases = baselines_module._lattice_keys(grid, allocs)
        assert ranks.dtype == np.int64
        assert ranks.size == math.prod(2 * c + 1 for c in grid.steps_per_link)
        assert not ranks.flags.writeable
        got = ranks[offsets[:, None] + bases[None, :]]
        d2 = ((grid.points()[:, None, :] - allocs[None, :, :]) ** 2).sum(axis=2)
        # equal dense rankings: every order and every tie is kept
        assert np.array_equal(np.unique(got, return_inverse=True)[1],
                              np.unique(d2, return_inverse=True)[1])

    def test_reference_grid_ranks_are_cached(self, monkeypatch):
        monkeypatch.setattr(baselines_module, "_LATTICES", weakref.WeakKeyDictionary())
        grid = SearchGrid(1.25, (50.0, 30.0))
        on_lattice = np.array([[0.0, 0.0], [50.0, 30.0]])
        # built lazily, and only for records the ranks can serve
        assert baselines_module._lattice_keys(grid, np.array([[1.3, 0.0]])) is None
        assert grid not in baselines_module._LATTICES
        ranks, offsets, _ = baselines_module._lattice_keys(grid, on_lattice)
        assert ranks.size == 3969 and ranks.nbytes == 31_752
        assert offsets.shape == (grid.size,) and not offsets.flags.writeable
        # the same arrays for the grid's lifetime, whatever the records
        again = baselines_module._lattice_keys(grid, on_lattice[::-1])
        assert again[0] is ranks and again[1] is offsets
        # the cache is not a field: equality and hashing are unchanged
        assert grid == SearchGrid(1.25, (50.0, 30.0))
        assert hash(grid) == hash(SearchGrid(1.25, (50.0, 30.0)))
        # and it goes with the grid
        del grid, ranks, offsets, again
        gc.collect()
        assert len(baselines_module._LATTICES) == 0

    def test_record_bases(self):
        grid = SearchGrid(1.25, (50.0, 30.0))

        def bases(allocs):
            keys = baselines_module._lattice_keys(grid, np.array(allocs))
            return None if keys is None else keys[2]

        np.testing.assert_array_equal(
            bases([[0.0, 0.0], [50.0, 30.0], [1.25, 2.5], [-0.0, 30.0]]),
            [40 * 49 + 24, 0, 39 * 49 + 22, 40 * 49])
        assert bases([[1.3, 0.0]]) is None  # off the lattice
        assert bases([[0.0, 31.25]]) is None  # outside the box
        assert bases([[0.0, 1.25 + 1e-15]]) is None

    @pytest.mark.parametrize("grid", [
        SearchGrid(0.7, (7.0,)), SearchGrid(0.7, (7.0, 4.2)), SearchGrid(0.1, (0.3,)),
    ], ids=repr)
    def test_inexact_step_has_no_ranks(self, grid):
        assert baselines_module._lattice(grid) is None
        values = np.arange(max(grid.steps_per_link) + 1) * grid.step
        squares = np.square(values[None, :] - values[:, None])
        deltas = np.subtract.outer(np.arange(len(values)), np.arange(len(values)))
        # some pair (c, r) misses the value its offset c - r has elsewhere
        assert any(len(set(squares[deltas == d].tolist())) > 1 for d in range(len(values)))
        rng = np.random.default_rng(7)
        profile = Profile(grid.link_count, 12, None, lattice_records(rng, grid, 6))
        for predictor in (GrnnPredictor(KernelParams(3.0)), KnnPredictor(3)):
            assert search(grid, profile, predictor, 7) == full_grid_search(
                grid, profile, predictor, 7)

    def test_size_limit(self, monkeypatch):
        monkeypatch.setattr(baselines_module, "_TABLE_MAX", 41**2)
        # (c, r) pairs in the check, then rank entries
        assert baselines_module._lattice(SearchGrid(1.25, (50.0,))) is not None  # 41**2, 81
        assert baselines_module._lattice(SearchGrid(1.25, (51.25,))) is None  # 42**2, 83
        assert baselines_module._lattice(SearchGrid(1.25, (50.0, 25.0))) is None  # 41**2, 81 * 41

    def test_no_ranks_off_the_exact_lattice(self, monkeypatch):
        lattice = baselines_module._lattice
        assert lattice(SearchGrid(0.7, (7.0, 4.2))) is None
        assert lattice(SearchGrid(0.3, (0.3,) * 8)) is None  # numpy sums pairwise
        assert lattice(SearchGrid(0.3, (0.3,) * 7)) is not None
        monkeypatch.setattr(baselines_module, "_TABLE_MAX", 41**2)
        assert lattice(SearchGrid(1.25, (50.0,))) is not None
        assert lattice(SearchGrid(1.25, (50.0, 25.0))) is None


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
