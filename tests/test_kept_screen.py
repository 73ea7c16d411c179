"""The kernel-regression screen's kept product: soundness under churn, lifecycle, memory.

On grids of g >= predictor._KEEP_MIN_POINTS points, for profiles of at
least _KEEP_MIN_RECORDS (1 + _KEEP_MIN_POINTS / g) records, a
GrnnPredictor keeps each profile's screen product between calls and
updates it slot by slot. Most tests here lower both constants to 0 so that
the kept product serves small grids.
"""

from __future__ import annotations

import copy
import gc
import importlib
import pickle
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from qosalloc.predictor import GrnnPredictor, KernelParams
from qosalloc.profile import APPENDED, REPLACED, REPLACED_FALLBACK, Profile
from qosalloc.search import SearchGrid, search
from test_search import full_grid_search, lattice_records

predictor_module = importlib.import_module("qosalloc.predictor")

GRID = SearchGrid(1.25, (6.25, 5.0, 3.75))  # 6 x 5 x 4 = 120 points
STRESS_GRID = SearchGrid(1.25, (50.0, 30.0, 30.0))  # 25,625 points


@pytest.fixture
def kept_everywhere(monkeypatch):
    monkeypatch.setattr(predictor_module, "_KEEP_MIN_POINTS", 0)
    monkeypatch.setattr(predictor_module, "_KEEP_MIN_RECORDS", 0)


def spy(monkeypatch, name: str) -> list:
    """Results of every call of _KeptScreen's method name (None for __init__)."""
    calls = []
    cls = predictor_module._KeptScreen
    method = getattr(cls, name)

    def counting(self, *args):
        result = method(self, *args)
        calls.append(result)
        return result

    monkeypatch.setattr(cls, name, counting)
    return calls


def kept(predictor, profile):
    """The screen product predictor keeps for profile."""
    return predictor._kept[id(profile)].value


def assert_sound(predictor, grid, profile):
    """Every interval holds predict_grid's y* at every grid point."""
    lo, hi = predictor.predict_bounds(grid, profile)
    y_star, _ = predictor.predict_grid(grid, slice(None), profile)
    assert np.all((lo <= y_star) & (y_star <= hi))


def far_record(rng, grid):
    """An allocation anywhere in a box 1.2 times the grid's, mostly off it."""
    return tuple(rng.uniform(0.0, 1.2 * np.array(grid.max_per_link)))


def test_intervals_hold_under_churn(kept_everywhere, monkeypatch):
    rng = np.random.default_rng(11)
    grid = GRID
    bounded = Profile(3, 12, 16, lattice_records(rng, grid, 16))
    unbounded = Profile(3, 12, None, lattice_records(rng, grid, 4))
    predictor = GrnnPredictor(KernelParams(0.6))
    built, updated = spy(monkeypatch, "__init__"), spy(monkeypatch, "update")
    kinds = Counter()
    for step in range(1200):
        if step % 6 == 0:  # an append to the unbounded profile
            profile = unbounded
            alloc, response = lattice_records(rng, grid, 1)[0]
            kinds[profile.update(alloc, response, target=7).action] += 1
        else:
            profile = bounded
            allocs, responses = profile.allocation_matrix(), profile.response_vector()
            if step % 6 == 1:  # with target 1 every record is positive: a fallback
                i = int(rng.integers(profile.size))
                before = (allocs.copy(), responses.copy())
                kinds[profile.update(allocs[i], responses[i], target=1).action] += 1
                # the nearest record is one at the same allocation: an identical
                # rewrite when it is record i's first duplicate
                kinds["identical"] += (np.array_equal(before[0], allocs)
                                       and np.array_equal(before[1], responses))
            elif step % 6 == 2 and np.count_nonzero(responses == responses.max()) == 1:
                # the only positive record at target max: a negative newcomer
                # far away evicts it, with the kernel sum it dominated
                top = int(responses.argmax())
                on_top = (grid.points() == allocs[top]).all(axis=1)
                weights = np.exp(-((grid.points()[on_top, None] - allocs) ** 2).sum(-1) / 0.6)
                result = profile.update(far_record(rng, grid), 1, target=int(responses.max()))
                assert result.index == top
                kinds["dominant"] += bool(on_top.any() and weights[0, top] > 0.5 * weights.sum())
            else:
                alloc = far_record(rng, grid) if rng.random() < 0.2 else \
                    lattice_records(rng, grid, 1)[0][0]
                kinds[profile.update(alloc, int(rng.integers(1, 13)), target=7).action] += 1
            if step % 97 == 0:  # many slots at once: more columns than a rebuild's
                for alloc, response in lattice_records(rng, grid, 9):
                    profile.update(alloc, response, target=7)
        assert_sound(predictor, grid, profile)
        target = (3, 7, 11)[step % 3]
        assert search(grid, profile, predictor, target) == \
            full_grid_search(grid, profile, predictor, target)
    assert kinds[APPENDED] == 200 and kinds[REPLACED] > 300 and kinds[REPLACED_FALLBACK] > 100
    assert kinds["identical"] > 10 and kinds["dominant"] > 10
    # the updates served most calls; rebuilds came from the policy
    assert len(updated) > 900
    assert 2 < len(built) < 150


def test_error_bound_forces_a_rebuild(kept_everywhere, monkeypatch):
    grid = SearchGrid(1.25, (10.0, 10.0, 10.0))  # 729 points
    # record 0 alone at the origin holds nearly all of its kernel sum and the
    # only top response; the others lie at the far corner
    records = [((0.0, 0.0, 0.0), 12)] + [((10.0, 10.0, 10.0 - 1.25 * i), 3) for i in range(5)]
    profile = Profile(3, 12, 6, records)
    predictor = GrnnPredictor(KernelParams(1.0))
    built, updated = spy(monkeypatch, "__init__"), spy(monkeypatch, "update")
    counted = spy(monkeypatch, "bounds")
    assert_sound(predictor, grid, profile)
    first = kept(predictor, profile)
    # a newcomer that leaves the origin's kernel sum alone: updated, not rebuilt
    assert profile.update((10.0, 10.0, 2.5), 8, target=7).index == 5
    assert_sound(predictor, grid, profile)
    assert kept(predictor, profile) is first and first.updates == 1
    assert len(built) == 1 and [c[2] for c in counted] == [0, 0]
    # a negative newcomer evicts record 0: the origin's kernel sum falls from
    # 1 to about exp(-300), far below what the product's error bound allows
    assert profile.update((10.0, 0.0, 10.0), 1, target=12).index == 0
    assert_sound(predictor, grid, profile)
    assert len(updated) == 2 and len(built) == 2
    assert counted[2][2] > 0 and counted[3][2] == 0  # infinite by the bound, then rebuilt
    rebuilt = kept(predictor, profile)
    assert rebuilt is not first and rebuilt.updates == 0
    lo, _ = predictor.predict_bounds(grid, profile)
    assert np.isfinite(lo).all()
    assert search(grid, profile, predictor, 3) == full_grid_search(grid, profile, predictor, 3)


def test_a_sum_that_truly_falls_below_the_floor_forces_no_rebuild(kept_everywhere, monkeypatch):
    grid = SearchGrid(1.25, (5.0, 5.0, 5.0))  # 125 points
    # record 0, off the grid, alone gives (5, 0, 0) a kernel sum of about
    # exp(-608), above the screen's floor; every other point's sum is
    # below it or comes from the other records
    others = [(0.0, 5.0, 5.0), (0.0, 5.0, 3.75), (0.0, 3.75, 5.0), (1.25, 5.0, 5.0)]
    records = [((12.8, 0.0, 0.0), 12)] + [(alloc, 3) for alloc in others]
    profile = Profile(3, 12, 5, records)
    predictor = GrnnPredictor(KernelParams(0.1))
    built, updated = spy(monkeypatch, "__init__"), spy(monkeypatch, "update")
    corner = 4 * 25  # the row of (5, 0, 0)
    lo, _ = predictor.predict_bounds(grid, profile)
    assert np.isfinite(lo[corner])
    # its replacement lies on another record: (5, 0, 0) keeps no sum a fresh
    # screen could see, so its infinite interval is no reason to rebuild
    assert profile.update((0.0, 5.0, 5.0), 1, target=12).index == 0
    lo, _ = predictor.predict_bounds(grid, profile)
    assert lo[corner] == -np.inf and len(built) == 1 and len(updated) == 1
    assert_sound(predictor, grid, profile)
    for target in (2, 12):
        assert search(grid, profile, predictor, target) == \
            full_grid_search(grid, profile, predictor, target)
    assert len(built) == 1


def test_error_bound_twice_in_a_row_screens_anew(kept_everywhere, monkeypatch):
    monkeypatch.setattr(predictor_module, "_REBUILD_EVERY", 3)
    grid = SearchGrid(1.25, (10.0, 10.0, 10.0))
    records = [((0.0, 0.0, 0.0), 12)] + [((10.0, 10.0, 10.0 - 1.25 * i), 3) for i in range(5)]
    profile = Profile(3, 12, 6, records)
    predictor = GrnnPredictor(KernelParams(1.0))
    built, updated = spy(monkeypatch, "__init__"), spy(monkeypatch, "update")
    counted = spy(monkeypatch, "bounds")
    assert_sound(predictor, grid, profile)
    # record 0 goes, the error bound forces a rebuild; its newcomer alone
    # holds the kernel sum at (10, 0, 10)
    assert profile.update((10.0, 0.0, 10.0), 1, target=12).index == 0
    assert_sound(predictor, grid, profile)
    assert len(built) == 2 and len(updated) == 1 and kept(predictor, profile).bounded
    # the next update takes that newcomer out: the bound fails again, and the
    # profile is screened anew instead of rebuilt
    assert profile.update((10.0, 0.0, 0.0), 12, target=12).index == 0
    assert_sound(predictor, grid, profile)
    assert len(built) == 2 and len(updated) == 2 and counted[-1][2] > 0
    assert kept(predictor, profile) == 3
    # the next three calls screen anew too, and the fourth rebuilds
    for call in range(4):
        target = (3, 12)[call % 2]
        assert search(grid, profile, predictor, target) == \
            full_grid_search(grid, profile, predictor, target)
        assert len(built) == 2 + (call == 3)
    assert isinstance(kept(predictor, profile), predictor_module._KeptScreen)
    assert not kept(predictor, profile).bounded


def test_small_sigma2_updates_serve_a_stress_size_grid(monkeypatch):
    # the stress benchmark's grid and record count with a kernel 20 times
    # narrower: the error bound forces no rebuild, updates serve the calls
    grid = STRESS_GRID
    rng = np.random.default_rng(10)
    profile = Profile(3, 12, 128, lattice_records(rng, grid, 128))
    predictor = GrnnPredictor(KernelParams(10.0))
    built, updated = spy(monkeypatch, "__init__"), spy(monkeypatch, "update")
    rows = rng.choice(grid.size, 512, replace=False)
    for alloc, response in lattice_records(rng, grid, 60):
        profile.update(alloc, response, target=7)
        lo, hi = predictor.predict_bounds(grid, profile)
        y_star, _ = predictor.predict_grid(grid, rows, profile)
        assert np.all((lo[rows] <= y_star) & (y_star <= hi[rows]))
    assert len(built) == 1 and len(updated) == 59


def test_periodic_and_costly_updates_rebuild(kept_everywhere, monkeypatch):
    rng = np.random.default_rng(3)
    monkeypatch.setattr(predictor_module, "_REBUILD_EVERY", 4)
    profile = Profile(3, 12, 8, lattice_records(rng, GRID, 8))
    predictor = GrnnPredictor(KernelParams(20.0))
    built = spy(monkeypatch, "__init__")
    assert_sound(predictor, GRID, profile)
    for alloc, response in lattice_records(rng, GRID, 30):
        profile.update(alloc, response, target=7)
        entry, before = predictor._kept[id(profile)], len(built)
        changed = ((profile.allocation_matrix() != entry.allocs).any(axis=1)
                   | (profile.response_vector() != entry.responses)).any()
        updates = entry.value.updates
        assert_sound(predictor, GRID, profile)
        # after _REBUILD_EVERY updates the next change rebuilds
        rebuilt = bool(changed) and updates == 4
        assert len(built) == before + rebuilt
        assert kept(predictor, profile).updates == (0 if rebuilt else updates + bool(changed))
    # four replaced slots take eight columns, the records' count: a rebuild
    before = len(built)
    for alloc, response in lattice_records(rng, GRID, 40):
        profile.update(alloc, response, target=7)
    changed = np.count_nonzero((profile.allocation_matrix() != predictor._kept[id(profile)].allocs)
                               .any(axis=1))
    assert changed >= 4
    assert_sound(predictor, GRID, profile)
    assert len(built) == before + 1


def test_small_chunks_give_the_same_products(kept_everywhere, monkeypatch):
    # rebuilds and updates of one row of F, or a few, at a time against
    # whole products: the same bound arrays, and products equal but for the
    # rounding of their different sums
    rng = np.random.default_rng(12)
    records = lattice_records(rng, GRID, 10)
    updates = lattice_records(rng, GRID, 40)
    screens = []
    for chunk in (predictor_module._KEEP_CHUNK, 8):
        monkeypatch.setattr(predictor_module, "_KEEP_CHUNK", chunk)
        profile = Profile(3, 12, 10, records)
        predictor = GrnnPredictor(KernelParams(2.0))
        for step, (alloc, response) in enumerate(updates):
            profile.update(alloc, response, target=7)
            if step % 7 == 0:  # three slots at once
                for alloc, response in updates[step + 1:step + 3]:
                    profile.update(alloc, response, target=7)
            assert_sound(predictor, GRID, profile)
        screens.append(kept(predictor, profile))
    whole, small = screens
    assert whole.updates == small.updates > 30
    assert np.array_equal(whole.taken, small.taken) and np.array_equal(whole.peak, small.peak)
    assert whole.peak.min() > 0.0
    np.testing.assert_allclose(small.out, whole.out, rtol=1e-13, atol=1e-13 * whole.out.max())


def test_one_predictor_keeps_two_profiles(kept_everywhere, monkeypatch):
    # as run_scenario serves every service of a scenario with one predictor
    rng = np.random.default_rng(4)
    profiles = [Profile(3, 12, 10, lattice_records(rng, GRID, 10)) for _ in range(2)]
    predictor = GrnnPredictor(KernelParams(20.0))
    built, updated = spy(monkeypatch, "__init__"), spy(monkeypatch, "update")
    for profile in profiles:
        assert_sound(predictor, GRID, profile)
    screens = [kept(predictor, profile) for profile in profiles]
    for _ in range(30):
        for profile in profiles:
            alloc, response = lattice_records(rng, GRID, 1)[0]
            profile.update(alloc, response, target=7)
            assert_sound(predictor, GRID, profile)
            assert search(GRID, profile, predictor, 7) == \
                full_grid_search(GRID, profile, predictor, 7)
    assert [kept(predictor, profile) for profile in profiles] == screens
    assert len(built) == 2 and len(updated) > 50


def test_another_grid_object_rebuilds(kept_everywhere, monkeypatch):
    rng = np.random.default_rng(5)
    profile = Profile(3, 12, 10, lattice_records(rng, GRID, 10))
    predictor = GrnnPredictor(KernelParams(20.0))
    built = spy(monkeypatch, "__init__")
    assert_sound(predictor, GRID, profile)
    first = kept(predictor, profile)
    equal = SearchGrid(GRID.step, GRID.max_per_link)
    assert equal == GRID and equal is not GRID
    for grid in (equal, SearchGrid(1.25, (3.75, 6.25, 5.0)), GRID):
        assert_sound(predictor, grid, profile)
        assert search(grid, profile, predictor, 7) == full_grid_search(grid, profile, predictor, 7)
    assert len(built) == 4 and kept(predictor, profile) is not first


def test_another_kernel_width_rebuilds(kept_everywhere, monkeypatch):
    rng = np.random.default_rng(6)
    profile = Profile(3, 12, 10, lattice_records(rng, GRID, 10))
    predictor = GrnnPredictor(KernelParams(20.0))
    built = spy(monkeypatch, "__init__")
    assert_sound(predictor, GRID, profile)
    first = kept(predictor, profile)
    predictor.kernel = KernelParams(20.0)  # equal: the product stays
    assert_sound(predictor, GRID, profile)
    assert kept(predictor, profile) is first and len(built) == 1
    predictor.kernel = KernelParams(3.0)
    assert_sound(predictor, GRID, profile)
    assert search(GRID, profile, predictor, 7) == full_grid_search(GRID, profile, predictor, 7)
    assert kept(predictor, profile) is not first and len(built) == 2


def test_copies_and_pickles_start_without_products(kept_everywhere):
    rng = np.random.default_rng(7)
    profile = Profile(3, 12, 10, lattice_records(rng, GRID, 10))
    predictor = GrnnPredictor(KernelParams(20.0))
    assert_sound(predictor, GRID, profile)
    for other in (copy.copy(predictor), copy.deepcopy(predictor),
                  pickle.loads(pickle.dumps(predictor))):
        assert other._kept == {} and other.kernel == predictor.kernel
        assert_sound(other, GRID, profile)
        assert len(other._kept) == 1
    assert len(predictor._kept) == 1


def test_products_go_with_the_profile_or_the_predictor(kept_everywhere):
    rng = np.random.default_rng(8)
    profile = Profile(3, 12, 10, lattice_records(rng, GRID, 10))
    predictor, other = GrnnPredictor(KernelParams(20.0)), GrnnPredictor(KernelParams(20.0))
    predictor.predict_bounds(GRID, profile)
    other.predict_bounds(GRID, profile)
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


def least_records(points: int) -> int:
    """Fewest records for which a grid of `points` points keeps a product."""
    gate = predictor_module._KEEP_MIN_POINTS
    return -(-predictor_module._KEEP_MIN_RECORDS * (points + gate) // points)


@pytest.mark.parametrize("points, records, keeps", [
    (4096, 0, True), (4095, 0, False), (4096, -1, False), (16384, 0, True), (16384, -1, False),
], ids=["at_the_gates", "one_point_below", "one_record_below", "larger_grid",
        "larger_grid_one_record_below"])
def test_the_gates(points, records, keeps):
    assert predictor_module._KEEP_MIN_POINTS == 4096
    assert least_records(4096) == 64 and least_records(16384) == 40
    assert least_records(STRESS_GRID.size) == 38
    grid = SearchGrid(1.0, (float(points - 1),))  # a 1-link grid of `points` points
    assert grid.size == points
    rng = np.random.default_rng(points)
    count = least_records(max(points, 4096)) + records
    profile = Profile(1, 12, count, lattice_records(rng, grid, count))
    predictor = GrnnPredictor(KernelParams(5000.0))
    for _ in range(3):
        assert_sound(predictor, grid, profile)
        assert (id(profile) in predictor._kept) == keeps
        assert search(grid, profile, predictor, 7) == full_grid_search(grid, profile, predictor, 7)
        alloc, response = lattice_records(rng, grid, 1)[0]
        profile.update(alloc, response, target=7)


def kept_bytes(predictor, profile) -> int:
    entry = predictor._kept[id(profile)]
    screen = entry.value
    return sum(a.nbytes for a in (screen.out, screen.taken, screen.peak, entry.allocs,
                                  entry.responses))


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_kept_search_holds_no_more_than_a_fresh_screen(monkeypatch):
    # the stress benchmark's grid and record count
    grid = STRESS_GRID
    rng = np.random.default_rng(9)
    profile = Profile(3, 12, 128, lattice_records(rng, grid, 128))
    kernel = KernelParams(200.0)
    with monkeypatch.context() as patched:
        patched.setattr(predictor_module, "_KEEP_MIN_POINTS", grid.size + 1)
        fresh = GrnnPredictor(kernel)
        search(grid, profile, fresh, 9)  # builds the grid's cached arrays
        fresh_peak = traced_peak(lambda: search(grid, profile, fresh, 9))
        assert fresh._kept == {}
    predictor = GrnnPredictor(kernel)
    rebuild_peak = traced_peak(lambda: search(grid, profile, predictor, 9))
    held = kept_bytes(predictor, profile)
    assert held < 2**19
    # the rebuild's peak holds the product it leaves behind
    assert rebuild_peak < fresh_peak
    result = profile.update(grid.points()[4321], 4, target=9)
    assert result.action == REPLACED
    steady_peak = traced_peak(lambda: search(grid, profile, predictor, 9))
    assert kept(predictor, profile).updates == 1
    assert steady_peak + held <= fresh_peak
