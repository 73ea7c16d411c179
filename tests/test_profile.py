"""Profile store: class-aware replacement, persistence."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qosalloc.profile import (
    APPENDED,
    REPLACED,
    REPLACED_FALLBACK,
    Profile,
    ProfileFormatError,
    UpdateResult,
)


def records_of(profile):
    """The profile's (allocation tuple, response) pairs in slot order."""
    return [(tuple(alloc), response) for alloc, response in
            zip(profile.allocation_matrix().tolist(), profile.response_vector().tolist())]


class TestUpdate:
    def test_append_below_capacity(self):
        profile = Profile(2, 12, 4, [((10.0, 0.0), 1), ((30.0, 0.0), 3)])
        result = profile.update((20.0, 20.0), 9, 2)
        assert result.action == APPENDED
        assert profile.size == 3
        assert records_of(profile)[-1] == ((20.0, 20.0), 9)

    def test_positive_newcomer_evicts_nearest_negative(self):
        profile = Profile(2, 12, 2, [((10.0, 0.0), 1), ((30.0, 0.0), 3)])
        result = profile.update((25.0, 0.0), 3, 2)
        assert result.action == REPLACED
        assert result.index == 0
        assert profile.size == 2
        # in-place overwrite: the evicted slot holds the new record
        assert records_of(profile) == [((25.0, 0.0), 3), ((30.0, 0.0), 3)]

    def test_negative_newcomer_evicts_nearest_positive(self):
        profile = Profile(1, 12, 3, [((0.0,), 1), ((30.0,), 5), ((10.0,), 8)])
        result = profile.update((12.0,), 1, 4)
        assert result.action == REPLACED
        assert result.index == 2  # (10,) is the nearest positive
        assert records_of(profile)[2] == ((12.0,), 1)

    def test_fallback_when_opposite_class_empty(self):
        profile = Profile(2, 12, 2, [((10.0, 0.0), 1), ((12.0, 0.0), 1)])
        result = profile.update((20.0, 0.0), 1, 2)
        assert result.action == REPLACED_FALLBACK
        assert result.index == 1  # nearest overall: 64 < 100
        assert records_of(profile) == [((10.0, 0.0), 1), ((20.0, 0.0), 1)]

    def test_eviction_tie_breaks_to_lowest_index(self):
        profile = Profile(1, 12, 2, [((10.0,), 1), ((30.0,), 1)])
        result = profile.update((20.0,), 5, 3)  # equidistant negatives
        assert result.index == 0

    def test_unbounded_always_appends(self):
        profile = Profile(1, 12, None)
        for i in range(50):
            assert profile.update((float(i),), 1 + i % 12, 6).action == APPENDED
        assert profile.size == 50

    def test_rejects_bad_levels(self):
        profile = Profile(1, 12, 4)
        for response, target in ((13, 6), (0, 6), (5, 0), (5, 13)):
            with pytest.raises(ValueError):
                profile.update((1.0,), response, target)
        assert profile.size == 0

    @pytest.mark.parametrize("target", range(1, 13))
    def test_class_boundary_at_every_target(self, target):
        # a response equal to the target is positive, one level below it
        # negative; each newcomer lands next to a record of its own class,
        # so only the class rule can send it to the other slot
        profile = Profile(1, 12, 2, [((0.0,), max(target - 1, 1)), ((10.0,), target)])
        result = profile.update((9.0,), target, target)
        if target == 1:  # no level lies below 1: both records are positive
            assert result == UpdateResult(REPLACED_FALLBACK, 1)
            return
        assert result == UpdateResult(REPLACED, 0)  # the negative record goes
        profile = Profile(1, 12, 2, [((0.0,), target - 1), ((10.0,), target)])
        result = profile.update((1.0,), target - 1, target)
        assert result == UpdateResult(REPLACED, 1)  # the positive record goes
        assert records_of(profile) == [((0.0,), target - 1), ((1.0,), target - 1)]

    def test_append_refuses_past_capacity(self):
        profile = Profile(1, 12, 1, [((0.0,), 1)])
        with pytest.raises(ValueError):
            profile.append((1.0,), 2)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_randomized_sequences_respect_capacity_and_class(self, data):
        capacity = data.draw(st.integers(1, 8))
        profile = Profile(1, 12, capacity)
        for _ in range(data.draw(st.integers(1, 40))):
            target = data.draw(st.integers(2, 12))
            response = data.draw(st.integers(1, 12))
            alloc = (data.draw(st.floats(0, 50)),)
            before = profile.response_vector().copy()
            at_capacity = profile.size == capacity
            result = profile.update(alloc, response, target)
            assert profile.size <= capacity
            if at_capacity:
                assert profile.size == capacity
                assert result.action in (REPLACED, REPLACED_FALLBACK)
                if result.action == REPLACED:
                    assert (before[result.index] >= target) != (response >= target)
            else:
                assert result.action == APPENDED


class TestPersistence:
    def test_empty_round_trip(self):
        profile = Profile(3, 12, 31)
        clone = Profile.from_bytes(profile.to_bytes())
        assert clone == profile

    def test_sixteen_record_round_trip_is_identical(self):
        rng = np.random.default_rng(7)
        profile = Profile(2, 12, 31)
        for _ in range(16):
            profile.append(tuple(rng.uniform(0, 50, 2)), int(rng.integers(1, 13)))
        data = profile.to_bytes()
        clone = Profile.from_bytes(data)
        assert clone == profile
        assert clone.to_bytes() == data

    def test_unbounded_round_trip(self):
        profile = Profile(1, 3, None, [((0.0,), 1), ((30.0,), 3)])
        clone = Profile.from_bytes(profile.to_bytes())
        assert clone.capacity is None
        assert clone == profile

    def test_out_of_range_response_names_record(self):
        data = b"n=1,L=12,S=31\n5.0,6\n7.0,13\n"
        with pytest.raises(ProfileFormatError, match="record 2"):
            Profile.from_bytes(data)

    def test_bad_field_count_names_record(self):
        data = b"n=2,L=12,S=31\n5.0,6.0,3\n7.0,9\n"
        with pytest.raises(ProfileFormatError, match="record 2"):
            Profile.from_bytes(data)

    def test_bad_header(self):
        with pytest.raises(ProfileFormatError, match="header"):
            Profile.from_bytes(b"who knows\n")
        with pytest.raises(ProfileFormatError):
            Profile.from_bytes(b"")

    def test_non_numeric_field(self):
        with pytest.raises(ProfileFormatError, match="record 1"):
            Profile.from_bytes(b"n=1,L=12,S=31\nbogus,6\n")

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf", "-1.0", "-1e-300"])
    def test_bad_allocation_names_record(self, field):
        data = f"n=2,L=12,S=4\n1.0,1.0,3\n{field},1.0,3\n".encode()
        with pytest.raises(ProfileFormatError, match="record 2"):
            Profile.from_bytes(data)

    @pytest.mark.parametrize("data, match", [
        (b"\xff\xfe", "UTF-8"),
        (b"n=1,L=12,S=4\n\xff,3\n", "UTF-8"),
        (b"n=0,L=12,S=4\n", "header"),
        (b"n=1,L=0,S=4\n", "header"),
        (b"n=1,L=12,S=0\n", "header"),
        (b"n=1,L=12,S=-3\n", "header"),
        (b"n=" + b"9" * 40 + b",L=12,S=4\n", "header"),
        (b"n=1,L=12,S=unbounded,X=1\n", "header"),
        (b"n=1,L=12,S=4,S=unbounded\n", "header"),
        (b"n=1,S=4\n", "header"),
    ], ids=["undecodable", "undecodable_record", "no_links", "no_levels", "zero_capacity",
            "negative_capacity", "huge_link_count", "unknown_key", "repeated_key",
            "missing_key"])
    def test_every_failure_is_a_format_error(self, data, match):
        with pytest.raises(ProfileFormatError, match=match):
            Profile.from_bytes(data)

    def test_header_alone_allocates_no_rows(self):
        # arrays are reserved by the first append, so a header cannot ask for
        # a huge block up front
        profile = Profile.from_bytes(b"n=1000000000000,L=12,S=4\n")
        assert profile.size == 0
        assert profile.allocation_matrix().shape == (0, 10**12)

    def test_save_load_file(self, tmp_path):
        profile = Profile(2, 12, 31, [((1.25, 2.5), 6), ((50.0, 30.0), 12)])
        path = tmp_path / "profile.csv"
        profile.save(path)
        assert Profile.load(path) == profile


def test_arrays_reflect_insertion_order():
    profile = Profile(2, 12, None, [((1.0, 2.0), 3), ((4.0, 5.0), 6)])
    np.testing.assert_array_equal(profile.allocation_matrix(), [[1.0, 2.0], [4.0, 5.0]])
    np.testing.assert_array_equal(profile.response_vector(), [3, 6])
    profile.update((7.0, 8.0), 9, 5)
    np.testing.assert_array_equal(profile.response_vector(), [3, 6, 9])


def test_record_validation():
    profile = Profile(2, 12, None)
    for bad in ((float("nan"), 1.0), (1.0, float("inf")), (-0.5, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            profile.append(bad, 5)
    profile.append((-0.0, 0.0), 5)  # negative zero is zero
    with pytest.raises(ValueError):
        profile.append((1.0,), 5)  # wrong link count
    with pytest.raises(ValueError):
        profile.append((1.0, 2.0), 0)


def reference_update(records, capacity, allocation, response, target):
    """The list-based store's rule: append, else min over (distance, index)."""
    if capacity is None or len(records) < capacity:
        records.append((tuple(allocation), response))
        return APPENDED, len(records) - 1
    new_is_positive = response >= target
    candidates = [i for i, (_, r) in enumerate(records) if (r >= target) != new_is_positive]
    action = REPLACED
    if not candidates:
        candidates = list(range(len(records)))
        action = REPLACED_FALLBACK

    def squared_distance(a, b):
        return float(((np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) ** 2).sum())

    best = min(candidates, key=lambda i: (squared_distance(allocation, records[i][0]), i))
    records[best] = (tuple(allocation), response)
    return action, best


class TestArrayStore:
    """The array-backed store against the list-based eviction rule."""

    def test_eviction_matches_reference_rule(self):
        rng = np.random.default_rng(2024)
        seen = {APPENDED: 0, REPLACED: 0, REPLACED_FALLBACK: 0, "tie": 0,
                "positive": 0, "negative": 0}
        for case in range(300):
            n = int(rng.integers(1, 4))
            capacity = None if case % 5 == 0 else int(rng.integers(1, 12))
            levels = 4
            # a 3-point lattice per link makes exact distance ties common;
            # a narrow response range makes one-class stores (fallbacks) common
            low, high = (1, 3) if case % 3 else (1, levels + 1)
            profile, model = Profile(n, levels, capacity), []
            for _ in range(int(rng.integers(1, 40))):
                alloc = tuple(float(v) for v in rng.integers(0, 3, n) * 2.5)
                response = int(rng.integers(low, high))
                target = int(rng.integers(2, levels + 1))
                if len(model) == capacity:
                    opposite = [a for a, r in model if (r >= target) != (response >= target)]
                    pool = opposite or [a for a, _ in model]
                    d2 = sorted(sum((x - y) ** 2 for x, y in zip(a, alloc)) for a in pool)
                    seen["tie"] += len(d2) > 1 and d2[0] == d2[1]
                    seen["positive" if response >= target else "negative"] += 1
                expected = reference_update(model, capacity, alloc, response, target)
                result = profile.update(alloc, response, target)
                assert (result.action, result.index) == expected
                assert records_of(profile) == model
                seen[result.action] += 1
        assert min(seen.values()) > 0, seen

    def test_unbounded_appends_grow_past_the_initial_rows(self):
        profile = Profile(2, 12, None)
        model = []
        for i in range(100):
            alloc, response = (float(i), 0.5 * i), 1 + i % 12
            assert profile.update(alloc, response, 6).index == i
            model.append((alloc, response))
        assert records_of(profile) == model
        np.testing.assert_array_equal(profile.allocation_matrix(), [a for a, _ in model])

    def test_arrays_are_read_only(self):
        profile = Profile(2, 12, 4, [((1.0, 2.0), 3), ((4.0, 5.0), 6)])
        with pytest.raises(ValueError):
            profile.allocation_matrix()[0, 0] = 9.0
        with pytest.raises(ValueError):
            profile.response_vector()[0] = 9
        assert records_of(profile)[0] == ((1.0, 2.0), 3)

    def test_to_bytes_round_trips_byte_identically(self):
        rng = np.random.default_rng(9)
        for capacity in (3, None):
            profile = Profile(3, 12, capacity)
            for _ in range(40):
                profile.update(tuple(rng.uniform(0, 50, 3)), int(rng.integers(1, 13)), 7)
            data = profile.to_bytes()
            lines = [",".join([repr(v) for v in alloc] + [str(response)])
                     for alloc, response in records_of(profile)]
            cap = "unbounded" if capacity is None else str(capacity)
            assert data == "\n".join([f"n=3,L=12,S={cap}", *lines, ""]).encode()
            clone = Profile.from_bytes(data)
            assert clone == profile
            assert clone.to_bytes() == data


class TestArrayCopy:
    """Profile._from_arrays copies another profile's arrays without re-checking."""

    def test_copy_equals_and_is_independent(self):
        rng = np.random.default_rng(4)
        profile = Profile(2, 12, 40)
        for _ in range(20):
            profile.append(tuple(rng.uniform(0, 50, 2)), int(rng.integers(1, 13)))
        copy = Profile._from_arrays(2, 12, 40, profile.allocation_matrix(),
                                    profile.response_vector())
        assert copy == profile
        assert copy.to_bytes() == profile.to_bytes()
        copy.update((1.0, 1.0), 12, 7)
        copy.append((2.0, 2.0), 3)
        assert profile.size == 20 and copy.size == 22
        assert records_of(profile) == records_of(Profile.from_bytes(profile.to_bytes()))

    def test_bounded_copy_refuses_more_than_capacity(self):
        profile = Profile(1, 12, None, [((float(i),), 6) for i in range(5)])
        with pytest.raises(ValueError, match="at capacity 4"):
            Profile._from_arrays(1, 12, 4, profile.allocation_matrix(),
                                 profile.response_vector())
        full = Profile._from_arrays(1, 12, 5, profile.allocation_matrix(),
                                    profile.response_vector())
        assert full.update((9.0,), 12, 7) == UpdateResult(REPLACED, 4)

    def test_verification_clone_matches_record_rebuild(self):
        from qosalloc.verification import _clone_with

        rng = np.random.default_rng(12)
        profile = Profile(3, 12, None, [(tuple(rng.uniform(0, 50, 3)), int(rng.integers(1, 13)))
                                        for _ in range(20)])
        pairs = records_of(profile)
        extra = ((1.25, 2.5, 0.0), 9)
        for drop in (None, 0, 7, 19):
            for add in (None, extra):
                expected = list(pairs)
                if drop is not None:
                    expected.pop(drop)
                if add is not None:
                    expected.append(add)
                clone = _clone_with(profile, extra=add, drop_index=drop)
                assert clone == Profile(3, 12, None, expected)
        with pytest.raises(ValueError):
            _clone_with(profile, extra=((1.0, 2.0), 9))  # the extra record is checked

    def test_store_laws_catch_an_eviction_of_the_second_nearest(self, monkeypatch):
        from qosalloc.verification import store_laws_suite

        clean = store_laws_suite(updates=600)
        assert clean.violations == 0

        def second_nearest_update(self, allocation, response, target):
            # the opposite class, as update() picks it, but its second-nearest record
            alloc, response = self._check_record(allocation, response)
            if self._size < self.capacity:
                return UpdateResult(APPENDED, self._append(alloc, response))
            candidates = np.flatnonzero((self.response_vector() >= target) != (response >= target))
            if candidates.size == 0:
                candidates, action = np.arange(self._size), REPLACED_FALLBACK
            else:
                action = REPLACED
            d2 = ((self._allocs[candidates] - alloc) ** 2).sum(axis=1)
            best = int(candidates[np.argsort(d2, kind="stable")[min(1, len(d2) - 1)]])
            self._allocs[best], self._responses[best] = alloc, response
            return UpdateResult(action, best)

        monkeypatch.setattr(Profile, "update", second_nearest_update)
        mutant = store_laws_suite(updates=600)
        assert mutant.trials == clean.trials
        assert mutant.violations > 0
