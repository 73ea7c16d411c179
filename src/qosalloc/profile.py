"""Bounded store of past (allocation, response) records.

Below capacity an update appends. At capacity the new record replaces the
nearest record of the opposite response class for the update's QoS target:
a record is positive when its response is >= target and negative when it is
below. A negative newcomer evicts the nearest positive record, a positive
newcomer evicts the nearest negative one. Replacing opposite-class records
is what makes negative feedback push the next allocation up and positive
feedback pull it down. When the class to evict from is empty the store falls
back to evicting the globally nearest record; callers can see that through
the returned action and must not assume the push/pull direction for such
steps.

Replacement overwrites in place, so record order (and with it the
fixed summation order of the predictor) stays stable across updates.

Records are stored as a float64 allocation array and an int64 response
array, read through allocation_matrix() and response_vector(); there is no
per-record object. The predictor reads them without a rebuild, and an
eviction is one vectorized argmin over the opposite-class rows.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

APPENDED = "append"
REPLACED = "replace"
REPLACED_FALLBACK = "fallback"


class ProfileFormatError(ValueError):
    """A serialized profile could not be parsed or violates an invariant."""


@dataclass(frozen=True)
class UpdateResult:
    """What an update did: the action taken and the slot written."""

    action: str  # APPENDED, REPLACED or REPLACED_FALLBACK
    index: int


#: Rows reserved by the first append; the arrays double from here, up to
#: the capacity.
_INITIAL_ROWS = 16


class Profile:
    """Ordered, bounded sequence of (allocation, response) records.

    Records live in a (rows, n) float64 allocation array and a (rows,)
    int64 response array; the first ``size`` rows are the records in slot
    order. The arrays double in length as records are appended, up to the
    capacity, so replacement never reallocates.

    Parameters
    ----------
    link_count : int
        Number of links n; every record's allocation must have this length.
    level_count : int
        Number of response levels L; responses lie in [1, L].
    capacity : int or None
        Maximum record count S. None means unbounded (append-only growth,
        used by the no-eviction baseline).
    records : iterable of (allocation, response)
        Initial records, appended and checked in order.
    """

    def __init__(
        self,
        link_count: int,
        level_count: int,
        capacity: int | None,
        records: Iterable[tuple[Sequence[float], int]] = (),
    ):
        if link_count < 1:
            raise ValueError(f"link_count must be >= 1, got {link_count}")
        if level_count < 1:
            raise ValueError(f"level_count must be >= 1, got {level_count}")
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.link_count = link_count
        self.level_count = level_count
        self.capacity = capacity
        # no rows until the first append, so a header alone allocates nothing
        self._allocs = np.empty((0, link_count))
        self._responses = np.empty(0, dtype=np.int64)
        self._size = 0
        for alloc, response in records:
            self.append(alloc, response)

    @classmethod
    def _from_arrays(cls, link_count: int, level_count: int, capacity: int | None,
                     allocs: np.ndarray, responses: np.ndarray) -> "Profile":
        """A profile holding copies of already validated records, in order.

        allocs is (p, link_count) and responses (p,), e.g. another profile's
        allocation_matrix() and response_vector(). The records are not
        checked again one by one; a bounded profile still refuses more than
        capacity records, with append's error.
        """
        profile = cls(link_count, level_count, capacity)
        size = len(responses)
        if capacity is not None and size > capacity:
            raise ValueError(f"profile is at capacity {capacity}; use update()")
        profile._allocs = np.array(allocs, dtype=float).reshape(size, link_count)
        profile._responses = np.array(responses, dtype=np.int64)
        profile._size = size
        return profile

    # -- basic introspection ------------------------------------------------

    @property
    def size(self) -> int:
        return self._size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Profile):
            return NotImplemented
        return (
            self.link_count == other.link_count
            and self.level_count == other.level_count
            and self.capacity == other.capacity
            and np.array_equal(self.allocation_matrix(), other.allocation_matrix())
            and np.array_equal(self.response_vector(), other.response_vector())
        )

    def allocation_matrix(self) -> np.ndarray:
        """Records' allocations as a read-only (p, n) float view, slot order.

        The view shows the live store: a later replacement is visible in it.
        """
        return _read_only(self._allocs[:self._size])

    def response_vector(self) -> np.ndarray:
        """Records' responses as a read-only (p,) int64 view, slot order."""
        return _read_only(self._responses[:self._size])

    # -- mutation -----------------------------------------------------------

    def _check_record(self, allocation: Sequence[float], response: int) -> tuple[tuple, int]:
        alloc = tuple(map(float, allocation))
        if len(alloc) != self.link_count:
            raise ValueError(
                f"allocation has {len(alloc)} links, profile expects {self.link_count}"
            )
        for v in alloc:
            if not 0.0 <= v < math.inf:  # also false for nan
                raise ValueError(f"allocation {alloc} must be finite and >= 0 on every link")
        response = int(response)
        if not 1 <= response <= self.level_count:
            raise ValueError(f"response {response} outside [1, {self.level_count}]")
        return alloc, response

    def _append(self, alloc: tuple, response: int) -> int:
        index = self._size
        rows = len(self._responses)
        if index == rows:  # full: double, up to the capacity
            grown = max(_INITIAL_ROWS, 2 * rows)
            if self.capacity is not None:
                grown = min(grown, self.capacity)
            allocs = np.empty((grown, self.link_count))
            allocs[:rows] = self._allocs
            responses = np.empty(grown, dtype=np.int64)
            responses[:rows] = self._responses
            self._allocs, self._responses = allocs, responses
        self._allocs[index] = alloc
        self._responses[index] = response
        self._size = index + 1
        return index

    def append(self, allocation: Sequence[float], response: int) -> None:
        """Append a record; refuses to exceed a bounded capacity."""
        alloc, response = self._check_record(allocation, response)
        if self.capacity is not None and self._size >= self.capacity:
            raise ValueError(f"profile is at capacity {self.capacity}; use update()")
        self._append(alloc, response)

    def update(self, allocation: Sequence[float], response: int, target: int) -> UpdateResult:
        """Insert a new record, evicting by class-aware nearest match at capacity.

        Below capacity the record is appended. At capacity, a new record
        whose response is negative w.r.t. target replaces the nearest
        positive record and vice versa: one argmin over the candidates'
        squared distances (summed link by link), whose first-minimum rule
        breaks ties toward the lowest record index. If the opposite class
        has no records, the globally nearest record is evicted instead
        (reported as REPLACED_FALLBACK). Unbounded profiles always append.
        """
        alloc, response = self._check_record(allocation, response)
        if not 1 <= target <= self.level_count:
            raise ValueError(f"target {target} outside [1, {self.level_count}]")
        if self.capacity is None or self._size < self.capacity:
            return UpdateResult(APPENDED, self._append(alloc, response))

        opposite = (self.response_vector() >= target) != (response >= target)
        candidates = np.flatnonzero(opposite)
        action = REPLACED
        if candidates.size == 0:
            candidates = np.arange(self._size)
            action = REPLACED_FALLBACK
        d2 = ((self._allocs[candidates] - alloc) ** 2).sum(axis=1)
        best = int(candidates[d2.argmin()])
        self._allocs[best] = alloc
        self._responses[best] = response
        return UpdateResult(action, best)

    # -- persistence ----------------------------------------------------------
    #
    # Line 1:  n=<links>,L=<levels>,S=<capacity or 'unbounded'>
    # Then one record per line: the link bandwidths then the response level,
    # comma-separated. Floats are written with repr() so a round-trip is
    # bit-identical.

    def to_bytes(self) -> bytes:
        cap = "unbounded" if self.capacity is None else str(self.capacity)
        out = io.StringIO()
        out.write(f"n={self.link_count},L={self.level_count},S={cap}\n")
        for alloc, response in zip(self.allocation_matrix().tolist(),
                                   self.response_vector().tolist()):
            out.write(",".join([repr(v) for v in alloc] + [str(response)]) + "\n")
        return out.getvalue().encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Profile":
        """Parse to_bytes() output; any malformed input raises ProfileFormatError."""
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProfileFormatError(f"profile data is not UTF-8 text: {exc}") from exc
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ProfileFormatError("empty profile data: missing header")
        header = lines[0].strip()
        try:
            items = [item.split("=", 1) for item in header.split(",")]
            parts = dict(items)
            if len(items) != 3 or parts.keys() != {"n", "L", "S"}:
                raise ValueError("need the keys n, L and S, once each")
            link_count = int(parts["n"])
            level_count = int(parts["L"])
            capacity = None if parts["S"] == "unbounded" else int(parts["S"])
            profile = cls(link_count, level_count, capacity)
        except (KeyError, ValueError, OverflowError) as exc:
            raise ProfileFormatError(f"bad profile header {header!r}: {exc}") from exc
        for idx, line in enumerate(lines[1:], start=1):
            fields = line.strip().split(",")
            if len(fields) != link_count + 1:
                raise ProfileFormatError(
                    f"record {idx}: expected {link_count + 1} fields, got {len(fields)}"
                )
            try:
                alloc = tuple(float(v) for v in fields[:-1])
                response = int(fields[-1])
            except ValueError as exc:
                raise ProfileFormatError(f"record {idx}: {exc}") from exc
            try:
                profile.append(alloc, response)
            except ValueError as exc:
                raise ProfileFormatError(f"record {idx}: {exc}") from exc
        return profile

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "Profile":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view
