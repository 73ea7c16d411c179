"""Bounded store of past (allocation, response) records.

Below capacity an update appends. At capacity the new record replaces the
nearest record of the opposite response class: a negative newcomer (response
below the QoS target) evicts the nearest positive record, a positive
newcomer evicts the nearest negative one. Replacing opposite-class records
is what makes negative feedback push the next allocation up and positive
feedback pull it down. When the class to evict from is empty the store falls
back to evicting the globally nearest record; callers can see that through
the returned action and must not assume the push/pull direction for such
steps.

Replacement overwrites in place, so record order (and with it the
fixed summation order of the predictor) stays stable across updates.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .predictor import squared_distance

POSITIVE = "positive"
NEGATIVE = "negative"

APPENDED = "append"
REPLACED = "replace"
REPLACED_FALLBACK = "fallback"


class ProfileFormatError(ValueError):
    """A serialized profile could not be parsed or violates an invariant."""


def classify(response: int, target: int, level_count: int) -> str:
    """Classify a response level against a QoS target.

    Positive means response >= target (levels target..L), negative means
    response < target (levels 1..target-1). Out-of-range levels raise
    ValueError.
    """
    if not 1 <= response <= level_count:
        raise ValueError(f"response {response} outside [1, {level_count}]")
    if not 1 <= target <= level_count:
        raise ValueError(f"target {target} outside [1, {level_count}]")
    return POSITIVE if response >= target else NEGATIVE


@dataclass(frozen=True)
class ProfileRecord:
    """One past delivery: the allocation used and the response level seen."""

    allocation: tuple[float, ...]
    response: int


@dataclass(frozen=True)
class UpdateResult:
    """What an update did: the action taken and the slot written."""

    action: str  # APPENDED, REPLACED or REPLACED_FALLBACK
    index: int


class Profile:
    """Ordered, bounded sequence of ProfileRecords.

    Parameters
    ----------
    link_count : int
        Number of links n; every record's allocation must have this length.
    level_count : int
        Number of response levels L; responses lie in [1, L].
    capacity : int or None
        Maximum record count S. None means unbounded (append-only growth,
        used by the no-eviction baseline).
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
        self._records: list[ProfileRecord] = []
        self._cache: tuple[np.ndarray, np.ndarray] | None = None
        for alloc, response in records:
            self.append(alloc, response)

    # -- basic introspection ------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._records)

    @property
    def records(self) -> tuple[ProfileRecord, ...]:
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Profile):
            return NotImplemented
        return (
            self.link_count == other.link_count
            and self.level_count == other.level_count
            and self.capacity == other.capacity
            and self._records == other._records
        )

    def allocation_matrix(self) -> np.ndarray:
        """Records' allocations as a (p, n) float array, insertion order."""
        return self._arrays()[0]

    def response_vector(self) -> np.ndarray:
        """Records' responses as a (p,) int array, insertion order."""
        return self._arrays()[1]

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._cache is None:
            allocs = np.array([r.allocation for r in self._records], dtype=float)
            allocs = allocs.reshape(len(self._records), self.link_count)
            resp = np.array([r.response for r in self._records], dtype=np.int64)
            self._cache = (allocs, resp)
        return self._cache

    # -- mutation -----------------------------------------------------------

    def _check_record(self, allocation: Sequence[float], response: int) -> ProfileRecord:
        alloc = tuple(float(v) for v in allocation)
        if len(alloc) != self.link_count:
            raise ValueError(
                f"allocation has {len(alloc)} links, profile expects {self.link_count}"
            )
        if not all(math.isfinite(v) and v >= 0.0 for v in alloc):
            raise ValueError(f"allocation {alloc} must be finite and >= 0 on every link")
        response = int(response)
        if not 1 <= response <= self.level_count:
            raise ValueError(f"response {response} outside [1, {self.level_count}]")
        return ProfileRecord(alloc, response)

    def append(self, allocation: Sequence[float], response: int) -> None:
        """Append a record; refuses to exceed a bounded capacity."""
        rec = self._check_record(allocation, response)
        if self.capacity is not None and len(self._records) >= self.capacity:
            raise ValueError(f"profile is at capacity {self.capacity}; use update()")
        self._records.append(rec)
        self._cache = None

    def update(self, allocation: Sequence[float], response: int, target: int) -> UpdateResult:
        """Insert a new record, evicting by class-aware nearest match at capacity.

        Below capacity the record is appended. At capacity, a new record
        whose response is negative w.r.t. target replaces the nearest
        positive record and vice versa; the argmin over squared distance
        breaks ties toward the lowest record index. If the opposite class
        has no records, the globally nearest record is evicted instead
        (reported as REPLACED_FALLBACK). Unbounded profiles always append.
        """
        rec = self._check_record(allocation, response)
        if not 1 <= target <= self.level_count:
            raise ValueError(f"target {target} outside [1, {self.level_count}]")
        if self.capacity is None or len(self._records) < self.capacity:
            self._records.append(rec)
            self._cache = None
            return UpdateResult(APPENDED, len(self._records) - 1)

        new_is_positive = rec.response >= target
        candidates = [
            i
            for i, old in enumerate(self._records)
            if (old.response >= target) != new_is_positive
        ]
        action = REPLACED
        if not candidates:
            candidates = list(range(len(self._records)))
            action = REPLACED_FALLBACK
        best = min(
            candidates,
            key=lambda i: (squared_distance(rec.allocation, self._records[i].allocation), i),
        )
        self._records[best] = rec
        self._cache = None
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
        for rec in self._records:
            fields = [repr(v) for v in rec.allocation] + [str(rec.response)]
            out.write(",".join(fields) + "\n")
        return out.getvalue().encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Profile":
        text = data.decode("utf-8")
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ProfileFormatError("empty profile data: missing header")
        header = lines[0].strip()
        try:
            parts = dict(item.split("=", 1) for item in header.split(","))
            link_count = int(parts["n"])
            level_count = int(parts["L"])
            capacity = None if parts["S"] == "unbounded" else int(parts["S"])
        except (KeyError, ValueError) as exc:
            raise ProfileFormatError(f"bad profile header {header!r}: {exc}") from exc
        profile = cls(link_count, level_count, capacity)
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
