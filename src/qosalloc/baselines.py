"""Comparison predictors that plug into the same search and controller.

Two baselines are provided: a k-nearest-neighbor response predictor (mean
of the k closest records' responses) and the unbounded variant of the
kernel-regression predictor whose profile grows with every transmission
instead of replacing records at a capacity. Only the predictor and the
profile-growth policy differ; the allocation search and the control loop
are reused unchanged.

The kNN predictor with k = p is the plain mean of all responses, which is
not the same thing as the kernel-weighted mean; no equivalence between the
two predictors holds or is tested.

KnnPredictor.predict_batch is the definition: squared distances to every
record, a stable argsort per candidate (so distance ties go to the lowest
record index), and the mean response of the first k. predict_grid gets the
same bits faster when every record is a grid point and the grid has
distance ranks, reading the grid as a lattice. The squared distance
between grid point c and record r then depends only on the step-count
offset c - r, so the ranks hold, per offset, the rank of the squared
distance sum_j D_j[c_j - r_j] among the distinct values of that sum:
prod_j (2 C_j + 1) entries, 3,969 (31 KB) on the 2-link reference grid.
They are built from one flat array of that sum, added link 0 first, so
ranks compare exactly as the float distances do. A grid has them when it
passes the exactness check ((c * step - r * step)**2 depends on c - r
alone, as computed; true of steps such as 0.5, 1.25 or 2.5, not of 0.7)
within _TABLE_MAX and has fewer than _PAIRWISE_LINKS links: numpy sums
longer rows pairwise, and the distances would then follow that order
instead of link order. The ranks, each grid point's offset into them and
their strides are built once per grid, on the first call whose records
they can serve, and kept for the grid's lifetime; the records' bases are
computed when their keys are formed.

The entry for point c and record r is ranks[offsets[c] + bases[r]], and
each (point, record) pair gets the int64 key rank * 2**32 + r (ranks stay
below _TABLE_MAX = 2**18, and no profile holds 2**32 records). Ranks keep
the order and the equality of the float distances, and the record index
breaks ties toward the lowest index as the stable sort does, so the k
smallest keys of a point, found by an in-place partition instead of a full
sort, name exactly the records the sort would take. Their responses are
small integers, so their int64 sum is exact, and that sum divided by k is
the mean, bit for bit. The partition takes the rows a chunk of at most
_KNN_KEYS keys at a time, so it never needs an (m, p) array.

A KnnPredictor keeps, for each profile it serves, every grid point's k
smallest keys (its neighbor sets), the largest of them and the sum of
their responses, and predict_grid returns sums[rows] / k. The entry is
keyed by the profile's identity and holds it, and its grid, only weakly:
it goes when the profile or the predictor goes, and nothing refers back
to the predictor. A later call merges the records the profile appended
since, in index order, with one key comparison per point: a new record's
index is above every kept one, so its key is never equal to one of them,
and the k smallest keys of the larger set are the old ones with the
largest replaced wherever the new key is smaller. The point's sum then
moves by the integer difference of the two responses, so it stays exact.
Every other change rebuilds the sets over the whole grid with the
partition: the first call, another grid object or k, or any record or
response of the earlier ones changed (the entry keeps copies of them and
compares them on each call), as a bounded profile does at capacity. A
grid of more than _TABLE_MAX / k points would need sets above _TABLE_MAX
keys (2 MB); there the partition predicts just the rows asked for and
nothing is kept. On the 2-link reference grid with k = 5 the sets hold
5,125 keys, 41 KB, and two int64 per point beside them. The entries are
plain state without a lock: one KnnPredictor must not serve two threads
at once. Every case the ranks cannot serve calls predict_batch and keeps
nothing.

KnnPredictor.predict_bounds is the profile's constant [min, max] response
interval, so a kNN search predicts as many points as an unscreened search
would, except when every record's response reaches the target: then every
point is a member, and only the origin is predicted.
"""

from __future__ import annotations

import math
import operator
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .predictor import EmptyProfileError
from .profile import Profile

if TYPE_CHECKING:  # pragma: no cover
    from .search import SearchGrid

#: Most (point, record) keys one chunk of the rank partition holds.
_KNN_KEYS = 2**14

#: Most entries in a grid's distance ranks, and most (c, r) pairs in its
#: exactness check; a grid over either limit has no ranks. Also the most
#: keys one profile's neighbor sets hold.
_TABLE_MAX = 2**18

#: Low bits of a neighbor key, which hold the record index; the rank is
#: above them.
_INDEX_BITS = 32
_INDEX_MASK = 2**_INDEX_BITS - 1

#: Fewest values numpy sums pairwise when it reduces a row; shorter rows are
#: added left to right, in link order.
_PAIRWISE_LINKS = 8

#: Each grid's (ranks, offsets, strides), or None where it has no ranks;
#: an entry lives as long as its grid, and equal grids share one.
_LATTICES: "weakref.WeakKeyDictionary[SearchGrid, tuple | None]" = weakref.WeakKeyDictionary()

GRNN_BOUNDED = "grnn_bounded"
GRNN_UNBOUNDED = "grnn_unbounded"
KNN = "knn"

PREDICTOR_KINDS = (GRNN_BOUNDED, GRNN_UNBOUNDED, KNN)


@dataclass(frozen=True)
class PredictorKind:
    """Selects a predictor/profile-policy pair for a scenario run."""

    tag: str = GRNN_BOUNDED
    knn_k: int = 5

    def __post_init__(self) -> None:
        if self.tag not in PREDICTOR_KINDS:
            raise ValueError(f"unknown predictor tag {self.tag!r}; use one of {PREDICTOR_KINDS}")
        object.__setattr__(self, "knn_k", _neighbor_count(self.knn_k, "knn_k"))

    @property
    def bounded(self) -> bool:
        """Whether the profile store evicts at capacity under this kind."""
        return self.tag == GRNN_BOUNDED

    @property
    def label(self) -> str:
        return f"{self.tag}_k{self.knn_k}" if self.tag == KNN else self.tag


def _neighbor_count(k, name: str) -> int:
    """k as an int >= 1; a bool or any non-integer raises ValueError naming it."""
    try:
        if isinstance(k, bool):
            raise TypeError
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {k!r}") from None
    if k < 1:
        raise ValueError(f"{name} must be >= 1, got {k}")
    return k


def _knn_batch(xs: np.ndarray, profile: Profile, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean response of the k records nearest to each row of xs, and k per row.

    Distance ties are broken toward the lowest record index. The kernel
    sum reports k: each selected neighbor carries unit weight.
    """
    allocs = profile.allocation_matrix()
    responses = profile.response_vector().astype(float)
    if xs.ndim != 2 or xs.shape[1] != profile.link_count:
        raise ValueError(
            f"candidate array must have shape (m, {profile.link_count}), got {xs.shape}"
        )
    d2 = ((xs[:, None, :] - allocs[None, :, :]) ** 2).sum(axis=2)  # (m, p)
    # stable sort keeps the lowest record index on distance ties
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    y_star = responses[order].mean(axis=1)
    return y_star, np.full(xs.shape[0], float(k))


def _lattice_keys(grid: "SearchGrid", allocs: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(ranks, offsets, bases) that serve the (p, n) records allocs, or None.

    The rank of the squared distance between grid point c and record r is
    ranks[offsets[c] + bases[r]]. None when some record is not a grid
    point (on every link its allocation equals r * step for a step count
    0 <= r <= C_j) or the grid has no ranks; the ranks are built only
    once every record is a grid point. Records with another link count
    than the grid's raise ValueError.
    """
    if allocs.shape[1] != grid.link_count:
        raise ValueError(f"grid has {grid.link_count} links but records have {allocs.shape[1]}")
    steps = np.array(grid.steps_per_link, dtype=np.intp)
    counts = np.rint(allocs / grid.step)
    if not ((counts * grid.step == allocs) & (counts >= 0) & (counts <= steps)).all():
        return None
    try:
        lattice = _LATTICES[grid]
    except KeyError:
        lattice = _LATTICES[grid] = _lattice(grid)
    if lattice is None:
        return None
    ranks, offsets, strides = lattice
    return ranks, offsets, (steps - counts.astype(np.intp)) @ strides


def _lattice(grid: "SearchGrid") -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The grid's distance ranks, every point's offset into them, and their strides.

    The ranks are flattened row-major over the offsets c - r shifted into
    [0, 2 C_j], so axis j has 2 C_j + 1 entries; each is the int64 rank of
    sum_j D_j[c_j - r_j], added link 0 first, where D_j[c - r] is
    (c * step - r * step)**2 as numpy computes it, among the distinct
    values of that sum. On the grid those distances are bit for bit the
    ones predict_batch computes for a point and a record. None when the
    grid has _PAIRWISE_LINKS links or more, when the check or the ranks
    would exceed _TABLE_MAX entries, or when some pair (c, r) has
    (c * step - r * step)**2 != D_j[c - r]. Every link shares the step, so
    link j's D_j is the middle of one D over the largest count C, and its
    (c, r) pairs are a corner of the one check over C.
    """
    steps = grid.steps_per_link
    c_max = max(steps)
    dims = [2 * c + 1 for c in steps]
    if (grid.link_count >= _PAIRWISE_LINKS or (c_max + 1) ** 2 > _TABLE_MAX
            or math.prod(dims) > _TABLE_MAX):
        return None
    # D[delta + C] = (delta * step)**2 for delta in [-C, C]
    squares = np.square(np.arange(-c_max, c_max + 1, dtype=float) * grid.step)
    v = np.arange(c_max + 1, dtype=float) * grid.step
    actual = np.square(v[None, :] - v[:, None])  # [r, c]: (c * step - r * step)**2
    # [r, c]: D[c - r + C], row r being the window of D that starts at C - r
    expected = np.lib.stride_tricks.sliding_window_view(squares, c_max + 1)[::-1]
    if not np.array_equal(actual, expected):
        return None
    sums = None
    for c in steps:
        d = squares[c_max - c:c_max + c + 1]
        sums = d.copy() if sums is None else np.add.outer(sums, d)
    ranks = np.unique(sums.reshape(-1), return_inverse=True)[1]
    strides = np.array([math.prod(dims[j + 1:]) for j in range(len(dims))], dtype=np.intp)
    offsets = grid.counts() @ strides
    ranks.flags.writeable = False
    offsets.flags.writeable = False
    return ranks, offsets, strides


def _nearest(ranks: np.ndarray, point_offsets: np.ndarray, bases: np.ndarray,
             responses: np.ndarray, k: int, keys: np.ndarray | None = None) -> np.ndarray:
    """The int64 response sum of each point's k nearest records, by the rank partition.

    point_offsets are the points' offsets into ranks and bases all p
    records' (see _lattice_keys), responses their int64 responses. When
    keys, an (m, k) int64 array, is given, each row receives its point's k
    smallest keys, in partition order: the largest is the last.
    """
    p, m = len(bases), len(point_offsets)
    sums = np.empty(m, dtype=np.int64)
    # rows in chunks of at most _KNN_KEYS keys, through one block for the
    # indices and the keys: with (m, p) arrays per call, or a block per
    # buffer, the allocator could fault their pages in anew
    step = max(1, _KNN_KEYS // p)
    index, key = np.empty((2, min(step, m), p), dtype=np.int64)
    records = np.arange(p)
    for lo in range(0, m, step):
        count = min(step, m - lo)
        np.add(point_offsets[lo:lo + count, None], bases, out=index[:count])
        chunk = key[:count]
        # mode="clip" gathers straight into chunk; every index is in range
        np.take(ranks, index[:count], out=chunk, mode="clip")
        chunk <<= _INDEX_BITS
        chunk += records
        chunk.partition(k - 1, axis=1)
        nearest = chunk[:, :k]
        if keys is not None:
            keys[lo:lo + count] = nearest
        sums[lo:lo + count] = responses[nearest & _INDEX_MASK].sum(axis=1)
    return sums


class _NeighborSets:
    """One profile's neighbor sets on one grid; see the module docstring.

    keys[c] holds grid point c's k smallest keys, worst[c] the largest of
    them and sums[c] the sum of their responses, over the records that
    allocs and responses copy. profile and grid are weak references.
    """

    __slots__ = ("profile", "grid", "k", "allocs", "responses", "keys", "worst", "sums")

    def __init__(self, profile_ref: weakref.ref, grid: "SearchGrid", k: int,
                 lattice: tuple, allocs: np.ndarray, responses: np.ndarray):
        ranks, offsets, bases = lattice
        self.profile, self.grid, self.k = profile_ref, weakref.ref(grid), k
        self.keys = np.empty((grid.size, k), dtype=np.int64)
        self.sums = _nearest(ranks, offsets, bases, responses, k, self.keys)
        self.worst = self.keys[:, k - 1].copy()
        self.allocs, self.responses = allocs.copy(), responses.copy()

    def appended_to(self, grid: "SearchGrid", k: int, allocs: np.ndarray,
                    responses: np.ndarray) -> bool:
        """Whether these sets are for grid and k, and the records only grew since."""
        size = len(self.responses)
        return (self.grid() is grid and self.k == k and size <= len(responses)
                and (responses[:size] == self.responses).all()
                and (allocs[:size] == self.allocs).all())

    def merge(self, ranks: np.ndarray, offsets: np.ndarray, bases: np.ndarray,
              allocs: np.ndarray, responses: np.ndarray) -> None:
        """Merge the appended records, whose bases are given, in index order."""
        keys, worst, sums = self.keys, self.worst, self.sums
        for index, base in enumerate(bases.tolist(), start=len(self.responses)):
            new = np.take(ranks, offsets + base)
            new <<= _INDEX_BITS
            new += index
            rows = np.flatnonzero(new < worst)
            if rows.size:
                old = worst[rows]
                sums[rows] += responses[index] - responses[old & _INDEX_MASK]
                kept = keys[rows]
                # one key per row equals its worst; keys are distinct
                kept[kept == old[:, None]] = new[rows]
                keys[rows] = kept
                worst[rows] = kept.max(axis=1)
        self.allocs, self.responses = allocs.copy(), responses.copy()


def _forget(predictor_ref: weakref.ref, key: int):
    """A weakref callback that drops key from the predictor's sets, if it is still alive."""
    def forget(_):
        predictor = predictor_ref()
        if predictor is not None:
            predictor._sets.pop(key, None)
    return forget


class KnnPredictor:
    """k-nearest-neighbor predictor with the search-facing predict_bounds / predict_grid.

    It keeps each served profile's neighbor sets (see the module
    docstring) without a lock, so one instance must not serve two threads
    at once.
    """

    def __init__(self, k_neighbors: int = 5):
        self.k_neighbors = _neighbor_count(k_neighbors, "k_neighbors")
        #: Each served profile's neighbor sets, by the profile's id().
        self._sets: dict[int, _NeighborSets] = {}

    def __getstate__(self) -> dict:
        # the sets hold weak references, which do not pickle; a copy or an
        # unpickled predictor builds its own on its first call
        return {**self.__dict__, "_sets": {}}

    def _check(self, profile: Profile) -> None:
        if profile.size == 0:
            raise EmptyProfileError("cannot predict against an empty profile")
        if self.k_neighbors > profile.size:
            raise ValueError(
                f"k_neighbors must be in [1, {profile.size}], got {self.k_neighbors}"
            )

    def predict_batch(self, xs: np.ndarray, profile: Profile) -> tuple[np.ndarray, np.ndarray]:
        self._check(profile)
        return _knn_batch(np.asarray(xs, dtype=float), profile, self.k_neighbors)

    def predict_bounds(self, grid: "SearchGrid", profile: Profile
                       ) -> tuple[np.ndarray, np.ndarray]:
        """The interval [min response, max response] at every grid point.

        A mean of k responses lies between the smallest and the largest,
        and so does its float value: the sum of k small integers is exact,
        and dividing by k rounds to a float between them. Both arrays have
        shape (grid.size,).
        """
        self._check(profile)
        responses = profile.response_vector()
        return np.full(grid.size, float(responses.min())), np.full(grid.size, float(responses.max()))

    def predict_grid(self, grid: "SearchGrid", rows, profile: Profile
                     ) -> tuple[np.ndarray, np.ndarray]:
        """predict_batch on grid.points()[rows], from the profile's neighbor sets when it can.

        rows is a slice or an index array into the row-major grid. The sets
        serve when every record is a grid point and the grid has distance
        ranks; they are merged or rebuilt first as the module docstring
        says. The results are then bit-identical to predict_batch, which
        every other case calls.
        """
        self._check(profile)
        k = self.k_neighbors
        allocs, responses = profile.allocation_matrix(), profile.response_vector()
        key = id(profile)
        sets = self._sets.get(key)
        if sets is not None and sets.appended_to(grid, k, allocs, responses):
            if len(sets.responses) < len(responses):
                lattice = _lattice_keys(grid, allocs[len(sets.responses):])
                if lattice is None:
                    del self._sets[key]
                    return self.predict_batch(grid.points()[rows], profile)
                sets.merge(*lattice, allocs, responses)
        else:
            self._sets.pop(key, None)
            lattice = _lattice_keys(grid, allocs)
            if lattice is None:
                return self.predict_batch(grid.points()[rows], profile)
            if grid.size * k > _TABLE_MAX:
                ranks, offsets, bases = lattice
                sums = _nearest(ranks, offsets[rows], bases, responses, k)
                return sums / k, np.full(len(sums), float(k))
            profile_ref = weakref.ref(profile, _forget(weakref.ref(self), key))
            sets = self._sets[key] = _NeighborSets(profile_ref, grid, k, lattice,
                                                   allocs, responses)
        y_star = sets.sums[rows] / k
        return y_star, np.full(len(y_star), float(k))
