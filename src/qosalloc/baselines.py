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
computed per call.

The entry for point c and record r is ranks[offsets[c] + bases[r]], and
each (point, record) pair gets the integer key rank * p + r. Ranks keep
the order and the equality of the float distances, and the record index
breaks ties toward the lowest index as the stable sort does, so the k
smallest keys, found by an in-place partition instead of a full sort, name
exactly the records the sort would take. Their responses are small
integers, so summing them in any order is exact, and the sum divided by k
is the mean. The rows are taken a chunk of at most _KNN_KEYS keys at a
time, so the keys never need an (m, p) array. Every other case calls
predict_batch.

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

#: Most (point, record) keys one chunk of KnnPredictor.predict_grid holds.
_KNN_KEYS = 2**14

#: Most entries in a grid's distance ranks, and most (c, r) pairs in its
#: exactness check; a grid over either limit has no ranks.
_TABLE_MAX = 2**18

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


class KnnPredictor:
    """k-nearest-neighbor predictor with the search-facing predict_bounds / predict_grid."""

    def __init__(self, k_neighbors: int = 5):
        self.k_neighbors = _neighbor_count(k_neighbors, "k_neighbors")

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
        """predict_batch on grid.points()[rows], from the grid's distance ranks when it can.

        rows is a slice or an index array into the row-major grid. The ranks
        serve when every record is a grid point and the grid has them (see
        the module docstring); the results are then bit-identical to
        predict_batch, which every other case calls.
        """
        self._check(profile)
        lattice = _lattice_keys(grid, profile.allocation_matrix())
        if lattice is None:
            return self.predict_batch(grid.points()[rows], profile)
        ranks, offsets, bases = lattice
        p, k = profile.size, self.k_neighbors
        point_offsets = offsets[rows]
        rates = profile.response_vector().astype(float)
        m = len(point_offsets)
        y_star = np.empty(m)
        # rows in chunks of at most _KNN_KEYS keys, through one block for
        # the indices and the keys: with (m, p) arrays per call, or a block
        # per buffer, the allocator could fault their pages in anew
        step = max(1, _KNN_KEYS // p)
        index, key = np.empty((2, min(step, m), p), dtype=np.int64)
        records = np.arange(p)
        for lo in range(0, m, step):
            count = min(step, m - lo)
            np.add(point_offsets[lo:lo + count, None], bases, out=index[:count])
            chunk = key[:count]
            # mode="clip" gathers straight into chunk; every index is in range
            np.take(ranks, index[:count], out=chunk, mode="clip")
            chunk *= p
            chunk += records
            chunk.partition(k - 1, axis=1)
            y_star[lo:lo + count] = rates[chunk[:, :k] % p].sum(axis=1)
        y_star /= k
        return y_star, np.full(m, float(k))
