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
record index), and the mean response of the first k. predict_grid gets
the same bits from neighbor sets. For every point they serve, the sets
hold its k nearest records' squared distances and indices, in the stable
sort's order, and the int64 sum of their responses. Each row is exactly
the first k of the stable argsort of that point's distances to the
records taken so far, and predict_grid returns sums[rows] / k: responses
are small integers, so their sum is exact, and dividing it by k gives the
mean bit for bit.

The sets start from the first k records, sorted stably, and take every
later record in index order by one merge. A merge is exact for any
records and any link count. The record's distances come from
_squared_distances, the expression predict_batch evaluates, so they are
the same floats. Its index is above every member's, so the stable sort
puts it after every member at an equal distance. It enters a row only
where it is strictly nearer than the row's last member, which it evicts,
and it goes after the members at a distance <= its own. The row's sum
moves by the exact difference of the two responses.

A KnnPredictor keeps the sets of each profile it serves, over its whole
grid, in the per-profile entry that predictor._KeepsState owns for every
stateful predictor. The entry is keyed by the profile's identity and
holds it, and its grid, only weakly: it goes when the profile or the
predictor goes, and nothing refers back to the predictor. A later call
merges the records the profile appended since. Every other change builds
the sets anew: the first call, another grid object or k, or any record or
response of the earlier ones changed (the entry keeps copies of them and
compares them on each call), as a bounded profile does at capacity. The
sets hold grid.size * k (distance, index) pairs, 16 bytes each, and the
grid's points, which the grid computes on each call. Above _SETS_MAX
pairs (4 MB) a call builds sets over the requested rows only and keeps
nothing. On the 2-link reference grid with k = 5 they hold 5,125 pairs,
82 KB, one int64 sum per point and 16 KB of points. The entries are
plain state without a lock: one KnnPredictor must not serve two threads
at once.

KnnPredictor.predict_bounds is the profile's constant [min, max] response
interval, so a kNN search predicts as many points as an unscreened search
would, except when every record's response reaches the target: then every
point is a member, and only the origin is predicted.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .predictor import EmptyProfileError, _KeepsState
from .profile import Profile

if TYPE_CHECKING:  # pragma: no cover
    from .search import SearchGrid

#: Most (distance, index) pairs one profile's kept neighbor sets hold.
_SETS_MAX = 2**18

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


def _squared_distances(xs: np.ndarray, allocs: np.ndarray) -> np.ndarray:
    """(m, p) squared distances from each row of xs to each row of allocs.

    The one expression both kNN paths evaluate. For row-major xs, as grid
    points are, each entry sums the same n squares in the same order
    whatever m and p are, so a column computed for one record equals the
    column computed for all of them.
    """
    return ((xs[:, None, :] - allocs[None, :, :]) ** 2).sum(axis=2)


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
    d2 = _squared_distances(xs, allocs)
    # stable sort keeps the lowest record index on distance ties
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    y_star = responses[order].mean(axis=1)
    return y_star, np.full(xs.shape[0], float(k))


class _NeighborSets:
    """Neighbor sets over points; see the module docstring.

    dist[c] and index[c] hold point c's k nearest records' squared
    distances and indices in the stable sort's order, and sums[c] the sum
    of their responses, over the records merged so far. points are the
    points the sets serve, kept for later merges.
    """

    __slots__ = ("points", "k", "dist", "index", "sums")

    def __init__(self, points: np.ndarray, k: int, allocs: np.ndarray, responses: np.ndarray):
        d2 = _squared_distances(points, allocs[:k])
        self.index = np.argsort(d2, axis=1, kind="stable")
        self.dist = np.take_along_axis(d2, self.index, axis=1)
        self.sums = responses[self.index].sum(axis=1)
        self.points, self.k = points, k
        self.merge(allocs, responses, k)

    def merge(self, allocs: np.ndarray, responses: np.ndarray, start: int) -> None:
        """Merge the records from index start on, in index order."""
        points, dist, index, sums, k = self.points, self.dist, self.index, self.sums, self.k
        for i in range(start, len(responses)):
            d2 = _squared_distances(points, allocs[i:i + 1])[:, 0]
            rows = np.flatnonzero(d2 < dist[:, -1])
            if rows.size:
                near, nearest = dist[rows], index[rows]
                sums[rows] += responses[i] - responses[nearest[:, -1]]
                # the record replaces the last member, and a stable sort puts
                # it after the members at a distance <= its own
                near[:, -1], nearest[:, -1] = d2[rows], i
                order = near.argsort(axis=1, kind="stable")
                order += np.arange(0, rows.size * k, k)[:, None]
                dist[rows], index[rows] = near.take(order), nearest.take(order)


class KnnPredictor(_KeepsState):
    """k-nearest-neighbor predictor with the search-facing predict_bounds / predict_grid.

    It keeps each served profile's neighbor sets (see the module
    docstring) without a lock, so one instance must not serve two threads
    at once.
    """

    def __init__(self, k_neighbors: int = 5):
        super().__init__()
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
                       ) -> tuple[np.ndarray, float]:
        """The interval [min response, max response] at every grid point, as (center, half_width).

        A mean of k responses lies between the smallest and the largest,
        and so does its float value: the sum of k small integers is exact,
        and dividing by k rounds to a float between them. center has shape
        (grid.size,); the one half_width is a float. Both are halves of
        small integers, so center +- half_width are exactly the extremes.
        """
        self._check(profile)
        responses = profile.response_vector()
        least, most = float(responses.min()), float(responses.max())
        return np.full(grid.size, (least + most) / 2), (most - least) / 2

    def predict_grid(self, grid: "SearchGrid", rows, profile: Profile
                     ) -> tuple[np.ndarray, np.ndarray]:
        """predict_batch on grid.points(rows), bit for bit, from neighbor sets.

        rows is a slice or an index array into the row-major grid. The
        profile's kept sets are merged or built first as the module
        docstring says; above _SETS_MAX, sets over the rows alone serve
        and are not kept. Records with another link count than the grid's
        raise ValueError.
        """
        self._check(profile)
        k = self.k_neighbors
        allocs, responses = profile.allocation_matrix(), profile.response_vector()
        if allocs.shape[1] != grid.link_count:
            raise ValueError(f"grid has {grid.link_count} links but records have {allocs.shape[1]}")
        entry = self._changes(grid, profile, k, allocs, responses)
        if entry is not None and not len(entry.replaced):
            sets = entry.value
            if entry.appended:
                sets.merge(allocs, responses, entry.appended.start)
        elif grid.size * k > _SETS_MAX:
            sums = _NeighborSets(grid.points(rows), k, allocs, responses).sums
            return sums / k, np.full(len(sums), float(k))
        else:
            sets, entry = _NeighborSets(grid.points(), k, allocs, responses), None
        self._keep(grid, profile, k, sets, entry)
        y_star = sets.sums[rows] / k
        return y_star, np.full(len(y_star), float(k))
