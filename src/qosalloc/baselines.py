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
same bits faster when every record is a grid point and the grid passes the
kernel table's exactness check. Then the distance between point c and
record r is one entry of the grid's distance-rank table
(SearchGrid.distance_ranks), and each (point, record) pair gets the integer
key rank * p + r. Ranks keep the order and the equality of the float
distances, and the record index breaks ties toward the lowest index as the
stable sort does, so the k smallest keys, found by np.partition instead of
a full sort, name exactly the records the sort would take. Their responses
are small integers, so summing them in any order is exact, and the sum
divided by k is the mean. Every other case calls predict_batch.

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

from .predictor import EmptyProfileError
from .profile import Profile

if TYPE_CHECKING:  # pragma: no cover
    from .search import SearchGrid

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
        serve when every record is a grid point (grid.record_bases) and the
        grid has them (grid.distance_ranks); the results are then
        bit-identical to predict_batch, which every other case calls.
        """
        self._check(profile)
        bases = grid.record_bases(profile.allocation_matrix())
        lattice = None if bases is None else grid.distance_ranks()
        if lattice is None:
            return self.predict_batch(grid.points()[rows], profile)
        ranks, offsets = lattice
        p, k = profile.size, self.k_neighbors
        # scaled in place, so the keys cost one (m, p) array
        key = ranks[offsets[rows, None] + bases]
        key *= p
        key += np.arange(p)
        nearest = np.partition(key, k - 1, axis=1)[:, :k] % p
        y_star = profile.response_vector().astype(float)[nearest].sum(axis=1) / k
        return y_star, np.full(len(y_star), float(k))
