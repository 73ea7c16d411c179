"""Minimum-total-bandwidth search over a discrete allocation grid.

The search space is the lattice {x : x_j = c * step, 0 <= x_j <= B_j}. A
grid point is a member of the target set when its predicted response
reaches the QoS target, which by the half-up rounding rule is exactly
y* >= target - 1/2. Among members the search returns the allocation with
the smallest total bandwidth, breaking ties by highest y* and then by
lexicographically smallest allocation, so results are deterministic.

The search screens the grid before it predicts it. A predictor's
predict_bounds(grid, profile) gives every grid point an interval [lo, hi]
= center +- half_width that holds the exact y* predict_grid would give
there, with one float half-width for the whole grid or an array of them.
Only the points the interval cannot decide are predicted exactly: those
whose hi reaches the threshold, up to the cheapest layer holding a point
whose lo reaches it (a sure member, layer T_sure), and in that layer only
those whose hi reaches its largest lo. The kernel-regression predictor's
interval is an estimate of y* from one matrix product over the separable
kernel, +- 2^-20 L, and is infinite where the estimated kernel sum nears
underflow; the predictor module derives that tolerance. The kNN
predictor's interval is the profile's [min, max] response. Every value a
decision reads still comes from predict_grid, so the result is bit for
bit the one a whole-grid prediction gives. On the 3-link 25,625-point
grid of the stress benchmark a search predicts 2.7 points exactly on
average (at most 8; it was 13.2 before the T_sure layer was pruned, and
about half the grid before the screen).

The candidates are evaluated in blocks of whole total-bandwidth layers,
in increasing total, and the search stops after the first block that
holds a member: that block contains every candidate of the cheapest member
layer, so the tie-breaks see every member of it, and candidates in later
blocks are never predicted. The search cuts each block from the sorted
candidates as it goes: a block holds at least _BLOCK_MIN candidates and at
least as many as all earlier blocks together, ending where the layer that
reaches that count ends, and it runs to the last candidate when fewer than
_BLOCK_MIN would be left. Block sizes so roughly double, and fewer than
2 * _BLOCK_MIN candidates are one block, evaluated in a single predictor
call. The minimum sits above the point where a predictor call's fixed
per-record cost stops dominating its per-point cost. When no candidate is
a member, the search predicts, in one more call, every remaining point
whose hi reaches the largest lo, since only those can hold the highest y*.

The search knows a predictor only through predict_bounds(grid, profile)
and predict_grid(grid, rows, profile), which predicts grid.points(rows)
for one block; see the predictor module for the protocol.

membership_c_form() evaluates the same predicate in an algebraically
rearranged form, C1 + C2 >= C3, that groups kernel weights by response
level. It exists as an independent cross-check of the membership math: each
term is a sum of non-negative contributions, which is what makes the
membership set grow when positive records arrive and shrink when negative
ones do. It takes one allocation of shape (n,) or m of them as an (m, n)
array, through one code path that runs the rows in chunks of at most
_C_FORM_CHUNK float64 per temporary. Per row it computes its own weights
((records - x)**2 summed over the link axis, then exp) and adds each term's
contributions from 0.0 in one np.add.accumulate along the row: C1 and C3
level by level and by record index within a level (one stable argsort of
the responses), C2 by record index. A row's bits therefore do not depend on
its batch. It shares nothing with predict_batch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .predictor import EmptyProfileError, KernelParams, Prediction, round_response
from .profile import Profile

# Tolerance used when mapping per-link maxima onto step counts, so a
# maximum that is an exact multiple of the step (up to float noise) still
# includes its endpoint.
_GRID_EPS = 1e-9

# Fewest grid points in one evaluation block; see the module docstring.
_BLOCK_MIN = 4096

# Most candidates a search predicts without pruning its T_sure layer; see
# search(). Below it the pruning's numpy calls cost more than the rows they
# save.
_PRUNE_MIN = 8

# Most points a grid may hold: about 41 times the 3-link stress grid, and
# at most about 32 MB of grid arrays at 3 links (20 MB on the 101**3 cube,
# whose counts are uint8). A larger grid raises ValueError before any of
# its arrays is built.
_MAX_POINTS = 2**20


@dataclass(frozen=True)
class SearchGrid:
    """Discrete allocation search space of at most _MAX_POINTS points.

    The grid keeps no coordinates per point. It keeps each point's step
    counts, in the smallest unsigned dtype that holds the largest C_j
    (uint8 up to 255 steps per link), and derives coordinates from them on
    demand (points). It also keeps each point's total step count and the
    rows in order of total, both intp. On the 3-link stress grid (25,625
    points) these take 77 KB, 205 KB and 205 KB.

    Attributes
    ----------
    step : float
        Grid step in Mbps; > 0.
    max_per_link : tuple of float
        Per-link maxima B_j; the grid holds every x_j = c * step <= B_j.
    """

    step: float
    max_per_link: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "step", float(self.step))
        object.__setattr__(self, "max_per_link", tuple(float(b) for b in self.max_per_link))
        if not (self.step > 0.0) or not math.isfinite(self.step):
            raise ValueError(f"step must be positive and finite, got {self.step}")
        if len(self.max_per_link) == 0:
            raise ValueError("grid needs at least one link")
        if any(b < 0.0 or not math.isfinite(b) for b in self.max_per_link):
            raise ValueError(f"per-link maxima must be finite and >= 0: {self.max_per_link}")
        # the ratio first: a huge one would overflow steps_per_link's floor
        if any(b / self.step > _MAX_POINTS for b in self.max_per_link) or self.size > _MAX_POINTS:
            raise ValueError(f"grid of step {self.step} over maxima {self.max_per_link} "
                             f"has more than {_MAX_POINTS} points")

    @property
    def link_count(self) -> int:
        return len(self.max_per_link)

    @functools.cached_property
    def steps_per_link(self) -> tuple[int, ...]:
        return tuple(int(math.floor(b / self.step + _GRID_EPS)) for b in self.max_per_link)

    @functools.cached_property
    def size(self) -> int:
        return math.prod(c + 1 for c in self.steps_per_link)

    def points(self, rows=slice(None)) -> np.ndarray:
        """Allocations in Mbps of the grid's rows, row-major: counts[rows] * step.

        rows indexes the row-major grid like a numpy index: an int gives
        one point of shape (n,); a slice, an integer index array or a
        boolean mask an (m, n) array; the default is the whole grid. The
        result is a new array on every call, looked up per count in a
        table of c * step over c = 0..max C_j, so each coordinate has the
        bits of float64(c) * step whatever the rows.
        """
        if isinstance(rows, np.ndarray) and rows.dtype.kind in "iu":
            counts = self._counts.take(rows, axis=0)  # cheaper than a fancy index
        else:
            counts = self._counts[rows]
        return self._coords.take(counts)

    def totals(self) -> np.ndarray:
        """Total step count of every grid point, shape (size,); built once, read-only."""
        return self._totals

    def by_total_order(self) -> np.ndarray:
        """Row indices sorted by total step count, row-major within a total.

        A stable sort, so equal totals keep row-major (lexicographic)
        order. Built on first use and returned read-only.
        """
        return self._by_total

    def link_values(self) -> tuple[np.ndarray, np.ndarray]:
        """Every link's grid values c * step, c = 0..C_j, stacked link by link.

        Returns (values, links) with sum_j (C_j + 1) entries each: links[r]
        is the link that values[r] belongs to. Built once, read-only.
        """
        return self._link_values

    @functools.cached_property
    def _counts(self) -> np.ndarray:
        dtype = np.min_scalar_type(max(self.steps_per_link))
        axes = [np.arange(c + 1, dtype=dtype) for c in self.steps_per_link]
        mesh = np.meshgrid(*axes, indexing="ij")
        counts = np.stack(mesh, axis=-1).reshape(-1, self.link_count)
        counts.flags.writeable = False
        return counts

    @functools.cached_property
    def _coords(self) -> np.ndarray:
        """Entry c is c * step, c = 0..max C_j: a lookup, cheaper than a cast and multiply."""
        coords = np.arange(max(self.steps_per_link) + 1) * self.step
        coords.flags.writeable = False
        return coords

    @functools.cached_property
    def _link_values(self) -> tuple[np.ndarray, np.ndarray]:
        values = np.concatenate([self._coords[:c + 1] for c in self.steps_per_link])
        links = np.repeat(np.arange(self.link_count), [c + 1 for c in self.steps_per_link])
        values.flags.writeable = False
        links.flags.writeable = False
        return values, links

    @functools.cached_property
    def _totals(self) -> np.ndarray:
        # intp, not the smallest dtype: uint8 totals would save 180 KB on
        # the stress grid, but the search would then run numpy's uint8
        # loops, whose code raised a small run's peak RSS by about 0.3 MB
        totals = self._counts.sum(axis=1, dtype=np.intp)
        totals.flags.writeable = False
        return totals

    @functools.cached_property
    def _by_total(self) -> np.ndarray:
        # intp: numpy casts any other index dtype to it on every fancy index
        order = np.argsort(self._totals, kind="stable")
        order.flags.writeable = False
        return order

    @functools.cached_property
    def _layer_ends(self) -> np.ndarray:
        """Entry t is the number of grid points with total step count <= t."""
        return np.cumsum(np.bincount(self._totals))


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of one grid search.

    feasible_found is True when some grid point was predicted to meet the
    target; allocation is then the cheapest such point. Otherwise
    allocation is the grid point with the highest predicted response, so a
    controller always has something to apply.
    """

    allocation: tuple[float, ...]
    total: float
    prediction: Prediction
    feasible_found: bool


def membership_c_form(
    x: Sequence[float] | np.ndarray, profile: Profile, kernel: KernelParams, target: int
) -> tuple:
    """Membership via the level-grouped form; returns (C1, C2, C3, member).

    C1 collects (u - target) * weight over records at levels u >= target,
    C2 is half the total weight, C3 collects (target - u) * weight over
    records below the target. Membership holds iff C1 + C2 >= C3. Agrees
    with the direct test y* >= target - 1/2 (predict) up to float
    re-association at the set boundary.

    x is one allocation of shape (n,), which gives three Python floats and
    a bool, or m allocations of shape (m, n), which give four arrays of
    shape (m,); m may be 0. Both shapes run the same code, row chunk by row
    chunk, so every row of a batch has the bits of the one-point call.
    Raises EmptyProfileError for an empty profile and ValueError for any
    other shape.
    """
    if profile.size == 0:
        raise EmptyProfileError("cannot evaluate membership against an empty profile")
    xv = np.asarray(x, dtype=float)
    n, p = profile.link_count, profile.size
    if xv.ndim not in (1, 2) or xv.shape[-1] != n:
        raise ValueError(f"allocations must have shape ({n},) or (m, {n}), got {xv.shape}")
    xs = xv.reshape(-1, n)
    allocs = profile.allocation_matrix()
    responses = profile.response_vector()
    # records by level, then by index: the order C1 and C3 add them in
    order = np.argsort(responses, kind="stable")
    split = int(np.searchsorted(responses[order], target))
    below, above = order[:split], order[split:]
    gains, gaps = responses[above] - target, target - responses[below]
    c1, c2, c3 = np.empty(len(xs)), np.empty(len(xs)), np.empty(len(xs))
    rows = max(1, _C_FORM_CHUNK // ((p + 1) * n))
    for start in range(0, len(xs), rows):
        part = slice(start, start + rows)
        d2 = ((allocs - xs[part, None, :]) ** 2).sum(axis=-1)
        weights = np.exp(-d2 / kernel.sigma2)
        c1[part] = _sums_in_order(gains * weights[:, above])
        c2[part] = _sums_in_order(weights) * 0.5
        c3[part] = _sums_in_order(gaps * weights[:, below])
    member = c1 + c2 >= c3
    if xv.ndim == 1:
        return float(c1[0]), float(c2[0]), float(c3[0]), bool(member[0])
    return c1, c2, c3, member


#: Most float64 elements in any per-chunk temporary of membership_c_form
#: (128 KB): a larger per-call array is one that malloc may map fresh, or
#: trim away, on every call, and its pages then fault in again.
_C_FORM_CHUNK = 2**14


def _sums_in_order(values: np.ndarray) -> np.ndarray:
    """Per row r: 0.0 + values[r, 0] + values[r, 1] + ..., added left to right."""
    padded = np.concatenate((np.zeros((len(values), 1)), values), axis=1)
    return np.add.accumulate(padded, axis=1)[:, -1]


def search(grid: SearchGrid, profile: Profile, predictor, target: int) -> AllocationResult:
    """Search the grid for the cheapest allocation meeting target.

    predictor is any object with predict_bounds(grid, profile) and
    predict_grid(grid, rows, profile), such as GrnnPredictor or
    KnnPredictor. Ties on total bandwidth go to the highest predicted y*,
    then to the lexicographically smallest allocation. When no grid point
    is predicted feasible the result carries feasible_found=False and the
    point with the highest y* (ties lexicographic). An empty profile raises
    EmptyProfileError.

    The search first screens the grid: predict_bounds gives an interval
    [lo, hi] = center +- half_width that holds each point's exact y*, and
    only the points the interval cannot rule out are predicted exactly.
    With threshold = target - 1/2, a point with lo >= threshold is surely
    a member; let T_sure be the smallest total of such a point (infinite
    if none). The candidates are the points with hi >= threshold and
    total <= T_sure: every member of the cheapest member layer is among
    them, since that layer's total is at most T_sure and a member has y*
    >= threshold. When T_sure is below the largest total (whose layer is
    one point) and there are more than _PRUNE_MIN candidates, the T_sure
    layer keeps only its candidates whose hi reaches B, the largest lo
    among them, which is a sure member's. That is exact: if the layer is
    the cheapest member layer, its winner has y* >= B, as has every point
    that ties it, so hi >= B; otherwise a lower layer, which is not
    pruned, holds the winner. With one float width w, hi >= B is center
    >= max(center) - 2 w over the layer, and sure is center >= threshold
    + w; the predictor's tolerance covers their rounding. The candidates
    are predicted in whole-layer blocks of increasing total, cut as the
    module docstring says, and the search stops after the first block
    holding a member, which holds every member of its cheapest layer for
    the tie-breaks. With no member among the
    candidates there is none on the grid; the search then also predicts
    every point not yet predicted with hi >= max(lo), since no other point
    can reach the highest y*, and takes the highest y*. Every value a
    decision reads comes from predict_grid, which predicts each row
    independently of its batch, so the result is the one an exact
    prediction of the whole grid gives.
    """
    if profile.size == 0:
        raise EmptyProfileError("cannot search against an empty profile")
    if grid.link_count != profile.link_count:
        raise ValueError(
            f"grid has {grid.link_count} links but profile has {profile.link_count}"
        )
    threshold = target - 0.5
    center, width = predictor.predict_bounds(grid, profile)
    one_width = np.ndim(width) == 0
    totals = grid.totals()
    layer_ends = grid._layer_ends
    last = len(layer_ends) - 1
    sure = center >= threshold + width if one_width else center - width >= threshold
    # T_sure, or the largest total when no point is a sure member
    t_sure = np.minimum.reduce(totals, where=sure, initial=last)
    cheap = grid.by_total_order()[:layer_ends[t_sure]]  # every point with total <= T_sure
    maybe = center[cheap] >= threshold - width if one_width else \
        center[cheap] + width[cheap] >= threshold
    rows = cheap[maybe]
    if t_sure < last and len(rows) > _PRUNE_MIN:
        # the T_sure layer holds a sure member: only its points whose hi
        # reaches the layer's largest lo can win it
        first = np.count_nonzero(maybe[:layer_ends[t_sure - 1]]) if t_sure else 0
        top = rows[first:]
        keep = _may_hold_highest(center[top], width if one_width else width[top])
        rows = np.concatenate((rows[:first], top[keep]))
    size = len(rows)
    # the candidates' totals, which only a cut into two or more blocks reads
    row_totals = totals[rows] if size >= 2 * _BLOCK_MIN else None
    predicted = []  # (rows, y*, kernel sums) of every predicted block
    start = 0
    while start < size:
        # the block ends with the layer of its want-th candidate, or with
        # the last candidate when fewer than _BLOCK_MIN would be left
        want = start + max(_BLOCK_MIN, start)
        end = size
        if size - want >= _BLOCK_MIN:
            layer_end = int(np.searchsorted(row_totals, row_totals[want - 1], side="right"))
            if size - layer_end >= _BLOCK_MIN:
                end = layer_end
        block = rows[start:end]
        start = end
        y_star, kernel_sum = predictor.predict_grid(grid, block, profile)
        predicted.append((block, y_star, kernel_sum))
        members = y_star >= threshold
        if members.any():
            block_totals = totals[block]
            layer = block_totals == block_totals[members].min()
            # a layer's members out-predict its other points, and its rows
            # ascend: the first highest y* in it is the lowest tied member
            k = int(np.where(layer, y_star, -np.inf).argmax())
            feasible = True
            break
    else:
        reach = _may_hold_highest(center, width)
        reach[rows] = False  # predicted already
        extra = np.flatnonzero(reach)
        if extra.size:
            predicted.append((extra, *predictor.predict_grid(grid, extra, profile)))
        block, y_star, kernel_sum = (np.concatenate(parts) for parts in zip(*predicted))
        best = y_star == y_star.max()
        k = np.flatnonzero(best)[np.argmin(block[best])]  # ties: the lowest row
        feasible = False
    point = grid.points(block[k])
    ys = float(y_star[k])
    return AllocationResult(
        allocation=tuple(point.tolist()),
        total=float(point.sum()),
        prediction=Prediction(y_star=ys, y_hat=round_response(ys, profile.level_count),
                              kernel_sum=float(kernel_sum[k])),
        feasible_found=feasible,
    )


def _may_hold_highest(center: np.ndarray, width) -> np.ndarray:
    """Where hi reaches the largest lo of the intervals center +- width.

    No other point can hold the highest y* among them, nor tie it. With
    one float width that is center >= max(center) - 2 width.
    """
    if np.ndim(width) == 0:
        return center >= center.max() - 2 * width
    return center + width >= (center - width).max()
