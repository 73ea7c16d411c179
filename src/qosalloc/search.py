"""Minimum-total-bandwidth search over a discrete allocation grid.

The search space is the lattice {x : x_j = c * step, 0 <= x_j <= B_j}. A
grid point is a member of the target set when its predicted response
reaches the QoS target, which by the half-up rounding rule is exactly
y* >= target - 1/2. Among members the search returns the allocation with
the smallest total bandwidth, breaking ties by highest y* and then by
lexicographically smallest allocation, so results are deterministic.

The search screens the grid before it predicts it. A predictor's
predict_bounds(grid, profile) gives every grid point an interval [lo, hi]
that holds the exact y* predict_grid would give there, and only the
points the interval cannot decide are predicted exactly: those whose hi
reaches the threshold, up to the cheapest layer holding a point whose lo
reaches it (a sure member). The kernel-regression predictor's interval is
an estimate of y* from one matrix product over the separable kernel,
+- 2^-20 L, and is infinite where the estimated kernel sum nears
underflow; the predictor module derives that tolerance. The kNN
predictor's interval is the profile's [min, max] response. Every value a
decision reads still comes from predict_grid, so the result is bit for
bit the one a whole-grid prediction gives. On the 3-link 25,625-point
grid of the stress benchmark a search predicts 10 to 16 points exactly on
average, where it predicted about half the grid before.

The candidates are evaluated in blocks of whole total-bandwidth layers,
in increasing total, and the search stops after the first block that
holds a member: that block contains every candidate of the cheapest member
layer, so the tie-breaks see every member of it, and points in later
blocks are never predicted. Each block holds at least _BLOCK_MIN points,
and every block but the last at least as many as all earlier blocks
together, so block sizes roughly double and fewer than 2 * _BLOCK_MIN
candidates are one block, evaluated in a single predictor call. The
minimum sits above the point where a predictor call's fixed per-record
cost stops dominating its per-point cost. grid.blocks() is the same rule
over the whole grid, which is what a search evaluates when the interval
rules out no point. When no candidate is a member, the search predicts,
in one more call, every remaining point whose hi reaches the largest lo,
since only those can hold the highest y*.

The search knows a predictor only through predict_bounds(grid, profile)
and predict_grid(grid, rows, profile), which predicts grid.points()[rows]
for one block; see the predictor module for the protocol. The
kernel-regression predictor usually reads a block's kernel weights from a
table instead of computing them. When every profile record is a grid
point, the weight between grid point c and record r depends only on the
step-count offset c - r, so one table per (grid, sigma2) of
prod_j (2 C_j + 1) entries holds them all: 3,969 entries (31 KB) on the
2-link reference grid, 194,481 (1.56 MB) on the 3-link 25,625-point grid. SearchGrid.kernel_table builds it with predict_batch's
float operations in predict_batch's order and caches it on the grid, and
the shared accumulation loop in the predictor gathers from it, so every
output bit is the one predict_batch gives. The table needs a grid that
passes its exactness check ((c * step - r * step)**2 depends on c - r
alone, as computed; true of steps such as 0.5, 1.25 or 2.5, not of 0.7)
within _TABLE_MAX, and records that all equal grid points.

The kNN predictor reads the same lattice a second way: the grid's
distance_ranks hold, per offset, the rank of the squared distance
sum_j D_j[c_j - r_j] among the distinct values of that sum. They are laid
out like the kernel table and built from the same sum (one flat array,
added link 0 first), so ranks compare exactly as the float distances do.
They are built only when a kNN predictor searches a grid whose records all
sit on it, and need the same exactness check and limits as the kernel
table, plus fewer than 8 links: numpy sums longer rows pairwise, and the
kNN distances would then follow that order instead of link order.

membership_c_form() evaluates the same predicate in an algebraically
rearranged form, C1 + C2 >= C3, that groups kernel weights by response
level. It exists as an independent cross-check of the membership math: each
term is a sum of non-negative contributions, which is what makes the
membership set grow when positive records arrive and shrink when negative
ones do.
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

# Most entries in a grid's kernel table, and most (c, r) pairs in its
# exactness check; a grid over either limit is searched without the table.
_TABLE_MAX = 2**18

# Fewest values numpy sums pairwise when it reduces a row; shorter rows are
# added left to right, in link order.
_PAIRWISE_LINKS = 8


@dataclass(frozen=True)
class SearchGrid:
    """Discrete allocation search space.

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
        object.__setattr__(self, "max_per_link", tuple(float(b) for b in self.max_per_link))
        if not (self.step > 0.0) or not math.isfinite(self.step):
            raise ValueError(f"step must be positive and finite, got {self.step}")
        if len(self.max_per_link) == 0:
            raise ValueError("grid needs at least one link")
        if any(b < 0.0 or not math.isfinite(b) for b in self.max_per_link):
            raise ValueError(f"per-link maxima must be finite and >= 0: {self.max_per_link}")

    @property
    def link_count(self) -> int:
        return len(self.max_per_link)

    @property
    def steps_per_link(self) -> tuple[int, ...]:
        return tuple(int(math.floor(b / self.step + _GRID_EPS)) for b in self.max_per_link)

    @property
    def size(self) -> int:
        n = 1
        for c in self.steps_per_link:
            n *= c + 1
        return n

    def counts(self) -> np.ndarray:
        """Integer step counts of every grid point, shape (size, n), row-major.

        Built once per grid and returned read-only.
        """
        return self._counts

    def points(self) -> np.ndarray:
        """Grid allocations in Mbps, shape (size, n), row-major; read-only."""
        return self._points

    def totals(self) -> np.ndarray:
        """Total step count of every grid point, shape (size,); built once, read-only."""
        return self._totals

    def by_total_order(self) -> np.ndarray:
        """Row indices sorted by total step count, row-major within a total.

        A stable sort, so equal totals keep row-major (lexicographic)
        order. Built on first use and returned read-only.
        """
        return self._by_total

    def blocks(self) -> tuple[np.ndarray | slice, ...]:
        """The grid split into evaluation blocks, as row indices per block.

        These are the blocks a search predicts when every point is a
        candidate. Blocks hold whole total-step layers and come in
        increasing total; each indexes the row-major grid. Each block holds
        at least _BLOCK_MIN points and every block but the last at least as
        many as all earlier blocks together. A grid that forms one block
        yields (slice(None),). Built on first use; the arrays are read-only
        views of by_total_order().
        """
        return self._blocks

    def kernel_table(self, sigma2: float) -> tuple[np.ndarray, np.ndarray] | None:
        """The grid's kernel table for sigma2, and each point's offset into it.

        On the lattice, the kernel weight between grid points at step
        counts c and r depends only on the offset c - r. The table holds
        it for every offset, exp(sum_j D_j[c_j - r_j] / -sigma2), flattened
        row-major over offsets shifted into [0, 2 C_j], where D_j[c - r]
        is (c * step - r * step)**2 as numpy computes it. The entry for
        point c and a record at r (see record_bases) is
        table[offsets[c] + base[r]]. The table is built with predict_batch's
        float operations in its order: link 0 first, then division by
        -sigma2, then exp in place on a contiguous array, so each entry
        equals predict_batch's weight bit for bit.

        Returns None when the grid fails its exactness check (some pair c,
        r with (c * step - r * step)**2 != D_j[c - r]; steps such as 0.5,
        1.25 or 2.5 pass, 0.7 does not) or when the table or the check
        would exceed _TABLE_MAX entries. The table for the last sigma2
        asked for is cached on the grid and returned read-only.
        """
        if not self._lattice_exact:
            return None
        tables = self._tables
        if sigma2 not in tables:
            table = self._offset_distances()
            np.divide(table, -sigma2, out=table)
            np.exp(table, out=table)
            table.flags.writeable = False
            tables.clear()
            tables[sigma2] = table
        return tables[sigma2], self._table_offsets

    def distance_ranks(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Rank of every offset's squared distance, and each point's offset.

        Laid out like kernel_table: the entry for point c and a record at r
        is ranks[offsets[c] + base[r]]. Each entry is the int64 rank of
        sum_j D_j[c_j - r_j], added link 0 first, among the distinct values
        of that sum over all offsets, so two entries compare as the float
        distances do, equality included. On the grid those distances are
        bit for bit the ones the kNN predictor computes for a point and a
        record, so ranks order neighbors as its sort does. On the 2-link
        reference grid the ranks are 3,969 int64 entries (31 KB).

        Returns None when kernel_table would, or when the grid has
        _PAIRWISE_LINKS links or more: numpy sums a row of that many
        values pairwise, not left to right, so its distances may round
        differently. Built on first use, cached apart from the kernel
        table's one-sigma2 cache, and returned read-only.
        """
        ranks = self._ranks
        return None if ranks is None else (ranks, self._table_offsets)

    def record_bases(self, allocs: np.ndarray) -> np.ndarray | None:
        """Each record's base offset into the kernel table and the distance ranks, or None.

        allocs is a (p, n) array of record allocations. A record has a base
        only if it is a grid point: on every link its allocation equals
        r * step for a step count 0 <= r <= C_j. If any record is not,
        the result is None and the table cannot serve the profile. Records
        with another link count than the grid's raise ValueError.
        """
        if allocs.shape[1] != self.link_count:
            raise ValueError(
                f"grid has {self.link_count} links but records have {allocs.shape[1]}"
            )
        steps = np.asarray(self.steps_per_link)
        counts = np.rint(allocs / self.step)
        if not ((counts >= 0) & (counts <= steps)).all():
            return None
        counts = counts.astype(np.intp)
        if not np.array_equal(counts * self.step, allocs):
            return None
        return (steps - counts) @ self._table_strides

    @functools.cached_property
    def _counts(self) -> np.ndarray:
        axes = [np.arange(c + 1) for c in self.steps_per_link]
        mesh = np.meshgrid(*axes, indexing="ij")
        counts = np.stack(mesh, axis=-1).reshape(-1, self.link_count)
        counts.flags.writeable = False
        return counts

    @functools.cached_property
    def _points(self) -> np.ndarray:
        points = self._counts * self.step
        points.flags.writeable = False
        return points

    @functools.cached_property
    def _totals(self) -> np.ndarray:
        totals = self._counts.sum(axis=1)
        totals.flags.writeable = False
        return totals

    @functools.cached_property
    def _by_total(self) -> np.ndarray:
        order = np.argsort(self._totals, kind="stable")
        order.flags.writeable = False
        return order

    @functools.cached_property
    def _blocks(self) -> tuple[np.ndarray | slice, ...]:
        order = self.by_total_order()
        blocks = _layer_blocks(order, self._totals[order])
        return (slice(None),) if len(blocks) == 1 else blocks

    @functools.cached_property
    def _table_strides(self) -> np.ndarray:
        """Row-major strides of the table, whose axis j has 2 C_j + 1 offsets."""
        dims = [2 * c + 1 for c in self.steps_per_link]
        return np.array([math.prod(dims[j + 1:]) for j in range(len(dims))], dtype=np.intp)

    @functools.cached_property
    def _table_offsets(self) -> np.ndarray:
        offsets = self._counts @ self._table_strides
        offsets.flags.writeable = False
        return offsets

    def _offset_distances(self) -> np.ndarray:
        """A new flat array of sum_j D_j[c_j - r_j] for every table offset, link 0 first."""
        c_max = max(self.steps_per_link)
        table = None
        for c in self.steps_per_link:
            d = self._offset_squares[c_max - c:c_max + c + 1]
            table = d.copy() if table is None else np.add.outer(table, d)
        return table.reshape(-1)

    @functools.cached_property
    def _ranks(self) -> np.ndarray | None:
        if not self._lattice_exact or self.link_count >= _PAIRWISE_LINKS:
            return None
        ranks = np.unique(self._offset_distances(), return_inverse=True)[1]
        ranks.flags.writeable = False
        return ranks

    @functools.cached_property
    def _offset_squares(self) -> np.ndarray:
        """D[delta + C] = (delta * step)**2 for delta in [-C, C], C the largest count."""
        c_max = max(self.steps_per_link)
        return np.square(np.arange(-c_max, c_max + 1, dtype=float) * self.step)

    @functools.cached_property
    def _lattice_exact(self) -> bool:
        """The exactness check behind kernel_table, within the size limits.

        Every link shares the step, so link j's D_j is the middle of D and
        its (c, r) pairs are a corner of the one check over the largest
        count C.
        """
        steps = self.steps_per_link
        c_max = max(steps)
        if (c_max + 1) ** 2 > _TABLE_MAX or math.prod(2 * c + 1 for c in steps) > _TABLE_MAX:
            return False
        v = np.arange(c_max + 1, dtype=float) * self.step
        actual = np.square(v[None, :] - v[:, None])  # [r, c]: (c * step - r * step)**2
        # [r, c]: D[c - r + C], row r being the window of D that starts at C - r
        expected = np.lib.stride_tricks.sliding_window_view(self._offset_squares, c_max + 1)
        return bool(np.array_equal(actual, expected[::-1]))

    @functools.cached_property
    def _tables(self) -> dict:
        return {}


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
    x: Sequence[float], profile: Profile, kernel: KernelParams, target: int
) -> tuple[float, float, float, bool]:
    """Membership via the level-grouped form; returns (C1, C2, C3, member).

    C1 collects (u - target) * weight over records at levels u >= target,
    C2 is half the total weight, C3 collects (target - u) * weight over
    records below the target. Membership holds iff C1 + C2 >= C3. Agrees
    with the direct test y* >= target - 1/2 (predict) up to float
    re-association at the set boundary.
    """
    if profile.size == 0:
        raise EmptyProfileError("cannot evaluate membership against an empty profile")
    xv = np.asarray(x, dtype=float)
    allocs = profile.allocation_matrix()
    responses = profile.response_vector()
    if xv.shape != (profile.link_count,):
        raise ValueError(f"allocation must have {profile.link_count} links, got {xv.shape}")
    d2 = ((allocs - xv) ** 2).sum(axis=1)
    weights = np.exp(-d2 / kernel.sigma2)
    c1 = 0.0
    for u in range(target, profile.level_count + 1):
        for i in np.flatnonzero(responses == u):
            c1 += (u - target) * float(weights[i])
    c2 = 0.0
    for i in range(profile.size):
        c2 += float(weights[i])
    c2 *= 0.5
    c3 = 0.0
    for u in range(1, target):
        for i in np.flatnonzero(responses == u):
            c3 += (target - u) * float(weights[i])
    return c1, c2, c3, bool(c1 + c2 >= c3)


def _layer_blocks(rows: np.ndarray, totals: np.ndarray) -> tuple[np.ndarray, ...]:
    """rows, sorted by total, split into blocks of whole layers; totals are theirs.

    Each block holds at least _BLOCK_MIN rows and every block but the last
    at least as many as all earlier blocks together, so fewer than
    2 * _BLOCK_MIN rows are one block, and no rows are no block. Blocks
    are views of rows.
    """
    size = len(rows)
    if size < 2 * _BLOCK_MIN:
        return (rows,) if size else ()
    bounds = [0]
    for end in (np.flatnonzero(np.diff(totals)) + 1).tolist():
        lo = bounds[-1]
        if end - lo >= max(_BLOCK_MIN, lo) and size - end >= _BLOCK_MIN:
            bounds.append(end)
    bounds.append(size)
    return tuple(rows[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))


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
    [lo, hi] that holds each point's exact y*, and only the points the
    interval cannot rule out are predicted exactly. With threshold =
    target - 1/2, a point with lo >= threshold is surely a member; let
    T_sure be the smallest total of such a point (infinite if none). The
    candidates are the points with hi >= threshold and total <= T_sure:
    every member of the cheapest member layer is among them, since that
    layer's total is at most T_sure and a member has y* >= threshold. The
    candidates are predicted in whole-layer blocks of increasing total
    (the grid.blocks() rule applied to the candidate rows; all of
    grid.blocks() when every point is a candidate), and the search stops
    after the first block holding a member, which holds every member of
    its cheapest layer for the tie-breaks. With no member among the
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
    lo, hi = predictor.predict_bounds(grid, profile)
    totals = grid.totals()
    order = grid.by_total_order()
    sure = totals[lo >= threshold]
    candidate = hi >= threshold
    if sure.size:
        candidate &= totals <= sure.min()
    rows = order[candidate[order]]
    blocks = grid.blocks() if len(rows) == len(totals) else _layer_blocks(rows, totals[rows])
    predicted = []  # (rows, y*, kernel sums) of every predicted block
    for block in blocks:
        y_star, kernel_sum = predictor.predict_grid(grid, block, profile)
        block = np.arange(len(totals))[block] if isinstance(block, slice) else block
        predicted.append((block, y_star, kernel_sum))
        members = y_star >= threshold
        if members.any():
            block_totals = totals[block]
            best = members & (block_totals == block_totals[members].min())
            best &= y_star == y_star[best].max()
            feasible = True
            break
    else:
        extra = np.flatnonzero((hi >= lo.max()) & ~candidate)
        if extra.size:
            predicted.append((extra, *predictor.predict_grid(grid, extra, profile)))
        block, y_star, kernel_sum = (np.concatenate(parts) for parts in zip(*predicted))
        best = y_star == y_star.max()
        feasible = False
    k = np.flatnonzero(best)[np.argmin(block[best])]  # ties: the lowest row
    point = grid.counts()[block[k]] * grid.step
    ys = float(y_star[k])
    return AllocationResult(
        allocation=tuple(float(v) for v in point),
        total=float(point.sum()),
        prediction=Prediction(y_star=ys, y_hat=round_response(ys, profile.level_count),
                              kernel_sum=float(kernel_sum[k])),
        feasible_found=feasible,
    )
