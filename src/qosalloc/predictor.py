"""Kernel-regression response prediction over a profile of past records.

The predicted response for a candidate allocation is a Gaussian-kernel
weighted mean of the profile's recorded response levels:

    y* = sum_i y_i * w_i / sum_i w_i,   w_i = exp(-D(x, x_i) / sigma2)

where D is the squared Euclidean distance between allocations. The integer
prediction y_hat rounds y* half-up and clamps to [1, L]; half-up makes
"y_hat >= a" and "y* >= a - 1/2" the same set, which the allocation search
relies on.

Summation over profile records is fixed-precision left-to-right in record
(insertion) order. Appending a record therefore leaves all partial sums for
the existing records bit-identical, which keeps the membership-set
monotonicity checks numerically stable.

predict_batch evaluates link-major and record-chunked: the candidates are
transposed once into per-link columns (a contiguous copy above
_STRIDED_MAX candidates), and the records are taken k at a time, so one
chunk's (k, m) distances and weights cost a few whole-array ufunc calls
instead of a few calls per record. The weights are
then added to the running sums in record order, which keeps the
left-to-right order above; np.add.reduce over the chunk's rows would not
(numpy sums such a reduction pairwise when m is 1). For up to
_ACCUMULATE_MAX candidates one np.add.accumulate per chunk makes those
additions, out[i] = out[i - 1] + in[i], down a buffer whose row 0 carries
the sums so far; wider batches add the chunk's rows one at a time, where
a strided accumulation would cost more than the per-row calls. Both make
the same additions in the same order, so a row's bits do not depend on
its batch. Nearest-record bookkeeping, needed only where every weight
underflows, runs lazily over just those rows.

Every predictor the search accepts has three methods: predict_batch(xs,
profile) for arbitrary candidates; predict_grid(grid, rows, profile), which
predicts grid.points(rows); and predict_bounds(grid, profile), which
gives an interval per grid point that holds the y* predict_grid would give
there, as (center, half_width): an array of centers and one float width,
or an array of widths (inf where unbounded). So the search never needs to
know which predictor it holds. The single-point form is the module-level
predict().

GrnnPredictor.predict_bounds screens the whole grid at once. The Gaussian
kernel factors over links, exp(-sum_j d_j / sigma2) = prod_j exp(-d_j /
sigma2), so with one (C_j + 1, S) factor K_j[c, i] = exp(-(c * step -
a_ij)**2 / sigma2) per link, numerator and denominator of y* on the whole
grid are one matrix product of the left links' factor (with and without
the responses) and the right links' factor. That estimate is not bit-exact:
its rounding differs from predict_batch's. Its interval is y* +- tol with
tol = _SCREEN_TOL * L, valid wherever the screened kernel sum is at least
_SCREEN_MIN_SUM; elsewhere it is (-inf, inf). tol is over 1,000 times the
error it covers, so comparisons the search makes with center +- width may
round. The derivation is in GrnnPredictor.predict_bounds. On grids of at
least _KEEP_MIN_POINTS points, for profiles with enough records, a
GrnnPredictor keeps each profile's product between calls and updates it
slot by slot; a running error bound widens its interval.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .profile import Profile
    from .search import SearchGrid

#: Fallback kernel width (Mbps^2) when a scenario does not set one; roughly
#: one grid step times sqrt(n), squared, scaled so several neighbors stay
#: influential on a 1.25-Mbps grid.
DEFAULT_SIGMA2 = 200.0

#: Half-width of GrnnPredictor.predict_bounds' interval per response level:
#: the interval is the screened y* +- _SCREEN_TOL * L. The error it covers is
#: below _SCREEN_TOL * L / 1000 for up to 8 links and 2^20 records; see
#: predict_bounds.
_SCREEN_TOL = 2.0**-20

#: Smallest screened kernel sum whose interval predict_bounds trusts; where
#: the sum is smaller, weights near underflow could dominate it, and the
#: interval is (-inf, inf).
_SCREEN_MIN_SUM = 2.0**-900

#: GrnnPredictor keeps a profile's screen product between calls (see
#: predict_bounds) on a grid of g >= _KEEP_MIN_POINTS points when the
#: profile holds S >= _KEEP_MIN_RECORDS * (1 + _KEEP_MIN_POINTS / g) records:
#: 64 on the smallest such grid, 38 on the 25,625-point stress grid.
#: Otherwise it screens anew on every call. A fresh screen costs about
#: S g multiply-adds plus a fixed part, an update about g plus a larger
#: fixed part, so the record count at which they break even falls with g.
#: Measured (one BLAS thread, 2 vCPU): at S = 128 near 2,000 points; at
#: 4,913 points near S = 60; on the stress grid near S = 32 in the screen,
#: and end to end a stress run's calls were faster fresh at S = 16 and kept
#: at S = 48 and 128.
_KEEP_MIN_POINTS = 4096
_KEEP_MIN_RECORDS = 32

#: Updates after which a kept screen product is rebuilt, whatever its
#: error bound, which grows with every update (see predict_bounds).
_REBUILD_EVERY = 256

#: Most float64 entries of one temporary of the kept product's rebuild
#: (128 KB); an update's temporaries are bounded by half the product.
_KEEP_CHUNK = 2**14


class EmptyProfileError(ValueError):
    """Prediction was requested against a profile with no records."""


@dataclass(frozen=True)
class KernelParams:
    """Gaussian kernel parameters.

    Attributes
    ----------
    sigma2 : float
        Kernel width sigma^2 in Mbps^2; must be > 0.
    """

    sigma2: float = DEFAULT_SIGMA2

    def __post_init__(self) -> None:
        if not (self.sigma2 > 0.0) or not math.isfinite(self.sigma2):
            raise ValueError(f"sigma2 must be a positive finite number, got {self.sigma2}")


@dataclass(frozen=True)
class Prediction:
    """Result of one response prediction.

    Attributes
    ----------
    y_star : float
        Weighted-mean response; lies in [min(y_i), max(y_i)].
    y_hat : int
        y_star rounded half-up, clamped to [1, L].
    kernel_sum : float
        Sum of kernel weights at the query point. Feeds the prediction
        variation bound and the low-confidence check.
    """

    y_star: float
    y_hat: int
    kernel_sum: float


def round_response(y_star: float, level_count: int) -> int:
    """Round half-up and clamp into [1, level_count]."""
    return int(min(level_count, max(1, math.floor(y_star + 0.5))))


def predict_batch(
    xs: np.ndarray, profile: "Profile", kernel: KernelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate y* and the kernel sum for many candidate allocations at once.

    Parameters
    ----------
    xs : ndarray, shape (m, n)
        Candidate allocations, one per row.
    profile : Profile
        Non-empty record store; all records share link count n.
    kernel : KernelParams

    Returns
    -------
    (y_star, kernel_sum) : two ndarrays of shape (m,); m may be 0

    Notes
    -----
    Accumulation runs over records in insertion order, left-to-right, in
    float64, independently per candidate row. The records are taken in
    chunks of k = max(1, min(p, _CHUNK // m)); each chunk's (k, m) squared
    distances are summed link by link, link 0 first (the order a row-wise
    sum over links uses), and turned into weights by whole-chunk ufunc
    calls. The chunk's rows are then added in record order, by one
    np.add.accumulate (m <= _ACCUMULATE_MAX) or one row at a time, never
    by a reduction over axis 0, which may sum pairwise and so change the
    low bits. If
    every weight underflows to zero at some row, y* falls back to the
    response of the nearest record (ties to the lowest record index) and
    the kernel sum reports 0.0; the nearest record is searched for those
    rows only.
    """
    if profile.size == 0:
        raise EmptyProfileError("cannot predict against an empty profile")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != profile.link_count:
        raise ValueError(
            f"candidate array must have shape (m, {profile.link_count}), got {xs.shape}"
        )
    m, p = xs.shape[0], profile.size
    if m == 0:
        return np.empty(0), np.empty(0)
    # per-link columns: every op on them is elementwise, so a view's bits
    # equal a copy's; the copy pays off only on wider batches
    cols = xs.T if m <= _STRIDED_MAX else np.ascontiguousarray(xs.T)
    allocs = profile.allocation_matrix()
    responses = profile.response_vector()
    links = allocs.T[:, :, None]  # (n, p, 1): a chunk's (count, 1) columns broadcast
    neg_sigma2 = -kernel.sigma2
    k = _chunk_records(p, m)
    if m <= _ACCUMULATE_MAX:
        # sums[0] holds weights and sums[1] r * weight below row 0, which
        # carries each running sum (den, num) into the next chunk
        sums = np.zeros((2, k + 1, m))
        spare = np.empty((k, m))
        for lo in range(0, p, k):
            if lo:  # carry the previous chunk's sums
                sums[:, 0] = block[:, count]
            count = min(k, p - lo)
            block = sums[:, :count + 1]
            weights = block[0, 1:]
            _weights_into(weights, spare[:count], cols, links[:, lo:lo + count], neg_sigma2)
            np.multiply(weights, responses[lo:lo + count, None], out=block[1, 1:])
            # out[i] = out[i - 1] + in[i]: the row loop's additions, in order
            np.add.accumulate(block, axis=1, out=block)
        den, num = block[0, count].copy(), block[1, count]
    else:
        num = np.zeros(m)
        den = np.zeros(m)
        # one block for both buffers: as two blocks, the allocator gave
        # their pages back to the OS after each call and page-faulted them
        # in again
        w, spare = np.empty((2, k, m))
        for lo in range(0, p, k):
            count = min(k, p - lo)
            # wc holds the weights, then r * weight
            wc = w[:count]
            _weights_into(wc, spare[:count], cols, links[:, lo:lo + count], neg_sigma2)
            for row in wc:
                den += row
            wc *= responses[lo:lo + count, None]
            for row in wc:
                num += row
    if np.minimum.reduce(den) > 0.0:
        return num / den, den
    positive = den > 0.0
    y_star = num / np.where(positive, den, 1.0)
    fallback = np.flatnonzero(~positive)
    y_star[fallback] = _nearest_response(cols[:, fallback], allocs, responses)
    return y_star, den


#: Target element count of one (k, m) chunk buffer: two buffers of 2^15
#: float64 take 512 KB, which stays in L2.
_CHUNK = 2**15


#: Widest batch whose per-link columns predict_batch reads as a strided
#: view of the candidates instead of a contiguous copy: the copy cost about
#: 1 us more at 8 candidates and saved about 4 us at 128 (3 links, 128
#: records, 2 vCPU, numpy 2.4.6).
_STRIDED_MAX = 16


#: Widest batch whose sums run as one np.add.accumulate per chunk. Down the
#: record axis the accumulation is strided, about 3.7 ns per weight, against
#: about 0.8 us per row for the row loop (2 vCPU, numpy 2.4.6), so the two
#: cross near m = 160-200 whatever the chunk length.
_ACCUMULATE_MAX = 128


def _chunk_records(p: int, m: int) -> int:
    """Records per chunk for m candidates: k = max(1, min(p, _CHUNK // m))."""
    return max(1, min(p, _CHUNK // m))


def _weights_into(out: np.ndarray, spare: np.ndarray, cols: np.ndarray, links: Sequence,
                  neg_sigma2: float) -> None:
    """out = exp(sum_j (cols[j] - links[j])**2 / neg_sigma2); spare is scratch like out."""
    _squared_distances_into(out, spare, cols, links)
    # (d2 / -s) == (-d2 / s) bit for bit: IEEE division is sign-symmetric
    np.divide(out, neg_sigma2, out=out)
    np.exp(out, out=out)


def _squared_distances_into(out: np.ndarray, diff: np.ndarray, cols: np.ndarray,
                            links: Sequence) -> None:
    """out = sum_j (cols[j] - links[j])**2, added link by link from link 0."""
    np.subtract(cols[0], links[0], out=out)
    np.square(out, out=out)
    for j in range(1, cols.shape[0]):
        np.subtract(cols[j], links[j], out=diff)
        np.square(diff, out=diff)
        out += diff


def _nearest_response(cols: np.ndarray, allocs: np.ndarray,
                      responses: np.ndarray) -> np.ndarray:
    """Response of the record nearest to each column of cols; ties keep the lowest."""
    m = cols.shape[1]
    d2 = np.empty(m)
    diff = np.empty(m)
    d2_min = np.full(m, np.inf)
    nearest = np.zeros(m, dtype=np.intp)
    for i, a in enumerate(allocs.tolist()):
        _squared_distances_into(d2, diff, cols, a)
        closer = d2 < d2_min  # strict, so ties keep the lowest index
        nearest[closer] = i
        np.minimum(d2_min, d2, out=d2_min)
    return responses[nearest]


def predict(x: Sequence[float], profile: "Profile", kernel: KernelParams) -> Prediction:
    """Predict the service response for one candidate allocation.

    Returns a Prediction; raises EmptyProfileError if the profile has no
    records and ValueError on a link-count mismatch.
    """
    xs = np.asarray(x, dtype=float).reshape(1, -1)
    y_star, den = predict_batch(xs, profile, kernel)
    ys = float(y_star[0])
    return Prediction(y_star=ys, y_hat=round_response(ys, profile.level_count),
                      kernel_sum=float(den[0]))


def variation_bound(profile_size_after: int, level_count: int, kernel_sum_after: float) -> float:
    """Upper bound on how much one appended record can move y*.

    For a profile grown to profile_size_after records with kernel sum
    kernel_sum_after at the query point, |y*(p+1) - y*(p)| cannot exceed
    (L - 1) / kernel_sum_after. Each weight lies in (0, 1], so the kernel
    sum can never exceed the record count; a larger profile therefore
    tightens the bound, which is what makes a pre-specified lower bound on
    the kernel sum act as a lower limit on profile size.
    """
    if profile_size_after < 1:
        raise ValueError(f"profile_size_after must be >= 1, got {profile_size_after}")
    if level_count < 2:
        raise ValueError(f"level_count must be >= 2, got {level_count}")
    if not (kernel_sum_after > 0.0):
        raise ValueError(f"kernel_sum_after must be > 0, got {kernel_sum_after}")
    if kernel_sum_after > profile_size_after * (1.0 + 1e-12):
        raise ValueError(
            f"kernel_sum_after={kernel_sum_after} exceeds the record count "
            f"{profile_size_after}; weights never exceed 1"
        )
    return (level_count - 1) / kernel_sum_after


class _Entry:
    """One profile's kept state; see _KeepsState."""

    __slots__ = ("profile", "grid", "params", "allocs", "responses", "value",
                 "replaced", "appended")


_NO_SLOTS = np.empty(0, dtype=np.intp)


def _forget(predictor_ref: weakref.ref, key: int):
    """A weakref callback that drops key from the predictor's entries, if it is still alive."""
    def forget(_):
        predictor = predictor_ref()
        if predictor is not None:
            predictor._kept.pop(key, None)
    return forget


class _KeepsState:
    """Per-profile state a predictor keeps between its calls.

    A predictor derived from this keeps one entry per profile it serves,
    keyed by the profile's id(). The entry holds the profile and its grid
    only weakly: it goes when the profile or the predictor goes, and
    nothing refers back to the predictor. It also holds the parameter the
    state was made for (k, sigma2) and copies of the records, which
    _changes compares with the profile's on every call. A copy or an
    unpickled predictor starts with no entries. The entries are plain state
    without a lock: one predictor must not serve two threads at once.
    """

    def __init__(self) -> None:
        #: Each served profile's entry, by the profile's id().
        self._kept: dict[int, _Entry] = {}

    def __getstate__(self) -> dict:
        # the entries hold weak references, which do not pickle; a copy or
        # an unpickled predictor builds its own state on its first call
        return {**self.__dict__, "_kept": {}}

    def _changes(self, grid: "SearchGrid", profile: "Profile", params, allocs: np.ndarray,
                 responses: np.ndarray) -> _Entry | None:
        """Take the profile's entry out and say what changed since it was kept.

        allocs and responses are the profile's allocation_matrix() and
        response_vector(). None means rebuild: nothing is kept for the
        profile on this grid object with params, or it holds fewer records
        than the copies. Otherwise entry.replaced holds the slots below the
        copies' count whose allocation or response differs from the copy,
        in increasing order, and entry.appended the range of slots added
        since; both are empty when nothing changed. The copies still hold
        the old records; _keep puts the entry back with the new ones.
        """
        entry = self._kept.pop(id(profile), None)
        if entry is None or entry.grid() is not grid or entry.params != params:
            return None
        size = len(entry.responses)
        if size > len(responses):
            return None
        same_response = responses[:size] == entry.responses
        same_alloc = allocs[:size] == entry.allocs
        if same_response.all() and same_alloc.all():  # most calls: nothing replaced
            entry.replaced = _NO_SLOTS
        else:
            entry.replaced = np.flatnonzero(~(same_response & same_alloc.all(axis=1)))
        entry.appended = range(size, len(responses))
        return entry

    def _keep(self, grid: "SearchGrid", profile: "Profile", params, value,
              entry: _Entry | None = None) -> None:
        """Keep value for profile: in entry, as _changes gave it, or in a new entry."""
        key = id(profile)
        if entry is None:
            entry = _Entry()
            entry.profile = weakref.ref(profile, _forget(weakref.ref(self), key))
            entry.grid, entry.params, entry.replaced = weakref.ref(grid), params, None
        if entry.replaced is None or len(entry.replaced) or entry.appended:  # new or changed
            entry.allocs = profile.allocation_matrix().copy()
            entry.responses = profile.response_vector().copy()
        entry.value = value
        self._kept[key] = entry


def _screen_bytes(grid: "SearchGrid", records: int) -> int:
    """Most bytes a fresh screen of the grid holds for `records` records; see predict_bounds."""
    c_0 = grid.steps_per_link[0] + 1
    factors = sum(c + 1 for c in grid.steps_per_link)
    return 8 * records * (factors + 2 * c_0 + grid.size // c_0) + 16 * grid.size


def _screen_factors(k: np.ndarray, left: np.ndarray, grid: "SearchGrid", allocs: np.ndarray,
                    responses: np.ndarray, sigma2: float) -> list[np.ndarray]:
    """Fill k with every link's factor and left with [K_0; K_0 * r]; return K_1, ..., K_{n-1}.

    k is (sum_j (C_j + 1), q) and left (2 (C_0 + 1), q) for q records; row
    r of k is exp((v_r - allocs[i, links[r]])**2 / -sigma2) over
    grid.link_values(), so K_j is a view of k's rows for link j.
    """
    values, links = grid.link_values()
    np.take(allocs.T, links, axis=0, out=k, mode="clip")  # clip: no buffered copy
    np.subtract(values[:, None], k, out=k)
    np.square(k, out=k)
    np.divide(k, -sigma2, out=k)
    np.exp(k, out=k)
    factors, start = [], 0
    for c in grid.steps_per_link:
        factors.append(k[start:start + c + 1])
        start += c + 1
    k_0 = factors[0]
    np.copyto(left[:len(k_0)], k_0)
    np.multiply(k_0, responses, out=left[len(k_0):])
    return factors[1:]


def _f_matrix(factors: list[np.ndarray], q: int, out: np.ndarray | None = None) -> np.ndarray:
    """F whole, (M, q): F[(c_1, ..., c_{n-1}), i] = prod_{j>=1} K_j[c_j, i] over q records.

    Multiplied from link 1 on, row-major, as _f_rows does; factors are
    K_1, ..., K_{n-1}. From two factors on, the last product is written
    into out when it is given (M q entries).
    """
    if len(factors) < 2:  # F is K_1 itself, or a row of ones on one link
        return factors[0] if factors else np.ones((1, q))
    *inner, last = factors
    f = inner[0]
    for k_j in inner[1:]:
        f = np.multiply(f[:, None], k_j).reshape(-1, q)
    if out is not None:
        out = out.reshape(len(f), len(last), q)
    return np.multiply(f[:, None], last, out=out).reshape(-1, q)


def _f_rows(factors: list[np.ndarray], q: int, most: int):
    """F's rows, row-major, at most `most` at a time: (start, rows) pairs.

    The rows are those of _f_matrix(factors, q), with the same bits. A
    chunk is a few rows of the links before the last one's product, each
    times a run of the last link's factor.
    """
    if len(factors) < 2:
        yield 0, _f_matrix(factors, q)
        return
    *inner, last = factors
    dims, c_last = [len(k_j) for k_j in inner], len(last)
    heads = math.prod(dims)
    span, run = max(1, most // c_last), min(most, c_last)
    buf = np.empty(span * run * q)
    for p0 in range(0, heads, span):
        index = np.unravel_index(np.arange(p0, min(p0 + span, heads)), dims)
        head = inner[0][index[0]]
        for k_j, i_j in zip(inner[1:], index[1:]):
            head *= k_j[i_j]
        for l0 in range(0, c_last, run):
            tail = last[l0:l0 + run]
            f = np.multiply(head[:, None, :], tail[None, :, :],
                            out=buf[:len(head) * len(tail) * q].reshape(len(head), len(tail), q))
            yield p0 * c_last + l0, f.reshape(-1, q)


def _error_scale(records: int, links: int, updates: int, level_count: int) -> float:
    """beta: the error term at a point is at most beta (1 + taken[r] * peak[m] / den).

    See GrnnPredictor.predict_bounds for the derivation.
    """
    u = 2.0**-53
    gamma = records * u / (1.0 - records * u)
    mu = 20 * links * u
    nu = updates * u / (1.0 - u)
    kappa = ((2.0 + mu) * gamma + mu + nu) / (1.0 - gamma - 2.0 * nu)
    gamma_ns = updates * records * u / (1.0 - updates * records * u)
    return (2.0 * level_count * (1.0 + u) * kappa / (1.0 - kappa) * (1.0 + mu) * (1.0 + gamma_ns)
            * (1.0 + 2.0**-40))


class _KeptScreen:
    """One profile's screen product, kept between searches; see GrnnPredictor.predict_bounds.

    out is [K_0; K_0 * r] @ F.T over the records the entry copies. The
    terms updates took out since the rebuild bound the running error:
    taken[r] sums their K_0[r] and peak[m] is the largest of their F[m].
    updates counts the updates since the rebuild, infinite the intervals
    that were infinite but need not be right after it (see bounds), and
    bounded says whether the error bound forced the rebuild.
    """

    __slots__ = ("out", "taken", "peak", "updates", "infinite", "bounded")

    def __init__(self, grid: "SearchGrid", allocs: np.ndarray, responses: np.ndarray,
                 sigma2: float):
        s, c_0 = len(responses), grid.steps_per_link[0] + 1
        self.out = np.empty((2 * c_0, grid.size // c_0))
        left = np.empty((2 * c_0, s))
        factors = _screen_factors(np.empty((len(grid.link_values()[0]), s)), left, grid,
                                  allocs, responses, sigma2)
        for start, rows in _f_rows(factors, s, max(1, _KEEP_CHUNK // s)):
            np.matmul(left, rows.T, out=self.out[:, start:start + len(rows)])
        self.taken, self.peak = np.zeros(c_0), np.zeros(self.out.shape[1])
        self.updates = self.infinite = 0
        self.bounded = False

    def update(self, grid: "SearchGrid", sigma2: float, allocs: np.ndarray,
               responses: np.ndarray, added: int) -> None:
        """Add the terms of the first `added` records and take out the others'.

        The records taken out are the ones the added records replace, as
        the entry's copies hold them; an appended record has none.
        """
        q, out = len(responses), self.out
        c_0 = len(self.taken)
        left = np.empty((2 * c_0, q))
        factors = _screen_factors(np.empty((len(grid.link_values()[0]), q)), left, grid,
                                  allocs, responses, sigma2)
        f = _f_matrix(factors, q)
        if added < q:
            self.taken += left[:c_0, added:].sum(axis=1)
            np.negative(left[:, added:], out=left[:, added:])
            np.maximum(self.peak, f[:, added:].max(axis=1), out=self.peak)
        # one product per half: no temporary is larger than half of out
        out[:c_0] += left[:c_0] @ f.T
        out[c_0:] += left[c_0:] @ f.T
        self.updates += 1

    def bounds(self, level_count: int, records: int, links: int
               ) -> tuple[np.ndarray, float | np.ndarray, int]:
        """(center, half_width, count): the intervals, and how many are infinite but need not be.

        half_width is a float when one width holds every point. An
        interval need not be infinite where the exact kernel sum of the
        terms as added may reach _SCREEN_MIN_SUM, so that a rebuild may
        give it a finite width.
        """
        beta = _error_scale(records, links, self.updates, level_count)
        c_0 = len(self.taken)
        den, num = self.out[:c_0].reshape(-1), self.out[c_0:].reshape(-1)
        tol, half = _SCREEN_TOL * level_count, 0.5 * level_count
        least = np.minimum.reduce(den)
        if least >= 2.0 * _SCREEN_MIN_SUM:
            # one width for every point when the largest error term is below tol
            w = beta * (1.0 + np.maximum.reduce(self.taken) * np.maximum.reduce(self.peak) / least)
            if w < tol:
                return np.divide(num, den), tol + w, 0
        finite = den >= 2.0 * _SCREEN_MIN_SUM
        w = np.multiply.outer(self.taken, self.peak).reshape(-1)
        # |den - D'| <= beta (|den| + taken[r] peak[m]) / L: the points whose
        # exact kernel sum may reach tau, where a rebuild may give an interval
        could = den + beta * (np.abs(den) + w) / level_count >= _SCREEN_MIN_SUM
        np.divide(w, den, out=w, where=finite)
        w += 1.0
        w *= beta
        kept = finite & (w < half)
        count = int(np.count_nonzero(could & ~kept))
        w += tol
        np.copyto(w, np.inf, where=~kept)
        return np.divide(num, den, out=np.zeros(den.size), where=kept), w, count


class GrnnPredictor(_KeepsState):
    """Kernel-regression predictor bound to fixed kernel parameters.

    On grids of at least _KEEP_MIN_POINTS points it keeps the screen
    product of each served profile with enough records between calls (see
    predict_bounds), without a lock, so one instance must not serve two
    threads at once.
    """

    def __init__(self, kernel: KernelParams | None = None):
        super().__init__()
        self.kernel = kernel or KernelParams()

    def predict_batch(self, xs: np.ndarray, profile: "Profile") -> tuple[np.ndarray, np.ndarray]:
        return predict_batch(xs, profile, self.kernel)

    def predict_grid(self, grid: "SearchGrid", rows, profile: "Profile"
                     ) -> tuple[np.ndarray, np.ndarray]:
        """predict_batch on grid.points(rows); rows is a slice or an index array."""
        if profile.link_count != grid.link_count:
            raise ValueError(
                f"grid has {grid.link_count} links but records have {profile.link_count}"
            )
        return predict_batch(grid.points(rows), profile, self.kernel)

    def predict_bounds(self, grid: "SearchGrid", profile: "Profile"
                       ) -> tuple[np.ndarray, float | np.ndarray]:
        """(center, half_width): an interval per grid point that holds predict_grid's y* there.

        center has shape (grid.size,), row-major, and is finite; the
        interval is [center - half_width, center + half_width]. half_width
        is a float when one width holds every point, and otherwise an
        array like center, inf where the interval is unbounded.

        The screen builds each link's factor K_j[c, i] = exp((c * step -
        a_ij)**2 / -sigma2) (all links in one stacked array, over
        grid.link_values()), multiplies the factors of links 1..n-1 into
        one (M, S) factor F with M = prod_{j>=1} (C_j + 1) (625 on the
        3-link stress grid; F is K_1 itself on two links), and makes one
        matrix product, [K_0; K_0 * r] @ F.T (rows stacked), whose two
        halves are the kernel sum and the weighted response sum at every
        grid point, row-major. Their ratio y is the screened y*, the
        center, and the half-width is tol = _SCREEN_TOL * L; where the
        screened kernel sum is below _SCREEN_MIN_SUM (tau) it is inf. When
        every screened sum reaches tau, half_width is the float tol.

        Why |y - y*| <= tol where the kernel sum is at least tau. Let u =
        2^-53, gamma_k = k u / (1 - k u), w_i = exp(-t_i) the true weight
        of record i (t_i its true distance over sigma2), D = sum_i w_i, N =
        sum_i r_i w_i, and y_true = N / D; responses r_i lie in [1, L]. Assume
        np.exp is within 4 ulps: a relative 8u on normal results, 2^-1072
        absolute on subnormal ones.
        - Each path computes every weight from the same grid coordinates
          and records. predict_batch rounds the argument of exp by a
          relative gamma_{n+3} (subtraction, square, n - 1 link additions,
          division); the screen rounds each link's argument by gamma_4, so
          the sum of its argument errors is at most gamma_4 * t_i. Only
          weights with t_i <= 746 survive underflow, so each computed
          weight is w_i (1 + rho_i) + eta_i with
          |rho_i| <= exp(746 gamma_{n+3}) - 1 + 9u (exact path; the extra u
          is the product with r_i) or exp(746 gamma_4) - 1 + (9n + 1) u
          (screen: n exps, n - 1 link products, one product with r_i, one
          in the matrix product), and |eta_i| <= 2^-1060 covers subnormal
          and underflowed weights and products.
        - Both paths add the same S non-negative terms, in order or in any
          order the BLAS picks; either way the sum is off by at most
          gamma_{S+1} of itself. So each path's sums are N_p = sum r_i w_i
          (1 + psi_i) + zeta_N and D_p = sum w_i (1 + phi_i) + zeta_D with
          |psi_i|, |phi_i| <= eps_p = rho_p + gamma_{S+1} (to first order),
          |zeta_D| <= S eta and |zeta_N| <= L S eta.
        - Since sum (r_i - y_true) w_i = 0, N_p - y_true D_p = sum w_i (r_i
          psi_i - y_true phi_i) + zeta_N - y_true zeta_D, so |N_p / D_p -
          y_true| <= 2 L (eps_p D + S eta) / D_p, and the final division
          adds at most L u.
        - A screened sum D_s >= tau gives D >= (tau - S eta) / (1 + eps_s)
          and D_e >= D (1 - eps_e) - S eta, both within a hair of tau, so
          |y - y*| <= 2 L (eps_s + eps_e) (1 + 1e-6) + 2 L u + 8 L S eta / tau.
        With tau = 2^-900, the last term is S 2^-157 L, below 2^-130 L for
        S < 2^27 records. For n <= 8 links and S <= 2^20 records, eps_s +
        eps_e <= 746 * 15 u + 100 u + 2 gamma_{S+1} < 2.4e-10, so the bound
        is below 4.8e-10 L, about tol / 1990 with tol = 2^-20 L; at S =
        1000 and n = 4 it is about 2.3e-12 L, tol / 4e5. The largest
        deviation measured was 4.3e-15 L, over 400 random cases of 1-4
        links and 1-600 records.

        The bound leaves tol a slack of more than 1,000 times the error it
        covers, so the rounding of the comparisons the search makes with the
        interval, center against thr +- w or against another center - 2 w
        (a relative u of values at most L + 2 tol), is far inside it.

        Where D_s < tau the interval is infinite, so those points are
        always predicted exactly; that includes every point where
        predict_batch's sum underflows to 0 and y* falls back to the
        nearest record. The screen works for any records, on the lattice
        or not. It costs exp on sum_j (C_j + 1) S entries, about M S
        products and one (2 (C_0 + 1), S) by (S, M) matrix product, and
        holds at most 8 S (sum_j (C_j + 1) + 2 (C_0 + 1) + M) + 16 size
        bytes (_screen_bytes).

        The kept product. On a grid of g >= _KEEP_MIN_POINTS points, for a
        profile of S >= _KEEP_MIN_RECORDS (1 + _KEEP_MIN_POINTS / g)
        records, the predictor keeps per profile (with its grid object and
        sigma2) the product out = [K_0; K_0 * r] @ F.T and two short arrays
        that bound its running error, and updates out instead of screening
        anew:
        - A replaced slot i changes one term of every entry: out += t_new
          - t_old with t = [K_0[:, i]; r_i K_0[:, i]] (x) F[:, i], one
          matrix product over all changed slots' columns, computed from the
          new records and from the entry's copies of the old ones. An
          appended slot adds t_new alone. Nothing of K or F is kept.
        - A rebuild (the first call, another grid object or sigma2, fewer
          records) fills out from F in chunks of at most _KEEP_CHUNK
          entries, so F (640 KB on the stress grid) is never whole. An
          update builds the q changed columns of F whole, q < S (20 KB
          for one replaced slot on the stress grid), and adds one product
          into each half of out, so no temporary is larger than half of it.
        - Rebuild policy: rebuild instead of updating when the update's
          columns (two per replaced slot, one per appended) would reach
          the records' count S, the inner dimension of a rebuild's product;
          after _REBUILD_EVERY updates; and when the error bound makes more
          intervals infinite, at points whose exact kernel sum may reach
          tau, than right after the last rebuild. T_sure depends on the
          target, which the screen does not know, so it counts every grid
          point (T_sure is at most the largest total).
          When the error bound forces a rebuild of a product that it had
          itself forced one update before, keeping costs more than it
          saves (small sigma2 against the grid, with records that
          dominate their points): the profile is screened anew on the
          next _REBUILD_EVERY calls, and then kept again.

        Why the kept interval holds y*: a running error bound (N. J.
        Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
        SIAM 2002, section 3.3). Write P for the exact product of the
        factor values an add used (a term "as added"), D' for the exact sum
        of the current slots' terms as added, R for the exact sum of the
        terms taken out since the rebuild, as added, and e = out - D'. Let
        S be the record count and N the updates since the rebuild. Every
        term is non-negative, and what the rebuild and the updates added
        equals D' + R at every step.
        - The rebuild's product has |e| <= gamma_S D'.
        - An update's product over q < S columns is off by at most gamma_S
          of the sum of its terms' magnitudes, and adding it to out by u'
          |out| with u' = u / (1 - u). It takes the old terms out as
          recomputed from the copies, which may differ from the terms as
          added by mu = 20 n u of themselves (two evaluations of one
          weight, each within 4 ulps per exp and u per product).
        - Summed over the updates, with |out| at any step at most the
          final D' + R + |e|, and D' <= |out| + |e|: |e| <= kappa (|out| +
          R) with kappa = ((2 + mu) gamma_S + mu + N u') / (1 - gamma_S -
          2 N u').
        - The response sum's terms are at most L' = L (1 + u) times the
          kernel sum's, so E_N + L' E_D <= 2 L' kappa (den + R_D) / (1 -
          kappa), where E_N and E_D bound e on the response and kernel-sum
          halves and R_D is R on the kernel-sum half.
        - A term taken out is K_0[r, i] F[m, i], within mu of the
          recomputed one, so R_D[r, m] <= (1 + mu) (1 + gamma_{NS})
          taken[r] peak[m]: taken[r] adds up the recomputed K_0[r] in
          float64, at most N S additions, and peak[m] keeps the largest
          recomputed F[m].
        - With N' and D' the exact sums, |N_k / D_k - N' / D'| = |e_N D' -
          N' e_D| / (D_k D') <= (E_N + L' E_D) / D_k, and N' / D' meets
          the derivation above with no summation error. So the interval is
          y +- (tol + beta (1 + taken[r] peak[m] / den)) with beta = c 2 L'
          kappa (1 + mu) (1 + gamma_{NS}) / (1 - kappa) (_error_scale), c
          = 1 + 2^-40 covering the float64 rounding of that term; y's
          division and the additions are covered by tol's slack, and so is
          the rounding of the search's comparisons (a relative u of values
          at most L + 2 tol; the derivation above bounds the error it
          leaves by tol / 1990). Where beta (1 + max(taken) max(peak) /
          min(den)) is below tol, every point takes that one width, and
          half_width is that float.
        - The interval is finite only where den >= 2 tau and the error
          term is below L / 2. Then E_D < den / 2, so D' > den / 2 >= tau,
          which the derivation above needs; elsewhere it is (-inf, inf).
        At stress size (S = 128, three links, L = 12, N <= 256) beta is at
        most 1.6e-12, and tol is 1.1e-5; each F[m] <= 1, so peak <= 1.
        """
        if profile.size == 0:
            raise EmptyProfileError("cannot screen against an empty profile")
        allocs = profile.allocation_matrix()
        if allocs.shape[1] != grid.link_count:
            raise ValueError(
                f"grid has {grid.link_count} links but records have {allocs.shape[1]}"
            )
        g = grid.size
        if g >= _KEEP_MIN_POINTS and \
                profile.size * g >= _KEEP_MIN_RECORDS * (g + _KEEP_MIN_POINTS):
            bounds = self._kept_bounds(grid, profile)
            if bounds is not None:
                return bounds
        s, c_0, n = profile.size, grid.steps_per_link[0] + 1, grid.link_count
        m = g // c_0
        # every array of the screen in one block, F only from 3 links on: as
        # separate blocks of similar size, the allocator handed their pages
        # back to the OS after each search and page-faulted them in again
        # (about 290 faults per search on the 3-link grid at S = 128)
        k_end = len(grid.link_values()[0]) * s
        left_end = k_end + 2 * c_0 * s
        f_end = left_end + (m * s if n > 2 else 0)
        block = np.empty(f_end + 2 * c_0 * m)
        k = block[:k_end].reshape(-1, s)
        left = block[k_end:left_end].reshape(2 * c_0, s)
        out = block[f_end:].reshape(2 * c_0, m)
        factors = _screen_factors(k, left, grid, allocs, profile.response_vector(),
                                  self.kernel.sigma2)
        np.matmul(left, _f_matrix(factors, s, block[left_end:f_end]).T, out=out)
        den, y = out[:c_0].reshape(-1), out[c_0:].reshape(-1)
        tol = _SCREEN_TOL * profile.level_count
        if np.minimum.reduce(den) >= _SCREEN_MIN_SUM:  # every interval is finite
            return np.divide(y, den, out=y), tol
        kept = den >= _SCREEN_MIN_SUM
        np.divide(y, den, out=y, where=kept)  # y stays the finite response sum elsewhere
        width = den
        width.fill(np.inf)
        np.copyto(width, tol, where=kept)
        return y, width

    def _kept_bounds(self, grid: "SearchGrid", profile: "Profile"
                     ) -> tuple[np.ndarray, float | np.ndarray] | None:
        """predict_bounds from the profile's kept product, updated or rebuilt first.

        None when the profile is to be screened anew on this call.
        """
        sigma2 = self.kernel.sigma2
        allocs, responses = profile.allocation_matrix(), profile.response_vector()
        entry = self._changes(grid, profile, sigma2, allocs, responses)
        screen = None if entry is None else entry.value
        if isinstance(screen, int):  # the calls left to screen anew
            self._keep(grid, profile, sigma2, screen - 1 or None, entry)
            return None
        if screen is not None and (len(entry.replaced) or entry.appended):
            old = entry.replaced
            new = np.concatenate((old, entry.appended)).astype(np.intp)
            if screen.updates < _REBUILD_EVERY and len(old) + len(new) < len(responses):
                screen.update(grid, sigma2, np.concatenate((allocs[new], entry.allocs[old])),
                              np.concatenate((responses[new], entry.responses[old])), len(new))
            else:
                screen = entry.value = None
        shape = profile.level_count, len(responses), grid.link_count
        if screen is None:
            screen = _KeptScreen(grid, allocs, responses, sigma2)
            center, width, screen.infinite = screen.bounds(*shape)
        else:
            center, width, infinite = screen.bounds(*shape)
            if infinite > screen.infinite:  # the error bound: rebuild
                del center, width
                if screen.bounded and screen.updates == 1:  # twice in a row
                    self._keep(grid, profile, sigma2, _REBUILD_EVERY, entry)
                    return None
                screen = entry.value = None  # the old product goes first
                screen = _KeptScreen(grid, allocs, responses, sigma2)
                center, width, screen.infinite = screen.bounds(*shape)
                screen.bounded = True
        self._keep(grid, profile, sigma2, screen, entry)
        return center, width
