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
transposed once into contiguous per-link columns, and the records are taken
k at a time, so one chunk's (k, m) distances and weights cost a few
whole-array ufunc calls instead of a few calls per record. The weights are
then added to the running sums row by row, which keeps the left-to-right
record order above; a reduction over the chunk's rows would not (numpy
sums such a reduction pairwise when m is 1). Nearest-record bookkeeping,
needed only where every weight underflows, runs lazily over just those
rows.

lattice_batch runs the same accumulation loop, but reads each chunk's
weights from a precomputed table (one np.take per chunk) instead of
computing distances, division and exp. It serves grid points against
records that are grid points too, where each weight depends only on the
step-count offset between them; SearchGrid.kernel_table builds the table
with this module's float operations in this module's order, so its entries
equal the computed weights bit for bit. The underflow fallback is the same
in both.

Every predictor the search accepts has two methods: predict_batch(xs,
profile) for arbitrary candidates, and predict_grid(grid, rows, profile),
which predicts grid.points()[rows]. GrnnPredictor.predict_grid is where the
choice between the table and the computed path is made, so the search never
needs to know which predictor it holds. The single-point form is the
module-level predict().
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .profile import Profile
    from .search import SearchGrid

#: Fallback kernel width (Mbps^2) when a scenario does not set one; roughly
#: one grid step times sqrt(n), squared, scaled so several neighbors stay
#: influential on a 1.25-Mbps grid.
DEFAULT_SIGMA2 = 200.0


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
    (y_star, kernel_sum) : two ndarrays of shape (m,)

    Notes
    -----
    Accumulation runs over records in insertion order, left-to-right, in
    float64, independently per candidate row. The records are taken in
    chunks of k = max(1, min(p, _CHUNK // m)); each chunk's (k, m) squared
    distances are summed link by link, link 0 first (the order a row-wise
    sum over links uses), and turned into weights by whole-chunk ufunc
    calls. The chunk's rows are then added one at a time, because a
    reduction over axis 0 may sum pairwise and so change the low bits. If
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
    cols = np.ascontiguousarray(xs.T)
    neg_sigma2 = -kernel.sigma2

    def weigh(out, spare, links):
        _squared_distances_into(out, spare, cols, links)
        # (d2 / -s) == (-d2 / s) bit for bit: IEEE division is sign-symmetric
        np.divide(out, neg_sigma2, out=out)
        np.exp(out, out=out)

    return _weighted_mean(profile, xs.shape[0], profile.allocation_matrix().T, weigh,
                          lambda rows: cols[:, rows])


def lattice_batch(
    table: np.ndarray, offsets: np.ndarray, bases: np.ndarray, profile: "Profile",
    columns: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """predict_batch with every kernel weight read from a table.

    The weight of record i at candidate c is table[offsets[c] + bases[i]];
    the caller guarantees that this entry equals, bit for bit, the weight
    predict_batch computes, and that every index lies in the table (see
    SearchGrid's kernel table). columns(rows) returns the (n, len(rows))
    coordinates of candidates rows, needed only for the underflow fallback.
    Accumulation and fallback are predict_batch's own, so the results are
    identical to predict_batch on the same candidates.
    """

    def weigh(out, spare, base):
        index = spare.view(np.int64)  # same item size as the float buffer
        np.add(offsets, base, out=index)
        # mode="clip" gathers straight into out; the default mode buffers it
        np.take(table, index, out=out, mode="clip")

    return _weighted_mean(profile, len(offsets), bases, weigh, columns)


#: Target element count of one (k, m) chunk buffer: two buffers of 2^15
#: float64 take 512 KB, which stays in L2.
_CHUNK = 2**15


def _chunk_records(p: int, m: int) -> int:
    """Records per chunk for m candidates: k = max(1, min(p, _CHUNK // m))."""
    return max(1, min(p, _CHUNK // m))


def _weighted_mean(profile: "Profile", m: int, operands: np.ndarray, weigh,
                   columns) -> tuple[np.ndarray, np.ndarray]:
    """y* and the kernel sum of m candidates, records taken k at a time.

    operands holds one entry per record along its last axis; for each chunk
    of records, weigh(out, spare, chunk) writes their (count, m) weights
    into out (spare is scratch of the same shape), where chunk is the
    chunk's operands as (..., count, 1) views, or the record's operands as
    Python numbers when k == 1. The rows are then added one record at a
    time. columns(rows) gives the fallback rows' candidate columns.
    """
    responses = profile.response_vector()
    num = np.zeros(m)
    den = np.zeros(m)
    k = _chunk_records(profile.size, m)
    if k > 1:
        # one block for both buffers: as two blocks, the allocator gave their
        # pages back to the OS after each call and page-faulted them in again
        w, spare = np.empty((2, k, m))
    else:
        # whole 1-D buffers: a slice per record costs more, and rows of one
        # block ran about 5% slower at m=25,625
        w, spare = np.empty(m), np.empty(m)
    for chunk, rate in zip(_chunked(operands, k), _chunked(responses.astype(float), k)):
        # w holds the weights, then r * weight
        wc, sc = (w[:len(rate)], spare[:len(rate)]) if k > 1 else (w, spare)
        weigh(wc, sc, chunk)
        rows = wc if k > 1 else (wc,)
        for row in rows:
            den += row
        wc *= rate
        for row in rows:
            num += row
    y_star = num / np.where(den > 0.0, den, 1.0)
    fallback = np.flatnonzero(~(den > 0.0))
    if fallback.size:
        y_star[fallback] = _nearest_response(columns(fallback), profile.allocation_matrix(),
                                             responses)
    return y_star, den


def _chunked(values: np.ndarray, k: int):
    """values split along its last (record) axis into chunks of k records.

    Chunks are (..., count, 1) views, or when k == 1 each record's values
    as Python numbers: numpy broadcasts a Python float faster than a (1, 1)
    array.
    """
    if k == 1:
        return values.T.tolist()
    return (values[..., lo:lo + k, None] for lo in range(0, values.shape[-1], k))


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


class GrnnPredictor:
    """Kernel-regression predictor bound to fixed kernel parameters.

    Pure and read-only over its inputs; one instance can serve concurrent
    evaluations against immutable profile snapshots.
    """

    def __init__(self, kernel: KernelParams | None = None):
        self.kernel = kernel or KernelParams()

    def predict_batch(self, xs: np.ndarray, profile: "Profile") -> tuple[np.ndarray, np.ndarray]:
        return predict_batch(xs, profile, self.kernel)

    def predict_grid(self, grid: "SearchGrid", rows, profile: "Profile"
                     ) -> tuple[np.ndarray, np.ndarray]:
        """predict_batch on grid.points()[rows], from the grid's kernel table when it can.

        rows is a slice or an index array into the row-major grid. The table
        serves when every record is a grid point (grid.record_bases) and the
        grid passes its exactness check (grid.kernel_table); the results
        are then bit-identical to predict_batch, which every other case
        calls. grid.points() is built only where needed: the table path
        leaves it unbuilt unless some weight sum underflows.
        """
        bases = grid.record_bases(profile.allocation_matrix()) if profile.size else None
        lattice = None if bases is None else grid.kernel_table(self.kernel.sigma2)
        if lattice is None:
            return predict_batch(grid.points()[rows], profile, self.kernel)
        table, offsets = lattice
        return lattice_batch(table, offsets[rows], bases, profile,
                             lambda fallback: grid.points()[rows][fallback].T)
