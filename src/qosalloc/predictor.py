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

Every predictor the search accepts has three methods: predict_batch(xs,
profile) for arbitrary candidates; predict_grid(grid, rows, profile), which
predicts grid.points()[rows]; and predict_bounds(grid, profile), which
gives an interval [lo, hi] per grid point that holds the y* predict_grid
would give there. GrnnPredictor.predict_grid is where the choice between
the table and the computed path is made, so the search never needs to know
which predictor it holds. The single-point form is the module-level
predict().

GrnnPredictor.predict_bounds screens the whole grid at once. The Gaussian
kernel factors over links, exp(-sum_j d_j / sigma2) = prod_j exp(-d_j /
sigma2), so with one (C_j + 1, S) factor K_j[c, i] = exp(-(c * step -
a_ij)**2 / sigma2) per link, numerator and denominator of y* on the whole
grid are one matrix product of the left links' factor (with and without
the responses) and the right links' factor. That estimate is not bit-exact:
its rounding differs from predict_batch's. Its interval is y* +- tol with
tol = _SCREEN_TOL * L, valid wherever the screened kernel sum is at least
_SCREEN_MIN_SUM; elsewhere it is (-inf, inf). The derivation is in
GrnnPredictor.predict_bounds.
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

#: Half-width of GrnnPredictor.predict_bounds' interval per response level:
#: the interval is the screened y* +- _SCREEN_TOL * L. The error it covers is
#: below _SCREEN_TOL * L / 1000 for up to 8 links and 2^20 records; see
#: predict_bounds.
_SCREEN_TOL = 2.0**-20

#: Smallest screened kernel sum whose interval predict_bounds trusts; where
#: the sum is smaller, weights near underflow could dominate it, and the
#: interval is (-inf, inf).
_SCREEN_MIN_SUM = 2.0**-900


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

    def predict_bounds(self, grid: "SearchGrid", profile: "Profile"
                       ) -> tuple[np.ndarray, np.ndarray]:
        """An interval [lo, hi] per grid point that holds predict_grid's y* there.

        Both arrays have shape (grid.size,), row-major. The screen builds
        each link's factor K_j[c, i] = exp((c * step - a_ij)**2 / -sigma2),
        multiplies the factors of links 1..n-1 into one (M, S) factor F
        with M = prod_{j>=1} (C_j + 1) (625 on the 3-link stress grid), and
        makes one matrix product, vstack([K_0, K_0 * r]) @ F.T, whose two
        halves are the kernel sum and the weighted response sum at every
        grid point, row-major. Their ratio y is the screened y*, and the
        interval is y +- tol with tol = _SCREEN_TOL * L; where the screened
        kernel sum is below _SCREEN_MIN_SUM (tau) it is (-inf, inf).

        Why |y - y*| <= tol where the kernel sum is at least tau. Let u =
        2^-53, gamma_k = k u / (1 - k u), w_i = exp(-t_i) the true weight
        of record i (t_i its true distance over sigma2), D = sum_i w_i, N =
        sum_i r_i w_i, and y_true = N / D; responses r_i lie in [1, L]. Assume
        np.exp is within 4 ulps: a relative 8u on normal results, 2^-1072
        absolute on subnormal ones.
        - Each path computes every weight from the same grid coordinates
          and records. predict_batch (and the kernel table, which equals it)
          rounds the argument of exp by a relative gamma_{n+3} (subtraction,
          square, n - 1 link additions, division); the screen rounds each
          link's argument by gamma_4, so the sum of its argument errors is
          at most gamma_4 * t_i. Only weights with t_i <= 746 survive
          underflow, so each computed weight is w_i (1 + rho_i) + eta_i with
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

        Where D_s < tau the interval is infinite, so those points are
        always predicted exactly; that includes every point where
        predict_batch's sum underflows to 0 and y* falls back to the
        nearest record. The screen works for any records, on the lattice
        or not. It costs exp on sum_j (C_j + 1) S entries, about M S
        products and one (2 (C_0 + 1), S) by (S, M) matrix product, and
        holds about 8 S (2 C_0 + 2 + M) + 16 size bytes.
        """
        if profile.size == 0:
            raise EmptyProfileError("cannot screen against an empty profile")
        allocs = profile.allocation_matrix()
        if allocs.shape[1] != grid.link_count:
            raise ValueError(
                f"grid has {grid.link_count} links but records have {allocs.shape[1]}"
            )
        factors = []
        for j, c in enumerate(grid.steps_per_link):
            k_j = np.subtract.outer(np.arange(c + 1) * grid.step, allocs[:, j])
            np.square(k_j, out=k_j)
            np.divide(k_j, -self.kernel.sigma2, out=k_j)
            np.exp(k_j, out=k_j)
            factors.append(k_j)
        k_0 = factors[0]
        # F[(c_1, ..., c_{n-1}), i] = prod_{j>=1} K_j[c_j, i], rows row-major
        f = factors[1] if len(factors) > 1 else np.ones((1, profile.size))
        for k_j in factors[2:]:
            f = (f[:, None, :] * k_j[None, :, :]).reshape(-1, profile.size)
        out = np.vstack([k_0, k_0 * profile.response_vector()]) @ f.T
        den, y = out[:len(k_0)].reshape(-1), out[len(k_0):].reshape(-1)
        lost = ~(den >= _SCREEN_MIN_SUM)
        np.divide(y, den, out=y, where=~lost)
        tol = _SCREEN_TOL * profile.level_count
        lo = np.subtract(y, tol, out=den)
        hi = np.add(y, tol, out=y)
        lo[lost] = -np.inf
        hi[lost] = np.inf
        return lo, hi

