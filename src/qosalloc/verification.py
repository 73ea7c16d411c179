"""Randomized property suites for the prediction/search/store machinery.

Each suite generates seeded random instances, checks one family of
guarantees, and reports a trial/violation count:

* monotonicity      appending a positive record can only grow the
                    predicted-feasible set and can only lower the minimum
                    feasible total; appending a negative record, the
                    reverse; removals mirror both. Checked as set
                    inclusions over the whole grid and as total
                    comparisons, with a 1e-12 slack on the membership
                    threshold on the superset side to absorb float
                    re-association at set boundaries.
* membership_forms  the direct predicate y* >= target - 1/2 agrees with
                    the level-grouped C1 + C2 >= C3 form on every grid
                    point (1e-9 tolerance on the y* scale); one
                    predict_batch and one batched membership_c_form call
                    per instance check the whole grid.
* variation_bound   one appended record moves y* by at most
                    variation_bound() = (L - 1) / kernel_sum_after (+1e-9).
* search_oracle     the vectorized search matches a deliberately naive
                    pure-Python full enumeration exactly, including
                    infeasible-fallback cases.
* store_laws        the bounded store never exceeds capacity, non-fallback
                    evictions always remove the class opposite the new
                    record, and persistence round-trips identically.
* determinism       re-running a scenario with the same config and seed
                    yields byte-identical outputs (timing sidecar aside).

Every instance has L = 12 levels. Each suite's seed is a constant, so its
trial, violation and count figures are fixed; its one parameter is its size.

The naive oracle here is intentionally written in plain Python with
math.exp and explicit loops, sharing no code with the production path.
"""

from __future__ import annotations

import itertools
import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .harness import run_scenario
from .predictor import GrnnPredictor, KernelParams, predict, predict_batch, variation_bound
from .profile import REPLACED_FALLBACK, Profile
from .search import SearchGrid, membership_c_form, search

MEMBERSHIP_SLACK = 1e-12
TOLERANCE = 1e-9  # on the y* scale: membership forms and variation bound
LEVEL_COUNT = 12

MONOTONICITY_SEED = 20240601
MEMBERSHIP_FORMS_SEED = 20240602
VARIATION_BOUND_SEED = 20240603
SEARCH_ORACLE_SEED = 20240604
STORE_LAWS_SEED = 20240605
DETERMINISM_SEED = 20240606


@dataclass
class CheckResult:
    name: str
    trials: int
    violations: int
    elapsed_s: float
    detail: str = ""
    counts: dict | None = None

    @property
    def ok(self) -> bool:
        return self.violations == 0 and self.trials > 0

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return (
            f"{status} {self.name}: {self.trials} trials, "
            f"{self.violations} violations, {self.elapsed_s:.2f}s{extra}"
        )


# ---------------------------------------------------------------------------
# naive reference implementations (independent of the production path)
# ---------------------------------------------------------------------------

def naive_predict(x, records, sigma2):
    """Direct weighted-mean evaluation with math.exp; returns (y*, ksum)."""
    num = 0.0
    den = 0.0
    best = None
    for alloc, response in records:
        d2 = 0.0
        for a, b in zip(x, alloc):
            d2 += (a - b) ** 2
        w = math.exp(-d2 / sigma2)
        num += response * w
        den += w
        if best is None or d2 < best[0]:
            best = (d2, response)
    if den == 0.0:
        return float(best[1]), 0.0
    return num / den, den


def naive_round(y_star, level_count):
    return min(level_count, max(1, math.floor(y_star + 0.5)))


def naive_search(step, max_per_link, records, sigma2, target, level_count):
    """Naive full enumeration using the rounded-prediction membership rule.

    Returns (allocation tuple, feasible bool). min keys: total step count,
    then highest y*, then lexicographic order of the step counts.
    """
    axes = [range(int(math.floor(b / step + 1e-9)) + 1) for b in max_per_link]
    best_feasible = None
    best_any = None
    for cells in itertools.product(*axes):
        x = tuple(c * step for c in cells)
        y_star, _ = naive_predict(x, records, sigma2)
        if naive_round(y_star, level_count) >= target:
            key = (sum(cells), -y_star, cells)
            if best_feasible is None or key < best_feasible:
                best_feasible = key
        key_any = (-y_star, cells)
        if best_any is None or key_any < best_any:
            best_any = key_any
    if best_feasible is not None:
        return tuple(c * step for c in best_feasible[2]), True
    return tuple(c * step for c in best_any[1]), False


# ---------------------------------------------------------------------------
# random instance generation
# ---------------------------------------------------------------------------

_STEPS_BY_DIM = {1: (3, 120), 2: (2, 20), 3: (1, 6)}


def random_instance(rng: np.random.Generator):
    """A random (grid, profile, kernel, target) tuple; grids stay <= 500 points."""
    n = int(rng.integers(1, 4))
    lo, hi = _STEPS_BY_DIM[n]
    cells = [int(rng.integers(lo, hi + 1)) for _ in range(n)]
    step = float(rng.uniform(0.5, 4.0))
    grid = SearchGrid(step, tuple(c * step for c in cells))
    sigma2 = float(rng.uniform(50.0, 2000.0))
    target = int(rng.integers(2, LEVEL_COUNT + 1))
    p = int(rng.integers(2, 41))
    # every record's step counts, then its response, record by record, in
    # one call: the same values and generator state as one call per value
    draws = rng.integers([0] * n + [1], [c + 1 for c in cells] + [LEVEL_COUNT + 1],
                         size=(p, n + 1))
    profile = Profile._from_arrays(n, LEVEL_COUNT, None, draws[:, :n] * step, draws[:, n])
    return grid, profile, KernelParams(sigma2), target


def _random_grid_point(rng, grid: SearchGrid) -> tuple[float, ...]:
    return tuple(
        float(rng.integers(0, c + 1) * grid.step) for c in grid.steps_per_link
    )


def _clone_with(profile: Profile, extra=None, drop_index=None) -> Profile:
    allocs, responses = profile.allocation_matrix(), profile.response_vector()
    if drop_index is not None:
        allocs = np.delete(allocs, drop_index, axis=0)
        responses = np.delete(responses, drop_index)
    clone = Profile._from_arrays(profile.link_count, profile.level_count, None,
                                 allocs, responses)
    if extra is not None:
        clone.append(*extra)
    return clone


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def monotonicity_suite(instances: int = 1000) -> CheckResult:
    """Set-inclusion and total monotonicity for appends and removals."""
    rng = np.random.default_rng(MONOTONICITY_SEED)
    t0 = time.perf_counter()
    violations = 0
    counts = {"append_pos": 0, "append_neg": 0, "remove_pos": 0, "remove_neg": 0}
    for _ in range(instances):
        grid, profile, kernel, target = random_instance(rng)
        pts = grid.points()
        total_c = grid.counts().sum(axis=1)
        thresh = target - 0.5
        y0, _ = predict_batch(pts, profile, kernel)
        m0 = y0 >= thresh
        responses = profile.response_vector()

        def min_total(mask):
            return int(total_c[mask].min())

        # append positive: membership can only grow, total can only drop
        rec = (_random_grid_point(rng, grid), int(rng.integers(target, LEVEL_COUNT + 1)))
        y1, _ = predict_batch(pts, _clone_with(profile, extra=rec), kernel)
        counts["append_pos"] += 1
        if np.any(m0 & (y1 < thresh - MEMBERSHIP_SLACK)):
            violations += 1
        elif m0.any() and min_total(y1 >= thresh - MEMBERSHIP_SLACK) > min_total(m0):
            violations += 1

        # append negative: membership can only shrink, total can only rise
        rec = (_random_grid_point(rng, grid), int(rng.integers(1, target)))
        y1, _ = predict_batch(pts, _clone_with(profile, extra=rec), kernel)
        m1 = y1 >= thresh
        counts["append_neg"] += 1
        if np.any(m1 & (y0 < thresh - MEMBERSHIP_SLACK)):
            violations += 1
        elif m1.any() and min_total(m1) < min_total(y0 >= thresh - MEMBERSHIP_SLACK):
            violations += 1

        # remove positive: same direction as appending negative
        pos_idx = np.flatnonzero(responses >= target)
        if pos_idx.size:
            drop = int(pos_idx[rng.integers(0, pos_idx.size)])
            y2, _ = predict_batch(pts, _clone_with(profile, drop_index=drop), kernel)
            m2 = y2 >= thresh
            counts["remove_pos"] += 1
            if np.any(m2 & (y0 < thresh - MEMBERSHIP_SLACK)):
                violations += 1
            elif m2.any() and min_total(m2) < min_total(y0 >= thresh - MEMBERSHIP_SLACK):
                violations += 1

        # remove negative: same direction as appending positive
        neg_idx = np.flatnonzero(responses < target)
        if neg_idx.size:
            drop = int(neg_idx[rng.integers(0, neg_idx.size)])
            y2, _ = predict_batch(pts, _clone_with(profile, drop_index=drop), kernel)
            counts["remove_neg"] += 1
            if np.any(m0 & (y2 < thresh - MEMBERSHIP_SLACK)):
                violations += 1
            elif m0.any() and min_total(y2 >= thresh - MEMBERSHIP_SLACK) > min_total(m0):
                violations += 1

    detail = ", ".join(f"{k}={v}" for k, v in counts.items())
    return CheckResult("monotonicity", instances, violations,
                       time.perf_counter() - t0, detail, counts=dict(counts))


def membership_forms_suite(instances: int = 100) -> CheckResult:
    """Direct membership vs the level-grouped form on every grid point.

    Each instance is two whole-grid calls, predict_batch and the batched
    membership_c_form, whose rows are bit-identical to their one-point
    calls; a point is a violation when the two tests disagree and y* lies
    more than TOLERANCE from the threshold.
    """
    rng = np.random.default_rng(MEMBERSHIP_FORMS_SEED)
    t0 = time.perf_counter()
    violations = 0
    points_checked = 0
    for _ in range(instances):
        grid, profile, kernel, target = random_instance(rng)
        thresh = target - 0.5
        points = grid.points()
        y_star, _ = predict_batch(points, profile, kernel)
        _, _, _, grouped = membership_c_form(points, profile, kernel, target)
        disagree = (y_star >= thresh) != grouped
        violations += int(np.count_nonzero(disagree & (np.abs(y_star - thresh) > TOLERANCE)))
        points_checked += grid.size
    return CheckResult("membership_forms", points_checked, violations,
                       time.perf_counter() - t0, f"{instances} instances")


def variation_bound_suite(events: int = 1000) -> CheckResult:
    """|y*(p+1) - y*(p)| <= variation_bound(p + 1, L, kernel_sum_after) + 1e-9."""
    rng = np.random.default_rng(VARIATION_BOUND_SEED)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(events):
        grid, profile, kernel, _ = random_instance(rng)
        x = _random_grid_point(rng, grid)
        before = predict(x, profile, kernel)
        rec = (_random_grid_point(rng, grid), int(rng.integers(1, LEVEL_COUNT + 1)))
        after = predict(x, _clone_with(profile, extra=rec), kernel)
        bound = variation_bound(profile.size + 1, LEVEL_COUNT, after.kernel_sum)
        if abs(after.y_star - before.y_star) > bound + TOLERANCE:
            violations += 1
    return CheckResult("variation_bound", events, violations, time.perf_counter() - t0)


def search_oracle_suite(instances: int = 100) -> CheckResult:
    """Production search vs the naive oracle, exact allocation match."""
    rng = np.random.default_rng(SEARCH_ORACLE_SEED)
    t0 = time.perf_counter()
    violations = 0
    infeasible_seen = 0
    for k in range(instances):
        grid, profile, kernel, target = random_instance(rng)
        if k % 3 == 0:
            # force the infeasible-fallback path: every response negative,
            # one draw per record in slot order
            negatives = [int(rng.integers(1, target)) for _ in range(profile.size)]
            profile = Profile._from_arrays(profile.link_count, LEVEL_COUNT, None,
                                           profile.allocation_matrix(), negatives)
        result = search(grid, profile, GrnnPredictor(kernel), target)
        records = list(zip(profile.allocation_matrix().tolist(),
                           profile.response_vector().tolist()))
        expected_alloc, expected_feasible = naive_search(
            grid.step, grid.max_per_link, records, kernel.sigma2, target, LEVEL_COUNT
        )
        if not expected_feasible:
            infeasible_seen += 1
        if result.allocation != expected_alloc or result.feasible_found != expected_feasible:
            violations += 1
    return CheckResult("search_oracle", instances, violations,
                       time.perf_counter() - t0, f"{infeasible_seen} infeasible cases")


def store_laws_suite(updates: int = 10000) -> CheckResult:
    """Capacity, opposite-class eviction, and persistence round-trips."""
    rng = np.random.default_rng(STORE_LAWS_SEED)
    t0 = time.perf_counter()
    violations = 0
    n = int(rng.integers(1, 4))
    capacity = int(rng.integers(5, 41))
    profile = Profile(n, LEVEL_COUNT, capacity)
    profile.append(tuple(float(rng.uniform(0, 50)) for _ in range(n)),
                   int(rng.integers(1, LEVEL_COUNT + 1)))
    for step in range(updates):
        target = int(rng.integers(2, LEVEL_COUNT + 1))
        alloc = tuple(float(rng.uniform(0, 50)) for _ in range(n))
        response = int(rng.integers(1, LEVEL_COUNT + 1))
        responses_before = profile.response_vector().copy()
        at_capacity = profile.size == capacity
        result = profile.update(alloc, response, target)
        if profile.size > capacity:
            violations += 1
        if at_capacity:
            if profile.size != capacity:
                violations += 1
            if result.action != REPLACED_FALLBACK:
                new_positive = response >= target
                evicted_positive = responses_before[result.index] >= target
                if new_positive == evicted_positive:
                    violations += 1
        if step % 1000 == 0:
            if Profile.from_bytes(profile.to_bytes()) != profile:
                violations += 1
    if Profile.from_bytes(profile.to_bytes()) != profile:
        violations += 1
    return CheckResult("store_laws", updates, violations, time.perf_counter() - t0,
                       f"capacity={capacity}")


def determinism_suite() -> CheckResult:
    """Byte-identical outputs (minus the timing sidecar) across re-runs."""
    from .scenarios import tracking_scenario

    t0 = time.perf_counter()
    config = tracking_scenario(qos_level=2, rng_seed=DETERMINISM_SEED, run_length=12)
    violations = 0
    compared = 0
    with tempfile.TemporaryDirectory() as tmp:
        dir_a = Path(tmp) / "a"
        dir_b = Path(tmp) / "b"
        run_scenario(config, out_dir=dir_a)
        run_scenario(config, out_dir=dir_b)
        names = sorted(p.name for p in dir_a.iterdir())
        for name in names:
            if name == "timings.csv":
                continue
            compared += 1
            if (dir_a / name).read_bytes() != (dir_b / name).read_bytes():
                violations += 1
    return CheckResult("determinism", compared, violations, time.perf_counter() - t0,
                       "timing sidecar excluded")


def run_all(scale: float = 1.0) -> list[CheckResult]:
    """Run every suite, scaled; scale=1 matches the acceptance sizes."""

    def sized(base: int) -> int:
        return max(1, int(round(base * scale)))

    return [
        monotonicity_suite(instances=sized(1000)),
        membership_forms_suite(instances=sized(100)),
        variation_bound_suite(events=sized(1000)),
        search_oracle_suite(instances=sized(100)),
        store_laws_suite(updates=sized(10000)),
        determinism_suite(),
    ]
