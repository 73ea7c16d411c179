"""The benchmark's four closed-loop workloads.

Each workload turns a seed into inputs (a ScenarioConfig or library
objects), makes one entry call into qosalloc, and reduces the call's
deterministic outputs to per-item SHA-256 digests. Every call reaches the
program through module attributes at call time, so the tracer's wrappers
see it too.

track_ref         ``run_scenario`` at the reference size (the ``qosalloc run``
                  path): small epochs, so controller, profile and harness
                  overhead are a visible share of the time.
stress_contended  the library path at 3 links, 25,625 grid points and S=128,
                  seeded at capacity; two services contend for tight links so
                  the clamp binds. Kernel evaluation is nearly all the time.
compare_sweep     ``compare_predictors`` with the CLI's five default variants;
                  the only workload that runs the kNN baseline and the
                  unbounded append path.
verify_suites     ``verification.run_all`` at a fixed scale: thousands of
                  one-shot predictions on small fresh profiles, so per-call
                  overhead and the profile write path dominate.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qosalloc import baselines, controller, harness, netsim, verification
from qosalloc.predictor import KernelParams
from qosalloc.search import SearchGrid

LEVELS = 12
THRESHOLDS = (-11.25, -8.75, -6.25, -3.75, -1.25, 1.25, 3.75, 6.25, 8.75, 11.25, 13.75)
TARGETS = (7, 9, 11)
SIGMA2 = 200.0
STEP = 1.25
REF_MAX = (50.0, 30.0)          # 41 x 25 = 1,025 grid points
REF_CAPACITY = 31
SEED_RECORDS = 16
NOMINAL_RATE = 40.0

TRACK_EPOCHS = 48
TRACK_PLATEAUS = (36.0, 40.0, 44.0, 48.0)

COMPARE_EPOCHS = 40
COMPARE_VARIANTS = (  # the CLI's default: grnn_bounded@16,@31,@46, knn, grnn_unbounded
    harness.Variant(baselines.PredictorKind("grnn_bounded"), 16),
    harness.Variant(baselines.PredictorKind("grnn_bounded"), 31),
    harness.Variant(baselines.PredictorKind("grnn_bounded"), 46),
    harness.Variant(baselines.PredictorKind("knn", 5)),
    harness.Variant(baselines.PredictorKind("grnn_unbounded")),
)

STRESS_MAX = (50.0, 30.0, 30.0)  # 41 x 25 x 25 = 25,625 grid points
STRESS_CAPACITY = 128
STRESS_EPOCHS = 8
STRESS_QOS = (2, 3)
STRESS_LINK_CAPACITY = (60.0, 40.0, 40.0)
STRESS_NOISE_STD = 1.0

VERIFY_SCALE = 0.2
DETERMINISM_EPOCHS = 12  # determinism_suite re-runs a 12-epoch scenario twice

# An independent recomputation of a search decision ignores grid points whose
# y* lies this close to the membership threshold (float re-association).
DECISION_TOL = 1e-6


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, int.from_bytes(workload.encode(), "little") % 2**32])


# -- inputs ---------------------------------------------------------------------

def _reference_config(rates, rng_seed: int) -> harness.ScenarioConfig:
    return harness.ScenarioConfig(
        level_count=LEVELS, thresholds=THRESHOLDS, targets=TARGETS,
        grid_step=STEP, grid_max_per_link=REF_MAX, capacity=REF_CAPACITY,
        run_length=len(rates), rng_seed=rng_seed,
        links=(netsim.LinkSpec(300.0, 40.0), netsim.LinkSpec(300.0, 40.0)),
        qos_levels=(2,), rates=(tuple(rates),),
        seed=harness.SeedSpec(records=SEED_RECORDS, nominal_rate=NOMINAL_RATE),
        sigma2=SIGMA2, predictor=baselines.PredictorKind(),
    )


def track_ref_inputs(seed: int) -> harness.ScenarioConfig:
    """Four plateaus, one per rate in TRACK_PLATEAUS, in seeded order and lengths."""
    rng = _rng(seed, "track_ref")
    order = rng.permutation(TRACK_PLATEAUS)
    lengths = [12 + int(d) for d in rng.integers(-3, 4, size=3)]
    lengths.append(TRACK_EPOCHS - sum(lengths))
    rates = [float(r) for r, n in zip(order, lengths) for _ in range(n)]
    return _reference_config(rates, int(rng.integers(2**31)))


def compare_sweep_inputs(seed: int) -> harness.ScenarioConfig:
    """Surge trace: base, surge, dip and recovery plateaus at seeded levels."""
    rng = _rng(seed, "compare_sweep")
    levels = (rng.uniform(38, 42), rng.uniform(54, 60), rng.uniform(34, 38), rng.uniform(42, 46))
    quarter = COMPARE_EPOCHS // 4
    rates = [round(float(level), 2) for level in levels for _ in range(quarter)]
    return _reference_config(rates, int(rng.integers(2**31)))


@dataclass(frozen=True)
class StressInputs:
    qos_config: controller.QosConfig
    links: tuple
    services: tuple
    profile_seed: int
    noise_seed: int


def stress_contended_inputs(seed: int) -> StressInputs:
    """Seeded background and rate traces on tight links; ERAB noise seed."""
    rng = _rng(seed, "stress_contended")
    grid = SearchGrid(STEP, STRESS_MAX)
    qos_config = controller.QosConfig(
        level_count=LEVELS, thresholds=THRESHOLDS, targets=TARGETS,
        kernel=KernelParams(SIGMA2), grid=grid, capacity=STRESS_CAPACITY,
    )
    # background takes 15-45 % of each link, drawn per epoch
    links = tuple(
        netsim.LinkSpec(cap, tuple(round(float(b), 2)
                                   for b in rng.uniform(0.15, 0.45, STRESS_EPOCHS) * cap))
        for cap in STRESS_LINK_CAPACITY
    )
    # source rates hold each drawn level for two epochs
    services = tuple(
        netsim.ServiceSpec(
            tuple(float(r) for r in np.repeat(rng.choice(levels, STRESS_EPOCHS // 2), 2)), qos)
        for qos, levels in zip(STRESS_QOS, ((32.0, 36.0, 40.0, 44.0), (24.0, 28.0, 32.0, 36.0)))
    )
    return StressInputs(qos_config, links, services,
                        int(rng.integers(2**31)), int(rng.integers(2**31)))


# -- entry calls ------------------------------------------------------------------

def track_ref_call(config, out_dir: Path):
    return harness.run_scenario(config, out_dir=out_dir)


def compare_sweep_call(config, out_dir: Path):
    return harness.compare_predictors(config, COMPARE_VARIANTS, out_dir=out_dir)


def stress_contended_call(inp: StressInputs, out_dir: Path):
    q = inp.qos_config
    rng = np.random.default_rng(inp.profile_seed)
    ctrls = []
    for svc in inp.services:
        seed_profile = harness.seed_profile_generate(
            q.grid, q, STRESS_CAPACITY, NOMINAL_RATE, rng, capacity=STRESS_CAPACITY)
        ctrls.append(controller.QosController(q, seed_profile, svc.qos_level))
    sim = netsim.Simulator(inp.links, inp.services, ctrls, noise_std=STRESS_NOISE_STD,
                           rng=np.random.default_rng(inp.noise_seed))
    sim.run(STRESS_EPOCHS)
    return ctrls


def verify_suites_call(_inputs, out_dir: Path):
    return verification.run_all(scale=VERIFY_SCALE)


# -- digests of deterministic outputs ---------------------------------------------

def _file_digests(out_dir: Path, skip: set[str]) -> dict[str, str]:
    return {p.name: sha(p.read_bytes()) for p in sorted(out_dir.iterdir()) if p.name not in skip}


def _log_bytes(ctrl) -> bytes:
    rows = [
        f"{r.epoch},{','.join(map(repr, r.allocation))},{r.erab!r},{r.response},{r.update_action}"
        for r in ctrl.log
    ]
    return "\n".join(rows).encode()


def track_ref_digest(result, out_dir: Path) -> dict[str, str]:
    return _file_digests(out_dir, {"timings.csv"})


def compare_sweep_digest(results, out_dir: Path) -> dict[str, str]:
    digests = _file_digests(out_dir, {"comparison_timing.csv"})
    for label, result in results:
        for i, ctrl in enumerate(result.controllers, start=1):
            digests[f"{label}/profile_s{i}"] = sha(ctrl.profile.to_bytes())
            digests[f"{label}/epochs_s{i}"] = sha(_log_bytes(ctrl))
    return digests


def stress_contended_digest(ctrls, out_dir: Path) -> dict[str, str]:
    digests = {}
    for i, ctrl in enumerate(ctrls, start=1):
        digests[f"profile_s{i}"] = sha(ctrl.profile.to_bytes())
        digests[f"epochs_s{i}"] = sha(_log_bytes(ctrl))
    return digests


def verify_suites_digest(results, out_dir: Path) -> dict[str, str]:
    return {
        r.name: sha(json.dumps([r.trials, r.violations, r.counts], sort_keys=True).encode())
        for r in results
    }


# -- correctness checks independent of recorded digests ---------------------------

def _grid_counts(maxima) -> np.ndarray:
    axes = [np.arange(int(round(b / STEP)) + 1) for b in maxima]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(maxima))


def check_decision(ctrl) -> list[str]:
    """Recompute the controller's last search on the whole grid, independently.

    y* is evaluated by the expanded-square distance form in row chunks; the
    chosen point must be a member, and no point with a smaller total may be
    one (points within DECISION_TOL of the threshold are not judged).
    """
    grid = ctrl.config.grid
    counts = _grid_counts(grid.max_per_link)
    pts = counts * STEP
    allocs = ctrl.profile.allocation_matrix()
    resp = ctrl.profile.response_vector().astype(float)
    sq_allocs = (allocs ** 2).sum(axis=1)
    y = np.empty(len(pts))
    for lo in range(0, len(pts), 2048):
        chunk = pts[lo:lo + 2048]
        d2 = (chunk ** 2).sum(axis=1)[:, None] + sq_allocs[None, :] - 2.0 * chunk @ allocs.T
        w = np.exp(-np.maximum(d2, 0.0) / ctrl.config.kernel.sigma2)
        y[lo:lo + 2048] = (w @ resp) / w.sum(axis=1)
    thresh = ctrl.target - 0.5
    chosen = np.round(np.asarray(ctrl.current_allocation) / STEP).astype(int)
    idx = int(np.flatnonzero((counts == chosen).all(axis=1))[0])
    totals = counts.sum(axis=1)
    problems = []
    if ctrl.current_result.feasible_found:
        if y[idx] < thresh - DECISION_TOL:
            problems.append(f"chosen allocation {ctrl.current_allocation} is not a member")
        if np.any(y[totals < totals[idx]] >= thresh + DECISION_TOL):
            problems.append(f"a cheaper member than {ctrl.current_allocation} exists")
    elif np.any(y >= thresh + DECISION_TOL) or y[idx] < y.max() - DECISION_TOL:
        problems.append("infeasible fallback is not the highest-y* point")
    return problems


def check_controller(ctrl) -> list[str]:
    problems = []
    cap = ctrl.profile.capacity
    if cap is not None and ctrl.profile.size > cap:
        problems.append(f"profile size {ctrl.profile.size} exceeds capacity {cap}")
    maxima = np.asarray(ctrl.config.grid.max_per_link)
    for rec in ctrl.log:
        x = np.asarray(rec.allocation)
        off_step = np.abs(x / STEP - np.round(x / STEP)) > 1e-9
        if np.any(x < 0) or np.any(x > maxima + 1e-9) or np.any(off_step):
            problems.append(f"epoch {rec.epoch}: allocation {rec.allocation} is off the grid")
            break
    if isinstance(ctrl.predictor, baselines.KnnPredictor):
        return problems
    return problems + check_decision(ctrl)


def _check_controllers(ctrls) -> list[str]:
    return [p for ctrl in ctrls for p in check_controller(ctrl)]


def verify_suites_check(results) -> list[str]:
    return [r.line() for r in results if not r.ok]


# -- loss and surplus --------------------------------------------------------------

def loss_surplus(ctrls) -> tuple[float, float]:
    """Mean over services of avg DLR (loss) and avg RAB (surplus), Mbps."""
    loss = [float(np.mean([max(0.0, -r.erab) for r in c.log])) for c in ctrls]
    surplus = [float(np.mean([max(0.0, r.erab) for r in c.log])) for c in ctrls]
    return float(np.mean(loss)), float(np.mean(surplus))


# -- closed forms of traced call counts for k traced entry calls --------------------
# Keys are per-layer metric names or tracer counters ("search.site.<module>"
# counts searches by the module that made them).

CONTROLLER_SEARCHES = "search.site.qosalloc.controller"


def track_ref_closed_forms(k: int) -> dict[str, int]:
    epochs = k * TRACK_EPOCHS
    return {
        "harness.run_scenario.calls": k,
        "harness.write_outputs.calls": k,
        "controller.init.calls": k,
        "netsim.run_epoch.calls": epochs,
        "controller.step.calls": epochs,
        "profile.update.calls": epochs,
        CONTROLLER_SEARCHES: epochs + k,
    }


def stress_contended_closed_forms(k: int) -> dict[str, int]:
    services = len(STRESS_QOS)
    return {
        "harness.seed_profile_generate.calls": k * services,
        "controller.init.calls": k * services,
        "netsim.run_epoch.calls": k * STRESS_EPOCHS,
        "controller.step.calls": k * services * STRESS_EPOCHS,
        "profile.update.calls": k * services * STRESS_EPOCHS,
        "search.search.calls": k * services * (STRESS_EPOCHS + 1),
        CONTROLLER_SEARCHES: k * services * (STRESS_EPOCHS + 1),
    }


def compare_sweep_closed_forms(k: int) -> dict[str, int]:
    runs = k * len(COMPARE_VARIANTS)
    return {
        "harness.compare_predictors.calls": k,
        "harness.run_scenario.calls": runs,
        "controller.init.calls": runs,
        "netsim.run_epoch.calls": runs * COMPARE_EPOCHS,
        "controller.step.calls": runs * COMPARE_EPOCHS,
        CONTROLLER_SEARCHES: runs * (COMPARE_EPOCHS + 1),
    }


def verify_suites_closed_forms(k: int) -> dict[str, int]:
    """run_all's documented suite sizes at VERIFY_SCALE."""
    def sized(base: int) -> int:
        return max(1, int(round(base * VERIFY_SCALE)))

    epochs = 2 * DETERMINISM_EPOCHS
    forms = {f"verification.{suite}.calls": k for suite in (
        "run_all", "monotonicity", "membership_forms", "variation_bound",
        "search_oracle", "store_laws", "determinism")}
    forms.update({
        "verification.naive_search.calls": k * sized(100),
        "search.site.qosalloc.verification": k * sized(100),
        "harness.run_scenario.calls": 2 * k,
        "netsim.run_epoch.calls": k * epochs,
        "profile.update.calls": k * (sized(10000) + epochs),
    })
    return forms


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable        # seed -> inputs
    call: Callable          # (inputs, out_dir) -> result: the timed entry call
    digest: Callable        # (result, out_dir) -> {item: sha256}
    check: Callable         # result -> list of problems
    controllers: Callable | None  # result -> controllers for loss and surplus
    closed_forms: Callable  # traced calls k -> {count name: value}
    ops_per_call: int       # operations counted by fail_ratio
    epochs_per_call: int    # service-epochs, for epochs_per_s
    trace_calls: int        # entry calls in a traced run
    setup_ends_at_epoch: bool = True  # else set-up ends where the entry call starts


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "track_ref", track_ref_inputs, track_ref_call, track_ref_digest,
            lambda res: _check_controllers(res.controllers),
            lambda res: res.controllers,
            track_ref_closed_forms, TRACK_EPOCHS, TRACK_EPOCHS, 10,
        ),
        Workload(
            "stress_contended", stress_contended_inputs, stress_contended_call,
            stress_contended_digest, _check_controllers, lambda res: res,
            stress_contended_closed_forms, STRESS_EPOCHS, STRESS_EPOCHS * len(STRESS_QOS), 1,
        ),
        Workload(
            "compare_sweep", compare_sweep_inputs, compare_sweep_call, compare_sweep_digest,
            lambda res: _check_controllers([c for _, r in res for c in r.controllers]),
            lambda res: next(r for label, r in res if label == "grnn_bounded_S31").controllers,
            compare_sweep_closed_forms, len(COMPARE_VARIANTS),
            len(COMPARE_VARIANTS) * COMPARE_EPOCHS, 2,
        ),
        Workload(
            "verify_suites", lambda seed: None, verify_suites_call, verify_suites_digest,
            verify_suites_check, None, verify_suites_closed_forms,
            6, 2 * DETERMINISM_EPOCHS, 1, setup_ends_at_epoch=False,
        ),
    )
}
