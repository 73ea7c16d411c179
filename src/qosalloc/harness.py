"""Scenario configuration, closed-loop experiment runs, and metrics.

A scenario bundles the QoS configuration, the links, the services with
their rate traces, a seed-profile source, and a predictor choice. Scenarios
are fully deterministic: (config, rng_seed) fixes every output byte except
wall-clock timing, which is therefore segregated into its own sidecar file
(timings.csv) and excluded from the determinism contract. Every per-epoch
series is read from the controllers' logs, and every CSV file goes through
one writer with one value format (repr for floats, 1/0 for flags).

Config files are JSON with a strict key set (unknown keys are rejected) so
experiments stay auditable; rate and background traces are CSV files with
one column per service (or link) and one row per epoch.

Reported metrics, averaged over all epochs of a run:

* avg_rab            mean of max(0, ERAB)      (surplus bandwidth)
* avg_dlr            mean of max(0, -ERAB)     (loss rate)
* avg_bw_variation   mean |total_{t+1} - total_t| over consecutive epochs
* final_search_time  wall-clock of the last epoch's allocation search,
                     re-measured as a median over repeated evaluations of
                     that same final-state search so single-shot timer
                     jitter cannot invert comparisons. The repetitions are
                     interleaved across the controllers being compared
                     that share a predictor type, so a slow or fast spell
                     of the machine shifts all of their samples alike.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .baselines import GRNN_BOUNDED, KNN, KnnPredictor, PredictorKind
from .controller import ConfigError, QosConfig, QosController
from .netsim import LinkSpec, ServiceSpec, Simulator
from .predictor import DEFAULT_SIGMA2, GrnnPredictor, KernelParams, _screen_bytes
from .profile import Profile
from .search import SearchGrid, search

FINAL_TIMING_REPS = 21


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeedSpec:
    """Where the initial profile comes from: a file, or the generator."""

    file: str | None = None
    records: int | None = None
    nominal_rate: float | None = None

    def __post_init__(self) -> None:
        from_file = self.file is not None
        generated = self.records is not None or self.nominal_rate is not None
        if from_file == generated:
            raise ConfigError(
                "seed_profile needs exactly one of: a file, or records + nominal_rate"
            )
        if not generated:
            return
        if self.records is None or self.nominal_rate is None:
            raise ConfigError("generated seed_profile needs both records and nominal_rate")
        if self.records < 1:
            raise ConfigError(f"records must be >= 1, got {self.records}")
        _check_nominal_rate(self.nominal_rate)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one closed-loop experiment needs."""

    level_count: int
    thresholds: tuple[float, ...]
    targets: tuple[int, ...]
    grid_step: float
    grid_max_per_link: tuple[float, ...]
    capacity: int
    run_length: int
    rng_seed: int
    links: tuple[LinkSpec, ...]
    qos_levels: tuple[int, ...]
    rates: tuple[tuple[float, ...], ...]  # one trace per service
    seed: SeedSpec
    sigma2: float = DEFAULT_SIGMA2
    min_kernel_sum: float = 0.0
    predictor: PredictorKind = field(default_factory=PredictorKind)
    erab_noise_std: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "thresholds", tuple(float(t) for t in self.thresholds))
        object.__setattr__(self, "targets", tuple(int(a) for a in self.targets))
        object.__setattr__(
            self, "grid_max_per_link", tuple(float(b) for b in self.grid_max_per_link)
        )
        object.__setattr__(self, "links", tuple(self.links))
        object.__setattr__(self, "qos_levels", tuple(int(q) for q in self.qos_levels))
        object.__setattr__(
            self, "rates", tuple(tuple(float(r) for r in trace) for trace in self.rates)
        )
        if self.run_length < 1:
            raise ConfigError(f"run_length must be >= 1, got {self.run_length}")
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if len(self.links) != len(self.grid_max_per_link):
            raise ConfigError(
                f"{len(self.links)} links but grid covers {len(self.grid_max_per_link)}"
            )
        if len(self.qos_levels) != len(self.rates):
            raise ConfigError(
                f"{len(self.qos_levels)} services but {len(self.rates)} rate traces"
            )
        if not self.qos_levels:
            raise ConfigError("need at least one service")
        # fail early on inconsistent QoS parameters, and on a run too large
        # to search whatever its traces hold
        grid = self.to_qos_config().grid
        records = self.seed.records
        if records is not None:
            _check_knn_k(self.predictor, records)
            if self.predictor.bounded and records > self.capacity:
                raise ConfigError(
                    f"seed.records={records} exceeds the profile capacity {self.capacity}"
                )
            if records > grid.size:
                raise ConfigError(f"seed.records={records} exceeds the {grid.size} grid points")
            _check_screen_bytes(self, grid, records)
        if not (math.isfinite(self.erab_noise_std) and self.erab_noise_std >= 0.0):
            raise ConfigError(
                f"erab_noise_std must be finite and >= 0, got {self.erab_noise_std}"
            )
        for q in self.qos_levels:
            if not 1 <= q <= len(self.targets):
                raise ConfigError(f"qos_level {q} outside [1, {len(self.targets)}]")
        for s, trace in enumerate(self.rates):
            if not all(math.isfinite(r) and r >= 0.0 for r in trace):
                raise ConfigError(f"service {s + 1} rate trace must be finite and >= 0")
            if len(trace) < self.run_length:
                raise ConfigError(
                    f"service {s + 1} rate trace has {len(trace)} epochs, "
                    f"run needs {self.run_length}"
                )
        for link in self.links:
            if isinstance(link.background, tuple) and len(link.background) < self.run_length:
                raise ConfigError(
                    f"background trace has {len(link.background)} epochs, "
                    f"run needs {self.run_length}"
                )

    def to_qos_config(self) -> QosConfig:
        return QosConfig(
            level_count=self.level_count,
            thresholds=self.thresholds,
            targets=self.targets,
            kernel=KernelParams(self.sigma2),
            grid=SearchGrid(self.grid_step, self.grid_max_per_link),
            capacity=self.capacity,
            min_kernel_sum=self.min_kernel_sum,
        )


def _check_nominal_rate(nominal_rate: float) -> None:
    if not (math.isfinite(nominal_rate) and nominal_rate >= 0.0):
        raise ConfigError(f"nominal_rate must be finite and >= 0, got {nominal_rate}")


#: Most bytes one fresh screen of the grid (GrnnPredictor.predict_bounds) may
#: take at the largest profile a run can reach; a larger run is refused at
#: load. The 3-link stress grid (25,625 points) at S = 512 takes 3.7 MB.
_SCREEN_MAX_BYTES = 2**28


def _check_screen_bytes(config: ScenarioConfig, grid: SearchGrid, seed_records: int) -> None:
    """Refuse a run whose profile can grow to a screen of more than _SCREEN_MAX_BYTES.

    The profile reaches min(capacity, seed records + run_length) records
    when it is bounded, seed records + run_length otherwise.
    """
    reach = seed_records + config.run_length
    if config.predictor.bounded:
        reach = min(config.capacity, reach)
    need = _screen_bytes(grid, reach)
    if need > _SCREEN_MAX_BYTES:
        raise ConfigError(
            f"the profile can reach {reach} records ({seed_records} seed records, "
            f"run_length {config.run_length}), whose screen of the {grid.size}-point grid "
            f"would take {need / 2**20:.0f} MiB, more than {_SCREEN_MAX_BYTES >> 20} MiB"
        )


def _check_knn_k(predictor: PredictorKind, seed_records: int) -> None:
    """A kNN run needs at least knn_k records in its seed profile."""
    if predictor.tag == KNN and predictor.knn_k > seed_records:
        raise ConfigError(
            f"predictor.knn_k={predictor.knn_k} exceeds the {seed_records} "
            f"seed profile records"
        )


# ---------------------------------------------------------------------------
# config / trace file IO
# ---------------------------------------------------------------------------

_TOP_KEYS = {
    "rng_seed", "run_length", "levels", "thresholds", "targets", "sigma2",
    "min_kernel_sum", "grid", "capacity", "predictor", "links", "services",
    "rate_trace", "background_trace", "seed_profile", "erab_noise_std",
}
_GRID_KEYS = {"step", "max_per_link"}
_PREDICTOR_KEYS = {"kind", "knn_k"}
_LINK_KEYS = {"capacity", "background"}
_SERVICE_KEYS = {"qos_level"}
_SEED_KEYS = {"file", "records", "nominal_rate"}


def _reject_unknown(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}")


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return mapping[key]


_REQUIRED = object()


def _field(mapping: dict, key: str, where: str, convert, default=_REQUIRED):
    """convert(mapping[key]); a missing or malformed value raises ConfigError.

    An absent optional key returns default unconverted.
    """
    if key not in mapping:
        if default is _REQUIRED:
            raise ConfigError(f"{where}: missing required key {key!r}")
        return default
    try:
        return convert(mapping[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {key}: {exc}") from exc


def _object(value, where: str, allowed: set[str]) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object, got {type(value).__name__}")
    _reject_unknown(value, allowed, where)
    return value


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def _floats(value) -> tuple[float, ...]:
    return tuple(float(v) for v in _list(value))


def _int(value) -> int:
    """A JSON integer; a bool, a string or a number with a fraction raises.

    An integral float such as 3.0 is taken as 3.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _ints(value) -> tuple[int, ...]:
    return tuple(_int(v) for v in _list(value))


def _construct(where: str, build, *args, **kwargs):
    """build(*args, **kwargs), with a rejected value reported as ConfigError."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def read_trace_csv(path: Path, expected_columns: int, what: str) -> tuple[tuple[float, ...], ...]:
    """Read a trace CSV (header row, then one row per epoch) column-major."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or not UTF-8
        raise ConfigError(f"{what} trace {path}: {exc}") from exc
    rows = [ln for ln in lines if ln.strip()]
    if not rows:
        raise ConfigError(f"{what} trace {path}: empty file")
    header = rows[0].split(",")
    if len(header) != expected_columns:
        raise ConfigError(
            f"{what} trace {path}: {len(header)} columns in header, expected {expected_columns}"
        )
    data: list[list[float]] = []
    for lineno, row in enumerate(rows[1:], start=2):
        fields = row.split(",")
        if len(fields) != expected_columns:
            raise ConfigError(
                f"{what} trace {path}: line {lineno} has {len(fields)} fields, "
                f"expected {expected_columns}"
            )
        try:
            data.append([float(v) for v in fields])
        except ValueError as exc:
            raise ConfigError(f"{what} trace {path}: line {lineno}: {exc}") from exc
    columns = tuple(tuple(row[c] for row in data) for c in range(expected_columns))
    return columns


def _inline_or_file_trace(value, base: Path, columns: int, what: str):
    if isinstance(value, str):
        return read_trace_csv(base / value, columns, what)
    if isinstance(value, dict):
        _reject_unknown(value, {"inline"}, what)
        rows = []
        for i, row in enumerate(_field(value, "inline", what, _list)):
            at = f"{what}: inline row {i + 1}"
            rows.append(_construct(at, _floats, row))
            if len(row) != columns:
                raise ConfigError(f"{at} has {len(row)} values, expected {columns}")
        return tuple(tuple(r[c] for r in rows) for c in range(columns))
    raise ConfigError(f"{what}: expected a path or an inline table, got {type(value).__name__}")


def load_scenario(path) -> ScenarioConfig:
    """Parse a scenario JSON file, resolving trace paths relative to it.

    Every malformed or out-of-range value raises ConfigError naming its
    field.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    where = str(path)
    raw = _object(raw, where, _TOP_KEYS)
    base = path.parent

    grid_at = f"{where}: grid"
    grid = _object(_require(raw, "grid", where), grid_at, _GRID_KEYS)
    links = []
    for i, entry in enumerate(_field(raw, "links", where, _list)):
        at = f"{where}: links[{i}]"
        entry = _object(entry, at, _LINK_KEYS)
        capacity = _field(entry, "capacity", at, float)
        background = _field(entry, "background", at, float, 0.0)
        links.append(_construct(at, LinkSpec, capacity, background))
    services_raw = _field(raw, "services", where, _list)
    if not services_raw:
        raise ConfigError(f"{where}: services must be non-empty")
    qos_levels = []
    for i, entry in enumerate(services_raw):
        at = f"{where}: services[{i}]"
        qos_levels.append(_field(_object(entry, at, _SERVICE_KEYS), "qos_level", at, _int))

    rates = _inline_or_file_trace(
        _require(raw, "rate_trace", where), base, len(services_raw), f"{where}: rate_trace"
    )
    if "background_trace" in raw:
        at = f"{where}: background_trace"
        bg_cols = _inline_or_file_trace(raw["background_trace"], base, len(links), at)
        links = [
            _construct(at, replace, link, background=bg_cols[i]) for i, link in enumerate(links)
        ]

    at = f"{where}: seed_profile"
    seed_raw = _object(_require(raw, "seed_profile", where), at, _SEED_KEYS)
    seed = _construct(
        at, SeedSpec,
        file=_field(seed_raw, "file", at, lambda f: str(base / f), None),
        records=_field(seed_raw, "records", at, _int, None),
        nominal_rate=_field(seed_raw, "nominal_rate", at, float, None),
    )

    predictor = PredictorKind()
    if "predictor" in raw:
        at = f"{where}: predictor"
        predictor_raw = _object(raw["predictor"], at, _PREDICTOR_KEYS)
        predictor = _construct(
            at, PredictorKind,
            tag=_field(predictor_raw, "kind", at, str, GRNN_BOUNDED),
            knn_k=_field(predictor_raw, "knn_k", at, _int, 5),
        )

    return _construct(
        where, ScenarioConfig,
        level_count=_field(raw, "levels", where, _int),
        thresholds=_field(raw, "thresholds", where, _floats),
        targets=_field(raw, "targets", where, _ints),
        grid_step=_field(grid, "step", grid_at, float),
        grid_max_per_link=_field(grid, "max_per_link", grid_at, _floats),
        capacity=_field(raw, "capacity", where, _int),
        run_length=_field(raw, "run_length", where, _int),
        rng_seed=_field(raw, "rng_seed", where, _int),
        links=tuple(links),
        qos_levels=tuple(qos_levels),
        rates=rates,
        seed=seed,
        sigma2=_field(raw, "sigma2", where, float, DEFAULT_SIGMA2),
        min_kernel_sum=_field(raw, "min_kernel_sum", where, float, 0.0),
        predictor=predictor,
        erab_noise_std=_field(raw, "erab_noise_std", where, float, 0.0),
    )


# ---------------------------------------------------------------------------
# seed-profile generation
# ---------------------------------------------------------------------------

def seed_profile_generate(
    grid: SearchGrid,
    qos_config: QosConfig,
    n_records: int,
    nominal_rate: float,
    rng_seed: int | np.random.Generator,
    capacity: int | None = None,
) -> Profile:
    """Generate an idealized prior profile spanning low-to-high totals.

    The grid is sorted by total bandwidth and split into n_records strata;
    one allocation is sampled per stratum, so records are distinct and
    cover the whole range. Each record's response is what quantization
    would yield for that allocation under the nominal source rate on
    uncontended links. All strata are drawn in one rng.integers call with
    array bounds, which draws the same values as one call per stratum
    (numpy 2.4).
    """
    if n_records < 1:
        raise ValueError(f"n_records must be >= 1, got {n_records}")
    if n_records > grid.size:
        raise ValueError(f"n_records={n_records} exceeds grid size {grid.size}")
    _check_nominal_rate(nominal_rate)
    rng = (
        rng_seed
        if isinstance(rng_seed, np.random.Generator)
        else np.random.default_rng(rng_seed)
    )
    size = grid.size
    strata = np.arange(n_records + 1) * size // n_records
    picks = grid.by_total_order()[rng.integers(strata[:-1], strata[1:])]
    allocs = grid.points(picks)
    # each total added link by link, as sum() over the allocation adds it
    erab = np.add.accumulate(allocs, axis=1)[:, -1] - nominal_rate
    responses = np.searchsorted(qos_config.thresholds, erab, side="left") + 1
    # grid points with levels in [1, L]: valid records by construction
    return Profile._from_arrays(grid.link_count, qos_config.level_count, capacity,
                                allocs, responses)


# ---------------------------------------------------------------------------
# runs and metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricsReport:
    """Per-service metrics; the per-epoch series are in the controller's log."""

    service: int
    qos_level: int
    epochs: int
    avg_rab: float
    avg_dlr: float
    avg_bw_variation: float
    final_search_time_ms: float


@dataclass(frozen=True)
class ScenarioResult:
    config: ScenarioConfig
    reports: tuple[MetricsReport, ...]
    controllers: tuple[QosController, ...]


def compute_metrics(
    erab: Sequence[float], totals: Sequence[float]
) -> tuple[float, float, float]:
    """(avg_rab, avg_dlr, avg_bw_variation) from the per-epoch series."""
    erab_arr = np.asarray(erab, dtype=float)
    totals_arr = np.asarray(totals, dtype=float)
    avg_rab = float(np.maximum(erab_arr, 0.0).mean())
    avg_dlr = float(np.maximum(-erab_arr, 0.0).mean())
    if totals_arr.size > 1:
        avg_var = float(np.abs(np.diff(totals_arr)).mean())
    else:
        avg_var = 0.0
    return avg_rab, avg_dlr, avg_var


def _measure_final_search_ms(
    ctrls: Sequence[QosController], reps: int = FINAL_TIMING_REPS
) -> list[float]:
    """Median wall-clock of each controller's final-state search.

    Controllers are timed in groups of one predictor type, one group after
    another. Within a group each round times every controller once, in
    order, so their samples are taken side by side rather than one block
    after another. The kinds are not interleaved because a kNN search
    slows the kernel-regression searches after it for up to about a
    millisecond: three identical kernel-regression controllers timed in
    rounds with a kNN one read 5-35 us apart by their place in the round,
    and 2-5 us apart without it (2-vCPU Xeon).
    """
    times: list[list[float]] = [[] for _ in ctrls]
    groups: dict[type, list] = {}
    for ctrl, samples in zip(ctrls, times):
        groups.setdefault(type(ctrl.predictor), []).append((ctrl, samples))
    for group in groups.values():
        for _ in range(reps + 1):
            for ctrl, samples in group:
                t0 = time.perf_counter()
                search(ctrl.config.grid, ctrl.profile, ctrl.predictor, ctrl.target)
                samples.append((time.perf_counter() - t0) * 1e3)
    # each group's first round is the warm-up
    return [statistics.median(samples[1:]) for samples in times]


def _build_seed_profile(
    config: ScenarioConfig, qos_config: QosConfig, rng: np.random.Generator,
    capacity: int | None,
) -> Profile:
    if config.seed.file is not None:
        loaded = Profile.load(config.seed.file)
        if loaded.link_count != qos_config.grid.link_count:
            raise ConfigError(
                f"seed profile {config.seed.file} has {loaded.link_count} links, "
                f"grid has {qos_config.grid.link_count}"
            )
        if loaded.level_count != qos_config.level_count:
            raise ConfigError(
                f"seed profile {config.seed.file} has {loaded.level_count} levels, "
                f"config has {qos_config.level_count}"
            )
        if capacity is not None and loaded.size > capacity:
            raise ConfigError(
                f"seed_profile.file {config.seed.file} holds {loaded.size} records, "
                f"more than the profile capacity {capacity}"
            )
        _check_knn_k(config.predictor, loaded.size)
        _check_screen_bytes(config, qos_config.grid, loaded.size)
        # rewrap under the run's capacity policy; the file's own capacity is
        # a property of whoever saved it
        return Profile._from_arrays(
            loaded.link_count, loaded.level_count, capacity,
            loaded.allocation_matrix(), loaded.response_vector(),
        )
    return seed_profile_generate(
        qos_config.grid, qos_config, config.seed.records, config.seed.nominal_rate,
        rng, capacity=capacity,
    )


def run_scenario(
    config: ScenarioConfig, out_dir=None, time_final_search: bool = True
) -> ScenarioResult:
    """Run one closed-loop scenario; optionally write the output files.

    With time_final_search=False the reports carry NaN final search times,
    for a caller that times several runs' final searches together.
    """
    qos_config = config.to_qos_config()
    rng = np.random.default_rng(config.rng_seed)
    capacity = config.capacity if config.predictor.bounded else None
    if config.predictor.tag == KNN:
        predictor = KnnPredictor(config.predictor.knn_k)
    else:
        predictor = GrnnPredictor(qos_config.kernel)
    controllers = []
    for q in config.qos_levels:
        seed_profile = _build_seed_profile(config, qos_config, rng, capacity)
        controllers.append(QosController(qos_config, seed_profile, q, predictor=predictor))
    services = [
        ServiceSpec(rate_trace=config.rates[i], qos_level=config.qos_levels[i])
        for i in range(len(config.qos_levels))
    ]
    sim = Simulator(
        config.links, services, controllers,
        noise_std=config.erab_noise_std,
        rng=rng if config.erab_noise_std > 0.0 else None,
    )
    sim.run(config.run_length)

    if time_final_search:
        final_ms = _measure_final_search_ms(controllers)
    else:
        final_ms = [math.nan] * len(controllers)
    reports = []
    for i, ctrl in enumerate(controllers):
        avg_rab, avg_dlr, avg_var = compute_metrics(
            [rec.erab for rec in ctrl.log], [rec.total for rec in ctrl.log]
        )
        reports.append(
            MetricsReport(
                service=i + 1,
                qos_level=config.qos_levels[i],
                epochs=len(ctrl.log),
                avg_rab=avg_rab,
                avg_dlr=avg_dlr,
                avg_bw_variation=avg_var,
                final_search_time_ms=final_ms[i],
            )
        )
    result = ScenarioResult(
        config=config, reports=tuple(reports), controllers=tuple(controllers)
    )
    if out_dir is not None:
        write_outputs(result, out_dir)
    return result


def _fmt(value) -> str:
    """The one CSV value format: repr for floats, 1/0 for flags, ints and str as is."""
    kind = type(value)
    if kind is float:  # exact-type tests first: this runs for every value written
        return repr(value)
    if kind is int or kind is str:
        return str(value)
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    """Write a header line, then one line per row of values formatted by _fmt."""
    lines = [",".join(header), *(",".join(map(_fmt, row)) for row in rows)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_outputs(result: ScenarioResult, out_dir) -> None:
    """Write metrics.csv, epochs.csv, plot data, final profiles, timings.csv.

    Everything except timings.csv is a deterministic function of
    (config, rng_seed).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runs = list(zip(result.reports, result.controllers))
    _write_csv(
        out / "metrics.csv",
        ["service", "qos_level", "epochs", "avg_rab_mbps", "avg_dlr_mbps",
         "avg_bw_variation_mbps"],
        ((rep.service, rep.qos_level, rep.epochs, rep.avg_rab, rep.avg_dlr,
          rep.avg_bw_variation) for rep in result.reports),
    )
    _write_csv(
        out / "epochs.csv",
        ["service", "epoch", *(f"x{j + 1}_mbps" for j in range(len(result.config.links))),
         "total_mbps", "source_rate_mbps", "erab_mbps", "response", "feasible_found",
         "search_fallback", "low_confidence", "update_action"],
        ((rep.service, rec.epoch, *rec.allocation, rec.total, rec.source_rate, rec.erab,
          rec.response, rec.feasible_found, rec.search_fallback, rec.low_confidence,
          rec.update_action) for rep, ctrl in runs for rec in ctrl.log),
    )
    _write_csv(
        out / "plot_total_bw.csv",
        ["epoch", *(f"{name}_s{rep.service}_mbps"
                    for rep in result.reports for name in ("source_rate", "total"))],
        ((t, *(v for rec in recs for v in (rec.source_rate, rec.total)))
         for t, recs in enumerate(zip(*(ctrl.log for ctrl in result.controllers)), 1)),
    )
    for rep, ctrl in runs:
        ctrl.profile.save(out / f"profile_s{rep.service}.csv")
    _write_csv(
        out / "timings.csv",
        ["service", "label", "ms"],
        (row for rep, ctrl in runs for row in (
            (rep.service, "initial", ctrl.initial_search_ms),
            *((rep.service, f"epoch_{rec.epoch}", rec.search_ms) for rec in ctrl.log),
            (rep.service, "final_median", rep.final_search_time_ms),
        )),
    )


# ---------------------------------------------------------------------------
# predictor comparison (Table-I-style sweeps)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Variant:
    """One comparison row: a predictor kind, optionally a capacity override."""

    predictor: PredictorKind
    capacity: int | None = None

    @property
    def label(self) -> str:
        base = self.predictor.label
        return f"{base}_S{self.capacity}" if self.capacity is not None else base


def parse_variant(token: str) -> Variant:
    """Parse CLI variant tokens like 'grnn_bounded@16' or 'knn@7'.

    For the bounded kind the @N suffix overrides the profile capacity; for
    the kNN kind it overrides the neighbor count. The unbounded kind has no
    capacity, so @N on it is rejected.
    """
    name, _, suffix = token.partition("@")
    if name == "knn":
        kind = PredictorKind(tag="knn", knn_k=int(suffix) if suffix else 5)
        return Variant(kind)
    kind = PredictorKind(tag=name)
    if suffix and not kind.bounded:
        raise ValueError(f"{token!r}: {name} has no capacity to override")
    return Variant(kind, capacity=int(suffix) if suffix else None)


def compare_predictors(
    config: ScenarioConfig, variants: Sequence[Variant], out_dir=None
) -> list[tuple[str, ScenarioResult]]:
    """Run each variant on the same traces and seed; one report row each.

    The final search times of all variants are measured together, after
    the runs, with the repetitions of variants of one predictor type
    interleaved.
    """
    if not variants:
        raise ConfigError("need at least one variant to compare")
    runs: list[tuple[str, ScenarioResult]] = []
    for variant in variants:
        cfg = replace(
            config,
            predictor=variant.predictor,
            capacity=variant.capacity if variant.capacity is not None else config.capacity,
        )
        runs.append((variant.label, run_scenario(cfg, time_final_search=False)))
    final_ms = iter(_measure_final_search_ms(
        [ctrl for _, result in runs for ctrl in result.controllers]))
    results = [
        (label, replace(result, reports=tuple(
            replace(rep, final_search_time_ms=next(final_ms)) for rep in result.reports)))
        for label, result in runs
    ]
    if out_dir is not None:
        write_comparison(results, out_dir)
    return results


def write_comparison(results: Sequence[tuple[str, ScenarioResult]], out_dir) -> None:
    """comparison.csv, comparison_timing.csv, and one plot file per service.

    comparison_timing.csv holds each run's final search time and the
    median of its per-epoch search times, from the controller's log.
    Service 1's totals per variant go to plot_compare.csv, service i's
    (i >= 2) to plot_compare_s{i}.csv, with the same header.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [(label, rep, ctrl) for label, result in results
            for rep, ctrl in zip(result.reports, result.controllers)]
    _write_csv(
        out / "comparison.csv",
        ["variant", "service", "avg_rab_mbps", "avg_dlr_mbps", "avg_bw_variation_mbps"],
        ((label, rep.service, rep.avg_rab, rep.avg_dlr, rep.avg_bw_variation)
         for label, rep, _ in rows),
    )
    _write_csv(
        out / "comparison_timing.csv",
        ["variant", "service", "final_search_time_ms", "epoch_search_ms_median"],
        ((label, rep.service, rep.final_search_time_ms,
          statistics.median(rec.search_ms for rec in ctrl.log)) for label, rep, ctrl in rows),
    )
    header = ["epoch", "source_rate_mbps", *(f"total_{label}_mbps" for label, _ in results)]
    for i in range(len(results[0][1].controllers)):
        _write_csv(
            out / ("plot_compare.csv" if i == 0 else f"plot_compare_s{i + 1}.csv"), header,
            ((t, recs[0].source_rate, *(rec.total for rec in recs))
             for t, recs in enumerate(zip(*(r.controllers[i].log for _, r in results)), 1)),
        )
