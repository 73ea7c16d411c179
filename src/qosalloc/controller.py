"""Closed-loop QoS controller for one service.

Each transmission epoch the controller applies its current allocation, is
handed the measured ERAB (the signed surplus of allocated bandwidth over
the source rate), quantizes it into a response level, stores the
(allocation, response) pair through the class-aware profile update, and
re-runs the minimum-bandwidth search for the next epoch. The facts of the
epoch go into one EpochRecord, appended to the controller's log and
returned by step(); the log is the only per-epoch record, and the
simulator, the metrics and every output file read it. The controller
never measures traffic itself; the environment (simulator or a replayed
trace) feeds it measurements, which keeps the control law independent of
transport details.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass

from .predictor import GrnnPredictor, KernelParams
from .profile import Profile, UpdateResult
from .search import AllocationResult, SearchGrid, search


class ConfigError(ValueError):
    """A controller or scenario configuration is inconsistent."""


@dataclass(frozen=True)
class QosConfig:
    """Static configuration of the QoS loop.

    Attributes
    ----------
    level_count : int
        Number of response levels L.
    thresholds : tuple of float
        Strictly increasing quantization thresholds, length L - 1.
    targets : tuple of int
        Strictly increasing response targets a_1..a_Q, one per QoS level,
        each within [1, L].
    kernel : KernelParams
    grid : SearchGrid
    capacity : int
        Maximum profile size S for the bounded store.
    min_kernel_sum : float
        Pre-specified lower bound on the kernel sum at the chosen
        allocation; epochs below it are flagged low-confidence in the log
        (the allocation is still applied). 0 disables the check.
    """

    level_count: int
    thresholds: tuple[float, ...]
    targets: tuple[int, ...]
    kernel: KernelParams
    grid: SearchGrid
    capacity: int
    min_kernel_sum: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "thresholds", tuple(float(t) for t in self.thresholds))
        object.__setattr__(self, "targets", tuple(int(a) for a in self.targets))
        if self.level_count < 2:
            raise ConfigError(f"level_count must be >= 2, got {self.level_count}")
        if len(self.thresholds) != self.level_count - 1:
            raise ConfigError(
                f"need {self.level_count - 1} thresholds for {self.level_count} levels, "
                f"got {len(self.thresholds)}"
            )
        if not all(math.isfinite(t) for t in self.thresholds):
            raise ConfigError(f"thresholds must be finite: {self.thresholds}")
        if any(a >= b for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ConfigError(f"thresholds must be strictly increasing: {self.thresholds}")
        if not self.targets:
            raise ConfigError("need at least one QoS target")
        if any(a >= b for a, b in zip(self.targets, self.targets[1:])):
            raise ConfigError(f"targets must be strictly increasing: {self.targets}")
        if self.targets[0] < 1 or self.targets[-1] > self.level_count:
            raise ConfigError(f"targets {self.targets} outside [1, {self.level_count}]")
        if self.capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {self.capacity}")
        if not (math.isfinite(self.min_kernel_sum) and self.min_kernel_sum >= 0.0):
            raise ConfigError(
                f"min_kernel_sum must be finite and >= 0, got {self.min_kernel_sum}"
            )

    def target_for(self, qos_level: int) -> int:
        if not 1 <= qos_level <= len(self.targets):
            raise ConfigError(
                f"qos_level {qos_level} outside [1, {len(self.targets)}]"
            )
        return self.targets[qos_level - 1]


@dataclass(frozen=True)
class EpochRecord:
    """One transmission-log row, as step() appends and returns it.

    feasible_found / low_confidence describe the applied allocation;
    update_action reports what the profile update did; search_ms is the
    wall-clock of the end-of-epoch search that produced the next
    allocation. Timing is the only field excluded from the byte-determinism
    contract of scenario outputs.
    """

    epoch: int
    allocation: tuple[float, ...]
    total: float
    source_rate: float
    erab: float
    response: int
    feasible_found: bool
    low_confidence: bool
    update_action: str
    search_ms: float

    @property
    def search_fallback(self) -> bool:
        """The applied allocation was the search's infeasible fallback."""
        return not self.feasible_found


def compute_erab(total_allocated: float, source_rate: float) -> float:
    """Signed surplus of allocated bandwidth over the source rate.

    Returns total - rate: the residual bandwidth when the allocation covers
    the rate, and minus the loss rate when it falls short. Negative inputs
    raise ValueError.
    """
    if total_allocated < 0.0 or source_rate < 0.0:
        raise ValueError(
            f"bandwidths must be >= 0, got |x|={total_allocated}, R={source_rate}"
        )
    return total_allocated - source_rate


def quantize(erab: float, config: QosConfig) -> int:
    """Map an ERAB onto its response level.

    Intervals are left-open/right-closed: level k covers
    (eta_{k-1}, eta_k], with the first interval open below and the last
    open above.
    """
    return bisect_left(config.thresholds, erab) + 1


class QosController:
    """Single-service controller; one instance per (service, QoS level).

    Construction runs the initial search so current_allocation is ready for
    the first transmission. The instance is single-threaded and externally
    driven: call step() once per epoch with the measured ERAB.
    """

    def __init__(
        self,
        config: QosConfig,
        seed_profile: Profile,
        qos_level: int,
        predictor=None,
    ):
        self.config = config
        self.qos_level = qos_level
        self.target = config.target_for(qos_level)
        if seed_profile.size == 0:
            raise ConfigError("seed profile must contain at least one record")
        if seed_profile.link_count != config.grid.link_count:
            raise ConfigError(
                f"seed profile has {seed_profile.link_count} links, "
                f"grid has {config.grid.link_count}"
            )
        if seed_profile.level_count != config.level_count:
            raise ConfigError(
                f"seed profile has {seed_profile.level_count} levels, "
                f"config has {config.level_count}"
            )
        if seed_profile.capacity is not None and seed_profile.capacity != config.capacity:
            raise ConfigError(
                f"seed profile capacity {seed_profile.capacity} != config capacity "
                f"{config.capacity}"
            )
        self.profile = seed_profile
        self.predictor = predictor if predictor is not None else GrnnPredictor(config.kernel)
        self.log: list[EpochRecord] = []
        t0 = time.perf_counter()
        self._current = self._search()
        self.initial_search_ms = (time.perf_counter() - t0) * 1e3

    def _search(self) -> AllocationResult:
        return search(self.config.grid, self.profile, self.predictor, self.target)

    @property
    def current_allocation(self) -> tuple[float, ...]:
        return self._current.allocation

    @property
    def current_result(self) -> AllocationResult:
        return self._current

    def step(self, measured_erab: float, source_rate: float = math.nan) -> EpochRecord:
        """Consume one epoch's measurement; returns the log record it appends.

        The next epoch's allocation is then current_allocation. A non-finite
        measurement raises ValueError before any state changes.
        """
        if not math.isfinite(measured_erab):
            raise ValueError(f"measured ERAB must be finite, got {measured_erab}")
        applied = self._current
        response = quantize(measured_erab, self.config)
        update: UpdateResult = self.profile.update(
            applied.allocation, response, self.target
        )
        t0 = time.perf_counter()
        self._current = self._search()
        search_ms = (time.perf_counter() - t0) * 1e3
        low_conf = (
            self.config.min_kernel_sum > 0.0
            and applied.prediction.kernel_sum < self.config.min_kernel_sum
        )
        record = EpochRecord(
            epoch=len(self.log) + 1,
            allocation=applied.allocation,
            total=applied.total,
            source_rate=source_rate,
            erab=measured_erab,
            response=response,
            feasible_found=applied.feasible_found,
            low_confidence=low_conf,
            update_action=update.action,
            search_ms=search_ms,
        )
        self.log.append(record)
        return record
