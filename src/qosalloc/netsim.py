"""Discrete-epoch simulator of a multi-link delivery path.

Per-link traffic shaping is abstracted to a per-epoch rate clamp: a link
delivers at most its allocated (token) rate, and never more than the
capacity left over after background traffic and earlier services. The
measured ERAB of an epoch is computed from the effective (clamped)
allocation total, so contention shows up as negative responses in the
control loop. There is no packet-level modeling; the QoS loop operates per
transmission epoch, and rate-level clamping is all it can observe.

Multiple services on shared links are resolved in service-index order: each
service's effective allocation is clamped against capacity minus background
minus the effective allocations already granted this epoch. The simulator
owns the epoch clock; controllers are advanced one step per epoch, and the
log records their steps append are what run_epoch and run return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .controller import EpochRecord, QosController, compute_erab


class EndOfRun(Exception):
    """A rate or background trace has no value for the requested epoch."""


@dataclass(frozen=True)
class LinkSpec:
    """One physical link: capacity and the background load it carries.

    background may be a constant (Mbps) or a per-epoch sequence; a trace
    shorter than the run ends it.
    """

    capacity: float
    background: float | tuple[float, ...] = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.capacity) and self.capacity >= 0.0):
            raise ValueError(f"capacity must be finite and >= 0, got {self.capacity}")
        if isinstance(self.background, (int, float)):
            if not 0.0 <= float(self.background) <= self.capacity:
                raise ValueError(
                    f"background {self.background} outside [0, capacity={self.capacity}]"
                )
        else:
            object.__setattr__(self, "background", tuple(float(b) for b in self.background))
            for b in self.background:
                if not 0.0 <= b <= self.capacity:
                    raise ValueError(
                        f"background {b} outside [0, capacity={self.capacity}]"
                    )

    def background_at(self, epoch: int) -> float:
        if isinstance(self.background, tuple):
            if epoch >= len(self.background):
                raise EndOfRun(f"background trace exhausted at epoch {epoch}")
            return self.background[epoch]
        return float(self.background)


@dataclass(frozen=True)
class ServiceSpec:
    """One service: its per-epoch source rates and requested QoS level."""

    rate_trace: tuple[float, ...]
    qos_level: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate_trace", tuple(float(r) for r in self.rate_trace))
        if not all(math.isfinite(r) and r >= 0.0 for r in self.rate_trace):
            raise ValueError("source rates must be finite and >= 0")

    def rate_at(self, epoch: int) -> float:
        if epoch >= len(self.rate_trace):
            raise EndOfRun(f"rate trace exhausted at epoch {epoch}")
        return self.rate_trace[epoch]


def effective_allocation(allocation: Sequence[float], headroom: Sequence[float]) -> np.ndarray:
    """Clamp a nominal allocation to the per-link headroom (>= 0)."""
    x = np.asarray(allocation, dtype=float)
    h = np.maximum(np.asarray(headroom, dtype=float), 0.0)
    return np.minimum(x, h)


class Simulator:
    """Epoch-stepped closed loop over shared links.

    Services and controllers are index-aligned. Optional additive Gaussian
    measurement noise on the ERAB (default 0) supports robustness
    experiments; it is applied after clamping, from a dedicated generator,
    so runs stay reproducible under a fixed seed.
    """

    def __init__(
        self,
        links: Sequence[LinkSpec],
        services: Sequence[ServiceSpec],
        controllers: Sequence[QosController],
        noise_std: float = 0.0,
        rng: np.random.Generator | None = None,
    ):
        if len(services) != len(controllers):
            raise ValueError(
                f"{len(services)} services but {len(controllers)} controllers"
            )
        for ctrl in controllers:
            if ctrl.config.grid.link_count != len(links):
                raise ValueError(
                    f"controller grid has {ctrl.config.grid.link_count} links, "
                    f"simulator has {len(links)}"
                )
        if not (math.isfinite(noise_std) and noise_std >= 0.0):
            raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
        if noise_std > 0.0 and rng is None:
            raise ValueError("measurement noise requires an explicit rng")
        self.links = tuple(links)
        self.services = tuple(services)
        self.controllers = tuple(controllers)
        self.noise_std = noise_std
        self.rng = rng
        self.epoch = 0

    def run_epoch(self) -> list[EpochRecord]:
        """Advance every service by one epoch; returns their log records.

        Raises EndOfRun before touching any state when a trace is
        exhausted, so a partially advanced epoch can never occur.
        """
        t = self.epoch
        rates = [svc.rate_at(t) for svc in self.services]
        backgrounds = np.array([link.background_at(t) for link in self.links])
        capacities = np.array([link.capacity for link in self.links])
        used = np.zeros(len(self.links))
        records: list[EpochRecord] = []
        for rate, ctrl in zip(rates, self.controllers):
            x = np.asarray(ctrl.current_allocation, dtype=float)
            eff = effective_allocation(x, capacities - backgrounds - used)
            used += eff
            erab = compute_erab(float(eff.sum()), rate)
            if self.noise_std > 0.0:
                erab += self.noise_std * self.rng.standard_normal()
            records.append(ctrl.step(erab, source_rate=rate))
        self.epoch += 1
        return records

    def run(self, epochs: int) -> list[list[EpochRecord]]:
        """Run a fixed number of epochs, collecting each epoch's log records."""
        return [self.run_epoch() for _ in range(epochs)]
