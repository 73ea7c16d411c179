"""Soak tests: long seeded closed loops on the reference and the stress grid.

On the reference grid, one service runs 10,000 epochs on the 2-link,
1,025-point grid with capacity 31, ERAB noise, a background trace on both
links and a rate that jumps between plateaus, so the store fills, then
evicts through many classes of record. Every epoch the store holds at most
its capacity, an update at capacity overwrites exactly the record nearest
to the new one among the opposite class (lowest index on ties), or among
all records when that class is empty (the fallback), and the next decision
has a finite y*. Every 10th epoch the decision equals the one a prediction
of the whole grid gives.

On the stress grid (3 links, 25,625 points, 128 records at capacity) two
contending services run 300 epochs at sigma2 = 200 and at sigma2 = 3, with
the kept screen product, its error bound and the T_sure layer's pruning
as they are. Every 25th epoch each decision equals the whole-grid one and
the screen's intervals hold the exact y* on 512 random grid points.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from qosalloc.controller import QosConfig, QosController
from qosalloc.harness import seed_profile_generate
from qosalloc.netsim import LinkSpec, ServiceSpec, Simulator
from qosalloc.predictor import KernelParams, _KeptScreen
from qosalloc.profile import APPENDED, REPLACED, REPLACED_FALLBACK
from qosalloc.scenarios import GRID_MAX, GRID_STEP, LEVEL_COUNT, TARGETS, THRESHOLDS
from qosalloc.search import SearchGrid
from test_search import full_grid_search

EPOCHS = 10_000
CAPACITY = 31


def nearest(allocs, slots, alloc):
    """The slot among slots whose allocation is nearest alloc; the first on ties."""
    best, best_d2 = None, math.inf
    for i in slots:
        d2 = 0.0
        for a, b in zip(allocs[i], alloc):
            d2 += (a - b) * (a - b)
        if d2 < best_d2:
            best, best_d2 = i, d2
    return best


def test_reference_loop_keeps_its_invariants():
    rng = np.random.default_rng(2024)
    grid = SearchGrid(GRID_STEP, GRID_MAX)
    config = QosConfig(level_count=LEVEL_COUNT, thresholds=THRESHOLDS, targets=TARGETS,
                       kernel=KernelParams(200.0), grid=grid, capacity=CAPACITY)
    profile = seed_profile_generate(grid, config, 16, 40.0, rng, capacity=CAPACITY)
    ctrl = QosController(config, profile, qos_level=2)
    links = [LinkSpec(b + 20.0, tuple(rng.uniform(0.0, 30.0, EPOCHS))) for b in GRID_MAX]
    plateaus = np.repeat(rng.uniform(20.0, 75.0, EPOCHS // 50), 50)
    rates = np.maximum(plateaus + rng.normal(0.0, 1.0, EPOCHS), 0.0)
    sim = Simulator(links, [ServiceSpec(tuple(rates), 2)], [ctrl], noise_std=1.0, rng=rng)
    actions = dict.fromkeys((APPENDED, REPLACED, REPLACED_FALLBACK), 0)
    for epoch in range(1, EPOCHS + 1):
        allocs = profile.allocation_matrix().tolist()
        responses = profile.response_vector().tolist()
        (record,) = sim.run_epoch()
        new = (list(record.allocation), record.response)
        after = list(zip(profile.allocation_matrix().tolist(), profile.response_vector().tolist()))
        actions[record.update_action] += 1

        assert profile.size == min(CAPACITY, len(responses) + 1)
        if record.update_action == APPENDED:
            assert len(responses) < CAPACITY
            slot = len(responses)
        else:
            assert len(responses) == CAPACITY
            positive = record.response >= ctrl.target
            opposite = [i for i, r in enumerate(responses) if (r >= ctrl.target) != positive]
            if record.update_action == REPLACED:
                slot = nearest(allocs, opposite, new[0])
                assert slot is not None
            else:  # the fallback is taken only when the opposite class is empty
                assert record.update_action == REPLACED_FALLBACK and not opposite
                slot = nearest(allocs, range(CAPACITY), new[0])
        assert after[slot] == new
        before = list(zip(allocs, responses))
        assert after[:slot] + after[slot + 1:] == before[:slot] + before[slot + 1:]

        result = ctrl.current_result
        assert math.isfinite(result.prediction.y_star)
        if epoch % 10 == 0:
            assert result == full_grid_search(grid, profile, ctrl.predictor, ctrl.target)
    # the loop reached every update action, and decisions with and without
    # a member
    assert actions[APPENDED] == CAPACITY - 16
    assert actions[REPLACED] > 0 and actions[REPLACED_FALLBACK] > 0
    assert 0 < sum(r.feasible_found for r in ctrl.log) < EPOCHS


STRESS_EPOCHS = 300
STRESS_RECORDS = 128


@pytest.mark.parametrize("sigma2", [200.0, 3.0])
def test_stress_loop_keeps_exact_decisions(sigma2, monkeypatch):
    # seed 2 makes the sigma2 = 3 loop screen anew for a while (seeds 1 and
    # 3 did not: their error-bound rebuilds never came twice in a row)
    rng = np.random.default_rng(2)
    grid = SearchGrid(1.25, (50.0, 30.0, 30.0))  # 41 x 25 x 25 = 25,625 points
    config = QosConfig(level_count=LEVEL_COUNT, thresholds=THRESHOLDS, targets=TARGETS,
                       kernel=KernelParams(sigma2), grid=grid, capacity=STRESS_RECORDS)
    updates = []
    update = _KeptScreen.update
    monkeypatch.setattr(_KeptScreen, "update",
                        lambda screen, *args: updates.append(update(screen, *args)))
    ctrls = []
    for qos in (2, 3):
        profile = seed_profile_generate(grid, config, STRESS_RECORDS, 40.0, rng,
                                        capacity=STRESS_RECORDS)
        ctrls.append(QosController(config, profile, qos_level=qos))
    links = [LinkSpec(cap, tuple(rng.uniform(0.15, 0.45, STRESS_EPOCHS) * cap))
             for cap in (60.0, 40.0, 40.0)]
    services = [ServiceSpec(tuple(np.repeat(rng.choice(levels, STRESS_EPOCHS // 2), 2)), qos)
                for qos, levels in zip((2, 3), ((32.0, 36.0, 40.0, 44.0), (24.0, 28.0, 32.0, 36.0)))]
    sim = Simulator(links, services, ctrls, noise_std=1.0, rng=rng)
    fresh = bounded = 0  # epochs that left a profile screened anew; error-bound rebuilds
    for epoch in range(1, STRESS_EPOCHS + 1):
        sim.run_epoch()
        for ctrl in ctrls:
            entry = ctrl.predictor._kept.get(id(ctrl.profile))
            screen = None if entry is None else entry.value
            fresh += not isinstance(screen, _KeptScreen)
            bounded += isinstance(screen, _KeptScreen) and screen.bounded and not screen.updates
            if epoch % 25 == 0:
                result = ctrl.current_result
                assert result == full_grid_search(grid, ctrl.profile, ctrl.predictor, ctrl.target)
                rows = rng.choice(grid.size, 512, replace=False)
                center, width = ctrl.predictor.predict_bounds(grid, ctrl.profile)
                if np.ndim(width):
                    width = width[rows]
                y_star, _ = ctrl.predictor.predict_grid(grid, rows, ctrl.profile)
                assert np.all((center[rows] - width <= y_star) & (y_star <= center[rows] + width))
    assert len(updates) > STRESS_EPOCHS
    # at sigma2 = 3 the error bound forces rebuilds, twice in a row often
    # enough that a profile is screened anew for a while; at 200 it forces
    # none, and the product is always kept
    if sigma2 < 10.0:
        assert bounded > 5 and fresh > 0
    else:
        assert bounded == fresh == 0
