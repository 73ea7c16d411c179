"""Soak test: 10,000 epochs of one seeded closed loop on the reference grid.

One service runs on the 2-link, 1,025-point grid with capacity 31, ERAB
noise, a background trace on both links and a rate that jumps between
plateaus, so the store fills, then evicts through many classes of record.
Every epoch the store holds at most its capacity, an update at capacity
overwrites exactly the record nearest to the new one among the opposite
class (lowest index on ties), or among all records when that class is
empty (the fallback), and the next decision has a finite y*. Every 10th
epoch the decision equals the one a prediction of the whole grid gives.
"""

from __future__ import annotations

import math

import numpy as np

from qosalloc.controller import QosConfig, QosController
from qosalloc.harness import seed_profile_generate
from qosalloc.netsim import LinkSpec, ServiceSpec, Simulator
from qosalloc.predictor import KernelParams
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
