"""Closed-loop differential tests: fast search paths against plain ones.

KnnPredictor.predict_grid serves a search block from the profile's
neighbor sets, built anew or, for an unbounded profile, merged with the
records appended since the last search; ComputedKnn always calls
predict_batch. GrnnPredictor predicts only a block's rows; WholeGridGrnn
predicts the whole grid for every block and keeps the block's rows.
UnscreenedGrnn's interval rules out no grid point, so its searches predict
the whole grid block by block, as a search did before the screen; the
screened loops run once with a fresh screen per search and once with each
profile's kept screen product. Whole
seeded closed loops, with ERAB noise, background traces and shared links,
must make the same decisions bit for bit and leave byte-identical profiles
whichever path, and whichever block size, serves the search.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from qosalloc import baselines as baselines_module
from qosalloc.baselines import KnnPredictor
from qosalloc.controller import QosConfig, QosController
from qosalloc.harness import seed_profile_generate
from qosalloc.netsim import LinkSpec, ServiceSpec, Simulator
from qosalloc.predictor import GrnnPredictor, KernelParams, predict_batch
from qosalloc.search import SearchGrid, search

search_module = importlib.import_module("qosalloc.search")
controller_module = importlib.import_module("qosalloc.controller")
predictor_module = importlib.import_module("qosalloc.predictor")

THRESHOLDS = (-11.25, -8.75, -6.25, -3.75, -1.25, 1.25, 3.75, 6.25, 8.75, 11.25, 13.75)
EPOCHS = 30


class WholeGridGrnn(GrnnPredictor):
    """GrnnPredictor whose predict_grid predicts the whole grid and keeps the rows asked for."""

    def predict_grid(self, grid, rows, profile):
        y_star, kernel_sum = predict_batch(grid.points(), profile, self.kernel)
        return y_star[rows], kernel_sum[rows]


class UnscreenedGrnn(GrnnPredictor):
    """GrnnPredictor whose interval is (-inf, inf): the search screens nothing."""

    def predict_bounds(self, grid, profile):
        return np.zeros(grid.size), np.inf


class ComputedKnn(KnnPredictor):
    """KnnPredictor whose predict_grid keeps no neighbor sets."""

    def predict_grid(self, grid, rows, profile):
        return self.predict_batch(grid.points()[rows], profile)


def run_loop(seed, make_predictor, unbounded=False):
    """One seeded closed loop; returns (decision bytes, profile bytes per service).

    make_predictor(config) gives each service's predictor. The seed
    profiles are bounded at the config's capacity, or unbounded if asked.
    """
    rng = np.random.default_rng(seed)
    n = 1 + seed % 3
    maxima = tuple(1.25 * int(rng.integers(4, 11)) for _ in range(n))
    config = QosConfig(
        level_count=12, thresholds=THRESHOLDS, targets=(7, 9, 11),
        kernel=KernelParams(float(rng.uniform(30.0, 900.0))),
        grid=SearchGrid(1.25, maxima), capacity=int(rng.integers(6, 17)),
        min_kernel_sum=0.5,
    )
    services = 1 + seed % 2
    nominal = 0.4 * sum(maxima)
    ctrls = []
    for _ in range(services):
        records = min(config.capacity, config.grid.size)
        seed_profile = seed_profile_generate(config.grid, config, records, nominal, rng,
                                             capacity=None if unbounded else config.capacity)
        if seed % 4 == 3:  # off the grid for seed 7, on it for seed 3
            seed_profile.update(tuple(b / 3 for b in maxima), 12, target=7)
        ctrls.append(QosController(config, seed_profile, int(rng.integers(1, 4)),
                                   predictor=make_predictor(config)))
    links = [LinkSpec(1.2 * b, tuple(rng.uniform(0, 0.5 * b, EPOCHS))) for b in maxima]
    specs = [ServiceSpec(tuple(rng.uniform(0.5, 1.5, EPOCHS) * nominal), c.qos_level)
             for c in ctrls]
    sim = Simulator(links, specs, ctrls, noise_std=1.0, rng=rng)
    decisions = []
    for _ in range(EPOCHS):
        sim.run_epoch()
        decisions.append([c.current_result for c in ctrls])
    log = [
        (r.epoch, r.allocation, r.total, r.source_rate, r.erab, r.response,
         r.feasible_found, r.search_fallback, r.low_confidence, r.update_action)
        for c in ctrls for r in c.log
    ]
    return repr((decisions, log)).encode(), [c.profile.to_bytes() for c in ctrls]


def counting_rows(monkeypatch) -> list:
    """Rows of every call that reaches the predictor module's predict_batch."""
    rows = []

    def counting_batch(xs, *args):
        rows.append(len(xs))
        return predict_batch(xs, *args)

    monkeypatch.setattr(predictor_module, "predict_batch", counting_batch)
    return rows


def blocks_per_search(monkeypatch, cls) -> list:
    """Blocks each controller search surely predicted, counted from cls.predict_grid.

    A search calls predict_grid once per block; one that finds no member
    may call it once more for points outside its candidates, so that call
    is not counted.
    """
    blocks, calls = [], [0]
    predict_grid = cls.predict_grid

    def counting_grid(self, grid, rows, profile):
        calls[0] += 1
        return predict_grid(self, grid, rows, profile)

    def counting_search(*args):
        calls[0] = 0
        result = search(*args)
        blocks.append(calls[0] - (not result.feasible_found))
        return result

    monkeypatch.setattr(cls, "predict_grid", counting_grid)
    monkeypatch.setattr(controller_module, "search", counting_search)
    return blocks


@pytest.mark.parametrize("seed", range(8))
def test_whole_grid_and_block_predictions_run_identical_loops(seed, monkeypatch):
    predicted = counting_rows(monkeypatch)
    # every grid here is one block by default
    whole = run_loop(seed, lambda config: WholeGridGrnn(config.kernel))
    assert predicted == []
    blocks = run_loop(seed, lambda config: GrnnPredictor(config.kernel))
    assert len(predicted) >= EPOCHS
    assert blocks == whole


def neighbor_set_calls(monkeypatch) -> dict:
    """Counts of KnnPredictor's set rebuilds and merges, and of its predict_batch calls.

    A rebuild counts once, not also as the merge it makes of the records
    after the first k.
    """
    calls = {"rebuild": 0, "merge": 0, "batch": 0}
    building = [False]
    sets_cls = baselines_module._NeighborSets
    init, merge, predict_batch = sets_cls.__init__, sets_cls.merge, KnnPredictor.predict_batch

    def counting_init(*args):
        calls["rebuild"] += 1
        building[0] = True
        try:
            init(*args)
        finally:
            building[0] = False

    def counting_merge(*args):
        calls["merge"] += not building[0]
        merge(*args)

    def counting_batch(*args):
        calls["batch"] += 1
        return predict_batch(*args)

    monkeypatch.setattr(sets_cls, "__init__", counting_init)
    monkeypatch.setattr(sets_cls, "merge", counting_merge)
    monkeypatch.setattr(KnnPredictor, "predict_batch", counting_batch)
    return calls


@pytest.mark.parametrize("seed", range(8))
def test_knn_sets_and_computed_paths_run_identical_loops(seed, monkeypatch):
    k = 1 + seed % 5  # every seed profile holds at least 5 records
    computed = [run_loop(seed, lambda config: ComputedKnn(k), unbounded)
                for unbounded in (False, True)]
    if seed % 2:  # small blocks: some searches predict two or more
        monkeypatch.setattr(search_module, "_BLOCK_MIN", 16)
    blocks = blocks_per_search(monkeypatch, KnnPredictor)
    calls = neighbor_set_calls(monkeypatch)
    bounded = run_loop(seed, lambda config: KnnPredictor(k))
    # the sets serve every block, on the grid or off it
    assert calls["batch"] == 0
    assert calls["rebuild"] >= 1
    if seed % 2 and seed % 3:  # a 1-link grid holds fewer than 2 * 16 points: one block
        assert max(blocks) >= 2
    assert bounded == computed[0]

    calls.update(rebuild=0, merge=0, batch=0)
    # an unbounded profile only appends: one rebuild per profile, then a
    # merge before each epoch's search
    merged = run_loop(seed, lambda config: KnnPredictor(k), unbounded=True)
    services = 1 + seed % 2
    assert calls == {"rebuild": services, "merge": EPOCHS * services, "batch": 0}
    assert merged == computed[1]


def kept_updates(monkeypatch) -> list:
    """One entry per update of a kept screen product."""
    updates = []
    update = predictor_module._KeptScreen.update

    def counting_update(self, *args):
        updates.append(1)
        return update(self, *args)

    monkeypatch.setattr(predictor_module._KeptScreen, "update", counting_update)
    return updates


@pytest.mark.parametrize("seed", range(8))
def test_screened_and_unscreened_searches_run_identical_loops(seed, monkeypatch):
    predicted = counting_rows(monkeypatch)
    if seed % 2:  # small blocks: both runs predict index-array rows, block by block
        monkeypatch.setattr(search_module, "_BLOCK_MIN", 16)
    blocks = blocks_per_search(monkeypatch, UnscreenedGrnn)
    unscreened = run_loop(seed, lambda config: UnscreenedGrnn(config.kernel))
    if seed % 2 and seed % 3:  # a 1-link grid holds fewer than 2 * 16 points: one block
        assert max(blocks) >= 2
    whole = sum(predicted)
    updates = kept_updates(monkeypatch)
    # every grid here is below the keeping gates: a fresh screen per search;
    # with the gates at 0 every profile's product is kept and updated
    for gate in (None, 0):
        if gate is not None:
            monkeypatch.setattr(predictor_module, "_KEEP_MIN_POINTS", gate)
            monkeypatch.setattr(predictor_module, "_KEEP_MIN_RECORDS", gate)
        predicted.clear()
        screened = run_loop(seed, lambda config: GrnnPredictor(config.kernel))
        assert len(predicted) >= EPOCHS
        assert sum(predicted) < whole
        assert screened == unscreened
        assert (len(updates) > 0) == (gate == 0)
