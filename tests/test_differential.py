"""Closed-loop differential test: the grid-table paths against the computed paths.

GrnnPredictor.predict_grid serves a search block from the grid's kernel
table when it can, and KnnPredictor.predict_grid from the grid's distance
ranks; ComputedGrnn and ComputedKnn always call predict_batch, and their
runs search each grid as one block. Whole seeded closed loops, with ERAB
noise, background traces and shared links, must make the same decisions
bit for bit and leave byte-identical profiles whether a table, small blocks
or both serve the search. UnscreenedGrnn's interval rules out no grid point,
so its searches predict the whole grid block by block, as a search did
before the screen; the screened GrnnPredictor must make the same loops.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from qosalloc.baselines import KnnPredictor
from qosalloc.controller import QosConfig, QosController
from qosalloc.harness import seed_profile_generate
from qosalloc.netsim import LinkSpec, ServiceSpec, Simulator
from qosalloc.predictor import GrnnPredictor, KernelParams, lattice_batch, predict_batch
from qosalloc.search import SearchGrid

search_module = importlib.import_module("qosalloc.search")
predictor_module = importlib.import_module("qosalloc.predictor")

THRESHOLDS = (-11.25, -8.75, -6.25, -3.75, -1.25, 1.25, 3.75, 6.25, 8.75, 11.25, 13.75)
EPOCHS = 30


class ComputedGrnn(GrnnPredictor):
    """GrnnPredictor whose predict_grid never reads the kernel table."""

    def predict_grid(self, grid, rows, profile):
        return predict_batch(grid.points()[rows], profile, self.kernel)


class UnscreenedGrnn(GrnnPredictor):
    """GrnnPredictor whose interval is (-inf, inf): the search screens nothing."""

    def predict_bounds(self, grid, profile):
        return np.full(grid.size, -np.inf), np.full(grid.size, np.inf)


class ComputedKnn(KnnPredictor):
    """KnnPredictor whose predict_grid never reads the distance ranks."""

    def predict_grid(self, grid, rows, profile):
        return self.predict_batch(grid.points()[rows], profile)


def run_loop(seed, make_predictor):
    """One seeded closed loop; returns (decision bytes, profile bytes per service).

    make_predictor(config) gives each service's predictor.
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
                                             capacity=config.capacity)
        if seed % 4 == 3:  # an off-lattice record keeps the table out until it is evicted
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


@pytest.mark.parametrize("seed", range(8))
def test_table_and_computed_paths_run_identical_loops(seed, monkeypatch):
    table_rows = []

    def counting_lattice(table, offsets, *args):
        table_rows.append(len(offsets))
        return lattice_batch(table, offsets, *args)

    monkeypatch.setattr(predictor_module, "lattice_batch", counting_lattice)
    # every grid here is one block by default
    computed = run_loop(seed, lambda config: ComputedGrnn(config.kernel))
    assert table_rows == []
    if seed % 2:  # small blocks: the search predicts index-array rows, block by block
        monkeypatch.setattr(search_module, "_BLOCK_MIN", 16)
    tabled = run_loop(seed, lambda config: GrnnPredictor(config.kernel))
    if seed % 4 != 3:
        assert len(table_rows) >= EPOCHS
    assert tabled == computed


@pytest.mark.parametrize("seed", range(8))
def test_knn_ranks_and_computed_paths_run_identical_loops(seed, monkeypatch):
    served = []
    distance_ranks = SearchGrid.distance_ranks

    def counting_ranks(grid):
        ranks = distance_ranks(grid)
        served.append(ranks is not None)
        return ranks

    monkeypatch.setattr(SearchGrid, "distance_ranks", counting_ranks)
    k = 1 + seed % 5  # every seed profile holds at least 5 records
    computed = run_loop(seed, lambda config: ComputedKnn(k))
    assert served == []
    if seed % 2:
        monkeypatch.setattr(search_module, "_BLOCK_MIN", 16)
    ranked = run_loop(seed, lambda config: KnnPredictor(k))
    if seed % 4 != 3:
        assert served.count(True) >= EPOCHS
    assert ranked == computed


@pytest.mark.parametrize("seed", range(8))
def test_screened_and_unscreened_searches_run_identical_loops(seed, monkeypatch):
    predicted = []

    def counting_lattice(table, offsets, *args):
        predicted.append(len(offsets))
        return lattice_batch(table, offsets, *args)

    monkeypatch.setattr(predictor_module, "lattice_batch", counting_lattice)
    if seed % 2:  # small blocks: both runs predict index-array rows, block by block
        monkeypatch.setattr(search_module, "_BLOCK_MIN", 16)
    unscreened = run_loop(seed, lambda config: UnscreenedGrnn(config.kernel))
    whole = sum(predicted)
    predicted.clear()
    screened = run_loop(seed, lambda config: GrnnPredictor(config.kernel))
    if seed % 4 != 3:
        assert len(predicted) >= EPOCHS
        assert sum(predicted) < whole
    assert screened == unscreened
