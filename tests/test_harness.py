"""Scenario config IO, seeding, metrics, determinism, audit recompute."""

from __future__ import annotations

import copy
import json
import math

import numpy as np
import pytest

from qosalloc.cli import main
from qosalloc.controller import ConfigError
from qosalloc.harness import (
    ScenarioConfig,
    SeedSpec,
    Variant,
    compare_predictors,
    compute_metrics,
    load_scenario,
    parse_variant,
    read_trace_csv,
    run_scenario,
    seed_profile_generate,
)
from qosalloc.baselines import PredictorKind
from qosalloc.netsim import LinkSpec
from qosalloc.scenarios import THRESHOLDS, tracking_scenario
from qosalloc.search import SearchGrid


def small_scenario(**overrides) -> ScenarioConfig:
    defaults = dict(
        level_count=12,
        thresholds=THRESHOLDS,
        targets=(7, 9, 11),
        grid_step=5.0,
        grid_max_per_link=(50.0, 30.0),
        capacity=8,
        run_length=6,
        rng_seed=5,
        links=(LinkSpec(300.0, 40.0), LinkSpec(300.0, 40.0)),
        qos_levels=(2,),
        rates=((40.0, 40.0, 45.0, 45.0, 38.0, 40.0),),
        seed=SeedSpec(records=6, nominal_rate=40.0),
        sigma2=200.0,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


#: small_scenario() as a scenario document, its rate trace inline
SMALL_DOC = {
    "rng_seed": 5,
    "run_length": 6,
    "levels": 12,
    "thresholds": list(THRESHOLDS),
    "targets": [7, 9, 11],
    "sigma2": 200.0,
    "min_kernel_sum": 0.0,
    "grid": {"step": 5.0, "max_per_link": [50.0, 30.0]},
    "capacity": 8,
    "predictor": {"kind": "grnn_bounded", "knn_k": 5},
    "links": [{"capacity": 300.0, "background": 40.0},
              {"capacity": 300.0, "background": 40.0}],
    "services": [{"qos_level": 2}],
    "erab_noise_std": 0.0,
    "rate_trace": {"inline": [[40.0], [40.0], [45.0], [45.0], [38.0], [40.0]]},
    "seed_profile": {"records": 6, "nominal_rate": 40.0},
}

#: SMALL_DOC's rate trace as a trace CSV
SMALL_RATES_CSV = "service_1_mbps\n40.0\n40.0\n45.0\n45.0\n38.0\n40.0\n"


def small_doc() -> dict:
    """A fresh copy of SMALL_DOC to edit."""
    return copy.deepcopy(SMALL_DOC)


def write_doc(path, doc: dict):
    """Write a scenario document as JSON; returns the path."""
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestSeedProfileGenerate:
    def config(self):
        return small_scenario().to_qos_config()

    def test_single_point_grid_gets_band_center_level(self):
        grid = SearchGrid(1.0, (0.0,))  # the origin is the only point
        qos = tracking_scenario().to_qos_config()
        profile = seed_profile_generate(grid, qos, 1, 0.0, rng_seed=1)
        # |x| = nominal rate, so the idealized measurement is 0 -> level 6
        assert profile.size == 1
        assert profile.response_vector().tolist() == [6]

    def test_full_grid_covers_every_point(self):
        grid = SearchGrid(10.0, (20.0, 10.0))
        qos = self.config()
        profile = seed_profile_generate(grid, qos, grid.size, 40.0, rng_seed=3)
        assert profile.size == grid.size
        seen = {tuple(alloc) for alloc in profile.allocation_matrix().tolist()}
        assert len(seen) == grid.size

    def test_too_many_records_rejected(self):
        grid = SearchGrid(10.0, (20.0, 10.0))
        with pytest.raises(ValueError):
            seed_profile_generate(grid, self.config(), grid.size + 1, 40.0, 1)

    def test_deterministic_per_seed(self):
        grid = SearchGrid(2.5, (50.0, 30.0))
        qos = self.config()
        a = seed_profile_generate(grid, qos, 16, 40.0, rng_seed=7)
        b = seed_profile_generate(grid, qos, 16, 40.0, rng_seed=7)
        assert a == b
        c = seed_profile_generate(grid, qos, 16, 40.0, rng_seed=8)
        assert a != c

    def test_records_are_distinct_and_span_totals(self):
        grid = SearchGrid(2.5, (50.0, 30.0))
        profile = seed_profile_generate(grid, self.config(), 16, 40.0, rng_seed=7)
        allocations = [tuple(alloc) for alloc in profile.allocation_matrix().tolist()]
        assert len(set(allocations)) == 16
        totals = sorted(sum(a) for a in allocations)
        assert totals[0] < 20.0 and totals[-1] > 60.0  # low-to-high coverage

    def test_responses_match_idealized_measurement(self):
        from qosalloc.controller import quantize

        qos = self.config()
        grid = SearchGrid(2.5, (50.0, 30.0))
        profile = seed_profile_generate(grid, qos, 16, 40.0, rng_seed=7)
        for alloc, response in zip(profile.allocation_matrix().tolist(),
                                   profile.response_vector().tolist()):
            assert response == quantize(sum(alloc) - 40.0, qos)


    @pytest.mark.parametrize("maxima, records", [
        ((50.0, 30.0), 16), ((50.0, 30.0, 30.0), 128), ((50.0, 30.0), 1025), ((7.5,), 4),
    ])
    def test_matches_one_draw_per_stratum(self, maxima, records):
        from qosalloc.controller import quantize
        from qosalloc.profile import Profile

        qos = self.config()
        grid = SearchGrid(1.25, maxima)
        for seed in (1, 2, 20240408):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            profile = seed_profile_generate(grid, qos, records, 40.0, rng, capacity=records)
            # one checked append per stratum, each with its own draw
            ref = Profile(grid.link_count, qos.level_count, records)
            for k in range(records):
                lo, hi = k * grid.size // records, (k + 1) * grid.size // records
                pick = grid.by_total_order()[int(ref_rng.integers(lo, hi))]
                allocation = tuple(float(v) for v in grid.counts()[pick] * grid.step)
                ref.append(allocation, quantize(float(sum(allocation)) - 40.0, qos))
            assert profile.to_bytes() == ref.to_bytes()
            assert rng.integers(2**62) == ref_rng.integers(2**62)  # same stream left

class TestTraceCsv:
    def test_reads_columns(self, tmp_path):
        path = tmp_path / "rates.csv"
        path.write_text("service_1_mbps,service_2_mbps\n40.0,10.0\n45.0,10.0\n\n38.5,12.25\n")
        assert read_trace_csv(path, 2, "rate") == ((40.0, 45.0, 38.5), (10.0, 10.0, 12.25))

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "rates.csv"
        path.write_text("service_1_mbps\n40.0\n")
        with pytest.raises(ConfigError, match="columns"):
            read_trace_csv(path, 2, "rate")

    def test_bad_row_names_line(self, tmp_path):
        path = tmp_path / "rates.csv"
        path.write_text("service_1_mbps,service_2_mbps\n40.0,10.0\n40.0\n")
        with pytest.raises(ConfigError, match="line 3"):
            read_trace_csv(path, 2, "rate")

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "rates.csv"
        path.write_text("service_1_mbps\nforty\n")
        with pytest.raises(ConfigError, match="line 2"):
            read_trace_csv(path, 1, "rate")


class TestScenarioConfigValidation:
    def test_trace_shorter_than_run(self):
        with pytest.raises(ConfigError, match="rate trace"):
            small_scenario(run_length=10)

    def test_link_grid_mismatch(self):
        with pytest.raises(ConfigError, match="links"):
            small_scenario(links=(LinkSpec(300.0, 40.0),))

    def test_qos_level_out_of_range(self):
        with pytest.raises(ConfigError, match="qos_level"):
            small_scenario(qos_levels=(4,))

    def test_seed_spec_needs_exactly_one_source(self):
        with pytest.raises(ConfigError):
            SeedSpec()
        with pytest.raises(ConfigError):
            SeedSpec(file="x.csv", records=4, nominal_rate=40.0)
        with pytest.raises(ConfigError):
            SeedSpec(records=4)


class TestScenarioFileIO:
    def test_load_inline_rate_trace(self, tmp_path):
        assert load_scenario(write_doc(tmp_path / "scenario.json", SMALL_DOC)) == small_scenario()

    def test_load_csv_rate_trace(self, tmp_path):
        (tmp_path / "rates.csv").write_text(SMALL_RATES_CSV)
        doc = small_doc()
        doc["rate_trace"] = "rates.csv"
        assert load_scenario(write_doc(tmp_path / "scenario.json", doc)) == small_scenario()

    def test_unknown_top_key_rejected(self, tmp_path):
        doc = small_doc()
        doc["surprise"] = 1
        with pytest.raises(ConfigError, match="surprise"):
            load_scenario(write_doc(tmp_path / "scenario.json", doc))

    def test_unknown_nested_key_rejected(self, tmp_path):
        doc = small_doc()
        doc["grid"]["bonus"] = 2
        with pytest.raises(ConfigError, match="grid"):
            load_scenario(write_doc(tmp_path / "scenario.json", doc))

    def test_missing_key_names_field(self, tmp_path):
        doc = small_doc()
        del doc["capacity"]
        with pytest.raises(ConfigError, match="capacity"):
            load_scenario(write_doc(tmp_path / "scenario.json", doc))

    @pytest.mark.parametrize("edit, field", [
        (lambda doc: doc["grid"].pop("step"), "step"),
        (lambda doc: doc.update(grid=3), "grid"),
        (lambda doc: doc.update(links=[1, 2]), r"links\[0\]"),
        (lambda doc: doc["links"][0].update(capacity=float("nan")),
         r"links\[0\]: capacity must be finite"),
        (lambda doc: doc.update(thresholds=None), "thresholds"),
        (lambda doc: doc.update(run_length=float("inf")), "run_length"),
        (lambda doc: doc.update(services=[5]), r"services\[0\]"),
        (lambda doc: doc.update(rate_trace={"inline": [None]}), "inline row 1"),
        (lambda doc: doc["rate_trace"]["inline"][1].__setitem__(0, float("nan")),
         "service 1 rate trace must be finite"),
        (lambda doc: doc["rate_trace"]["inline"][4].__setitem__(0, -1.0),
         "service 1 rate trace must be finite"),
        (lambda doc: doc.update(seed_profile=[]), "seed_profile"),
        (lambda doc: doc["predictor"].update(knn_k="many"), "knn_k"),
        (lambda doc: doc["predictor"].update(knn_k=2.5), "knn_k"),
        (lambda doc: doc["predictor"].update(knn_k=True), "knn_k"),
        (lambda doc: doc["predictor"].update(knn_k="3"), "knn_k"),
        (lambda doc: doc["services"][0].update(qos_level=1.5), "qos_level"),
        (lambda doc: doc["seed_profile"].update(records=True), "records"),
        (lambda doc: doc.update(levels="12"), "levels"),
        (lambda doc: doc.update(targets=[7, 9.5, 11]), "targets"),
        (lambda doc: doc.update(capacity=8.5), "capacity"),
        (lambda doc: doc.update(run_length=True), "run_length"),
        (lambda doc: doc.update(rng_seed="5"), "rng_seed"),
        (lambda doc: doc.update(rng_seed=-1), "rng_seed must be >= 0"),
        (lambda doc: doc["seed_profile"].update(records=0), "records must be >= 1"),
        (lambda doc: doc["seed_profile"].update(nominal_rate=float("nan")), "nominal_rate"),
        (lambda doc: doc["seed_profile"].update(nominal_rate=float("inf")), "nominal_rate"),
        (lambda doc: doc["seed_profile"].update(nominal_rate=float("-inf")), "nominal_rate"),
        (lambda doc: doc["seed_profile"].update(nominal_rate=-1.0), "nominal_rate"),
        (lambda doc: doc.update(thresholds=[float("nan")] * 11), "thresholds must be finite"),
        (lambda doc: doc["thresholds"].__setitem__(4, float("nan")),
         "thresholds must be finite"),
        (lambda doc: doc["thresholds"].__setitem__(10, float("inf")),
         "thresholds must be finite"),
        (lambda doc: doc["seed_profile"].update(records=9),
         "seed.records=9 exceeds the profile capacity 8"),
        (lambda doc: doc["seed_profile"].update(records=1000000), r"seed.records=1000000 exceeds"),
        (lambda doc: (doc["predictor"].update(kind="grnn_unbounded"),
                      doc["seed_profile"].update(records=78)),
         "seed.records=78 exceeds the 77 grid points"),
        (lambda doc: (doc["predictor"].update(kind="knn"),
                      doc["seed_profile"].update(records=1000000)),
         "seed.records=1000000 exceeds the 77 grid points"),
    ], ids=["grid_without_step", "grid_not_object", "links_not_objects", "nan_capacity",
            "null_thresholds", "infinite_run_length", "services_not_objects",
            "inline_row_not_list", "nan_rate", "negative_rate", "seed_profile_not_object",
            "knn_k_not_int", "knn_k_fraction", "knn_k_bool", "knn_k_string",
            "qos_level_fraction", "records_bool", "levels_string", "targets_fraction",
            "capacity_fraction", "run_length_bool", "rng_seed_string", "negative_rng_seed",
            "zero_records", "nan_nominal_rate", "inf_nominal_rate", "minus_inf_nominal_rate",
            "negative_nominal_rate", "all_nan_thresholds", "one_nan_threshold",
            "inf_threshold", "records_above_capacity", "million_records",
            "unbounded_records_above_grid", "knn_records_above_grid"])
    def test_malformed_field_is_a_config_error(self, tmp_path, capsys, edit, field):
        doc = small_doc()
        edit(doc)
        path = write_doc(tmp_path / "scenario.json", doc)
        with pytest.raises(ConfigError, match=field):
            load_scenario(path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_load_background_trace(self, tmp_path):
        # a background trace replaces every link's fixed background, one
        # column per link; the run consumes it per epoch
        doc = small_doc()
        doc["background_trace"] = {"inline": [[40.0, 40.0]] * 3 + [[200.0, 40.0]] * 3}
        loaded = load_scenario(write_doc(tmp_path / "scenario.json", doc))
        assert loaded == small_scenario(links=(
            LinkSpec(300.0, (40.0,) * 3 + (200.0,) * 3),
            LinkSpec(300.0, (40.0,) * 6),
        ))
        result = run_scenario(loaded)
        assert result.reports[0].epochs == 6

    def test_file_seed_profile(self, tmp_path):
        config = small_scenario()
        qos = config.to_qos_config()
        profile = seed_profile_generate(qos.grid, qos, 6, 40.0, rng_seed=2)
        profile.save(tmp_path / "seed.csv")
        doc = small_doc()
        doc["seed_profile"] = {"file": "seed.csv"}
        loaded = load_scenario(write_doc(tmp_path / "scenario.json", doc))
        result = run_scenario(loaded)
        assert result.reports[0].epochs == config.run_length


    def test_seed_file_over_capacity_fails(self, tmp_path, capsys):
        config = small_scenario()  # capacity 8
        qos = config.to_qos_config()
        seed_profile_generate(qos.grid, qos, 9, 40.0, rng_seed=2).save(tmp_path / "seed.csv")
        doc = small_doc()
        doc["seed_profile"] = {"file": "seed.csv"}
        path = write_doc(tmp_path / "scenario.json", doc)
        with pytest.raises(ValueError, match="at capacity 8"):
            run_scenario(load_scenario(path))
        out = str(tmp_path / "o")
        assert main(["run", "--config", str(path), "--out", out]) == 2
        assert "at capacity 8" in capsys.readouterr().err


class TestNumericFieldsAndKnnK:
    """Values that used to load and then be ignored, or fail deep in a run."""

    BAD_VALUES = [("min_kernel_sum", float("nan")), ("erab_noise_std", float("nan")),
                  ("erab_noise_std", float("inf")), ("erab_noise_std", float("-inf")),
                  ("erab_noise_std", -0.5)]
    IDS = ["nan_min_kernel_sum", "nan_noise", "inf_noise", "minus_inf_noise", "negative_noise"]

    @pytest.mark.parametrize("field, value", BAD_VALUES, ids=IDS)
    def test_dataclass_rejects(self, field, value):
        with pytest.raises(ConfigError, match=field):
            small_scenario(**{field: value})

    @pytest.mark.parametrize("field, value", BAD_VALUES, ids=IDS)
    def test_scenario_file_rejects(self, tmp_path, capsys, field, value):
        doc = small_doc()
        doc[field] = value
        path = write_doc(tmp_path / "scenario.json", doc)  # NaN and Infinity are JSON extensions
        with pytest.raises(ConfigError, match=field):
            load_scenario(path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_knn_k_above_generated_seed_records(self):
        with pytest.raises(ConfigError, match=r"predictor\.knn_k"):
            small_scenario(predictor=PredictorKind("knn", knn_k=7))
        small_scenario(predictor=PredictorKind("knn", knn_k=6))  # six seed records
        small_scenario(predictor=PredictorKind(knn_k=7))  # knn_k unused by grnn

    def test_knn_k_above_file_seed_records(self, tmp_path, capsys):
        qos = small_scenario().to_qos_config()
        seed_profile_generate(qos.grid, qos, 4, 40.0, rng_seed=2).save(tmp_path / "seed.csv")
        doc = small_doc()
        doc["predictor"] = {"kind": "knn", "knn_k": 5}
        doc["seed_profile"] = {"file": "seed.csv"}
        path = write_doc(tmp_path / "scenario.json", doc)
        loaded = load_scenario(path)
        with pytest.raises(ConfigError, match=r"predictor\.knn_k"):
            run_scenario(loaded)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "predictor.knn_k" in capsys.readouterr().err


class TestRunScenario:
    def test_metrics_reconcile_with_erab_series(self):
        result = run_scenario(small_scenario())
        rep = result.reports[0]
        erab = np.array([rec.erab for rec in result.controllers[0].log])
        n = rep.epochs
        assert rep.avg_rab * n - rep.avg_dlr * n == pytest.approx(erab.sum(), abs=1e-9)
        assert rep.avg_rab >= 0 and rep.avg_dlr >= 0

    def test_all_positive_seed_and_ample_rate_has_zero_dlr(self):
        # constant rate far below every allocation, all-top-level seed
        config = small_scenario(
            rates=((0.0,) * 6,),
            seed=SeedSpec(records=1, nominal_rate=0.0),
        )
        result = run_scenario(config)
        rep = result.reports[0]
        assert rep.avg_dlr == 0.0

    def test_byte_identical_outputs_excluding_timing(self, tmp_path):
        config = small_scenario()
        run_scenario(config, out_dir=tmp_path / "a")
        run_scenario(config, out_dir=tmp_path / "b")
        names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert names_a == names_b
        assert "timings.csv" in names_a
        for name in names_a:
            if name == "timings.csv":
                continue
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), f"{name} differs between identical runs"

    def test_different_seed_changes_outputs(self, tmp_path):
        a = run_scenario(small_scenario())
        b = run_scenario(small_scenario(rng_seed=6))
        totals = [[rec.total for rec in r.controllers[0].log] for r in (a, b)]
        assert totals[0] != totals[1] or (
            a.controllers[0].profile != b.controllers[0].profile
        )

    def test_audit_recompute_from_epoch_log(self, tmp_path):
        config = small_scenario(run_length=6)
        result = run_scenario(config, out_dir=tmp_path)
        rows = (tmp_path / "epochs.csv").read_text().splitlines()
        header = rows[0].split(",")
        i_erab = header.index("erab_mbps")
        i_total = header.index("total_mbps")
        erab = [float(r.split(",")[i_erab]) for r in rows[1:]]
        totals = [float(r.split(",")[i_total]) for r in rows[1:]]
        avg_rab, avg_dlr, avg_var = compute_metrics(erab, totals)
        metrics_row = (tmp_path / "metrics.csv").read_text().splitlines()[1].split(",")
        assert float(metrics_row[3]) == avg_rab
        assert float(metrics_row[4]) == avg_dlr
        assert float(metrics_row[5]) == avg_var

    def test_final_profile_written_and_loadable(self, tmp_path):
        from qosalloc.profile import Profile

        result = run_scenario(small_scenario(), out_dir=tmp_path)
        saved = Profile.load(tmp_path / "profile_s1.csv")
        assert saved == result.controllers[0].profile

    def test_multi_service_run(self):
        config = small_scenario(
            qos_levels=(1, 3),
            rates=(
                (40.0, 40.0, 45.0, 45.0, 38.0, 40.0),
                (10.0, 10.0, 10.0, 10.0, 10.0, 10.0),
            ),
        )
        result = run_scenario(config)
        assert len(result.reports) == 2
        assert result.reports[1].qos_level == 3


class TestComparePredictors:
    def test_rows_and_files(self, tmp_path):
        config = small_scenario()
        variants = [
            Variant(PredictorKind("grnn_bounded"), 6),
            Variant(PredictorKind("knn", 3)),
            Variant(PredictorKind("grnn_unbounded")),
        ]
        results = compare_predictors(config, variants, out_dir=tmp_path)
        labels = [label for label, _ in results]
        assert labels == ["grnn_bounded_S6", "knn_k3", "grnn_unbounded"]
        table = (tmp_path / "comparison.csv").read_text().splitlines()
        assert len(table) == 4
        plot = (tmp_path / "plot_compare.csv").read_text().splitlines()
        assert plot[0] == (
            "epoch,source_rate_mbps,total_grnn_bounded_S6_mbps,"
            "total_knn_k3_mbps,total_grnn_unbounded_mbps"
        )
        assert len(plot) == 1 + config.run_length

    def test_timing_sidecars_format(self, tmp_path):
        config = small_scenario(qos_levels=(1, 3), rates=((40.0,) * 6, (10.0,) * 6))
        run_scenario(config, out_dir=tmp_path / "run")
        results = compare_predictors(config, [Variant(PredictorKind("grnn_bounded"), 6),
                                              Variant(PredictorKind("knn", 3))],
                                     out_dir=tmp_path / "cmp")
        timings = [r.split(",") for r in (tmp_path / "run/timings.csv").read_text().splitlines()]
        labels = ["initial", *(f"epoch_{t}" for t in range(1, 7)), "final_median"]
        assert timings[0] == ["service", "label", "ms"]
        assert [r[:2] for r in timings[1:]] == [[s, lab] for s in ("1", "2") for lab in labels]
        final = [r.split(",")
                 for r in (tmp_path / "cmp/comparison_timing.csv").read_text().splitlines()]
        assert final[0] == ["variant", "service", "final_search_time_ms"]
        assert [r[:2] for r in final[1:]] == [
            [v, s] for v in ("grnn_bounded_S6", "knn_k3") for s in ("1", "2")]
        for ms in [float(r[2]) for r in timings[1:]] + [float(r[2]) for r in final[1:]]:
            assert math.isfinite(ms) and ms >= 0.0
        # each service's totals per variant, service 2 in its own plot file
        plots = [[r.split(",") for r in (tmp_path / "cmp" / name).read_text().splitlines()]
                 for name in ("plot_compare.csv", "plot_compare_s2.csv")]
        assert not (tmp_path / "cmp/plot_compare_s3.csv").exists()
        for s, plot in enumerate(plots):
            assert plot[0] == ["epoch", "source_rate_mbps", "total_grnn_bounded_S6_mbps",
                               "total_knn_k3_mbps"]
            logs = [result.controllers[s].log for _, result in results]
            assert [[float(v) for v in row[1:]] for row in plot[1:]] == [
                [grnn.source_rate, grnn.total, knn.total] for grnn, knn in zip(*logs)]
            assert [row[0] for row in plot[1:]] == [str(t) for t in range(1, 7)]
        assert plots[0][1:] != plots[1][1:]

    def test_empty_variant_list_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="at least one variant"):
            compare_predictors(small_scenario(), [], out_dir=tmp_path)

    def test_capacity_override_applies(self):
        config = small_scenario()
        results = compare_predictors(config, [Variant(PredictorKind("grnn_bounded"), 7)])
        _, result = results[0]
        assert result.controllers[0].profile.capacity == 7

    def test_unbounded_profile_grows(self):
        config = small_scenario()
        results = compare_predictors(config, [Variant(PredictorKind("grnn_unbounded"))])
        _, result = results[0]
        assert result.controllers[0].profile.capacity is None
        assert result.controllers[0].profile.size == 6 + config.run_length


class TestParseVariant:
    def test_tokens(self):
        assert parse_variant("grnn_bounded@16") == Variant(PredictorKind("grnn_bounded"), 16)
        assert parse_variant("grnn_unbounded") == Variant(PredictorKind("grnn_unbounded"))
        assert parse_variant("knn@7") == Variant(PredictorKind("knn", 7))
        assert parse_variant("knn") == Variant(PredictorKind("knn", 5))

    def test_unknown_token(self):
        with pytest.raises(ValueError):
            parse_variant("magic")

    def test_unbounded_has_no_capacity_to_override(self):
        # the run ignored the capacity while labelling the row grnn_unbounded_S16
        with pytest.raises(ValueError, match="no capacity"):
            parse_variant("grnn_unbounded@16")
