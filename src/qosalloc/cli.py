"""Command-line front end.

Subcommands:
  run      execute one scenario config and write its output files
  compare  run several predictor/capacity variants on the same scenario
  seed     generate an initial profile file for a scenario's grid
  verify   run the randomized property suites and report pass/fail
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

from . import verification
from .controller import ConfigError
from .harness import (
    compare_predictors,
    load_scenario,
    parse_variant,
    run_scenario,
    seed_profile_generate,
)

DEFAULT_VARIANTS = "grnn_bounded@16,grnn_bounded@31,grnn_bounded@46,knn,grnn_unbounded"


def _positive_scale(text: str) -> float:
    scale = float(text)
    if not (math.isfinite(scale) and scale > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return scale


def _add_config_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="scenario JSON file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario rng_seed")


def _load(args) -> "ScenarioConfig":
    config = load_scenario(args.config)
    if args.seed is not None:
        config = replace(config, rng_seed=args.seed)
    return config


def cmd_run(args) -> int:
    config = _load(args)
    result = run_scenario(config, out_dir=args.out)
    for rep in result.reports:
        print(
            f"service {rep.service} (qos {rep.qos_level}): "
            f"avg RAB {rep.avg_rab:.2f} Mbps, avg DLR {rep.avg_dlr:.2f} Mbps, "
            f"avg BW variation {rep.avg_bw_variation:.2f} Mbps, "
            f"final search {rep.final_search_time_ms:.2f} ms"
        )
    print(f"outputs written to {args.out}")
    return 0


def cmd_compare(args) -> int:
    config = _load(args)
    variants = [parse_variant(tok) for tok in args.variants.split(",") if tok]
    results = compare_predictors(config, variants, out_dir=args.out)
    rows = [(label, rep) for label, result in results for rep in result.reports]
    width = max(len(label) for label, _ in rows)
    for label, rep in rows:
        print(
            f"{label:<{width}}  service {rep.service}  avg RAB {rep.avg_rab:6.2f}  "
            f"avg DLR {rep.avg_dlr:6.2f}  BW var {rep.avg_bw_variation:6.2f}  "
            f"search {rep.final_search_time_ms:8.3f} ms"
        )
    print(f"outputs written to {args.out}")
    return 0


def cmd_seed(args) -> int:
    config = _load(args)
    qos_config = config.to_qos_config()
    records = args.records if args.records is not None else config.seed.records
    nominal = (
        args.nominal_rate if args.nominal_rate is not None else config.seed.nominal_rate
    )
    if records is None or nominal is None:
        raise ConfigError(
            "scenario has a file-based seed; pass --records and --nominal-rate"
        )
    profile = seed_profile_generate(
        qos_config.grid, qos_config, records, nominal, config.rng_seed,
        capacity=config.capacity,
    )
    profile.save(args.out)
    print(f"wrote {profile.size}-record profile to {args.out}")
    return 0


def cmd_verify(args) -> int:
    results = verification.run_all(scale=args.scale)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} suites passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qosalloc",
        description="Closed-loop QoS bandwidth allocation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    _add_config_arg(p_run)
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="sweep predictors/capacities on one scenario")
    _add_config_arg(p_cmp)
    p_cmp.add_argument("--out", required=True, help="output directory")
    p_cmp.add_argument(
        "--variants", default=DEFAULT_VARIANTS,
        help="comma-separated variant tokens, e.g. grnn_bounded@31,knn@5,grnn_unbounded",
    )
    p_cmp.set_defaults(func=cmd_compare)

    p_seed = sub.add_parser("seed", help="generate an initial profile file")
    _add_config_arg(p_seed)
    p_seed.add_argument("--out", required=True, help="profile file to write")
    p_seed.add_argument("--records", type=int, default=None)
    p_seed.add_argument("--nominal-rate", type=float, default=None)
    p_seed.set_defaults(func=cmd_seed)

    p_verify = sub.add_parser("verify", help="run the property suites")
    p_verify.add_argument(
        "--scale", type=_positive_scale, default=0.2,
        help="suite size multiplier; 1.0 = full acceptance sizes (default 0.2)",
    )
    p_verify.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
