"""One workload process: set up, make entry calls, report as one JSON line.

Started by run.py, one process at a time, with single-threaded BLAS. Modes:

measure  entry calls back to back while the next one still fits in
         --seconds; times each call and each ``Simulator.run_epoch`` (grouped
         by call); reports the first call's set-up time, digests, checks and
         ``ru_maxrss``.
setup    stops at the first ``Simulator.run_epoch`` of the first call (or,
         for verify_suites, where the entry call would start) and reports the
         time since the parent started this process.
trace    ``trace_calls`` untraced calls, then as many traced ones; reports
         every per-layer metric, runs the call-count self-check and writes
         the spans out.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
OUT = HERE / "_out"
DIGESTS = HERE / "digests.json"


class SetupReached(Exception):
    """Raised by the set-up probe at the first epoch."""


def import_program() -> None:
    """Put this checkout's src/ first on the path and import qosalloc from it."""
    if not (SRC / "qosalloc" / "__init__.py").is_file():
        raise SystemExit(f"no qosalloc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qosalloc

    if Path(qosalloc.__file__).resolve().parent != (SRC / "qosalloc").resolve():
        raise SystemExit(f"imported qosalloc from {qosalloc.__file__}, not {SRC}")


def expected_digests(workload: str, seed: int) -> dict | None:
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    return recorded.get(workload, {}).get(str(seed))


class EpochTimer:
    """Times Simulator.run_epoch: the only wrapper in an untraced run."""

    def __init__(self, simulator_cls, stop_at_first: bool = False):
        self.samples_ms: list[float] = []
        self.first_start: float | None = None
        self._cls = simulator_cls
        self._original = simulator_cls.run_epoch
        original = self._original

        def run_epoch(sim):
            t0 = perf_counter()
            if self.first_start is None:
                self.first_start = t0
                if stop_at_first:
                    raise SetupReached
            out = original(sim)
            self.samples_ms.append((perf_counter() - t0) * 1e3)
            return out

        simulator_cls.run_epoch = run_epoch

    def restore(self) -> None:
        self._cls.run_epoch = self._original


class Runner:
    """Makes entry calls and judges each one's outputs.

    A call that raises, or whose digest differs from the recorded one (or,
    for a seed without recorded digests, from the first call's), counts all
    its operations as failed. The first call's result is also checked by
    the workload's own checks once timing is over.
    """

    def __init__(self, workload, seed: int, scratch: Path):
        self.w = workload
        self.inputs = workload.inputs(seed)
        self.expected = expected_digests(workload.name, seed)
        self.scratch = scratch
        self.walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: list[dict] = []
        self.kept = None
        self.invoke = workload.call  # the trace run puts this under its root span

    def call(self) -> None:
        out_dir = Path(tempfile.mkdtemp(dir=self.scratch))
        self.attempted += self.w.ops_per_call
        try:
            t0 = perf_counter()
            result = self.invoke(self.inputs, out_dir)
            self.walls.append(perf_counter() - t0)
            digest = self.w.digest(result, out_dir)
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failed += self.w.ops_per_call
            self.problems.append(traceback.format_exc(limit=4))
            return
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        reference = self.expected or (self.digests[0] if self.digests else digest)
        if digest != reference:
            self.failed += self.w.ops_per_call
            bad = sorted(k for k in set(digest) | set(reference)
                         if digest.get(k) != reference.get(k))
            self.problems.append(f"digest mismatch: {', '.join(bad)}")
        self.digests.append(digest)
        if self.kept is None:
            self.kept = result

    def report(self) -> dict:
        from workloads import loss_surplus

        if self.kept is not None:
            found = self.w.check(self.kept)
            if found:
                self.failed += self.w.ops_per_call
                self.problems.extend(found)
        out = {
            "attempted": self.attempted,
            "failed": min(self.failed, self.attempted),
            "problems": list(dict.fromkeys(self.problems))[:20],
            "digest": self.digests[0] if self.digests else None,
            "digest_recorded": self.expected is not None,
            "calls": len(self.walls),
            "walls_s": self.walls,
            "epochs_per_call": self.w.epochs_per_call,
        }
        if self.kept is not None and self.w.controllers is not None:
            out["loss_mbps"], out["surplus_mbps"] = loss_surplus(self.w.controllers(self.kept))
        return out


def measure(runner: Runner, timer: EpochTimer, seconds: float, t_spawn: float) -> dict:
    epochs_by_call = []

    def call():
        before = len(timer.samples_ms)
        runner.call()
        epochs_by_call.append(timer.samples_ms[before:])

    start = perf_counter()
    call()
    setup_end = timer.first_start if runner.w.setup_ends_at_epoch else start
    while runner.walls and perf_counter() - start + statistics.median(runner.walls) <= seconds:
        call()
    # read before the checks, which allocate for their own recomputation
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = runner.report()
    report["setup_s"] = None if setup_end is None else setup_end - t_spawn
    report["epoch_ms"] = epochs_by_call
    report["maxrss_kb"] = maxrss_kb
    return report


def probe_setup(runner: Runner, timer: EpochTimer, t_spawn: float) -> dict:
    if not runner.w.setup_ends_at_epoch:
        return {"setup_s": perf_counter() - t_spawn}
    try:
        runner.w.call(runner.inputs, Path(tempfile.mkdtemp(dir=runner.scratch)))
    except SetupReached:
        return {"setup_s": timer.first_start - t_spawn}
    raise SystemExit("set-up probe finished a call without reaching an epoch")


def trace(runner: Runner, seed: int) -> dict:
    import tracing

    calls = runner.w.trace_calls
    for _ in range(calls):
        runner.call()
    untraced = list(runner.walls)
    tracer = tracing.Tracer()
    tracer.install()
    runner.invoke = lambda *args: tracer.span(tracing.ROOT, runner.w.call, *args)
    for i in range(calls):
        tracer.run_id = f"{runner.w.name}-{seed}-{i}"
        runner.call()
    report = runner.report()
    traced = runner.walls[len(untraced):]
    if not (untraced and traced):
        return report
    metrics = tracer.metrics(statistics.median(traced), statistics.median(untraced))
    broken = [f"unwrapped import site: {site}" for site in tracer.missed_sites()]
    broken += closed_form_problems(runner.w, calls, metrics, tracer.counts)
    if broken:
        report["failed"] = report["attempted"]
        report["problems"] = broken + report["problems"]
    report["self_check"] = not broken
    report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["counts"] = dict(tracer.counts)
    spans_path = OUT / f"spans-{runner.w.name}-{seed}.jsonl"
    tracer.write_spans(spans_path)
    report["spans_file"] = str(spans_path.relative_to(CHECKOUT))
    return report


def closed_form_problems(w, k: int, metrics: dict, counts: dict) -> list[str]:
    """Traced counts that differ from the workload's closed forms for k calls.

    A missed import site shows here as a count that falls short.
    """
    seen = {**counts, **{name: value for name, (value, _) in metrics.items()}}
    return [
        f"{name}: traced {seen.get(name, 0)} != closed form {want}"
        for name, want in w.closed_forms(k).items() if seen.get(name, 0) != want
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("measure", "setup", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--t-spawn", type=float, required=True,
                        help="the parent's perf_counter() just before starting this process")
    args = parser.parse_args(argv)

    import_program()
    import numpy
    import workloads
    from qosalloc import netsim

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        runner = Runner(workloads.WORKLOADS[args.workload], args.seed, scratch)
        timer = EpochTimer(netsim.Simulator, stop_at_first=args.mode == "setup")
        if args.mode == "measure":
            report = measure(runner, timer, args.seconds, args.t_spawn)
        elif args.mode == "setup":
            report = probe_setup(runner, timer, args.t_spawn)
        else:
            timer.restore()
            report = trace(runner, args.seed)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report["env"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
