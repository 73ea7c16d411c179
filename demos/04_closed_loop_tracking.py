"""Closed-loop rate tracking at three QoS levels.

Each epoch the controller applies the cheapest allocation predicted to
meet its QoS target, the simulator measures the bandwidth surplus (ERAB),
and the quantized measurement replaces a profile record, moving the next
search. Negative feedback can only raise the next total allocation and
positive feedback can only lower it, so the loop tracks the source rate
with a per-level safety margin: higher QoS levels ride higher above the
rate, absorbing surges at the cost of reserved bandwidth.

The source rate runs at 40 Mbps and steps to 45 Mbps mid-run. Per-epoch
plot data lands in demo_output/tracking_q<q>.csv (epoch, rate, total).

Run:  python demos/04_closed_loop_tracking.py
"""

from pathlib import Path

import numpy as np

from qosalloc import run_scenario
from qosalloc.scenarios import TARGETS, THRESHOLDS, tracking_scenario

out_dir = Path(__file__).resolve().parent.parent / "demo_output"
out_dir.mkdir(exist_ok=True)

for q in (1, 2, 3):
    log = run_scenario(tracking_scenario(qos_level=q)).controllers[0].log
    target = TARGETS[q - 1]
    band = (THRESHOLDS[target - 2], THRESHOLDS[target - 1])
    erab = np.array([rec.erab for rec in log])
    print(f"\nQoS level {q}: response target {target}, steady ERAB band {band} Mbps")
    print(f"{'epoch':>5}  {'rate':>6}  {'total':>6}  {'ERAB':>7}  {'level':>5}")
    for rec in log:
        marker = " <- rate step" if rec.epoch == 21 else ""
        print(
            f"{rec.epoch:5d}  {rec.source_rate:6.1f}  {rec.total:6.1f}  "
            f"{rec.erab:7.2f}  {rec.response:5d}{marker}"
        )
    tail = erab[-20:]
    print(
        f"last-20-epoch mean ERAB {tail.mean():.2f} Mbps "
        f"(band {band}), mean loss {np.maximum(-tail, 0).mean():.3f} Mbps"
    )
    path = out_dir / f"tracking_q{q}.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,source_rate_mbps,total_mbps,erab_mbps\n")
        for rec in log:
            fh.write(f"{rec.epoch},{rec.source_rate},{rec.total},{rec.erab}\n")
    print(f"plot data written to {path}")
