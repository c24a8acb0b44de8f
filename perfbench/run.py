"""Repository benchmark for neurovrp.

    python3 perfbench/run.py --workload pomo-n100 --seed 0 --seconds 15 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

- pomo-n100: full-scale model, POMO decoding (100 forced starts), VRP n=100
- cpa-n1000: full-scale model with clustered attention, greedy, VRP n=1000
- train-tw: toy model, `train` with 10 epochs on VRPTW n=20
- oracle-small: exact `brute_force` over a mix of five variants

Each workload runs in its own worker process with one BLAS thread. Set-up is
repeated in separate processes and its median is reported. With `--trace 0`
the last line of output is a JSON object with the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced pass instead. The
lines before it are a readable report with the environment fingerprint.
This file imports no numpy, so the thread settings reach every worker.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pomo-n100", "cpa-n1000", "train-tw", "oracle-small")
SETUP_SAMPLES = 5       # set-ups per run, the main worker's included
DEADLINE_S = 170.0      # the whole run must end within this


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    return env


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its JSON line."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), *args,
           "--t0", repr(time.monotonic())]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SystemExit("benchmark deadline passed before a worker started")
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker exceeded the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(wl: str, res: dict, setups: list[float]) -> None:
    """Print the issue's eight end-to-end metrics by name, with units."""
    m = {k: v["value"] for k, v in res["metrics"].items()}
    r = res["report"]
    is_train = wl == "train-tw"
    rows = [
        ("setup_s", m["setup_s"], "s", f"median of {len(setups)} set-ups: "
         + " ".join(f"{x:.3f}" for x in setups)),
        ("solves_per_s", m["solves_per_s"], "1/s",
         f"{r['units']} validated {'trajectories' if is_train else 'instances'}"
         f" in {r['busy_s']:.2f} s of calls"),
        ("solve_p50_s", m["solve_p50_s"], "s",
         f"median of {r['samples']} {'train() calls' if is_train else 'solves'}"),
        ("peak_rss_mb", m["peak_rss_mb"], "MB", "worker ru_maxrss"),
        ("failed_frac", res["failed"] / res["attempted"], "frac",
         f"{res['failed']} of {res['attempted']}"),
    ]
    if is_train:
        rows += [("train_traj_per_s", m["solves_per_s"], "1/s", "= solves_per_s"),
                 ("train_val_cost", r["mean_objective"], "cost",
                  f"mean over the first {r['objective_items']} runs")]
    else:
        rows += [("mean_objective", r["mean_objective"], "cost",
                  f"mean over the first {r['objective_items']} instances")]
    for name, value, unit, note in rows:
        print(f"  {name:<18} {value:>14.6g} {unit:<5} {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        ap.error("--seconds must be a positive number")
    if args.seed < 0:
        ap.error("--seed must not be negative")
    deadline = time.monotonic() + DEADLINE_S

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds)]
    setups = [spawn(common + ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    res = spawn(common + ["--trace", str(args.trace)], deadline)
    setups.append(res["metrics"]["setup_s"]["value"])
    res["metrics"]["setup_s"]["value"] = statistics.median(setups)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("fingerprint " + json.dumps(res["fingerprint"], sort_keys=True))
    report(args.workload, res, setups)
    metrics = res["per_layer"] if args.trace else res["metrics"]
    if args.trace:
        print(f"  per-layer totals over one traced pass of "
              f"{res['fingerprint']['workload']['pass_items']} items:")
        for name, m in metrics.items():
            note = ("computed from array sizes"
                    if name in res["from_array_sizes"] else "")
            print(f"  {name:<38} {m['value']:>14.6g} {m['unit']:<5} {note}".rstrip())
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
