"""One benchmark workload in one process: set up, time a closed loop, check, trace.

Started by `perfbench/run.py`, which sets the BLAS thread variables before
this process imports numpy and puts the checkout's `src` on PYTHONPATH. The
result is printed as one JSON line. The load is a closed loop: one caller
hands the program one instance (or one training run) at a time and waits
for the answer, because neurovrp is an offline solver that serves no
arrivals. Every output is checked with `env.validate_solution` after the
timed loop, so checking costs no measured time.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from neurovrp import decoding, env, instances, model, oracle, training
from neurovrp.instances import GenConfig, Variant

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


# The weights stand in for a checkpoint, so they are the same for every seed:
# the seed picks the inputs, not the program. Untrained weights drawn per
# seed change how often the policy returns to the depot, and with it the
# decode work per instance, for every instance of a run at once.
MODEL_SEED = 0
SEED_BLOCK = 1_000_003
WARM_UP = SEED_BLOCK - 1     # item index of the warm-up call's input
# The oracle caps optional nodes at 3, so stations and stops are kept at 2.
ORACLE_GEN = GenConfig(n_stations=2, n_stops=2)


def item_seed(seed: int, i: int) -> int:
    """Instance seed of item i; distinct across benchmark seeds."""
    return seed * SEED_BLOCK + i


# -- workloads ----------------------------------------------------------

@dataclass
class Checked:
    ok: bool
    objective: float
    units: int          # validated solutions this item produced


@dataclass
class SolveWorkload:
    """`decoding.solve` on fresh VRP instances, untrained full-scale model."""
    name: str
    n: int
    policy: str
    cluster_size: int | None = None
    rounds: int = 1
    pass_items: int = 4               # items per traced pass; minimum per run
    spans: tuple[str, ...] = ()       # spans that must record calls

    def model_config(self) -> model.ModelConfig:
        return replace(model.ModelConfig.full_scale(Variant.VRP),
                       cluster_size=self.cluster_size, rounds=self.rounds)

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.cfg = self.model_config()
        self.params = model.init_params(self.cfg, seed=MODEL_SEED)
        self.first = [self.make_input(i) for i in range(self.pass_items)]

    def make_input(self, i: int):
        return instances.generate(Variant.VRP, self.n, seed=item_seed(self.seed, i))

    def warm_up(self) -> None:
        small = instances.generate(Variant.VRP, 10,
                                   seed=item_seed(self.seed, WARM_UP))
        decoding.solve(small, self.params, self.cfg, policy=self.policy)

    def call(self, inst):
        return decoding.solve(inst, self.params, self.cfg, policy=self.policy)

    def check(self, inst, sol) -> Checked:
        ok = bool(np.isfinite(sol.cost)) and env.validate_solution(inst, sol).ok
        return Checked(ok, sol.cost, 1)

    def describe(self) -> dict:
        cfg = self.model_config()
        return {"kind": "solve", "preset": "full_scale", "d": cfg.d,
                "heads": cfg.heads, "layers": cfg.layers,
                "k_neighbors": cfg.k_neighbors, "cluster_size": cfg.cluster_size,
                "rounds": cfg.rounds, "variant": "VRP", "n": self.n,
                "policy": self.policy, "pass_items": self.pass_items}


@dataclass
class TrainWorkload:
    """`training.train` with the toy model; each item is one full training run."""
    name: str
    variant: str
    n: int
    epochs: int
    batches_per_epoch: int = 4
    val_size: int = 64
    pass_items: int = 1
    spans: tuple[str, ...] = ()

    def setup(self, seed: int) -> None:
        """The validation set is made inside `train`, so it is timed."""
        self.seed = seed
        self.cfg = model.ModelConfig(variant=Variant(self.variant))
        self.first = [self.make_input(i) for i in range(self.pass_items)]

    def make_input(self, i: int) -> training.TrainConfig:
        return training.TrainConfig(
            n_customers=self.n, epochs=self.epochs,
            batches_per_epoch=self.batches_per_epoch, val_size=self.val_size,
            seed=item_seed(self.seed, i))

    def warm_up(self) -> None:
        small = training.TrainConfig(n_customers=6, epochs=1, batches_per_epoch=1,
                                     batch_size=2, pomo_size=2, val_size=2,
                                     seed=item_seed(self.seed, WARM_UP))
        training.train(small, self.cfg, log=_quiet)

    def call(self, tc: training.TrainConfig):
        """Train once, keeping every rollout's actions for the output check."""
        rollouts = []
        inner = training.batch_rollout

        def keep(batch, *args, **kwargs):
            res = inner(batch, *args, **kwargs)
            rollouts.append((batch, res.actions, res.costs.copy(),
                             res.traj_instance, res.log_probs is not None))
            return res

        training.batch_rollout = keep
        try:
            params = model.init_params(self.cfg, seed=MODEL_SEED)
            _, history = training.train(tc, self.cfg, params=params, log=_quiet)
        finally:
            training.batch_rollout = inner
        return history, rollouts

    def check(self, tc, out) -> Checked:
        history, rollouts = out
        ok = len(history) == tc.epochs and all(
            np.isfinite([m.sampled_cost, m.greedy_val_cost]).all() for m in history)
        sampled = 0
        for batch, actions, costs, traj_instance, is_training in rollouts:
            dists = [instances.build_distance_matrix(inst) for inst in batch]
            for t, b in enumerate(traj_instance):
                sol = env.Solution(actions=list(actions[t]), cost=float(costs[t]))
                ok &= env.validate_solution(batch[b], sol, dists[b]).ok
            sampled += len(costs) if is_training else 0
        ok &= sampled == (tc.epochs * tc.batches_per_epoch * tc.batch_size
                          * tc.pomo_size)
        return Checked(bool(ok), history[-1].greedy_val_cost if history else np.nan,
                       sampled)

    def describe(self) -> dict:
        tc = self.make_input(0)
        cfg = model.ModelConfig(variant=Variant(self.variant))
        return {"kind": "train", "preset": "toy", "d": cfg.d,
                "layers": cfg.layers, "variant": self.variant,
                "n": self.n, "epochs": tc.epochs,
                "batches_per_epoch": tc.batches_per_epoch,
                "batch_size": tc.batch_size, "pomo_size": tc.pomo_size,
                "val_size": tc.val_size, "pass_items": self.pass_items}


@dataclass
class OracleWorkload:
    """`oracle.brute_force` over a fixed round-robin mix of small instances."""
    name: str
    mix: tuple[tuple[str, int], ...]      # (variant, n) in round-robin order
    pass_items: int = 10
    spans: tuple[str, ...] = ()

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.first = [self.make_input(i) for i in range(self.pass_items)]

    def make_input(self, i: int):
        variant, n = self.mix[i % len(self.mix)]
        return instances.generate(variant, n, config=ORACLE_GEN,
                                  seed=item_seed(self.seed, i))

    def warm_up(self) -> None:
        small = instances.generate(Variant.VRP, 4,
                                   seed=item_seed(self.seed, WARM_UP))
        oracle.brute_force(small)

    def call(self, inst):
        return oracle.brute_force(inst)

    def check(self, inst, res) -> Checked:
        sol = res.optimal_solution
        ok = (res.proven and bool(np.isfinite(res.optimal_cost))
              and env.validate_solution(inst, sol).ok)
        return Checked(bool(ok), res.optimal_cost, 1)

    def describe(self) -> dict:
        return {"kind": "oracle", "mix": [f"{v} n={n}" for v, n in self.mix],
                "n_stations": ORACLE_GEN.n_stations,
                "n_stops": ORACLE_GEN.n_stops,
                "pass_items": self.pass_items}


_MODEL_SPANS = ("instances.generate", "decoding.build_cache", "model.encode",
                "model.build_edge_set", "model.edge_embed", "model.heatmap",
                "model.expand_cache", "model.decode_step",
                "decoding.batch_feasible", "decoding.batch_step")

WORKLOADS = {wl.name: wl for wl in (
    SolveWorkload("pomo-n100", n=100, policy="pomo", pass_items=6,
                  spans=_MODEL_SPANS + ("decoding.solve", "decoding.batch_rollout",
                                        "env.validate_solution")),
    SolveWorkload("cpa-n1000", n=1000, policy="greedy",
                  cluster_size=20, rounds=2, pass_items=2,
                  spans=_MODEL_SPANS + ("decoding.solve", "decoding.batch_rollout",
                                        "env.validate_solution",
                                        "clustering.clustered_attention")),
    TrainWorkload("train-tw", variant="VRPTW", n=20, epochs=10, pass_items=1,
                  spans=_MODEL_SPANS + ("training.train", "training.batch_rollout",
                                        "training.greedy_validation_cost",
                                        "tensor.backward", "training.adam_step")),
    # Oracle time per instance is heavy-tailed: n=7 VRP averages 0.4 s with a
    # standard deviation of 0.3 s, n=6 EVRPCS and VRPRS take 0.5-6 s. A run
    # of seconds would hold too few such instances for its rate to repeat
    # across seeds. At these sizes an instance takes about 15 ms on average
    # and a run holds about a thousand.
    OracleWorkload("oracle-small",
                   mix=(("VRP", 5), ("AVRP", 5), ("VRPTW", 5),
                        ("EVRPCS", 3), ("VRPRS", 3)),
                   pass_items=100,
                   spans=("instances.generate", "oracle.brute_force",
                          "env.feasible_mask", "env.step")),
)}


def _quiet(*_args) -> None:
    pass


# -- trace points and per-layer metrics ---------------------------------

def _count_combine(c, out, a):
    index = a["index"]
    slots = sum(r.shape[0] for r in index.rounds) * (index.cluster_size + 1)
    c["clustering.combine_bytes"] += a["h"].shape[0] * slots * 8


def _count_heatmap(c, out, a):
    c["model.heatmap.edges"] += a["edges"].neighbors.size


def _count_expand(c, out, a):
    _, n_total, d = a["cache"].h_nodes.shape
    rows = len(a["traj_instance"])
    c["model.expand_cache.bytes"] += 3 * rows * n_total * d * 8


def _count_decode(c, out, a):
    c["model.decode_step.rows"] += len(a["current"])


def _count_mask(c, out, a):
    done = a["state"].done
    c["mask.rows"] += done.size
    c["mask.active_rows"] += done.size - int(done.sum())
    c["mask.true"] += int(out.sum())
    c["mask.cells"] += out.size


def _count_adam(c, out, a):
    c["adam.norm_sum"] += out


def _count_nodes(c, out, a):
    c["oracle.nodes_expanded"] += out.nodes_expanded


# (owner, attribute, span name, counter): each function is wrapped where
# its caller looks it up, so a module that imported it by name is patched
# in that module.
TRACE_POINTS = (
    ("neurovrp.instances", "generate", "instances.generate", None),
    ("neurovrp.training", "generate", "instances.generate", None),
    ("neurovrp.model", "clustered_attention", "clustering.clustered_attention",
     _count_combine),
    ("neurovrp.decoding", "solve", "decoding.solve", None),
    ("neurovrp.decoding", "batch_rollout", "decoding.batch_rollout", None),
    ("neurovrp.training", "batch_rollout", "training.batch_rollout", None),
    ("neurovrp.decoding", "build_cache", "decoding.build_cache", None),
    ("neurovrp.model", "encode", "model.encode", None),
    ("neurovrp.model", "build_edge_set", "model.build_edge_set", None),
    ("neurovrp.model", "edge_embed", "model.edge_embed", None),
    ("neurovrp.model", "heatmap", "model.heatmap", _count_heatmap),
    ("neurovrp.model", "expand_cache", "model.expand_cache", _count_expand),
    ("neurovrp.model", "decode_step", "model.decode_step", _count_decode),
    ("neurovrp.decoding", "batch_feasible", "decoding.batch_feasible", _count_mask),
    ("neurovrp.decoding", "batch_step", "decoding.batch_step", None),
    ("neurovrp.decoding", "validate_solution", "env.validate_solution", None),
    ("neurovrp.tensor:Tensor", "backward", "tensor.backward", None),
    ("neurovrp.training:Adam", "step", "training.adam_step", _count_adam),
    ("neurovrp.training", "train", "training.train", None),
    ("neurovrp.training", "greedy_validation_cost",
     "training.greedy_validation_cost", None),
    ("neurovrp.oracle", "brute_force", "oracle.brute_force", _count_nodes),
    ("neurovrp.oracle", "feasible_mask", "env.feasible_mask", None),
    ("neurovrp.oracle", "step", "env.step", None),
)

# (name, unit, better). A name ending in .calls, .s or .self_s reads that
# field of the span before the suffix; the others are computed below.
PER_LAYER = (
    ("instances.generate.s", "s", "lower"),
    ("clustering.clustered_attention.calls", "count", "lower"),
    ("clustering.clustered_attention.s", "s", "lower"),
    ("clustering.combine_bytes", "bytes", "lower"),
    ("model.encode.calls", "count", "lower"),
    ("model.encode.self_s", "s", "lower"),
    ("model.build_edge_set.s", "s", "lower"),
    ("model.edge_embed.s", "s", "lower"),
    ("model.heatmap.s", "s", "lower"),
    ("model.heatmap.edges", "count", "lower"),
    ("decoding.build_cache.self_s", "s", "lower"),
    ("model.expand_cache.s", "s", "lower"),
    ("model.expand_cache.bytes", "bytes", "lower"),
    ("model.decode_step.calls", "count", "lower"),
    ("model.decode_step.s", "s", "lower"),
    ("model.decode_step.rows", "count", "lower"),
    ("decoding.active_row_frac", "frac", "higher"),
    ("decoding.batch_feasible.calls", "count", "lower"),
    ("decoding.batch_feasible.s", "s", "lower"),
    ("decoding.mask_density", "frac", "higher"),
    ("decoding.batch_step.s", "s", "lower"),
    ("decoding.batch_rollout.self_s", "s", "lower"),
    ("env.validate_solution.s", "s", "lower"),
    ("tensor.backward.calls", "count", "lower"),
    ("tensor.backward.s", "s", "lower"),
    ("training.adam_step.s", "s", "lower"),
    ("training.grad_norm", "norm", "lower"),
    ("training.batch_rollout.self_s", "s", "lower"),
    ("training.greedy_validation_cost.s", "s", "lower"),
    ("env.feasible_mask.calls", "count", "lower"),
    ("env.feasible_mask.s", "s", "lower"),
    ("env.step.calls", "count", "lower"),
    ("env.step.s", "s", "lower"),
    ("oracle.nodes_expanded", "count", "lower"),
    ("oracle.nodes_per_s", "1/s", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
)

# Per-layer counters derived from the shapes of the arrays a call received
# or returned; they repeat exactly for a given seed and program.
FROM_ARRAY_SIZES = ("clustering.combine_bytes", "model.heatmap.edges",
                    "model.expand_cache.bytes", "decoding.active_row_frac",
                    "decoding.mask_density")

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("solves_per_s", "1/s", "higher"),
    ("solve_p50_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def with_units(table, values: dict[str, float]) -> dict[str, dict]:
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in table}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans: dict, counters: dict, untraced_s: float,
                      traced_s: float) -> dict[str, float]:
    """Values for PER_LAYER over one traced pass; absent spans read 0."""
    computed = {
        "clustering.combine_bytes": counters["clustering.combine_bytes"],
        "model.heatmap.edges": counters["model.heatmap.edges"],
        "model.expand_cache.bytes": counters["model.expand_cache.bytes"],
        "model.decode_step.rows": counters["model.decode_step.rows"],
        "decoding.active_row_frac": _ratio(counters["mask.active_rows"],
                                           counters["mask.rows"]),
        "decoding.mask_density": _ratio(counters["mask.true"],
                                        counters["mask.cells"]),
        "training.grad_norm": _ratio(
            counters["adam.norm_sum"],
            spans.get("training.adam_step", {}).get("calls", 0)),
        "oracle.nodes_expanded": counters["oracle.nodes_expanded"],
        "oracle.nodes_per_s": _ratio(counters["oracle.nodes_expanded"], untraced_s),
        "trace.overhead_frac": 1.0 - untraced_s / traced_s,
    }
    out = {}
    for name, _, _ in PER_LAYER:
        if name in computed:
            out[name] = float(computed[name])
            continue
        span, _, field_ = name.rpartition(".")
        out[name] = float(spans.get(span, {}).get(field_, 0))
    return out


# -- running -------------------------------------------------------------

@dataclass
class Item:
    index: int
    inp: object
    out: object
    latency: float
    error: bool = False


def call_item(wl, i: int, inp) -> Item:
    t = time.perf_counter()
    try:
        out = wl.call(inp)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return Item(i, inp, None, time.perf_counter() - t, error=True)
    return Item(i, inp, out, time.perf_counter() - t)


def timed_loop(wl, seconds: float) -> list[Item]:
    """Closed loop for at least `seconds` and at least `wl.pass_items` items."""
    items: list[Item] = []
    t_end = time.monotonic() + seconds
    while len(items) < wl.pass_items or time.monotonic() < t_end:
        i = len(items)
        inp = wl.first[i] if i < len(wl.first) else wl.make_input(i)
        items.append(call_item(wl, i, inp))
    return items


def check_items(wl, items: list[Item]) -> list[Checked | None]:
    """The check of each item, or None for an item that failed."""
    out = []
    for it in items:
        checked = None
        if not it.error:
            try:
                checked = wl.check(it.inp, it.out)
            except Exception:
                traceback.print_exc(file=sys.stderr)
            if checked is not None and not checked.ok:
                print(f"{wl.name}: item {it.index} failed its output check",
                      file=sys.stderr)
                checked = None
        out.append(checked)
    return out


def traced_pass(wl, out_path: Path | None) -> tuple[list[Item], Tracer]:
    """The first `pass_items` items again, inputs regenerated, under the tracer."""
    tracer = Tracer()
    for owner, attr, name, count in TRACE_POINTS:
        tracer.wrap(owner, attr, name, count)
    try:
        items = [call_item(wl, i, wl.make_input(i)) for i in range(wl.pass_items)]
    finally:
        tracer.unwrap_all()
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.save(out_path)
    return items, tracer


def run(wl, seed: int, seconds: float, trace: bool, t_start: float,
        out_dir: Path | None = None) -> dict:
    """Set up, warm up, run the timed loop, check it, and trace if asked.

    `t_start` is the `time.monotonic()` reading taken when this process
    was started, so set-up time covers interpreter start and imports.
    """
    wl.setup(seed)
    setup_s = time.monotonic() - t_start
    wl.warm_up()

    items = timed_loop(wl, seconds)
    checks = check_items(wl, items)
    good = [(it, c) for it, c in zip(items, checks) if c is not None]
    if not good:
        raise RuntimeError(f"{wl.name}: no item passed its output check")
    busy = sum(it.latency for it in items)
    first = [c.objective for it, c in good if it.index < wl.pass_items]
    result = {
        "attempted": len(items),
        "failed": len(items) - len(good),
        "metrics": with_units(END_TO_END, {
            "setup_s": setup_s,
            "solves_per_s": sum(c.units for _, c in good) / busy,
            "solve_p50_s": statistics.median(it.latency for it, _ in good),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }),
        "report": {
            "busy_s": busy,
            "units": sum(c.units for _, c in good),
            "samples": len(good),
            "mean_objective": statistics.fmean(first) if first else float("nan"),
            "objective_items": len(first),
        },
        "per_layer": None,
    }
    if trace:
        out_path = (None if out_dir is None
                    else out_dir / f"spans-{wl.name}-seed{seed}.npz")
        traced, tracer = traced_pass(wl, out_path)
        traced_checks = check_items(wl, traced)
        result["attempted"] += len(traced)
        result["failed"] += sum(c is None for c in traced_checks)
        spans = tracer.summary()
        missing = [s for s in wl.spans if spans.get(s, {}).get("calls", 0) == 0]
        if missing:
            raise RuntimeError(f"{wl.name}: traced run recorded no calls of "
                               f"{', '.join(missing)}")
        untraced_s = sum(it.latency for it in items[:wl.pass_items])
        traced_s = sum(it.latency for it in traced)
        result["per_layer"] = with_units(PER_LAYER, per_layer_metrics(
            spans, tracer.counters, untraced_s, traced_s))
        result["from_array_sizes"] = FROM_ARRAY_SIZES
    return result


# -- environment ---------------------------------------------------------

def blas_threads() -> int:
    """BLAS thread count read back from numpy's bundled OpenBLAS."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    raise RuntimeError(f"no scipy_openblas library with a thread-count "
                       f"symbol under {libdir}")


def git_commit(root: Path) -> str:
    """HEAD commit read from `.git` files; 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(wl, threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "cpus": len(os.sched_getaffinity(0)),
            "commit": git_commit(ROOT), "workload": wl.describe()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if Path(sys.modules["neurovrp"].__file__).resolve().parent.parent != src:
        print(f"neurovrp was not imported from {src}", file=sys.stderr)
        return 2
    threads = blas_threads()
    if threads != 1:
        print(f"refusing to run: BLAS uses {threads} threads, not 1",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    if args.setup_only:
        wl.setup(args.seed)
        print(json.dumps({"setup_s": time.monotonic() - args.t0}))
        return 0
    result = run(wl, args.seed, args.seconds, bool(args.trace), args.t0,
                 out_dir=ROOT / "perfbench" / "out")
    result["fingerprint"] = fingerprint(wl, threads)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
