"""Command-line interface.

Every flag can also come from a JSON config file (--config) keyed by flag
dest (`n`, `batch_size`) and parsed by the flag itself; explicit flags win.
An option set by neither is left to the library default. Environment
variables are deliberately not consulted. Exit code 0 means full success.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import bench, cpa_profile
from .decoding import solve as solve_instance
from .env import Solution, validate_solution
from .instances import GenConfig, Instance, Variant, generate, parse_cvrplib
from .model import ModelConfig, init_params, param_count
from .oracle import OracleLimits, brute_force
from .tensor import load_params, save_params
from .training import TrainConfig, train


def _given(args: argparse.Namespace, *dests: str, **renamed: str) -> dict:
    """Library keyword -> value for each option that was set; an unset
    option is left out so the library's own default applies."""
    pairs = [(d, d) for d in dests] + list(renamed.items())
    return {kw: getattr(args, dest) for kw, dest in pairs
            if getattr(args, dest) is not None}


def _read_json(path: str, what: str):
    """The JSON document in `path`; an unreadable or malformed file exits
    with a message naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise SystemExit(f"cannot read {what} {path}: {e.strerror or e}")
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise SystemExit(f"{what} {path} is not valid JSON: {e}")


def _config_argv(flags: dict, path: str) -> list[str]:
    """A --config file as flag tokens, so that each value is parsed by its
    flag's own type, choices and nargs."""
    doc = _read_json(path, "config file")
    if not isinstance(doc, dict):
        raise SystemExit(f"config file {path} must be a JSON object of "
                         f"flag names, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(flags))
    if unknown:
        raise SystemExit(f"config file {path} has unknown keys: {unknown}")
    argv = []
    for key, value in doc.items():
        flag = flags[key].option_strings[0]
        if isinstance(value, list):
            argv += [flag, *map(str, value)]
        elif isinstance(value, bool) and flags[key].nargs == 0:
            argv += [flag] if value else []
        elif value is not None:             # null leaves the option unset
            argv.append(f"{flag}={value}")
    return argv


def _model_config(preset: str, variant: str | None) -> ModelConfig:
    """"toy" (the ModelConfig defaults), "full", or a JSON file of fields
    over the defaults; a --variant fills in one the preset does not name."""
    given = {} if variant is None else {"variant": variant}
    if preset == "toy":
        return ModelConfig(**given)
    if preset == "full":
        return ModelConfig.full_scale(**given)
    doc = _read_json(preset, "model config")
    if not isinstance(doc, dict):
        raise ValueError(f"model config {preset} must be a JSON object")
    return ModelConfig.from_dict({**ModelConfig(**given).to_dict(), **doc})


def _load_checkpoint(path):
    params = load_params(path)
    meta_path = Path(str(path) + ".meta.json")
    if not meta_path.exists():
        raise SystemExit(f"missing checkpoint metadata {meta_path}")
    with open(meta_path, encoding="utf-8") as f:
        config = ModelConfig.from_dict(json.load(f))
    got = {k: t.shape for k, t in params.items()}
    want = {k: t.shape for k, t in init_params(config).items()}
    for name in sorted(got.keys() | want.keys()):
        if got.get(name) != want.get(name):
            raise ValueError(
                f"checkpoint {path} does not match its metadata at {name!r}: "
                f"shape {got.get(name)} in the file, {want.get(name)} wanted")
    return params, config


def _save_checkpoint(params, config: ModelConfig, path) -> None:
    save_params(params, path)
    with open(str(path) + ".meta.json", "w", encoding="utf-8") as f:
        json.dump(config.to_dict(), f, indent=2, sort_keys=True)


def _read_instance(path) -> Instance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise SystemExit(f"cannot read instance {path}: {e.strerror or e}")
    if text.lstrip().startswith("{"):
        return Instance.from_json(text)
    return parse_cvrplib(text)


# -- subcommands --------------------------------------------------------

def cmd_gen(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    gen_cfg = GenConfig(**_given(args, n_stations="stations",
                                 n_stops="stops"))
    seed = _given(args, "seed")
    for _ in range(args.count):
        inst = generate(args.variant, args.n, config=gen_cfg, **seed)
        name = f"{args.variant.lower()}_n{args.n}_s{inst.seed}.json"
        (out_dir / name).write_text(inst.to_json(), encoding="utf-8")
        print(name)
        seed = {"seed": inst.seed + 1}
    return 0


def cmd_train(args) -> int:
    mc = _model_config(args.model, args.variant)
    tc = TrainConfig(**_given(args, "epochs", "batch_size", "lr", "seed",
                              n_customers="n", batches_per_epoch="batches",
                              pomo_size="pomo"))
    params, _ = train(tc, mc, **_given(args, metrics_path="metrics"))
    _save_checkpoint(params, mc, args.out)
    print(f"saved checkpoint to {args.out}")
    return 0


def cmd_solve(args) -> int:
    inst = _read_instance(args.instance)
    params, mc = _load_checkpoint(args.checkpoint)
    if mc.variant != inst.variant:
        raise SystemExit(f"checkpoint is for {mc.variant.value}, "
                         f"instance is {inst.variant.value}")
    if args.augment:
        policy = "pomo-aug"
    elif args.pomo:
        policy = "pomo"
    elif args.mode == "sample":
        policy = "sampling"
    else:
        policy = "greedy"
    sol = solve_instance(inst, params, mc, policy=policy,
                         pomo_size=args.pomo or None,   # --pomo 0: off
                         **_given(args, "samples", "seed"))
    text = sol.to_json(inst)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text)
    return 0


def cmd_verify(args) -> int:
    inst = _read_instance(args.instance)
    doc = _read_json(args.solution, "solution")
    if not isinstance(doc, dict) or not {"actions", "cost"} <= doc.keys():
        raise SystemExit(f"solution {args.solution} must be a JSON object "
                         f"with 'actions' and 'cost'")
    try:
        sol = Solution(actions=list(doc["actions"]), cost=float(doc["cost"]))
    except (TypeError, ValueError) as e:
        raise SystemExit(f"solution {args.solution} is malformed: {e}")
    report = validate_solution(inst, sol)
    if report.ok:
        print("OK")
        return 0
    for family, idx in report.violations:
        print(f"VIOLATION {family} at {idx}")
    return 1


def cmd_oracle(args) -> int:
    inst = _read_instance(args.instance)
    limits = OracleLimits(**_given(args, "max_customers", "max_optional",
                                   "optional_per_route"))
    res = brute_force(inst, limits)
    doc = json.dumps({"optimal_cost": res.optimal_cost,
                      "actions": [int(a) for a in res.optimal_solution.actions],
                      "nodes_expanded": res.nodes_expanded,
                      "proven": res.proven})
    if args.out:
        Path(args.out).write_text(doc, encoding="utf-8")
    print(doc)
    return 0


def cmd_bench(args) -> int:
    params, mc = _load_checkpoint(args.checkpoint)
    report = bench(args.dataset, params, mc,
                   **_given(args, "policy", "reference", "reference_file",
                            "seed"))
    if args.omit_times:
        # reproducibility mode: identical reruns give identical bytes
        for r in report.rows:
            r.wall_time = 0.0
        report.total_time = 0.0
    if args.out:
        Path(str(args.out) + ".csv").write_text(report.to_csv(),
                                                encoding="utf-8")
        Path(str(args.out) + ".json").write_text(report.to_json(),
                                                 encoding="utf-8")
    print(report.to_csv(), end="")
    return 0


def cmd_cpa_stats(args) -> int:
    rows = cpa_profile(args.n, args.m, args.rounds, args.smoothing,
                       **_given(args, "seed"))
    print("n,dense_pairs,cpa_pairs,cpa_pairs_with_depot,reduction_pct")
    for r in rows:
        print(f"{r.n},{r.dense_pairs},{r.cpa_pairs},"
              f"{r.cpa_pairs_with_depot},{r.reduction_pct:.2f}")
    return 0


def cmd_model_info(args) -> int:
    mc = _model_config(args.model, args.variant)
    counts = param_count(init_params(mc))
    total = counts["total"]
    for name in sorted(k for k in counts if k != "total"):
        share = 100.0 * counts[name] / total
        print(f"{name:8s} {counts[name]:>10,d}  {share:5.2f}%")
    print(f"{'total':8s} {total:>10,d}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="neurovrp",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    p.set_defaults(commands=sub.choices)

    def add(name, fn, flags):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON object of flag dests to values")
        actions = [sp.add_argument(flag, **kw) for flag, kw in flags.items()]
        sp.set_defaults(fn=fn, flags={a.dest: a for a in actions})

    variants = [v.value for v in Variant]
    add("gen", cmd_gen, {
        "--variant": {"choices": variants, "default": "VRP"},
        "--n": {"type": int, "default": 20}, "--seed": {"type": int},
        "--count": {"type": int, "default": 1}, "--out": {"default": "."},
        "--stations": {"type": int}, "--stops": {"type": int}})
    add("train", cmd_train, {
        "--variant": {"choices": variants}, "--n": {"type": int},
        "--epochs": {"type": int}, "--seed": {"type": int},
        "--out": {"default": "model.ckpt"}, "--metrics": {},
        "--batches": {"type": int},
        "--batch-size": {"type": int, "dest": "batch_size"},
        "--pomo": {"type": int}, "--lr": {"type": float},
        "--model": {"default": "toy"}})
    add("solve", cmd_solve, {
        "--instance": {"required": True}, "--checkpoint": {"required": True},
        "--pomo": {"type": int}, "--augment": {"action": "store_true"},
        "--mode": {"choices": ["greedy", "sample"]},
        "--samples": {"type": int}, "--seed": {"type": int}, "--out": {}})
    add("verify", cmd_verify, {
        "--instance": {"required": True}, "--solution": {"required": True}})
    add("oracle", cmd_oracle, {
        "--instance": {"required": True}, "--out": {},
        "--max-customers": {"type": int, "dest": "max_customers"},
        "--max-optional": {"type": int, "dest": "max_optional"},
        "--optional-per-route": {"type": int, "dest": "optional_per_route"}})
    add("bench", cmd_bench, {
        "--dataset": {"required": True}, "--checkpoint": {"required": True},
        "--policy": {"choices": ["greedy", "sampling", "pomo", "pomo-aug"]},
        "--reference": {"choices": ["oracle", "file"]},
        "--reference-file": {"dest": "reference_file"},
        "--seed": {"type": int}, "--out": {},
        "--omit-times": {"action": "store_true", "dest": "omit_times"}})
    add("cpa-stats", cmd_cpa_stats, {
        "--n": {"type": int, "nargs": "+", "default": [50, 100, 500, 1000]},
        "--m": {"type": int, "default": 20},
        "--rounds": {"type": int, "default": 1},
        "--smoothing": {"action": "store_true"}, "--seed": {"type": int}})
    add("model-info", cmd_model_info, {
        "--model": {"default": "full"}, "--variant": {"choices": variants}})
    return p


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # --config is read before the full parse, so that a config file can
    # supply required flags too
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    config = pre.parse_known_args(argv[1:])[0].config
    commands = parser.get_default("commands")
    if config and argv[0] in commands:
        # config values go in as flags ahead of the real ones, which win
        flags = commands[argv[0]].get_default("flags")
        argv = argv[:1] + _config_argv(flags, config) + argv[1:]
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
