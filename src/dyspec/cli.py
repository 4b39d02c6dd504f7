"""Command-line harness of the dyspec simulator.

Each command takes only the flags and config keys it reads; any other
flag or key exits 2.  Flags override config-file values, which override
defaults.  A config key is section.key, and a bare section name stands
for all of its keys.  Flags and config keys per command (--out, the
output directory, overrides output.dir):

  generate    --out --config --seed --budget --threshold --size-cap
              --structure --k --branching --gen-len --prefix-len
              --target-temp --draft-temp
              config: every key
  bench       --out --config --structures --budgets --thresholds
              --size-cap --temps --seeds --k --branching --format
              config: models, costs, output, generation.prefix_len,
              generation.gen_len and generation.draft_temp
  oracle      --out --seed --suite --instances --trials
              config: none
  mask        --out --config --sizes --prefixes --block --orders --seeds
              --generator --per-seed --dump-grids
              config: output; with --generator constructed also models
              and generation.draft_temp
  hypothesis  --out --config --bins --min-events --max-runs
              config: every key but generation.seed and costs

bench sweeps structures x budgets/thresholds x temperatures.  Its
--thresholds apply to dynamic, --k to k_chains, --branching to
static_tree and --size-cap to threshold cells; a sweep flag that reaches
no cell exits 2.  Temperatures are generation keys (bench sweeps the
target's with --temps); the model pair takes them from there.  Counts
such as --seeds must be at least 1.  Exit codes: 0 success, 1 a check
suite failed, 2 usage or configuration error.  DYSPEC_THREADS sets the
worker count of bench, capped by the CPU count and the number of cells;
every command is deterministic for a fixed config and seeds, regardless
of worker count.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import mask_opt, oracle
from .config import ConfigError, RunConfig
from .construct import CostParams, build_tree_fixed
from .engine import (
    GenConfig,
    acceptance_vs_draft_bins,
    bin_rank_correlation,
    generate,
    make_prompt,
)
from .lm import LanguageModel, ModelPairSpec, make_model_pair
from .rng import derive_seed

DEFAULT_CONFIG: Dict = {"models": {}}


def worker_count(jobs: int) -> int:
    """Workers for ``jobs`` tasks: DYSPEC_THREADS (default 1), capped by CPUs and jobs."""
    try:
        requested = int(os.environ.get("DYSPEC_THREADS", "1"))
    except ValueError:
        requested = 1
    return max(1, min(requested, os.cpu_count() or 1, jobs))


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _load_config(
    args: argparse.Namespace,
    overrides: Dict,
    reads: Optional[Sequence[str]] = None,
    command: Optional[str] = None,
) -> RunConfig:
    """The run config; a key outside ``reads`` (None: every key) exits 2."""
    command = command or args.command
    if args.config:
        return RunConfig.load(args.config, overrides, reads, command)
    return RunConfig.from_dict(dict(DEFAULT_CONFIG), overrides, reads, command)


def _out_dir(args: argparse.Namespace, cfg: Optional[RunConfig] = None) -> Path:
    out = args.out or (cfg.output_dir if cfg else None) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def csv_list(cast):
    """argparse type for comma-separated ``cast`` values; empty elements are skipped."""

    def parse(text: str) -> list:
        return [cast(part) for part in text.split(",") if part != ""]

    parse.__name__ = f"comma-separated {cast.__name__}"  # argparse names it on error
    return parse


# --------------------------------------------------------------------------
# generate
# --------------------------------------------------------------------------


def _run_single(models: ModelPairSpec, gen: GenConfig, costs: CostParams):
    target, draft = make_model_pair(models)
    prompt = make_prompt(target.with_temperature(1.0), gen.prefix_len, gen.seed)
    return generate(target, draft, prompt, gen, costs)


def cmd_generate(args: argparse.Namespace) -> int:
    # generate has one flag per GenConfig field, with the field's name as dest.
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(GenConfig)}
    cfg = _load_config(args, overrides)
    out = _out_dir(args, cfg)
    tokens, metrics = _run_single(cfg.models, cfg.generation, cfg.costs)

    payload = metrics.to_dict()
    payload["models"] = cfg.models.to_dict()
    payload["generated_tokens"] = tokens
    _write_json(out / "run_metrics.json", payload)
    _write_csv(
        out / "steps.csv",
        ["step", "tree_size", "tree_depth", "accepted", "modeled_latency"],
        [
            [s.step, s.tree_size, s.tree_depth, s.accepted, s.modeled_latency]
            for s in metrics.steps
        ],
    )
    print(
        f"generated {len(tokens)} tokens in {len(metrics.steps)} steps; "
        f"mean accepted/step {metrics.mean_accepted:.3f}; wrote {out}/run_metrics.json"
    )
    return 0


# --------------------------------------------------------------------------
# bench
# --------------------------------------------------------------------------


def _bench_cell(job: Tuple[ModelPairSpec, GenConfig, CostParams, int]) -> Dict:
    models, gen, costs, seeds = job
    accepted, sizes, latencies, rates = [], [], [], []
    for seed in range(seeds):
        _, metrics = _run_single(models, dataclasses.replace(gen, seed=seed), costs)
        accepted.append(metrics.mean_accepted)
        sizes.append(metrics.mean_tree_size)
        rates.append(metrics.tokens_per_modeled_second)
        total = sum(s.accepted for s in metrics.steps)
        cost = sum(s.modeled_latency * s.accepted for s in metrics.steps)
        latencies.append(cost / total)
    threshold_mode = gen.threshold is not None
    return {
        "structure": gen.structure,
        "mode": "threshold" if threshold_mode else "budget",
        "budget": "" if threshold_mode else gen.budget,
        "threshold": gen.threshold if threshold_mode else "",
        "size_cap": gen.size_cap if threshold_mode else "",
        "target_temp": gen.target_temp,
        "seeds": seeds,
        "mean_accepted": sum(accepted) / seeds,
        "mean_tree_size": sum(sizes) / seeds,
        "latency_per_token": sum(latencies) / seeds,
        "tokens_per_modeled_sec": sum(rates) / seeds,
    }


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = _load_config(args, {}, BENCH_READS)
    structures, budgets, temps = args.structures, args.budgets, args.temps
    thresholds = args.thresholds or []
    usage_errors = [
        (not structures or (not budgets and not thresholds) or not temps,
         "sweep needs at least one structure, budget/threshold, and temp"),
        (not budgets and any(s != "dynamic" for s in structures),
         "structures other than dynamic need --budgets"),
        (thresholds and "dynamic" not in structures, "--thresholds needs the dynamic structure"),
        (args.k is not None and "k_chains" not in structures, "--k needs the k_chains structure"),
        (args.branching is not None and "static_tree" not in structures,
         "--branching needs the static_tree structure"),
        (args.size_cap is not None and not thresholds, "--size-cap needs --thresholds"),
    ]
    for failed, message in usage_errors:
        if failed:
            print(f"bench: {message}", file=sys.stderr)
            return 2

    # The documented flag defaults, applied only to the cells that use them.
    k = 4 if args.k is None else args.k
    branching = (4, 2, 2, 2) if args.branching is None else tuple(args.branching)
    size_cap = 768 if args.size_cap is None else args.size_cap
    jobs = []
    for structure in structures:
        for temp in temps:
            points = [("budget", b) for b in budgets]
            if structure == "dynamic":
                points += [("threshold", c) for c in thresholds]
            for mode, value in points:
                try:
                    gen = dataclasses.replace(
                        cfg.generation,
                        structure=structure,
                        target_temp=temp,
                        budget=value if mode == "budget" else None,
                        threshold=value if mode == "threshold" else None,
                        size_cap=size_cap if mode == "threshold" else None,
                        k=k if structure == "k_chains" else None,
                        branching=branching if structure == "static_tree" else None,
                    )
                except ValueError as exc:
                    raise ConfigError(f"bench cell {structure} {mode}={value}: {exc}") from exc
                jobs.append((cfg.models, gen, cfg.costs, args.seeds))
    out = _out_dir(args, cfg)

    workers = worker_count(len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_bench_cell, jobs))
    else:
        rows = [_bench_cell(job) for job in jobs]
    rows.sort(key=lambda r: (r["structure"], r["mode"], str(r["budget"]),
                             str(r["threshold"]), r["target_temp"]))

    header = [
        "structure", "mode", "budget", "threshold", "size_cap", "target_temp",
        "seeds", "mean_accepted", "mean_tree_size", "latency_per_token",
        "tokens_per_modeled_sec",
    ]
    if args.format == "json":
        _write_json(out / "bench.json", rows)
        print(f"wrote {out}/bench.json ({len(rows)} cells)")
    else:
        _write_csv(out / "bench.csv", header, [[r[h] for h in header] for r in rows])
        print(f"wrote {out}/bench.csv ({len(rows)} cells)")
    return 0


# --------------------------------------------------------------------------
# oracle
# --------------------------------------------------------------------------

_SUITES = {
    "unbiasedness": lambda args: [
        oracle.suite_unbiasedness_exact(instances=args.instances, seed=args.seed),
        oracle.suite_unbiasedness_mc(trials=args.trials, seed=args.seed),
    ],
    "optimality": lambda args: [
        oracle.suite_optimality(instances=args.instances, seed=args.seed)
    ],
    "expectation": lambda args: [
        oracle.suite_expectation(
            configs=min(args.instances, 1000), trials=args.trials, seed=args.seed
        )
    ],
    "threshold-equivalence": lambda args: [
        oracle.suite_threshold_equivalence(configs=args.instances, seed=args.seed)
    ],
}


def cmd_oracle(args: argparse.Namespace) -> int:
    runner = _SUITES.get(args.suite)
    if runner is None:
        print(f"oracle: unknown suite {args.suite!r} "
              f"(choose from {', '.join(sorted(_SUITES))})", file=sys.stderr)
        return 2
    reports = runner(args)
    out = _out_dir(args)
    _write_json(out / "oracle_report.json", reports)
    ok = all(r["pass"] for r in reports)
    for r in reports:
        print(f"{'PASS' if r['pass'] else 'FAIL'} {r['suite']}")
    return 0 if ok else 1


# --------------------------------------------------------------------------
# mask
# --------------------------------------------------------------------------


def _mask_tree(
    generator: str, n: int, seed: int, pair: Optional[Tuple[LanguageModel, LanguageModel]]
) -> List[int]:
    """Parent array of one tree; ``pair`` is the (target, draft) the
    ``constructed`` generator builds with, made once per run."""
    if generator == "random":
        return mask_opt.random_tree(n, seed)
    if generator == "chain":
        return [-1] + list(range(n - 1))
    if generator == "constructed":
        target, draft = pair
        prompt = make_prompt(target.with_temperature(1.0), 16, seed)
        return build_tree_fixed(draft, prompt, n, seed).parent_array()
    raise ValueError(f"unknown tree generator {generator!r}")


# Node order -> the original node ids in their new positions.
_ORDERS = {
    "original": lambda parents: list(range(len(parents))),
    "dfs": mask_opt.dfs_order,
    "hpd": mask_opt.hpd_order,
}


def cmd_mask(args: argparse.Namespace) -> int:
    orders, sizes, prefixes = args.orders, args.sizes, args.prefixes
    if any(n < 1 for n in sizes):
        print("mask: sizes must be >= 1", file=sys.stderr)
        return 2
    if any(p < 0 for p in prefixes):
        print("mask: prefixes must be >= 0", file=sys.stderr)
        return 2
    unknown = [name for name in orders if name not in _ORDERS]
    if unknown:
        print(f"mask: unknown order {unknown[0]!r}", file=sys.stderr)
        return 2
    cfg = _load_config(args, {}, MASK_READS[args.generator], f"mask --generator {args.generator}")
    out = _out_dir(args, cfg)
    pair = make_model_pair(cfg.models) if args.generator == "constructed" else None

    per_seed_rows = []
    agg_rows = []
    for n in sizes:
        trees = [_mask_tree(args.generator, n, derive_seed(seed, "mask", n), pair)
                 for seed in range(args.seeds)]
        permutations = {name: [_ORDERS[name](parents) for parents in trees] for name in orders}
        for prefix in prefixes:
            for order_name in orders:
                counts = []
                for seed, parents in enumerate(trees):
                    order = permutations[order_name][seed]
                    mask = mask_opt.apply_permutation(parents, order, prefix)
                    count = mask_opt.count_nonzero_blocks(mask, args.block)
                    counts.append(count)
                    per_seed_rows.append([n, prefix, args.block, order_name, count])
                    if args.dump_grids and seed == 0:
                        grid = out / f"mask_n{n}_p{prefix}_{order_name}.pbm"
                        grid.write_text(mask.to_pbm())
                mean = sum(counts) / len(counts)
                var = sum((c - mean) ** 2 for c in counts) / len(counts)
                agg_rows.append(
                    [n, prefix, args.block, order_name, mean, var ** 0.5]
                )

    _write_csv(
        out / "mask_counts.csv",
        ["n", "prefix", "block", "order", "count_mean", "count_std"],
        agg_rows,
    )
    if args.per_seed:
        _write_csv(
            out / "mask_counts_per_seed.csv",
            ["n", "prefix", "block", "order", "count"],
            per_seed_rows,
        )
    print(f"wrote {out}/mask_counts.csv ({len(agg_rows)} rows)")
    return 0


# --------------------------------------------------------------------------
# hypothesis
# --------------------------------------------------------------------------


def cmd_hypothesis(args: argparse.Namespace) -> int:
    cfg = _load_config(args, {}, HYPOTHESIS_READS)
    out = _out_dir(args, cfg)
    events = []
    run = 0
    while len(events) < args.min_events and run < args.max_runs:
        spec = dataclasses.replace(
            cfg.models, target_seed=derive_seed(cfg.models.target_seed, "hyp", run)
        )
        _, metrics = _run_single(spec, dataclasses.replace(cfg.generation, seed=run), cfg.costs)
        events.extend(metrics.branch_events)
        run += 1
    if not events:
        print("hypothesis: no branch events collected", file=sys.stderr)
        return 2

    rows = acceptance_vs_draft_bins(events, args.bins)
    rho = bin_rank_correlation(rows)
    _write_csv(
        out / "acceptance_bins.csv",
        ["bin_lo", "bin_hi", "acc_rate", "count"],
        [[lo, hi, rate, count] for lo, hi, rate, count in rows],
    )
    _write_json(
        out / "hypothesis_stats.json",
        {"events": len(events), "runs": run, "bins": args.bins, "spearman": rho},
    )
    print(f"{len(events)} branch events over {run} runs; spearman={rho:.4f}")
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


# Config keys each command reads, as section names (every key of the
# section) and section.key names; any other key exits 2.  generate reads
# every key; mask's keys depend on --generator.
BENCH_READS = (
    "models", "costs", "output",
    "generation.prefix_len", "generation.gen_len", "generation.draft_temp",
)
HYPOTHESIS_READS = (
    "models", "output",
    *(f"generation.{f.name}" for f in dataclasses.fields(GenConfig) if f.name != "seed"),
)
MASK_READS = {
    "random": ("output",),
    "chain": ("output",),
    "constructed": ("models", "generation.draft_temp", "output"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyspec", formatter_class=argparse.RawDescriptionHelpFormatter, description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, func) -> argparse.ArgumentParser:
        # No prefix matching: a removed flag must not turn into a longer one.
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        p.add_argument("--out", help="output directory (default '.')")
        return p

    p = command("generate", "run one generation benchmark", cmd_generate)
    p.add_argument("--config", help="JSON run-config path")
    p.add_argument("--seed", type=int, help="run seed (overrides generation.seed)")
    p.add_argument("--budget", type=int)
    p.add_argument("--threshold", type=float)
    p.add_argument("--size-cap", dest="size_cap", type=int)
    p.add_argument("--structure", choices=("dynamic", "chain", "k_chains", "static_tree"))
    p.add_argument("--k", type=int)
    p.add_argument("--branching", type=csv_list(int), help="comma-separated static-tree branching")
    p.add_argument("--gen-len", dest="gen_len", type=int)
    p.add_argument("--prefix-len", dest="prefix_len", type=int)
    p.add_argument("--target-temp", dest="target_temp", type=float)
    p.add_argument("--draft-temp", dest="draft_temp", type=float)

    p = command("bench", "sweep structures x budgets x temps", cmd_bench)
    p.add_argument("--config", help="JSON run-config path")
    p.add_argument("--structures", type=csv_list(str), default="dynamic,chain,k_chains,static_tree")
    p.add_argument("--budgets", type=csv_list(int), default="64")
    p.add_argument("--thresholds", type=csv_list(float), help="dynamic-only threshold points")
    p.add_argument("--size-cap", dest="size_cap", type=int,
                   help="threshold cells only (default 768)")
    p.add_argument("--temps", type=csv_list(float), default="0.0,0.6")
    p.add_argument("--seeds", type=positive_int, default=3)
    p.add_argument("--k", type=int, help="k_chains only (default 4)")
    p.add_argument("--branching", type=csv_list(int), help="static_tree only (default 4,2,2,2)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = command("oracle", "run a ground-truth check suite", cmd_oracle)
    p.add_argument("--seed", type=int, default=0, help="suite seed")
    p.add_argument("--suite", required=True)
    p.add_argument("--instances", type=positive_int, default=1000)
    p.add_argument("--trials", type=positive_int, default=20000)

    p = command("mask", "block-occupancy of tree-attention masks", cmd_mask)
    p.add_argument("--config", help="JSON run-config path")
    p.add_argument("--sizes", type=csv_list(int), default="256")
    p.add_argument("--prefixes", type=csv_list(int), default="0")
    p.add_argument("--block", type=positive_int, default=32)
    p.add_argument("--orders", type=csv_list(str), default="original,dfs,hpd")
    p.add_argument("--seeds", type=positive_int, default=20)
    p.add_argument("--generator", choices=("random", "chain", "constructed"),
                   default="random")
    p.add_argument("--per-seed", dest="per_seed", action="store_true")
    p.add_argument("--dump-grids", dest="dump_grids", action="store_true")

    p = command("hypothesis", "acceptance rate vs draft probability", cmd_hypothesis)
    p.add_argument("--config", help="JSON run-config path")
    p.add_argument("--bins", type=positive_int, default=10)
    p.add_argument("--min-events", dest="min_events", type=int, default=20000)
    p.add_argument("--max-runs", dest="max_runs", type=int, default=2000)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
