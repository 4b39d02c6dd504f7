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
target's with --temps); the model pair takes them from there.  A sweep
of bench or mask may be neither empty nor repeat a value, and counts such
as --seeds must be at least 1.
oracle's --instances (default 1000) reaches every suite, its --trials
(default 20000) only unbiasedness and expectation; other suites exit 2.
Exit codes: 0 success, 1 a check suite failed, 2 usage or configuration
error.  Every command is deterministic for a fixed config and seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import mask_opt, oracle
from .config import RunConfig
from .construct import STRUCTURES, CostParams, build_tree_fixed
from .engine import (
    ConfigError,
    GenConfig,
    acceptance_vs_draft_bins,
    bin_rank_correlation,
    generate,
    make_prompt,
)
from .lm import LanguageModel, ModelPairSpec, make_model_pair
from .rng import derive_seed

ModelPair = Tuple[LanguageModel, LanguageModel]  # (target, draft)


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


class UsageError(Exception):
    """A flag value the command cannot run with; :func:`main` prints it after
    the command's name and exits 2."""


def _out_dir(args: argparse.Namespace, cfg: Optional[RunConfig] = None) -> Path:
    path = Path(args.out or (cfg.output_dir if cfg else None) or ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {path}: {exc.strerror}") from exc
    return path


def _write_csv(path: Path, rows: Sequence[Dict]) -> None:
    """Write ``rows``, dicts that share one key order, under a header of the
    first row's keys."""
    lines = [",".join(rows[0])]
    lines += [",".join(str(v) for v in row.values()) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def csv_list(cast):
    """argparse type for comma-separated ``cast`` values; empty elements are skipped."""

    def parse(text: str) -> list:
        return [cast(part) for part in text.split(",") if part != ""]

    parse.__name__ = f"comma-separated {cast.__name__}"  # argparse names it on error
    return parse


def _check_usage(checks, sweeps=None) -> None:
    """Raise :class:`UsageError` on the first failed ``(failed, message)``
    check, or on the first value a sweep flag repeats (it would run one cell
    twice)."""
    checks = list(checks) + [(True, f"{flag} repeats {value}")
                             for flag, values in (sweeps or {}).items()
                             for i, value in enumerate(values) if value in values[:i]]
    for failed, message in checks:
        if failed:
            raise UsageError(message)


# --------------------------------------------------------------------------
# generate
# --------------------------------------------------------------------------


def _run_single(pair: ModelPair, gen: GenConfig, costs: CostParams):
    target, draft = pair
    prompt = make_prompt(target, gen.prefix_len, gen.seed)
    return generate(target, draft, prompt, gen, costs)


def cmd_generate(args: argparse.Namespace) -> int:
    # generate has one flag per GenConfig field, with the field's name as dest.
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(GenConfig)}
    cfg = RunConfig.load(args.config or None, overrides, None, "generate")
    out = _out_dir(args, cfg)
    tokens, metrics = _run_single(make_model_pair(cfg.models), cfg.generation, cfg.costs)

    payload = metrics.to_dict()
    payload["models"] = dataclasses.asdict(cfg.models)
    payload["generated_tokens"] = tokens
    _write_json(out / "run_metrics.json", payload)
    _write_csv(out / "steps.csv", payload["steps"])
    print(
        f"generated {len(tokens)} tokens in {len(metrics.steps)} steps; "
        f"mean accepted/step {metrics.mean_accepted:.3f}; wrote {out}/run_metrics.json"
    )
    return 0


# --------------------------------------------------------------------------
# bench
# --------------------------------------------------------------------------


# Bench metric column -> the RunMetrics field it is the seed mean of (so
# latency_per_token is not 1/tokens_per_modeled_sec).
_BENCH_METRICS = {
    "mean_accepted": "mean_accepted",
    "mean_tree_size": "mean_tree_size",
    "latency_per_token": "latency_per_token",
    "tokens_per_modeled_sec": "tokens_per_modeled_second",
}


def _bench_cells(
    models: ModelPairSpec, costs: CostParams, seeds: int, cells: Sequence[GenConfig]
) -> List[Dict]:
    """One row per cell, each the seed mean of the cell run once per seed.

    All cells run on one pair and one prompt per seed (cells share
    ``prefix_len``), so tables, dists and prompts are made once.  A row's
    keys, in order, are the bench table's columns.
    """
    pair = make_model_pair(models)
    prompts = [make_prompt(pair[0], cells[0].prefix_len, seed) for seed in range(seeds)]
    rows = []
    for gen in cells:
        runs = [generate(*pair, prompt, dataclasses.replace(gen, seed=seed), costs)[1]
                for seed, prompt in enumerate(prompts)]
        threshold_mode = gen.threshold is not None
        # Each run's figures are finite, but their sum over seeds may not be.
        means = {column: sum(getattr(m, name) for m in runs) / seeds
                 for column, name in _BENCH_METRICS.items()}
        if not all(map(math.isfinite, means.values())):
            raise ConfigError(f"costs out of float range: seed means {means}")
        rows.append({
            "structure": gen.structure,
            "mode": "threshold" if threshold_mode else "budget",
            "budget": "" if threshold_mode else gen.budget,
            "threshold": gen.threshold if threshold_mode else "",
            "size_cap": gen.size_cap if threshold_mode else "",
            "target_temp": gen.target_temp,
            "seeds": seeds,
            **means,
        })
    return rows


# Shape flags with their defaults, each applied only to the cells that read
# it: --k to k_chains, --branching to static_tree, --size-cap to threshold.
_BENCH_SHAPES = {"k": 4, "branching": (4, 2, 2, 2), "size_cap": 768}


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = RunConfig.load(args.config or None, {}, BENCH_READS, "bench")
    structures, budgets, temps = args.structures, args.budgets, args.temps
    thresholds = args.thresholds
    checks = [
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
    # --branching is a shape, not a sweep: its entries may repeat.
    sweeps = {"--structures": structures, "--budgets": budgets,
              "--thresholds": thresholds, "--temps": temps}
    _check_usage(checks, sweeps)

    shape = {flag: _BENCH_SHAPES[flag] if getattr(args, flag) is None else getattr(args, flag)
             for flag in _BENCH_SHAPES}
    # Cells in the table's row order.
    cells = []
    for structure in sorted(structures):
        points = [("budget", b) for b in sorted(budgets)]
        if structure == "dynamic":
            points += [("threshold", c) for c in sorted(thresholds)]
        for mode, value in points:
            for temp in sorted(temps):
                try:
                    gen = dataclasses.replace(
                        cfg.generation,
                        structure=structure,
                        target_temp=temp,
                        budget=value if mode == "budget" else None,
                        threshold=value if mode == "threshold" else None,
                        size_cap=shape["size_cap"] if mode == "threshold" else None,
                        k=shape["k"] if structure == "k_chains" else None,
                        branching=tuple(shape["branching"]) if structure == "static_tree" else None,
                    )
                except ValueError as exc:
                    raise ConfigError(f"bench cell {structure} {mode}={value}: {exc}") from exc
                cells.append(gen)
    out = _out_dir(args, cfg)
    rows = _bench_cells(cfg.models, cfg.costs, args.seeds, cells)
    {"csv": _write_csv, "json": _write_json}[args.format](out / f"bench.{args.format}", rows)
    print(f"wrote {out}/bench.{args.format} ({len(rows)} cells)")
    return 0


# --------------------------------------------------------------------------
# oracle
# --------------------------------------------------------------------------

# Count flags with their defaults, and suite -> (count flags it reads,
# runner(seed, counts)).
_ORACLE_COUNTS = {"instances": 1000, "trials": 20000}
_SUITES = {
    "unbiasedness": (("instances", "trials"), lambda seed, n: [
        oracle.suite_unbiasedness_exact(instances=n["instances"], seed=seed),
        oracle.suite_unbiasedness_mc(trials=n["trials"], seed=seed)]),
    "optimality": (("instances",), lambda seed, n: [
        oracle.suite_optimality(instances=n["instances"], seed=seed)]),
    "expectation": (("instances", "trials"), lambda seed, n: [
        oracle.suite_expectation(configs=n["instances"], trials=n["trials"], seed=seed)]),
    "threshold-equivalence": (("instances",), lambda seed, n: [
        oracle.suite_threshold_equivalence(configs=n["instances"], seed=seed)]),
}


def cmd_oracle(args: argparse.Namespace) -> int:
    reads, runner = _SUITES.get(args.suite, ((), None))
    given = {flag: getattr(args, flag) for flag in _ORACLE_COUNTS}
    checks = [
        (runner is None,
         f"unknown suite {args.suite!r} (choose from {', '.join(sorted(_SUITES))})"),
        (args.seed < 0, "--seed must be >= 0"),
        (args.seed >= 2**63, "--seed must be < 2**63"),
    ] + [(True, f"--{flag} does not apply to suite {args.suite}")
         for flag, value in given.items() if value is not None and flag not in reads]
    _check_usage(checks)
    out = _out_dir(args)
    counts = {flag: _ORACLE_COUNTS[flag] if v is None else v for flag, v in given.items()}
    reports = runner(args.seed, counts)
    _write_json(out / "oracle_report.json", reports)
    ok = all(r["pass"] for r in reports)
    for r in reports:
        print(f"{'PASS' if r['pass'] else 'FAIL'} {r['suite']}")
    return 0 if ok else 1


# --------------------------------------------------------------------------
# mask
# --------------------------------------------------------------------------


def _mask_tree(generator: str, n: int, seed: int, pair: Optional[ModelPair]) -> List[int]:
    """Parent array of one tree; ``pair`` is the (target, draft) the
    ``constructed`` generator builds with, made once per run."""
    if generator == "random":
        return mask_opt.random_tree(n, seed)
    if generator == "chain":
        return [-1] + list(range(n - 1))
    target, draft = pair  # constructed
    return build_tree_fixed(draft, make_prompt(target, 16, seed), n, seed).parent_array()


# Node order -> the original node ids in their new positions.
_ORDERS = {
    "original": lambda parents: list(range(len(parents))),
    "dfs": mask_opt.dfs_order,
    "hpd": mask_opt.hpd_order,
}


def cmd_mask(args: argparse.Namespace) -> int:
    orders, sizes, prefixes = args.orders, args.sizes, args.prefixes
    checks = [
        (not sizes or not prefixes or not orders,
         "sweep needs at least one size, prefix, and order"),
        (any(n < 1 for n in sizes), "sizes must be >= 1"),
        (any(p < 0 for p in prefixes), "prefixes must be >= 0"),
    ] + [(True, f"unknown order {name!r}") for name in orders if name not in _ORDERS]
    sweeps = {"--sizes": sizes, "--prefixes": prefixes, "--orders": orders}
    _check_usage(checks, sweeps)
    cfg = RunConfig.load(args.config or None, {}, MASK_READS[args.generator],
                         f"mask --generator {args.generator}")
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
                cell = {"n": n, "prefix": prefix, "block": args.block, "order": order_name}
                for seed, parents in enumerate(trees):
                    order = permutations[order_name][seed]
                    mask = mask_opt.apply_permutation(parents, order, prefix)
                    count = mask_opt.count_nonzero_blocks(mask, args.block)
                    counts.append(count)
                    per_seed_rows.append({**cell, "count": count})
                    if args.dump_grids and seed == 0:
                        grid = out / f"mask_n{n}_p{prefix}_{order_name}.pbm"
                        grid.write_text(mask.to_pbm())
                mean = sum(counts) / len(counts)
                var = sum((c - mean) ** 2 for c in counts) / len(counts)
                agg_rows.append({**cell, "count_mean": mean, "count_std": var ** 0.5})

    _write_csv(out / "mask_counts.csv", agg_rows)
    if args.per_seed:
        _write_csv(out / "mask_counts_per_seed.csv", per_seed_rows)
    print(f"wrote {out}/mask_counts.csv ({len(agg_rows)} rows)")
    return 0


# --------------------------------------------------------------------------
# hypothesis
# --------------------------------------------------------------------------


def cmd_hypothesis(args: argparse.Namespace) -> int:
    cfg = RunConfig.load(args.config or None, {}, HYPOTHESIS_READS, "hypothesis")
    out = _out_dir(args, cfg)
    events = []
    run = 0
    while len(events) < args.min_events and run < args.max_runs:
        spec = dataclasses.replace(
            cfg.models, target_seed=derive_seed(cfg.models.target_seed, "hyp", run)
        )
        gen = dataclasses.replace(cfg.generation, seed=run)
        _, metrics = _run_single(make_model_pair(spec), gen, cfg.costs)
        events.extend(metrics.branch_events)
        run += 1

    rows = acceptance_vs_draft_bins(events, args.bins)
    rho = bin_rank_correlation(rows)
    _write_csv(out / "acceptance_bins.csv", [
        {"bin_lo": lo, "bin_hi": hi, "acc_rate": rate, "count": count}
        for lo, hi, rate, count in rows
    ])
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
    p.add_argument("--structure", choices=STRUCTURES)
    p.add_argument("--k", type=int)
    p.add_argument("--branching", type=csv_list(int), help="comma-separated static-tree branching")
    p.add_argument("--gen-len", dest="gen_len", type=int)
    p.add_argument("--prefix-len", dest="prefix_len", type=int)
    p.add_argument("--target-temp", dest="target_temp", type=float)
    p.add_argument("--draft-temp", dest="draft_temp", type=float)

    p = command("bench", "sweep structures x budgets x temps", cmd_bench)
    p.add_argument("--config", help="JSON run-config path")
    p.add_argument("--structures", type=csv_list(str), default=",".join(STRUCTURES))
    p.add_argument("--budgets", type=csv_list(int), default="64")
    p.add_argument("--thresholds", type=csv_list(float), default="",
                   help="dynamic-only threshold points")
    p.add_argument("--size-cap", dest="size_cap", type=int,
                   help=f"threshold cells only (default {_BENCH_SHAPES['size_cap']})")
    p.add_argument("--temps", type=csv_list(float), default="0.0,0.6")
    p.add_argument("--seeds", type=positive_int, default=3)
    p.add_argument("--k", type=int, help=f"k_chains only (default {_BENCH_SHAPES['k']})")
    p.add_argument("--branching", type=csv_list(int), help="static_tree only (default "
                   f"{','.join(map(str, _BENCH_SHAPES['branching']))})")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = command("oracle", "run a ground-truth check suite", cmd_oracle)
    p.add_argument("--seed", type=int, default=0, help="suite seed")
    p.add_argument("--suite", required=True)
    p.add_argument("--instances", type=positive_int,
                   help=f"default {_ORACLE_COUNTS['instances']}")
    p.add_argument("--trials", type=positive_int,
                   help=f"unbiasedness, expectation (default {_ORACLE_COUNTS['trials']})")

    p = command("mask", "block-occupancy of tree-attention masks", cmd_mask)
    p.add_argument("--config", help="JSON run-config path")
    p.add_argument("--sizes", type=csv_list(int), default="256")
    p.add_argument("--prefixes", type=csv_list(int), default="0")
    p.add_argument("--block", type=positive_int, default=32)
    p.add_argument("--orders", type=csv_list(str), default=",".join(_ORDERS))
    p.add_argument("--seeds", type=positive_int, default=20)
    p.add_argument("--generator", choices=tuple(MASK_READS), default="random")
    p.add_argument("--per-seed", dest="per_seed", action="store_true")
    p.add_argument("--dump-grids", dest="dump_grids", action="store_true")

    p = command("hypothesis", "acceptance rate vs draft probability", cmd_hypothesis)
    p.add_argument("--config", help="JSON run-config path")
    p.add_argument("--bins", type=positive_int, default=10)
    p.add_argument("--min-events", dest="min_events", type=positive_int, default=20000)
    p.add_argument("--max-runs", dest="max_runs", type=positive_int, default=2000)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
