"""The four benchmark workloads.

Each workload is built from a seed, hands out ``ops`` op inputs by index,
runs one op on an input (the only timed part), checks the op's output, and
reduces the outputs of all its inputs to figures that are deterministic per
seed.  Inputs depend on the seed and the op index alone, so every run with
a seed, timed or traced, makes the same ops.

Class attributes tell the harness how to drive a workload: ``generation``
(its op calls ``generate``, so step outcomes are captured for the checks),
``vocab`` (for the computed ``categorical.bytes_copied``), ``check_batch``
(outputs checked together, so short ops run back to back) and
``speed_kernel`` (the reference kernel whose work the op resembles).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class GenInput:
    """The request's own prompt (paper-b64) or the spec of a fresh pair (bench-cold)."""

    prompt: Optional[List[int]]
    config: object
    spec: object = None


@dataclass
class GenOutput:
    tokens: List[int]
    metrics: object
    steps: List[Tuple[int, object]]
    prompt: List[int]
    target: object


def _digest(items: Sequence) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, separators=(",", ":")).encode())
    return h.hexdigest()[:16]


class Generation:
    """Shared by the workloads whose op is one ``generate`` call."""

    generation = True
    vocab = 64
    check_batch = 1
    speed_kernel = "python"

    def __init__(self, dy):
        self.dy = dy
        # generate_step outcomes of the running op, filled by the capture
        # wrapper that run.py installs.
        self.sink: List[Tuple[int, object]] = []
        self.costs = dy["construct"].CostParams()

    def check(self, inp: GenInput, out: GenOutput) -> List[str]:
        config = inp.config
        problems = []
        if len(out.tokens) != config.gen_len:
            problems.append(f"{len(out.tokens)} tokens, expected {config.gen_len}")
        if len(out.metrics.steps) != len(out.steps):
            problems.append("step metrics do not match the captured steps")
        stream = list(out.prompt)
        for k, (ctx_len, outcome) in enumerate(out.steps):
            if ctx_len != len(stream):
                problems.append(f"step {k}: context length {ctx_len}, expected {len(stream)}")
                break
            problems += self._check_step(k, stream, outcome, config.target_temp, out.target)
            if k < len(out.metrics.steps) and out.metrics.steps[k].accepted != outcome.result.num_accepted:
                problems.append(f"step {k}: metrics disagree with the verify result")
            stream.extend(outcome.result.accepted)
        emitted = stream[config.prefix_len:config.prefix_len + config.gen_len]
        if emitted != list(out.tokens):
            problems.append("returned tokens differ from the verified steps")
        return problems

    def _check_step(self, k, context, outcome, temp, target) -> List[str]:
        dy = self.dy
        ROOT = dy["token_tree"].ROOT
        softmax = dy["categorical"].softmax_with_temperature
        tree, result = outcome.tree, outcome.result
        # Target distributions recomputed from the model's logits, bypassing
        # the dist cache and target_distributions_for_tree.
        dists = {ROOT: softmax(target.next_logits(context), temp)}
        paths: Dict[int, List[int]] = {ROOT: []}
        for node in tree.nodes:
            paths[node.node_id] = paths[node.parent] + [node.token]
            dists[node.node_id] = softmax(target.next_logits(context + paths[node.node_id]), temp)
        problems = []
        if not dy["verify"].replay_trace(tree, dists, result):
            problems.append(f"step {k}: replay_trace failed")
        try:
            tree.check_residuals()
        except AssertionError as exc:
            problems.append(f"step {k}: {exc}")
        ids = result.accepted_node_ids
        if (
            len(result.accepted) != len(ids) + 1
            or result.accepted[-1] != result.bonus_token
            or any(tree.nodes[n].parent != p for n, p in zip(ids, [ROOT] + ids[:-1]))
            or [tree.nodes[n].token for n in ids] != result.accepted[:-1]
        ):
            problems.append(f"step {k}: accepted tokens do not follow a tree path")
        return problems

    def record(self, inp: GenInput, out: GenOutput) -> dict:
        steps = out.metrics.steps
        return {
            "tokens": list(out.tokens),
            "steps": [(s.tree_size, s.accepted) for s in steps],
            "accepted": sum(s.accepted for s in steps),
            "num_steps": len(steps),
            "modeled_cost": sum(s.modeled_latency * s.accepted for s in steps),
        }

    def emitted(self, out: GenOutput) -> int:
        return sum(s.accepted for s in out.metrics.steps)

    def summary(self, records: List[dict]) -> dict:
        accepted = sum(r["accepted"] for r in records)
        return {
            "accepted_per_step": accepted / sum(r["num_steps"] for r in records),
            "modeled_tokens_per_s": accepted / sum(r["modeled_cost"] for r in records),
            "digest": _digest([[r["tokens"], r["steps"]] for r in records]),
        }


class PaperB64(Generation):
    """The paper setting: one warm shared pair, DySpec greedy at budget 64."""

    name = "paper-b64"

    def __init__(self, dy, seed: int, tiny: bool = False):
        super().__init__(dy)
        lm, engine, rng = dy["lm"], dy["engine"], dy["rng"]
        self.ops = 4 if tiny else 48
        self.length = 8 if tiny else 64
        self.budget = 8 if tiny else 64
        self.seed = seed
        spec = lm.ModelPairSpec(target_seed=rng.derive_seed(seed, "paper-b64-model"))
        self.target, self.draft = lm.make_model_pair(spec)
        # Warm-up: fill the Markov-row and draft-noise tables for every
        # context the order-2 model can see, so no op generates rows.
        vocab = spec.vocab_size
        for a in range(vocab):
            for b in range(vocab):
                self.draft.next_logits([a, b])
        prompt_model = self.target.with_temperature(1.0)
        self.prompts = [
            engine.make_prompt(prompt_model, self.length, rng.derive_seed(seed, "paper-b64-prompt", j))
            for j in range(self.ops)
        ]

    def input(self, i: int) -> GenInput:
        config = self.dy["engine"].GenConfig(
            prefix_len=self.length,
            gen_len=self.length,
            budget=self.budget,
            target_temp=(0.0, 0.6)[i % 2],
            draft_temp=0.6,
            seed=self.dy["rng"].derive_seed(self.seed, "paper-b64-request", i),
        )
        return GenInput(self.prompts[i], config)

    def op(self, inp: GenInput) -> GenOutput:
        self.sink.clear()
        tokens, metrics = self.dy["engine"].generate(self.target, self.draft, inp.prompt, inp.config, self.costs)
        return GenOutput(tokens, metrics, list(self.sink), inp.prompt, self.target)


# GenConfig fields of the bench-cold shapes, full size and tiny.
COLD_SHAPES = (
    {"budget": 64},
    {"threshold": 0.02, "size_cap": 256},
    {"budget": 64, "structure": "chain"},
    {"budget": 64, "structure": "k_chains", "k": 4},
    {"budget": 64, "structure": "static_tree", "branching": (4, 2, 2, 2)},
)
TINY_COLD_SHAPES = (
    {"budget": 8},
    {"threshold": 0.2, "size_cap": 16},
    {"budget": 8, "structure": "chain"},
    {"budget": 8, "structure": "k_chains", "k": 2},
    {"budget": 8, "structure": "static_tree", "branching": (2, 2)},
)


class BenchCold(Generation):
    """``dyspec bench`` traffic: a fresh pair, prompt and generate per op."""

    name = "bench-cold"

    def __init__(self, dy, seed: int, tiny: bool = False):
        super().__init__(dy)
        self.shapes = TINY_COLD_SHAPES if tiny else COLD_SHAPES
        self.ops = 2 * len(self.shapes) * (1 if tiny else 5)
        self.length = 8 if tiny else 64
        self.seed = seed

    def input(self, i: int) -> GenInput:
        dy = self.dy
        temp = (0.0, 0.6)[i % 2]
        fields = self.shapes[(i // 2) % len(self.shapes)]
        spec = dy["lm"].ModelPairSpec(
            target_seed=dy["rng"].derive_seed(self.seed, "bench-cold-model", i), target_temp=temp
        )
        config = dy["engine"].GenConfig(
            prefix_len=self.length,
            gen_len=self.length,
            target_temp=temp,
            draft_temp=spec.draft_temp,
            seed=dy["rng"].derive_seed(self.seed, "bench-cold-request", i),
            **fields,
        )
        return GenInput(None, config, spec=spec)

    def op(self, inp: GenInput) -> GenOutput:
        dy = self.dy
        self.sink.clear()
        target, draft = dy["lm"].make_model_pair(inp.spec)
        prompt = dy["engine"].make_prompt(target.with_temperature(1.0), inp.config.prefix_len, inp.config.seed)
        tokens, metrics = dy["engine"].generate(target, draft, prompt, inp.config, self.costs)
        return GenOutput(tokens, metrics, list(self.sink), prompt, target)


@dataclass
class VerifyConfig:
    tree: object
    dists: dict
    expected: float
    mc_seed: int


class McVerify:
    """Expectation-oracle traffic: one ``verify_tree`` call per op."""

    name = "mc-verify"
    generation = False
    vocab = 8
    check_batch = 1024
    speed_kernel = "python"

    def __init__(self, dy, seed: int, tiny: bool = False):
        self.dy = dy
        lm, engine, construct, verify, rng = (dy[m] for m in ("lm", "engine", "construct", "verify", "rng"))
        self.ops = 256 if tiny else 16384
        self.configs: List[VerifyConfig] = []
        for i in range(4 if tiny else 512):
            spec = lm.ModelPairSpec(
                vocab_size=8,
                markov_order=1,
                target_seed=rng.derive_seed(seed, "expect-model", i),
                noise_sigma=1.0,
                concentration=0.5,
                entropy_spread=1.0,
            )
            target, draft = lm.make_model_pair(spec)
            target = target.with_temperature(spec.target_temp)
            prompt = engine.make_prompt(target.with_temperature(1.0), 4, rng.derive_seed(seed, "expect-prompt", i))
            tree = construct.build_tree_fixed(draft, prompt, 6, rng.derive_seed(seed, "expect-tree", i))
            dists = lm.target_distributions_for_tree(target, prompt, tree)
            expected = construct.expected_accepted(tree, verify.true_branch_acceptance(tree, dists))
            self.configs.append(VerifyConfig(tree, dists, expected, rng.derive_seed(seed, "expect-mc", i)))
        self.costs = construct.CostParams()
        # Per config: trials, sum and sum of squares of accepted branches.
        self.moments = [[0, 0, 0] for _ in self.configs]

    def input(self, i: int) -> Tuple[int, int]:
        return i % len(self.configs), i // len(self.configs)

    def op(self, inp: Tuple[int, int]):
        cfg = self.configs[inp[0]]
        return self.dy["verify"].verify_tree(cfg.tree, cfg.dists, self.dy["rng"].derive_seed(cfg.mc_seed, "mc-verify", inp[1]))

    def check(self, inp, result) -> List[str]:
        cfg = self.configs[inp[0]]
        n = len(result.accepted_node_ids)
        m = self.moments[inp[0]]
        m[0] += 1
        m[1] += n
        m[2] += n * n
        if not self.dy["verify"].replay_trace(cfg.tree, cfg.dists, result):
            return ["replay_trace failed"]
        return []

    def record(self, inp, result) -> dict:
        return {"config": inp[0], "ids": list(result.accepted_node_ids), "bonus": result.bonus_token}

    def emitted(self, result) -> int:
        return result.num_accepted

    def summary(self, records: List[dict]) -> dict:
        estimate = self.dy["construct"].estimate_latency
        accepted = cost = 0
        for r in records:
            tree = self.configs[r["config"]].tree
            n = len(r["ids"]) + 1
            accepted += n
            cost += estimate(len(tree), tree.depth(), n, self.costs) * n
        return {
            "accepted_per_step": accepted / len(records),
            "modeled_tokens_per_s": accepted / cost,
            "digest": _digest([[r["ids"], r["bonus"]] for r in records]),
        }

    def z_scores(self) -> Tuple[float, float]:
        """Combined and worst per-config z of the Monte Carlo mean.

        Compares accepted branches (bonus excluded) with the closed-form
        ``expected_accepted`` of each config.  Informational only.
        """
        num, var_sum, worst = 0.0, 0.0, 0.0
        for cfg, (t, s, sq) in zip(self.configs, self.moments):
            if t < 2:
                continue
            mean = s / t
            var = max(sq / t - mean * mean, 0.0)
            num += t * (mean - cfg.expected)
            var_sum += t * var
            if var > 0:
                worst = max(worst, abs(mean - cfg.expected) / (var / t) ** 0.5)
        return (num / var_sum ** 0.5 if var_sum > 0 else 0.0), worst


@dataclass
class MaskOutput:
    orders: Dict[str, List[int]]
    masks: Dict[str, object]
    blocks: Dict[str, int]


class Mask2048:
    """``dyspec mask`` traffic: one random 2048-node tree in three orders."""

    name = "mask-2048"
    generation = False
    vocab = 0
    check_batch = 1
    speed_kernel = "memory"

    def __init__(self, dy, seed: int, tiny: bool = False):
        self.dy = dy
        self.seed = seed
        self.n = 96 if tiny else 2048
        self.block = 32
        self.ops = 2 if tiny else 32

    def input(self, i: int) -> List[int]:
        return self.dy["mask_opt"].random_tree(self.n, self.dy["rng"].derive_seed(self.seed, "mask", i))

    def op(self, parents: List[int]) -> MaskOutput:
        mo = self.dy["mask_opt"]
        orders = {"dfs": mo.dfs_order(parents), "hpd": mo.hpd_order(parents)}
        masks = {"original": mo.mask_from_tree(parents, 0)}
        for name, order in orders.items():
            masks[name] = mo.apply_permutation(parents, order, 0)
        blocks = {name: mo.count_nonzero_blocks(m, self.block) for name, m in masks.items()}
        return MaskOutput(orders, masks, blocks)

    def check(self, parents: List[int], out: MaskOutput) -> List[str]:
        import numpy as np

        arr = np.asarray(parents)
        problems = [
            f"{name} order is not topological"
            for name, order in out.orders.items()
            if sorted(order) != list(range(len(parents))) or not self.dy["mask_opt"].is_topological(arr, order)
        ]
        # Each row marks the node and its ancestors: depth bits per node.
        depth = [0] * len(parents)
        for i, p in enumerate(parents):
            depth[i] = 1 if p < 0 else depth[p] + 1
        bits = {name: m.set_bit_count() for name, m in out.masks.items()}
        if set(bits.values()) != {sum(depth)}:
            problems.append(f"set bits {bits} differ from the depth sum {sum(depth)}")
        return problems

    def record(self, parents: List[int], out: MaskOutput) -> dict:
        return {"blocks": dict(out.blocks)}

    def emitted(self, out: MaskOutput) -> int:
        return 0

    def summary(self, records: List[dict]) -> dict:
        return {
            "mask_blocks_dfs": sum(r["blocks"]["dfs"] for r in records) / len(records),
            "digest": _digest([r["blocks"] for r in records]),
        }


WORKLOADS = {w.name: w for w in (PaperB64, BenchCold, McVerify, Mask2048)}
