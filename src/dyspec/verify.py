"""Tree verification by multi-branch rejection sampling.

Starting at the prompt position, the branches sampled there are tested in
sampling order: branch ``y`` is accepted when a uniform draw falls below
``min(1, R[y]/D[y])``, where ``R`` starts as the target distribution and
``D`` as the position's original draft distribution.  Each rejection folds
the draft mass out of both: ``R <- norm(relu(R - D))`` and ``D`` drops the
rejected token, becoming the stored draft residual the next branch was
drawn from.  An accepted branch descends the walk to its node; the walk
stops at the first position where no branch survives, and a corrective
token is drawn from the final ``R`` there.

A bonus token is always emitted: from the residual at the stopping
position, which is the raw target distribution when nothing there was
rejected (a leaf has no branches to reject).  This guarantees at least one
token per verification pass and is counted in the accepted-per-step metric
(recorded as ``accepted_includes_bonus`` in all run outputs, since it
shifts that metric by one).

Only the uniforms are random: a position's thresholds, folds and bonus row
are fixed by its target row and draft chain.  So :func:`verify_tree` keeps
``tree.verify_memo[owner] = [target row, [(threshold, draft prob) per tested
branch], [target fold after each rejection], (bonus row, its CDF) or None]``,
filled only as far as walks reach, and replaces it whole when the row read
there is another object (``is``, not ``==``); the bonus entry checks its own
row, which may be the target row or a fold.  A tree verified many times (the
expectation oracle) folds each position and cumsums each bonus row once.
:func:`true_branch_acceptance` and :func:`replay_trace` never read the memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import count
from typing import Callable, Dict, List, Mapping, Optional

from .categorical import Categorical, _cumsum, remove_and_renorm, residual_target, sample
from .rng import keyed_uniforms
from .token_tree import ROOT, TokenTree


class VerificationError(RuntimeError):
    """Verification broke an invariant that exact rejection sampling keeps."""


@dataclass(slots=True)
class BranchTrace:
    """One accept/reject decision on a sampled branch."""

    node_id: int
    accepted: bool
    uniform: float
    threshold: float
    draft_prob: float


@dataclass(slots=True)
class VerifyResult:
    """Accepted root-to-node path, bonus token and its uniform, per-branch trace."""

    accepted: List[int]
    accepted_node_ids: List[int]
    bonus_token: int
    bonus_from_residual: bool
    trace: List[BranchTrace]
    bonus_uniform: float

    @property
    def num_accepted(self) -> int:
        """Tokens emitted this pass, bonus included."""
        return len(self.accepted)


def verify_tree(
    tree: TokenTree,
    target_dists: Mapping[int, Categorical],
    seed: int,
    *,
    uniform_fn: Optional[Callable[[], float]] = None,
) -> VerifyResult:
    """Walk the tree accepting or rejecting branches; always emits a bonus.

    ``target_dists`` must cover every position the walk can visit: the
    prompt position and the position of every node (accepted leaves sample
    their bonus there); only visited ones are read, once each, and a missing
    one raises the mapping's own ``KeyError``.  Uniform draws are keyed by
    ``seed`` in visit order, so results are reproducible.  Each visited
    position reads and fills its memo (see the module docstring).
    """
    if uniform_fn is None:
        uniform_fn = map(keyed_uniforms(seed, "verify", ()), count()).__next__

    accepted_tokens: List[int] = []
    accepted_ids: List[int] = []
    trace: List[BranchTrace] = []
    owner = ROOT

    while True:
        target = target_dists[owner]
        memo = tree.verify_memo.get(owner)
        if memo is None or memo[0] is not target:
            memo = tree.verify_memo[owner] = [target, [], [], None]
        state = tree.positions.get(owner)
        if state is None or not state.node_ids:
            row, from_residual = target, False
            break
        _, tests, folds, _ = memo
        residual = target
        for k, node_id in enumerate(state.node_ids):
            if k == len(tests):
                # Branch k was drawn from draft residual k, always in the
                # chain; only a position's last sampling can exhaust it, so
                # no draft here is zero.
                token = state.sampled[k]
                d_prob = float(state.chain[k].probs[token])
                threshold = min(1.0, float(residual.probs[token]) / d_prob) if d_prob > 0 else 1.0
                tests.append((threshold, d_prob))
            else:
                threshold, d_prob = tests[k]
            u = uniform_fn()
            ok = u < threshold
            trace.append(BranchTrace(node_id, ok, u, threshold, d_prob))
            if ok:
                accepted_tokens.append(state.sampled[k])
                accepted_ids.append(node_id)
                owner = node_id
                break
            if k == len(folds):
                folds.append(residual_target(residual, state.chain[k]))
            residual = folds[k]
            # A rejection is only possible when R[y] < D[y] somewhere, so the
            # relu residual must retain mass; zero here means numerical drift
            # or a uniform outside [0, 1).
            if residual.is_zero:
                raise VerificationError(f"target residual vanished after rejecting node {node_id}")
        else:
            row, from_residual = residual, True
            break
    u = uniform_fn()
    kept = memo[3]
    if kept is None or kept[0] is not row:
        kept = memo[3] = (row, _cumsum(row.probs).tolist())
    bonus = sample(row, u, kept[1])
    accepted_tokens.append(bonus)
    return VerifyResult(accepted_tokens, accepted_ids, bonus, from_residual, trace, u)


def true_branch_acceptance(
    tree: TokenTree, target_dists: Mapping[int, Categorical]
) -> Dict[int, float]:
    """Exact per-branch acceptance probability given the branch is tested.

    Replays the deterministic residual evolution of :func:`verify_tree` at
    every position: the k-th branch is tested only after branches 1..k-1
    were rejected, and by then both distributions have been folded the same
    way regardless of the uniforms drawn.
    """
    probs: Dict[int, float] = {}
    for owner, state in tree.positions.items():
        if not state.node_ids:
            continue
        draft = state.draft_full
        residual = target_dists[owner]
        for k, (node_id, token) in enumerate(zip(state.node_ids, state.sampled)):
            d_prob = draft[token]
            probs[node_id] = min(1.0, residual[token] / d_prob) if d_prob > 0 else 1.0
            residual = residual_target(residual, draft)
            draft = remove_and_renorm(draft, token)
            if residual.is_zero:
                # R <= D, so R == D: branch k passes and later siblings, which
                # the greedy walk samples when draft equals target, go untested.
                for later in state.node_ids[k + 1 :]:
                    probs[later] = 0.0
                break
    return probs


def replay_trace(
    tree: TokenTree, target_dists: Mapping[int, Categorical], result: VerifyResult
) -> bool:
    """Recompute every trace threshold and the bonus from scratch; True when all match."""
    expected = true_branch_acceptance(tree, target_dists)
    owner = result.accepted_node_ids[-1] if result.accepted_node_ids else ROOT
    state = tree.positions.get(owner)
    drafts = state.chain[: len(state.sampled)] if state is not None else []
    row = reduce(residual_target, drafts, target_dists[owner])
    if result.bonus_from_residual != bool(drafts) or row.is_zero:
        return False
    return sample(row, result.bonus_uniform) == result.bonus_token and all(
        abs(expected[t.node_id] - t.threshold) <= 1e-12
        and t.accepted == (t.uniform < t.threshold)
        for t in result.trace
    )
