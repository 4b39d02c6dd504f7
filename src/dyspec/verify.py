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

Only the uniforms are random: a position's thresholds and folds are fixed
by its target row and draft chain.  :func:`verify_tree` keeps them on the
position, keyed by the identity of the target row object it read, so a
tree verified many times (the expectation oracle) folds each position once.
:func:`true_branch_acceptance` and :func:`replay_trace` fold from scratch
and never read that memo, so they stay an independent check of the walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable, Dict, List, Mapping, Optional

from .categorical import Categorical, remove_and_renorm, residual_target, sample
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
    """Accepted root-to-node path, bonus token, and per-branch trace."""

    accepted: List[int]
    accepted_node_ids: List[int]
    bonus_token: int
    bonus_from_residual: bool
    trace: List[BranchTrace]

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
    their bonus there); only visited ones are read, once each.  Uniform
    draws are keyed by ``seed`` in visit order, so results are reproducible.

    Thresholds and target folds are kept on the position
    (``PositionState.verdicts``) for the target row object read there
    (``is``, not ``==``), filled only as far as rejections reach.
    """
    if uniform_fn is None:
        uniform_fn = map(keyed_uniforms(seed, "verify", ()), count()).__next__

    accepted_tokens: List[int] = []
    accepted_ids: List[int] = []
    trace: List[BranchTrace] = []
    owner = ROOT

    while True:
        target = target_dists.get(owner)
        if target is None:
            raise KeyError(f"missing target distribution for position {owner}")
        state = tree.positions.get(owner)
        node_ids = state.node_ids if state is not None else ()
        if node_ids:
            memo = state.verdicts
            if memo is None or memo[0] is not target:
                memo = state.verdicts = (target, [], [])
            _, tests, folds = memo
        residual = target
        for k, node_id in enumerate(node_ids):
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
            bonus = sample(residual, uniform_fn())
            accepted_tokens.append(bonus)
            return VerifyResult(accepted_tokens, accepted_ids, bonus, bool(node_ids), trace)


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
        target = target_dists.get(owner)
        if target is None:
            raise KeyError(f"missing target distribution for position {owner}")
        draft = state.draft_full
        residual = target
        for k, (node_id, token) in enumerate(zip(state.node_ids, state.sampled)):
            d_prob = draft[token]
            probs[node_id] = min(1.0, residual[token] / d_prob) if d_prob > 0 else 1.0
            residual = residual_target(residual, draft)
            draft = remove_and_renorm(draft, token)
            if residual.is_zero or draft.is_zero:
                # Remaining branches (none exist in well-formed trees) would
                # never be tested.
                for later in state.node_ids[k + 1 :]:
                    probs[later] = 0.0
                break
    return probs


def replay_trace(
    tree: TokenTree, target_dists: Mapping[int, Categorical], result: VerifyResult
) -> bool:
    """Recompute every trace threshold from scratch; True when all match."""
    expected = true_branch_acceptance(tree, target_dists)
    return all(
        abs(expected[t.node_id] - t.threshold) <= 1e-12
        and t.accepted == (t.uniform < t.threshold)
        for t in result.trace
    )
