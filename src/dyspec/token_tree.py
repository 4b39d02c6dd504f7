"""Speculative token tree.

Nodes record the order in which samplings happened: children of one parent
are successive samplings at the same position, and each position keeps the
chain of draft residuals its samplings were drawn from, starting at the
original draft distribution.  Construction, verification, and mask analysis
all operate on this structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .categorical import Categorical, remove_and_renorm

# Sentinel parent/owner id for the prompt position.
ROOT = -1

RESIDUAL_TOL = 1e-9


@dataclass(slots=True)
class TreeNode:
    """One sampled token.

    ``value`` is the estimated probability that this sampling slot is reached
    during verification (the value the construction walk sampled it at).
    """

    node_id: int
    parent: int
    token: int
    sibling_index: int
    depth: int
    value: float


@dataclass(slots=True)
class PositionState:
    """Sampling state at one tree position (owned by a node or ROOT).

    ``chain[k]`` is ``draft_full`` with the first k sampled tokens removed
    and renormalized: the k-th sampling was drawn from it.  The fold after
    the latest sampling waits for a read of :attr:`residual`, which makes
    the chain one entry longer than ``sampled``.

    ``verdicts`` is verification's memo for the target row it last read
    here: ``(row, [(threshold, draft prob) per branch], [target fold after
    each rejection])``; entry k depends only on the row and ``chain[:k+1]``.
    """

    owner: int
    draft_full: Categorical
    path: Tuple[int, ...]
    sampled: List[int] = field(default_factory=list)
    node_ids: List[int] = field(default_factory=list)
    chain: List[Categorical] = field(init=False)
    verdicts: Optional[Tuple[Categorical, List[Tuple[float, float]], List[Categorical]]] = field(
        default=None, init=False
    )

    def __post_init__(self):
        self.chain = [self.draft_full]

    @property
    def residual(self) -> Categorical:
        """Residual left after the tokens already drawn here."""
        chain = self.chain
        if len(chain) == len(self.sampled):
            chain.append(remove_and_renorm(chain[-1], self.sampled[-1]))
        return chain[-1]


class TokenTree:
    """Rooted tree of drafted tokens plus per-position sampling state."""

    def __init__(self):
        self.nodes: List[TreeNode] = []
        self.positions: Dict[int, PositionState] = {}

    def __len__(self) -> int:
        return len(self.nodes)

    def depth(self) -> int:
        return max((n.depth for n in self.nodes), default=0)

    def position_path(self, owner: int) -> Tuple[int, ...]:
        """Tokens leading to a position: its parent position's path plus the owner's token."""
        if owner == ROOT:
            return ()
        node = self.nodes[owner]
        return self.positions[node.parent].path + (node.token,)

    def open_position(
        self, owner: int, draft_full: Categorical, path: Optional[Tuple[int, ...]] = None
    ) -> PositionState:
        """Attach the draft distribution for the position owned by a node.

        ``path`` is :meth:`position_path` of ``owner``, when the caller has it.
        """
        state = self.positions.get(owner)
        if state is None:
            if path is None:
                path = self.position_path(owner)
            state = PositionState(owner=owner, draft_full=draft_full, path=path)
            self.positions[owner] = state
        return state

    def add_node(self, owner: int, token: int, value: float) -> int:
        """Append the next sampling at a position; returns the new node id.

        The position must be open and not exhausted, and a token may be
        sampled at most once per position, otherwise the residual bookkeeping
        (and verification) would break.  Construction draws from the
        residual's positive mass and appends through :meth:`append_sampled`.
        """
        state = self.positions[owner]
        if token in state.sampled:
            raise ValueError(f"token {token} already sampled at position {owner}")
        if state.residual.is_zero:
            raise ValueError(f"position {owner} is exhausted")
        return self.append_sampled(state, token, value)

    def append_sampled(self, state: PositionState, token: int, value: float) -> int:
        """:meth:`add_node` unchecked, for a token drawn from the residual."""
        node_id = len(self.nodes)
        owner = state.owner
        depth = 1 if owner == ROOT else self.nodes[owner].depth + 1
        self.nodes.append(TreeNode(node_id, owner, token, len(state.sampled), depth, value))
        state.sampled.append(token)
        state.node_ids.append(node_id)
        return node_id

    def ancestors(self, node_id: int) -> List[int]:
        """Path of node ids from the root level down to the node itself."""
        path = []
        cur = node_id
        while cur != ROOT:
            path.append(cur)
            cur = self.nodes[cur].parent
        path.reverse()
        return path

    def token_path(self, node_id: int) -> List[int]:
        return [self.nodes[i].token for i in self.ancestors(node_id)]

    def children(self, node_id: int) -> List[int]:
        state = self.positions.get(node_id)
        return list(state.node_ids) if state is not None else []

    def parent_array(self) -> List[int]:
        """Parent id per node (ROOT mapped to -1), in creation order."""
        return [n.parent for n in self.nodes]

    def check_residuals(self, tol: float = RESIDUAL_TOL) -> None:
        """Assert each stored residual equals draft_full folded over the samplings before it."""
        for state in self.positions.values():
            state.residual  # folds the pending entry, if any
            if len(state.chain) != len(state.sampled) + 1:
                raise AssertionError(f"residual chain length drifted at position {state.owner}")
            acc = state.draft_full
            for k, stored in enumerate(state.chain):
                if k:
                    acc = remove_and_renorm(acc, state.sampled[k - 1])
                if acc.is_zero != stored.is_zero:
                    raise AssertionError(f"residual flag drifted at position {state.owner}")
                if not acc.is_zero and np.max(np.abs(acc.probs - stored.probs)) > tol:
                    raise AssertionError(f"residual drifted at position {state.owner}")
