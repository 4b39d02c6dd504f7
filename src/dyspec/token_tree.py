"""Speculative token tree.

Nodes record the order in which samplings happened: children of one parent
are successive samplings at the same position, and each position keeps the
chain of draft residuals its samplings were drawn from, starting at the
original draft distribution.  Construction, verification, and mask analysis
all operate on this structure.
"""

from __future__ import annotations

from dataclasses import dataclass
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


class PositionState:
    """Sampling state at one tree position (owned by a node or ROOT).

    ``chain[k]`` is ``draft_full`` with the first k sampled tokens removed
    and renormalized: the k-th sampling was drawn from it.  The fold after
    the latest sampling waits for a read of :attr:`residual`, which makes
    the chain one entry longer than ``sampled``.
    """

    __slots__ = ("owner", "draft_full", "path", "sampled", "node_ids", "chain")

    def __init__(self, owner: int, draft_full: Categorical, path: Tuple[int, ...]):
        self.owner, self.draft_full, self.path = owner, draft_full, path
        self.sampled: List[int] = []
        self.node_ids: List[int] = []
        self.chain: List[Categorical] = [draft_full]

    @property
    def residual(self) -> Categorical:
        """Residual left after the tokens already drawn here."""
        chain = self.chain
        if len(chain) == len(self.sampled):
            chain.append(remove_and_renorm(chain[-1], self.sampled[-1]))
        return chain[-1]


class TokenTree:
    """Rooted tree of drafted tokens and per-position sampling state."""

    def __init__(self):
        self.nodes: List[TreeNode] = []
        self.positions: Dict[int, PositionState] = {}
        self.verify_memo: Dict[int, list] = {}  # owner -> verify_tree's memo there

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
        """Make and store the state of the position owned by a node, from its draft row.

        A position is opened once.  ``path`` is :meth:`position_path` of
        ``owner``, when the caller has it.
        """
        if path is None:
            path = self.position_path(owner)
        state = self.positions[owner] = PositionState(owner, draft_full, path)
        return state

    def add_node(self, owner: int, token: int, value: float) -> int:
        """Append the next sampling at a position; returns the new node id.

        The position must be open and not exhausted, and a token may be
        sampled at most once per position, otherwise the residual bookkeeping
        (and verification) would break.  Construction appends in its own
        walk, unchecked, since it draws from the residual's positive mass.
        """
        state = self.positions[owner]
        if token in state.sampled:
            raise ValueError(f"token {token} already sampled at position {owner}")
        if state.residual.is_zero:
            raise ValueError(f"position {owner} is exhausted")
        node_id = len(self.nodes)
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

    def check_residuals(self) -> None:
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
                if not acc.is_zero and np.max(np.abs(acc.probs - stored.probs)) > RESIDUAL_TOL:
                    raise AssertionError(f"residual drifted at position {state.owner}")
