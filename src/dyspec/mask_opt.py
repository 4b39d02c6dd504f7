"""Tree-attention masks, block occupancy, and node reordering.

Attention kernels work on fixed-size tiles, so the cost of a tree-attention
mask is the number of tiles containing at least one set bit.  Reordering
tree nodes (any parents-before-children permutation is legal) changes tile
occupancy without changing the attended set; depth-first order groups long
paths into contiguous index ranges and usually cuts the tile count by a
large factor.  A tile-skipping attention reference shows the saving is
exact, not approximate.

All operations take a parent-id array: ``parents[i] < i``, and ``-1`` for
a node hanging off the prompt (node 0 always does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


def _parents_of(parents: Sequence[int]) -> np.ndarray:
    arr = np.asarray(parents, dtype=np.int64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("tree must have at least one node")
    if arr[0] != -1:
        raise ValueError("node 0 must be the root (parent -1)")
    if np.any(arr[1:] >= np.arange(1, arr.size)) or np.any(arr[1:] < -1):
        raise ValueError("parents must precede children (parent id < node id)")
    return arr


def _children_lists(parents: np.ndarray) -> List[List[int]]:
    children: List[List[int]] = [[] for _ in range(parents.size)]
    for i in range(1, parents.size):
        if parents[i] >= 0:
            children[int(parents[i])].append(i)
    return children


def _top_level(parents: np.ndarray) -> List[int]:
    """Nodes hanging directly off the (virtual) prompt position.

    Token trees are forests under the prompt: successive samplings at the
    root position are all parentless siblings.
    """
    return [i for i in range(parents.size) if parents[i] < 0]


def _mask_bits(parents: np.ndarray, prefix_len: int) -> np.ndarray:
    """Prompt block of ones, then row i marks i itself and every ancestor of i."""
    if prefix_len < 0:
        raise ValueError("prefix_len must be >= 0")
    bits = np.zeros((parents.size, prefix_len + parents.size), dtype=bool)
    bits[:, :prefix_len] = True
    for i in range(parents.size):
        p = int(parents[i])
        if p >= 0:
            bits[i] = bits[p]
        bits[i, prefix_len + i] = True
    return bits


def ancestor_self_matrix(parents: np.ndarray) -> np.ndarray:
    """Boolean matrix: row i marks i itself and every ancestor of i."""
    return _mask_bits(np.asarray(parents, dtype=np.int64), 0)


@dataclass
class TreeMask:
    """Ancestor mask with a dense prompt block.

    Rows are tree nodes; the leading prompt columns are all ones (every
    token attends to the prompt), and the square tree block marks self plus
    ancestors.  Under any parents-before-children order the tree block is
    lower-triangular including the diagonal.
    """

    bits: np.ndarray

    def set_bit_count(self) -> int:
        return int(self.bits.sum())

    def to_pbm(self) -> str:
        """Plain PBM text grid (rows of 0/1) for visual inspection."""
        rows, cols = self.bits.shape
        lines = ["P1", f"{cols} {rows}"]
        lines += [" ".join("1" if b else "0" for b in row) for row in self.bits]
        return "\n".join(lines) + "\n"


def mask_from_tree(parents: Sequence[int], prefix_len: int = 0) -> TreeMask:
    """Tree-attention mask in the given node order."""
    parents = _parents_of(parents)
    return TreeMask(_mask_bits(parents, prefix_len))


def count_nonzero_blocks(mask: TreeMask, block: int) -> int:
    """Number of block x block tiles holding at least one set bit.

    Tiles are grid-aligned at index 0; ragged edge tiles count like full
    ones, matching how kernels launch.
    """
    if block < 1:
        raise ValueError("block size must be >= 1")
    bits = mask.bits
    rows, cols = bits.shape
    pad_r = (-rows) % block
    pad_c = (-cols) % block
    if pad_r or pad_c:
        bits = np.pad(bits, ((0, pad_r), (0, pad_c)))
    r, c = bits.shape
    tiles = bits.reshape(r // block, block, c // block, block)
    return int(tiles.any(axis=(1, 3)).sum())


def _preorder(parents: np.ndarray, rank=None) -> List[int]:
    """Depth-first preorder visiting siblings in ascending ``rank`` (node id by default)."""
    children = _children_lists(parents)
    order: List[int] = []
    stack = sorted(_top_level(parents), key=rank)[::-1]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(sorted(children[u], key=rank)[::-1])
    return order


def dfs_order(parents: Sequence[int]) -> List[int]:
    """Depth-first preorder, children visited in sampling (creation) order."""
    return _preorder(_parents_of(parents))


def subtree_sizes(parents: np.ndarray) -> np.ndarray:
    sizes = np.ones(parents.size, dtype=np.int64)
    for i in range(parents.size - 1, 0, -1):
        if parents[i] >= 0:
            sizes[int(parents[i])] += sizes[i]
    return sizes


def hpd_order(parents: Sequence[int]) -> List[int]:
    """Heavy-path preorder: children visited in descending subtree size.

    Ties fall back to sampling order, so chains and balanced trees reduce
    to plain depth-first order.
    """
    parents = _parents_of(parents)
    sizes = subtree_sizes(parents)
    return _preorder(parents, lambda c: (-int(sizes[c]), c))


def is_topological(parents: np.ndarray, order: Sequence[int]) -> bool:
    """True when ``order`` holds every node and puts each parent ahead of its children."""
    position = {node: idx for idx, node in enumerate(order)}
    return all(i in position for i in range(parents.size)) and all(
        position[int(parents[i])] < position[i] for i in range(1, parents.size) if parents[i] >= 0
    )


def apply_permutation(
    parents: Sequence[int], order: Sequence[int], prefix_len: int = 0
) -> TreeMask:
    """Mask of the tree with nodes relabeled along ``order``.

    ``order[i]`` is the original id of new node ``i``; it must be a
    permutation that keeps every parent ahead of its children (otherwise
    the mask would lose causality), else ValueError.  The parent array is
    relabeled (``new_parent[i]`` is the new id of ``order[i]``'s parent, a
    root stays -1) and its mask built directly; the bits equal the original
    mask with rows and tree columns permuted along ``order``.
    """
    parents = _parents_of(parents)
    if sorted(order) != list(range(parents.size)):
        raise ValueError("order must be a permutation of the node ids")
    if not is_topological(parents, order):
        raise ValueError("permutation must keep parents before children")
    idx = np.asarray(order, dtype=np.int64)
    new_id = np.empty_like(idx)
    new_id[idx] = np.arange(idx.size)
    old_parent = parents[idx]
    relabeled = np.where(old_parent >= 0, new_id[old_parent], -1)
    return TreeMask(_mask_bits(relabeled, prefix_len))


def random_tree(n: int, seed: int) -> List[int]:
    """Uniform random-attachment tree: parent of node i uniform on [0, i)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    parents = [-1]
    for i in range(1, n):
        parents.append(int(rng.integers(0, i)))
    return parents


def _check_attention_inputs(q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: TreeMask) -> None:
    if q.shape[0] != mask.bits.shape[0]:
        raise ValueError("Q rows must match mask height")
    if k.shape[0] != mask.bits.shape[1] or v.shape[0] != mask.bits.shape[1]:
        raise ValueError("K/V rows must match mask width")
    if not mask.bits.any(axis=1).all():
        raise ValueError("every query row needs at least one unmasked key")


def dense_masked_attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: TreeMask
) -> np.ndarray:
    """Reference implementation: full softmax(QK^T) with -inf at zero bits."""
    _check_attention_inputs(q, k, v, mask)
    scores = q @ k.T
    scores = np.where(mask.bits, scores, -np.inf)
    scores -= scores.max(axis=1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights @ v


def blocked_masked_attention_reference(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: TreeMask, block: int
) -> np.ndarray:
    """Tile-streaming masked attention that skips all-zero tiles.

    Processes the score matrix block by block with the usual online-softmax
    accumulation (running max, rescaled numerator and denominator).  Tiles
    with no set bits are never touched, which is exactly the saving a
    block-sparse kernel realizes; the result matches the dense reference to
    floating-point accuracy.
    """
    if block < 1:
        raise ValueError("block size must be >= 1")
    _check_attention_inputs(q, k, v, mask)

    rows, cols = mask.bits.shape
    dim_out = v.shape[1]
    out = np.zeros((rows, dim_out), dtype=np.float64)

    for r0 in range(0, rows, block):
        r1 = min(r0 + block, rows)
        q_blk = q[r0:r1]
        m_run = np.full(r1 - r0, -np.inf)
        l_run = np.zeros(r1 - r0)
        acc = np.zeros((r1 - r0, dim_out), dtype=np.float64)
        for c0 in range(0, cols, block):
            c1 = min(c0 + block, cols)
            tile_mask = mask.bits[r0:r1, c0:c1]
            if not tile_mask.any():
                continue
            scores = q_blk @ k[c0:c1].T
            scores = np.where(tile_mask, scores, -np.inf)
            m_new = np.maximum(m_run, scores.max(axis=1))
            with np.errstate(invalid="ignore"):
                shifted = scores - m_new[:, None]
                rescale = m_run - m_new
            correction = np.where(np.isfinite(rescale), np.exp(rescale), 0.0)
            p = np.where(np.isfinite(shifted), np.exp(np.minimum(shifted, 0.0)), 0.0)
            l_run = l_run * correction + p.sum(axis=1)
            acc = acc * correction[:, None] + p @ v[c0:c1]
            m_run = m_new
        out[r0:r1] = acc / l_run[:, None]
    return out


def enumerate_topological_orders(parents: Sequence[int]):
    """All parents-before-children orders; factorial, so tiny trees only."""
    parents = _parents_of(parents)
    if parents.size > 10:
        raise ValueError("exhaustive order enumeration is limited to n <= 10")
    children = _children_lists(parents)

    def recurse(order: List[int], frontier: List[int]):
        if not frontier:
            yield list(order)
            return
        for i, u in enumerate(frontier):
            nxt = frontier[:i] + frontier[i + 1 :] + children[u]
            order.append(u)
            yield from recurse(order, nxt)
            order.pop()

    yield from recurse([], _top_level(parents))


def min_block_count_exhaustive(parents: Sequence[int], prefix_len: int, block: int) -> int:
    """Minimum tile count over every legal order; ground truth for tiny trees."""
    best = None
    for order in enumerate_topological_orders(parents):
        count = count_nonzero_blocks(apply_permutation(parents, order, prefix_len), block)
        if best is None or count < best:
            best = count
    return int(best)
