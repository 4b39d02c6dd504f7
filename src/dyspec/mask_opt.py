"""Tree-attention masks, block occupancy, and node reordering.

Attention kernels work on fixed-size tiles, so the cost of a tree-attention
mask is the number of tiles containing at least one set bit.  Reordering
tree nodes (any parents-before-children permutation is legal) changes tile
occupancy without changing the attended set; depth-first order groups long
paths into contiguous index ranges and usually cuts the tile count by a
large factor.  A tile-skipping attention reference shows the saving is
exact, not approximate.

All operations take a parent-id array: ``parents[i] < i``, and ``-1`` for
a node hanging off the prompt (node 0 always does).  Token trees are
forests under the prompt: successive samplings there are parentless siblings.

Mask rows, subtree sizes and preorder slots are filled as whole-array numpy
over the nodes split by depth (a level's parents sit one level up), at a few
microseconds per level: DySpec and random trees of thousands of nodes are
tens of levels deep, while a chain pays that cost once per node.
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


def _levels(parents: np.ndarray) -> List[np.ndarray]:
    """Node ids split by depth, each level ascending.  Depth comes from pointer
    jumping (log2(depth) passes); index -1 is a sentinel above the top level."""
    up = np.append(parents, -1)
    depth = (up >= 0).astype(np.int64)
    while (up >= 0).any():
        depth += depth[up]
        up = up[up]
    by_depth = np.argsort(depth[:-1], kind="stable")
    ends = np.cumsum(np.bincount(depth[:-1])).tolist()
    return [by_depth[start:end] for start, end in zip([0] + ends, ends)]


def _mask_bits(parents: np.ndarray, prefix_len: int) -> np.ndarray:
    """Prompt block of ones, then row i marks i itself and every ancestor of i:
    level by level, each row copies its parent's finished row."""
    if prefix_len < 0:
        raise ValueError("prefix_len must be >= 0")
    bits = np.zeros((parents.size, prefix_len + parents.size), dtype=bool)
    bits[:, :prefix_len] = True
    for depth, level in enumerate(_levels(parents)):
        if depth:
            bits[level] = bits[parents[level]]
        bits[level, prefix_len + level] = True
    return bits


def ancestor_self_matrix(parents: np.ndarray) -> np.ndarray:
    """Boolean matrix: row i marks i itself and every ancestor of i."""
    return _mask_bits(_parents_of(parents), 0)


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
        return int(np.count_nonzero(self.bits))

    def to_pbm(self) -> str:
        """Plain PBM text grid (rows of 0/1) for visual inspection."""
        rows, cols = self.bits.shape
        grid = np.full((rows, cols, 2), ord(" "), dtype=np.uint8)
        grid[:, :, 0] = self.bits.view(np.uint8) + ord("0")
        grid[:, -1, 1] = ord("\n")
        return f"P1\n{cols} {rows}\n" + grid.tobytes().decode("ascii")


def mask_from_tree(parents: Sequence[int], prefix_len: int = 0) -> TreeMask:
    """Tree-attention mask in the given node order."""
    return TreeMask(_mask_bits(_parents_of(parents), prefix_len))


def count_nonzero_blocks(mask: TreeMask, block: int) -> int:
    """Number of block x block tiles holding at least one set bit.

    Tiles are grid-aligned at index 0; ragged edge tiles count like full
    ones, matching how kernels launch.  Each row block is OR-ed into one
    row first, then each column block of that small matrix.
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
    row_blocks = bits.reshape(r // block, block, c).any(axis=1)
    return int(np.count_nonzero(row_blocks.reshape(r // block, c // block, block).any(axis=2)))


def _preorder(parents: np.ndarray, heavy: bool) -> List[int]:
    """Depth-first preorder; siblings (top-level nodes too) in ascending id, or
    with ``heavy`` in descending subtree size, ties in ascending id.

    A node's slot is its parent's slot + 1 plus the subtree sizes of the
    siblings ranked ahead of it: a cumsum over one lexsort by parent and
    rank, restarted at each parent, then placed top-down level by level.
    """
    sizes = subtree_sizes(parents)
    rank = np.lexsort((-sizes, parents)) if heavy else np.argsort(parents, kind="stable")
    ahead = np.cumsum(sizes[rank]) - sizes[rank]
    first = np.diff(parents[rank], prepend=-2) != 0
    offset = np.empty_like(ahead)
    offset[rank] = ahead - np.maximum.accumulate(np.where(first, ahead, 0))
    slot = np.full(parents.size + 1, -1, dtype=np.int64)  # slot[-1]: the prompt
    for level in _levels(parents):
        slot[level] = slot[parents[level]] + 1 + offset[level]
    return np.argsort(slot[:-1]).tolist()


def dfs_order(parents: Sequence[int]) -> List[int]:
    """Depth-first preorder, children visited in sampling (creation) order."""
    return _preorder(_parents_of(parents), heavy=False)


def subtree_sizes(parents: np.ndarray) -> np.ndarray:
    """Nodes in each node's subtree, itself included; summed bottom-up by level."""
    parents = _parents_of(parents)
    sizes = np.ones(parents.size, dtype=np.int64)
    for level in reversed(_levels(parents)[1:]):
        np.add.at(sizes, parents[level], sizes[level])
    return sizes


def hpd_order(parents: Sequence[int]) -> List[int]:
    """Heavy-path preorder: children visited in descending subtree size.

    Ties fall back to sampling order, so chains and balanced trees reduce
    to plain depth-first order.
    """
    return _preorder(_parents_of(parents), heavy=True)


def is_topological(parents: np.ndarray, order: Sequence[int]) -> bool:
    """True when ``order`` is a permutation of the node ids with parents first."""
    order = np.asarray(order, dtype=np.int64)
    if not np.array_equal(np.sort(order), np.arange(parents.size)):
        return False
    position = np.argsort(order)
    child = parents >= 0
    return bool(np.all(position[parents[child]] < position[child]))


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
    idx = np.asarray(order, dtype=np.int64)
    if not np.array_equal(np.sort(idx), np.arange(parents.size)):
        raise ValueError("order must be a permutation of the node ids")
    if not is_topological(parents, idx):
        raise ValueError("permutation must keep parents before children")
    new_id = np.argsort(idx)
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
    children = [np.flatnonzero(parents == u).tolist() for u in range(parents.size)]

    def recurse(order: List[int], frontier: List[int]):
        if not frontier:
            yield list(order)
            return
        for i, u in enumerate(frontier):
            nxt = frontier[:i] + frontier[i + 1 :] + children[u]
            order.append(u)
            yield from recurse(order, nxt)
            order.pop()

    yield from recurse([], np.flatnonzero(parents < 0).tolist())


def min_block_count_exhaustive(parents: Sequence[int], prefix_len: int, block: int) -> int:
    """Minimum tile count over every legal order; ground truth for tiny trees."""
    best = None
    for order in enumerate_topological_orders(parents):
        count = count_nonzero_blocks(apply_permutation(parents, order, prefix_len), block)
        if best is None or count < best:
            best = count
    return int(best)
