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

Masks are packed rows, one ``uint8`` per 8 columns (``TreeMask``): a
2048-node mask is 512 KB, not 4 MB.  Mask rows, subtree sizes and preorder
slots are filled as whole-array numpy over the nodes split by depth (a
level's parents sit one level up), at a few microseconds per level of
several nodes and about one per single-node level, which is indexed
plainly: a 2048-node chain takes a few milliseconds.  The depth split and
the sibling ranks are stable sorts in the smallest integer type holding the
node count, radix sorts up to 2**15 nodes; each permutation is inverted,
and checked, by one scatter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np


def _ids(values: Sequence[int]) -> np.ndarray:
    """Node ids as int64; float entries, or only bools, raise instead of truncating.

    A bool among ints reads as 0 or 1 (``dfs_order([-1, 0, True])`` is
    ``[0, 1, 2]``): numpy makes that list int.  It goes unchecked because a
    per-entry scan costs about 45 us per 2,048 ids; a mask-2048 op would run
    it 7 times, about 10 % of the op, past the 5 % such a check may cost.
    """
    arr = np.asarray(values)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"node ids must be integers, got {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def _parents_of(parents: Sequence[int]) -> np.ndarray:
    arr = _ids(parents)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("tree must have at least one node")
    if arr[0] != -1:
        raise ValueError("node 0 must be the root (parent -1)")
    if np.any(arr[1:] >= np.arange(1, arr.size)) or np.any(arr[1:] < -1):
        raise ValueError("parents must precede children (parent id < node id)")
    return arr


def _levels(parents: np.ndarray) -> List[object]:
    """Node ids split by depth, each level ascending; a single-node level is
    its bare id, so indexing with it is basic, not fancy.  Depth comes from
    pointer jumping (log2(depth) passes), in the smallest type holding
    ``-n`` (16 bits or fewer are radix-sorted); index -1 is a sentinel
    above the top level."""
    up = np.append(parents, -1)
    depth = (up >= 0).astype(np.min_scalar_type(-parents.size))
    while (up >= 0).any():
        depth += depth[up]
        up = up[up]
    by_depth = np.argsort(depth[:-1], kind="stable")
    ends = np.cumsum(np.bincount(depth[:-1])).tolist()
    return [int(by_depth[s]) if e - s == 1 else by_depth[s:e] for s, e in zip([0] + ends, ends)]


def _mask(parents: np.ndarray, prefix_len: int) -> TreeMask:
    """Prompt bytes and every node's own bit in one pass; then, level by
    level, each row ORs in its parent's finished row."""
    if prefix_len < 0:
        raise ValueError("prefix_len must be >= 0")
    n = parents.size
    cols = prefix_len + n
    packed = np.tile(np.packbits(np.arange(cols) < prefix_len), (n, 1))
    own = prefix_len + np.arange(n)
    packed[np.arange(n), own >> 3] |= (0x80 >> (own & 7)).astype(np.uint8)
    for level in _levels(parents)[1:]:
        packed[level] |= packed[parents[level]]
    return TreeMask(packed, cols)


def ancestor_self_matrix(parents: np.ndarray) -> np.ndarray:
    """Boolean matrix: row i marks i itself and every ancestor of i."""
    return _mask(_parents_of(parents), 0).dense()


_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.uint8)


@dataclass
class TreeMask:
    """Ancestor mask with a dense prompt block, stored as packed rows.

    Rows are tree nodes; the leading prompt columns are all ones (every
    token attends to the prompt), and the square tree block marks self plus
    ancestors.  Under any parents-before-children order the tree block is
    lower-triangular including the diagonal.

    ``bits`` is ``np.packbits`` layout over ``cols`` columns: column ``c`` is
    bit ``0x80 >> (c & 7)`` of byte ``c >> 3``.  Padding bits past the last
    column stay zero, so byte-wise ORs and popcounts need no masking.
    """

    bits: np.ndarray
    cols: int

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "TreeMask":
        """Packs a 2-D ``bool`` matrix."""
        dense = np.asarray(dense, dtype=bool)
        return cls(np.packbits(dense, axis=1), dense.shape[1])

    def dense(self) -> np.ndarray:
        """The mask as a ``bool`` matrix of ``cols`` columns."""
        return np.unpackbits(self.bits, axis=1, count=self.cols).view(bool)

    def set_bit_count(self) -> int:
        return int(_POPCOUNT[self.bits].sum(dtype=np.int64))

    def to_pbm(self) -> str:
        """Plain PBM text grid (rows of 0/1) for visual inspection."""
        dense = self.dense()
        rows, cols = dense.shape
        grid = np.full((rows, cols, 2), ord(" "), dtype=np.uint8)
        grid[:, :, 0] = dense.view(np.uint8) + ord("0")
        grid[:, -1, 1] = ord("\n")
        return f"P1\n{cols} {rows}\n" + grid.tobytes().decode("ascii")


def mask_from_tree(parents: Sequence[int], prefix_len: int = 0) -> TreeMask:
    """Tree-attention mask in the given node order."""
    return _mask(_parents_of(parents), prefix_len)


def count_nonzero_blocks(mask: TreeMask, block: int) -> int:
    """Number of block x block tiles holding at least one set bit.

    Tiles are grid-aligned at index 0; ragged edge tiles count like full
    ones, matching how kernels launch.  Each row block is OR-ed into one
    packed row first.  A tile 8, 16, 32 or 64 columns wide is one word of
    that row, so non-zero words are counted; other widths unpack the row
    blocks and test each column block.  An axis pads to a multiple of
    ``min(block, its length)``: a longer block is one tile.
    """
    if block < 1:
        raise ValueError("block size must be >= 1")
    packed, cols = mask.bits, mask.cols
    rows = packed.shape[0]
    br, bc = min(block, max(rows, 1)), min(block, max(cols, 1))
    if rows % br:
        packed = np.pad(packed, ((0, br - rows % br), (0, 0)))
    r, nbytes = packed.shape
    row_blocks = np.bitwise_or.reduce(packed.reshape(r // br, br, nbytes), axis=1)
    if bc in (8, 16, 32, 64):
        words = np.zeros((r // br, nbytes + (-nbytes) % (bc // 8)), dtype=np.uint8)
        words[:, :nbytes] = row_blocks
        return int(np.count_nonzero(words.view(f"u{bc // 8}")))
    bits = np.unpackbits(row_blocks, axis=1, count=cols + (-cols) % bc)
    return int(np.count_nonzero(bits.reshape(r // br, bits.shape[1] // bc, bc).any(axis=2)))


def _preorder(parents: np.ndarray, heavy: bool) -> List[int]:
    """Depth-first preorder; siblings (top-level nodes too) in ascending id, or
    with ``heavy`` in descending subtree size, ties in ascending id.

    A node's slot is its parent's slot + 1 plus the subtree sizes of the
    siblings ranked ahead of it: a cumsum over the nodes radix-sorted by
    parent (after ``n - size`` with ``heavy``), restarted at each parent,
    then placed top-down level by level.  The order inverts the slots.
    """
    n = parents.size
    levels = _levels(parents)
    sizes = _sizes(parents, levels)
    key = np.min_scalar_type(-n)
    rank = np.argsort((n - sizes).astype(key), kind="stable") if heavy else np.arange(n)
    rank = rank[np.argsort(parents[rank].astype(key), kind="stable")]
    ahead = np.cumsum(sizes[rank]) - sizes[rank]
    first = np.diff(parents[rank], prepend=-2) != 0
    offset = np.empty_like(ahead)
    offset[rank] = ahead - np.maximum.accumulate(np.where(first, ahead, 0))
    slot = np.full(n + 1, -1, dtype=np.int64)  # slot[-1]: the prompt
    for level in levels:
        slot[level] = slot[parents[level]] + 1 + offset[level]
    return _positions(slot[:-1], n)[:-1].tolist()


def dfs_order(parents: Sequence[int]) -> List[int]:
    """Depth-first preorder, children visited in sampling (creation) order."""
    return _preorder(_parents_of(parents), heavy=False)


def subtree_sizes(parents: np.ndarray) -> np.ndarray:
    """Nodes in each node's subtree, itself included; summed bottom-up by level."""
    parents = _parents_of(parents)
    return _sizes(parents, _levels(parents))


def _sizes(parents: np.ndarray, levels: List[object]) -> np.ndarray:
    sizes = np.ones(parents.size, dtype=np.int64)
    for level in reversed(levels[1:]):
        if isinstance(level, int):
            sizes[parents[level]] += sizes[level]
        else:
            np.add.at(sizes, parents[level], sizes[level])
    return sizes


def hpd_order(parents: Sequence[int]) -> List[int]:
    """Heavy-path preorder: children visited in descending subtree size.

    Ties fall back to sampling order, so chains and balanced trees reduce
    to plain depth-first order.
    """
    return _preorder(_parents_of(parents), heavy=True)


def _positions(order: Sequence[int], n: int) -> Optional[np.ndarray]:
    """Each node's index in ``order`` and a last -1 for the prompt, or None if
    ``order`` is no permutation of ``range(n)``: one scatter, range-checked
    first (a -1 would wrap onto the prompt), where a repeat leaves a hole."""
    idx = _ids(order)
    if idx.shape != (n,) or np.any((idx < 0) | (idx >= n)):
        return None
    position = np.full(n + 1, -1, dtype=np.int64)
    position[idx] = np.arange(n)
    return None if np.any(position[:-1] < 0) else position


def is_topological(parents: np.ndarray, order: Sequence[int]) -> bool:
    """True when ``order`` is a permutation of the node ids with parents first."""
    position = _positions(order, parents.size)
    return position is not None and bool(np.all(position[parents] < position[:-1]))


def apply_permutation(
    parents: Sequence[int], order: Sequence[int], prefix_len: int = 0
) -> TreeMask:
    """Mask of the tree with nodes relabeled along ``order``.

    ``order[i]`` is the original id of new node ``i``; it must be a
    permutation that keeps every parent ahead of its children (otherwise
    the mask would lose causality), else ValueError.  The parent array is
    relabeled (``new_parent[i]`` is the new id of ``order[i]``'s parent, a
    root stays -1), which keeps parents first exactly when every
    ``new_parent[i] < i``, and its mask built directly; the bits equal the
    original mask with rows and tree columns permuted along ``order``.
    """
    parents = _parents_of(parents)
    new_id = _positions(order, parents.size)
    if new_id is None:
        raise ValueError("order must be a permutation of the node ids")
    new_parent = new_id[parents]
    if np.any(new_parent >= new_id[:-1]):
        raise ValueError("permutation must keep parents before children")
    relabeled = np.empty_like(new_parent)
    relabeled[new_id[:-1]] = new_parent
    return _mask(relabeled, prefix_len)


def random_tree(n: int, seed: int) -> List[int]:
    """Uniform random-attachment tree: parent of node i uniform on [0, i)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [-1] + np.random.default_rng(seed).integers(0, np.arange(1, n)).tolist()


def _dense_attention_mask(q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: TreeMask) -> np.ndarray:
    """The mask unpacked, once Q, K and V are checked against it."""
    if q.shape[0] != mask.bits.shape[0]:
        raise ValueError("Q rows must match mask height")
    if k.shape[0] != mask.cols or v.shape[0] != mask.cols:
        raise ValueError("K/V rows must match mask width")
    if not mask.bits.any(axis=1).all():
        raise ValueError("every query row needs at least one unmasked key")
    return mask.dense()


def dense_masked_attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: TreeMask
) -> np.ndarray:
    """Reference implementation: full softmax(QK^T) with -inf at zero bits."""
    bits = _dense_attention_mask(q, k, v, mask)
    scores = q @ k.T
    scores = np.where(bits, scores, -np.inf)
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
    bits = _dense_attention_mask(q, k, v, mask)

    rows, cols = bits.shape
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
            tile_mask = bits[r0:r1, c0:c1]
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
