import heapq
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dyspec.construct import build_tree_fixed
from dyspec.engine import make_prompt
from dyspec.lm import ModelPairSpec, make_model_pair
from dyspec.mask_opt import (
    TreeMask,
    ancestor_self_matrix,
    apply_permutation,
    blocked_masked_attention_reference,
    count_nonzero_blocks,
    dense_masked_attention,
    dfs_order,
    enumerate_topological_orders,
    hpd_order,
    is_topological,
    mask_from_tree,
    min_block_count_exhaustive,
    random_tree,
    subtree_sizes,
)

CHAIN3 = [-1, 0, 1]
STAR3 = [-1, 0, 0]


def tree_depth(parents):
    """Node count on the longest root-to-leaf path (parents precede children)."""
    depth = []
    for p in parents:
        depth.append(1 if p < 0 else depth[p] + 1)
    return max(depth)


def built_tree_parents(seed, budget=64):
    spec = ModelPairSpec(target_seed=seed, noise_sigma=1.0)
    target, draft = make_model_pair(spec)
    prompt = make_prompt(target, 16, seed)
    return build_tree_fixed(draft, prompt, budget, seed).parent_array()


class TestMaskFromTree:
    def test_chain_is_lower_triangular(self):
        mask = mask_from_tree(CHAIN3, 0)
        np.testing.assert_array_equal(mask.dense(), np.tril(np.ones((3, 3), dtype=bool)))

    def test_star_rows(self):
        mask = mask_from_tree(STAR3, 0)
        np.testing.assert_array_equal(
            mask.dense(), np.array([[1, 0, 0], [1, 1, 0], [1, 0, 1]], dtype=bool)
        )

    def test_prefix_columns_are_dense(self):
        mask = mask_from_tree(STAR3, 2)
        assert mask.dense()[:, :2].all()
        assert mask.dense().shape == (3, 5)

    def test_triangular_under_creation_order(self):
        for seed in range(5):
            parents = random_tree(40, seed)
            mask = mask_from_tree(parents, 0)
            assert not np.triu(mask.dense(), k=1).any()

    def test_rejects_bad_parent_order(self):
        with pytest.raises(ValueError):
            mask_from_tree([-1, 2, 1], 0)


class TestCountNonzeroBlocks:
    def test_chain64_block32(self):
        parents = [-1] + list(range(63))
        mask = mask_from_tree(parents, 0)
        assert count_nonzero_blocks(mask, 32) == 3

    def test_star64_block32(self):
        parents = [-1] + [0] * 63
        mask = mask_from_tree(parents, 0)
        assert count_nonzero_blocks(mask, 32) == 3

    def test_all_zero_mask(self):
        mask = TreeMask.from_dense(np.zeros((8, 8), dtype=bool))
        assert count_nonzero_blocks(mask, 4) == 0
        for shape in ((0, 0), (0, 3)):
            assert count_nonzero_blocks(TreeMask.from_dense(np.zeros(shape, dtype=bool)), 4) == 0

    def test_upper_bound(self):
        for seed in range(5):
            parents = random_tree(100, seed)
            mask = mask_from_tree(parents, 7)
            for block in (16, 32):
                rows, cols = mask.dense().shape
                bound = -(-rows // block) * (-(-cols // block))
                assert count_nonzero_blocks(mask, block) <= bound

    def test_ragged_edges_count(self):
        mask = mask_from_tree([-1, 0, 1], 0)  # 3x3 with block 2 -> 2x2 grid
        assert count_nonzero_blocks(mask, 2) == 3

    def test_block_longer_than_the_mask_allocates_no_padding(self):
        # Padding to a multiple of the block would ask for block**2 bytes.
        mask = mask_from_tree(STAR3, 2)
        tracemalloc.start()
        try:
            assert count_nonzero_blocks(mask, 10**9) == 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize("block", [8, 16, 24, 32, 64])
    def test_word_widths_equal_tile_loop(self, block):
        rng = np.random.default_rng(block)
        masks = [
            mask_from_tree(random_tree(n, n), prefix)
            for n in (1, 7, 8, 16, 33, 70, 130)  # ragged rows; small trees are narrower than blocks
            for prefix in (0, 3, 13)  # packed widths that are no whole number of words
        ]
        sparse = [rng.random(shape) < 0.01 for shape in ((70, 100), (129, 200))]
        masks += [TreeMask.from_dense(bits) for bits in sparse]
        wide = mask_from_tree(random_tree(90, 1), 30)  # 120 columns, 15 bytes a row
        masks += [
            TreeMask(wide.bits[::3], wide.cols),  # strided rows
            TreeMask(wide.bits[:, 2:], wide.cols - 16),  # a column slice, not contiguous
            TreeMask(np.asfortranarray(wide.bits), wide.cols),
        ]
        for mask in masks:
            assert count_nonzero_blocks(mask, block) == tile_loop_count(mask.dense(), block)


class TestDfsOrder:
    def test_chain_is_identity(self):
        assert dfs_order(CHAIN3) == [0, 1, 2]

    def test_subtree_grouping(self):
        # creation order: root(0), a(1), b(2), c(3, child of a)
        parents = [-1, 0, 0, 1]
        assert dfs_order(parents) == [0, 1, 3, 2]

    def test_topological_on_random_trees(self):
        for seed in range(200):
            parents = np.asarray(random_tree(30, seed))
            assert is_topological(parents, dfs_order(parents))

    def test_order_missing_a_node_is_not_topological(self):
        assert not is_topological(np.array([-1, 0, 0]), [0, 2])
        assert not is_topological(np.array([-1, 0, 0]), [1, 2])

    def test_order_repeating_a_node_is_not_topological(self):
        assert not is_topological(np.array([-1, 0, 0]), [0, 1, 2, 2])
        assert not is_topological(np.array([-1, 0, 0]), [0, 1, 1])


class TestHpdOrder:
    def test_chain_is_identity(self):
        assert hpd_order(CHAIN3) == [0, 1, 2]

    def test_heavier_subtree_first(self):
        # child 2 is heavier (subtree of 3) than child 1 (leaf)
        parents = [-1, 0, 0, 2, 2]
        order = hpd_order(parents)
        assert order.index(2) < order.index(1)
        sizes = subtree_sizes(np.asarray(parents))
        assert list(sizes) == [5, 1, 3, 1, 1]

    def test_balanced_tree_matches_dfs(self):
        parents = [-1, 0, 0, 1, 1, 2, 2]
        assert hpd_order(parents) == dfs_order(parents)


def recursive_preorder(parents, rank):
    """Reference walk: siblings (top-level nodes too) in ascending ``rank``."""
    children = {}
    for c, p in enumerate(parents):
        children.setdefault(p, []).append(c)
    order = []

    def visit(u):
        order.append(u)
        for c in sorted(children.get(u, ()), key=rank):
            visit(c)

    for top in sorted(children.get(-1, ()), key=rank):
        visit(top)
    return order


@pytest.mark.parametrize("seed", range(10))
def test_orders_match_recursive_reference_on_forests(seed):
    parents = random_tree(40, seed)
    for i in range(5, 40, 9):
        parents[i] = -1  # token trees are forests under the prompt
    sizes = subtree_sizes(np.asarray(parents))
    assert dfs_order(parents) == recursive_preorder(parents, lambda c: c)
    assert hpd_order(parents) == recursive_preorder(parents, lambda c: (-int(sizes[c]), c))


@pytest.mark.parametrize("n", [128, 2**15, 40_000])
def test_orders_match_recursive_reference_on_large_forests(n):
    # Past 2**15 nodes the sort keys no longer fit 16 bits; no mask is built
    # (40,000 nodes would take 200 MB).
    parents = random_tree(n, n)
    for i in range(5, n, 97):
        parents[i] = -1
    sizes = [1] * n
    for i in reversed(range(n)):
        if parents[i] >= 0:
            sizes[parents[i]] += sizes[i]
    assert subtree_sizes(np.asarray(parents)).tolist() == sizes
    assert dfs_order(parents) == recursive_preorder(parents, lambda c: c)
    assert hpd_order(parents) == recursive_preorder(parents, lambda c: (-sizes[c], c))


class TestIntegerIds:
    @pytest.mark.parametrize(
        "parents",
        [[-1, 0.5, 1], [-1, 0.0, 1.0], np.array([-1.0, 0.0, 1.0]), np.array([True, False, False])],
    )
    def test_parents_that_are_not_integers_rejected(self, parents):
        calls = [dfs_order, hpd_order, mask_from_tree, subtree_sizes, ancestor_self_matrix]
        calls += [
            lambda p: list(enumerate_topological_orders(p)),
            lambda p: apply_permutation(p, [0, 1, 2]),
            lambda p: min_block_count_exhaustive(p, 0, 2),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="node ids must be integers"):
                call(parents)

    @pytest.mark.parametrize(
        "order", [[0, 1.7, 2], [0, 1.2, 2.9], [0.0, 1.0, 2.0], np.array([False, True, True])]
    )
    def test_orders_that_are_not_integers_rejected(self, order):
        with pytest.raises(ValueError, match="node ids must be integers"):
            apply_permutation(CHAIN3, order)
        with pytest.raises(ValueError, match="node ids must be integers"):
            is_topological(np.asarray(CHAIN3), order)

    def test_empty_tree_is_rejected_as_empty(self):
        for call in (dfs_order, hpd_order, mask_from_tree, subtree_sizes):
            for empty in ([], np.array([], dtype=float)):
                with pytest.raises(ValueError, match="tree must have at least one node"):
                    call(empty)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
    def test_integer_arrays_of_any_width_accepted(self, dtype):
        parents = np.array([-1, 0, 0, 1], dtype=dtype)
        order = np.array([0, 1, 3, 2], dtype=np.uint8)
        assert dfs_order(parents) == order.tolist()
        assert is_topological(parents, order)
        assert apply_permutation(parents, order).set_bit_count() == 8


class TestApplyPermutation:
    def test_identity_perm(self):
        parents = random_tree(20, 3)
        base = mask_from_tree(parents, 4)
        same = apply_permutation(parents, list(range(20)), 4)
        np.testing.assert_array_equal(base.dense(), same.dense())

    def test_bit_count_invariant(self):
        for seed in range(50):
            parents = random_tree(50, seed)
            base = mask_from_tree(parents, 3)
            for order_fn in (dfs_order, hpd_order):
                permuted = apply_permutation(parents, order_fn(parents), 3)
                assert permuted.set_bit_count() == base.set_bit_count()

    @staticmethod
    def gathered(parents, order, prefix):
        """Reference: the original ancestor matrix with rows and columns gathered along ``order``."""
        tree_block = ancestor_self_matrix(np.asarray(parents))[np.ix_(order, order)]
        return np.hstack([np.ones((len(parents), prefix), dtype=bool), tree_block])

    @pytest.mark.parametrize("prefix", [0, 3])
    def test_every_order_of_tiny_trees_matches_gather(self, prefix):
        tiny = [[-1], CHAIN3, STAR3, [-1, 0, 0, 1, 1], [-1, -1, 0, 1, 0], [-1, 0, 1, 0, 3, 3]]
        for parents in tiny:
            for order in enumerate_topological_orders(parents):
                mask = apply_permutation(parents, order, prefix)
                assert mask.dense().shape == (len(parents), prefix + len(parents))
                np.testing.assert_array_equal(mask.dense(), self.gathered(parents, order, prefix))

    @pytest.mark.parametrize("prefix", [0, 7])
    def test_dfs_and_hpd_orders_match_gather(self, prefix):
        for seed in range(20):
            parents = random_tree(60, seed)
            for order_fn in (dfs_order, hpd_order):
                order = order_fn(parents)
                mask = apply_permutation(parents, order, prefix)
                np.testing.assert_array_equal(mask.dense(), self.gathered(parents, order, prefix))

    def test_negative_prefix_rejected(self):
        with pytest.raises(ValueError):
            apply_permutation(CHAIN3, [0, 1, 2], -1)
        with pytest.raises(ValueError):
            mask_from_tree(CHAIN3, -1)

    def test_non_topological_rejected(self):
        parents = [-1, 0, 1]
        with pytest.raises(ValueError, match="keep parents before children"):
            apply_permutation(parents, [2, 1, 0])
        with pytest.raises(ValueError, match="keep parents before children"):
            apply_permutation(STAR3, [1, 0, 2])
        with pytest.raises(ValueError, match="permutation of the node ids"):
            apply_permutation(parents, [0, 0, 1])
        with pytest.raises(ValueError, match="permutation of the node ids"):
            apply_permutation(parents, [0, 1])

    def test_dfs_improves_constructed_tree(self):
        parents = built_tree_parents(5)
        base = count_nonzero_blocks(mask_from_tree(parents, 0), 8)
        dfs = count_nonzero_blocks(apply_permutation(parents, dfs_order(parents), 0), 8)
        assert dfs <= base


class TestRandomTree:
    def test_single_node(self):
        assert random_tree(1, 0) == [-1]

    def test_two_nodes_is_chain(self):
        assert random_tree(2, 0) == [-1, 0]

    def test_depth_grows_logarithmically(self):
        depths = [tree_depth(random_tree(1024, seed)) for seed in range(100)]
        assert 5 <= np.mean(depths) <= 25

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            random_tree(0, 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 2048])
    def test_equals_one_bounded_draw_per_node(self, n):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            reference = [-1] + [int(rng.integers(0, i)) for i in range(1, n)]
            parents = random_tree(n, seed)
            assert parents == reference
            assert all(type(p) is int for p in parents)


class TestBlockedAttention:
    def rand_qkv(self, rows, cols, dim, seed):
        rng = np.random.default_rng(seed)
        return (
            rng.normal(size=(rows, dim)),
            rng.normal(size=(cols, dim)),
            rng.normal(size=(cols, dim)),
        )

    def test_full_mask_equals_unmasked(self):
        n, d = 12, 4
        mask = TreeMask.from_dense(np.ones((n, n), dtype=bool))
        q, k, v = self.rand_qkv(n, n, d, 0)
        scores = q @ k.T
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(
            blocked_masked_attention_reference(q, k, v, mask, 5), weights @ v, atol=1e-10
        )

    def test_chain_mask_is_causal_attention(self):
        n, d = 16, 8
        parents = [-1] + list(range(n - 1))
        mask = mask_from_tree(parents, 0)
        q, k, v = self.rand_qkv(n, n, d, 1)
        causal = dense_masked_attention(q, k, v, mask)
        np.testing.assert_allclose(
            blocked_masked_attention_reference(q, k, v, mask, 4), causal, atol=1e-10
        )

    def test_random_tree_blocked_equals_dense(self):
        n, prefix, d = 128, 16, 16
        parents = random_tree(n, 7)
        mask = mask_from_tree(parents, prefix)
        q, k, v = self.rand_qkv(n, prefix + n, d, 2)
        dense = dense_masked_attention(q, k, v, mask)
        blocked = blocked_masked_attention_reference(q, k, v, mask, 32)
        assert np.max(np.abs(blocked - dense)) < 1e-6

    def test_fully_masked_row_rejected(self):
        bits = np.ones((4, 4), dtype=bool)
        bits[2] = False
        mask = TreeMask.from_dense(bits)
        q, k, v = self.rand_qkv(4, 4, 2, 3)
        with pytest.raises(ValueError):
            blocked_masked_attention_reference(q, k, v, mask, 2)
        with pytest.raises(ValueError):
            dense_masked_attention(q, k, v, mask)

    def test_shape_mismatch_rejected(self):
        mask = mask_from_tree(CHAIN3, 0)
        q, k, v = self.rand_qkv(3, 3, 2, 4)
        with pytest.raises(ValueError):
            blocked_masked_attention_reference(q[:2], k, v, mask, 2)
        with pytest.raises(ValueError):
            blocked_masked_attention_reference(q, k[:2], v[:2], mask, 2)


class TestOrderQuality:
    def test_hpd_near_optimal_on_tiny_trees(self):
        for seed in range(8):
            parents = random_tree(8, seed)
            best = min_block_count_exhaustive(parents, 0, 2)
            hpd = count_nonzero_blocks(
                apply_permutation(parents, hpd_order(parents), 0), 2
            )
            assert hpd <= best + 1

    def test_hpd_tracks_dfs_on_constructed_trees(self):
        # depth-first and heavy-path orders land within 15% in mean tile
        # count on dynamically built trees (budget 256, 20 seeds); per-seed
        # counts are too granular (one tile is ~7%) for a pointwise bound
        dfs_counts, hpd_counts = [], []
        for seed in range(20):
            parents = built_tree_parents(seed, budget=256)
            dfs_counts.append(
                count_nonzero_blocks(apply_permutation(parents, dfs_order(parents), 0), 32)
            )
            hpd_counts.append(
                count_nonzero_blocks(apply_permutation(parents, hpd_order(parents), 0), 32)
            )
        mean_dfs = np.mean(dfs_counts)
        mean_hpd = np.mean(hpd_counts)
        assert abs(mean_dfs - mean_hpd) / mean_hpd <= 0.15

    def test_prefix_dilutes_reordering_gain(self):
        # with tree size fixed, the original/dfs tile ratio cannot grow as
        # the dense prompt block dominates
        means = []
        for prefix in (0, 512, 2048):
            ratios = []
            for seed in range(20):
                parents = random_tree(768, seed)
                base = count_nonzero_blocks(mask_from_tree(parents, prefix), 32)
                dfs = count_nonzero_blocks(
                    apply_permutation(parents, dfs_order(parents), prefix), 32
                )
                ratios.append(base / dfs)
            means.append(np.mean(ratios))
        assert means[0] >= means[1] >= means[2]

    def test_chain_reordering_is_identity_count(self):
        parents = [-1] + list(range(127))
        base = count_nonzero_blocks(mask_from_tree(parents, 0), 32)
        for order_fn in (dfs_order, hpd_order):
            count = count_nonzero_blocks(
                apply_permutation(parents, order_fn(parents), 0), 32
            )
            assert count == base


class TestTreeMaskPbm:
    @staticmethod
    def joined(bits):
        """Reference: one "0"/"1" string per bit, joined row by row."""
        rows, cols = bits.shape
        lines = ["P1", f"{cols} {rows}"]
        lines += [" ".join("1" if b else "0" for b in row) for row in bits]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("prefix", [0, 3])
    def test_matches_per_bit_join(self, prefix):
        for parents in ([-1], CHAIN3, STAR3, [-1, 0, -1, 2, 1], random_tree(17, 4)):
            mask = mask_from_tree(parents, prefix)
            assert mask.to_pbm() == self.joined(mask.dense())

    def test_ragged_matrix(self):
        bits = np.random.default_rng(0).random((5, 9)) < 0.4
        assert TreeMask.from_dense(bits).to_pbm() == self.joined(bits)


# --------------------------------------------------------------------------
# Properties: each whole-array pass against a per-node reference form.
# --------------------------------------------------------------------------


@st.composite
def forests(draw, max_nodes=40):
    """Parent arrays with any number of top-level nodes.  Half hang every
    node off the prompt or nodes 0-2, giving many equal-size sibling subtrees."""
    n = draw(st.integers(1, max_nodes))
    reach = draw(st.sampled_from([None, 2]))
    return [-1] + [
        draw(st.integers(-1, i - 1 if reach is None else min(i - 1, reach))) for i in range(1, n)
    ]


@st.composite
def forests_with_order(draw):
    """A forest and a random parents-before-children order of its nodes."""
    parents = draw(forests())
    keys = draw(st.permutations(range(len(parents))))
    children = [[] for _ in parents]
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    frontier = [(keys[i], i) for i, p in enumerate(parents) if p < 0]
    heapq.heapify(frontier)
    order = []
    while frontier:
        _, u = heapq.heappop(frontier)
        order.append(u)
        for c in children[u]:
            heapq.heappush(frontier, (keys[c], c))
    return parents, order


def tile_loop_count(bits, block):
    rows, cols = bits.shape
    return sum(
        bool(bits[r : r + block, c : c + block].any())
        for r in range(0, rows, block)
        for c in range(0, cols, block)
    )


def block_padded_count(bits, block):
    """Tile count with both axes zero-padded to a multiple of ``block`` itself."""
    rows, cols = bits.shape
    padded = np.pad(bits, ((0, (-rows) % block), (0, (-cols) % block)))
    r, c = padded.shape
    tiles = padded.reshape(r // block, block, c // block, block).any(axis=(1, 3))
    return int(np.count_nonzero(tiles))


def row_copy_bits(parents, prefix):
    """Reference mask: row i copies its parent's finished row, then sets bit i."""
    n = len(parents)
    bits = np.zeros((n, prefix + n), dtype=bool)
    bits[:, :prefix] = True
    for i, p in enumerate(parents):
        if p >= 0:
            bits[i] = bits[p]
        bits[i, prefix + i] = True
    return bits


def assert_mask_equals(mask, dense):
    """Same bits as ``dense``, in packed rows whose padding bits are zero."""
    np.testing.assert_array_equal(mask.dense(), dense)
    np.testing.assert_array_equal(mask.bits, np.packbits(dense, axis=1))


def recursive_sizes(parents):
    def size(u):
        return 1 + sum(size(c) for c, p in enumerate(parents) if p == u)

    return [size(u) for u in range(len(parents))]


def dict_walk_topological(parents, order):
    position = {node: idx for idx, node in enumerate(order)}
    return all(position[p] < position[i] for i, p in enumerate(parents) if p >= 0)


class TestWholeArrayProperties:
    @settings(deadline=None)
    @given(
        bits=st.one_of(
            arrays(bool, st.tuples(st.integers(1, 40), st.integers(1, 40))),
            st.tuples(st.integers(1, 40), st.integers(1, 40)).map(lambda s: np.zeros(s, bool)),
        ),
        block=st.integers(1, 45),
    )
    def test_block_count_equals_tile_loop(self, bits, block):
        assert count_nonzero_blocks(TreeMask.from_dense(bits), block) == tile_loop_count(bits, block)

    @settings(deadline=None, max_examples=200)
    @given(parents=forests(max_nodes=89), prefix=st.integers(0, 39), block=st.integers(1, 149))
    def test_block_count_equals_padding_to_the_block(self, parents, prefix, block):
        mask = mask_from_tree(parents, prefix)
        assert count_nonzero_blocks(mask, block) == block_padded_count(mask.dense(), block)

    @settings(deadline=None)
    @given(case=forests_with_order(), prefix=st.integers(0, 20))
    def test_mask_bits_equal_row_copy(self, case, prefix):
        parents, order = case
        assert_mask_equals(mask_from_tree(parents, prefix), row_copy_bits(parents, prefix))
        new_id = {old: new for new, old in enumerate(order)}
        relabeled = [-1 if parents[old] < 0 else new_id[parents[old]] for old in order]
        assert_mask_equals(
            apply_permutation(parents, order, prefix), row_copy_bits(relabeled, prefix)
        )

    @settings(deadline=None)
    @given(
        bits=st.integers(1, 40).flatmap(
            lambda cols: arrays(bool, st.tuples(st.integers(0, 12), st.just(cols)))
        )
    )
    def test_packed_round_trip_and_popcount(self, bits):
        mask = TreeMask.from_dense(bits)
        assert mask.cols == bits.shape[1]
        np.testing.assert_array_equal(mask.dense(), bits)
        assert mask.set_bit_count() == np.count_nonzero(bits)

    @pytest.mark.parametrize("prefix", range(18))
    def test_pbm_equals_row_copy_pbm(self, prefix):
        parents = [-1, 0, 1, 0, -1, 4, 2, 6, 1, 8, 9]
        expected = TestTreeMaskPbm.joined(row_copy_bits(parents, prefix))
        assert mask_from_tree(parents, prefix).to_pbm() == expected

    @pytest.mark.parametrize("prefix", [0, 5, 8])
    def test_deep_chain_equals_row_copy_and_recursive_walk(self, prefix):
        # A 300-node chain with a leaf off every seventh node: almost every
        # depth level holds one node, some hold two.
        parents = [-1] + list(range(299)) + [i for i in range(0, 299, 7)]
        assert_mask_equals(mask_from_tree(parents, prefix), row_copy_bits(parents, prefix))
        sizes = [1] * len(parents)
        for i in reversed(range(len(parents))):
            if parents[i] >= 0:
                sizes[parents[i]] += sizes[i]
        assert subtree_sizes(np.asarray(parents)).tolist() == sizes
        assert dfs_order(parents) == recursive_preorder(parents, lambda c: c)
        hpd = hpd_order(parents)
        assert hpd == recursive_preorder(parents, lambda c: (-sizes[c], c))
        new_id = {old: new for new, old in enumerate(hpd)}
        relabeled = [-1 if parents[old] < 0 else new_id[parents[old]] for old in hpd]
        assert_mask_equals(apply_permutation(parents, hpd, prefix), row_copy_bits(relabeled, prefix))

    @settings(deadline=None)
    @given(parents=forests())
    def test_sizes_and_preorders_equal_recursive_walk(self, parents):
        sizes = recursive_sizes(parents)
        assert subtree_sizes(np.asarray(parents)).tolist() == sizes
        assert dfs_order(parents) == recursive_preorder(parents, lambda c: c)
        assert hpd_order(parents) == recursive_preorder(parents, lambda c: (-sizes[c], c))

    @settings(deadline=None)
    @given(case=forests().flatmap(lambda p: st.tuples(st.just(p), st.permutations(range(len(p))))))
    def test_topological_equals_dict_walk(self, case):
        parents, order = case
        assert is_topological(np.asarray(parents), order) == dict_walk_topological(parents, order)

    @settings(deadline=None)
    @given(
        case=forests().flatmap(lambda p: st.tuples(st.just(p), st.permutations(range(len(p))))),
        fault=st.sampled_from(
            ["missing", "repeated", "too_high", "negative", "wrapping", "extra", "nested"]
        ),
        where=st.integers(0, 39),
    )
    def test_non_permutation_is_not_topological(self, case, fault, where):
        parents, order = case
        n = len(parents)
        order = list(order)
        i = where % n
        if fault == "missing":
            del order[i]
        elif fault == "repeated" and n > 1:
            order[i] = order[i - 1]
        elif fault in ("repeated", "extra"):
            order.append(order[i])
        elif fault == "nested":
            order = [order]
        elif fault == "wrapping":  # numpy would wrap this index back onto the same node
            order[i] -= n + 1
        else:
            order[i] = n if fault == "too_high" else -1
        assert not is_topological(np.asarray(parents), order)
        with pytest.raises(ValueError, match="order must be a permutation of the node ids"):
            apply_permutation(parents, order)
