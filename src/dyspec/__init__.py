"""Dynamic token-tree speculative decoding simulator and benchmark harness."""

from .categorical import (
    Categorical,
    remove_and_renorm,
    residual_target,
    sample,
    softmax_with_temperature,
)
from .construct import (
    CostParams,
    build_tree_fixed,
    build_tree_threshold,
    estimate_latency,
    expected_accepted,
    expected_accepted_draft_approx,
)
from .engine import (
    GenConfig,
    RunMetrics,
    StepMetrics,
    acceptance_vs_draft_bins,
    build_baseline_tree,
    generate,
    make_prompt,
)
from .lm import (
    LanguageModel,
    MarkovModel,
    ModelPairSpec,
    derive_draft,
    make_markov_lm,
    make_model_pair,
    target_distributions_for_tree,
)
from .mask_opt import (
    TreeMask,
    apply_permutation,
    blocked_masked_attention_reference,
    count_nonzero_blocks,
    dfs_order,
    hpd_order,
    mask_from_tree,
    random_tree,
)
from .oracle import (
    SubtreeSearchResult,
    WeightedTree,
    brute_force_optimal_subtree,
    exact_verify_distribution,
    monte_carlo_expected_accepted,
    monte_carlo_output_distribution,
)
from .token_tree import ROOT, PositionState, TokenTree, TreeNode
from .verify import VerificationError, VerifyResult, true_branch_acceptance, verify_tree

__version__ = "0.1.0"
