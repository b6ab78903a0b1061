"""Unitary-equivariant and permutation-invariant quantum channels.

Construction, classification, streaming simulation and verification of
quantum channels from m to n qudits that commute with collective unitary
rotations and with independent permutations of inputs and outputs.
"""

from equichan.staircases import (
    Staircase,
    add_boxes,
    dim_gl_irrep,
    dim_perm_irrep,
    enumerate_staircases,
    lr_coeff,
    remove_boxes,
    sym_dim,
)
from equichan.gtpaths import (
    GtPath,
    RemovalDistribution,
    enumerate_paths,
    exact_removal_distribution,
    next_step_distribution,
    sample_gt_path,
    sample_gt_rows,
    sample_remove_box,
)
from equichan.realize import IrrepRealization, canonical_realization
from equichan.transforms import (
    BlockIsometry,
    general_cg,
    permutation_operator,
    schur_transform,
    simple_cg,
    unvec,
    vec,
)
from equichan.channels import (
    ChoiMatrix,
    ExtremalSpec,
    ExtremalTriple,
    block_decompose_choi,
    check_symmetries,
    cloning_spec,
    dual_uss_channel,
    enumerate_extremal_triples,
    extremal_choi,
    factored_channel,
    irrep_channel,
    purity_spec,
    symmetrization_spec,
    uss_channel,
)
from equichan.streaming import (
    ResourceLedger,
    resource_estimate,
    streamed_apply,
)
from equichan.apps import AppResult, clone, purity_amplify, symmetrize
from equichan.verify import VerificationReport, haar_unitary, tv_distance

__version__ = "0.1.0"

__all__ = [
    "AppResult",
    "BlockIsometry",
    "ChoiMatrix",
    "ExtremalSpec",
    "ExtremalTriple",
    "GtPath",
    "IrrepRealization",
    "RemovalDistribution",
    "ResourceLedger",
    "Staircase",
    "VerificationReport",
    "add_boxes",
    "block_decompose_choi",
    "canonical_realization",
    "check_symmetries",
    "clone",
    "cloning_spec",
    "dim_gl_irrep",
    "dim_perm_irrep",
    "dual_uss_channel",
    "enumerate_extremal_triples",
    "enumerate_paths",
    "enumerate_staircases",
    "exact_removal_distribution",
    "extremal_choi",
    "factored_channel",
    "general_cg",
    "haar_unitary",
    "irrep_channel",
    "lr_coeff",
    "next_step_distribution",
    "permutation_operator",
    "purity_amplify",
    "purity_spec",
    "remove_boxes",
    "resource_estimate",
    "sample_gt_path",
    "sample_gt_rows",
    "sample_remove_box",
    "schur_transform",
    "simple_cg",
    "streamed_apply",
    "sym_dim",
    "symmetrization_spec",
    "symmetrize",
    "tv_distance",
    "unvec",
    "uss_channel",
    "vec",
    "__version__",
]
