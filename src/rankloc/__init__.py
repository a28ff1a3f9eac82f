"""Rank-metric array codes with rack locality.

Exact GF(q) arithmetic and finite-field towers, evaluation codes built
from linearized polynomials whose column blocks form repair groups,
crisscross erasure/error handling with a local-then-global decoder,
lifting to constant-dimension subspace codes, and a noisy-network
download simulator.
"""

from ._kernels import BACKEND
from .codes import (
    DEFAULT_ORACLE_BUDGET,
    CodeParams,
    GabidulinCode,
    LocalRankCode,
    OracleBudgetError,
    build_code,
    interpolate,
    min_rank_distance,
    rack_min_ranks,
    rank_distance_bound,
    sampled_min_rank,
    sampled_min_ranks,
)
from .crisscross import (
    CorrectionReport,
    Cover,
    correctable,
    crisscross_weight,
    decode_erasures,
    decode_erasures_batch,
    locally_correctable,
)
from .gf import (
    AmbiguousErasureError,
    Field,
    FieldSpec,
    FieldTower,
    gfq_matmul,
    gfq_rank,
    gfq_rank_batch,
    gfq_rank_codes,
    gfq_row_reduce,
    gfq_solve,
    tower_build,
)
from .linpoly import LinearizedPoly
from .netsim import (
    ChannelConfig,
    ChannelOutput,
    TrialReport,
    channel_apply,
    decode_subspace_min,
    local_candidates,
    run_trials,
    solve_download,
    transmit_matrix,
)
from .rng import SplitMix64, mix64
from .subspace import (
    LocalityReport,
    Subspace,
    lift,
    min_subspace_distance,
    rcef,
    subspace_distance,
    verify_subspace_locality,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousErasureError",
    "BACKEND",
    "ChannelConfig",
    "ChannelOutput",
    "CodeParams",
    "CorrectionReport",
    "Cover",
    "DEFAULT_ORACLE_BUDGET",
    "Field",
    "FieldSpec",
    "FieldTower",
    "GabidulinCode",
    "LinearizedPoly",
    "LocalRankCode",
    "LocalityReport",
    "OracleBudgetError",
    "SplitMix64",
    "Subspace",
    "TrialReport",
    "build_code",
    "channel_apply",
    "correctable",
    "crisscross_weight",
    "decode_erasures",
    "decode_erasures_batch",
    "decode_subspace_min",
    "gfq_matmul",
    "gfq_rank",
    "gfq_rank_batch",
    "gfq_rank_codes",
    "gfq_row_reduce",
    "gfq_solve",
    "interpolate",
    "lift",
    "local_candidates",
    "locally_correctable",
    "min_rank_distance",
    "min_subspace_distance",
    "mix64",
    "rack_min_ranks",
    "rank_distance_bound",
    "rcef",
    "run_trials",
    "sampled_min_rank",
    "sampled_min_ranks",
    "solve_download",
    "subspace_distance",
    "tower_build",
    "transmit_matrix",
    "verify_subspace_locality",
]
