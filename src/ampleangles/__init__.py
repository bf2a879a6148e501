"""Exact computation of bodies of ample angles on rational surfaces."""

from .geometry import (
    UNKNOWN,
    UNSUPPORTED,
    DivisorClass,
    SurfaceModel,
    fn_irreducible_admissible,
    hirzebruch,
    intersect,
    is_ample,
    projective_plane,
)
from .pairs import (
    AngleVector,
    LogPair,
    NodeRecord,
    angles as angle_vector,
    blow_up_node,
    blow_up_smooth_point,
    contract,
    dual_graph,
    is_anticanonical,
    is_cycle,
    is_minimal,
    log_adjoint,
    make_pair,
)
from .angles import (
    AABody,
    aa_halfspaces_rank_le2,
    aa_outer_blowup,
    eta,
    is_aldp,
    is_log_dp,
    is_strongly_aldp,
    reparam,
)
from .classify import enumerate_maeda, enumerate_rank2, match_label

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
