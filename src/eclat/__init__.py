"""Lattices attached to finite abelian groups and elliptic curves over
prime fields: minimal-vector bases, exact determinants, packing-density and
covering-radius verification."""

from .basis import (
    BasisResult,
    VerificationReport,
    build_minimal_basis,
    cyclic_basis,
    rect_basis,
    verify_basis,
)
from .curves import Curve, CurveGroup, CurvePoint, curve_group, group_structure
from .geometry import (
    CoveringReport,
    DensityReport,
    SampledCoveringReport,
    covering_bounds,
    covering_radius_An_sq,
    cvp,
    mh_window_scan,
    packing_density_log,
    sampled_covering_check,
    zeta,
)
from .groups import (
    AbelianGroup,
    GroupElement,
    make_group,
    parse_group_spec,
)
from .lattice import (
    GramReport,
    Lattice,
    Support,
    Vector,
    dense,
    gram_report,
    minimal_quadruples,
    span_rank,
    support,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "BasisResult",
    "CoveringReport",
    "Curve",
    "CurveGroup",
    "CurvePoint",
    "DensityReport",
    "GramReport",
    "GroupElement",
    "Lattice",
    "SampledCoveringReport",
    "Support",
    "Vector",
    "VerificationReport",
    "build_minimal_basis",
    "covering_bounds",
    "covering_radius_An_sq",
    "curve_group",
    "cvp",
    "cyclic_basis",
    "dense",
    "gram_report",
    "group_structure",
    "make_group",
    "mh_window_scan",
    "minimal_quadruples",
    "packing_density_log",
    "parse_group_spec",
    "rect_basis",
    "sampled_covering_check",
    "span_rank",
    "support",
    "verify_basis",
    "zeta",
]
