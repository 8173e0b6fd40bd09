"""Continuous isometry invariants of periodic point sets."""

from .amd import AmdVector, amd
from .core import (
    DataError,
    PeriodicSet,
    RadiusReport,
    UnitCell,
    apply_isometry,
    bridge_length,
    change_cell,
    easy_stable_radius,
    packing_covering_radii,
    radius_report,
    reduce_basis,
    translate,
)
from .density import (
    DensityFingerprint1D,
    PiecewiseLinear,
    fingerprints_equal_1d,
    psi0_1d,
    psi_k_1d,
    psi_k_sampled,
    psi_sampled,
    trapezoid,
)
from .io import ParseError, parse_set_file, write_set_json, write_set_text
from .isoset import (
    Cluster,
    Isoset,
    Isotree,
    IsometryClass,
    OrthogonalMap,
    SymmetryGroup,
    alpha_cluster,
    alpha_partition,
    clusters_isometric,
    common_stable_alpha,
    isoset,
    isosets_equal,
    isotree,
    minimum_stable_radius,
    stable_alpha,
    symmetry_group,
)
from .metric import (
    TransportPlan,
    bottleneck_distance_common_cell,
    d_C,
    d_M,
    d_R_approx,
    d_R_exact_small,
    directed_hausdorff,
    emd,
)

__version__ = "0.1.0"
