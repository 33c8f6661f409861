"""Exact zero intervals and convex-roof upper bounds for the three-tangle.

For a rank-two mixture of three-qubit states the pure states with vanishing
three-tangle inside the span form at most four Bloch-sphere points; their
convex hull cut with the mixing axis yields the exact interval where the
roof is zero, and certified upper bounds (linearized, pivot, lower convex
envelope) extend the picture to every mixing weight.
"""

from ._kernels import backend_name
from .bloch import (
    AxisInterval,
    IntervalWitness,
    ZeroPolytope,
    axis_zero_interval,
    bloch_from_z,
    build_polytope,
    state_from_bloch,
)
from .bounds import (
    AnchorSet,
    BoundCurve,
    BoundReport,
    SpanGeometry,
    characteristic_curve,
    convex_envelope,
    default_anchors,
    linearized_upper_bound,
    span_geometries,
    span_geometry,
    upper_bound_report,
)
from .invariants import (
    c3,
    c3_many,
    one_tangle,
    three_tangle,
    wootters_concurrence,
)
from .pencil import (
    IdenticallyZeroPencilError,
    ZeroSet,
    pencil_polynomial,
    polynomial_roots,
    zero_set,
)
from .sampling import average_c3, min_average_c3, random_decomposition
from .scenarios import (
    FourQubitFamily,
    MonogamyReport,
    SimplexScanRow,
    ToyReport,
    four_qubit_state,
    has_interior_volume_zero,
    monogamy_curve,
    monogamy_report,
    phi_threshold_bisect,
    q_of_p,
    reduced_mixture,
    simplex_scan,
    toy_mixture,
    toy_report,
    toy_states,
)
from .states import (
    DensityMatrix,
    PureState,
    RankExceededError,
    RankTwoMixture,
    inner_product,
    load_state,
    make_ghz,
    make_w,
    partial_trace,
    rank_two_eigendecomposition,
    superpose,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "backend_name",
    "AxisInterval",
    "IntervalWitness",
    "ZeroPolytope",
    "axis_zero_interval",
    "bloch_from_z",
    "build_polytope",
    "state_from_bloch",
    "AnchorSet",
    "BoundCurve",
    "BoundReport",
    "SpanGeometry",
    "characteristic_curve",
    "convex_envelope",
    "default_anchors",
    "linearized_upper_bound",
    "span_geometries",
    "span_geometry",
    "upper_bound_report",
    "c3",
    "c3_many",
    "one_tangle",
    "three_tangle",
    "wootters_concurrence",
    "IdenticallyZeroPencilError",
    "ZeroSet",
    "pencil_polynomial",
    "polynomial_roots",
    "zero_set",
    "average_c3",
    "min_average_c3",
    "random_decomposition",
    "FourQubitFamily",
    "MonogamyReport",
    "SimplexScanRow",
    "ToyReport",
    "four_qubit_state",
    "has_interior_volume_zero",
    "monogamy_curve",
    "monogamy_report",
    "phi_threshold_bisect",
    "q_of_p",
    "reduced_mixture",
    "simplex_scan",
    "toy_mixture",
    "toy_report",
    "toy_states",
    "DensityMatrix",
    "PureState",
    "RankExceededError",
    "RankTwoMixture",
    "inner_product",
    "load_state",
    "make_ghz",
    "make_w",
    "partial_trace",
    "rank_two_eigendecomposition",
    "superpose",
]
