"""Spectral curves, holomorphic spheres and boundary data of SU(2)
hyperbolic monopoles.

The correspondence implemented here runs in both directions: a curve
matrix factors into a holomorphic sphere, a sphere projects to rational
maps and recovers its curve, boundary metric data reconstructs the
curve, and the charge-2 family carries the closure, bracket and
Poncelet structures plus an explicit axially symmetric field.
"""

from .axial import (
    AxialField,
    GaugeSample,
    H_matrix,
    ResidualReport,
    bog_residual,
    gauge_fields,
    mass_profile,
    sech_field,
    sphere_of_sech,
    zero_mass_field,
)
from .boundary import (
    connection_at_infinity,
    curvature_density,
    degree_integral,
    metric_h,
    reconstruct_psi_from_metric,
)
from .centering import (
    FlowResult,
    Mobius,
    MomentValue,
    act_sl2,
    center_flow,
    centre_point,
    moment_map,
    norm2,
)
from .charge2 import (
    PonceletPolygon,
    PSequence,
    Su2Triple,
    ZLattice,
    bracket,
    diagonal_quartic,
    estimate_mass,
    from_su2_triple,
    is_centred,
    mass_flow_check,
    p_sequence,
    poncelet,
    to_su2_triple,
    triple_product,
    z_lattice,
)
from .curves import (
    SpectralMatrix,
    axial_spectral,
    curve_spectrum,
    eval_psi,
    metric_scale_residual,
    normalize_reality,
    positivity_check,
)
from .errors import (
    ConvergenceError,
    MonosphereError,
    ValidationError,
)
from .projective import SpherePoint, antipode, chordal, proj_roots
from .ratmap import (
    ProjLine,
    RationalMap,
    find_line,
    massless_curve,
    project_map,
    spectral_slice,
)
from .spheres import (
    CoeffTuple,
    HoloSphere,
    eval_sphere,
    factor_sphere,
    fullness_check,
    pairing,
    spectral_from_sphere,
    sphere_to_tuple,
    tuple_to_sphere,
)

__version__ = "0.1.0"
