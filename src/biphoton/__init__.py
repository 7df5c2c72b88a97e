"""Two-photon beamsplitter interference: simulation and symmetry analysis.

The library models the joint spectral amplitude of a photon pair entering
a 50/50 beamsplitter, computes coincidence-versus-delay curves and
polarization correlations, and classifies which of two distinct spectral
symmetries a state carries: exchange antisymmetry, which guarantees a
coincidence peak, and path correlation, which guarantees singlet-type
polarization entanglement.  The central quantitative point is that these
are independent properties, so a coincidence peak alone does not certify
an entangled state.
"""

from .beamsplitter import (
    BsOutputState,
    DelayScanCurve,
    FeynmanDecomposition,
    apply_path1_delay,
    bs_transform,
    coherence_time,
    coincidence_probability,
    delay_scan,
    feynman_decomposition,
)
from .core import (
    DEFAULT_GRID_POINTS,
    FrequencyGrid,
    InvariantError,
    JointAmplitude,
    TwoPhotonState,
    inner_product,
    is_normalized,
    norm_squared,
    normalize,
    require_normalized,
    wavelength_to_angular_frequency,
)
from .correlation import (
    DEFAULT_CHSH_ANGLES,
    CorrelationCurve,
    chsh,
    correlation_E,
    correlation_scan,
    fringe_visibility_45,
    rc_integrated,
)
from .oracle import (
    DiscreteModeBasis,
    apply_bs_exact,
    discretize,
    outcome_probabilities,
    reconstruct,
)
from .sources import (
    FilterParams,
    SpdcParams,
    apply_filters,
    build_antisymmetric,
    build_bell_psi_minus,
    build_two_color,
    build_type2_ultrafast,
    default_grid,
    gaussian_line,
    type2_joint_envelope,
)
from .symmetry import (
    DEFAULT_CLASSIFICATION_THRESHOLD,
    SymmetryReport,
    as_residual,
    bell_residual,
    classify,
)

__all__ = [
    "BsOutputState",
    "CorrelationCurve",
    "DEFAULT_CHSH_ANGLES",
    "DEFAULT_CLASSIFICATION_THRESHOLD",
    "DEFAULT_GRID_POINTS",
    "DelayScanCurve",
    "DiscreteModeBasis",
    "FeynmanDecomposition",
    "FilterParams",
    "FrequencyGrid",
    "InvariantError",
    "JointAmplitude",
    "SpdcParams",
    "SymmetryReport",
    "TwoPhotonState",
    "apply_bs_exact",
    "apply_filters",
    "apply_path1_delay",
    "as_residual",
    "bell_residual",
    "bs_transform",
    "build_antisymmetric",
    "build_bell_psi_minus",
    "build_two_color",
    "build_type2_ultrafast",
    "chsh",
    "classify",
    "coherence_time",
    "coincidence_probability",
    "correlation_E",
    "correlation_scan",
    "default_grid",
    "delay_scan",
    "discretize",
    "feynman_decomposition",
    "fringe_visibility_45",
    "gaussian_line",
    "inner_product",
    "is_normalized",
    "norm_squared",
    "normalize",
    "outcome_probabilities",
    "rc_integrated",
    "reconstruct",
    "require_normalized",
    "type2_joint_envelope",
    "wavelength_to_angular_frequency",
]

__version__ = "0.1.0"
