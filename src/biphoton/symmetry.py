"""Quantify the two spectral symmetries a biphoton state can carry.

A coincidence peak at the beamsplitter needs the spectra to be correlated
with polarization (exchange antisymmetry, f_v1h2 = -f_h1v2), while
sin^2 polarization correlations need them correlated with path
(f_v1h2 = -swap(f_h1v2)).  The two conditions coincide only for exchange-
symmetric envelopes, so a state can carry either one without the other;
the residuals below measure each violation as a probability, and classify
labels the four possible combinations.

Everything here reads the quadratures in ``core.StateReductions`` of
F1 = f_h1v2 and F2 = f_v1h2:

    as_residual = (1/4) ||F1 + F2||^2
    bell_residual = (1/2) ||F1 + swap F2||^2
    P_cc(0) = (n1 + n2)/4 - (1/2) Re<F1, F2>    (``beamsplitter``'s closed form)

and ``classify`` builds its whole report, CHSH S and the 45-degree
visibility included, from one reductions pass over the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .beamsplitter import _coincidence
from .core import StateReductions, TwoPhotonState, reductions
from .correlation import DEFAULT_CHSH_ANGLES, _chsh, _visibility_45

#: Residuals below this are treated as exact symmetry.
DEFAULT_CLASSIFICATION_THRESHOLD = 1e-3

#: (exchange antisymmetric, path correlated) -> label.
_LABELS = {
    (True, True): "Both",
    (True, False): "AS-only",
    (False, True): "Bell-only",
    (False, False): "Neither",
}


def _residuals(state: TwoPhotonState) -> tuple[StateReductions, float, float]:
    """Reductions of a normalized state, with its as and bell residuals."""
    red = reductions(state)
    red.require_normalized()
    return red, 0.25 * red.plus_norm, 0.5 * red.path_plus_norm


def as_residual(state: TwoPhotonState) -> float:
    """Violation of exchange antisymmetry, as a probability in [0, 1].

        (1/4) integral |f_h1v2 + f_v1h2|^2 dw dw'

    This is exactly the probability that both photons bunch into one
    output port, so as_residual + coincidence probability at zero delay
    = 1.  It vanishes iff f_v1h2 = -f_h1v2 almost everywhere on the grid,
    the condition for a full-height coincidence peak.
    """
    return _residuals(state)[1]


def bell_residual(state: TwoPhotonState) -> float:
    """Violation of the path-correlation (singlet) condition.

        (1/2) integral |f_h1v2(w, w') + f_v1h2(w', w)|^2 dw dw'

    For a normalized state this equals 1 + Re<f_h1v2, swap(f_v1h2)> and
    ranges over [0, 2]: 0 iff f_v1h2 = -swap(f_h1v2) (the condition for
    exact sin^2(theta1 - theta2) correlations), 1 when the two terms are
    spectrally orthogonal, 2 for the plus-sign counterpart.
    """
    return _residuals(state)[2]


@dataclass(frozen=True)
class SymmetryReport:
    """Classification of a state's spectral symmetries.

    label is one of "Both", "AS-only", "Bell-only", "Neither", from
    thresholding the two residuals.  The remaining fields are the
    operational quantities the two symmetries control: the zero-delay
    coincidence probability (1 iff AS), the CHSH S value and the
    45-degree-basis fringe visibility (maximal iff Bell).
    """

    as_residual: float
    bell_residual: float
    label: str
    coincidence_at_zero_delay: float
    chsh_value: float
    basis45_visibility: float

    def __post_init__(self) -> None:
        labels = tuple(_LABELS.values())
        if self.label not in labels:
            raise ValueError(f"label must be one of {labels}, got {self.label!r}")


def classify(
    state: TwoPhotonState,
    threshold: float = DEFAULT_CLASSIFICATION_THRESHOLD,
    chsh_angles: tuple[float, float, float, float] = DEFAULT_CHSH_ANGLES,
) -> SymmetryReport:
    """Threshold both residuals and report the operational consequences.

    A residual below ``threshold`` counts as satisfied symmetry.  The
    default threshold sits far above quadrature noise and far below any
    physical mismatch in the bundled configurations.
    """
    if not (0.0 < threshold < 1.0) or not math.isfinite(threshold):
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    red, r_as, r_bell = _residuals(state)
    return SymmetryReport(
        as_residual=r_as,
        bell_residual=r_bell,
        label=_LABELS[(r_as < threshold, r_bell < threshold)],
        coincidence_at_zero_delay=float(_coincidence(red.n1 + red.n2, red.overlap, 1.0)),
        chsh_value=_chsh(red, chsh_angles),
        basis45_visibility=_visibility_45(red),
    )
