"""Polarization correlations and the CHSH statistic.

Each arm carries a linear analyzer; the projection of path 1 onto angle
theta1 and path 2 onto theta2 turns the two-term biphoton state into a
single detection amplitude per frequency pair.  The integrated rate
varies as sin^2(theta1 - theta2) exactly when the spectra are correlated
with path (f_v1h2 = -swap(f_h1v2)); the machinery below measures how far
a given state is from that behavior, from fitted fringe visibilities up
to the CHSH S value.

Every observable here is a closed-form function of the quadratures in
``core.StateReductions`` of F1 = f_h1v2 and F2 = f_v1h2: the norms n1 and
n2 and the path-ordered overlap <F1, swap F2>.  With
a = cos t1 sin t2 and b = sin t1 cos t2,

    R(t1, t2) = (a^2 n1 + b^2 n2 + 2 a b Re<F1, swap F2>) / (n1 + n2)
    E(alpha, beta) = -cos 2alpha cos 2beta
                     + (2 Re<F1, swap F2> / (n1 + n2)) sin 2alpha sin 2beta
    V45 = 2 |<F1, swap F2>| / (n1 + n2)

E, defined by the four-rate combination, and the correlation_scan
fringe are evaluated in these closed forms.  Each public function takes
one reductions pass over the grid per state, whatever the number of
angles it evaluates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import StateReductions, TwoPhotonState, reductions

#: Analyzer angles (a, a', b, b') maximizing S for a singlet-type state.
DEFAULT_CHSH_ANGLES: tuple[float, float, float, float] = (
    0.0,
    math.pi / 4.0,
    math.pi / 8.0,
    3.0 * math.pi / 8.0,
)

#: Fringe amplitudes below this fraction of the mean rate are
#: reported as a flat curve.
DEGENERATE_FRINGE_FRACTION = 1e-12


def rc_integrated(state: TwoPhotonState, theta1: float, theta2: float) -> float:
    """Frequency-integrated coincidence rate behind two linear analyzers.

        R(t1, t2) = (1/N) * integral |cos t1 sin t2 * f_h1v2(w, w')
                                      + sin t1 cos t2 * f_v1h2(w', w)|^2

    The argument swap on f_v1h2 rewrites it in path order (first argument
    = path-1 photon frequency) so both terms project the same way: cos for
    an H photon, sin for a V photon, arm 1 angle on the path-1 photon.
    N = n1 + n2 normalizes the complete analyzer basis: the four outcomes
    (t1, t2), (t1, t2+pi/2), (t1+pi/2, t2), (t1+pi/2, t2+pi/2) sum to 1.
    Expanding the square gives the closed form in the module docstring.
    """
    return _rate(reductions(state), theta1, theta2)


def _rate(red: StateReductions, theta1: float, theta2: float) -> float:
    _require_finite(theta1, theta2)
    a = math.cos(theta1) * math.sin(theta2)
    b = math.sin(theta1) * math.cos(theta2)
    return _per_norm(red, a * a * red.n1 + b * b * red.n2 + 2.0 * a * b * red.path_overlap.real)


def _require_finite(*angles: float) -> None:
    for theta in angles:
        if not math.isfinite(theta):
            raise ValueError(f"analyzer angle must be finite, got {theta!r}")


def _per_norm(red: StateReductions, value: float) -> float:
    """value / (n1 + n2), refusing a zero-norm state."""
    total = red.n1 + red.n2
    if total <= 0.0:
        raise ValueError("state has zero norm")
    return value / total


@dataclass(frozen=True, eq=False)
class CorrelationCurve:
    """Analyzer-2 scan at fixed analyzer-1 angle with its fringe.

    The fringe model is rate = a + b sin^2(theta2 - c); visibility is
    b / (2a + b), the standard (max - min)/(max + min) of the fringe.
    fit_residual is the RMS gap between the sampled rates and the
    closed-form fringe.  degenerate marks a flat curve, where the phase c
    is meaningless and visibility is set to 0.
    """

    theta1: float
    theta2s: np.ndarray
    rates: np.ndarray
    offset: float
    amplitude: float
    phase: float
    visibility: float
    fit_residual: float
    degenerate: bool

    def __post_init__(self) -> None:
        self.theta2s.setflags(write=False)
        self.rates.setflags(write=False)


def correlation_scan(state: TwoPhotonState, theta1: float, theta2s) -> CorrelationCurve:
    """Scan analyzer 2 and read off the sinusoidal fringe.

    The rate is the exact trigonometric polynomial
    c0 + c1 cos 2t + c2 sin 2t with, for T = n1 + n2,

        c0 = (cos^2 t1 n1 + sin^2 t1 n2) / 2T
        c1 = (sin^2 t1 n2 - cos^2 t1 n1) / 2T
        c2 = sin 2t1 Re<F1, swap F2> / 2T

    so the sin^2 model parameters follow in closed form: with
    rho = hypot(c1, c2),

        b = 2 rho,  a = c0 - rho,  c = atan2(-c2, -c1) / 2.

    The scan must span at least pi, a full fringe period.
    """
    angles = np.asarray(theta2s, dtype=np.float64)
    if angles.ndim != 1 or angles.size < 3:
        raise ValueError("theta2s must be a 1D sequence with at least 3 entries")
    if not np.all(np.isfinite(angles)):
        raise ValueError("theta2s must be finite")
    if angles.max() - angles.min() < math.pi - 1e-12:
        raise ValueError(
            "analyzer-2 scan must span at least pi radians, got "
            f"{angles.max() - angles.min():.6f}"
        )
    angles = np.sort(angles)
    red = reductions(state)
    rates = np.array([_rate(red, theta1, float(t)) for t in angles])
    cos_sq, sin_sq = math.cos(theta1) ** 2, math.sin(theta1) ** 2
    half = _per_norm(red, 0.5)
    c0 = half * (cos_sq * red.n1 + sin_sq * red.n2)
    c1 = half * (sin_sq * red.n2 - cos_sq * red.n1)
    c2 = half * math.sin(2.0 * theta1) * red.path_overlap.real
    fringe = c0 + c1 * np.cos(2.0 * angles) + c2 * np.sin(2.0 * angles)
    rho = math.hypot(c1, c2)
    degenerate = c0 <= 0.0 or rho <= DEGENERATE_FRINGE_FRACTION * c0
    if degenerate:
        rho = 0.0
    return CorrelationCurve(
        theta1=theta1,
        theta2s=angles,
        rates=rates,
        offset=c0 - rho,
        amplitude=2.0 * rho,
        phase=0.0 if degenerate else 0.5 * math.atan2(-c2, -c1),
        visibility=0.0 if degenerate else rho / c0,
        fit_residual=float(np.sqrt(np.mean((rates - fringe) ** 2))),
        degenerate=degenerate,
    )


def correlation_E(state: TwoPhotonState, alpha: float, beta: float) -> float:
    """Correlation coefficient of the +-1 analyzer outcomes.

    Each analyzer has a transmitted (+) and an orthogonal (-) port, the
    latter obtained by rotating the angle by pi/2.  E is defined as the
    standard four-rate combination

        E = (R++ - R+- - R-+ + R--) / (R++ + R+- + R-+ + R--)

    and evaluated as the closed form it reduces to (module docstring).
    """
    return _correlation(reductions(state), alpha, beta)


def _correlation(red: StateReductions, alpha: float, beta: float) -> float:
    _require_finite(alpha, beta)
    k = _per_norm(red, 2.0 * red.path_overlap.real)
    two_a, two_b = 2.0 * alpha, 2.0 * beta
    return -math.cos(two_a) * math.cos(two_b) + k * math.sin(two_a) * math.sin(two_b)


def chsh(
    state: TwoPhotonState,
    angles: tuple[float, float, float, float] = DEFAULT_CHSH_ANGLES,
) -> float:
    """CHSH statistic S = |E(a,b) - E(a,b') + E(a',b) + E(a',b')|.

    S <= 2 for any local-realistic model; a singlet-type state reaches
    2 sqrt(2) at the default angles (0, pi/4, pi/8, 3pi/8).
    """
    return _chsh(reductions(state), angles)


def _chsh(red: StateReductions, angles: tuple[float, float, float, float]) -> float:
    a, a_prime, b, b_prime = (float(x) for x in angles)
    return abs(
        _correlation(red, a, b)
        - _correlation(red, a, b_prime)
        + _correlation(red, a_prime, b)
        + _correlation(red, a_prime, b_prime)
    )


def fringe_visibility_45(state: TwoPhotonState) -> float:
    """Ceiling of the fringe visibility with analyzer 1 at 45 degrees.

    Expanding the analyzer rate shows the fringe modulation is carried
    entirely by the overlap of f_h1v2 with the path-ordered f_v1h2:

        V45 = 2 |<f_h1v2, swap(f_v1h2)>| / (n1 + n2)

    which is 1 for a singlet-type state and 0 when the two emission terms
    are spectrally distinguishable (for example by a large polarization
    walk-off), whatever the coincidence peak looks like.
    """
    return _visibility_45(reductions(state))


def _visibility_45(red: StateReductions) -> float:
    return _per_norm(red, 2.0 * abs(red.path_overlap))
