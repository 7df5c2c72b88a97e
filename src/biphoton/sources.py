"""Builders for the biphoton states the analysis modules consume.

The physical model is a pulsed type-II downconversion source: a Gaussian
pump envelope constrains the sum frequency, each photon carries a Gaussian
marginal envelope, and birefringent walk-off attaches a group delay to each
polarization.  The builders below also produce idealized reference states
(exact exchange-antisymmetric states, path-entangled Bell states, two-color
gedanken states) used to separate the two spectral symmetries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_GRID_POINTS,
    SPEED_OF_LIGHT,
    Factors,
    FrequencyGrid,
    JointAmplitude,
    TwoPhotonState,
    hankel_sum,
    norm_squared,
    wavelength_to_angular_frequency,
)

#: Maximum allowed envelope magnitude at the grid boundary, relative to the
#: envelope peak.  Larger values mean the grid truncates the state.
EDGE_FRACTION_TOL = 1e-3


@dataclass(frozen=True)
class SpdcParams:
    """Pulsed type-II source parameters, all in SI units.

    sigma_h and sigma_v are RMS widths of the single-photon intensity
    spectra (the amplitude envelope is exp(-x^2 / (4 sigma^2))).  t_h and
    t_v are the most probable emission times of the H and V photon; their
    difference is the birefringent walk-off.  phi is the relative phase
    between the two emission alternatives (pi gives the minus
    configuration).  extra_group_delay_arm2 retards whichever photon
    travels path 2, modeling a path-length mismatch between the arms.

    The 2:1 default bandwidth ratio is a placeholder for an uncompensated
    crystal, not a fitted value; override it through the config.
    """

    pump_center_wavelength: float = 390e-9
    pump_duration_fwhm: float = 120e-15
    sigma_h: float = 6.0e13
    sigma_v: float = 3.0e13
    t_h: float = 0.0
    t_v: float = 400e-15
    phi: float = math.pi
    extra_group_delay_arm2: float = 0.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.pump_center_wavelength <= 0.0:
            raise ValueError("pump_center_wavelength must be positive")
        if self.pump_duration_fwhm <= 0.0:
            raise ValueError("pump_duration_fwhm must be positive")
        if self.sigma_h <= 0.0 or self.sigma_v <= 0.0:
            raise ValueError("photon bandwidths must be positive")
        # type2_joint_envelope divides by 4 sigma^2 for each of the three
        # widths: the square must neither overflow nor underflow to zero.
        for given, sigma in (
            (f"sigma_h = {self.sigma_h!r} rad/s", self.sigma_h),
            (f"sigma_v = {self.sigma_v!r} rad/s", self.sigma_v),
            (f"pump_duration_fwhm = {self.pump_duration_fwhm!r} s", self.pump_sigma),
        ):
            squared = 4.0 * sigma * sigma
            if not 0.0 < squared < math.inf:
                raise ValueError(
                    f"{given} is out of range: the squared spectral width "
                    f"4 sigma^2 = {squared!r} is not a finite positive number"
                )

    @property
    def photon_center_frequency(self) -> float:
        """Degenerate photons sit at half the pump frequency."""
        return 0.5 * wavelength_to_angular_frequency(self.pump_center_wavelength)

    @property
    def pump_sigma(self) -> float:
        """RMS width of the pump intensity spectrum.

        For a transform-limited Gaussian pulse of intensity FWHM T the
        spectral intensity RMS width is sqrt(2 ln 2) / T.
        """
        return math.sqrt(2.0 * math.log(2.0)) / self.pump_duration_fwhm


#: Filter shape -> amplitude transmission at offsets x from the filter center
#: for an intensity FWHM ``width`` (the Gaussian is the root of a Gaussian intensity).
FILTER_SHAPES = {
    "gaussian": lambda x, width: np.exp(-2.0 * math.log(2.0) * (x / width) ** 2),
    "tophat": lambda x, width: (np.abs(x) <= 0.5 * width).astype(np.float64),
}


@dataclass(frozen=True)
class FilterParams:
    """Spectral filter placed in front of each detector.

    ``fwhm`` is the full width at half maximum of the *intensity*
    transmission, quoted in wavelength; it is converted to angular
    frequency linearly about the center wavelength, so it must be
    smaller than the center wavelength.
    """

    center_wavelength: float = 780e-9
    fwhm: float = 20e-9
    shape: str = "gaussian"

    def __post_init__(self) -> None:
        for name in ("center_wavelength", "fwhm"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"filter {name} must be finite and positive, got {value!r}")
        if self.fwhm >= self.center_wavelength:
            raise ValueError(
                f"filter fwhm {self.fwhm!r} m must be below its center wavelength "
                f"{self.center_wavelength!r} m: a linear width conversion is meaningless there"
            )
        if self.shape not in FILTER_SHAPES:
            raise ValueError(f"unknown filter shape {self.shape!r}")

    @property
    def center_frequency(self) -> float:
        return wavelength_to_angular_frequency(self.center_wavelength)

    @property
    def fwhm_frequency(self) -> float:
        lam = self.center_wavelength
        return 2.0 * math.pi * SPEED_OF_LIGHT * self.fwhm / (lam * lam)


def default_grid(params: SpdcParams, n_points: int = DEFAULT_GRID_POINTS) -> FrequencyGrid:
    """Grid centered on the degenerate photon frequency.

    The half width is six times the largest photon RMS bandwidth, wide
    enough that every Gaussian envelope decays below EDGE_FRACTION_TOL at
    the boundary.
    """
    half_width = 6.0 * max(params.sigma_h, params.sigma_v)
    return FrequencyGrid.centered(params.photon_center_frequency, half_width, n_points)


def gaussian_line(grid: FrequencyGrid, center: float, sigma: float) -> np.ndarray:
    """Single-photon Gaussian amplitude envelope sampled on the grid.

    ``sigma`` is the RMS width of the intensity spectrum, so the amplitude
    is exp(-(w - center)^2 / (4 sigma^2)), scaled so that the trapezoid
    quadrature of the intensity is one.
    """
    if not math.isfinite(center):
        raise ValueError(f"center must be finite, got {center}")
    if not (sigma > 0.0 and 0.0 < 4.0 * sigma * sigma < math.inf):
        raise ValueError(f"sigma must be finite and positive, as must 4 sigma^2, got {sigma}")
    x = grid.points() - center
    with np.errstate(over="ignore"):  # where x^2 overflows, the line is exp(-inf) = 0
        g = np.exp(-(x * x) / (4.0 * sigma * sigma))
    total = float(np.sum(grid.trapezoid_weights() * g * g))
    if total <= 0.0:
        raise ValueError("envelope vanishes on the grid; center is off-grid")
    return g / math.sqrt(total)


def _check_grid_wide_enough(peak: float, edge: float, what: str) -> None:
    # Compare the largest boundary magnitude |F| against the peak |F|.
    if peak == 0.0:
        raise ValueError(f"{what} vanishes everywhere on the grid")
    if edge > EDGE_FRACTION_TOL * peak:
        raise ValueError(
            f"grid too narrow for {what}: boundary amplitude is {edge / peak:.3e} "
            f"of the peak (limit {EDGE_FRACTION_TOL:.1e}); widen the grid"
        )


def _extremes(mags: np.ndarray) -> tuple[float, float]:
    """Peak and largest boundary value of a dense N x N magnitude."""
    edge = max(mags[0].max(), mags[-1].max(), mags[:, 0].max(), mags[:, -1].max())
    return float(mags.max()), float(edge)


def _outer_extremes(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """``_extremes`` of |a_i b_j| from the two vectors alone."""
    a, b = np.abs(a), np.abs(b)
    edge = max(max(a[0], a[-1]) * b.max(), a.max() * max(b[0], b[-1]))
    return float(a.max() * b.max()), float(edge)


def _type2_factors(params: SpdcParams, grid: FrequencyGrid):
    """|F|[i, j] = g_h[i] g_v[j] pump[i + j] of the type-II envelope, with its
    ``_extremes``: the pump depends only on w_H + w_V, so its 2N - 1 values
    fill |F| as a Hankel matrix.

    Along row i, |F| is a Gaussian in w_V peaked at
    x_V = -x_H sigma_v^2 / (sigma_v^2 + sigma_p^2), so the row's largest
    sample is at one of the two grid points around that; the peak takes
    O(N) products, each rounded as in the dense |F|.
    """
    n = grid.n_points
    x = grid.points() - params.photon_center_frequency
    sums = np.concatenate((x[0] + x, x[-1] + x[1:]))
    with np.errstate(over="ignore"):  # where a square overflows, the factor is exp(-inf) = 0
        g_h, g_v = (np.exp(-(x * x) / (4.0 * s**2)) for s in (params.sigma_h, params.sigma_v))
        pump = np.exp(-(sums * sums) / (4.0 * params.pump_sigma**2))
    pull = params.sigma_v**2 / (params.sigma_v**2 + params.pump_sigma**2)
    below = np.floor((-pull * x - x[0]) / grid.step)
    cols = np.clip(np.stack((below, below + 1.0)), 0, n - 1).astype(np.intp)
    peak = (g_h * g_v[cols] * pump[np.arange(n) + cols]).max()
    edge = max(
        (g_h[0] * g_v * pump[:n]).max(),
        (g_h[-1] * g_v * pump[n - 1 :]).max(),
        (g_h * g_v[0] * pump[:n]).max(),
        (g_h * g_v[-1] * pump[n - 1 :]).max(),
    )
    return (g_h, g_v, pump), (float(peak), float(edge))


def type2_joint_envelope(params: SpdcParams, grid: FrequencyGrid) -> JointAmplitude:
    """Joint amplitude of one emission alternative of the pulsed source.

    F(w_H, w_V) = G(w_H; sigma_h) G(w_V; sigma_v) P(w_H + w_V)
                  * exp(i (w_H t_h + w_V t_v))

    with G Gaussian photon envelopes around the degenerate frequency and P
    the Gaussian pump envelope around the pump frequency.  Not normalized.
    """
    (g_h, g_v, pump), _ = _type2_factors(params, grid)
    x, y = g_h * grid.phase(params.t_h, "t_h"), g_v * grid.phase(params.t_v, "t_v")
    return JointAmplitude(grid, factors=Factors(x, y, pump))


def build_type2_ultrafast(
    params: SpdcParams,
    grid: FrequencyGrid,
    filt: FilterParams | None = None,
    *,
    antisymmetric: bool = False,
) -> TwoPhotonState:
    """Biphoton state of the pulsed type-II source.

    Both emission alternatives share the envelope of
    ``type2_joint_envelope`` because the spectral and temporal properties
    follow the polarization, not the path:

        f_h1v2 = F,    f_v1h2 = exp(-i phi) * F.

    A nonzero arm-2 group delay then multiplies whichever frequency factor
    rides in path 2 -- omega_V in the first term, omega_H in the second --
    by exp(i omega delay), breaking the exchange antisymmetry that an
    identical-arms minus configuration (phi = pi) satisfies exactly.
    ``filt`` filters both photons alike, which keeps both symmetries.  With
    ``antisymmetric`` the state is ``build_antisymmetric`` of F instead
    (f_v1h2 = -f_h1v2 exactly; phi and the arm-2 delay are not used).
    """
    (g_h, g_v, pump), extremes = _type2_factors(params, grid)
    _check_grid_wide_enough(*extremes, "the joint spectral envelope")
    w = grid.trapezoid_weights()

    def norm_with(tau) -> float:
        # sum_ij w_i w_j tau_i tau_j |F[i, j]|^2, a convolution against pump^2
        return float(hankel_sum(pump * pump, w * tau * g_h**2, w * tau * g_v**2))

    t = 1.0 if filt is None else _filter_transmission(filt, grid)
    total = norm_with(t * t)
    if filt is not None and total <= 1e-12 * norm_with(1.0):
        raise ValueError(
            f"filter support lies outside the grid: it keeps norm^2 {total!r} of {norm_with(1.0)!r}"
        )
    row = (t * g_h / math.sqrt(total)) * grid.phase(params.t_h, "t_h")
    col = (t * g_v) * grid.phase(params.t_v, "t_v")
    delay2 = params.extra_group_delay_arm2
    arm2 = 1.0 if antisymmetric else grid.phase(delay2, "extra_group_delay_arm2")
    f1 = Factors(row, col * arm2, pump)
    if antisymmetric:
        f2 = Factors(-row, f1.y, pump)
    else:
        f2 = Factors(np.exp(-1j * params.phi) * row * arm2, col, pump)
    return TwoPhotonState(JointAmplitude(grid, factors=f1), JointAmplitude(grid, factors=f2))


def build_antisymmetric(envelope: JointAmplitude) -> TwoPhotonState:
    """Exchange-antisymmetric state for an arbitrary joint envelope.

    Sets f_v1h2 = -f_h1v2 by exact negation, so the coincidence peak
    condition holds identically on the grid regardless of the envelope.
    """
    _check_grid_wide_enough(*_extremes(np.abs(envelope.values)), "the joint spectral envelope")
    # State norm is 0.5 (|f1|^2 + |f2|^2) = |envelope|^2 here.
    total = norm_squared(envelope)
    if total <= 0.0:
        raise ValueError("envelope must be nonzero")
    f1 = envelope.values / math.sqrt(total)
    return TwoPhotonState(JointAmplitude(envelope.grid, f1), JointAmplitude(envelope.grid, -f1))


def build_bell_psi_minus(
    envelope1: np.ndarray, envelope2: np.ndarray, grid: FrequencyGrid
) -> TwoPhotonState:
    """Singlet-type state whose path labels carry the spectral envelopes.

    The path-1 photon always carries ``envelope1`` and the path-2 photon
    ``envelope2``, whatever the polarization:

        f_h1v2(w_H, w_V) = g1(w_H) g2(w_V)
        f_v1h2(w_H, w_V) = -g1(w_V) g2(w_H)

    which is exactly f_v1h2 = -swap(f_h1v2), the condition for perfect
    sin^2 polarization correlations.  Envelopes must be unit-normalized
    1D amplitudes on the grid.
    """
    # copies: the state keeps the envelopes as its factors
    g1 = np.array(envelope1, dtype=np.complex128)
    g2 = np.array(envelope2, dtype=np.complex128)
    if g1.shape != (grid.n_points,) or g2.shape != (grid.n_points,):
        raise ValueError("envelopes must be 1D arrays sampled on the grid")
    w = grid.trapezoid_weights()
    total = 1.0  # both terms have norm^2 ||g1||^2 ||g2||^2
    for name, g in (("envelope1", g1), ("envelope2", g2)):
        norm = float(np.sum(w * np.abs(g) ** 2))
        if not abs(norm - 1.0) <= 1e-6:  # NaN fails this too
            raise ValueError(f"{name} is not normalized: integral |g|^2 = {norm!r}")
        total *= norm
    g1 = g1 / math.sqrt(total)
    _check_grid_wide_enough(*_outer_extremes(g1, g2), "the Bell-state envelope")
    ones = np.ones(2 * grid.n_points - 1)
    return TwoPhotonState(
        JointAmplitude(grid, factors=Factors(g1, g2, ones)),
        JointAmplitude(grid, factors=Factors(-g2, g1, ones)),
    )


TWO_COLOR_CASES = ("i", "ii")


def build_two_color(
    case: str, red_center: float, blue_center: float, bandwidth: float, grid: FrequencyGrid
) -> TwoPhotonState:
    """Two-color gedanken states separating the two spectral symmetries.

    Case "i" ties color to polarization (the H photon is always red), so
    exchange antisymmetry holds exactly but the polarization correlations
    collapse.  Case "ii" ties color to path (the path-1 photon is always
    red), the Bell form, so sin^2 correlations survive but the coincidence
    peak is lost.  The colors must be separated by more than ten
    bandwidths to count as fully distinguishable.
    """
    if case not in TWO_COLOR_CASES:
        raise ValueError(f"case must be one of {TWO_COLOR_CASES}, got {case!r}")
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be positive")
    if abs(red_center - blue_center) <= 10.0 * bandwidth:
        raise ValueError(
            "color separation must exceed 10x the bandwidth: "
            f"|{red_center} - {blue_center}| <= 10 * {bandwidth}"
        )
    # Unit lines: both terms have norm^2 ||red||^2 ||blue||^2 = 1.
    red = gaussian_line(grid, red_center, bandwidth)
    blue = gaussian_line(grid, blue_center, bandwidth)
    _check_grid_wide_enough(*_outer_extremes(red, blue), "the two-color envelope")
    ones = np.ones(2 * grid.n_points - 1)
    f2 = Factors(-red, blue, ones) if case == "i" else Factors(-blue, red, ones)
    return TwoPhotonState(
        JointAmplitude(grid, factors=Factors(red, blue, ones)), JointAmplitude(grid, factors=f2)
    )


def _filter_transmission(filt: FilterParams, grid: FrequencyGrid) -> np.ndarray:
    """Amplitude transmission of ``filt`` on the grid."""
    center = filt.center_frequency
    if not grid.omega_min <= center <= grid.omega_max:
        raise ValueError(
            f"filter center {center!r} rad/s lies outside the grid's frequency span "
            f"[{grid.omega_min!r}, {grid.omega_max!r}] rad/s"
        )
    with np.errstate(over="ignore"):  # far outside a passband, the transmission is exp(-inf) = 0
        return FILTER_SHAPES[filt.shape](grid.points() - center, filt.fwhm_frequency)
