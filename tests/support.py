"""Shared test helpers: closed-form Gaussian results, random states, and
direct quadratures.

The analytic formulas here are derived independently of the package's
quadrature (2x2 Gaussian moment algebra), so tests can pin library
outputs against numbers that do not come from the code under test.  The
``direct_*`` functions evaluate the polarization and symmetry observables
the long way, one N^2 quadrature of the defining integrand per angle, as
the reference for the library's closed forms.
"""

from __future__ import annotations

import math

import numpy as np

from biphoton import (
    FrequencyGrid,
    JointAmplitude,
    TwoPhotonState,
    inner_product,
    norm_squared,
    normalize,
)

SPEED_OF_LIGHT = 299_792_458.0


def gaussian_amplitude_overlap(sigma: float, dt: float) -> float:
    """<g, g e^{i w dt}> / |g|^2 for amplitude g = exp(-x^2 / (4 sigma^2)).

    sigma is the RMS width of the intensity |g|^2 = exp(-x^2 / (2 sigma^2));
    the overlap is the characteristic function of that Gaussian, real and
    equal to exp(-sigma^2 dt^2 / 2).
    """
    return math.exp(-0.5 * (sigma * dt) ** 2)


def type2_intensity_precision(
    sigma_h: float,
    sigma_v: float,
    pump_sigma: float,
    filter_fwhm_freq: float | None = None,
) -> np.ndarray:
    """Precision matrix Q of the joint spectral intensity, centered variables.

    |F(x, y)|^2 = exp(-x^2/(2 sH^2) - y^2/(2 sV^2) - (x+y)^2/(2 sP^2)), so
    with the convention intensity = exp(-(1/2) z^T Q z),

        Q = [[1/sH^2 + 1/sP^2, 1/sP^2], [1/sP^2, 1/sV^2 + 1/sP^2]].

    A Gaussian filter of intensity FWHM dw multiplies the intensity by
    exp(-4 ln2 (x/dw)^2) per axis, adding 8 ln2 / dw^2 to each diagonal.
    """
    p = 1.0 / pump_sigma**2
    q = np.array(
        [[1.0 / sigma_h**2 + p, p], [p, 1.0 / sigma_v**2 + p]], dtype=np.float64
    )
    if filter_fwhm_freq is not None:
        q += np.eye(2) * (8.0 * math.log(2.0) / filter_fwhm_freq**2)
    return q


def difference_variance(precision: np.ndarray) -> float:
    """Var(y - x) under the centered Gaussian with the given precision."""
    cov = np.linalg.inv(precision)
    return float(cov[0, 0] + cov[1, 1] - 2.0 * cov[0, 1])


def type2_coherence_time(
    sigma_h: float,
    sigma_v: float,
    pump_sigma: float,
    filter_fwhm_freq: float | None = None,
) -> float:
    """1 / RMS spread of the frequency difference, the feature width."""
    return 1.0 / math.sqrt(
        difference_variance(
            type2_intensity_precision(sigma_h, sigma_v, pump_sigma, filter_fwhm_freq)
        )
    )


def interference_envelope(tau: float, difference_var: float) -> float:
    """|integral |F|^2 e^{i (y - x) tau}|: the coincidence-feature envelope."""
    return math.exp(-0.5 * difference_var * tau * tau)


def make_random_state(
    rng: np.random.Generator, n_points: int = 8, half_width: float = 5e13
) -> TwoPhotonState:
    """Normalized state with independent complex-normal amplitude samples."""
    grid = FrequencyGrid.centered(2.4e15, half_width, n_points)
    shape = (n_points, n_points)
    f1 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    f2 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return normalize(
        TwoPhotonState(JointAmplitude(grid, f1), JointAmplitude(grid, f2))
    )


def make_piecewise_constant_state(
    rng: np.random.Generator, n_points: int = 64, k_blocks: int = 8
) -> TwoPhotonState:
    """Random state that is constant over a k x k block partition.

    Such states live exactly in the span of k flat bin modes, so a k-bin
    discretization is lossless.
    """
    grid = FrequencyGrid.centered(2.4e15, 5e13, n_points)
    blocks = np.array_split(np.arange(n_points), k_blocks)
    values = []
    for _ in range(2):
        coarse = rng.standard_normal((k_blocks, k_blocks)) + 1j * rng.standard_normal(
            (k_blocks, k_blocks)
        )
        fine = np.zeros((n_points, n_points), dtype=np.complex128)
        for a, rows in enumerate(blocks):
            for b, cols in enumerate(blocks):
                fine[np.ix_(rows, cols)] = coarse[a, b]
        values.append(fine)
    return normalize(
        TwoPhotonState(
            JointAmplitude(grid, values[0]), JointAmplitude(grid, values[1])
        )
    )


def _weights_2d(state: TwoPhotonState) -> np.ndarray:
    w = state.grid.trapezoid_weights()
    return np.outer(w, w)


def direct_rc_integrated(state: TwoPhotonState, theta1: float, theta2: float) -> float:
    """Analyzer rate as one quadrature of |a F1 + b swap F2|^2 / (n1 + n2)."""
    amp = (
        math.cos(theta1) * math.sin(theta2) * state.f_h1v2.values
        + math.sin(theta1) * math.cos(theta2) * state.f_v1h2.values.T
    )
    total = norm_squared(state.f_h1v2) + norm_squared(state.f_v1h2)
    return float(np.sum(_weights_2d(state) * np.abs(amp) ** 2)) / total


def direct_correlation_E(state: TwoPhotonState, alpha: float, beta: float) -> float:
    """Four-rate combination of direct analyzer rates."""
    half_pi = 0.5 * math.pi
    r_pp = direct_rc_integrated(state, alpha, beta)
    r_pm = direct_rc_integrated(state, alpha, beta + half_pi)
    r_mp = direct_rc_integrated(state, alpha + half_pi, beta)
    r_mm = direct_rc_integrated(state, alpha + half_pi, beta + half_pi)
    return (r_pp - r_pm - r_mp + r_mm) / (r_pp + r_pm + r_mp + r_mm)


def direct_chsh(state: TwoPhotonState, angles) -> float:
    a, a_prime, b, b_prime = angles
    return abs(
        direct_correlation_E(state, a, b)
        - direct_correlation_E(state, a, b_prime)
        + direct_correlation_E(state, a_prime, b)
        + direct_correlation_E(state, a_prime, b_prime)
    )


def direct_fringe_visibility_45(state: TwoPhotonState) -> float:
    """2 |<F1, swap F2>| / (n1 + n2) through inner_product and norm_squared."""
    path_ordered = JointAmplitude(state.grid, state.f_v1h2.values.T)
    total = norm_squared(state.f_h1v2) + norm_squared(state.f_v1h2)
    return 2.0 * abs(inner_product(state.f_h1v2, path_ordered)) / total


def direct_as_residual(state: TwoPhotonState) -> float:
    summed = state.f_h1v2.values + state.f_v1h2.values
    return 0.25 * float(np.sum(_weights_2d(state) * np.abs(summed) ** 2))


def direct_bell_residual(state: TwoPhotonState) -> float:
    summed = state.f_h1v2.values + state.f_v1h2.values.T
    return 0.5 * float(np.sum(_weights_2d(state) * np.abs(summed) ** 2))
