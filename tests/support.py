"""Shared test helpers: closed-form Gaussian results, random states, and
direct quadratures.

The analytic formulas here are derived independently of the package's
quadrature (2x2 Gaussian moment algebra), so tests can pin library
outputs against numbers that do not come from the code under test.  The
``direct_*`` functions evaluate the polarization and symmetry observables
the long way, one N^2 quadrature of the defining integrand per angle, as
the reference for the library's closed forms; ``direct_fringe_fit`` fits
the analyzer-2 fringe to those rates by least squares.  ``direct_reductions``,
``direct_cross_spectrum``, ``direct_coincidence_probability``, ``direct_feynman_overlap`` and
``direct_coherence_time`` sum the integrands with the full N x N trapezoid
weights w_i w_j, the reference for the library's blocked passes over
separable weights and its one-overlap Feynman split; ``direct_type2_state``
builds the type-II state from its N^2 formula, the reference for the
library's factored build, and ``apply_filters`` filters a built state
afterwards, the reference for the filter that build folds in.
``direct_discretize``,
``direct_apply_bs_exact``, ``direct_outcome_probabilities`` and
``direct_reconstruct`` are the discrete-mode oracle written as per-pair
dict loops over mode pairs, the reference for the library's dense pair
matrix; ``pair_matrix``, ``pair_amplitudes`` and ``as_dict_basis`` convert
between the dict of pair amplitudes and the pair matrix T.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from biphoton import (
    FilterParams,
    FrequencyGrid,
    JointAmplitude,
    SpdcParams,
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


def type2_continuum(config) -> dict[str, float]:
    """The classify numbers of a type-II ``config`` with a Gaussian filter,
    in the continuum, from 2x2 Gaussian algebra.  Q is the intensity
    precision with the filter, Var = Var(w_V - w_H), Qbar = (Q + PQP)/2 with P
    the argument swap, e = (1, -1) and d the arm-2 delay:

        <F1, F2> = e^{-i phi} exp(-d^2 Var / 2)
        <F1, swap F2> = e^{-i phi} sqrt(det Q / det Qbar)
                        exp(-(t_v - t_h)^2 e^T Qbar^-1 e / 2)

    Then P_cc(0) = 1/2 - Re<F1, F2> / 2, E(a, b) = -cos 2a cos 2b +
    Re<F1, swap F2> sin 2a sin 2b at the config's angles, and V45 = |<F1, swap F2>|.
    """
    fields = {k: v for k, v in config.source.items() if k not in ("type", "filter")}
    params, filt = SpdcParams(**fields), FilterParams(**config.source["filter"])
    assert config.source["type"] == "type2_ultrafast" and filt.shape == "gaussian"
    q = type2_intensity_precision(
        params.sigma_h, params.sigma_v, params.pump_sigma, filt.fwhm_frequency
    )
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    q_bar = 0.5 * (q + swap @ q @ swap)
    e = np.array([1.0, -1.0])
    phase = np.exp(-1j * params.phi)
    d = params.extra_group_delay_arm2
    overlap = phase * math.exp(-0.5 * d * d * difference_variance(q))
    path_overlap = phase * math.sqrt(np.linalg.det(q) / np.linalg.det(q_bar)) * math.exp(
        -0.5 * (params.t_v - params.t_h) ** 2 * (e @ np.linalg.solve(q_bar, e))
    )

    def correlation(x, y):
        k = path_overlap.real
        return -math.cos(2 * x) * math.cos(2 * y) + k * math.sin(2 * x) * math.sin(2 * y)

    a, a_prime, b, b_prime = config.analysis.chsh_angles
    return {
        "coincidence_at_zero_delay": 0.5 - 0.5 * overlap.real,
        "chsh_value": abs(
            correlation(a, b)
            - correlation(a, b_prime)
            + correlation(a_prime, b)
            + correlation(a_prime, b_prime)
        ),
        "basis45_visibility": abs(path_overlap),
    }


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


def direct_type2_state(
    params, grid: FrequencyGrid, filt=None, antisymmetric: bool = False
) -> TwoPhotonState:
    """The type-II state from its defining N^2 formula, the reference for
    the library's factored build: the pump evaluated on the 2D sum
    frequency w_i + w_j, 2D emission-time and arm-2 phases, the filter as
    t (x) t on both amplitudes, and one normalization with 2D weights.
    ``antisymmetric`` makes f_v1h2 = -f_h1v2 (the ``antisymmetric`` source).
    """
    w = grid.points()
    w0 = params.photon_center_frequency
    g_h = np.exp(-((w - w0) ** 2) / (4.0 * params.sigma_h**2))
    g_v = np.exp(-((w - w0) ** 2) / (4.0 * params.sigma_v**2))
    sum_freq = w[:, None] + w[None, :]
    pump = np.exp(-((sum_freq - 2.0 * w0) ** 2) / (4.0 * params.pump_sigma**2))
    phases = np.exp(1j * (w * params.t_h)[:, None] + 1j * (w * params.t_v)[None, :])
    envelope = g_h[:, None] * g_v[None, :] * pump * phases
    if antisymmetric:
        f1, f2 = envelope, -envelope
    else:
        arm2 = np.exp(1j * w * params.extra_group_delay_arm2)
        f1 = envelope * arm2[None, :]
        f2 = np.exp(-1j * params.phi) * envelope * arm2[:, None]
    if filt is not None:
        t = _transmission(filt, w)
        t2d = t[:, None] * t[None, :]
        f1, f2 = f1 * t2d, f2 * t2d
    weights = grid.trapezoid_weights()
    w2d = np.outer(weights, weights)
    total = 0.5 * float(np.sum(w2d * (np.abs(f1) ** 2 + np.abs(f2) ** 2)))
    scale = 1.0 / math.sqrt(total)
    return TwoPhotonState(
        JointAmplitude(grid, f1 * scale), JointAmplitude(grid, f2 * scale)
    )


def _transmission(filt, w: np.ndarray) -> np.ndarray:
    """Amplitude transmission of the filter ``filt`` at the frequencies ``w``."""
    x = w - filt.center_frequency
    if filt.shape == "gaussian":
        return np.exp(-2.0 * math.log(2.0) * (x / filt.fwhm_frequency) ** 2)
    return (np.abs(x) <= 0.5 * filt.fwhm_frequency).astype(np.float64)


def apply_filters(state: TwoPhotonState, filt) -> TwoPhotonState:
    """``state`` with the filter ``filt`` in front of both photons: t (x) t on
    both amplitudes, then renormalized."""
    grid = state.grid
    t = _transmission(filt, grid.points())
    t2d = t[:, None] * t[None, :]
    return normalize(
        TwoPhotonState(
            JointAmplitude(grid, state.f_h1v2.values * t2d),
            JointAmplitude(grid, state.f_v1h2.values * t2d),
        )
    )


def _weights_2d(state: TwoPhotonState) -> np.ndarray:
    w = state.grid.trapezoid_weights()
    return np.outer(w, w)


def direct_reductions(state: TwoPhotonState) -> dict:
    """The six ``StateReductions`` quadratures, each one weighted N^2 sum."""
    w2d = _weights_2d(state)
    f1 = state.f_h1v2.values
    f2 = state.f_v1h2.values
    f2_path = np.ascontiguousarray(f2.T)

    def inner(a, b) -> complex:
        return complex(np.sum(w2d * np.conj(a) * b))

    return {
        "n1": inner(f1, f1).real,
        "n2": inner(f2, f2).real,
        "overlap": inner(f1, f2),
        "path_overlap": inner(f1, f2_path),
        "plus_norm": inner(f1 + f2, f1 + f2).real,
        "path_plus_norm": inner(f1 + f2_path, f1 + f2_path).real,
    }


def _diagonal_sums(state: TwoPhotonState, values: np.ndarray) -> np.ndarray:
    # entry k + N - 1 sums w_i w_j values[i, j] over the diagonal j - i = k
    n = state.grid.n_points
    product = _weights_2d(state) * values
    offset = (np.arange(n) - np.arange(n)[:, None] + (n - 1)).ravel()
    real = np.bincount(offset, product.real.ravel(), minlength=2 * n - 1)
    imag = np.bincount(offset, np.imag(product).ravel(), minlength=2 * n - 1)
    return real + 1j * imag


def direct_cross_spectrum(state: TwoPhotonState) -> np.ndarray:
    """c_k: diagonal sums of w_i w_j conj(F1[i, j]) F2[i, j] over j - i = k."""
    return _diagonal_sums(state, np.conj(state.f_h1v2.values) * state.f_v1h2.values)


def _delayed_values(state: TwoPhotonState, delay: float) -> tuple[np.ndarray, np.ndarray]:
    # the path-1 phase e^{i w delay}: rows of F1, columns of F2
    phase = np.exp(1j * state.grid.points() * delay)
    return state.f_h1v2.values * phase[:, None], state.f_v1h2.values * phase[None, :]


def direct_coincidence_probability(
    state: TwoPhotonState, delay: float = 0.0, mode_overlap: float = 1.0
) -> float:
    """P_cc from the delayed amplitudes in one N^2 pass: the path-1 phase
    e^{i w delay} on the rows of F1 and the columns of F2, then
    (1/4) integral (|F1|^2 + |F2|^2) - (1/2) mode_overlap Re <F1, F2>."""
    v1, v2 = _delayed_values(state, delay)
    w2d = _weights_2d(state)
    background = 0.25 * float(np.sum(w2d * (np.abs(v1) ** 2 + np.abs(v2) ** 2)))
    cross = float(np.sum(w2d * (np.conj(v1) * v2)).real)
    return min(max(background - 0.5 * mode_overlap * cross, 0.0), 1.0)


def direct_feynman_overlap(state: TwoPhotonState, delay: float = 0.0) -> float:
    """|<F1, F2>| / sqrt(n1 n2) of the delayed pair by dense N^2 sums: the
    interfering alternatives are F1 and F2 up to constant factors, so this is
    the normalized overlap of either pair (0 if an amplitude vanishes)."""
    v1, v2 = _delayed_values(state, delay)
    w2d = _weights_2d(state)
    n1 = float(np.sum(w2d * np.abs(v1) ** 2))
    n2 = float(np.sum(w2d * np.abs(v2) ** 2))
    if n1 <= 0.0 or n2 <= 0.0:
        return 0.0
    return abs(complex(np.sum(w2d * np.conj(v1) * v2))) / math.sqrt(n1 * n2)


def direct_coherence_time(state: TwoPhotonState) -> float:
    """1 / RMS spread of w_V - w_H under the 2D intensity (|F1|^2 + |F2|^2)/2."""
    intensity = _weights_2d(state) * 0.5 * (
        np.abs(state.f_h1v2.values) ** 2 + np.abs(state.f_v1h2.values) ** 2
    )
    total = float(np.sum(intensity))
    pts = state.grid.points()
    v = pts[None, :] - pts[:, None]
    mean = float(np.sum(intensity * v)) / total
    return 1.0 / math.sqrt(float(np.sum(intensity * (v - mean) ** 2)) / total)


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


def direct_fringe_fit(state: TwoPhotonState, theta1: float, theta2s) -> dict:
    """Least-squares fit of c0 + c1 cos 2t + c2 sin 2t to direct analyzer
    rates, as the offset a, amplitude b, phase c and visibility
    b / (2a + b) of the fringe a + b sin^2(t - c)."""
    angles = np.asarray(theta2s, dtype=np.float64)
    rates = np.array([direct_rc_integrated(state, theta1, float(t)) for t in angles])
    design = np.column_stack(
        [np.ones_like(angles), np.cos(2.0 * angles), np.sin(2.0 * angles)]
    )
    (c0, c1, c2), *_ = np.linalg.lstsq(design, rates, rcond=None)
    rho = math.hypot(c1, c2)
    return {
        "offset": c0 - rho,
        "amplitude": 2.0 * rho,
        "phase": 0.5 * math.atan2(-c2, -c1),
        "visibility": rho / c0,
    }


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


class Mode(NamedTuple):
    """One bosonic mode: which path, which polarization, which bin."""

    path: int
    pol: str
    bin_index: int


class DictBasis(NamedTuple):
    """A discrete-mode two-photon state as a dict of pair amplitudes.

    amplitudes maps a canonical (mode, mode) pair, the smaller mode first,
    to its physical amplitude, a doubly occupied mode included.
    """

    k_bins: int
    paths: tuple[int, int]
    amplitudes: dict
    captured_norm: float

    def total_probability(self) -> float:
        return float(sum(abs(c) ** 2 for c in self.amplitudes.values()))


def _pair_key(a: Mode, b: Mode) -> tuple[Mode, Mode]:
    return (a, b) if a <= b else (b, a)


def _dict_mode_list(paths: tuple[int, int], k_bins: int) -> list[Mode]:
    return [Mode(path, pol, k) for path in paths for pol in ("H", "V") for k in range(k_bins)]


def pair_matrix(k_bins: int, paths: tuple[int, int], amplitudes: dict) -> np.ndarray:
    """The pair matrix T of canonical pair amplitudes: a doubly occupied
    mode's amplitude a is sqrt(2) T[i, i], any other pair's 2 T[i, j]."""
    index = {mode: i for i, mode in enumerate(_dict_mode_list(paths, k_bins))}
    t = np.zeros((len(index), len(index)), dtype=np.complex128)
    for (mode_a, mode_b), amp in amplitudes.items():
        i, j = index[mode_a], index[mode_b]
        if i == j:
            t[i, i] = amp / math.sqrt(2.0)
        else:
            t[i, j] += 0.5 * amp
            t[j, i] += 0.5 * amp
    return t


def pair_amplitudes(k_bins: int, paths: tuple[int, int], t: np.ndarray) -> dict:
    """The nonzero canonical pair amplitudes of the pair matrix T."""
    modes = _dict_mode_list(paths, k_bins)
    amplitudes: dict = {}
    for i, mode_a in enumerate(modes):
        diag = math.sqrt(2.0) * t[i, i]
        if diag != 0.0:
            amplitudes[(mode_a, mode_a)] = complex(diag)
        for j in range(i + 1, len(modes)):
            amp = 2.0 * t[i, j]
            if amp != 0.0:
                amplitudes[_pair_key(mode_a, modes[j])] = complex(amp)
    return amplitudes


def as_dict_basis(basis) -> DictBasis:
    """A library ``DiscreteModeBasis`` as the dict of its pair amplitudes."""
    amplitudes = pair_amplitudes(basis.k_bins, basis.paths, basis.pair_matrix)
    return DictBasis(basis.k_bins, basis.paths, amplitudes, basis.captured_norm)


def bin_blocks(grid: FrequencyGrid, k_bins: int):
    step = (grid.omega_max - grid.omega_min) / (grid.n_points - 1)
    w = np.full(grid.n_points, step)
    w[0] = 0.5 * step
    w[-1] = 0.5 * step
    return w, np.array_split(np.arange(grid.n_points), k_bins)


def direct_discretize(state: TwoPhotonState, k_bins: int) -> DictBasis:
    """Flat-bin projection filled into a dict, one mode pair at a time."""
    n = state.grid.n_points
    w, blocks = bin_blocks(state.grid, k_bins)
    aggregate = np.zeros((k_bins, n))
    for k, block in enumerate(blocks):
        aggregate[k, block] = w[block] / math.sqrt(float(np.sum(w[block])))
    c1 = aggregate @ state.f_h1v2.values @ aggregate.T
    c2 = aggregate @ state.f_v1h2.values @ aggregate.T
    root_half = 1.0 / math.sqrt(2.0)
    amplitudes: dict = {}
    for k in range(k_bins):
        for m in range(k_bins):
            a1 = root_half * c1[k, m]
            if a1 != 0.0:
                key = _pair_key(Mode(1, "H", k), Mode(2, "V", m))
                amplitudes[key] = amplitudes.get(key, 0.0) + a1
            a2 = root_half * c2[k, m]
            if a2 != 0.0:
                # In f_v1h2 the first index (bin k) is the path-2 H photon.
                key = _pair_key(Mode(1, "V", m), Mode(2, "H", k))
                amplitudes[key] = amplitudes.get(key, 0.0) + a2
    captured = float(sum(abs(c) ** 2 for c in amplitudes.values()))
    scale = 1.0 / math.sqrt(captured)
    amplitudes = {key: scale * c for key, c in amplitudes.items()}
    return DictBasis(k_bins, (1, 2), amplitudes, captured)


def direct_apply_bs_exact(basis: DictBasis) -> DictBasis:
    """Beamsplitter as U T U^T with the full (4K)^2 mode unitary U."""
    k_bins = basis.k_bins
    modes_in = _dict_mode_list((1, 2), k_bins)
    modes_out = _dict_mode_list((3, 4), k_bins)
    index_in = {m: i for i, m in enumerate(modes_in)}
    index_out = {m: i for i, m in enumerate(modes_out)}
    n_modes = len(modes_in)
    t = pair_matrix(k_bins, (1, 2), basis.amplitudes)
    u = np.zeros((n_modes, n_modes), dtype=np.complex128)
    r = 1.0 / math.sqrt(2.0)
    for pol in ("H", "V"):
        for k in range(k_bins):
            col1 = index_in[Mode(1, pol, k)]
            col2 = index_in[Mode(2, pol, k)]
            u[index_out[Mode(3, pol, k)], col1] = 1j * r
            u[index_out[Mode(4, pol, k)], col1] = r
            u[index_out[Mode(3, pol, k)], col2] = r
            u[index_out[Mode(4, pol, k)], col2] = 1j * r
    t_out = u @ t @ u.T
    amplitudes = pair_amplitudes(k_bins, (3, 4), t_out)
    return DictBasis(k_bins, (3, 4), amplitudes, basis.captured_norm)


def direct_outcome_probabilities(basis: DictBasis) -> dict[str, float]:
    sums = {"coincidence": 0.0, "both_in_3": 0.0, "both_in_4": 0.0}
    for (mode_a, mode_b), amp in basis.amplitudes.items():
        p = abs(amp) ** 2
        if mode_a.path == mode_b.path:
            sums["both_in_3" if mode_a.path == 3 else "both_in_4"] += p
        else:
            sums["coincidence"] += p
    return sums


def direct_reconstruct(basis: DictBasis, grid: FrequencyGrid) -> TwoPhotonState:
    """Embed (1H, 2V) and (1V, 2H) pair amplitudes as flat bin blocks."""
    w, blocks = bin_blocks(grid, basis.k_bins)
    mode_fn = np.zeros((basis.k_bins, grid.n_points))
    for k, block in enumerate(blocks):
        mode_fn[k, block] = 1.0 / math.sqrt(float(np.sum(w[block])))
    c1 = np.zeros((basis.k_bins, basis.k_bins), dtype=np.complex128)
    c2 = np.zeros((basis.k_bins, basis.k_bins), dtype=np.complex128)
    for (mode_a, mode_b), amp in basis.amplitudes.items():
        first, second = (mode_a, mode_b) if mode_a.path == 1 else (mode_b, mode_a)
        if first.pol == "H":
            c1[first.bin_index, second.bin_index] += math.sqrt(2.0) * amp
        else:
            c2[second.bin_index, first.bin_index] += math.sqrt(2.0) * amp
    f1 = mode_fn.T @ c1 @ mode_fn
    f2 = mode_fn.T @ c2 @ mode_fn
    return TwoPhotonState(JointAmplitude(grid, f1), JointAmplitude(grid, f2))
