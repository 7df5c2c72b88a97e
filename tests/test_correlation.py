"""Analyzer rates, fringe fits, correlation coefficients, and CHSH."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from biphoton import (
    DEFAULT_CHSH_ANGLES,
    DEFAULT_CLASSIFICATION_THRESHOLD,
    FrequencyGrid,
    SpdcParams,
    TwoPhotonState,
    JointAmplitude,
    build_bell_psi_minus,
    build_two_color,
    build_type2_ultrafast,
    chsh,
    classify,
    correlation_E,
    correlation_scan,
    default_grid,
    fringe_visibility_45,
    gaussian_line,
    inner_product,
    norm_squared,
    rc_integrated,
)
from biphoton.cli import list_presets, load_config

CENTER = 2.0 * math.pi * support.SPEED_OF_LIGHT / 780e-9


@pytest.fixture(scope="module")
def bell_state():
    grid = FrequencyGrid.centered(CENTER, 1.8e14, 128)
    g = gaussian_line(grid, CENTER, 3e13)
    return build_bell_psi_minus(g, g, grid)


@pytest.fixture(scope="module")
def detuned_bell_state():
    # distinct envelopes per path: still a perfect singlet in polarization
    grid = FrequencyGrid.centered(CENTER, 2.0e14, 128)
    g1 = gaussian_line(grid, CENTER + 3e13, 2.2e13)
    g2 = gaussian_line(grid, CENTER - 3e13, 2.2e13)
    return build_bell_psi_minus(g1, g2, grid)


@pytest.fixture(scope="module")
def walkoff_state():
    p = SpdcParams()
    return build_type2_ultrafast(p, default_grid(p))


def test_bell_rate_is_sin_squared_of_the_angle_difference(bell_state):
    for t1 in (0.0, 0.3, math.pi / 4.0, 1.2):
        for t2 in (0.0, 0.5, math.pi / 2.0, 2.0):
            expected = 0.5 * math.sin(t1 - t2) ** 2
            assert rc_integrated(bell_state, t1, t2) == pytest.approx(
                expected, abs=1e-9
            )


def test_bell_rate_vanishes_for_parallel_analyzers(detuned_bell_state):
    # holds for any envelopes as long as f_v1h2 = -swap(f_h1v2)
    for t in (0.0, 0.4, math.pi / 4.0, 2.8):
        assert rc_integrated(detuned_bell_state, t, t) == pytest.approx(
            0.0, abs=1e-9
        )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_four_analyzer_outcomes_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    state = support.make_random_state(rng, n_points=8)
    t1 = float(rng.uniform(0.0, math.pi))
    t2 = float(rng.uniform(0.0, math.pi))
    half_pi = math.pi / 2.0
    total = (
        rc_integrated(state, t1, t2)
        + rc_integrated(state, t1, t2 + half_pi)
        + rc_integrated(state, t1 + half_pi, t2)
        + rc_integrated(state, t1 + half_pi, t2 + half_pi)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_analyzer_rate_is_pi_periodic(seed):
    rng = np.random.default_rng(seed)
    state = support.make_random_state(rng, n_points=8)
    t1 = float(rng.uniform(0.0, math.pi))
    t2 = float(rng.uniform(0.0, math.pi))
    base = rc_integrated(state, t1, t2)
    assert rc_integrated(state, t1 + math.pi, t2) == pytest.approx(base, abs=1e-12)
    assert rc_integrated(state, t1, t2 + math.pi) == pytest.approx(base, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_correlation_coefficient_closed_form(seed):
    # E(a, b) = -cos 2a cos 2b + K sin 2a sin 2b with K the normalized
    # real overlap of f_h1v2 with the path-ordered f_v1h2; derived by
    # expanding the four analyzer rates
    rng = np.random.default_rng(seed)
    state = support.make_random_state(rng, n_points=8)
    k = (
        2.0
        * inner_product(
            state.f_h1v2,
            JointAmplitude(state.grid, state.f_v1h2.values.T),
        ).real
        / (norm_squared(state.f_h1v2) + norm_squared(state.f_v1h2))
    )
    a = float(rng.uniform(0.0, math.pi))
    b = float(rng.uniform(0.0, math.pi))
    expected = -math.cos(2 * a) * math.cos(2 * b) + k * math.sin(2 * a) * math.sin(
        2 * b
    )
    assert correlation_E(state, a, b) == pytest.approx(expected, abs=1e-12)


def test_perfect_anticorrelation_at_zero_analyzer_angle(walkoff_state, bell_state):
    rng = np.random.default_rng(17)
    random_state = support.make_random_state(rng, n_points=16)
    for state in (walkoff_state, bell_state, random_state):
        assert correlation_E(state, 0.0, 0.0) == pytest.approx(-1.0, abs=1e-12)


def test_correlation_scan_on_bell_state(bell_state):
    angles = np.linspace(0.0, math.pi, 19)
    for t1 in (0.0, math.pi / 4.0, 1.1):
        curve = correlation_scan(bell_state, t1, angles)
        assert not curve.degenerate
        assert curve.visibility == pytest.approx(1.0, abs=1e-9)
        assert curve.offset == pytest.approx(0.0, abs=1e-9)
        assert curve.amplitude == pytest.approx(0.5, abs=1e-9)
        # fringe minimum sits at the parallel setting theta2 = theta1
        assert math.sin(curve.phase - t1) == pytest.approx(0.0, abs=1e-9)
        assert curve.fit_residual < 1e-6
        # the fitted model reproduces every sample
        model = curve.offset + 0.5 * curve.amplitude * (
            1.0 - np.cos(2.0 * (curve.theta2s - curve.phase))
        )
        np.testing.assert_allclose(model, curve.rates, atol=1e-12)


def test_correlation_scan_at_zero_angle_is_perfect_for_any_state():
    # analyzer 1 at 0 transmits only the H1 V2 term: the fringe is
    # sin^2(theta2) with visibility 1 whatever the state
    rng = np.random.default_rng(23)
    state = support.make_random_state(rng, n_points=16)
    curve = correlation_scan(state, 0.0, np.linspace(0.0, math.pi, 13))
    assert curve.visibility == pytest.approx(1.0, abs=1e-12)
    assert math.sin(curve.phase) == pytest.approx(0.0, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_correlation_scan_matches_a_least_squares_fit_of_direct_rates(seed):
    # the closed-form fringe coefficients against a fit to N^2 quadratures
    rng = np.random.default_rng(seed)
    state = support.make_random_state(rng, n_points=8)
    theta1 = float(rng.uniform(0.0, math.pi))
    start = float(rng.uniform(-math.pi, math.pi))
    angles = np.linspace(start, start + math.pi, 13)
    curve = correlation_scan(state, theta1, angles)
    fit = support.direct_fringe_fit(state, theta1, angles)
    assert not curve.degenerate
    for field in ("offset", "amplitude", "visibility"):
        assert getattr(curve, field) == pytest.approx(fit[field], abs=1e-12), field
    # the fringe repeats with period pi in its phase
    assert math.sin(curve.phase - fit["phase"]) == pytest.approx(0.0, abs=1e-12)
    assert curve.fit_residual < 1e-12


def test_correlation_scan_flat_curve_is_degenerate():
    grid = FrequencyGrid.centered(CENTER, 2.8e14, 256)
    state = build_two_color("i", CENTER - 1.2e14, CENTER + 1.2e14, 2e13, grid)
    curve = correlation_scan(state, math.pi / 4.0, np.linspace(0.0, math.pi, 13))
    # color tied to polarization: the 45 degree fringe has no modulation
    assert curve.degenerate
    assert curve.visibility == 0.0
    assert curve.phase == 0.0
    np.testing.assert_allclose(curve.rates, 0.25, atol=1e-9)


def test_correlation_scan_validation(bell_state):
    with pytest.raises(ValueError, match="at least 3"):
        correlation_scan(bell_state, 0.0, [0.0, math.pi])
    with pytest.raises(ValueError, match="span"):
        correlation_scan(bell_state, 0.0, np.linspace(0.0, 2.0, 10))
    with pytest.raises(ValueError):
        correlation_scan(bell_state, 0.0, [0.0, math.nan, math.pi])


def test_chsh_reaches_tsirelson_for_singlet_states(bell_state, detuned_bell_state):
    limit = 2.0 * math.sqrt(2.0)
    assert chsh(bell_state) == pytest.approx(limit, abs=1e-12)
    assert chsh(detuned_bell_state) == pytest.approx(limit, abs=1e-12)


def test_chsh_of_distinguishable_pair_is_sqrt_two(walkoff_state):
    # no spectral-exchange overlap: E = -cos 2a cos 2b, so the default
    # angles give exactly sqrt(2), well inside the classical bound
    assert chsh(walkoff_state) == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_chsh_with_all_angles_equal_measures_anticorrelation(
    bell_state, walkoff_state
):
    # S collapses to |E - E + E + E| = 2|E(a, a)|
    for state in (bell_state, walkoff_state):
        s = chsh(state, (0.0, 0.0, 0.0, 0.0))
        assert s == pytest.approx(2.0 * abs(correlation_E(state, 0.0, 0.0)), abs=1e-12)
    assert chsh(bell_state, (0.3, 0.3, 0.3, 0.3)) == pytest.approx(2.0, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_chsh_never_exceeds_the_tsirelson_bound(seed):
    rng = np.random.default_rng(seed)
    state = support.make_random_state(rng, n_points=8)
    angles = tuple(float(a) for a in rng.uniform(0.0, math.pi, size=4))
    assert chsh(state, angles) <= 2.0 * math.sqrt(2.0) + 1e-6


def test_fringe_visibility_45_extremes(bell_state, walkoff_state):
    assert fringe_visibility_45(bell_state) == pytest.approx(1.0, abs=1e-9)
    # 400 fs walk-off: the exchange overlap is double-exponentially small
    assert fringe_visibility_45(walkoff_state) < 1e-10


def test_fringe_visibility_45_equals_fitted_visibility():
    # partially overlapping exchange terms: V45 must agree with the fringe
    # fit at 45 degrees and with the closed-form Gaussian overlap
    p = SpdcParams(sigma_h=3e13, sigma_v=3e13, t_v=20e-15)
    state = build_type2_ultrafast(p, default_grid(p))
    v45 = fringe_visibility_45(state)
    var = support.difference_variance(
        support.type2_intensity_precision(p.sigma_h, p.sigma_v, p.pump_sigma)
    )
    assert v45 == pytest.approx(support.interference_envelope(20e-15, var), abs=1e-6)
    curve = correlation_scan(state, math.pi / 4.0, np.linspace(0.0, math.pi, 13))
    assert curve.visibility == pytest.approx(v45, abs=1e-9)


def test_rc_integrated_rejects_zero_state():
    grid = FrequencyGrid.centered(CENTER, 1e14, 8)
    zeros = np.zeros((8, 8), dtype=np.complex128)
    state = TwoPhotonState(JointAmplitude(grid, zeros), JointAmplitude(grid, zeros))
    with pytest.raises(ValueError):
        rc_integrated(state, 0.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_analyzer_angles_are_rejected(bell_state, bad):
    calls = (
        lambda: rc_integrated(bell_state, bad, 0.0),
        lambda: rc_integrated(bell_state, 0.0, bad),
        lambda: correlation_E(bell_state, bad, 0.3),
        lambda: correlation_E(bell_state, 0.3, bad),
        lambda: chsh(bell_state, (bad, 0.0, 0.3, 0.5)),
        lambda: chsh(bell_state, (0.0, 0.2, 0.3, bad)),
        lambda: correlation_scan(bell_state, bad, np.linspace(0.0, math.pi, 13)),
    )
    for call in calls:
        with pytest.raises(ValueError, match=f"analyzer angle must be finite, got {bad!r}"):
            call()


def _assert_matches_direct_quadrature(state, rng):
    # closed forms from one reductions pass against the direct N^2
    # quadrature of each defining integrand
    tol = 1e-13
    grid = np.linspace(0.0, math.pi, 7)
    for t1 in grid:
        for t2 in grid:
            assert rc_integrated(state, t1, t2) == pytest.approx(
                support.direct_rc_integrated(state, t1, t2), abs=tol
            )
    alpha, beta = rng.uniform(-math.pi, math.pi, size=2)
    assert correlation_E(state, alpha, beta) == pytest.approx(
        support.direct_correlation_E(state, alpha, beta), abs=tol
    )
    random_angles = tuple(rng.uniform(-math.pi, math.pi, size=4))
    for angles in (DEFAULT_CHSH_ANGLES, random_angles):
        assert chsh(state, angles) == pytest.approx(
            support.direct_chsh(state, angles), abs=tol
        )
    v45 = support.direct_fringe_visibility_45(state)
    assert fringe_visibility_45(state) == pytest.approx(v45, abs=tol)

    report = classify(state, chsh_angles=random_angles)
    r_as = support.direct_as_residual(state)
    r_bell = support.direct_bell_residual(state)
    assert report.as_residual == pytest.approx(r_as, abs=tol)
    assert report.bell_residual == pytest.approx(r_bell, abs=tol)
    labels = {
        (True, True): "Both",
        (True, False): "AS-only",
        (False, True): "Bell-only",
        (False, False): "Neither",
    }
    threshold = DEFAULT_CLASSIFICATION_THRESHOLD
    assert report.label == labels[(r_as < threshold, r_bell < threshold)]
    assert report.coincidence_at_zero_delay == pytest.approx(
        support.direct_coincidence_probability(state, 0.0), abs=tol
    )
    assert report.chsh_value == pytest.approx(
        support.direct_chsh(state, random_angles), abs=tol
    )
    assert report.basis45_visibility == pytest.approx(v45, abs=tol)


@pytest.mark.parametrize("n_points", [64, 256])
@pytest.mark.parametrize("preset", [name for name, _ in list_presets()])
def test_observables_match_direct_quadrature_on_presets(preset, n_points):
    state = load_config(preset).build_state(n_points)
    _assert_matches_direct_quadrature(state, np.random.default_rng(n_points))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_points=st.integers(min_value=3, max_value=16),
)
def test_observables_match_direct_quadrature_on_random_states(seed, n_points):
    rng = np.random.default_rng(seed)
    state = support.make_random_state(rng, n_points=n_points)
    _assert_matches_direct_quadrature(state, rng)
