"""State builders: parameter handling, symmetry structure, spectral filtering."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from biphoton import (
    FilterParams,
    FrequencyGrid,
    JointAmplitude,
    SpdcParams,
    as_residual,
    bell_residual,
    build_antisymmetric,
    build_bell_psi_minus,
    build_two_color,
    build_type2_ultrafast,
    coherence_time,
    default_grid,
    gaussian_line,
    type2_joint_envelope,
    wavelength_to_angular_frequency,
)
from biphoton import sources
from biphoton.core import reductions
from biphoton.sources import TWO_COLOR_CASES

CENTER = wavelength_to_angular_frequency(780e-9)


def test_spdc_derived_quantities_match_direct_formulas():
    p = SpdcParams()
    assert p.pump_sigma == pytest.approx(
        math.sqrt(2.0 * math.log(2.0)) / 120e-15, rel=1e-12
    )
    assert p.photon_center_frequency == pytest.approx(
        math.pi * support.SPEED_OF_LIGHT / 390e-9, rel=1e-12
    )


def test_spdc_params_validation():
    with pytest.raises(ValueError):
        SpdcParams(pump_duration_fwhm=0.0)
    with pytest.raises(ValueError):
        SpdcParams(sigma_h=-1e13)
    with pytest.raises(ValueError):
        SpdcParams(pump_center_wavelength=0.0)
    for name in ("pump_center_wavelength", "t_h", "t_v", "phi", "extra_group_delay_arm2"):
        with pytest.raises(ValueError, match=f"{name} must be finite, got nan"):
            SpdcParams(**{name: math.nan})


def test_filter_fwhm_conversion():
    # 20 nm at 780 nm: dw = 2 pi c dlambda / lambda^2
    f = FilterParams(center_wavelength=780e-9, fwhm=20e-9, shape="gaussian")
    expected = 2.0 * math.pi * support.SPEED_OF_LIGHT * 20e-9 / (780e-9) ** 2
    assert f.fwhm_frequency == pytest.approx(expected, rel=1e-12)
    assert f.fwhm_frequency == pytest.approx(6.1921e13, rel=1e-4)
    with pytest.raises(ValueError):
        FilterParams(center_wavelength=780e-9, fwhm=0.0)
    with pytest.raises(ValueError):
        FilterParams(center_wavelength=780e-9, fwhm=20e-9, shape="boxcar")
    for name in ("center_wavelength", "fwhm"):
        with pytest.raises(ValueError, match=f"filter {name} must be finite and positive, got nan"):
            FilterParams(**{name: math.nan})


def test_gaussian_line_normalization_and_width():
    grid = FrequencyGrid.centered(CENTER, 4e14, 1024)
    sigma = 3e13
    g = gaussian_line(grid, CENTER, sigma)
    w = grid.trapezoid_weights()
    x = grid.points() - CENTER
    intensity = np.abs(g) ** 2
    assert float(np.sum(w * intensity)) == pytest.approx(1.0, rel=1e-9)
    # RMS width of the intensity profile is sigma by construction
    rms = math.sqrt(float(np.sum(w * intensity * x**2)))
    assert rms == pytest.approx(sigma, rel=1e-9)
    for bad_sigma in (-sigma, math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma must be finite and positive"):
            gaussian_line(grid, CENTER, bad_sigma)
    for bad_center in (math.nan, math.inf):
        with pytest.raises(ValueError, match="center must be finite"):
            gaussian_line(grid, bad_center, sigma)
    with pytest.raises(ValueError, match="envelope vanishes on the grid"):
        gaussian_line(grid, CENTER + 1000.0 * sigma, sigma)


def test_default_grid_covers_the_marginals():
    p = SpdcParams()
    grid = default_grid(p)
    assert grid.n_points == 256
    center = 0.5 * (grid.omega_min + grid.omega_max)
    assert center == pytest.approx(p.photon_center_frequency, rel=1e-12)
    assert (grid.omega_max - grid.omega_min) / 2.0 >= 6.0 * max(p.sigma_h, p.sigma_v)


def test_type2_envelope_axis_conventions():
    # rows carry w_H, columns carry w_V: with sigma_h = 2 sigma_v the
    # magnitude decays slower along rows, and the column-index phase
    # advances at the V emission time
    p = SpdcParams()
    grid = default_grid(p)
    env = type2_joint_envelope(p, grid).values
    c = grid.n_points // 2
    off = 40
    assert abs(env[c + off, c]) > abs(env[c, c + off])

    dphi = np.angle(env[c, c + 1] / env[c, c])
    assert dphi == pytest.approx(grid.step * p.t_v, rel=1e-9)
    dphi_row = np.angle(env[c + 1, c] / env[c, c])
    assert dphi_row == pytest.approx(grid.step * p.t_h, abs=1e-12)


def test_build_type2_symmetric_limit_equals_exchange_antisymmetric():
    # equal widths, no walk-off, pi phase: the pair collapses onto the
    # exchange-antisymmetric combination built directly from the envelope
    p = SpdcParams(sigma_h=3e13, sigma_v=3e13, t_v=0.0, phi=math.pi)
    grid = default_grid(p)
    via_phase = build_type2_ultrafast(p, grid)
    direct = build_antisymmetric(type2_joint_envelope(p, grid))
    scale = float(np.abs(direct.f_h1v2.values).max())
    np.testing.assert_allclose(
        via_phase.f_h1v2.values, direct.f_h1v2.values, atol=1e-9 * scale
    )
    np.testing.assert_allclose(
        via_phase.f_v1h2.values, direct.f_v1h2.values, atol=1e-9 * scale
    )


def test_build_type2_default_is_exchange_antisymmetric_but_far_from_bell():
    p = SpdcParams()
    state = build_type2_ultrafast(p, default_grid(p))
    reductions(state).require_normalized()
    # identical propagation in both terms: exchange antisymmetry survives
    # any walk-off, so the coincidence peak is perfect
    assert as_residual(state) < 1e-6
    # but 400 fs of walk-off kills the spectral-exchange overlap entirely
    assert bell_residual(state) > 0.5


def test_build_type2_walkoff_shift_alone_changes_nothing():
    # both pair terms share one envelope, so retiming the V photon at the
    # source cannot break the exchange antisymmetry
    grid = default_grid(SpdcParams())
    for t_v in (400e-15, 401e-15, 0.0):
        state = build_type2_ultrafast(SpdcParams(t_v=t_v), grid)
        assert as_residual(state) < 1e-12


def test_build_type2_arm_delay_perturbation_is_quadratic():
    # an uncompensated delay in arm 2 is the perturbation that matters:
    # residual ~ (delta^2 / 4) Var(w_V - w_H), so doubling delta
    # quadruples the residual
    grid = default_grid(SpdcParams())
    delta = 1e-15
    r1 = as_residual(
        build_type2_ultrafast(SpdcParams(extra_group_delay_arm2=delta), grid)
    )
    r2 = as_residual(
        build_type2_ultrafast(SpdcParams(extra_group_delay_arm2=2.0 * delta), grid)
    )
    assert r1 > 0.0
    assert 3.9 < r2 / r1 < 4.1


def test_build_type2_rejects_grid_that_clips_the_envelope():
    p = SpdcParams()
    narrow = FrequencyGrid.centered(p.photon_center_frequency, 1.0e14, 64)
    with pytest.raises(ValueError, match="grid too narrow"):
        build_type2_ultrafast(p, narrow)


def test_build_antisymmetric_is_bitwise_antisymmetric():
    p = SpdcParams(t_v=0.0)
    grid = default_grid(p)
    state = build_antisymmetric(type2_joint_envelope(p, grid))
    reductions(state).require_normalized()
    np.testing.assert_array_equal(state.f_v1h2.values, -state.f_h1v2.values)
    zero = JointAmplitude(grid, np.zeros((grid.n_points, grid.n_points)))
    with pytest.raises(ValueError):
        build_antisymmetric(zero)
    # one interior entry whose square underflows: the norm is 0, the peak is not
    tiny = np.zeros((grid.n_points, grid.n_points))
    tiny[grid.n_points // 2, grid.n_points // 2] = 1e-170
    with pytest.raises(ValueError, match="envelope must be nonzero"):
        build_antisymmetric(JointAmplitude(grid, tiny))


def test_build_bell_psi_minus_structure():
    grid = FrequencyGrid.centered(CENTER, 1.8e14, 128)
    g1 = gaussian_line(grid, CENTER + 2e13, 2.5e13)
    g2 = gaussian_line(grid, CENTER - 2e13, 2.5e13)
    state = build_bell_psi_minus(g1, g2, grid)
    reductions(state).require_normalized()
    # singlet condition under spectral exchange, exact by construction
    np.testing.assert_array_equal(state.f_v1h2.values, -state.f_h1v2.values.T)
    assert bell_residual(state) < 1e-12

    with pytest.raises(ValueError, match="normalized"):
        build_bell_psi_minus(2.0 * g1, g2, grid)
    with pytest.raises(ValueError, match="envelope1 is not normalized: .* = nan"):
        build_bell_psi_minus(np.full_like(g1, math.nan), g2, grid)
    with pytest.raises(ValueError):
        build_bell_psi_minus(np.outer(g1, g1), g2, grid)


def test_build_bell_psi_minus_keeps_its_own_copy_of_the_envelopes():
    # the state builds its values from the envelopes later, on first read
    grid = FrequencyGrid.centered(CENTER, 1.8e14, 64)
    g1 = gaussian_line(grid, CENTER + 2e13, 2.5e13).astype(np.complex128)
    g2 = gaussian_line(grid, CENTER - 2e13, 2.5e13).astype(np.complex128)
    expected = np.outer(g1, g2)
    state = build_bell_psi_minus(g1, g2, grid)
    g1[:], g2[:] = 0.0, 0.0
    np.testing.assert_allclose(state.f_h1v2.values, expected, rtol=1e-12, atol=0.0)


def test_build_bell_with_equal_envelopes_is_also_exchange_antisymmetric():
    grid = FrequencyGrid.centered(CENTER, 1.8e14, 128)
    g = gaussian_line(grid, CENTER, 3e13)
    state = build_bell_psi_minus(g, g, grid)
    assert as_residual(state) < 1e-12
    assert bell_residual(state) < 1e-12


def test_build_two_color_case_distinction():
    grid = FrequencyGrid.centered(CENTER, 2.8e14, 256)
    red = CENTER - 1.2e14
    blue = CENTER + 1.2e14

    color_follows_polarization = build_two_color("i", red, blue, 2e13, grid)
    assert as_residual(color_follows_polarization) < 1e-12
    np.testing.assert_array_equal(
        color_follows_polarization.f_v1h2.values,
        -color_follows_polarization.f_h1v2.values,
    )

    color_follows_path = build_two_color("ii", red, blue, 2e13, grid)
    assert bell_residual(color_follows_path) < 1e-12
    assert as_residual(color_follows_path) == pytest.approx(0.5, abs=1e-9)

    with pytest.raises(ValueError, match="case"):
        build_two_color("iii", red, blue, 2e13, grid)
    with pytest.raises(ValueError):
        build_two_color("i", red, blue, -2e13, grid)


def test_build_two_color_requires_separated_colors():
    grid = FrequencyGrid.centered(CENTER, 2.8e14, 256)
    # separation 1e14 is only 5 bandwidths, below the 10x requirement
    with pytest.raises(ValueError, match="separation"):
        build_two_color("i", CENTER - 5e13, CENTER + 5e13, 2e13, grid)


def test_two_color_envelope_overlap_is_negligible():
    grid = FrequencyGrid.centered(CENTER, 2.8e14, 256)
    red = gaussian_line(grid, CENTER - 1.2e14, 2e13)
    blue = gaussian_line(grid, CENTER + 1.2e14, 2e13)
    # analytic envelope overlap exp(-sep^2 / (8 sigma^2)) = exp(-18)
    w = grid.trapezoid_weights()
    overlap = float(np.sum(w * red * blue))
    assert abs(overlap) == pytest.approx(math.exp(-18.0), rel=1e-3)
    assert abs(overlap) < 1e-6


def test_coherence_time_of_two_color_pairs():
    grid = FrequencyGrid.centered(CENTER, 2.8e14, 512)
    sigma = 2e13
    sep = 2.4e14
    red = CENTER - 0.5 * sep
    blue = CENTER + 0.5 * sep
    # color tied to polarization: w_V - w_H sits at +sep in both terms,
    # central spread is just the two line widths in quadrature
    tied_to_pol = build_two_color("i", red, blue, sigma, grid)
    assert coherence_time(tied_to_pol) == pytest.approx(
        1.0 / math.sqrt(2.0 * sigma**2), rel=1e-6
    )
    # color tied to path: the two terms put w_V - w_H at +sep and -sep,
    # a bimodal profile whose central variance is sep^2 + 2 sigma^2
    tied_to_path = build_two_color("ii", red, blue, sigma, grid)
    assert coherence_time(tied_to_path) == pytest.approx(
        1.0 / math.sqrt(sep**2 + 2.0 * sigma**2), rel=1e-6
    )


def test_gaussian_filter_narrows_the_difference_spread():
    p = SpdcParams()
    grid = default_grid(p)
    state = build_type2_ultrafast(p, grid)
    filt = FilterParams(center_wavelength=780e-9, fwhm=20e-9, shape="gaussian")
    filtered = build_type2_ultrafast(p, grid, filt)
    reductions(filtered).require_normalized()
    # frozen oracle: closed-form Gaussian moments before and after the filter
    tc_before = support.type2_coherence_time(p.sigma_h, p.sigma_v, p.pump_sigma)
    tc_after = support.type2_coherence_time(
        p.sigma_h, p.sigma_v, p.pump_sigma, filt.fwhm_frequency
    )
    assert coherence_time(state) == pytest.approx(tc_before, rel=1e-6)
    assert coherence_time(filtered) == pytest.approx(tc_after, rel=1e-6)
    assert tc_after > tc_before
    # filtering acts identically on both pair terms: antisymmetry survives
    assert as_residual(filtered) < 1e-12


def test_tophat_filter_wider_than_grid_is_identity():
    p = SpdcParams()
    grid = default_grid(p)
    state = build_type2_ultrafast(p, grid)
    wide = FilterParams(center_wavelength=780e-9, fwhm=400e-9, shape="tophat")
    same = build_type2_ultrafast(p, grid, wide)
    np.testing.assert_allclose(same.f_h1v2.values, state.f_h1v2.values, rtol=1e-12)
    np.testing.assert_allclose(same.f_v1h2.values, state.f_v1h2.values, rtol=1e-12)


def test_filter_outside_grid_is_rejected():
    p = SpdcParams()
    grid = default_grid(p)
    outside = FilterParams(center_wavelength=500e-9, fwhm=0.05e-9, shape="tophat")
    with pytest.raises(ValueError, match="filter"):
        build_type2_ultrafast(p, grid, outside)


def test_spdc_params_reject_widths_whose_square_is_not_finite():
    for kwargs in (
        {"sigma_h": 1e300},
        {"sigma_v": 1e-200},
        {"pump_duration_fwhm": 1e-315},
        {"pump_duration_fwhm": 1e285},
        {"sigma_h": math.nan},
    ):
        with pytest.raises(ValueError):
            SpdcParams(**kwargs)
    # the widest and narrowest widths that still square finitely are kept
    SpdcParams(sigma_h=1e150, sigma_v=1e-150)


def test_builders_refuse_an_emission_time_without_finite_phases():
    # t_v w overflows on the grid although t_v itself is finite
    p = SpdcParams(t_v=1e293)
    grid = default_grid(p, 64)
    for build in (
        lambda: build_type2_ultrafast(p, grid),
        lambda: build_type2_ultrafast(p, grid, antisymmetric=True),
        lambda: type2_joint_envelope(p, grid),
    ):
        with pytest.raises(ValueError, match="t_v 1e[+]293 s gives non-finite phases on the grid"):
            build()


def test_filter_params_reject_a_fwhm_not_below_the_center():
    for fwhm in (780e-9, 2e-6):
        with pytest.raises(ValueError, match="filter fwhm"):
            FilterParams(center_wavelength=780e-9, fwhm=fwhm)
    assert FilterParams(center_wavelength=780e-9, fwhm=779e-9).fwhm == 779e-9


def test_filter_with_a_center_outside_the_grid_span_is_rejected():
    # the passband reaches the grid, but its center lies far below it
    p = SpdcParams(t_v=0.0)
    broad = FilterParams(center_wavelength=1500e-9, fwhm=1000e-9, shape="gaussian")
    with pytest.raises(ValueError, match="filter center"):
        build_type2_ultrafast(p, default_grid(p), broad)


def _peak_relative_error(actual: np.ndarray, expected: np.ndarray) -> float:
    return float(np.abs(actual - expected).max() / np.abs(expected).max())


_FILTERS = {
    "none": None,
    "gaussian": FilterParams(center_wavelength=780e-9, fwhm=20e-9, shape="gaussian"),
    "tophat": FilterParams(center_wavelength=780e-9, fwhm=20e-9, shape="tophat"),
}


@pytest.mark.parametrize("n_points", [64, 256])
@pytest.mark.parametrize("filter_name", sorted(_FILTERS))
@pytest.mark.parametrize("delay", [0.0, 25e-15])
@pytest.mark.parametrize("phi", [0.0, math.pi, 1.0])
def test_factored_type2_build_matches_the_direct_formula(phi, delay, filter_name, n_points):
    p = SpdcParams(phi=phi, extra_group_delay_arm2=delay)
    grid = default_grid(p, n_points)
    filt = _FILTERS[filter_name]
    built = build_type2_ultrafast(p, grid, filt)
    direct = support.direct_type2_state(p, grid, filt)
    reductions(built).require_normalized()
    for ours, reference in ((built.f_h1v2, direct.f_h1v2), (built.f_v1h2, direct.f_v1h2)):
        assert _peak_relative_error(ours.values, reference.values) <= 1e-12
    if filt is not None:
        # the folded filter equals filtering the unfiltered build afterwards
        refiltered = support.apply_filters(build_type2_ultrafast(p, grid), filt)
        assert _peak_relative_error(built.f_v1h2.values, refiltered.f_v1h2.values) <= 1e-12


@pytest.mark.parametrize("n_points", [64, 256])
@pytest.mark.parametrize("filter_name", sorted(_FILTERS))
def test_factored_antisymmetric_build_matches_the_direct_formula(filter_name, n_points):
    p = SpdcParams()
    grid = default_grid(p, n_points)
    filt = _FILTERS[filter_name]
    built = build_type2_ultrafast(p, grid, filt, antisymmetric=True)
    direct = support.direct_type2_state(p, grid, filt, antisymmetric=True)
    reductions(built).require_normalized()
    assert _peak_relative_error(built.f_h1v2.values, direct.f_h1v2.values) <= 1e-12
    np.testing.assert_array_equal(built.f_v1h2.values, -built.f_h1v2.values)
    # the library's own two-step route builds the same state
    two_step = build_antisymmetric(type2_joint_envelope(p, grid))
    if filt is not None:
        two_step = support.apply_filters(two_step, filt)
    assert _peak_relative_error(built.f_h1v2.values, two_step.f_h1v2.values) <= 1e-12


@pytest.mark.parametrize("antisymmetric", [False, True])
def test_factored_build_matches_the_direct_formula_on_an_off_center_grid(antisymmetric):
    # a grid centered away from the degenerate frequency makes the pump's
    # 2N - 1 values asymmetric, so a transposed or reversed pump shows
    p = SpdcParams(phi=1.0, extra_group_delay_arm2=25e-15)
    grid = FrequencyGrid.centered(p.photon_center_frequency + 1e14, 5e14, 256)
    filt = _FILTERS["gaussian"]
    built = build_type2_ultrafast(p, grid, filt, antisymmetric=antisymmetric)
    direct = support.direct_type2_state(p, grid, filt, antisymmetric=antisymmetric)
    for ours, reference in ((built.f_h1v2, direct.f_h1v2), (built.f_v1h2, direct.f_v1h2)):
        assert _peak_relative_error(ours.values, reference.values) <= 1e-12


def test_factored_envelope_matches_the_direct_formula():
    p = SpdcParams(phi=1.0)
    grid = default_grid(p)
    direct = support.direct_type2_state(p, grid, antisymmetric=True).f_h1v2.values
    envelope = type2_joint_envelope(p, grid).values
    # the direct state is the envelope scaled by a real positive constant
    scale = np.abs(direct).max() / np.abs(envelope).max()
    assert _peak_relative_error(scale * envelope, direct) <= 1e-12


@pytest.mark.parametrize("antisymmetric", [False, True])
def test_factored_build_keeps_its_rejections(antisymmetric):
    p = SpdcParams()
    narrow = FrequencyGrid.centered(p.photon_center_frequency, 1.0e14, 64)
    with pytest.raises(ValueError, match="grid too narrow for the joint spectral envelope"):
        build_type2_ultrafast(p, narrow, antisymmetric=antisymmetric)
    grid = default_grid(p, 64)
    off_grid = FilterParams(center_wavelength=1500e-9, fwhm=1000e-9)
    with pytest.raises(ValueError, match="filter center .* lies outside the grid's frequency span"):
        build_type2_ultrafast(p, grid, off_grid, antisymmetric=antisymmetric)
    # centered on the grid, but a passband narrower than the step between
    # two grid points transmits nothing
    between_points = FilterParams(center_wavelength=780e-9, fwhm=1e-13, shape="tophat")
    with pytest.raises(ValueError, match="filter support lies outside the grid"):
        build_type2_ultrafast(p, grid, between_points, antisymmetric=antisymmetric)


def _dense_magnitude(magnitude) -> np.ndarray:
    g, h, p = magnitude
    return np.outer(g, h) * p[np.add.outer(np.arange(g.size), np.arange(h.size))]


@settings(max_examples=60, deadline=None)
@given(
    sigma_h=st.floats(min_value=1e12, max_value=1e15),
    sigma_v=st.floats(min_value=1e12, max_value=1e15),
    pump_fs=st.floats(min_value=5.0, max_value=5000.0),
    offset=st.floats(min_value=-3.0, max_value=3.0),
    half_width=st.floats(min_value=0.5, max_value=20.0),
    n_points=st.integers(min_value=2, max_value=80),
)
def test_type2_peak_and_edge_match_the_dense_magnitude(
    sigma_h, sigma_v, pump_fs, offset, half_width, n_points
):
    # the O(N) row-wise peak search against the max over all N^2 products
    p = SpdcParams(sigma_h=sigma_h, sigma_v=sigma_v, pump_duration_fwhm=pump_fs * 1e-15)
    scale = max(sigma_h, sigma_v)
    grid = FrequencyGrid.centered(
        p.photon_center_frequency + offset * scale, half_width * scale, n_points
    )
    magnitude, extremes = sources._type2_factors(p, grid)
    assert extremes == sources._extremes(_dense_magnitude(magnitude))


def test_type2_peak_and_edge_match_the_dense_magnitude_on_seeded_draws():
    # each of the four grid sides holds the largest boundary value in about
    # a quarter of these draws
    rng = np.random.default_rng(2)
    for _ in range(400):
        sigma_h, sigma_v = 10.0 ** rng.uniform(12.0, 15.0, 2)
        p = SpdcParams(
            sigma_h=sigma_h, sigma_v=sigma_v, pump_duration_fwhm=10.0 ** rng.uniform(-14.3, -11.3)
        )
        scale = max(sigma_h, sigma_v)
        grid = FrequencyGrid.centered(
            p.photon_center_frequency + rng.uniform(-3.0, 3.0) * scale,
            rng.uniform(0.5, 20.0) * scale,
            int(rng.integers(2, 80)),
        )
        magnitude, extremes = sources._type2_factors(p, grid)
        assert extremes == sources._extremes(_dense_magnitude(magnitude))


def test_outer_peak_and_edge_match_the_dense_magnitude():
    grid = FrequencyGrid.centered(CENTER, 1.8e14, 97)
    lines = [gaussian_line(grid, CENTER + shift, 2.5e13) for shift in (-1.2e14, 0.0, 4e13)]
    for a in lines:
        for b in lines:
            assert sources._outer_extremes(a, b) == sources._extremes(np.abs(np.outer(a, b)))
            complex_a = a.astype(np.complex128)
            assert sources._outer_extremes(complex_a, b) == sources._extremes(
                np.abs(np.outer(complex_a, b))
            )


def _narrow_grid_message(mags: np.ndarray, what: str) -> str:
    peak, edge = sources._extremes(mags)
    return (
        f"grid too narrow for {what}: boundary amplitude is {edge / peak:.3e} "
        f"of the peak (limit {sources.EDGE_FRACTION_TOL:.1e}); widen the grid"
    )


def test_builders_name_the_dense_edge_ratio_when_the_grid_is_too_narrow():
    p = SpdcParams()
    narrow = FrequencyGrid.centered(p.photon_center_frequency, 1.0e14, 64)
    magnitude = _dense_magnitude(sources._type2_factors(p, narrow)[0])
    message = _narrow_grid_message(magnitude, "the joint spectral envelope")
    for antisymmetric in (False, True):
        with pytest.raises(ValueError) as error:
            build_type2_ultrafast(p, narrow, antisymmetric=antisymmetric)
        assert str(error.value) == message

    grid = FrequencyGrid.centered(CENTER, 1.0e14, 64)
    g1 = gaussian_line(grid, CENTER + 2e13, 2.5e13)
    g2 = gaussian_line(grid, CENTER - 2e13, 2.5e13)
    w = grid.trapezoid_weights()
    g1, g2 = (g / math.sqrt(float(np.sum(w * g * g))) for g in (g1, g2))
    with pytest.raises(ValueError) as error:
        build_bell_psi_minus(g1, g2, grid)
    g1_scaled = g1.astype(np.complex128) / math.sqrt(
        float(np.sum(w * np.abs(g1) ** 2)) * float(np.sum(w * np.abs(g2) ** 2))
    )
    assert str(error.value) == _narrow_grid_message(
        np.abs(np.outer(g1_scaled, g2)), "the Bell-state envelope"
    )

    wide = FrequencyGrid.centered(CENTER, 1.5e14, 64)
    red, blue = CENTER - 1.2e14, CENTER + 1.2e14
    with pytest.raises(ValueError) as error:
        build_two_color("ii", red, blue, 2e13, wide)
    mags = np.outer(gaussian_line(wide, red, 2e13), gaussian_line(wide, blue, 2e13))
    assert str(error.value) == _narrow_grid_message(mags, "the two-color envelope")


@pytest.mark.parametrize("case", TWO_COLOR_CASES)
def test_factored_builds_keep_the_amplitudes_of_the_dense_formulas(case):
    # values built from the factors equal the outer products they replace, bit for bit
    grid = FrequencyGrid.centered(CENTER, 2.8e14, 128)
    red, blue = gaussian_line(grid, CENTER - 1.2e14, 2e13), gaussian_line(grid, CENTER + 1.2e14, 2e13)
    state = build_two_color(case, CENTER - 1.2e14, CENTER + 1.2e14, 2e13, grid)
    f1 = np.outer(red, blue)
    f2 = -f1 if case == "i" else -np.outer(blue, red)
    for amp, expected in ((state.f_h1v2, f1), (state.f_v1h2, f2)):
        np.testing.assert_array_equal(
            amp.values.view(np.uint64), expected.astype(np.complex128).view(np.uint64)
        )
