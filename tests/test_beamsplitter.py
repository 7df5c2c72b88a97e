"""Beamsplitter output, coincidence curves, delay scans, and path alternatives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from biphoton import (
    FrequencyGrid,
    JointAmplitude,
    SpdcParams,
    TwoPhotonState,
    apply_path1_delay,
    bs_transform,
    build_antisymmetric,
    build_two_color,
    build_type2_ultrafast,
    coherence_time,
    coincidence_probability,
    default_grid,
    delay_scan,
    feynman_decomposition,
    gaussian_line,
    normalize,
    wavelength_to_angular_frequency,
)
from biphoton.beamsplitter import FLAT_VISIBILITY, _rates
from biphoton.cli import list_presets, load_config
from biphoton.core import Factors, spectra

CENTER = wavelength_to_angular_frequency(780e-9)


@pytest.fixture(scope="module")
def minus_state():
    p = SpdcParams()
    return build_type2_ultrafast(p, default_grid(p)), p


def _symmetric_pair(n_points=64):
    # f_v1h2 = +f_h1v2: the fully bunching configuration
    grid = FrequencyGrid.centered(CENTER, 1.8e14, n_points)
    g = gaussian_line(grid, CENTER, 3e13)
    f1 = np.outer(g, g).astype(np.complex128)
    return normalize(
        TwoPhotonState(JointAmplitude(grid, f1), JointAmplitude(grid, f1.copy()))
    )


def test_minus_state_has_empty_bunching_channels(minus_state):
    state, _ = minus_state
    out = bs_transform(state)
    # the pi pair phase cancels the bunched channels down to the rounding
    # of exp(-i pi) itself
    assert out.probability_both_in_3 < 1e-30
    assert out.probability_both_in_4 < 1e-30
    assert out.probability_coincidence == pytest.approx(1.0, abs=1e-9)
    assert out.total_probability == pytest.approx(1.0, abs=1e-9)

    exact = build_antisymmetric(state.f_h1v2)
    exact_out = bs_transform(exact)
    # here f_v1h2 = -f_h1v2 holds bitwise, so the cancellation is exact
    assert np.all(exact_out.b_33.values == 0)
    assert np.all(exact_out.b_44.values == 0)


def test_plus_state_never_produces_coincidences():
    out = bs_transform(_symmetric_pair())
    assert np.all(out.a_43.values == 0)
    assert np.all(out.a_34.values == 0)
    assert out.probability_coincidence == 0.0
    assert out.probability_both_in_3 == pytest.approx(0.5, abs=1e-9)
    assert out.probability_both_in_4 == pytest.approx(0.5, abs=1e-9)


def test_total_probability_is_conserved_for_randomized_inputs():
    rng = np.random.default_rng(20260816)
    for _ in range(1000):
        state = support.make_random_state(rng, n_points=8)
        delay = float(rng.uniform(-1e-13, 1e-13))
        out = bs_transform(apply_path1_delay(state, delay))
        assert abs(out.total_probability - 1.0) < 1e-9


def test_coincidence_probability_agrees_with_full_transform():
    rng = np.random.default_rng(42)
    for _ in range(20):
        state = support.make_random_state(rng, n_points=16)
        delay = float(rng.uniform(-2e-13, 2e-13))
        direct = coincidence_probability(state, delay)
        via_output = bs_transform(apply_path1_delay(state, delay)).probability_coincidence
        assert direct == pytest.approx(via_output, rel=1e-12, abs=1e-12)


def test_coincidence_at_zero_delay_follows_the_pair_phase():
    # P(0) = (1 - cos phi) / 2 regardless of walk-off or bandwidth
    # asymmetry, because both alternatives share one envelope
    grid = default_grid(SpdcParams())
    for phi in (0.0, math.pi / 3.0, math.pi / 2.0, 2.2, math.pi):
        state = build_type2_ultrafast(SpdcParams(phi=phi), grid)
        assert coincidence_probability(state) == pytest.approx(
            (1.0 - math.cos(phi)) / 2.0, abs=1e-9
        )


def test_coincidence_curve_matches_gaussian_envelope(minus_state):
    # frozen oracle: P(tau) = 1/2 + (1/2) exp(-Var(w_V - w_H) tau^2 / 2)
    # with the variance from closed-form 2x2 Gaussian moments
    state, p = minus_state
    var = support.difference_variance(
        support.type2_intensity_precision(p.sigma_h, p.sigma_v, p.pump_sigma)
    )
    for tau in (0.0, 5e-15, 12e-15, 30e-15, -20e-15, 60e-15):
        expected = 0.5 + 0.5 * support.interference_envelope(tau, var)
        assert coincidence_probability(state, tau) == pytest.approx(
            expected, abs=1e-7
        )


def test_coincidence_curve_is_independent_of_walkoff():
    # central claim: the peak shape depends only on |F|^2 through
    # w_V - w_H, so source walk-off cannot degrade it
    grid = default_grid(SpdcParams())
    with_walkoff = build_type2_ultrafast(SpdcParams(t_v=400e-15), grid)
    without = build_type2_ultrafast(SpdcParams(t_v=0.0), grid)
    for tau in (0.0, 10e-15, 25e-15, -40e-15):
        assert abs(
            coincidence_probability(with_walkoff, tau)
            - coincidence_probability(without, tau)
        ) < 1e-12


def test_coincidence_curve_shifts_with_common_emission_time():
    # retiming both photons together is a global phase reshuffle that
    # leaves every coincidence rate unchanged at the same delay
    grid = default_grid(SpdcParams())
    base = build_type2_ultrafast(SpdcParams(t_h=0.0, t_v=400e-15), grid)
    shifted = build_type2_ultrafast(SpdcParams(t_h=70e-15, t_v=470e-15), grid)
    for tau in (0.0, 15e-15, -35e-15):
        assert abs(
            coincidence_probability(base, tau)
            - coincidence_probability(shifted, tau)
        ) < 1e-12


def test_arm2_delay_translates_the_delay_axis():
    grid = default_grid(SpdcParams())
    base = build_type2_ultrafast(SpdcParams(extra_group_delay_arm2=0.0), grid)
    moved = build_type2_ultrafast(SpdcParams(extra_group_delay_arm2=25e-15), grid)
    for tau in (0.0, 10e-15, -30e-15, 55e-15):
        assert coincidence_probability(moved, tau + 25e-15) == pytest.approx(
            coincidence_probability(base, tau), abs=1e-12
        )


def test_mode_overlap_scales_only_the_interference_term():
    rng = np.random.default_rng(3)
    state = support.make_random_state(rng, n_points=16)
    for tau in (0.0, 3e-14):
        p_full = coincidence_probability(state, tau, mode_overlap=1.0)
        p_none = coincidence_probability(state, tau, mode_overlap=0.0)
        p_half = coincidence_probability(state, tau, mode_overlap=0.5)
        assert p_half == pytest.approx(0.5 * (p_full + p_none), abs=1e-12)
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError):
            coincidence_probability(state, 0.0, mode_overlap=bad)


@pytest.mark.parametrize(
    "bad",
    [math.nan, math.inf, -math.inf, 1e300, pytest.param(np.float64(1e300), id="np-1e300")],
)
def test_coincidence_probability_rejects_non_finite_delays(minus_state, bad):
    state, _ = minus_state
    with pytest.raises(ValueError, match="delays must be finite"):
        coincidence_probability(state, bad)
    # the amplitude route refuses the same delays before forming any phase
    with pytest.raises(ValueError, match="non-finite phases"):
        apply_path1_delay(state, bad)


def test_coincidence_probability_is_clamped_to_unit_interval(minus_state):
    state, _ = minus_state
    p = coincidence_probability(state, 0.0)
    assert 0.0 <= p <= 1.0
    assert p == pytest.approx(1.0, abs=1e-9)


def test_apply_path1_delay_phases_the_correct_axes():
    rng = np.random.default_rng(9)
    state = support.make_random_state(rng, n_points=8)
    tau = 7e-14
    delayed = apply_path1_delay(state, tau)
    phase = np.exp(1j * state.grid.points() * tau)
    np.testing.assert_allclose(
        delayed.f_h1v2.values, state.f_h1v2.values * phase[:, None], rtol=1e-12
    )
    np.testing.assert_allclose(
        delayed.f_v1h2.values, state.f_v1h2.values * phase[None, :], rtol=1e-12
    )
    assert apply_path1_delay(state, 0.0) is state


def test_apply_path1_delay_of_a_built_state_keeps_its_factors():
    state = load_config("uncompensated_peak").build_state(256)
    tau = 2.0 * coherence_time(state)
    delayed = apply_path1_delay(state, tau)
    for amplitude in (delayed.f_h1v2, delayed.f_v1h2):
        assert amplitude.factors is not None
        assert "values" not in amplitude.__dict__
    phase = np.exp(1j * state.grid.points() * tau)
    dense = (state.f_h1v2.values * phase[:, None], state.f_v1h2.values * phase[None, :])
    for amplitude, reference in zip((delayed.f_h1v2, delayed.f_v1h2), dense):
        scale = float(np.max(np.abs(reference)))
        assert float(np.max(np.abs(amplitude.values - reference))) <= 1e-15 * scale


def test_coincidence_probability_takes_no_spectra_pass(minus_state, monkeypatch):
    import biphoton.beamsplitter as beamsplitter_module

    state, _ = minus_state
    delay = 2.0 * coherence_time(state)
    expected = coincidence_probability(state, delay, mode_overlap=0.75)

    def refused(*_):
        raise AssertionError("spectra pass")

    monkeypatch.setattr(beamsplitter_module, "spectra", refused)
    assert coincidence_probability(state, delay, mode_overlap=0.75) == expected


@pytest.mark.parametrize("form", ["factored", "dense"])
def test_coherence_time_takes_no_spectra_pass(minus_state, monkeypatch, form):
    import biphoton.beamsplitter as beamsplitter_module
    import biphoton.core as core_module

    state, _ = minus_state
    if form == "dense":
        state = TwoPhotonState(*(JointAmplitude(state.grid, np.array(f.values)) for f in (
            state.f_h1v2, state.f_v1h2)))
    expected = coherence_time(state)

    def refused(*_):
        raise AssertionError("spectra pass")

    for module in (beamsplitter_module, core_module):
        monkeypatch.setattr(module, "spectra", refused)
    assert coherence_time(state) == expected


def test_coherence_time_matches_closed_form(minus_state):
    state, p = minus_state
    expected = support.type2_coherence_time(p.sigma_h, p.sigma_v, p.pump_sigma)
    assert coherence_time(state) == pytest.approx(expected, rel=1e-6)


def test_coherence_time_rejects_degenerate_spread():
    grid = FrequencyGrid.centered(CENTER, 1e14, 16)
    diag = np.diag(np.ones(16)).astype(np.complex128)
    state = TwoPhotonState(
        JointAmplitude(grid, diag), JointAmplitude(grid, -diag)
    )
    # all weight sits on w_V = w_H, so the difference spread vanishes
    with pytest.raises(ValueError):
        coherence_time(state)
    zero = JointAmplitude(grid, np.zeros((16, 16)))
    with pytest.raises(ValueError, match="zero norm"):
        coherence_time(TwoPhotonState(zero, zero))


@pytest.mark.parametrize("i, j", [(3, 11), (0, 15), (7, 8), (0, 3), (1, 12), (6, 7), (3, 3)])
def test_coherence_time_rejects_the_spread_of_a_factored_point(i, j):
    # all weight sits at one w_V - w_H; its moments expand into terms whose
    # rounding must not read as a spread (the last four give a positive
    # variance of rounding)
    grid = FrequencyGrid.centered(CENTER, 1e14, 16)
    x, y = np.zeros(16, dtype=np.complex128), np.zeros(16, dtype=np.complex128)
    x[i], y[j], p = 1.0, 1.0, np.ones(31)
    state = TwoPhotonState(
        JointAmplitude(grid, factors=Factors(x, y, p)),
        JointAmplitude(grid, factors=Factors(-x, y, p)),
    )
    with pytest.raises(ValueError, match="frequency-difference spread is zero"):
        coherence_time(state)


def test_delay_scan_summary_numbers(minus_state):
    state, _ = minus_state
    tau_c = coherence_time(state)
    axis = np.linspace(-12.0 * tau_c, 12.0 * tau_c, 121)
    curve = delay_scan(state, axis)
    assert curve.background == pytest.approx(0.5, abs=1e-3)
    assert curve.extremum == pytest.approx(1.0, abs=1e-6)
    assert abs(curve.extremum_delay) <= axis[1] - axis[0]
    assert curve.visibility == pytest.approx(1.0, abs=2e-3)
    assert np.all(np.diff(curve.delays) > 0)
    assert curve.delays.shape == curve.rates.shape == (121,)

    dip_params = SpdcParams(phi=0.0)
    dip = build_type2_ultrafast(dip_params, default_grid(dip_params))
    dip_curve = delay_scan(dip, axis)
    assert dip_curve.extremum == pytest.approx(0.0, abs=1e-6)
    assert dip_curve.visibility == pytest.approx(1.0, abs=2e-3)


def test_delay_scan_visibility_tracks_mode_overlap(minus_state):
    state, _ = minus_state
    tau_c = coherence_time(state)
    axis = np.linspace(-12.0 * tau_c, 12.0 * tau_c, 121)
    curve = delay_scan(state, axis, mode_overlap=0.75)
    assert curve.visibility == pytest.approx(0.75, abs=2e-3)
    for bad in (-0.1, 1.5):
        with pytest.raises(ValueError, match="mode_overlap"):
            delay_scan(state, axis, mode_overlap=bad)


def _assert_scan_matches_direct_rates(state, axis, mode_overlap):
    # the closed-form scan and the library's single-delay rate (three
    # quadratures) against one direct N^2 pass per delay
    curve = delay_scan(state, axis, mode_overlap=mode_overlap)
    direct = [
        support.direct_coincidence_probability(state, float(d), mode_overlap)
        for d in np.sort(axis)
    ]
    np.testing.assert_allclose(curve.rates, direct, rtol=0.0, atol=1e-13)
    sample = np.sort(axis)[::10]
    single = [
        coincidence_probability(state, float(d), mode_overlap=mode_overlap) for d in sample
    ]
    np.testing.assert_allclose(single, direct[::10], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("n_points", [64, 256])
@pytest.mark.parametrize("preset", [name for name, _ in list_presets()])
def test_delay_scan_matches_per_delay_coincidence_on_presets(preset, n_points):
    config = load_config(preset)
    state = config.build_state(n_points)
    axis = np.random.default_rng(n_points).permutation(config.scan.delays())
    for mode_overlap in (1.0, 0.75):
        _assert_scan_matches_direct_rates(state, axis, mode_overlap)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_points=st.integers(min_value=3, max_value=16),
    mode_overlap=st.sampled_from([1.0, 0.75]),
)
def test_delay_scan_matches_per_delay_coincidence_on_random_states(
    seed, n_points, mode_overlap
):
    rng = np.random.default_rng(seed)
    state = support.make_random_state(rng, n_points=n_points)
    tau_c = coherence_time(state)
    axis = rng.permutation(np.linspace(-12.0 * tau_c, 12.0 * tau_c, 41))
    _assert_scan_matches_direct_rates(state, axis, mode_overlap)


def test_delay_scan_locates_an_arm2_offset():
    params = SpdcParams(extra_group_delay_arm2=30e-15)
    state = build_type2_ultrafast(params, default_grid(params))
    axis = np.linspace(-500e-15, 500e-15, 201)
    curve = delay_scan(state, axis)
    step = axis[1] - axis[0]
    assert abs(curve.extremum_delay - 30e-15) <= 0.5 * step + 1e-18


def test_delay_scan_accepts_unsorted_input(minus_state):
    state, _ = minus_state
    tau_c = coherence_time(state)
    rng = np.random.default_rng(5)
    axis = rng.permutation(np.linspace(-12.0 * tau_c, 12.0 * tau_c, 81))
    curve = delay_scan(state, axis)
    assert np.all(np.diff(curve.delays) > 0)
    with pytest.raises(ValueError):
        curve.rates[0] = 2.0


def test_delay_scan_rejects_short_spans(minus_state):
    state, _ = minus_state
    tau_c = coherence_time(state)
    with pytest.raises(ValueError, match="10 coherence times"):
        delay_scan(state, np.linspace(-5.0 * tau_c, 12.0 * tau_c, 50))
    with pytest.raises(ValueError):
        delay_scan(state, [0.0])
    with pytest.raises(ValueError):
        delay_scan(state, [-1e-12, math.nan, 1e-12])
    with pytest.raises(ValueError, match="finite phases"):
        delay_scan(state, [-1e300, 0.0, 1e300])


def test_delay_scan_checks_its_span_before_the_spectra_pass(minus_state, monkeypatch):
    import biphoton.beamsplitter as beamsplitter_module

    state, _ = minus_state
    tau_c = coherence_time(state)

    def refused(*_):
        raise AssertionError("spectra pass")

    monkeypatch.setattr(beamsplitter_module, "spectra", refused)
    with pytest.raises(ValueError, match="10 coherence times"):
        delay_scan(state, np.linspace(-5.0 * tau_c, 12.0 * tau_c, 50))


def test_delay_scan_refuses_a_zero_background(minus_state, monkeypatch):
    import biphoton.beamsplitter as beamsplitter_module

    state, _ = minus_state
    tau_c = coherence_time(state)
    monkeypatch.setattr(
        beamsplitter_module, "_rates", lambda state, delays, mode_overlap: np.zeros(delays.size)
    )
    with pytest.raises(ValueError, match="scan background is zero"):
        delay_scan(state, np.linspace(-12.0 * tau_c, 12.0 * tau_c, 41))


def test_feynman_sums_reproduce_the_coincidence_amplitudes():
    rng = np.random.default_rng(11)
    for delay in (0.0, 4e-14):
        state = support.make_random_state(rng, n_points=16)
        out = bs_transform(apply_path1_delay(state, delay))
        parts = feynman_decomposition(apply_path1_delay(state, delay))
        # algebraic identity, exact down to the last bit
        np.testing.assert_array_equal(
            parts.psi_1.values + parts.psi_4.values, out.a_43.values
        )
        np.testing.assert_array_equal(
            parts.psi_2.values + parts.psi_3.values, out.a_34.values
        )


def test_feynman_overlap_separates_the_two_peak_mechanisms(minus_state):
    state, _ = minus_state
    # one shared envelope: the interfering alternatives are identical
    parts = feynman_decomposition(state)
    assert parts.overlap_14 == pytest.approx(1.0, abs=1e-12)
    assert parts.overlap_23 == pytest.approx(1.0, abs=1e-12)

    # color tied to path: the alternatives are disjoint in frequency and
    # cannot interfere, even though the Bell correlations are perfect
    grid = FrequencyGrid.centered(CENTER, 2.8e14, 256)
    disjoint = build_two_color("ii", CENTER - 1.2e14, CENTER + 1.2e14, 2e13, grid)
    parts2 = feynman_decomposition(disjoint)
    assert parts2.overlap_14 < 1e-9
    assert parts2.overlap_23 < 1e-9


def test_feynman_overlap_of_vanishing_alternative_is_zero():
    grid = FrequencyGrid.centered(CENTER, 1.8e14, 32)
    g = gaussian_line(grid, CENTER, 3e13)
    f1 = np.outer(g, g).astype(np.complex128)
    state = normalize(
        TwoPhotonState(
            JointAmplitude(grid, f1), JointAmplitude(grid, np.zeros_like(f1))
        )
    )
    parts = feynman_decomposition(state)
    assert parts.overlap_14 == 0.0
    assert parts.overlap_23 == 0.0


def _assert_overlaps_match_direct(state, delay):
    parts = feynman_decomposition(apply_path1_delay(state, delay))
    assert parts.overlap_14 == parts.overlap_23
    assert parts.overlap_14 == pytest.approx(
        support.direct_feynman_overlap(state, delay), rel=0.0, abs=1e-12
    )


@pytest.mark.parametrize("preset", [name for name, _ in list_presets()])
def test_feynman_overlap_matches_direct_sums_on_presets(preset):
    state = load_config(preset).build_state(256)
    tau_c = coherence_time(state)
    for delay in (0.0, 2.0 * tau_c, -5.0 * tau_c):
        _assert_overlaps_match_direct(state, delay)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_points=st.integers(min_value=3, max_value=16),
)
def test_feynman_overlap_matches_direct_sums_on_random_states(seed, n_points):
    rng = np.random.default_rng(seed)
    state = support.make_random_state(rng, n_points=n_points)
    tau_c = coherence_time(state)
    _assert_overlaps_match_direct(state, rng.uniform(-5.0, 5.0) * tau_c)


def _closest_to_zero(axis) -> float:
    axis = np.sort(np.asarray(axis))
    return float(axis[np.argmin(np.abs(axis))])


def test_flat_scan_reports_its_extremum_at_the_sample_closest_to_zero_delay():
    # color tied to path: the two alternatives never overlap, so the curve
    # is flat and its deviations from the background are rounding noise
    config = load_config("two_color_path")
    state = config.build_state()
    delays = config.scan.delays()
    curve = delay_scan(state, delays)
    assert curve.visibility < FLAT_VISIBILITY
    assert curve.extremum_delay == _closest_to_zero(delays)
    # a global phase changes only the rounding of every sum, not the answer
    phase = np.exp(0.3j)
    rephased = TwoPhotonState(
        JointAmplitude(state.grid, phase * state.f_h1v2.values),
        JointAmplitude(state.grid, phase * state.f_v1h2.values),
    )
    assert delay_scan(rephased, delays).extremum_delay == curve.extremum_delay
    # without a zero sample the nearest one is reported
    shifted = delays + 1.5e-15
    assert delay_scan(state, shifted).extremum_delay == _closest_to_zero(shifted)


def test_visibility_floor_separates_flat_from_faint_curves():
    # the dip of uncompensated_dip sits at +30 fs; damping it below the
    # floor makes the curve flat, damping it less keeps the dip position
    config = load_config("uncompensated_dip")
    state = config.build_state()
    delays = config.scan.delays()
    faint = delay_scan(state, delays, mode_overlap=1e-6)
    assert faint.visibility > FLAT_VISIBILITY
    assert abs(faint.extremum_delay - 30e-15) <= 2.5e-15
    flat = delay_scan(state, delays, mode_overlap=1e-12)
    assert flat.visibility < FLAT_VISIBILITY
    assert flat.extremum_delay == _closest_to_zero(delays)


def _extended_precision_rates(state, delays, mode_overlap):
    # 1/4 sum_ij w_i w_j (|F1|^2 + |F2|^2) - 1/2 mode_overlap Re sum c_k e^{i k dw tau}
    # in long double, each phase formed from the exact integer k
    ld = np.longdouble
    c = spectra(state)
    k = np.arange(c.size, dtype=ld) - c.size // 2
    phase = np.asarray(delays, dtype=ld)[:, None] * (k * ld(state.grid.step))[None, :]
    cross = np.cos(phase) @ c.real.astype(ld) - np.sin(phase) @ c.imag.astype(ld)
    w = state.grid.trapezoid_weights().astype(ld)
    total = ld(0.0)
    for amplitude in (state.f_h1v2, state.f_v1h2):
        parts = amplitude.values.view(np.float64).astype(ld)
        total += w @ (np.square(parts[:, 0::2]) + np.square(parts[:, 1::2])) @ w
    return np.clip(0.25 * total - 0.5 * ld(mode_overlap) * cross, 0.0, 1.0)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="long double is no wider than double here",
)
@pytest.mark.parametrize("n_points", [64, 256, 1024])
@pytest.mark.parametrize("preset", [name for name, _ in list_presets()])
def test_scan_rates_match_an_extended_precision_evaluation(preset, n_points):
    # a grid step taken as a difference of two float offsets fails this bound
    config = load_config(preset)
    state = config.build_state(n_points)
    delays = config.scan.delays()
    for mode_overlap in (1.0, 0.75):
        rates = delay_scan(state, delays, mode_overlap=mode_overlap).rates
        reference = _extended_precision_rates(state, delays, mode_overlap)
        assert float(np.max(np.abs(rates - reference))) <= 2e-15


@pytest.mark.parametrize("name", ["uncompensated_peak", "bell_ideal", "two_color_path"])
def test_scans_of_a_built_state_form_no_amplitude(name):
    import tracemalloc

    n_points = 1024
    config = load_config(name)
    state = config.build_state(n_points)
    delays = config.scan.delays()
    calls = {
        "delay_scan": lambda: delay_scan(state, delays),
        "coincidence_probability": lambda: coincidence_probability(state, 1e-14),
        "coherence_time": lambda: coherence_time(state),
    }
    for label, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * n_points**2 / 8, label
    for amp in (state.f_h1v2, state.f_v1h2):
        assert "values" not in amp.__dict__


@pytest.mark.parametrize("n_points", [2, 5, 13, 1024])
def test_scan_rates_do_not_depend_on_the_batch(n_points):
    # 2N - 1 = 3 needs padding to a square table; 9 and 25 are squares
    state = support.make_random_state(np.random.default_rng(n_points), n_points=n_points)
    delays = np.linspace(-3.0, 3.0, 41) * state.grid.alias_delay
    whole = _rates(state, delays, 0.75)
    halves = np.concatenate([_rates(state, delays[:20], 0.75), _rates(state, delays[20:], 0.75)])
    single = [coincidence_probability(state, float(d), mode_overlap=0.75) for d in delays]
    direct = [support.direct_coincidence_probability(state, float(d), 0.75) for d in delays]
    np.testing.assert_array_equal(whole, halves)
    np.testing.assert_allclose(single, direct, rtol=0.0, atol=1e-15)
