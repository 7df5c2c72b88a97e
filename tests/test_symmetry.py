"""Symmetry residuals and the four-way classification."""

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
    SymmetryReport,
    TwoPhotonState,
    as_residual,
    bell_residual,
    build_antisymmetric,
    build_bell_psi_minus,
    build_two_color,
    build_type2_ultrafast,
    classify,
    coincidence_probability,
    correlation_scan,
    default_grid,
    gaussian_line,
    normalize,
    type2_joint_envelope,
)
from biphoton.cli import list_presets, load_config

CENTER = 2.0 * math.pi * support.SPEED_OF_LIGHT / 780e-9


def _plus_pair(n_points=64):
    grid = FrequencyGrid.centered(CENTER, 1.8e14, n_points)
    g = gaussian_line(grid, CENTER, 3e13)
    f1 = np.outer(g, g).astype(np.complex128)
    return normalize(
        TwoPhotonState(JointAmplitude(grid, f1), JointAmplitude(grid, f1.copy()))
    )


def test_as_residual_reference_points():
    p = SpdcParams(t_v=0.0)
    state = build_antisymmetric(type2_joint_envelope(p, default_grid(p)))
    assert as_residual(state) == 0.0

    # the plus-sign counterpart puts all probability into bunching
    assert as_residual(_plus_pair()) == pytest.approx(1.0, abs=1e-9)

    grid = FrequencyGrid.centered(CENTER, 2.8e14, 256)
    half_and_half = build_two_color("ii", CENTER - 1.2e14, CENTER + 1.2e14, 2e13, grid)
    assert as_residual(half_and_half) == pytest.approx(0.5, abs=1e-9)


def test_bell_residual_reference_points():
    grid = FrequencyGrid.centered(CENTER, 1.8e14, 128)
    g1 = gaussian_line(grid, CENTER + 2e13, 2.5e13)
    g2 = gaussian_line(grid, CENTER - 2e13, 2.5e13)
    assert bell_residual(build_bell_psi_minus(g1, g2, grid)) < 1e-12

    # orthogonal exchange terms sit exactly in the middle of the range
    p = SpdcParams()
    walkoff = build_type2_ultrafast(p, default_grid(p))
    assert bell_residual(walkoff) == pytest.approx(1.0, abs=0.02)

    # the plus pair with an exchange-symmetric envelope is the far end
    assert bell_residual(_plus_pair()) == pytest.approx(2.0, abs=1e-9)


def test_residuals_require_normalized_states():
    grid = FrequencyGrid.centered(CENTER, 1e14, 16)
    ones = np.ones((16, 16), dtype=np.complex128)
    state = TwoPhotonState(JointAmplitude(grid, ones), JointAmplitude(grid, -ones))
    with pytest.raises(ValueError):
        as_residual(state)
    with pytest.raises(ValueError):
        bell_residual(state)
    with pytest.raises(ValueError):
        classify(state)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_bunching_and_coincidence_split_all_probability(seed):
    # parallelogram law: as_residual + coincidence at zero delay = 1
    rng = np.random.default_rng(seed)
    state = support.make_random_state(rng, n_points=8)
    total = as_residual(state) + coincidence_probability(state, 0.0)
    assert total == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_sign_flipped_partner_completes_the_parallelogram(seed):
    # |f1 + f2|^2 + |f1 - f2|^2 = 2(|f1|^2 + |f2|^2): the minus and plus
    # combinations of one pair share the total probability
    rng = np.random.default_rng(seed)
    state = support.make_random_state(rng, n_points=8)
    flipped = TwoPhotonState(
        state.f_h1v2,
        JointAmplitude(state.grid, -state.f_v1h2.values),
    )
    assert as_residual(state) + as_residual(flipped) == pytest.approx(
        1.0, abs=1e-12
    )


def test_zero_bell_residual_implies_perfect_fringes_at_every_angle():
    # f_v1h2 = -swap(f_h1v2) forces sin^2(t1 - t2) rates even when the two
    # paths carry visibly different spectra
    grid = FrequencyGrid.centered(CENTER, 2.0e14, 128)
    g1 = gaussian_line(grid, CENTER + 3e13, 2.2e13)
    g2 = gaussian_line(grid, CENTER - 3e13, 2.2e13)
    state = build_bell_psi_minus(g1, g2, grid)
    assert bell_residual(state) < 1e-12
    for t1 in (0.0, math.pi / 7.0, math.pi / 4.0, 1.0):
        curve = correlation_scan(state, t1, np.linspace(0.0, math.pi, 13))
        assert curve.visibility == pytest.approx(1.0, abs=1e-3)


def test_classify_covers_all_four_labels():
    # Both: antisymmetric state with an exchange-symmetric envelope
    grid = FrequencyGrid.centered(CENTER, 1.8e14, 128)
    g = gaussian_line(grid, CENTER, 3e13)
    both = classify(build_bell_psi_minus(g, g, grid))
    assert both.label == "Both"

    # AS-only: one shared envelope, exchange-asymmetric via walk-off
    p = SpdcParams()
    as_only = classify(build_type2_ultrafast(p, default_grid(p)))
    assert as_only.label == "AS-only"
    assert as_only.coincidence_at_zero_delay == pytest.approx(1.0, abs=1e-6)
    assert as_only.chsh_value == pytest.approx(math.sqrt(2.0), abs=1e-6)
    assert as_only.basis45_visibility < 1e-6

    # Bell-only: color tied to path
    tc_grid = FrequencyGrid.centered(CENTER, 2.8e14, 256)
    bell_only = classify(
        build_two_color("ii", CENTER - 1.2e14, CENTER + 1.2e14, 2e13, tc_grid)
    )
    assert bell_only.label == "Bell-only"
    assert bell_only.coincidence_at_zero_delay == pytest.approx(0.5, abs=1e-6)
    assert bell_only.chsh_value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)

    # Neither: a plus-phase pair with an uncompensated arm delay
    neither_params = SpdcParams(phi=0.0, extra_group_delay_arm2=30e-15)
    neither = classify(
        build_type2_ultrafast(neither_params, default_grid(neither_params))
    )
    assert neither.label == "Neither"
    assert neither.as_residual > 0.5
    assert neither.bell_residual > 0.5


def test_classify_threshold_validation_and_sensitivity():
    p = SpdcParams()
    state = build_type2_ultrafast(p, default_grid(p))
    for bad in (0.0, 1.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            classify(state, threshold=bad)
    # a threshold above an 0.5 residual flips that symmetry to satisfied
    grid = FrequencyGrid.centered(CENTER, 2.8e14, 256)
    half = build_two_color("ii", CENTER - 1.2e14, CENTER + 1.2e14, 2e13, grid)
    assert classify(half, threshold=1e-3).label == "Bell-only"
    assert classify(half, threshold=0.6).label == "Both"


def test_symmetry_report_rejects_unknown_labels():
    with pytest.raises(ValueError):
        SymmetryReport(
            as_residual=0.0,
            bell_residual=0.0,
            label="Unknown",
            coincidence_at_zero_delay=1.0,
            chsh_value=2.0,
            basis45_visibility=1.0,
        )


@pytest.mark.parametrize("n_points", [64, 256, 512])
@pytest.mark.parametrize("preset", [name for name, _ in list_presets()])
def test_classify_reports_the_library_coincidence_probability(preset, n_points):
    # both take P_cc(0) from the same quadratures and the same closed form
    state = load_config(preset).build_state(n_points)
    assert classify(state).coincidence_at_zero_delay == coincidence_probability(state, 0.0)
