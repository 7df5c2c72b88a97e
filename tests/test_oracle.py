"""Discrete-mode brute-force checker: projection, unitarity, agreement."""

import math

import numpy as np
import pytest

import support
from biphoton import (
    DiscreteModeBasis,
    FrequencyGrid,
    JointAmplitude,
    Mode,
    SpdcParams,
    TwoPhotonState,
    apply_bs_exact,
    apply_path1_delay,
    build_antisymmetric,
    build_two_color,
    build_type2_ultrafast,
    coincidence_probability,
    default_grid,
    discretize,
    normalize,
    outcome_probabilities,
    reconstruct,
    type2_joint_envelope,
    wavelength_to_angular_frequency,
)

CENTER = wavelength_to_angular_frequency(780e-9)


def _single_pair_basis(amplitudes):
    return DiscreteModeBasis(
        k_bins=2, paths=(1, 2), amplitudes=dict(amplitudes), captured_norm=1.0
    )


def test_discretize_validation():
    rng = np.random.default_rng(0)
    state = support.make_random_state(rng, n_points=8)
    for bad in (1, 0, -3, True, 2.5, 9):
        with pytest.raises(ValueError):
            discretize(state, bad)


def test_discretize_is_lossless_at_full_resolution():
    rng = np.random.default_rng(1)
    state = support.make_random_state(rng, n_points=8)
    basis = discretize(state, 8)
    assert basis.captured_norm == pytest.approx(1.0, abs=1e-12)
    assert basis.total_probability() == pytest.approx(1.0, abs=1e-12)
    # single-point bins: c[k, m] = sqrt(w_k w_m) F[k, m], pair amplitude
    # carries the extra 1/sqrt(2)
    w = state.grid.trapezoid_weights()
    for k, m in ((0, 0), (3, 5), (7, 2)):
        expected = (
            math.sqrt(w[k] * w[m]) * state.f_h1v2.values[k, m] / math.sqrt(2.0)
        )
        got = basis.amplitudes[(Mode(1, "H", k), Mode(2, "V", m))]
        assert got == pytest.approx(expected, rel=1e-9)


def test_discretize_preserves_exchange_antisymmetry_per_bin():
    p = SpdcParams(t_v=0.0)
    state = build_antisymmetric(type2_joint_envelope(p, default_grid(p)))
    basis = discretize(state, 5)
    for k in range(5):
        for m in range(5):
            a1 = basis.amplitudes.get((Mode(1, "H", k), Mode(2, "V", m)), 0.0)
            a2 = basis.amplitudes.get((Mode(1, "V", m), Mode(2, "H", k)), 0.0)
            assert a2 == pytest.approx(-a1, rel=1e-12, abs=1e-18)


def test_captured_norm_is_a_bessel_bound_and_decreases_with_refinement():
    p = SpdcParams(t_v=0.0)
    state = build_type2_ultrafast(p, default_grid(p))
    deficits = []
    for k in (4, 8, 16, 32, 64):
        captured = discretize(state, k).captured_norm
        assert 0.0 < captured <= 1.0 + 1e-12
        deficits.append(1.0 - captured)
    # nested partitions: the projection can only improve
    assert all(a > b for a, b in zip(deficits, deficits[1:]))
    # approaching the asymptotic quadratic rate by K = 64
    assert 1.5 < deficits[-2] / deficits[-1] < 8.0


def test_captured_norm_collapses_under_subbin_phase_oscillation():
    # 400 fs of walk-off wraps the bin-internal phase many times over at
    # K = 8, so flat modes capture almost nothing; the renormalized
    # discrete state is still valid, just a poor image of the continuum
    p = SpdcParams(t_v=400e-15)
    state = build_type2_ultrafast(p, default_grid(p))
    basis = discretize(state, 8)
    assert basis.captured_norm < 0.01
    assert basis.total_probability() == pytest.approx(1.0, abs=1e-12)


def test_beamsplitter_on_a_single_cross_path_pair():
    basis = _single_pair_basis({(Mode(1, "H", 0), Mode(2, "V", 0)): 1.0 + 0.0j})
    out = apply_bs_exact(basis)
    # (i H3 + H4)(V3 + i V4)/2: four alternatives of magnitude 1/2
    expected = {
        (Mode(3, "H", 0), Mode(3, "V", 0)): 0.5j,
        (Mode(3, "H", 0), Mode(4, "V", 0)): -0.5,
        (Mode(3, "V", 0), Mode(4, "H", 0)): 0.5,
        (Mode(4, "H", 0), Mode(4, "V", 0)): 0.5j,
    }
    assert set(out.amplitudes) == set(expected)
    for key, val in expected.items():
        assert out.amplitudes[key] == pytest.approx(val, abs=1e-15)
    probs = outcome_probabilities(out)
    assert probs["coincidence"] == pytest.approx(0.5, abs=1e-15)
    assert probs["both_in_3"] == pytest.approx(0.25, abs=1e-15)
    assert probs["both_in_4"] == pytest.approx(0.25, abs=1e-15)


def test_beamsplitter_on_a_doubly_occupied_mode():
    # two photons entering one port split binomially: 1/4, 1/2, 1/4;
    # this exercises the bosonic sqrt(2) bookkeeping on the diagonal
    basis = _single_pair_basis({(Mode(1, "H", 1), Mode(1, "H", 1)): 1.0 + 0.0j})
    out = apply_bs_exact(basis)
    same_3 = out.amplitudes[(Mode(3, "H", 1), Mode(3, "H", 1))]
    same_4 = out.amplitudes[(Mode(4, "H", 1), Mode(4, "H", 1))]
    split = out.amplitudes[(Mode(3, "H", 1), Mode(4, "H", 1))]
    assert abs(same_3) == pytest.approx(0.5, abs=1e-15)
    assert abs(same_4) == pytest.approx(0.5, abs=1e-15)
    assert abs(split) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert out.total_probability() == pytest.approx(1.0, abs=1e-12)


def test_beamsplitter_requires_input_paths():
    basis = _single_pair_basis({(Mode(1, "H", 0), Mode(2, "V", 0)): 1.0 + 0.0j})
    out = apply_bs_exact(basis)
    with pytest.raises(ValueError):
        apply_bs_exact(out)
    with pytest.raises(ValueError):
        outcome_probabilities(basis)


def test_discrete_route_reproduces_the_interference_extremes():
    p = SpdcParams(t_v=0.0)
    grid = default_grid(p)
    minus = build_antisymmetric(type2_joint_envelope(p, grid))
    probs = outcome_probabilities(apply_bs_exact(discretize(minus, 8)))
    assert probs["coincidence"] == pytest.approx(1.0, abs=1e-12)
    assert probs["both_in_3"] == pytest.approx(0.0, abs=1e-12)

    f1 = minus.f_h1v2.values
    plus = normalize(
        TwoPhotonState(JointAmplitude(grid, f1), JointAmplitude(grid, f1.copy()))
    )
    probs = outcome_probabilities(apply_bs_exact(discretize(plus, 8)))
    assert probs["coincidence"] == pytest.approx(0.0, abs=1e-12)
    assert probs["both_in_3"] == pytest.approx(0.5, abs=1e-12)
    assert probs["both_in_4"] == pytest.approx(0.5, abs=1e-12)


def test_discrete_route_on_disjoint_colors_is_exactly_half():
    # color tied to path: the two emission terms occupy different mode
    # pairs at any bin count, so no interference and P_cc = 1/2 exactly
    grid = FrequencyGrid.centered(CENTER, 2.8e14, 256)
    state = build_two_color("ii", CENTER - 1.2e14, CENTER + 1.2e14, 2e13, grid)
    for k in (4, 8):
        probs = outcome_probabilities(apply_bs_exact(discretize(state, k)))
        assert probs["coincidence"] == pytest.approx(0.5, abs=1e-9)


def test_transform_conserves_probability_for_random_states():
    rng = np.random.default_rng(20260816)
    for _ in range(50):
        state = support.make_random_state(rng, n_points=8)
        out = apply_bs_exact(discretize(state, 8))
        assert abs(out.total_probability() - 1.0) < 1e-12


def test_reconstruct_round_trip():
    rng = np.random.default_rng(4)
    state = support.make_random_state(rng, n_points=64)
    basis = discretize(state, 8)
    grid = state.grid
    again = discretize(reconstruct(basis, grid), 8)
    assert again.captured_norm == pytest.approx(1.0, abs=1e-12)
    assert set(again.amplitudes) == set(basis.amplitudes)
    for key, val in basis.amplitudes.items():
        assert again.amplitudes[key] == pytest.approx(val, rel=1e-9, abs=1e-15)

    out = apply_bs_exact(basis)
    with pytest.raises(ValueError):
        reconstruct(out, grid)
    with pytest.raises(ValueError):
        reconstruct(basis, FrequencyGrid.centered(CENTER, 1e14, 4))


def test_oracle_agrees_with_quadrature_on_native_grids():
    # K = n: the discretization is lossless, so the two completely
    # independent computations of the coincidence probability must agree
    # to machine precision, including at nonzero delays
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        state = support.make_random_state(rng, n_points=8)
        tau = float(rng.uniform(-5e-14, 5e-14))
        p_analytic = coincidence_probability(state, tau)
        delayed = apply_path1_delay(state, tau)
        p_oracle = outcome_probabilities(apply_bs_exact(discretize(delayed, 8)))[
            "coincidence"
        ]
        worst = max(
            worst,
            abs(p_oracle - p_analytic) / max(abs(p_oracle), abs(p_analytic), 1e-6),
        )
    assert worst < 1e-12


def test_oracle_agrees_on_piecewise_constant_states():
    # block-constant states lie exactly in the span of 8 flat bin modes,
    # so an 8-bin projection of a 64-point grid is also lossless
    rng = np.random.default_rng(7)
    for _ in range(5):
        state = support.make_piecewise_constant_state(rng, n_points=64, k_blocks=8)
        p_analytic = coincidence_probability(state, 0.0)
        basis = discretize(state, 8)
        assert basis.captured_norm == pytest.approx(1.0, abs=1e-9)
        p_oracle = outcome_probabilities(apply_bs_exact(basis))["coincidence"]
        assert p_oracle == pytest.approx(p_analytic, rel=1e-12, abs=1e-12)


def test_oracle_deviation_shrinks_under_bin_refinement():
    # for states the bins cannot represent exactly, the discrete outcome
    # converges to the continuum one as K grows
    p = SpdcParams(phi=0.0, extra_group_delay_arm2=30e-15)
    state = build_type2_ultrafast(p, default_grid(p))
    for tau in (0.0, 10e-15):
        p_analytic = coincidence_probability(state, tau)
        delayed = apply_path1_delay(state, tau)
        devs = [
            abs(
                outcome_probabilities(apply_bs_exact(discretize(delayed, k)))[
                    "coincidence"
                ]
                - p_analytic
            )
            for k in (4, 8, 16, 32)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 0.1 * devs[0]
