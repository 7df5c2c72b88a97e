"""Discrete-mode brute-force checker: projection, unitarity, agreement."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    coherence_time,
    coincidence_probability,
    default_grid,
    discretize,
    normalize,
    outcome_probabilities,
    reconstruct,
    type2_joint_envelope,
    wavelength_to_angular_frequency,
)
from biphoton.cli import load_config

CENTER = wavelength_to_angular_frequency(780e-9)


def _single_pair_basis(amplitudes):
    return DiscreteModeBasis.from_amplitudes(
        k_bins=2, paths=(1, 2), amplitudes=dict(amplitudes), captured_norm=1.0
    )


def test_discretize_validation():
    rng = np.random.default_rng(0)
    state = support.make_random_state(rng, n_points=8)
    for bad in (1, 0, -3, True, 2.5, 9):
        with pytest.raises(ValueError):
            discretize(state, bad)
    # numpy integers count like FrequencyGrid's n_points
    at_four = discretize(state, 4).pair_matrix
    assert np.array_equal(discretize(state, np.int64(4)).pair_matrix, at_four)
    # each half of a = (2, -1, -1, 2) has zero trapezoid sum, so the exact
    # projection is 0 and only a rounding residue is left to renormalize
    a = np.array([2.0, -1.0, -1.0, 2.0])
    f = JointAmplitude(FrequencyGrid.centered(CENTER, 1e14, 4), np.outer(a, a))
    with pytest.raises(ValueError, match="projects to zero"):
        discretize(normalize(TwoPhotonState(f, f)), 2)


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


# The dense pair-matrix oracle against the per-pair dict loops it replaced
# (tests/support.py).  Amplitudes, probabilities and captured norms are all
# O(1) numbers, so one absolute tolerance covers them.
EQUIV_TOL = 1e-13

PRESETS = (
    "bell_ideal",
    "two_color_path",
    "two_color_polarization",
    "uncompensated_dip",
    "uncompensated_peak",
)


def _assert_same_basis(dense, reference):
    assert (dense.k_bins, dense.paths) == (reference.k_bins, reference.paths)
    assert abs(dense.captured_norm - reference.captured_norm) <= EQUIV_TOL
    for key in set(dense.amplitudes) | set(reference.amplitudes):
        got = dense.amplitudes.get(key, 0.0)
        expected = reference.amplitudes.get(key, 0.0)
        assert abs(got - expected) <= EQUIV_TOL, (key, got, expected)
    assert abs(dense.total_probability() - reference.total_probability()) <= EQUIV_TOL


def _assert_same_transform(dense, reference):
    """The beamsplitter output and its three outcomes agree."""
    out = apply_bs_exact(dense)
    reference_out = support.direct_apply_bs_exact(reference)
    _assert_same_basis(out, reference_out)
    probs = outcome_probabilities(out)
    reference_probs = support.direct_outcome_probabilities(reference_out)
    assert probs.keys() == reference_probs.keys()
    for name, p in probs.items():
        assert abs(p - reference_probs[name]) <= EQUIV_TOL, name


def _assert_same_route(state, k_bins):
    dense = discretize(state, k_bins)
    reference = support.direct_discretize(state, k_bins)
    _assert_same_basis(dense, reference)
    _assert_same_transform(dense, reference)
    embedded = reconstruct(dense, state.grid)
    reference_embedded = support.direct_reconstruct(reference, state.grid)
    for got, expected in (
        (embedded.f_h1v2.values, reference_embedded.f_h1v2.values),
        (embedded.f_v1h2.values, reference_embedded.f_v1h2.values),
    ):
        scale = float(np.max(np.abs(expected)))
        assert float(np.max(np.abs(got - expected))) <= EQUIV_TOL * scale


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("k_bins", [2, 8, 32])
def test_dense_oracle_matches_the_pair_loops_on_presets(preset, k_bins):
    _assert_same_route(load_config(preset).build_state(), k_bins)


@st.composite
def _grid_and_bins(draw):
    n_points = draw(st.integers(min_value=3, max_value=16))
    return n_points, draw(st.integers(min_value=2, max_value=n_points))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), sizes=_grid_and_bins())
def test_dense_oracle_matches_the_pair_loops_on_random_states(seed, sizes):
    # K need not divide N: array_split then makes bins of unequal width
    n_points, k_bins = sizes
    state = support.make_random_state(np.random.default_rng(seed), n_points=n_points)
    _assert_same_route(state, k_bins)


def _random_amplitudes(rng, pairs):
    values = rng.standard_normal(len(pairs)) + 1j * rng.standard_normal(len(pairs))
    values /= np.linalg.norm(values)
    return {pair: complex(v) for pair, v in zip(pairs, values)}


def _hand_built_bases():
    rng = np.random.default_rng(2024)
    doubly = {(Mode(1, "H", 1), Mode(1, "H", 1)): 1.0 + 0.0j}
    mixed = _random_amplitudes(
        rng,
        [
            (Mode(1, "H", 0), Mode(1, "H", 0)),
            (Mode(2, "V", 2), Mode(2, "V", 2)),
            (Mode(1, "H", 0), Mode(1, "V", 2)),
            (Mode(1, "H", 1), Mode(2, "H", 0)),
            (Mode(2, "H", 1), Mode(2, "V", 1)),
            (Mode(1, "V", 2), Mode(2, "H", 0)),
            (Mode(1, "H", 2), Mode(2, "V", 1)),
        ],
    )
    # every unordered pair of the 12 modes of K = 3, all four sectors
    modes = [Mode(path, pol, k) for path in (1, 2) for pol in ("H", "V") for k in range(3)]
    full = _random_amplitudes(
        rng, [(a, b) for i, a in enumerate(modes) for b in modes[i:]]
    )
    return [(2, doubly), (3, mixed), (3, full)]


@pytest.mark.parametrize("k_bins, amplitudes", _hand_built_bases())
def test_dense_oracle_matches_the_pair_loops_on_hand_built_bases(k_bins, amplitudes):
    dense = DiscreteModeBasis.from_amplitudes(
        k_bins=k_bins, paths=(1, 2), amplitudes=amplitudes, captured_norm=1.0
    )
    reference = support.DictBasis(k_bins, (1, 2), dict(amplitudes), 1.0)
    assert set(dense.amplitudes) == set(amplitudes)
    _assert_same_basis(dense, reference)
    _assert_same_transform(dense, reference)


def test_basis_constructor_rejects_modes_outside_the_basis():
    for pair in (
        (Mode(1, "H", 0), Mode(2, "V", 2)),  # bin 2 of a 2-bin basis
        (Mode(1, "H", 0), Mode(3, "V", 0)),  # an output path
    ):
        with pytest.raises(ValueError, match="not a pair of the 2-bin modes"):
            _single_pair_basis({pair: 1.0 + 0.0j})
    with pytest.raises(ValueError, match="paths"):
        DiscreteModeBasis.from_amplitudes(
            k_bins=2, paths=(2, 1), amplitudes={}, captured_norm=1.0
        )


def test_basis_constructor_keeps_a_square_4k_pair_matrix_read_only():
    with pytest.raises(ValueError, match=r"pair_matrix shape \(4, 4\) is not \(8, 8\)"):
        DiscreteModeBasis(2, (1, 2), np.zeros((4, 4), complex), 1.0)
    with pytest.raises(ValueError, match="paths"):
        DiscreteModeBasis(2, (2, 1), np.zeros((8, 8), complex), 1.0)
    t = np.zeros((8, 8), complex)
    basis = DiscreteModeBasis(2, [1, 2], t, 1)
    assert basis.pair_matrix is t
    assert not t.flags.writeable
    assert basis.paths == (1, 2)
    assert basis.captured_norm == 1.0 and isinstance(basis.captured_norm, float)


def test_basis_amplitudes_are_read_only():
    basis = _single_pair_basis({(Mode(1, "H", 0), Mode(2, "V", 1)): 1.0 + 0.0j})
    with pytest.raises(TypeError):
        basis.amplitudes[(Mode(1, "H", 1), Mode(2, "V", 0))] = 1.0
    with pytest.raises(ValueError):
        basis.pair_matrix[0, 0] = 1.0


@pytest.mark.parametrize(
    "pair",
    [
        (Mode(1, "H", 0), Mode(1, "H", 0)),  # doubly occupied path-1 mode
        (Mode(1, "H", 0), Mode(2, "H", 1)),  # both photons H
    ],
)
def test_reconstruct_rejects_pairs_a_two_photon_state_cannot_hold(pair):
    # Only (1H, 2V) and (1V, 2H) pairs have a TwoPhotonState amplitude.
    grid = FrequencyGrid.centered(CENTER, 1e14, 8)
    basis = _single_pair_basis({pair: 0.6 + 0.0j, (Mode(1, "V", 1), Mode(2, "H", 0)): 0.8})
    with pytest.raises(ValueError, match="other mode pairs"):
        reconstruct(basis, grid)


# discretize(state, K, delay=tau) against the delayed N x N copy it replaced.
# The coefficients are compared before renormalization: coarse bins can
# cancel a delayed state almost entirely (N = 100, K = 3, tau = 2 tau_c
# captures 2.6e-16 of the norm), and the renormalized pair matrix of such
# a projection is rounding noise.
DELAY_TOL = 1e-13


@functools.cache
def _preset_state(preset, n_points):
    return load_config(preset).build_state(n_points)


def _coefficients(basis):
    root = math.sqrt(basis.captured_norm)
    return {key: root * amp for key, amp in basis.amplitudes.items()}


def _assert_same_projection(folded, reference):
    assert (folded.k_bins, folded.paths) == (reference.k_bins, reference.paths)
    assert abs(folded.captured_norm - reference.captured_norm) <= DELAY_TOL
    got, expected = _coefficients(folded), _coefficients(reference)
    for key in set(got) | set(expected):
        assert abs(got.get(key, 0.0) - expected.get(key, 0.0)) <= DELAY_TOL, key


def _assert_delay_folds(state, k_bins, delay):
    delayed = apply_path1_delay(state, delay)
    folded = discretize(state, k_bins, delay=delay)
    _assert_same_projection(folded, discretize(delayed, k_bins))
    _assert_same_projection(folded, support.direct_discretize(delayed, k_bins))


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("n_points", [64, 256, 257])
@pytest.mark.parametrize("k_bins", [2, 7, 32])
def test_discretize_folds_the_path1_delay_on_presets(preset, n_points, k_bins):
    state = _preset_state(preset, n_points)
    tau_c = coherence_time(state)
    for delay in (0.0, 2.0 * tau_c, -5.0 * tau_c):
        _assert_delay_folds(state, k_bins, delay)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    sizes=_grid_and_bins(),
    delay=st.floats(min_value=-1e-12, max_value=1e-12),
)
def test_discretize_folds_the_path1_delay_on_random_states(seed, sizes, delay):
    n_points, k_bins = sizes
    state = support.make_random_state(np.random.default_rng(seed), n_points=n_points)
    _assert_delay_folds(state, k_bins, delay)


@pytest.mark.parametrize(
    "delay",
    [math.inf, -math.inf, math.nan, 1e300, pytest.param(np.float64(1e300), id="np-1e300")],
)
def test_discretize_rejects_a_delay_without_finite_phases(delay):
    state = support.make_random_state(np.random.default_rng(5), n_points=8)
    with pytest.raises(ValueError, match="non-finite phases"):
        discretize(state, 4, delay=delay)


def _repeat_embedding(basis, grid):
    """reconstruct's amplitudes as np.repeat built them: block by block."""
    k_bins = basis.k_bins
    w, blocks = support.bin_blocks(grid, k_bins)
    root_w = np.array([math.sqrt(float(np.sum(w[block]))) for block in blocks])
    scale = 2.0 * math.sqrt(2.0) / np.outer(root_w, root_w)
    counts = [len(block) for block in blocks]
    sectors = basis.pair_matrix.reshape(4, k_bins, 4, k_bins)
    c1 = scale * sectors[0, :, 3, :]  # (1H, 2V)
    c2 = scale * sectors[1, :, 2, :].T  # (1V, 2H), rows the path-2 H bin
    return [np.repeat(np.repeat(c, counts, axis=0), counts, axis=1) for c in (c1, c2)]


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("n_points, k_bins", [(64, 2), (64, 7), (257, 32)])
def test_reconstruct_gathers_owned_contiguous_amplitudes(preset, n_points, k_bins):
    state = _preset_state(preset, n_points)
    basis = discretize(state, k_bins, delay=2.0 * coherence_time(state))
    embedded = reconstruct(basis, state.grid)
    expected = _repeat_embedding(basis, state.grid)
    for amplitude, reference in zip((embedded.f_h1v2, embedded.f_v1h2), expected):
        values = amplitude.values
        assert values.flags.c_contiguous and values.flags.owndata
        assert values.base is None
        scale = float(np.max(np.abs(reference)))
        assert float(np.max(np.abs(values - reference))) <= 1e-15 * scale
