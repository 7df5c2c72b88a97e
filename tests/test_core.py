"""Grid, amplitude container, inner product, normalization, and the blocked
quadrature passes behind every reported observable."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from biphoton import (
    FrequencyGrid,
    InvariantError,
    JointAmplitude,
    TwoPhotonState,
    as_residual,
    bell_residual,
    coherence_time,
    coincidence_probability,
    inner_product,
    norm_squared,
    normalize,
    require_normalized,
    wavelength_to_angular_frequency,
)
from biphoton.cli import list_presets, load_config
from biphoton.core import reductions, spectra


def _gaussian_state_pieces(sigma=3e13, n_points=256, span=8.0):
    grid = FrequencyGrid.centered(2.4e15, span * sigma, n_points)
    x = grid.points() - 2.4e15
    g = np.exp(-(x**2) / (4.0 * sigma**2))
    w = grid.trapezoid_weights()
    g = g / math.sqrt(float(np.sum(w * g**2)))
    return grid, x, g


def test_wavelength_conversion_matches_direct_formula():
    expected = 2.0 * math.pi * support.SPEED_OF_LIGHT / 780e-9
    assert wavelength_to_angular_frequency(780e-9) == pytest.approx(
        expected, rel=1e-15
    )
    # 1e-300 m: 2 pi c / lambda overflows to inf
    for bad in (0.0, -1e-9, math.nan, 1e-300):
        with pytest.raises(ValueError):
            wavelength_to_angular_frequency(bad)


def test_grid_validation_rejects_bad_bounds():
    with pytest.raises(ValueError):
        FrequencyGrid(2e15, 1e15, 64)
    with pytest.raises(ValueError):
        FrequencyGrid(1e15, 1e15, 64)
    with pytest.raises(ValueError):
        FrequencyGrid(1e15, 2e15, 1)
    with pytest.raises(ValueError):
        FrequencyGrid(math.nan, 2e15, 64)
    # 256.0 == 256, but np.linspace in points() needs an integer count
    for bad_count in (256.0, 2.5, True):
        with pytest.raises(ValueError, match="n_points must be an integer >= 2"):
            FrequencyGrid(1e15, 2e15, bad_count)
    assert FrequencyGrid(1e15, 2e15, np.int64(8)).points().shape == (8,)
    for bad_half_width in (0.0, -1.0):
        with pytest.raises(ValueError, match="half_width must be positive"):
            FrequencyGrid.centered(2.4e15, bad_half_width, 64)


def test_grid_centered_points_and_weights():
    grid = FrequencyGrid.centered(2.4e15, 1.2e14, 5)
    pts = grid.points()
    assert pts.shape == (5,)
    assert pts[0] == pytest.approx(2.4e15 - 1.2e14)
    assert pts[-1] == pytest.approx(2.4e15 + 1.2e14)
    assert grid.step == pytest.approx(6e13)
    np.testing.assert_allclose(np.diff(pts), grid.step, rtol=1e-12)

    w = grid.trapezoid_weights()
    # trapezoid rule: half weight on the end points, total equal to the span
    assert w[0] == pytest.approx(grid.step / 2.0)
    assert w[-1] == pytest.approx(grid.step / 2.0)
    assert float(np.sum(w)) == pytest.approx(2.4e14, rel=1e-12)


def test_grid_equality_is_fieldwise():
    a = FrequencyGrid.centered(2.4e15, 1e14, 32)
    b = FrequencyGrid.centered(2.4e15, 1e14, 32)
    c = FrequencyGrid.centered(2.4e15, 1e14, 33)
    assert a == b
    assert a != c


def test_joint_amplitude_validation():
    grid = FrequencyGrid.centered(2.4e15, 1e14, 8)
    with pytest.raises(ValueError):
        JointAmplitude(grid, np.zeros((8, 7), dtype=np.complex128))
    bad = np.zeros((8, 8), dtype=np.complex128)
    bad[2, 3] = np.nan
    with pytest.raises(ValueError):
        JointAmplitude(grid, bad)
    bad[2, 3] = np.inf
    with pytest.raises(ValueError):
        JointAmplitude(grid, bad)


def test_joint_amplitude_values_are_read_only():
    grid = FrequencyGrid.centered(2.4e15, 1e14, 8)
    amp = JointAmplitude(grid, np.ones((8, 8), dtype=np.complex128))
    with pytest.raises(ValueError):
        amp.values[0, 0] = 2.0


def test_joint_amplitude_accepts_transposed_views():
    # regression: non-contiguous inputs (e.g. transposes) must be copied,
    # not rejected by the finiteness check
    grid = FrequencyGrid.centered(2.4e15, 1e14, 8)
    base = np.arange(64, dtype=np.float64).reshape(8, 8) + 0.5j
    amp = JointAmplitude(grid, base.T)
    np.testing.assert_array_equal(amp.values, base.T)
    assert not np.shares_memory(amp.values, base)
    assert base.flags.writeable

    # an owned C-contiguous complex128 array is taken over and frozen
    owned = np.arange(64, dtype=np.float64).reshape(8, 8) + 0.5j
    amp = JointAmplitude(grid, owned)
    assert np.shares_memory(amp.values, owned)
    assert not owned.flags.writeable

    # any other dtype is converted into a fresh array
    real = np.arange(64, dtype=np.float64).reshape(8, 8)
    amp = JointAmplitude(grid, real)
    np.testing.assert_array_equal(amp.values, real)
    assert not np.shares_memory(amp.values, real)
    assert real.flags.writeable


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_swap_is_an_exact_involution_and_isometry(seed):
    rng = np.random.default_rng(seed)
    grid = FrequencyGrid.centered(2.4e15, 5e13, 8)
    values = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    amp = JointAmplitude(grid, values)
    swapped = amp.swap()
    np.testing.assert_array_equal(swapped.values, values.T)
    np.testing.assert_array_equal(swapped.swap().values, values)
    assert norm_squared(swapped) == pytest.approx(norm_squared(amp), rel=1e-12)


def test_inner_product_requires_matching_grids():
    a = JointAmplitude(FrequencyGrid.centered(2.4e15, 1e14, 8), np.ones((8, 8)))
    b = JointAmplitude(FrequencyGrid.centered(2.4e15, 2e14, 8), np.ones((8, 8)))
    with pytest.raises(ValueError):
        inner_product(a, b)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_inner_product_conjugate_symmetry_and_cauchy_schwarz(seed):
    rng = np.random.default_rng(seed)
    grid = FrequencyGrid.centered(2.4e15, 5e13, 8)

    def unit(values):
        amp = JointAmplitude(grid, values)
        return JointAmplitude(grid, values / math.sqrt(norm_squared(amp)))

    a = unit(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    b = unit(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    ab = inner_product(a, b)
    ba = inner_product(b, a)
    assert ab == pytest.approx(np.conj(ba), rel=1e-12, abs=1e-14)
    assert inner_product(a, a).imag == pytest.approx(0.0, abs=1e-12)
    assert abs(ab) <= math.sqrt(norm_squared(a) * norm_squared(b)) * (1.0 + 1e-12)


def test_inner_product_of_symmetric_amplitude_with_its_swap():
    grid, x, g = _gaussian_state_pieces(n_points=64)
    values = np.outer(g, g) * np.exp(-np.add.outer(x, x) ** 2 / 1e29)
    amp = JointAmplitude(grid, values)
    assert inner_product(amp, amp.swap()) == pytest.approx(
        norm_squared(amp), rel=1e-12
    )


def test_gaussian_delay_overlap_matches_characteristic_function():
    # frozen oracle: <g, g e^{i w dt}> = exp(-sigma^2 dt^2 / 2) for a
    # normalized Gaussian amplitude whose intensity has RMS width sigma
    sigma = 3e13
    grid, x, g = _gaussian_state_pieces(sigma=sigma)
    base = JointAmplitude(grid, np.outer(g, g).astype(np.complex128))
    for dt in (0.3 / sigma, 1.0 / sigma, 2.0 / sigma):
        phase = np.exp(1j * x * dt)
        delayed = JointAmplitude(grid, base.values * phase[:, None])
        got = inner_product(base, delayed)
        assert got.real == pytest.approx(
            support.gaussian_amplitude_overlap(sigma, dt), abs=1e-9
        )
        assert got.imag == pytest.approx(0.0, abs=1e-9)
    far = JointAmplitude(grid, base.values * np.exp(1j * x * 6.0 / sigma)[:, None])
    assert abs(inner_product(base, far)) < 1e-6


def test_quadrature_norm_converges_under_grid_doubling():
    vals = {}
    for n in (128, 256):
        grid, x, g = _gaussian_state_pieces(n_points=n)
        vals[n] = norm_squared(JointAmplitude(grid, np.outer(g, g) + 0j))
    rel = abs(vals[128] - vals[256]) / vals[256]
    assert rel < 1e-6


def test_two_photon_state_requires_shared_grid():
    g1 = FrequencyGrid.centered(2.4e15, 1e14, 8)
    g2 = FrequencyGrid.centered(2.4e15, 1.5e14, 8)
    with pytest.raises(ValueError):
        TwoPhotonState(
            JointAmplitude(g1, np.ones((8, 8))), JointAmplitude(g2, np.ones((8, 8)))
        )


def test_normalize_behavior():
    rng = np.random.default_rng(7)
    grid = FrequencyGrid.centered(2.4e15, 5e13, 16)
    f1 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    f2 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    state = TwoPhotonState(JointAmplitude(grid, f1), JointAmplitude(grid, f2))
    unit = normalize(state)
    require_normalized(unit)
    assert unit.norm_squared() == pytest.approx(1.0, abs=1e-12)

    doubled = TwoPhotonState(
        JointAmplitude(grid, 2.0 * unit.f_h1v2.values),
        JointAmplitude(grid, 2.0 * unit.f_v1h2.values),
    )
    with pytest.raises(InvariantError, match="not normalized"):
        require_normalized(doubled)
    renorm = normalize(doubled)
    np.testing.assert_allclose(renorm.f_h1v2.values, unit.f_h1v2.values, rtol=1e-12)

    # one vanishing term: the surviving amplitude must carry the whole
    # probability, norm_squared(f) = 2 under the 1/2 (n1 + n2) convention
    single = normalize(
        TwoPhotonState(
            JointAmplitude(grid, f1), JointAmplitude(grid, np.zeros_like(f1))
        )
    )
    assert norm_squared(single.f_h1v2) == pytest.approx(2.0, rel=1e-12)

    with pytest.raises(ValueError):
        normalize(
            TwoPhotonState(
                JointAmplitude(grid, np.zeros_like(f1)),
                JointAmplitude(grid, np.zeros_like(f1)),
            )
        )



def _assert_quadratures_match_direct(state):
    # the blocked passes over separable weights against one N^2 sum per
    # quadrature with the full 2D weights
    tol = 1e-13
    got = dataclasses.asdict(reductions(state))
    for key, expected in support.direct_reductions(state).items():
        assert abs(got[key] - expected) <= tol, key
    spec = spectra(state)
    np.testing.assert_allclose(
        spec.cross, support.direct_cross_spectrum(state), rtol=0.0, atol=tol
    )
    np.testing.assert_allclose(
        spec.intensity, support.direct_intensity_spectrum(state), rtol=0.0, atol=tol
    )
    n = state.grid.n_points
    np.testing.assert_array_equal(spec.offsets, np.arange(1 - n, n) * state.grid.step)
    tau_c = support.direct_coherence_time(state)
    # tau_c is of order 1e-13 s; compared relative to itself
    assert coherence_time(state) == pytest.approx(tau_c, rel=tol, abs=0.0)
    for delay in (0.0, 0.4 * tau_c, -1.3 * tau_c, 3.0 * tau_c, -7.5 * tau_c):
        for mode_overlap in (1.0, 0.6):
            assert coincidence_probability(
                state, delay, mode_overlap=mode_overlap
            ) == pytest.approx(
                support.direct_coincidence_probability(state, delay, mode_overlap),
                abs=tol,
            )


#: Presets whose amplitudes satisfy a symmetry bit for bit, and the
#: residual that must then be exactly zero.
_EXACT_RESIDUALS = {
    "bell_ideal": bell_residual,
    "two_color_path": bell_residual,
    "two_color_polarization": as_residual,
}


@pytest.mark.parametrize("n_points", [64, 256, 257])
@pytest.mark.parametrize("preset", [name for name, _ in list_presets()])
def test_blocked_quadratures_match_direct_sums_on_presets(preset, n_points):
    # 257 rows split into 31-row blocks and a 9-row remainder
    state = load_config(preset).build_state(n_points)
    _assert_quadratures_match_direct(state)
    if preset in _EXACT_RESIDUALS:
        assert _EXACT_RESIDUALS[preset](state) == 0.0


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_points=st.integers(min_value=3, max_value=40),
)
def test_blocked_quadratures_match_direct_sums_on_random_states(seed, n_points):
    rng = np.random.default_rng(seed)
    _assert_quadratures_match_direct(support.make_random_state(rng, n_points=n_points))
