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
from biphoton.cli import list_presets, load_config, parse_config
from biphoton.core import Factors, hankel_sum, reductions, spectra


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


def _type2_config(source_type: str = "type2_ultrafast", **source) -> dict:
    """A type-II config in the benchmark's variant form; ``antisymmetric``
    drops the keys that source type does not take."""
    block = {
        "type": source_type,
        "pump_center_wavelength_nm": 390.0,
        "pump_duration_fs": 120.0,
        "sigma_h_rad_per_s": 6.0e13,
        "sigma_v_rad_per_s": 3.0e13,
        "walkoff_fs": 400.0,
        "filter": {"center_wavelength_nm": 780.0, "fwhm_nm": 20.0, "shape": "gaussian"},
    }
    if source_type == "type2_ultrafast":
        block.update(phase_rad=math.pi, extra_group_delay_arm2_fs=0.0)
    block.update(source)
    return {
        "source": block,
        "grid": {"center_wavelength_nm": 780.0, "half_width_rad_per_s": 3.6e14, "n_points": 256},
        "scan": {"delay_min_fs": -500.0, "delay_max_fs": 500.0, "n_delays": 201},
    }


def _variant_configs(count: int = 10, seed: int = 1) -> list[dict]:
    # walk-off, phase and arm-2 delay drawn over the ranges the presets use
    rng = np.random.default_rng(seed)
    return [
        _type2_config(
            walkoff_fs=float(rng.uniform(0.0, 400.0)),
            phase_rad=float(rng.choice([0.0, math.pi])),
            extra_group_delay_arm2_fs=float(rng.uniform(0.0, 30.0)),
        )
        for _ in range(count)
    ]


_FACTORED_CONFIGS = {
    **{name: name for name, _ in list_presets()},
    "antisymmetric": _type2_config("antisymmetric"),
    **{f"variant-{i}": config for i, config in enumerate(_variant_configs())},
}

#: Configs whose amplitudes satisfy a symmetry bit for bit, and the
#: residual that must then be exactly zero.
_EXACT_FACTORED_RESIDUALS = {**_EXACT_RESIDUALS, "antisymmetric": as_residual}


def _build(config, n_points: int) -> TwoPhotonState:
    if isinstance(config, str):
        return load_config(config).build_state(n_points)
    return parse_config(config).build_state(n_points)


@pytest.mark.parametrize("n_points", [64, 256, 257, 1024])
@pytest.mark.parametrize("name", sorted(_FACTORED_CONFIGS))
def test_factored_reductions_match_direct_sums(name, n_points):
    state = _build(_FACTORED_CONFIGS[name], n_points)
    f1, f2 = state.f_h1v2.factors, state.f_v1h2.factors
    assert f1 is not None and f2 is not None and f1.magnitude is f2.magnitude
    got = dataclasses.asdict(reductions(state))
    for key, expected in support.direct_reductions(state).items():
        assert abs(got[key] - expected) <= 1e-13, key
    if name in _EXACT_FACTORED_RESIDUALS:
        assert _EXACT_FACTORED_RESIDUALS[name](state) == 0.0


def _densified(state: TwoPhotonState) -> TwoPhotonState:
    return TwoPhotonState(*(JointAmplitude(state.grid, f.values) for f in (state.f_h1v2, state.f_v1h2)))


@pytest.mark.parametrize("name", ["uncompensated_dip", "bell_ideal", "two_color_path", "antisymmetric"])
def test_a_factored_state_and_its_dense_copy_give_the_same_reductions(name):
    state = _build(_FACTORED_CONFIGS[name], 256)
    dense = _densified(state)
    assert dense.f_h1v2.factors is None and dense.f_v1h2.factors is None
    factored, walked = dataclasses.asdict(reductions(state)), dataclasses.asdict(reductions(dense))
    for key in factored:
        assert abs(factored[key] - walked[key]) <= 1e-13, key


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_points=st.integers(min_value=3, max_value=40),
    shared=st.sampled_from(["none", "x", "y", "x-path", "y-path"]),
    cancel=st.booleans(),
    unit_magnitude=st.booleans(),
    symmetric_magnitude=st.booleans(),
)
def test_factored_reductions_of_random_factors_match_direct_sums(
    seed, n_points, shared, cancel, unit_magnitude, symmetric_magnitude
):
    rng = np.random.default_rng(seed)
    grid = FrequencyGrid.centered(2.4e15, 5e13, n_points)

    def vector(size=n_points):
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    x1, y1, x2, y2 = (vector() for _ in range(4))
    # F2 shares a factor with F1 (or swap F2 with F1), which the plus norms
    # combine; ``cancel`` negates the other factor, so that sum is exactly 0
    if shared == "x":
        x2, y2 = x1.copy(), -y1 if cancel else y2
    elif shared == "y":
        x2, y2 = -x1 if cancel else x2, y1.copy()
    elif shared == "x-path":
        x2, y2 = -y1 if cancel else x2, x1.copy()
    elif shared == "y-path":
        x2, y2 = y1.copy(), -x1 if cancel else y2
    magnitude = None
    if not unit_magnitude:
        g = rng.uniform(0.1, 2.0, n_points)
        h = g.copy() if symmetric_magnitude else rng.uniform(0.1, 2.0, n_points)
        magnitude = (g, h, rng.uniform(0.1, 2.0, 2 * n_points - 1))
    state = TwoPhotonState(
        JointAmplitude(grid, factors=Factors(x1, y1, magnitude)),
        JointAmplitude(grid, factors=Factors(x2, y2, magnitude)),
    )
    got = dataclasses.asdict(reductions(state))
    scale = got["n1"] + got["n2"]
    for key, expected in support.direct_reductions(state).items():
        assert abs(got[key] - expected) <= 1e-13 * scale, key
    walked = dataclasses.asdict(reductions(_densified(state)))
    for key in got:
        assert abs(got[key] - walked[key]) <= 1e-13 * scale, key
    if cancel and shared in ("x", "y"):
        assert got["plus_norm"] == 0.0
    if cancel and shared in ("x-path", "y-path") and (unit_magnitude or symmetric_magnitude):
        assert got["path_plus_norm"] == 0.0


@pytest.mark.parametrize("name", ["uncompensated_peak", "bell_ideal", "two_color_path"])
def test_classify_and_chsh_of_a_built_state_allocate_under_an_eighth_of_an_amplitude(name):
    import tracemalloc

    from biphoton import chsh, classify

    n_points = 1024
    config = load_config(name)
    for observable in (classify, chsh):
        tracemalloc.start()
        try:
            observable(config.build_state(n_points))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * n_points**2 / 8, observable.__name__


def test_factored_values_follow_the_formula_and_are_read_only():
    rng = np.random.default_rng(7)
    n = 9
    grid = FrequencyGrid.centered(2.4e15, 5e13, n)
    x, y = rng.standard_normal(n) + 1j * rng.standard_normal(n), rng.standard_normal(n) + 0j
    g, h, p = rng.uniform(0.5, 1.0, n), rng.uniform(0.5, 1.0, n), rng.uniform(0.5, 1.0, 2 * n - 1)
    amp = JointAmplitude(grid, factors=Factors(x, y, (g, h, p)))
    hankel = p[np.add.outer(np.arange(n), np.arange(n))]
    np.testing.assert_array_equal(amp.values, np.outer(x, y) * (np.outer(g, h) * hankel))
    assert amp.values is amp.values
    with pytest.raises(ValueError):
        amp.values[0, 0] = 1.0
    # the factors are taken over and frozen, as dense values are
    assert not any(vector.flags.writeable for vector in (x, y, g, h, p))
    unit = JointAmplitude(grid, factors=Factors(x, y))
    np.testing.assert_array_equal(unit.values, np.outer(x, y))


def test_factored_amplitude_validation():
    grid = FrequencyGrid.centered(2.4e15, 5e13, 4)
    ones = np.ones(4)
    with pytest.raises(ValueError, match="either values or factors"):
        JointAmplitude(grid)
    with pytest.raises(ValueError, match="either values or factors"):
        JointAmplitude(grid, np.ones((4, 4)), factors=Factors(ones, ones))
    with pytest.raises(ValueError, match="does not match grid with 4 points"):
        JointAmplitude(grid, factors=Factors(np.ones(5), ones))
    with pytest.raises(ValueError, match="does not match grid with 4 points"):
        JointAmplitude(grid, factors=Factors(ones, ones, (ones, ones, ones)))
    with pytest.raises(ValueError, match="factors must be finite"):
        JointAmplitude(grid, factors=Factors(ones, np.array([1.0, np.nan, 1.0, 1.0])))


@pytest.mark.parametrize("complex_inputs", [False, True])
def test_hankel_sum_by_fft_past_the_block_size_matches_the_direct_sum(complex_inputs):
    rng = np.random.default_rng(3)
    n = 9000  # past the 8192 entries up to which the convolution is direct

    def vector(size):
        values = rng.uniform(0.0, 1.0, size)
        return values + 1j * rng.uniform(0.0, 1.0, size) if complex_inputs else values

    u, v, weights = vector(n), vector(n), rng.uniform(0.0, 1.0, 2 * n - 1)
    expected = sum(u[i] * np.dot(v, weights[i : i + n]) for i in range(n))
    got = hankel_sum(weights, u, v)
    assert np.iscomplexobj(got) == complex_inputs
    assert abs(got - expected) <= 1e-12 * abs(expected)
