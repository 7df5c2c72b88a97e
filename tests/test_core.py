"""Grid, amplitude container, inner product, normalization, and the blocked
quadrature passes behind every reported observable."""

import dataclasses
import math
import warnings

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
    chsh,
    classify,
    coherence_time,
    coincidence_probability,
    correlation_scan,
    delay_scan,
    fringe_visibility_45,
    inner_product,
    norm_squared,
    normalize,
    rc_integrated,
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


def test_trapezoid_weights_are_built_once_per_grid_and_read_only():
    grid = FrequencyGrid.centered(2.4e15, 1.2e14, 7)
    w = grid.trapezoid_weights()
    assert grid.trapezoid_weights() is w
    expected = np.full(7, grid.step)
    expected[0] = expected[-1] = 0.5 * grid.step
    np.testing.assert_array_equal(w, expected)
    with pytest.raises(ValueError):
        w[1] = 0.0
    # the cached array is no field: grids still compare by their three fields
    assert grid == FrequencyGrid.centered(2.4e15, 1.2e14, 7)


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


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    unit_p=st.booleans(),
    real_valued_y=st.booleans(),
)
def test_factored_swap_keeps_its_factors_and_transposes_the_values(seed, unit_p, real_valued_y):
    rng = np.random.default_rng(seed)
    n = 9
    grid = FrequencyGrid.centered(2.4e15, 5e13, n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = rng.standard_normal(n) + (0j if real_valued_y else 1j * rng.standard_normal(n))
    p = np.ones(2 * n - 1) if unit_p else rng.uniform(0.5, 1.0, 2 * n - 1)
    amp = JointAmplitude(grid, factors=Factors(x, y, p))
    swapped = amp.swap()
    assert swapped.factors.x is y and swapped.factors.y is x and swapped.factors.p is p
    for vector in swapped.factors:
        assert not vector.flags.writeable
    transposed = np.ascontiguousarray(amp.values.T)
    if real_valued_y:
        assert swapped.values.tobytes() == transposed.tobytes()
    else:
        # numpy's SIMD complex multiply may fuse x*y and y*x differently,
        # which moves the imaginary part by an ulp
        scale = np.abs(transposed).max()
        np.testing.assert_allclose(swapped.values, transposed, rtol=0.0, atol=1e-15 * scale)


@pytest.mark.parametrize("name", [name for name, _ in list_presets()])
def test_reductions_read_the_swap_as_the_checked_constructor_builds_it(name):
    # swap() takes the factors over without checking them again; the swap
    # built through the constructor gives the same path overlap, bit for bit
    state = load_config(name).build_state(256)
    x, y, p = state.f_v1h2.factors
    checked = JointAmplitude(state.grid, factors=Factors(y, x, p))
    assert reductions(state).path_overlap == inner_product(state.f_h1v2, checked)


def _runs(rng, n_points):
    """Random run lengths that split n_points into contiguous blocks."""
    cuts = np.flatnonzero(rng.random(n_points - 1) < 0.4) + 1
    return np.diff(np.concatenate(([0], cuts, [n_points])))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_points=st.integers(min_value=2, max_value=40),
)
def test_block_constant_quadratures_match_their_values(seed, n_points):
    rng = np.random.default_rng(seed)
    grid = FrequencyGrid.centered(2.4e15, 5e13, n_points)
    runs = _runs(rng, n_points)
    k = runs.size

    def block_constant():
        samples = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        return JointAmplitude(grid, samples, block_sizes=runs)

    a, b = block_constant(), block_constant()
    dense_a, dense_b = JointAmplitude(grid, a.values), JointAmplitude(grid, b.values)
    scale = norm_squared(dense_a) + norm_squared(dense_b)
    assert abs(norm_squared(a) - norm_squared(dense_a)) <= 1e-13 * scale
    assert abs(norm_squared(b) - norm_squared(dense_b)) <= 1e-13 * scale
    assert abs(inner_product(a, b) - inner_product(dense_a, dense_b)) <= 1e-13 * scale
    got = dataclasses.asdict(reductions(TwoPhotonState(a, b)))
    walked = dataclasses.asdict(reductions(TwoPhotonState(dense_a, dense_b)))
    for key in got:
        assert abs(got[key] - walked[key]) <= 1e-13 * scale, key


def test_block_constant_amplitudes_of_unit_runs_are_the_dense_ones_bit_for_bit():
    rng = np.random.default_rng(11)
    n = 37
    grid = FrequencyGrid.centered(2.4e15, 5e13, n)
    pair = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2)]
    dense = TwoPhotonState(*(JointAmplitude(grid, v.copy()) for v in pair))
    blocks = TwoPhotonState(*(JointAmplitude(grid, v.copy(), block_sizes=[1] * n) for v in pair))
    assert dataclasses.asdict(reductions(blocks)) == dataclasses.asdict(reductions(dense))
    assert blocks.norm_squared() == dense.norm_squared()
    derived = (normalize(blocks).f_h1v2, blocks.f_v1h2.swap())
    for got, expected in zip(derived, (normalize(dense).f_h1v2, dense.f_v1h2.swap())):
        assert got.block_sizes is not None
        assert got.values.tobytes() == expected.values.tobytes()


def test_mixed_block_constant_pairs_take_the_values_route():
    rng = np.random.default_rng(12)
    n = 24
    grid = FrequencyGrid.centered(2.4e15, 5e13, n)

    def block_constant(runs):
        k = len(runs)
        samples = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        return JointAmplitude(grid, samples, block_sizes=runs)

    a = block_constant([5, 3, 9, 7])
    others = [
        block_constant([6, 6, 6, 6]),
        block_constant([5, 3, 9, 6, 1]),
        JointAmplitude(grid, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))),
        JointAmplitude(grid, factors=Factors(
            rng.standard_normal(n), rng.standard_normal(n), rng.uniform(0.5, 1.0, 2 * n - 1)
        )),
    ]
    dense_a = JointAmplitude(grid, a.values)
    for b in others:
        dense_b = JointAmplitude(grid, b.values)
        assert inner_product(a, b) == inner_product(dense_a, dense_b)
        assert inner_product(b, a) == inner_product(dense_b, dense_a)
        mixed = reductions(TwoPhotonState(a, b))
        walked = reductions(TwoPhotonState(dense_a, dense_b))
        assert mixed.plus_norm == walked.plus_norm
        assert mixed.path_plus_norm == walked.path_plus_norm


def test_block_constant_values_are_built_on_first_read_and_frozen():
    grid = FrequencyGrid.centered(2.4e15, 5e13, 6)
    samples = np.arange(9, dtype=np.float64).reshape(3, 3) + 0.5j
    runs = np.array([1, 3, 2])
    amp = JointAmplitude(grid, samples, block_sizes=runs)
    # the runs are copied, the samples taken over like dense values
    assert runs.flags.writeable and not amp.block_sizes.flags.writeable
    assert amp.samples is samples and not samples.flags.writeable
    swapped, scaled = amp.swap(), normalize(TwoPhotonState(amp, amp)).f_h1v2
    for derived in (amp, swapped, scaled):
        assert "values" not in derived.__dict__
        np.testing.assert_array_equal(derived.block_sizes, runs)
    values = amp.values
    np.testing.assert_array_equal(values, np.repeat(np.repeat(samples, runs, axis=0), runs, axis=1))
    assert values.flags.c_contiguous and values.flags.owndata and not values.flags.writeable
    np.testing.assert_array_equal(swapped.values, values.T)
    np.testing.assert_array_equal(scaled.samples, samples * (1.0 / math.sqrt(norm_squared(amp))))


def test_block_constant_constructor_rejects_bad_runs_and_samples():
    grid = FrequencyGrid.centered(2.4e15, 5e13, 6)
    square = np.ones((3, 3), dtype=np.complex128)
    for runs in ([1, 2, 2], [1, 2, 4], [0, 3, 3], [-1, 4, 3], [2.0, 2.0, 2.0], [[2, 2, 2]], []):
        with pytest.raises(ValueError):
            JointAmplitude(grid, square.copy(), block_sizes=runs)
    for samples in (np.ones((3, 2)), np.ones((2, 2)), np.ones(3)):
        with pytest.raises(ValueError, match="samples shape"):
            JointAmplitude(grid, samples, block_sizes=[1, 2, 3])
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        samples = square.copy()
        samples[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            JointAmplitude(grid, samples, block_sizes=[1, 2, 3])
    with pytest.raises(ValueError):
        factors = Factors(np.ones(6), np.ones(6), np.ones(11))
        JointAmplitude(grid, factors=factors, block_sizes=[3, 3])


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
    reductions(unit).require_normalized()
    assert unit.norm_squared() == pytest.approx(1.0, abs=1e-12)

    doubled = TwoPhotonState(
        JointAmplitude(grid, 2.0 * unit.f_h1v2.values),
        JointAmplitude(grid, 2.0 * unit.f_v1h2.values),
    )
    with pytest.raises(InvariantError, match="not normalized"):
        reductions(doubled).require_normalized()
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
    np.testing.assert_allclose(
        spectra(state), support.direct_cross_spectrum(state), rtol=0.0, atol=tol
    )
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
    assert f1 is not None and f2 is not None and f1.p is f2.p
    if name == "antisymmetric":  # F2 = Factors(-x, y, p) of F1 = Factors(x, y, p)
        assert f2.y is f1.y and np.array_equal(f2.x, -f1.x)
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
    unit_p=st.booleans(),
    distinct_p=st.booleans(),
)
def test_factored_reductions_of_random_factors_match_direct_sums(
    seed, n_points, shared, cancel, unit_p, distinct_p
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

    def random_p():
        return rng.uniform(0.1, 2.0, 2 * n_points - 1)

    p = np.ones(2 * n_points - 1) if unit_p else random_p()
    # ``distinct_p`` gives F2 a p of its own
    p2 = random_p() if distinct_p else p
    state = TwoPhotonState(
        JointAmplitude(grid, factors=Factors(x1, y1, p)),
        JointAmplitude(grid, factors=Factors(x2, y2, p2)),
    )
    got = dataclasses.asdict(reductions(state))
    scale = got["n1"] + got["n2"]
    for key, expected in support.direct_reductions(state).items():
        assert abs(got[key] - expected) <= 1e-13 * scale, key
    walked = dataclasses.asdict(reductions(_densified(state)))
    for key in got:
        assert abs(got[key] - walked[key]) <= 1e-13 * scale, key
    # with one shared p, a shared factor plus a negated one cancels for any p
    if cancel and shared in ("x", "y") and not distinct_p:
        assert got["plus_norm"] == 0.0
    if cancel and shared in ("x-path", "y-path") and not distinct_p:
        assert got["path_plus_norm"] == 0.0


def _assert_spectra_match(state: TwoPhotonState, reference: TwoPhotonState, tol: float) -> None:
    np.testing.assert_allclose(spectra(state), spectra(reference), rtol=0.0, atol=tol)


#: The presets, the antisymmetric source and three seeded type-II variants.
_SPECTRA_CONFIGS = [
    *(name for name in sorted(_FACTORED_CONFIGS) if not name.startswith("variant-")),
    "variant-0",
    "variant-1",
    "variant-2",
]


@pytest.mark.parametrize("n_points", [64, 257, 1024])
@pytest.mark.parametrize("name", _SPECTRA_CONFIGS)
def test_factored_spectra_match_the_dense_walk(name, n_points):
    state = _build(_FACTORED_CONFIGS[name], n_points)
    dense = _densified(state)
    _assert_spectra_match(state, dense, 1e-13)
    # tau_c is of order 1e-13 s; compared relative to itself
    assert coherence_time(state) == pytest.approx(coherence_time(dense), rel=1e-13, abs=0.0)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_points=st.integers(min_value=2, max_value=40),
    ps=st.sampled_from(["ones", "shared", "distinct", "first only", "second only"]),
    zeros=st.sampled_from(["none", "entries", "second amplitude"]),
)
def test_factored_spectra_of_random_factors_match_the_dense_walk(seed, n_points, ps, zeros):
    rng = np.random.default_rng(seed)
    grid = FrequencyGrid.centered(2.4e15, 5e13, n_points)

    def vector(size=n_points):
        values = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        if zeros == "entries":  # exact zeros, also in p
            values[rng.random(size) < 0.3] = 0.0
        return values

    def random_p():
        return np.abs(vector(2 * n_points - 1))

    ones = np.ones(2 * n_points - 1)
    first = ones if ps in ("ones", "second only") else random_p()
    second = {"shared": first, "distinct": random_p(), "second only": random_p()}.get(ps, ones)
    x2 = np.zeros(n_points, dtype=complex) if zeros == "second amplitude" else vector()
    state = TwoPhotonState(
        JointAmplitude(grid, factors=Factors(vector(), vector(), first)),
        JointAmplitude(grid, factors=Factors(x2, vector(), second)),
    )
    dense = _densified(state)
    scale = norm_squared(dense.f_h1v2) + norm_squared(dense.f_v1h2)
    _assert_spectra_match(state, dense, 1e-13 * scale)
    np.testing.assert_allclose(
        spectra(state), support.direct_cross_spectrum(state), rtol=0.0, atol=1e-13 * scale
    )
    if zeros == "second amplitude":
        assert not spectra(state).any()


def _lopsided(state: TwoPhotonState, scale: float) -> TwoPhotonState:
    """The same amplitudes, with factors x * scale and y / scale."""
    return TwoPhotonState(*(
        JointAmplitude(state.grid, factors=Factors(x * scale, y / scale, p))
        for x, y, p in (state.f_h1v2.factors, state.f_v1h2.factors)
    ))


@pytest.mark.parametrize("scale", [1e150, 1e170])
def test_a_lopsided_factorization_gives_the_dense_spectra(scale):
    # past about 1e160 the squares of x overflow unless x and y are balanced
    config = load_config("uncompensated_peak")
    lopsided = _lopsided(config.build_state(256), scale)
    dense = _densified(lopsided)
    delays = config.scan.delays()
    _assert_spectra_match(lopsided, dense, 1e-13)
    rates = delay_scan(lopsided, delays).rates
    assert np.all(np.isfinite(rates))
    np.testing.assert_allclose(rates, delay_scan(dense, delays).rates, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("scale", [1e170, 1e-170])
def test_a_lopsided_factorization_classifies_like_the_balanced_one(scale):
    # |x|^2 (or |y|^2) overflows in every quadrature unless x and y are
    # balanced; the scaled factors round x and y, which moves residue digits
    state = load_config("uncompensated_peak").build_state(64)
    lopsided = _lopsided(state, scale)
    got, expected = dataclasses.asdict(classify(lopsided)), dataclasses.asdict(classify(state))
    assert got.pop("label") == expected.pop("label")
    for key, value in expected.items():
        assert abs(got[key] - value) <= 1e-12, key
    assert abs(chsh(lopsided) - chsh(state)) <= 1e-12


@pytest.mark.parametrize("form", ["factored", "dense"])
def test_spectra_that_overflow_are_refused(form):
    # |F|^2 = 1e320 itself overflows, so no balancing of x and y helps
    n = 64
    grid = FrequencyGrid.centered(2.4e15, 5e13, n)
    if form == "factored":
        big = np.full(n, 1e160 + 0j)
        amp = JointAmplitude(grid, factors=Factors(big, big.copy(), np.ones(2 * n - 1)))
    else:
        amp = JointAmplitude(grid, np.full((n, n), 1e160 + 0j))
    state = TwoPhotonState(amp, amp.swap())
    match = r"spectra are not finite: w_i w_j \|F\|\^2 overflows"
    for scan in (
        lambda: spectra(state),
        lambda: coherence_time(state),
        lambda: delay_scan(state, np.array([0.0, 1e-14])),
    ):
        with pytest.raises(ValueError, match=match):
            scan()
    # the single-delay rate takes no spectra pass: its three quadratures overflow
    match = r"coincidence probability is not finite: w_i w_j \|F\|\^2 overflows"
    with pytest.raises(ValueError, match=match):
        coincidence_probability(state, 1e-14)
    # the reductions overflow too: an out-of-range input, not a broken invariant,
    # refused without a RuntimeWarning on the way
    match = r"reductions are not finite: w_i w_j \|F\|\^2 overflows"
    for reduction in (
        lambda: chsh(state),
        lambda: fringe_visibility_45(state),
        lambda: rc_integrated(state, 0.0, 0.5 * math.pi),
        lambda: correlation_scan(state, 0.0, np.linspace(0.0, math.pi, 5)).visibility,
        lambda: classify(state),
        lambda: as_residual(state),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=match) as refused:
                reduction()
        assert not isinstance(refused.value, InvariantError)


def test_reductions_of_a_dense_state_allocate_about_one_amplitude():
    # what remains is the copy of swap F2: the plus norms are summed over row
    # blocks of F1 + F2, not over a summed N x N array
    import tracemalloc

    n_points = 1024
    dense = _densified(load_config("uncompensated_peak").build_state(n_points))
    tracemalloc.start()
    try:
        reductions(dense)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 16 * n_points**2


@pytest.mark.parametrize("name", ["uncompensated_peak", "bell_ideal", "two_color_path"])
def test_classify_and_chsh_of_a_built_state_allocate_under_an_eighth_of_an_amplitude(name):
    import tracemalloc

    n_points = 1024
    config = load_config(name)
    for observable in (classify, chsh, reductions, normalize):
        tracemalloc.start()
        try:
            observable(config.build_state(n_points))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * n_points**2 / 8, observable.__name__
    state = config.build_state(n_points)
    unit = normalize(state)
    p = state.f_h1v2.factors.p
    for amp in (unit.f_h1v2, unit.f_v1h2):
        assert amp.factors is not None and amp.factors.p is p


def test_factored_values_follow_the_formula_and_are_read_only():
    rng = np.random.default_rng(7)
    n = 9
    grid = FrequencyGrid.centered(2.4e15, 5e13, n)
    x, y = rng.standard_normal(n) + 1j * rng.standard_normal(n), rng.standard_normal(n) + 0j
    p = rng.uniform(0.5, 1.0, 2 * n - 1)
    amp = JointAmplitude(grid, factors=Factors(x, y, p))
    hankel = p[np.add.outer(np.arange(n), np.arange(n))]
    np.testing.assert_array_equal(amp.values, np.outer(x, y) * hankel)
    assert amp.values is amp.values
    with pytest.raises(ValueError):
        amp.values[0, 0] = 1.0
    # the factors are taken over and frozen, as dense values are
    assert not any(vector.flags.writeable for vector in (x, y, p))
    unit = JointAmplitude(grid, factors=Factors(x, y, np.ones(2 * n - 1)))
    np.testing.assert_array_equal(unit.values, np.outer(x, y))


def test_factored_amplitude_validation():
    grid = FrequencyGrid.centered(2.4e15, 5e13, 4)
    ones, p = np.ones(4), np.ones(7)
    with pytest.raises(ValueError, match="either values or factors"):
        JointAmplitude(grid)
    with pytest.raises(ValueError, match="either values or factors"):
        JointAmplitude(grid, np.ones((4, 4)), factors=Factors(ones, ones, p))
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'p'"):
        Factors(ones, ones)
    for bad_p in (None, ones, np.ones(8)):
        with pytest.raises(ValueError, match="does not match grid with 4 points"):
            JointAmplitude(grid, factors=Factors(ones, ones, bad_p))
    with pytest.raises(ValueError, match="does not match grid with 4 points"):
        JointAmplitude(grid, factors=Factors(np.ones(5), ones, p))
    with pytest.raises(ValueError, match="p must be real"):
        JointAmplitude(grid, factors=Factors(ones, ones, p + 0j))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="factors must be finite"):
            JointAmplitude(grid, factors=Factors(ones, np.array([1.0, bad, 1.0, 1.0]), p))
        bad_p = np.ones(7)
        bad_p[3] = bad
        with pytest.raises(ValueError, match="factors must be finite"):
            JointAmplitude(grid, factors=Factors(ones, ones, bad_p))


@pytest.mark.parametrize("inputs", ["real", "complex", "zero-imaginary"])
# 1024: the first length convolved by FFT; 9000: the final sum goes in two pieces
@pytest.mark.parametrize("n", [1024, 9000])
def test_hankel_sum_by_fft_past_the_block_size_matches_the_direct_sum(inputs, n, monkeypatch):
    rng = np.random.default_rng(3)

    def vector(size):
        values = rng.uniform(0.0, 1.0, size)
        if inputs == "complex":
            return values + 1j * rng.uniform(0.0, 1.0, size)
        return values + 0j if inputs == "zero-imaginary" else values

    u, v, weights = vector(n), vector(n), rng.uniform(0.0, 1.0, 2 * n - 1)
    expected = sum(u[i] * np.dot(v, weights[i : i + n]) for i in range(n))
    monkeypatch.setattr(np, "convolve", None)  # no direct convolution from 1024 points
    got = hankel_sum(weights, u, v)
    # complex dtype with zero imaginary parts takes the real transforms
    assert np.iscomplexobj(got) == (inputs == "complex")
    assert abs(got - expected) <= 1e-12 * abs(expected)
    if inputs == "zero-imaginary":
        assert got == hankel_sum(weights, u.real.copy(), v.real.copy())
