"""Domain types for frequency grids, joint spectral amplitudes, and the
two-term biphoton state, plus the quadrature helpers shared by the
analysis modules.

Conventions
-----------
Frequencies are angular frequencies in rad/s.  A ``JointAmplitude`` samples
a complex function F(omega, omega') on a uniform grid; ``values[i, j]`` is
F(omega_i, omega_j).  The biphoton state keeps two such amplitudes:

* ``f_h1v2`` -- coefficient of "H photon in path 1 at omega_H, V photon in
  path 2 at omega_V",
* ``f_v1h2`` -- coefficient of "V photon in path 1 at omega_V, H photon in
  path 2 at omega_H".

In *both* amplitudes the first argument is omega_H, the frequency of the
horizontally polarized photon in whichever path it travels; the second is
omega_V.  Under this storage convention the two key spectral symmetries
read

* exchange antisymmetry (coincidence peak):  f_v1h2 == -f_h1v2,
* path-label antisymmetry (Bell correlations):  f_v1h2 == -swap(f_h1v2),

where ``swap`` transposes the two frequency arguments.

All integrals are 2D trapezoidal quadratures on the shared grid with the
separable weight w_i w_j.  ``inner_product``, ``norm_squared`` and
``intensity_moments``, and the block integrand of ``spectra``, are the
only code that reads how an amplitude is stored.  Of two amplitudes with
1D factors (``Factors``), as every builder returns, each quadrature is one
1D convolution (the moments are six); of two block-constant amplitudes
with equal runs, as the oracle's ``reconstruct`` returns, it sums
omega^T X omega over row blocks of the K x K samples, omega the weights w
summed over each run; otherwise they sum w^T X w over row blocks of the
N x N values, building no N x N temporary.  ``reductions`` (polarization,
symmetry) is built from the first two, so of a built state it makes no
N^2 pass, and neither do the moments (coherence time).  ``spectra`` (the
cross term of the coincidence rates) sums its one integrand over row
blocks, each block formed from the 1D factors of two factored amplitudes
and otherwise from the values scaled by sqrt(w_i w_j), so of a built
state it forms no N x N array.  The state normalization convention is
(1/2) * (||f_h1v2||^2 + ||f_v1h2||^2) == 1, the 1/2 carrying the global
prefactor of the two-term superposition.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact SI value

#: Tolerance on the state normalization invariant.
NORMALIZATION_TOL = 1e-9

#: Default number of grid points.
DEFAULT_GRID_POINTS = 256


def wavelength_to_angular_frequency(wavelength: float) -> float:
    """Convert a vacuum wavelength in meters to angular frequency in rad/s."""
    if not math.isfinite(wavelength) or wavelength <= 0.0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    omega = 2.0 * math.pi * SPEED_OF_LIGHT / wavelength
    if not math.isfinite(omega):
        raise ValueError(f"wavelength {wavelength!r} m gives a non-finite angular frequency")
    return omega


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform discretization of an angular-frequency interval.

    Two grids compare equal iff all three fields match exactly; every
    binary operation on sampled amplitudes requires equal grids.
    """

    omega_min: float
    omega_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.omega_min) and math.isfinite(self.omega_max)):
            raise ValueError("grid bounds must be finite")
        if self.omega_min >= self.omega_max:
            raise ValueError(
                f"omega_min must be < omega_max, got [{self.omega_min}, {self.omega_max}]"
            )
        if not isinstance(self.n_points, (int, np.integer)) or self.n_points < 2:
            raise ValueError(f"n_points must be an integer >= 2, got {self.n_points}")

    @classmethod
    def centered(cls, center: float, half_width: float, n_points: int) -> "FrequencyGrid":
        if half_width <= 0.0:
            raise ValueError(f"half_width must be positive, got {half_width}")
        return cls(center - half_width, center + half_width, n_points)

    @property
    def step(self) -> float:
        return (self.omega_max - self.omega_min) / (self.n_points - 1)

    @property
    def alias_delay(self) -> float:
        """pi / step: e^{i k step tau} folds a delay beyond this back towards zero."""
        return math.pi / self.step

    def points(self) -> np.ndarray:
        return np.linspace(self.omega_min, self.omega_max, self.n_points)

    def phase(self, t: float, what: str) -> np.ndarray:
        """e^{i w t} on the grid; a t whose w t is not finite is refused, naming it ``what``."""
        # float(): a numpy scalar would warn on the very overflow this looks for
        if not math.isfinite(float(t) * max(abs(self.omega_min), abs(self.omega_max))):
            raise ValueError(f"{what} {t!r} s gives non-finite phases on the grid")
        return np.exp(1j * self.points() * t)

    def trapezoid_weights(self) -> np.ndarray:
        """1D trapezoid weights: full step inside, half step at both ends.
        Built once per grid and read-only."""
        return self._weights

    @functools.cached_property
    def _weights(self) -> np.ndarray:
        w = np.full(self.n_points, self.step)
        w[0] = w[-1] = 0.5 * self.step
        w.setflags(write=False)
        return w


class Factors(NamedTuple):
    """1D factors of an amplitude F[i, j] = x[i] y[j] m[i, j].

    The real magnitude m is ``magnitude`` = (g, h, p) with
    m[i, j] = g[i] h[j] p[i + j], p holding 2N - 1 samples (a Hankel
    matrix on the grid), or None for m = 1.  Any two factored amplitudes
    on one grid have an O(N) inner product, whatever their magnitudes.
    """

    x: np.ndarray
    y: np.ndarray
    magnitude: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


@dataclass(frozen=True, eq=False)
class JointAmplitude:
    """Complex amplitude F(omega, omega') sampled on a square grid.

    Built from dense ``values``, from block-constant ``samples`` with
    ``block_sizes``, or from 1D ``factors``; values are immutable after
    construction, and their squared norm (2D trapezoid of |F|^2) must be
    finite.

    The dense constructor takes ownership of a C-contiguous complex128
    array that owns its data: it stores that array without copying and
    marks it read-only, so the caller's array is frozen too (views the
    caller took of it earlier stay writable).  Any other input (a view, a
    transpose, another dtype) is copied first.

    A block-constant amplitude, ``JointAmplitude(grid, samples,
    block_sizes=runs)``, keeps a finite K x K ``samples`` array, stored
    like dense values, and K positive run lengths that sum to N: the grid
    splits into K contiguous runs, the same on both axes, and
    values[i, j] = samples[b(i), b(j)] with b(i) the run of point i.  It
    builds the read-only N x N ``values`` on first read, by ``np.repeat``.
    Dense values are the case of N runs of one point, which
    ``block_sizes=None`` selects: their ``samples`` are the ``values``.

    A factored amplitude keeps its O(N) factors, which must be finite; it
    marks them read-only without copying them, like dense values.  It
    builds the read-only N x N ``values`` on first read, as
    outer(x, y) * (outer(g, h) * hankel(p)).

    ``inner_product``, ``norm_squared``, ``intensity_moments``, ``swap``
    and ``normalize`` keep to the factors, or to the samples of a
    block-constant amplitude (of two with equal runs), and ``spectra`` and
    ``apply_path1_delay`` keep to the factors.  So ``classify``, ``chsh``,
    the scans, the coherence time and the single-delay coincidence
    probabilities of a built state, and the quadratures of the oracle's
    checked delays, form no N x N array; ``bs_transform`` and the oracle's
    projection read ``values``.
    """

    grid: FrequencyGrid
    dense: InitVar[np.ndarray | None] = None
    factors: Factors | None = None
    block_sizes: np.ndarray | None = None

    def __post_init__(self, dense) -> None:
        n = self.grid.n_points
        if (dense is None) == (self.factors is None):
            raise ValueError("an amplitude takes either values or factors")
        if dense is not None:
            if self.block_sizes is None:
                samples = self.__dict__["values"] = _frozen_values(dense, n)
            else:
                runs = _frozen_runs(self.block_sizes, n)
                k = runs.size
                if np.shape(dense) != (k, k):
                    raise ValueError(f"samples shape {np.shape(dense)} does not match {k} runs")
                object.__setattr__(self, "block_sizes", runs)
                samples = _frozen_values(dense, k)
            self.__dict__["samples"] = samples
            return
        if self.block_sizes is not None:
            raise ValueError("block sizes go with samples, not with factors")
        vectors = (self.factors.x, self.factors.y, *(self.factors.magnitude or ()))
        for vector, size in zip(vectors, (n, n, n, n, 2 * n - 1)):
            if np.shape(vector) != (size,):
                raise ValueError(
                    f"factor shape {np.shape(vector)} does not match grid with {n} points"
                )
            if not np.all(np.isfinite(vector)):
                raise ValueError("amplitude factors must be finite")
            if isinstance(vector, np.ndarray):
                vector.setflags(write=False)

    @functools.cached_property
    def values(self) -> np.ndarray:
        if self.block_sizes is not None:
            runs = self.block_sizes
            values = np.repeat(np.repeat(self.samples, runs, axis=0), runs, axis=1)
            values.setflags(write=False)
            return values
        x, y, magnitude = self.factors
        values = np.outer(x, y)
        if magnitude is not None:
            g, h, p = magnitude
            dense_magnitude = np.outer(g, h)
            dense_magnitude *= sliding_window_view(p, self.grid.n_points)
            values *= dense_magnitude
        return _frozen_values(values, self.grid.n_points)

    def swap(self) -> "JointAmplitude":
        """Exchange the two frequency arguments: swap(F)(w, w') = F(w', w).
        Samples are transposed, keeping their runs; factors swap in O(N),
        x with y and g with h, taken over without checking them again."""
        if self.factors is None:
            return JointAmplitude(self.grid, self.samples.T.copy(), block_sizes=self.block_sizes)
        x, y, magnitude = self.factors
        if magnitude is not None:
            g, h, p = magnitude
            magnitude = (h, g, p)
        swapped = object.__new__(JointAmplitude)
        swapped.__dict__.update(grid=self.grid, factors=Factors(y, x, magnitude), block_sizes=None)
        return swapped


def _frozen_runs(block_sizes, n: int) -> np.ndarray:
    """``block_sizes`` as a read-only 1D integer array of positive runs summing to n."""
    runs = np.array(block_sizes)
    if runs.ndim != 1 or runs.size == 0 or runs.dtype.kind not in "iu":
        raise ValueError(f"block sizes must be a nonempty 1D integer array, got {block_sizes!r}")
    if np.any(runs <= 0):
        raise ValueError("block sizes must be positive")
    total = int(runs.sum())
    if total != n:
        raise ValueError(f"block sizes sum to {total}, not to the {n} grid points")
    runs.setflags(write=False)
    return runs


def _frozen_values(values, n: int) -> np.ndarray:
    """``values`` as an owned, C-contiguous, finite, read-only N x N complex128 array."""
    values = np.asarray(values, dtype=np.complex128)
    if values.shape != (n, n):
        raise ValueError(f"values shape {values.shape} does not match grid with {n} points")
    if not values.flags.owndata or not values.flags.c_contiguous:
        values = np.array(values, order="C")
    if not np.all(np.isfinite(values.view(np.float64))):
        raise ValueError("amplitude values must be finite")
    values.setflags(write=False)
    return values


#: Complex entries per row block: a block's temporaries stay in L2, and a
#: BLAS dot product over one stays below OpenBLAS's 10000-entry threading
#: cutoff, so no sum depends on the BLAS thread count.
_BLOCK_ENTRIES = 8192


def _block_height(n: int) -> int:
    """Rows per block of an N x N array: at most _BLOCK_ENTRIES entries, at most N rows."""
    return min(n, max(1, _BLOCK_ENTRIES // n))


def _row_blocks(n: int) -> list[slice]:
    """Row slices of an N x N array, each block at most _BLOCK_ENTRIES entries."""
    height = _block_height(n)
    return [slice(start, start + height) for start in range(0, n, height)]


def hankel_sum(weights: np.ndarray, u: np.ndarray, v: np.ndarray) -> float | complex:
    """sum_ij u_i v_j weights[i + j] = sum_k weights[k] (u * v)[k], one 1D
    convolution of the length-N vectors u and v, and a sum over 2N - 1 entries.

    Up to _BLOCK_ENTRIES the convolution is direct, and past it by FFT, in
    O(N log N); the final sum goes in pieces of _BLOCK_ENTRIES.  So no BLAS
    dot product crosses OpenBLAS's threading cutoff, at any N.
    """
    if u.size <= _BLOCK_ENTRIES:
        convolution = np.convolve(u, v)
    else:
        size = u.size + v.size - 1
        length = 1 << (size - 1).bit_length()
        # real transforms, of half the size, where no imaginary part is nonzero
        real = not any(np.iscomplexobj(z) and z.imag.any() for z in (u, v))
        if real:
            u, v = u.real, v.real
        fft, ifft = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
        spectrum = fft(u, length)
        spectrum *= fft(v, length)
        convolution = ifft(spectrum, length)[:size]
    starts = range(0, convolution.size, _BLOCK_ENTRIES)
    return sum(
        weights[k : k + _BLOCK_ENTRIES] @ convolution[k : k + _BLOCK_ENTRIES] for k in starts
    )


def _factored_vectors(grid: FrequencyGrid, a: Factors, b: Factors):
    """(p, u, v) with w_i w_j conj(A[i, j]) B[i, j] = u_i v_j p_{i+j}, for
    A = (xa (x) ya) ma and B = (xb (x) yb) mb, m[i, j] = g_i h_j p_{i+j}:
    p = pa pb, u = w ga gb conj(xa) xb and v = w hb ha conj(ya) yb, with x
    and y balanced first (``_balanced``).  Taking hb before ha gives
    <F1, swap F2> the same column weight w g h as its row weight, bit for
    bit."""
    w = grid.trapezoid_weights()
    ga, ha, pa = a.magnitude or (1.0, 1.0, 1.0)
    gb, hb, pb = b.magnitude or (1.0, 1.0, 1.0)
    # ones as an array: a broadcast view would round the final sums differently
    p = np.ones(2 * w.size - 1) if a.magnitude is b.magnitude is None else pa * pb
    (xa, ya), (xb, yb) = _balanced(a), _balanced(b)
    return p, w * ga * gb * np.conj(xa) * xb, w * hb * ha * np.conj(ya) * yb


def _balanced(f: Factors):
    """(x 2^-e, y 2^e), e half the gap between the binary exponents of
    max|x| and max|y|.  Scaling by powers of two is exact wherever no
    product falls below the normal range, so the products x_i y_j keep
    their bits, but x and y scaled far apart no longer overflow in |x|^2
    or |y|^2 where |F|^2 does not."""
    e = (math.frexp(abs(f.x).max())[1] - math.frexp(abs(f.y).max())[1]) // 2
    e = min(max(e, -1022), 1022)  # 2^e and 2^-e are both normal floats
    return f.x * math.ldexp(1.0, -e), f.y * math.ldexp(1.0, e)


def _factored_inner(grid: FrequencyGrid, a: Factors, b: Factors) -> complex:
    """<A, B> = sum_k p_k (u * v)_k of ``_factored_vectors``, one ``hankel_sum``."""
    return complex(hankel_sum(*_factored_vectors(grid, a, b)))


def inner_product(a: JointAmplitude, b: JointAmplitude) -> complex:
    """Trapezoidal quadrature of <a, b> = integral of conj(a) b dw dw', with
    the 1D trapezoid weights w of the shared grid: of two factored
    amplitudes one 1D convolution, else w^T (conj(a) b) w summed over row
    blocks (of the samples, for block-constant amplitudes with equal runs;
    see ``_sampled``).  Amplitudes on different grids are rejected.
    """
    if a.grid != b.grid:
        raise ValueError("amplitudes live on different grids")
    if a.factors is not None and b.factors is not None:
        return _factored_inner(a.grid, a.factors, b.factors)
    x, y, w = _sampled(a, b)
    total = 0j
    for rows in _row_blocks(w.size):
        total += w[rows] @ (np.conj(x[rows]) * y[rows]) @ w
    return complex(total)


def norm_squared(a: JointAmplitude) -> float:
    """Trapezoidal quadrature of ||a||^2 = integral of |a|^2: <a, a> of a
    factored amplitude, else w^T |a|^2 w summed over row blocks.  There the
    squares are formed before the weights, so an entry whose square
    underflows adds exactly 0."""
    if a.factors is not None:
        return _factored_inner(a.grid, a.factors, a.factors).real
    x, _, w = _sampled(a, a)
    return _walked_norm(w, lambda rows: x[rows])


def _sampled(a: JointAmplitude, b: JointAmplitude, w: np.ndarray | None = None):
    """(X, Y, weights) with <a, b> = sum_ij weights_i weights_j conj(X) Y:
    of two block-constant amplitudes with equal runs their K x K samples,
    with the grid's trapezoid weights (or the rows of ``w``) summed over
    each run, and otherwise the N x N values, with the weights themselves."""
    w = a.grid.trapezoid_weights() if w is None else w
    runs = a.block_sizes
    if runs is None or b.block_sizes is None or not np.array_equal(runs, b.block_sizes):
        return a.values, b.values, w
    return a.samples, b.samples, np.add.reduceat(w, np.cumsum(runs) - runs, axis=-1)


def _walked_norm(w: np.ndarray, block) -> float:
    """sum_ij w_i w_j |X[i, j]|^2 of the X whose row block ``block(rows)`` gives."""
    w_parts = np.repeat(w, 2)  # real and imaginary parts side by side
    total = 0.0
    for rows in _row_blocks(w.size):
        total += w[rows] @ np.square(block(rows).view(np.float64)) @ w_parts
    return float(total)


def intensity_moments(a: JointAmplitude) -> np.ndarray:
    """[m_0, m_1, m_2, s_2]: m_k = sum_ij w_i w_j |a[i, j]|^2 v^k with v =
    w_j - w_i, and s_2 the sum of the magnitudes of the terms of m_2, which
    bounds its rounding.  With t the grid offsets from the center in steps,
    v = (t_j - t_i) step expands into sums M_ab of w_i w_j |a|^2 t_i^a t_j^b:
    of a factored amplitude, six ``hankel_sum`` calls on the vectors of
    <a, a>; otherwise, rows of w_i t_i^a times row blocks of |a|^2 times
    w_j t_j^b, over the samples of a block-constant amplitude (``_sampled``).
    """
    n = a.grid.n_points
    t = np.arange(n) - 0.5 * (n - 1)
    m = np.zeros((3, 3))
    if a.factors is not None:
        p, u, v = _factored_vectors(a.grid, a.factors, a.factors)
        for i, j in ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)):
            m[i, j] = hankel_sum(p, u.real * t**i, v.real * t**j)
    else:
        x, _, w = _sampled(a, a, a.grid.trapezoid_weights() * t ** np.arange(3)[:, None])
        columns = np.repeat(w.T, 2, axis=0)  # real and imaginary parts side by side
        for rows in _row_blocks(w.shape[1]):
            m += w[:, rows] @ (np.square(x[rows].view(np.float64)) @ columns)
    step = a.grid.step
    squares, product = m[0, 2] + m[2, 0], 2.0 * m[1, 1]  # of t_j^2 + t_i^2 and 2 t_i t_j
    return np.array([
        m[0, 0], (m[0, 1] - m[1, 0]) * step, (squares - product) * step**2,
        (squares + abs(product)) * step**2,
    ])


@dataclass(frozen=True, eq=False)
class TwoPhotonState:
    """Two-term biphoton superposition over a shared frequency grid.

    The physical state is

        (1/sqrt(2)) * integral dw_H dw_V [
            f_h1v2(w_H, w_V) |H_1(w_H)> |V_2(w_V)>
          + f_v1h2(w_H, w_V) |V_1(w_V)> |H_2(w_H)> ]

    Both amplitudes take (w_H, w_V); in ``f_v1h2`` the H photon travels
    path 2, so its first argument belongs to the path-2 photon.
    Normalized states satisfy
    (1/2) * (||f_h1v2||^2 + ||f_v1h2||^2) == 1 within NORMALIZATION_TOL.
    """

    f_h1v2: JointAmplitude
    f_v1h2: JointAmplitude

    def __post_init__(self) -> None:
        if self.f_h1v2.grid != self.f_v1h2.grid:
            raise ValueError("state amplitudes live on different grids")

    @property
    def grid(self) -> FrequencyGrid:
        return self.f_h1v2.grid

    def norm_squared(self) -> float:
        """(1/2) * (||f_h1v2||^2 + ||f_v1h2||^2); 1 for normalized states."""
        return 0.5 * (norm_squared(self.f_h1v2) + norm_squared(self.f_v1h2))


def normalize(state: TwoPhotonState) -> TwoPhotonState:
    """Rescale both amplitudes so the combined norm is exactly one; a
    factored amplitude keeps its factors, with x scaled, and any other
    its runs, with the samples scaled.

    The zero state cannot be normalized and is rejected.
    """
    total = state.norm_squared()
    if not math.isfinite(total) or total <= 0.0:
        raise ValueError(f"cannot normalize state with combined norm^2 = {total}")
    scale = 1.0 / math.sqrt(total)

    def scaled(amp: JointAmplitude) -> JointAmplitude:
        if amp.factors is None:
            return JointAmplitude(state.grid, amp.samples * scale, block_sizes=amp.block_sizes)
        return JointAmplitude(state.grid, factors=amp.factors._replace(x=amp.factors.x * scale))

    return TwoPhotonState(scaled(state.f_h1v2), scaled(state.f_v1h2))


def require_normalized(state: TwoPhotonState) -> None:
    _require_unit_norm(state.norm_squared())


class InvariantError(ValueError):
    """A state broke a library invariant, such as its unit normalization."""


def _require_unit_norm(total: float) -> None:
    if not abs(total - 1.0) <= NORMALIZATION_TOL:  # NaN fails this too
        raise InvariantError(
            f"state is not normalized: (1/2)(||f1||^2 + ||f2||^2) = {total!r}"
        )


@dataclass(frozen=True)
class StateReductions:
    """Quadratures of F1 = f_h1v2 and F2 = f_v1h2 on the state's grid.

    ``swap F2`` is F2 in path order (first argument the path-1 photon's
    frequency).  Every polarization and symmetry observable is a closed-form
    function of these numbers:

    * n1, n2 -- ||F1||^2 and ||F2||^2,
    * overlap -- <F1, F2>, the exchange overlap behind the coincidence rate,
    * path_overlap -- <F1, swap F2>, the overlap behind the polarization
      correlations,
    * plus_norm -- ||F1 + F2||^2 and path_plus_norm -- ||F1 + swap F2||^2,
      summed directly wherever exact negation can make them exactly zero.
    """

    n1: float
    n2: float
    overlap: complex
    path_overlap: complex
    plus_norm: float
    path_plus_norm: float

    def require_normalized(self) -> None:
        """Raise like ``require_normalized`` on the state these came from."""
        _require_unit_norm(0.5 * (self.n1 + self.n2))


def reductions(state: TwoPhotonState) -> StateReductions:
    """``StateReductions`` from ``norm_squared`` and ``inner_product``, with
    each plus norm from ``_plus_norm``."""
    f1, f2 = state.f_h1v2, state.f_v1h2
    f2_path = f2.swap()
    n1, n2 = norm_squared(f1), norm_squared(f2)
    overlap, path_overlap = inner_product(f1, f2), inner_product(f1, f2_path)
    plus = _plus_norm(f1, f2, n1 + n2 + 2.0 * overlap.real)
    path_plus = _plus_norm(f1, f2_path, n1 + n2 + 2.0 * path_overlap.real)
    return StateReductions(n1, n2, overlap, path_overlap, plus, path_plus)


def _plus_norm(a: JointAmplitude, b: JointAmplitude, expanded: float) -> float:
    """||a + b||^2, summed directly where exact negation can cancel it to 0:
    over row blocks of values or samples (``_sampled``), or over the
    combined factor where a and b share their magnitude and one vector bit
    for bit.  Otherwise ``expanded``, the n_a + n_b + 2 Re <a, b> the
    caller has."""
    fa, fb = a.factors, b.factors
    if fa is None or fb is None:
        x, y, w = _sampled(a, b)
        return _walked_norm(w, lambda rows: x[rows] + y[rows])
    ma, mb = fa.magnitude, fb.magnitude
    if ma is mb or (ma is not None and mb is not None and all(map(np.array_equal, ma, mb))):
        if np.array_equal(fa.x, fb.x):
            combined = fa._replace(y=fa.y + fb.y)
            return _factored_inner(a.grid, combined, combined).real
        if np.array_equal(fa.y, fb.y):
            combined = fa._replace(x=fa.x + fb.x)
            return _factored_inner(a.grid, combined, combined).real
    return expanded


def spectra(state: TwoPhotonState) -> np.ndarray:
    """The cross spectrum c_k, k = -(N-1) .. N-1: sums of w_i w_j conj(F1) F2
    along the diagonals j - i = k, entry k + N - 1 at w_V - w_H = k step,
    from one blocked pass.  Row t of an r-row block goes to row r - 1 - t
    of a skew buffer with r zeros after each row; read as rows one entry
    shorter, each column is one diagonal of the block.

    Only the block integrand depends on how the amplitudes are stored: of
    two factored amplitudes it is the outer product of the
    ``_factored_vectors`` of <F1, F2> times rows of their Hankel matrix,
    so the N x N ``values`` are never formed; otherwise it is the values
    scaled by sqrt(w_i w_j).  A spectrum that overflows is refused.  The
    block buffers are allocated once per call, so that whether a block
    page-faults does not depend on the allocator's history.
    """
    grid, f1, f2 = state.grid, state.f_h1v2, state.f_v1h2
    n, height = grid.n_points, _block_height(grid.n_points)
    cross = np.zeros(2 * n - 1, dtype=np.complex128)
    buffer = np.empty(height * (n + height), dtype=np.complex128)
    factored = f1.factors is not None and f2.factors is not None
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        if factored:
            p, u, v = _factored_vectors(grid, f1.factors, f2.factors)
            p = sliding_window_view(p, n)
            outer = np.empty((height, n), dtype=np.complex128)
        else:
            s = np.sqrt(grid.trapezoid_weights())
        for rows in _row_blocks(n):
            r = min(rows.stop, n) - rows.start
            lo, width = n - r - rows.start, n + r - 1
            skew = buffer[: r * (n + r)].reshape(r, n + r)
            skew[:, n:] = 0.0
            block = skew[::-1, :n]  # strided: written once, from contiguous terms
            if factored:
                np.multiply(np.multiply.outer(u[rows], v, out=outer[:r]), p[rows], out=block)
            else:
                weight = s[rows, None] * s[None, :]
                a, b = weight * f1.values[rows], weight * f2.values[rows]
                np.multiply(np.conj(a, out=a), b, out=block)
            cross[lo : lo + width] += skew.ravel()[: r * width].reshape(r, width).sum(axis=0)
    if not np.all(np.isfinite(cross)):
        raise ValueError("state spectra are not finite: w_i w_j |F|^2 overflows")
    return cross
