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
separable weight w_i w_j, and every pass walks the state in row blocks,
so it builds no N x N temporary: ``norm_squared`` and ``inner_product`` sum
w^T X w block by block, and ``reductions`` (polarization, symmetry) and
``spectra`` (coincidence rates, coherence time) each walk the state once
in blocks scaled by sqrt(w_i w_j).  The state normalization convention
is (1/2) * (||f_h1v2||^2 + ||f_v1h2||^2) == 1, the 1/2 carrying the global
prefactor of the two-term superposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
        """1D trapezoid weights: full step inside, half step at both ends."""
        w = np.full(self.n_points, self.step)
        w[0] = w[-1] = 0.5 * self.step
        return w


@dataclass(frozen=True, eq=False)
class JointAmplitude:
    """Complex amplitude F(omega, omega') sampled on a square grid.

    Values are immutable after construction.  The squared norm (2D
    trapezoid of |F|^2) must be finite.

    The constructor takes ownership of a C-contiguous complex128 array
    that owns its data: it stores that array without copying and marks it
    read-only, so the caller's array is frozen too (views the caller took
    of it earlier stay writable).  Any other input (a view, a transpose,
    another dtype) is copied first.
    """

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.complex128)
        n = self.grid.n_points
        if values.shape != (n, n):
            raise ValueError(
                f"values shape {values.shape} does not match grid with {n} points"
            )
        if not values.flags.owndata or not values.flags.c_contiguous:
            values = np.array(values, order="C")
        if not np.all(np.isfinite(values.view(np.float64))):
            raise ValueError("amplitude values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def swap(self) -> "JointAmplitude":
        """Exchange the two frequency arguments: swap(F)(w, w') = F(w', w)."""
        return JointAmplitude(self.grid, self.values.T.copy())


#: Complex entries per row block: a block's temporaries stay in L2, and a
#: BLAS dot product over one stays below OpenBLAS's 10000-entry threading
#: cutoff, so no sum depends on the BLAS thread count.
_BLOCK_ENTRIES = 8192


def _row_blocks(n: int) -> list[slice]:
    """Row slices of an N x N array, each block at most _BLOCK_ENTRIES entries."""
    height = max(1, _BLOCK_ENTRIES // n)
    return [slice(start, start + height) for start in range(0, n, height)]


def inner_product(a: JointAmplitude, b: JointAmplitude) -> complex:
    """Trapezoidal quadrature of <a, b> = integral of conj(a) b dw dw',
    summed as w^T (conj(a) b) w over row blocks, with the 1D trapezoid
    weights w of the shared grid.  Amplitudes on different grids are rejected.
    """
    if a.grid != b.grid:
        raise ValueError("amplitudes live on different grids")
    w = a.grid.trapezoid_weights()
    total = 0j
    for rows in _row_blocks(w.size):
        total += w[rows] @ (np.conj(a.values[rows]) * b.values[rows]) @ w
    return complex(total)


def norm_squared(a: JointAmplitude) -> float:
    """Trapezoidal quadrature of ||a||^2 = integral of |a|^2, summed as
    w^T |a|^2 w over row blocks.  The squares are formed before the weights,
    so an entry whose square underflows adds exactly 0."""
    w = a.grid.trapezoid_weights()
    # real and imaginary parts side by side, each column's weight twice
    parts, w_parts = a.values.view(np.float64), np.repeat(w, 2)
    total = 0.0
    for rows in _row_blocks(w.size):
        total += w[rows] @ np.square(parts[rows]) @ w_parts
    return float(total)


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
    """Rescale both amplitudes so the combined norm is exactly one.

    The zero state cannot be normalized and is rejected.
    """
    total = state.norm_squared()
    if not math.isfinite(total) or total <= 0.0:
        raise ValueError(f"cannot normalize state with combined norm^2 = {total}")
    scale = 1.0 / math.sqrt(total)
    return TwoPhotonState(
        JointAmplitude(state.grid, state.f_h1v2.values * scale),
        JointAmplitude(state.grid, state.f_v1h2.values * scale),
    )


def require_normalized(state: TwoPhotonState) -> None:
    _require_unit_norm(state.norm_squared())


class InvariantError(ValueError):
    """A state broke a library invariant, such as its unit normalization."""


def _require_unit_norm(total: float) -> None:
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise InvariantError(
            f"state is not normalized: (1/2)(||f1||^2 + ||f2||^2) = {total!r}"
        )


def _weighted_blocks(state: TwoPhotonState):
    """Yield (rows, weight, weight * F1[rows], weight * F2[rows]), fresh, per row
    block, with weight = s_i s_j, s = sqrt(trapezoid weights), symmetric bit for bit."""
    s = np.sqrt(state.grid.trapezoid_weights())
    f1, f2 = state.f_h1v2.values, state.f_v1h2.values
    for rows in _row_blocks(s.size):
        weight = s[rows, None] * s[None, :]
        yield rows, weight, weight * f1[rows], weight * f2[rows]


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
      summed directly rather than expanded, so that an exactly
      antisymmetric pair gives exactly zero.
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
    """``StateReductions``, each one dot product of scaled blocks per block.
    Scaling keeps exact negation exact, so plus norms stay exactly 0."""
    sums = np.zeros(6, dtype=np.complex128)
    for rows, weight, a, b in _weighted_blocks(state):
        # swap F2 scaled in F2's row order, then transposed in cache (no strided read)
        b_path = np.ascontiguousarray((state.f_v1h2.values[:, rows] * weight.T).T)
        sums[:4] += [np.vdot(a, a), np.vdot(b, b), np.vdot(a, b), np.vdot(a, b_path)]
        b += a
        b_path += a
        sums[4:] += [np.vdot(b, b), np.vdot(b_path, b_path)]
    n1, n2, overlap, path_overlap, plus, path_plus = (complex(x) for x in sums)
    return StateReductions(n1.real, n2.real, overlap, path_overlap, plus.real, path_plus.real)


@dataclass(frozen=True, eq=False)
class StateSpectra:
    """Sums along the diagonals j - i = k = -(N-1) .. N-1, entry k + N - 1 at
    w_V - w_H = offsets[k + N - 1] = k * step: ``cross`` of w_i w_j conj(F1) F2
    (c_k) and ``intensity`` of w_i w_j (|F1|^2 + |F2|^2) / 2 (I_k)."""

    offsets: np.ndarray
    cross: np.ndarray
    intensity: np.ndarray
    step: float


def spectra(state: TwoPhotonState) -> StateSpectra:
    """``StateSpectra`` from one blocked pass.  Row t of an r-row block goes
    to row r - 1 - t of a skew buffer with r zeros after each row; read as
    rows one entry shorter, each column is one diagonal of the block.
    """
    n, step = state.grid.n_points, state.grid.step
    cross, intensity = np.zeros(2 * n - 1, dtype=np.complex128), np.zeros(2 * n - 1)
    for rows, _, a, b in _weighted_blocks(state):
        r = a.shape[0]
        lo, width = n - r - rows.start, n + r - 1
        skew_intensity = np.zeros((r, n + r))
        skew_cross = np.zeros((r, n + r), dtype=np.complex128)
        squares = a.view(np.float64) ** 2 + b.view(np.float64) ** 2
        np.add(squares[:, 0::2], squares[:, 1::2], out=skew_intensity[::-1, :n])
        np.multiply(np.conj(a, out=a), b, out=skew_cross[::-1, :n])
        for total, skew in ((cross, skew_cross), (intensity, skew_intensity)):
            total[lo : lo + width] += skew.ravel()[: r * width].reshape(r, width).sum(axis=0)
    return StateSpectra(np.arange(1 - n, n) * step, cross, 0.5 * intensity, step)
