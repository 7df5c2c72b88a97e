"""Brute-force discrete-mode cross-check of the beamsplitter analysis.

Frequency is coarsened into K bins, giving 4K single-photon modes
(path, polarization, bin), ordered path first, then polarization, then
bin.  A two-photon state over those modes is one dense symmetric pair
matrix T,

    |psi> = sum_{u, v} T[u, v] a+_u a+_v |0>,

so the physical amplitude of the pair {u, v} is 2 T[u, v] for u != v and
sqrt(2) T[u, u] for a doubly occupied mode, and the total probability is
2 ||T||_F^2.  The beamsplitter acts only on the path label, so it mixes
the 2K x 2K path blocks of T with a 2 x 2 unitary and never forms the
(4K)^2 mode unitary.  On an N-point grid the bin projection costs one
pass of block sums over each amplitude, O(N^2) per delay with no N x N
temporary (the delay a phase on K x N partial sums); the embedding back
on the grid keeps the K x K coefficients as block-constant amplitudes,
and it, the transform and the outcome sums cost O(K^2).

Everything here is written against that finite Fock space from scratch:
bin aggregation and probability bookkeeping share no code with the
quadrature modules, so agreement between the two routes is a real
consistency check rather than the same integral computed twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import JointAmplitude, TwoPhotonState

_ROOT_TWO = math.sqrt(2.0)

#: One-photon path unitary, rows output paths (3, 4), columns input
#: paths (1, 2): a+_1 -> (i a+_3 + a+_4)/sqrt(2), a+_2 -> (a+_3 + i a+_4)/sqrt(2).
_PATH_UNITARY = np.array([[1j, 1.0], [1.0, 1j]]) / _ROOT_TWO

#: Sector (path, polarization) indices of an input basis, in mode order.
_H1, _V1, _H2, _V2 = range(4)


@dataclass(frozen=True, eq=False)
class DiscreteModeBasis:
    """Two-photon state over the 4K discrete modes of two paths.

    The state is the read-only pair matrix T of the module docstring,
    ``pair_matrix`` (4K x 4K), which the constructor keeps without copying
    and marks read-only.  captured_norm records how much of the original
    continuum norm the K bins captured before renormalization.
    """

    k_bins: int
    paths: tuple[int, int]
    pair_matrix: np.ndarray = field(repr=False)
    captured_norm: float

    def __post_init__(self) -> None:
        paths = tuple(self.paths)
        if len(paths) != 2 or not paths[0] < paths[1]:
            raise ValueError(f"paths must be two increasing path labels, got {paths}")
        object.__setattr__(self, "paths", paths)
        shape = (4 * self.k_bins, 4 * self.k_bins)
        if self.pair_matrix.shape != shape:
            raise ValueError(f"pair_matrix shape {self.pair_matrix.shape} is not {shape}")
        self.pair_matrix.setflags(write=False)
        object.__setattr__(self, "captured_norm", float(self.captured_norm))

    def total_probability(self) -> float:
        return 2.0 * _squared_norm(self.pair_matrix)


def _squared_norm(a: np.ndarray) -> float:
    # Pieces below OpenBLAS's 10000-entry threading cutoff: thread-independent bits.
    flat = a.reshape(-1)
    pieces = (flat[k : k + 8192] for k in range(0, flat.size, 8192))
    return float(sum(np.vdot(p, p).real for p in pieces))


def _flat_bins(grid, k_bins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Bin of each grid point (contiguous blocks, the first n % K one point
    longer), trapezoid weights w, sqrt(W_k) with W_k the weight of bin k,
    and the runs of equal-width bins as (bin slice, point slice, width).

    The weights are written out on purpose; see the module docstring.
    """
    n = grid.n_points
    if k_bins > n:
        raise ValueError(f"k_bins = {k_bins} exceeds the {n}-point grid")
    step = (grid.omega_max - grid.omega_min) / (n - 1)
    w = np.full(n, step)
    w[0] = w[-1] = 0.5 * step
    size, extra = divmod(n, k_bins)
    split = extra * (size + 1)
    runs = [(slice(extra, k_bins), slice(split, n), size)]
    if extra:
        runs.insert(0, (slice(0, extra), slice(0, split), size + 1))
    bins = np.repeat(np.arange(k_bins), np.where(np.arange(k_bins) < extra, size + 1, size))
    return bins, w, np.sqrt(np.bincount(bins, weights=w)), runs


def _bin_sums(x: np.ndarray, weights: np.ndarray, runs: list) -> np.ndarray:
    """out[k] = sum over the points i of bin k of weights[i] x[i]: the first
    axis of x, one point per grid point, contracted bin by bin with one
    batched product per run of equal-width bins."""
    out = np.empty((runs[-1][0].stop, x.shape[1]), dtype=np.complex128)
    for bins, points, width in runs:
        np.matmul(
            weights[points].reshape(-1, 1, width),
            x[points].reshape(-1, width, x.shape[1]),
            out=out[bins, None],
        )
    return out


def discretize(state: TwoPhotonState, k_bins: int, *, delay: float = 0.0) -> DiscreteModeBasis:
    """Project the state, path 1 retarded by ``delay`` s, onto K flat bin modes.

    Bin k covers a contiguous block of grid points; its mode function is
    constant over the block, so the projection coefficient of F onto the
    (k, m) bin pair is

        c[k, m] = sum_{i in k, j in m} v_i v_j F[i, j],   v_i = w_i / sqrt(W_k)

    with w the quadrature weights and W_k their per-bin totals.  The sums
    over the path-2 photon's bins (F1's columns, F2's rows) do not depend
    on the delay and cost one pass over each amplitude; the path-1 phase
    e^{i w delay} (rows of f_h1v2, columns of f_v1h2) then rides on those
    K x N sums, whose own bin sums give c.
    The captured norm sum |c|^2 can only fall short of the continuum norm
    (within-bin structure is lost, a deficit of order 1/K^2 for smooth
    states); it reaches it exactly when K equals the grid size.
    """
    if not isinstance(k_bins, (int, np.integer)) or isinstance(k_bins, bool):
        raise ValueError(f"k_bins must be an integer, got {k_bins!r}")
    if k_bins < 2:
        raise ValueError(f"k_bins must be at least 2, got {k_bins}")
    bins, w, root_w, runs = _flat_bins(state.grid, k_bins)
    v = w / root_w[bins]
    phase = state.grid.phase(delay, "delay")
    # Sums over the path-2 photon's bin: s1[m, i] of F1[i, bin m], s2[k, j]
    # of F2[bin k, j]; the path-1 photon's grid index is the last one of both.
    s1 = _bin_sums(state.f_h1v2.values.T, v, runs)
    s2 = _bin_sums(state.f_v1h2.values, v, runs)
    s1 *= phase
    s2 *= phase
    # Rows the path-1 photon's bin: c1 is F1's c, c2 the transpose of F2's.
    c1 = _bin_sums(s1.T, v, runs)
    c2 = _bin_sums(s2.T, v, runs)
    # Physical pair amplitudes carry the state's overall 1/sqrt(2).
    captured = 0.5 * (_squared_norm(c1) + _squared_norm(c2))
    # Rounding leaves |c|^2 ~ (N eps)^2 norm, and norm <= max(w)^2 (sum|F1|^2 + sum|F2|^2) / 2
    n1, n2 = _squared_norm(state.f_h1v2.values), _squared_norm(state.f_v1h2.values)
    if captured <= 0.5 * (n1 + n2) * (bins.size * np.finfo(np.float64).eps * w.max()) ** 2:
        raise ValueError("state projects to zero on the requested bins")
    scale = 1.0 / (2.0 * _ROOT_TWO * math.sqrt(captured))
    t = np.zeros((4, k_bins, 4, k_bins), dtype=np.complex128)
    t[_H1, :, _V2, :] = scale * c1
    t[_V1, :, _H2, :] = scale * c2
    t[_V2, :, _H1, :] = t[_H1, :, _V2, :].T
    t[_H2, :, _V1, :] = t[_V1, :, _H2, :].T
    return DiscreteModeBasis(k_bins, (1, 2), t.reshape(4 * k_bins, 4 * k_bins), captured)


def reconstruct(basis: DiscreteModeBasis, grid) -> TwoPhotonState:
    """Embed a discretized input state back onto a frequency grid.

    Each bin amplitude spreads uniformly over its block of grid points
    (the same flat mode functions ``discretize`` projects onto), so
    discretize(reconstruct(b), b.k_bins) returns b with captured norm 1.
    The result is the piecewise-constant continuum state the discrete
    vector actually represents, which makes analytic and discrete-mode
    outcome probabilities directly comparable.  Both amplitudes are
    block-constant, their runs the bins' point counts and their samples
    the rescaled K x K coefficients, so no N x N array is formed until
    ``values`` is read.  Only (1H, 2V) and (1V, 2H) pairs have a place in
    a TwoPhotonState; a basis with amplitude on any other pair is rejected.
    """
    if basis.paths != (1, 2):
        raise ValueError(f"only input bases on paths (1, 2) embed, got {basis.paths}")
    k_bins = basis.k_bins
    bins, _, root_w, _ = _flat_bins(grid, k_bins)
    sectors = basis.pair_matrix.reshape(4, k_bins, 4, k_bins)
    other = np.ones((4, 4), dtype=bool)
    other[_H1, _V2] = other[_V2, _H1] = other[_V1, _H2] = other[_H2, _V1] = False
    if np.any(sectors.transpose(0, 2, 1, 3)[other]):
        raise ValueError(
            "only (1H, 2V) and (1V, 2H) pairs embed in a two-photon state; "
            "the basis has amplitude on other mode pairs"
        )
    # Flat bin mode sampled on the grid: 1/sqrt(W_k) over block k, so
    # F[i, j] = c[k, m] / sqrt(W_k W_m) for i in bin k and j in bin m.
    scale = 2.0 * _ROOT_TWO / np.outer(root_w, root_w)
    # Row index is the w_H bin: the path-1 H photon's in c1, the path-2 H
    # photon's in c2.
    c1 = scale * sectors[_H1, :, _V2, :]
    c2 = scale * sectors[_V1, :, _H2, :].T
    runs = np.bincount(bins)
    return TwoPhotonState(
        JointAmplitude(grid, c1, block_sizes=runs), JointAmplitude(grid, c2, block_sizes=runs)
    )


def apply_bs_exact(basis: DiscreteModeBasis) -> DiscreteModeBasis:
    """Send the discrete state through the beamsplitter exactly.

    With u the 2 x 2 path unitary and T viewed as 2 x 2 path blocks of
    size 2K, the output pair matrix is

        T_out[p, q] = sum_{a, b} u[p, a] u[q, b] T[a, b],

    which is U T U^T for the mode unitary U = u (x) identity: one product per path index.
    """
    if basis.paths != (1, 2):
        raise ValueError(f"input basis must live on paths (1, 2), got {basis.paths}")
    half = 2 * basis.k_bins
    rows = _PATH_UNITARY @ basis.pair_matrix.reshape(2, -1)
    t_out = _PATH_UNITARY @ rows.reshape(2 * half, 2, half)
    return DiscreteModeBasis(
        basis.k_bins, (3, 4), t_out.reshape(2 * half, 2 * half), basis.captured_norm
    )


def outcome_probabilities(basis: DiscreteModeBasis) -> dict[str, float]:
    """Sum |amplitude|^2 into the three detection outcomes.

    coincidence: one photon in each output path, 4 ||T_34||^2;
    both_in_3 / both_in_4: the bunched outcomes, 2 ||T_33||^2 and
    2 ||T_44||^2.  The three sum to the basis total probability, 1 within
    1e-12 after a lossless transform.
    """
    if basis.paths != (3, 4):
        raise ValueError(f"output basis must live on paths (3, 4), got {basis.paths}")
    half = 2 * basis.k_bins
    t = basis.pair_matrix
    return {
        "coincidence": 4.0 * _squared_norm(t[:half, half:]),
        "both_in_3": 2.0 * _squared_norm(t[:half, :half]),
        "both_in_4": 2.0 * _squared_norm(t[half:, half:]),
    }
