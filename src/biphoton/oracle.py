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
(4K)^2 mode unitary.  Per delay the bin projection (two BLAS products
per amplitude, the delay a phase on the K x N bin weights, no N x N
temporary) costs O(K N^2) on an N-point grid, the gather back on the grid
O(N^2), the transform and the outcome sums O(K^2).

Everything here is written against that finite Fock space from scratch:
bin aggregation and probability bookkeeping share no code with the
quadrature modules, so agreement between the two routes is a real
consistency check rather than the same integral computed twice.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .core import JointAmplitude, TwoPhotonState

_ROOT_TWO = math.sqrt(2.0)

#: One-photon path unitary, rows output paths (3, 4), columns input
#: paths (1, 2): a+_1 -> (i a+_3 + a+_4)/sqrt(2), a+_2 -> (a+_3 + i a+_4)/sqrt(2).
_PATH_UNITARY = np.array([[1j, 1.0], [1.0, 1j]]) / _ROOT_TWO

#: Sector (path, polarization) indices of an input basis, in mode order.
_H1, _V1, _H2, _V2 = range(4)


class Mode(NamedTuple):
    """One bosonic mode: which path, which polarization, which bin."""

    path: int
    pol: str
    bin_index: int


def _mode_list(paths: tuple[int, int], k_bins: int) -> list[Mode]:
    return [
        Mode(path, pol, k)
        for path in paths
        for pol in ("H", "V")
        for k in range(k_bins)
    ]


@dataclass(frozen=True, eq=False)
class DiscreteModeBasis:
    """Two-photon state over the 4K discrete modes of two paths.

    The state is the read-only pair matrix T of the module docstring,
    ``pair_matrix`` (4K x 4K), which the constructor keeps without copying
    and marks read-only.  ``from_amplitudes`` builds T from a mapping of
    pair amplitudes, and ``amplitudes`` reads the nonzero ones back from it
    when first accessed.  captured_norm records how much of the original
    continuum norm the K bins captured before renormalization.
    """

    k_bins: int
    paths: tuple[int, int]
    pair_matrix: np.ndarray = field(repr=False)
    captured_norm: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "paths", _checked_paths(self.paths))
        shape = (4 * self.k_bins, 4 * self.k_bins)
        if self.pair_matrix.shape != shape:
            raise ValueError(f"pair_matrix shape {self.pair_matrix.shape} is not {shape}")
        self.pair_matrix.setflags(write=False)
        object.__setattr__(self, "captured_norm", float(self.captured_norm))

    @classmethod
    def from_amplitudes(
        cls, k_bins: int, paths: tuple[int, int], amplitudes: Mapping, captured_norm: float
    ) -> "DiscreteModeBasis":
        """Basis from a mapping of canonical (mode, mode) pairs, the smaller mode first, to
        physical amplitudes: |amplitude|^2 is the pair's probability, doubly occupied modes too."""
        paths = _checked_paths(paths)
        index = {mode: i for i, mode in enumerate(_mode_list(paths, k_bins))}
        t = np.zeros((len(index), len(index)), dtype=np.complex128)
        for (mode_a, mode_b), amp in amplitudes.items():
            if mode_a not in index or mode_b not in index:
                raise ValueError(
                    f"pair {(mode_a, mode_b)} is not a pair of the {k_bins}-bin "
                    f"modes on paths {paths}"
                )
            i, j = index[mode_a], index[mode_b]
            if i == j:
                t[i, i] += amp / _ROOT_TWO
            else:
                t[i, j] += 0.5 * amp
                t[j, i] += 0.5 * amp
        return cls(k_bins, paths, t, captured_norm)

    @cached_property
    def amplitudes(self) -> Mapping[tuple[Mode, Mode], complex]:
        modes = _mode_list(self.paths, self.k_bins)
        t = self.pair_matrix
        pairs = 2.0 * np.triu(t, 1)
        np.fill_diagonal(pairs, _ROOT_TWO * np.diagonal(t))
        rows, cols = np.nonzero(pairs)
        return MappingProxyType(
            {
                (modes[i], modes[j]): complex(pairs[i, j])
                for i, j in zip(rows.tolist(), cols.tolist())
            }
        )

    def total_probability(self) -> float:
        return 2.0 * _squared_norm(self.pair_matrix)


def _checked_paths(paths) -> tuple[int, int]:
    paths = tuple(paths)
    if len(paths) != 2 or not paths[0] < paths[1]:
        raise ValueError(f"paths must be two increasing path labels, got {paths}")
    return paths


def _squared_norm(a: np.ndarray) -> float:
    # Pieces below OpenBLAS's 10000-entry threading cutoff: thread-independent bits.
    flat = a.reshape(-1)
    return float(sum(np.vdot(p, p).real for p in np.split(flat, range(8192, flat.size, 8192))))


def _flat_bins(grid, k_bins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bin of each grid point (contiguous blocks, the first n % K one point
    longer), trapezoid weights w and sqrt(W_k), W_k the weight of bin k.

    The weights are written out on purpose; see the module docstring.
    """
    n = grid.n_points
    if k_bins > n:
        raise ValueError(f"k_bins = {k_bins} exceeds the {n}-point grid")
    step = (grid.omega_max - grid.omega_min) / (n - 1)
    w = np.full(n, step)
    w[0] = w[-1] = 0.5 * step
    size, extra = divmod(n, k_bins)
    bins = np.repeat(np.arange(k_bins), np.where(np.arange(k_bins) < extra, size + 1, size))
    return bins, w, np.sqrt(np.bincount(bins, weights=w))


def discretize(state: TwoPhotonState, k_bins: int, *, delay: float = 0.0) -> DiscreteModeBasis:
    """Project the state, path 1 retarded by ``delay`` s, onto K flat bin modes.

    Bin k covers a contiguous block of grid points; its mode function is
    constant over the block, so the projection coefficient of F onto the
    (k, m) bin pair is

        c[k, m] = sum_{i in k, j in m} w_i w_j F[i, j] / sqrt(W_k W_m)

    with w the quadrature weights and W_k their per-bin totals.  The
    path-1 phase e^{i w delay} (rows of f_h1v2, columns of f_v1h2) rides
    on the K x N weights: two BLAS products per amplitude, no N x N array.
    The captured norm sum |c|^2 can only fall short of the continuum norm
    (within-bin structure is lost, a deficit of order 1/K^2 for smooth
    states); it reaches it exactly when K equals the grid size.
    """
    if not isinstance(k_bins, (int, np.integer)) or isinstance(k_bins, bool):
        raise ValueError(f"k_bins must be an integer, got {k_bins!r}")
    if k_bins < 2:
        raise ValueError(f"k_bins must be at least 2, got {k_bins}")
    bins, w, root_w = _flat_bins(state.grid, k_bins)
    aggregate = np.zeros((k_bins, bins.size))
    aggregate[bins, np.arange(bins.size)] = w / root_w[bins]
    delayed = aggregate * state.grid.phase(delay, "delay")
    # Real BLAS products on float64 views (F1's weights stack their two parts).
    both = np.concatenate((delayed.real, delayed.imag)) @ state.f_h1v2.values.view(np.float64)
    both = both.view(np.complex128)
    c1 = (both[:k_bins] + 1j * both[k_bins:]) @ aggregate.T
    c2 = (aggregate @ state.f_v1h2.values.view(np.float64)).view(np.complex128) @ delayed.T
    # Physical pair amplitudes carry the state's overall 1/sqrt(2).
    captured = 0.5 * (_squared_norm(c1) + _squared_norm(c2))
    # Rounding leaves |c|^2 ~ (N eps)^2 norm, and norm <= max(w)^2 (sum|F1|^2 + sum|F2|^2) / 2
    n1, n2 = _squared_norm(state.f_h1v2.values), _squared_norm(state.f_v1h2.values)
    if captured <= 0.5 * (n1 + n2) * (bins.size * np.finfo(np.float64).eps * w.max()) ** 2:
        raise ValueError("state projects to zero on the requested bins")
    scale = 1.0 / (2.0 * _ROOT_TWO * math.sqrt(captured))
    # In f_v1h2 the first index (bin k) is the path-2 H photon's.
    t = np.zeros((4, k_bins, 4, k_bins), dtype=np.complex128)
    t[_H1, :, _V2, :] = scale * c1
    t[_V1, :, _H2, :] = scale * c2.T
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
    outcome probabilities directly comparable.  Only (1H, 2V) and
    (1V, 2H) pairs have a place in a TwoPhotonState; a basis with
    amplitude on any other pair is rejected.
    """
    if basis.paths != (1, 2):
        raise ValueError(f"only input bases on paths (1, 2) embed, got {basis.paths}")
    k_bins = basis.k_bins
    bins, _, root_w = _flat_bins(grid, k_bins)
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
    # np.take's result is C-contiguous and owns its data: JointAmplitude keeps it.
    f1 = np.take(c1[:, bins], bins, axis=0)
    f2 = np.take(c2[:, bins], bins, axis=0)
    return TwoPhotonState(JointAmplitude(grid, f1), JointAmplitude(grid, f2))


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
