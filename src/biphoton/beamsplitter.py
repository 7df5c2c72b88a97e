"""50/50 beamsplitter transform, coincidence probability, and delay scans.

Input paths are labeled 1 and 2, output paths 3 and 4.  The mode relations
are

    a3 = (a2 + i a1) / sqrt(2),    a4 = (a1 + i a2) / sqrt(2)

equivalently, for creation operators, a1+ -> (i a3+ + a4+)/sqrt(2) and
a2+ -> (a3+ + i a4+)/sqrt(2): straight-through transmission with an i on
reflection.  A relative delay between the arms is modeled as a group delay
on input path 1, applied before the transform as a phase e^{i w delay} on
whichever frequency factor rides in path 1 (w_H in the f_h1v2 term, w_V in
the f_v1h2 term).  Positive delay retards path 1.

Every coincidence probability is one closed form, ``_coincidence``:
P_cc = (n1 + n2)/4 - (1/2) mode_overlap Re <F1, F2> of the delayed pair.
At one delay, ``coincidence_probability`` takes its three quadratures
(of a built state three 1D convolutions).  The delay enters only through
the cross term, as e^{i (w_V - w_H) delay}, so a ``delay_scan`` takes it
from the cross spectrum of ``core.spectra`` (sums along the diagonals
w_V - w_H = k dw): one blocked N^2 pass, which of a built state forms its
blocks from the 1D factors, never the N x N values.  After it, K delays
cost O(K sqrt(N)) exponentials, K (2N - 1) multiply-adds and O(K sqrt(N))
memory.  The coherence time, the width of that feature, is a closed form
of three intensity moments (``core.intensity_moments``), which of a built
state are 1D convolutions, no N^2 pass.  The cross term is periodic in the
delay with period 2 pi / dw: a delay beyond ``FrequencyGrid.alias_delay``
= pi / dw gives the same rate as that delay shifted by 2 pi / dw back
towards zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    FrequencyGrid,
    JointAmplitude,
    TwoPhotonState,
    inner_product,
    intensity_moments,
    norm_squared,
    spectra,
)

#: 1 / (2 sqrt(2)): product of the 1/sqrt(2) state normalization prefactor
#: and the two 1/sqrt(2) beamsplitter factors, one per photon.
_OUTPUT_PREFACTOR = 1.0 / (2.0 * math.sqrt(2.0))

#: Below this visibility a delay scan counts as flat (see ``DelayScanCurve``).
FLAT_VISIBILITY = 1e-9


def apply_path1_delay(state: TwoPhotonState, delay: float) -> TwoPhotonState:
    """Retard input path 1 by ``delay`` seconds.

    The path-1 photon is H in the first term (frequency w_H, the row
    index) and V in the second term (frequency w_V, the column index), so
    the phase e^{i w delay} multiplies rows of f_h1v2 and columns of
    f_v1h2: of two factored amplitudes, x of f_h1v2 and y of f_v1h2, in
    O(N), leaving ``values`` unbuilt.
    """
    if delay == 0.0:
        return state
    grid = state.grid
    phase = grid.phase(delay, "delay")
    f1, f2 = state.f_h1v2.factors, state.f_v1h2.factors
    if f1 is not None and f2 is not None:
        return TwoPhotonState(
            JointAmplitude(grid, factors=f1._replace(x=f1.x * phase)),
            JointAmplitude(grid, factors=f2._replace(y=f2.y * phase)),
        )
    return TwoPhotonState(
        JointAmplitude(grid, state.f_h1v2.values * phase[:, None]),
        JointAmplitude(grid, state.f_v1h2.values * phase[None, :]),
    )


@dataclass(frozen=True, eq=False)
class BsOutputState:
    """Two-photon amplitudes behind the beamsplitter.

    a_43 multiplies a+_{H4} a+_{V3} (H photon in path 4, V in path 3) and
    a_34 multiplies a+_{H3} a+_{V4}; these are the two coincidence
    channels.  b_33 and b_44 multiply a+_{H3} a+_{V3} and a+_{H4} a+_{V4},
    the bunched channels.  In terms of the input amplitudes F1 = f_h1v2
    and F2 = f_v1h2 (after any path-1 delay),

        a_43 = (F1 - F2) / (2 sqrt(2))      a_34 = -(F1 - F2) / (2 sqrt(2))
        b_33 = b_44 = i (F1 + F2) / (2 sqrt(2))

    Only a_43 and b_33 are stored; a_34 and b_44 are derived from them.
    The input state's 1/sqrt(2) normalization prefactor is absorbed into
    these amplitudes, so each channel probability is the plain quadrature
    norm of its amplitude and the four of them sum to one.
    """

    a_43: JointAmplitude
    b_33: JointAmplitude

    @property
    def a_34(self) -> JointAmplitude:
        return JointAmplitude(self.grid, -self.a_43.values)

    @property
    def b_44(self) -> JointAmplitude:
        return self.b_33

    @property
    def grid(self) -> FrequencyGrid:
        return self.a_43.grid

    @property
    def probability_coincidence(self) -> float:
        # ||a_34||^2 == ||a_43||^2 exactly, and x + x == 2 x exactly.
        return 2.0 * norm_squared(self.a_43)

    @property
    def probability_both_in_3(self) -> float:
        return norm_squared(self.b_33)

    @property
    def probability_both_in_4(self) -> float:
        return self.probability_both_in_3

    @property
    def total_probability(self) -> float:
        return (
            self.probability_coincidence
            + self.probability_both_in_3
            + self.probability_both_in_4
        )


def bs_transform(state: TwoPhotonState) -> BsOutputState:
    """Full output state of the beamsplitter; compose with ``apply_path1_delay``
    for a delayed path 1."""
    t1, t2 = (_OUTPUT_PREFACTOR * f.values for f in (state.f_h1v2, state.f_v1h2))
    grid = state.grid
    return BsOutputState(
        a_43=JointAmplitude(grid, t1 - t2),
        b_33=JointAmplitude(grid, 1j * (t1 + t2)),
    )


def _checked_delays(delays, mode_overlap: float, grid: FrequencyGrid) -> np.ndarray:
    if not 0.0 <= mode_overlap <= 1.0:
        raise ValueError(f"mode_overlap must lie in [0, 1], got {mode_overlap}")
    axis = np.asarray(delays, dtype=np.float64)
    # _rates forms the phases k dw tau with |k dw| below twice the grid's span.
    reach = float(np.max(np.abs(axis), initial=0.0))
    if not math.isfinite(reach * 2.0 * (grid.omega_max - grid.omega_min)):
        raise ValueError("delays must be finite and give finite phases on the grid")
    return axis


def coincidence_probability(
    state: TwoPhotonState, delay: float = 0.0, *, mode_overlap: float = 1.0
) -> float:
    """Probability of one photon in each output path.

    For perfect mode overlap this is the norm of the two coincidence
    channels (n_k = ||F_k||^2), from three quadratures, the norms of the
    state and the overlap of ``apply_path1_delay(state, delay)``:

        P_cc = (1/4) integral |F1(delay) - F2(delay)|^2
             = (n1 + n2)/4 - (1/2) Re <F1(delay), F2(delay)>

    ``mode_overlap`` in [0, 1] multiplies only the interference cross
    term; it models imperfect spatial overlap at the beamsplitter, which
    damps the peak or dip without moving the background.
    """
    _checked_delays([delay], mode_overlap, state.grid)
    delayed = apply_path1_delay(state, delay)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        total = norm_squared(state.f_h1v2) + norm_squared(state.f_v1h2)
        cross = inner_product(delayed.f_h1v2, delayed.f_v1h2)
    return float(_coincidence(total, cross, mode_overlap))


def _coincidence(total, cross, mode_overlap: float):
    """P_cc = total/4 - (1/2) mode_overlap Re cross, total = n1 + n2 and cross
    = <F1, F2> of the delayed pair, clamped to [0, 1] against double-precision
    residue; a result that is not finite is refused."""
    rate = 0.25 * total - 0.5 * mode_overlap * np.real(cross)
    if not np.all(np.isfinite(rate)):
        raise ValueError("coincidence probability is not finite: w_i w_j |F|^2 overflows")
    return np.clip(rate, 0.0, 1.0)


def _rates(state: TwoPhotonState, delays: np.ndarray, mode_overlap: float) -> np.ndarray:
    # the cross spectrum c_k of ``spectra``, phased at each delay and summed.
    # m = k + N - 1 = a B + b with B = ceil(sqrt(2N - 1)), so e^{i k dw tau} is an outer
    # phase (columns :A) times an inner one (A:), each tau times an exact integer multiple
    # of dw.  einsum, not BLAS or a broadcast product (128 KiB buffer), keeps each delay's
    # sums independent of K and the memory at the K x (A + B) table.
    c = spectra(state)
    m = c.size
    width = math.isqrt(m - 1) + 1
    height = -(-m // width)
    table = np.pad(c, (0, height * width - m)).reshape(height, width)
    index = np.concatenate([np.arange(height) * width - m // 2, np.arange(width)])
    phases = np.einsum("j,i->ji", 1j * delays, index * state.grid.step + 0j)
    np.exp(phases, out=phases)
    partial = np.einsum("ja,ab->jb", phases[:, :height], table)
    cross = np.einsum("jb,jb->j", partial, phases[:, height:])
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused by _coincidence
        total = norm_squared(state.f_h1v2) + norm_squared(state.f_v1h2)
    return _coincidence(total, cross, mode_overlap)


def coherence_time(state: TwoPhotonState) -> float:
    """RMS coherence time of the two-photon interference feature.

    The delay enters the coincidence rate only through v = w_V - w_H, so
    the feature width is the inverse RMS spread of v under the intensity
    (|f_h1v2|^2 + |f_v1h2|^2)/2, from the ``core.intensity_moments`` of the
    two amplitudes: of a built state twelve 1D convolutions, no N^2 pass.
    A variance within the rounding of the second moment counts as zero.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        moments = intensity_moments(state.f_h1v2) + intensity_moments(state.f_v1h2)
    if not np.all(np.isfinite(moments)):
        raise ValueError("state spectra are not finite: w_i w_j |F|^2 overflows")
    total, first, second, rounding = map(float, moments)
    if total <= 0.0:
        raise ValueError("state has zero norm, coherence time undefined")
    mean = first / total
    var = second / total - mean * mean
    if var <= 16.0 * np.finfo(float).eps * rounding / total:
        raise ValueError("frequency-difference spread is zero, coherence time undefined")
    return 1.0 / math.sqrt(var)


@dataclass(frozen=True, eq=False)
class DelayScanCurve:
    """Coincidence rate versus path-1 delay with extracted summary numbers.

    background is the mean rate over the outer 10% of the delay axis,
    extremum the sampled rate farthest from that background, and
    visibility = |extremum - background| / background.  A flat curve, all
    samples within FLAT_VISIBILITY * background of the background, takes
    the sample closest to zero delay (the earlier on a tie) as extremum.
    """

    delays: np.ndarray
    rates: np.ndarray
    background: float
    extremum: float
    extremum_delay: float
    visibility: float

    def __post_init__(self) -> None:
        self.delays.setflags(write=False)
        self.rates.setflags(write=False)

    @property
    def samples(self) -> list[tuple[float, float]]:
        return [(float(d), float(r)) for d, r in zip(self.delays, self.rates)]


def delay_scan(state: TwoPhotonState, delays, *, mode_overlap: float = 1.0) -> DelayScanCurve:
    """Scan the path-1 delay and extract background, extremum, visibility.

    The delay list must reach at least 10 coherence times on each side of
    zero so that the outer 10% of samples measure the incoherent
    background; otherwise the scan is rejected.  Samples are evaluated in
    ascending delay order.

    A path-1 delay tau multiplies conj(F1) F2 by e^{i (w_V - w_H) tau}, so
    with c_k of ``core.spectra``, n_k = ||F_k||^2 and dw the grid step,

        P_cc(tau) = (n1 + n2)/4 - (1/2) mode_overlap Re sum_k c_k e^{i k dw tau}

    The span is checked first, from ``coherence_time``; then one spectra
    pass gives every rate, and the K rates add O(K sqrt(N)) exponentials,
    K (2N - 1) multiply-adds, O(K sqrt(N)) memory.  Each rate is
    ``coincidence_probability``'s closed form at that delay, with the
    cross quadrature summed in another order.
    """
    axis = _checked_delays(delays, mode_overlap, state.grid)
    if axis.ndim != 1 or axis.size < 2:
        raise ValueError("delays must be a 1D sequence with at least 2 entries")
    span_needed = 10.0 * coherence_time(state)
    if axis.min() > -span_needed or axis.max() < span_needed:
        raise ValueError(
            "delay span must reach +-10 coherence times "
            f"(+-{span_needed:.3e} s); got [{axis.min():.3e}, {axis.max():.3e}] s"
        )
    axis = np.sort(axis)
    rates = _rates(state, axis, mode_overlap)
    n_edge = max(1, int(round(0.05 * axis.size)))
    background = float(np.mean(np.concatenate([rates[:n_edge], rates[-n_edge:]])))
    if background <= 0.0:
        raise ValueError("scan background is zero, visibility undefined")
    deviation = np.abs(rates - background)
    flat = deviation.max() < FLAT_VISIBILITY * background
    idx = int(np.argmin(np.abs(axis)) if flat else np.argmax(deviation))
    extremum = float(rates[idx])
    return DelayScanCurve(
        delays=axis,
        rates=rates,
        background=background,
        extremum=extremum,
        extremum_delay=float(axis[idx]),
        visibility=abs(extremum - background) / background,
    )


@dataclass(frozen=True, eq=False)
class FeynmanDecomposition:
    """The four two-photon detection alternatives behind the beamsplitter.

    psi_1 and psi_2 are the both-transmitted and both-reflected amplitudes
    from the f_h1v2 emission term; psi_3 and psi_4 the same from f_v1h2.
    psi_1 and psi_4 feed the (H in 4, V in 3) coincidence channel and sum
    to its amplitude a_43; psi_2 and psi_3 feed (H in 3, V in 4) and sum
    to a_34.  overlap_14 and overlap_23 are the normalized overlap
    magnitudes |<psi_a, psi_b>| / (|psi_a| |psi_b|) of each interfering
    pair: 1 means the alternatives are fully indistinguishable and
    interfere completely, 0 means they merely add probabilities.  Since
    psi_2 = -psi_1 and psi_3 = -psi_4 exactly, the two are one number.
    """

    psi_1: JointAmplitude
    psi_2: JointAmplitude
    psi_3: JointAmplitude
    psi_4: JointAmplitude
    overlap_14: float
    overlap_23: float


def feynman_decomposition(state: TwoPhotonState) -> FeynmanDecomposition:
    """Split the coincidence amplitudes into their emission alternatives.

    Transmission routes 1 -> 4 and 2 -> 3 (amplitude 1/sqrt(2) each);
    reflection routes 1 -> 3 and 2 -> 4 (amplitude i/sqrt(2), so the
    double reflection carries i^2 = -1):

        psi_1 = +c F1   (both transmitted,  H4 V3)
        psi_2 = -c F1   (both reflected,    H3 V4)
        psi_3 = +c F2   (both transmitted,  H3 V4)
        psi_4 = -c F2   (both reflected,    H4 V3)

    with c = 1/(2 sqrt(2)) and F1, F2 the input amplitudes (delay path 1
    with ``apply_path1_delay`` first).  The channels of ``bs_transform`` are
    built from the same c F1 and c F2, so each equals the sum of its
    alternatives bit for bit.
    """
    t1, t2 = (_OUTPUT_PREFACTOR * f.values for f in (state.f_h1v2, state.f_v1h2))
    grid = state.grid
    psi_1 = JointAmplitude(grid, t1)
    psi_4 = JointAmplitude(grid, -t2)
    n1, n4 = norm_squared(psi_1), norm_squared(psi_4)
    overlap = 0.0
    if n1 > 0.0 and n4 > 0.0:
        overlap = abs(inner_product(psi_1, psi_4)) / math.sqrt(n1 * n4)
    return FeynmanDecomposition(
        psi_1=psi_1,
        psi_2=JointAmplitude(grid, -t1),
        psi_3=JointAmplitude(grid, t2),
        psi_4=psi_4,
        overlap_14=overlap,
        overlap_23=overlap,
    )
