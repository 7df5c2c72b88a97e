"""Command-line front end: scans, classification, CHSH, and cross-checks.

Configurations are JSON files with four blocks (source, grid, scan,
analysis); every physical quantity carries its unit as a key suffix
(_nm, _fs, _rad, _rad_per_s) and unknown keys are rejected by full path.
Bundled configurations ship with the package and are addressed by name.
All outputs are deterministic: identical configuration, identical bytes.

Exit codes: 0 success, 1 stdout closed before the output was written (as
Python itself exits on EPIPE), 2 configuration error, 3 invariant failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .beamsplitter import coherence_time, delay_scan
from .core import (
    FrequencyGrid,
    InvariantError,
    TwoPhotonState,
    inner_product,
    norm_squared,
    wavelength_to_angular_frequency,
)
from .correlation import DEFAULT_CHSH_ANGLES, chsh
from .oracle import apply_bs_exact, discretize, outcome_probabilities, reconstruct
from .sources import (
    FILTER_SHAPES,
    TWO_COLOR_CASES,
    FilterParams,
    SpdcParams,
    build_bell_psi_minus,
    build_two_color,
    build_type2_ultrafast,
    gaussian_line,
)
from .symmetry import DEFAULT_CLASSIFICATION_THRESHOLD, classify

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_CONFIG = 2
EXIT_INVARIANT = 3

_FS = 1e-15
_NM = 1e-9

#: run_oracle_check rejects relative deviations above this.
ORACLE_DEVIATION_LIMIT = 1e-6
ORACLE_UNITARITY_LIMIT = 1e-12


class ConfigError(ValueError):
    """A configuration file could not be loaded or validated."""


@dataclass(frozen=True)
class _Key:
    """How one config key is read: the field it fills, the factor that
    converts it to SI, its constraint, and its default (None: required).

    Constraints: None (any finite number), "positive", "fraction" (a
    number in [0, 1]), "count" (an integer from 2 to numpy's largest
    index), "angles" (a list of 4 numbers), a tuple of the allowed
    strings, or the key table of an optional nested block: its field is
    the dict _read_block reads from the block, or None when it is absent.
    """

    field: str
    scale: float = 1.0
    check: str | tuple[str, ...] | None = None
    default: object = None


def _read_value(block: dict, path: str, key: str, spec: _Key):
    where = f"{path}.{key}"
    if key not in block:
        if spec.default is None and not isinstance(spec.check, dict):
            raise ConfigError(f"missing key {where}")
        return spec.default
    value = block[key]
    if isinstance(spec.check, dict):
        return _read_block(value, where, spec.check)
    if isinstance(spec.check, tuple):
        if value not in spec.check:
            allowed = " or ".join(repr(choice) for choice in spec.check)
            raise ConfigError(f"{where} must be {allowed}, got {value!r}")
        return value
    if spec.check == "angles":
        if (
            not isinstance(value, list)
            or len(value) != 4
            or any(isinstance(a, bool) or not isinstance(a, (int, float)) for a in value)
        ):
            raise ConfigError(f"{where} must be a list of 4 numbers")
        for a in value:
            if not abs(a) <= sys.float_info.max:  # NaN, inf, or an integer beyond float range
                raise ConfigError(f"{where} must be finite, got {a!r}")
        return tuple(float(a) for a in value)
    if spec.check == "count":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where} must be an integer, got {value!r}")
        if value < 2:
            raise ConfigError(f"{where} must be at least 2, got {value}")
        if value > np.iinfo(np.intp).max:
            raise ConfigError(f"{where} must be at most {np.iinfo(np.intp).max}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, inf, or an integer beyond float range
        raise ConfigError(f"{where} must be finite, got {value!r}")
    value = float(value)
    if spec.check == "positive" and value <= 0.0:
        raise ConfigError(f"{where} must be positive, got {value!r}")
    if spec.check == "fraction":
        if value < 0.0:
            raise ConfigError(f"{where} must be nonnegative, got {value!r}")
        if value > 1.0:
            raise ConfigError(f"{where} must lie in [0, 1]")
    return value * spec.scale


def _read_block(block, path: str, table: dict, extra=()) -> dict:
    """Fields of ``block`` read through ``table``, in the table's order.

    Keys outside the table and ``extra`` are rejected by full path.
    """
    if not isinstance(block, dict):
        raise ConfigError(f"{path} must be an object")
    for key in block:
        if key not in table and key not in extra:
            raise ConfigError(f"unknown key {path}.{key}")
    return {spec.field: _read_value(block, path, key, spec) for key, spec in table.items()}


_GRID = {
    "center_wavelength_nm": _Key("grid_center", _NM, "positive"),
    "half_width_rad_per_s": _Key("grid_half_width", check="positive"),
    "n_points": _Key("grid_points", check="count"),
}
_SCAN = {
    "delay_min_fs": _Key("delay_min", _FS),
    "delay_max_fs": _Key("delay_max", _FS),
    "n_delays": _Key("n_delays", check="count"),
}
_ANALYSIS = {
    "chsh_angles_rad": _Key("chsh_angles", check="angles", default=DEFAULT_CHSH_ANGLES),
    "classification_threshold": _Key(
        "classification_threshold", check="positive", default=DEFAULT_CLASSIFICATION_THRESHOLD
    ),
    "mode_overlap_epsilon": _Key("mode_overlap_epsilon", check="fraction", default=1.0),
}
_FILTER = {
    "shape": _Key("shape", check=tuple(FILTER_SHAPES), default="gaussian"),
    "center_wavelength_nm": _Key("center_wavelength", _NM, "positive"),
    "fwhm_nm": _Key("fwhm", _NM, "positive"),
}
_SPDC = {
    "pump_center_wavelength_nm": _Key("pump_center_wavelength", _NM, "positive"),
    "pump_duration_fs": _Key("pump_duration_fwhm", _FS, "positive"),
    "sigma_h_rad_per_s": _Key("sigma_h", check="positive"),
    "sigma_v_rad_per_s": _Key("sigma_v", check="positive"),
    "walkoff_fs": _Key("t_v", _FS),
    "filter": _Key("filter", check=_FILTER),
}
_TYPE2 = {
    **_SPDC,
    "phase_rad": _Key("phi"),
    "extra_group_delay_arm2_fs": _Key("extra_group_delay_arm2", _FS),
}
_BELL = {
    "center_offset1_rad_per_s": _Key("center_offset1"),
    "sigma1_rad_per_s": _Key("sigma1", check="positive"),
    "center_offset2_rad_per_s": _Key("center_offset2"),
    "sigma2_rad_per_s": _Key("sigma2", check="positive"),
}
_TWO_COLOR = {
    "case": _Key("case", check=TWO_COLOR_CASES),
    "red_offset_rad_per_s": _Key("red_offset"),
    "blue_offset_rad_per_s": _Key("blue_offset"),
    "bandwidth_rad_per_s": _Key("bandwidth", check="positive"),
}


@dataclass(frozen=True)
class _Source:
    """A source type: the key table of its block, and ``build(fields, grid)``."""

    table: dict
    build: Callable[[dict, FrequencyGrid], TwoPhotonState]


# The build steps call the library builders by this module's names, which
# benchmark/tracing.py rebinds, so a _Source must not hold a builder itself.
def _build_type2(fields: dict, grid: FrequencyGrid, antisymmetric: bool = False):
    params = {name: value for name, value in fields.items() if name != "filter"}
    filt = None if fields["filter"] is None else FilterParams(**fields["filter"])
    return build_type2_ultrafast(SpdcParams(**params), grid, filt, antisymmetric=antisymmetric)


def _build_bell(fields: dict, grid: FrequencyGrid):
    center = 0.5 * (grid.omega_min + grid.omega_max)
    g1 = gaussian_line(grid, center + fields["center_offset1"], fields["sigma1"])
    g2 = gaussian_line(grid, center + fields["center_offset2"], fields["sigma2"])
    return build_bell_psi_minus(g1, g2, grid)


def _build_two_color(fields: dict, grid: FrequencyGrid):
    center = 0.5 * (grid.omega_min + grid.omega_max)
    red, blue = center + fields["red_offset"], center + fields["blue_offset"]
    return build_two_color(fields["case"], red, blue, fields["bandwidth"], grid)


_SOURCES = {
    "type2_ultrafast": _Source(_TYPE2, _build_type2),
    "antisymmetric": _Source(_SPDC, functools.partial(_build_type2, antisymmetric=True)),
    "bell_psi_minus": _Source(_BELL, _build_bell),
    "two_color": _Source(_TWO_COLOR, _build_two_color),
}


@dataclass(frozen=True)
class ScanSettings:
    delay_min: float
    delay_max: float
    n_delays: int

    def delays(self) -> np.ndarray:
        return np.linspace(self.delay_min, self.delay_max, self.n_delays)


@dataclass(frozen=True)
class AnalysisSettings:
    chsh_angles: tuple[float, float, float, float]
    classification_threshold: float
    mode_overlap_epsilon: float


@dataclass(frozen=True)
class ExperimentConfig:
    """A configuration whose keys are validated and converted to SI.  The
    source's own constraints are checked by its builder, in build_state."""

    source: dict
    grid_center: float
    grid_half_width: float
    grid_points: int
    scan: ScanSettings
    analysis: AnalysisSettings

    def frequency_grid(self, n_points: int | None = None) -> FrequencyGrid:
        return FrequencyGrid.centered(
            self.grid_center, self.grid_half_width, n_points or self.grid_points
        )

    def build_state(self, n_points: int | None = None) -> TwoPhotonState:
        return _build_source(self.source, self.frequency_grid(n_points))


def _parse_source(block) -> dict:
    if not isinstance(block, dict):
        raise ConfigError("source must be an object")
    stype = block.get("type")
    if not isinstance(stype, str) or stype not in _SOURCES:
        raise ConfigError(f"source.type must be one of {sorted(_SOURCES)}, got {stype!r}")
    return {"type": stype, **_read_block(block, "source", _SOURCES[stype].table, extra=("type",))}


def _build_source(source: dict, grid: FrequencyGrid) -> TwoPhotonState:
    fields = dict(source)
    return _SOURCES[fields.pop("type")].build(fields, grid)


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be an object")
    for key in raw:
        if key not in ("description", "source", "grid", "scan", "analysis"):
            raise ConfigError(f"unknown key <root>.{key}")
    for required in ("source", "grid", "scan"):
        if required not in raw:
            raise ConfigError(f"missing block {required}")
    if not isinstance(raw.get("description", ""), str):
        raise ConfigError("description must be a string")
    grid = _read_block(raw["grid"], "grid", _GRID)
    grid["grid_center"] = wavelength_to_angular_frequency(grid["grid_center"])
    scan = ScanSettings(**_read_block(raw["scan"], "scan", _SCAN))
    if scan.delay_min >= scan.delay_max:
        low, high, _ = _SCAN
        raise ConfigError(f"scan.{low} must be below scan.{high}")
    return ExperimentConfig(
        source=_parse_source(raw["source"]),
        scan=scan,
        analysis=AnalysisSettings(
            **_read_block(raw.get("analysis", {}), "analysis", _ANALYSIS)
        ),
        **grid,
    )


def _preset_root():
    return resources.files("biphoton").joinpath("presets")


def list_presets() -> list[tuple[str, str]]:
    """Bundled configuration names with their one-line descriptions."""
    entries = []
    for item in _preset_root().iterdir():
        if item.name.endswith(".json"):
            raw = json.loads(item.read_text(encoding="utf-8"))
            entries.append((item.name[: -len(".json")], raw.get("description", "")))
    return sorted(entries)


def load_config(name_or_path: str) -> ExperimentConfig:
    """Load a configuration from a file path or a bundled preset name."""
    source = Path(name_or_path)
    if not source.is_file():
        source = _preset_root().joinpath(
            name_or_path if name_or_path.endswith(".json") else name_or_path + ".json"
        )
        if not source.is_file():
            known = ", ".join(name for name, _ in list_presets())
            raise ConfigError(
                f"no such config file or preset: {name_or_path!r} (presets: {known})"
            )
    try:
        raw = json.loads(source.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {name_or_path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{name_or_path!r} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from exc
    except RecursionError:
        raise ConfigError(f"invalid JSON in {name_or_path!r}: nested too deeply") from None
    except ValueError as exc:
        # int() refuses an integer literal past its digit limit (4300 by default)
        raise ConfigError(
            f"invalid JSON in {name_or_path!r}: an integer has too many digits"
        ) from exc
    return parse_config(raw)


def _fmt(x: float) -> str:
    # 12 significant digits, scientific notation.
    return f"{x:.11e}"


def _round_for_report(x: float) -> float:
    return float(_fmt(x))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def run_scan(config: ExperimentConfig, args: argparse.Namespace) -> int:
    epsilon = config.analysis.mode_overlap_epsilon if args.epsilon is None else args.epsilon
    # The config value is range-checked when it is read; only the flag can fail here.
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigError(f"--epsilon must lie in [0, 1], got {epsilon}")
    grid = config.frequency_grid(args.grid_points)
    reach = max(abs(config.scan.delay_min), abs(config.scan.delay_max))
    if reach > grid.alias_delay:
        # a float, so that an overflowing count prints as inf
        needed = np.ceil(1.0 + (grid.omega_max - grid.omega_min) * reach / math.pi)
        raise ConfigError(
            f"scan delays reach {reach:.3e} s, past the alias delay pi/dw = "
            f"{grid.alias_delay:.3e} s; use at least {needed:.0f} grid points"
        )
    state = config.build_state(args.grid_points)
    curve = delay_scan(state, config.scan.delays(), mode_overlap=epsilon)
    lines = ["delay_s,normalized_rate"]
    lines.extend(
        f"{_fmt(float(d))},{_fmt(float(r))}" for d, r in zip(curve.delays, curve.rates)
    )
    args.out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    report_path = args.out.with_suffix(".report.json")
    report = {
        "background": _round_for_report(curve.background),
        "visibility": _round_for_report(curve.visibility),
        "extremum": _round_for_report(curve.extremum),
        "extremum_delay_s": _round_for_report(curve.extremum_delay),
        "delay_min_s": _round_for_report(float(curve.delays[0])),
        "delay_max_s": _round_for_report(float(curve.delays[-1])),
        "n_samples": int(curve.delays.size),
        "mode_overlap_epsilon": _round_for_report(epsilon),
    }
    _write_json(report_path, report)
    print(f"csv = {args.out}")
    print(f"report = {report_path}")
    print(f"background = {_fmt(curve.background)}")
    print(f"visibility = {_fmt(curve.visibility)}")
    print(f"extremum_delay_s = {_fmt(curve.extremum_delay)}")
    return EXIT_OK


def run_classify(config: ExperimentConfig, args: argparse.Namespace) -> int:
    state = config.build_state(args.grid_points)
    threshold = config.analysis.classification_threshold
    report = classify(state, threshold=threshold, chsh_angles=config.analysis.chsh_angles)
    numbers = {
        "as_residual": report.as_residual,
        "bell_residual": report.bell_residual,
        "coincidence_at_zero_delay": report.coincidence_at_zero_delay,
        "chsh_value": report.chsh_value,
        "basis45_visibility": report.basis45_visibility,
        "threshold": threshold,
    }
    lines = [f"label = {report.label}"]
    lines.extend(f"{key} = {_fmt(value)}" for key, value in numbers.items())
    if args.out is not None:
        rounded = {key: _round_for_report(value) for key, value in numbers.items()}
        _write_json(args.out, {"label": report.label, **rounded})
        lines.append(f"report = {args.out}")
    print("\n".join(lines))
    return EXIT_OK


def run_chsh(config: ExperimentConfig, args: argparse.Namespace) -> int:
    state = config.build_state(args.grid_points)
    angles = config.analysis.chsh_angles
    s_value = chsh(state, angles)
    lines = [f"chsh_value = {_fmt(s_value)}", f"angles_rad = {','.join(_fmt(a) for a in angles)}"]
    if args.out is not None:
        rounded = [_round_for_report(a) for a in angles]
        _write_json(args.out, {"chsh_value": _round_for_report(s_value), "angles_rad": rounded})
        lines.append(f"report = {args.out}")
    print("\n".join(lines))
    return EXIT_OK


def _coincidence_at_zero_delay(state: TwoPhotonState) -> float:
    """P_cc(0) = (n1 + n2)/4 - (1/2) Re <F1, F2>: three quadratures."""
    f1, f2 = state.f_h1v2, state.f_v1h2
    return 0.25 * (norm_squared(f1) + norm_squared(f2)) - 0.5 * inner_product(f1, f2).real


def run_oracle_check(config: ExperimentConfig, args: argparse.Namespace) -> int:
    """Compare quadrature and discrete-mode coincidence probabilities.

    The configured state is projected onto ``--bins`` flat frequency bins,
    path 1 retarded by each checked delay: zero and two delays of order
    the coherence time, which takes the command's one ``StateSpectra``
    pass.  The discrete route sends each projection through the exact
    mode unitary; the quadrature route embeds it back on the grid and
    evaluates P_cc(0) = (n1 + n2)/4 - (1/2) Re <F1, F2> from three
    quadratures.  Each delay costs O(N^2) and builds no N x N temporary
    beyond the embedded state, which is freed before the next delay.  The
    smallest captured norm of the three projections is printed, so a
    check that only saw a small fraction of the state shows as such.
    """
    k_bins = args.bins
    if not 2 <= k_bins <= 32:
        raise ConfigError(f"--bins must lie in [2, 32], got {k_bins}")
    state = config.build_state(args.grid_points)
    grid = state.grid
    tau_c = coherence_time(state)
    max_deviation = 0.0
    max_unitarity_defect = 0.0
    min_captured_norm = math.inf
    for delay in (0.0, 2.0 * tau_c, -5.0 * tau_c):
        basis = discretize(state, k_bins, delay=delay)
        min_captured_norm = min(min_captured_norm, basis.captured_norm)
        transformed = apply_bs_exact(basis)
        max_unitarity_defect = max(
            max_unitarity_defect, abs(transformed.total_probability() - 1.0)
        )
        p_oracle = outcome_probabilities(transformed)["coincidence"]
        p_analytic = _coincidence_at_zero_delay(reconstruct(basis, grid))
        deviation = abs(p_oracle - p_analytic) / max(abs(p_oracle), abs(p_analytic), 1e-6)
        max_deviation = max(max_deviation, deviation)
    print(f"k_bins = {k_bins}")
    print(f"max_relative_deviation = {max_deviation:.3e}")
    print(f"unitarity_defect = {max_unitarity_defect:.3e}")
    print(f"captured_norm = {min_captured_norm:.3e}")
    ok = (
        max_deviation < ORACLE_DEVIATION_LIMIT
        and max_unitarity_defect < ORACLE_UNITARITY_LIMIT
    )
    print(f"result = {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_INVARIANT


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Two-photon beamsplitter interference simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="config file path or preset name")
        p.add_argument("--grid-points", type=int, default=None, help="override grid.n_points")

    p_scan = sub.add_parser("scan", help="coincidence rate vs path-1 delay, to CSV")
    add_common(p_scan)
    p_scan.add_argument("--out", type=Path, required=True, help="output CSV path")
    p_scan.add_argument(
        "--epsilon", type=float, default=None, help="override mode-overlap epsilon"
    )

    p_classify = sub.add_parser("classify", help="symmetry classification report")
    add_common(p_classify)
    p_classify.add_argument("--out", type=Path, help="optional JSON report path")

    p_chsh = sub.add_parser("chsh", help="CHSH S value at the configured angles")
    add_common(p_chsh)
    p_chsh.add_argument("--out", type=Path, help="optional JSON report path")

    p_oracle = sub.add_parser("oracle-check", help="discrete-mode cross-check")
    add_common(p_oracle)
    p_oracle.add_argument(
        "--bins", type=int, default=8, help="frequency bin count K in [2, 32]"
    )

    p_presets = sub.add_parser("presets", help="bundled configurations")
    p_presets.add_argument("action", nargs="?", default="list", choices=["list"])

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "presets":
            for name, description in list_presets():
                print(f"{name}: {description}" if description else name)
            code = EXIT_OK
        else:
            config = load_config(args.config)
            if args.grid_points is not None and args.grid_points < 2:
                raise ConfigError(f"--grid-points must be at least 2, got {args.grid_points}")
            # Looked up per call: benchmark/tracing.py rebinds the run_* names.
            runner = {
                "scan": run_scan,
                "classify": run_classify,
                "chsh": run_chsh,
                "oracle-check": run_oracle_check,
            }[args.command]
            code = runner(config, args)
        sys.stdout.flush()  # a closed stdout pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Python's documented EPIPE recipe: what is still buffered goes to
        # devnull, so the exit flush cannot fail again; no config error line
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except InvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (MemoryError, OSError, ValueError) as exc:
        # Library preconditions triggered by configuration values land here
        # too (grid too narrow, scan span too small, ...), as do unwritable --out
        # paths and grids too large to allocate.
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
