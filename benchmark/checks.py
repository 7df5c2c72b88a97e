"""Output checks: bundled presets against recorded references, seeded
variants against invariants that hold for every state.

A preset output matches its reference when every recorded key is present
and every number agrees within REL_TOL relative plus an absolute floor
(the CLI prints 12 significant digits; the tolerance admits a change in
the last three of them, which a reordered sum can cause, and nothing
larger).  The floor is ABS_TOL for dimensionless values and
SECONDS_ABS_TOL for delays: the whole delay axis is under 1e-12 s wide,
so a floor of 1e-12 would let any delay match any other.  Keys the
program adds later are ignored.  The oracle's deviation figures are
round-off residues of order 1e-15 and are checked against the CLI's own
limits, not against a recorded value.  A scan whose reference curve is
flat (visibility below FLAT_VISIBILITY) has no extremum: its
extremum_delay_s is wherever round-off peaks, so it is not compared.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12
#: 1e-9 of a femtosecond; delay steps are 5 fs.
SECONDS_ABS_TOL = 1e-24
FLAT_VISIBILITY = 1e-9

_SQRT8 = 2.0 * math.sqrt(2.0)
_LABELS = {(True, True): "Both", (True, False): "AS-only",
           (False, True): "Bell-only", (False, False): "Neither"}
#: Output lines that name files of one particular run.
_PATH_KEYS = {"csv", "report"}
_ORACLE_DEVIATION_LIMIT = 1e-6
_ORACLE_UNITARITY_LIMIT = 1e-12


def _value(text: str):
    parts = text.split(",")
    try:
        numbers = [float(p) for p in parts]
    except ValueError:
        return text
    return numbers if len(parts) > 1 else numbers[0]


def parse_stdout(text: str) -> dict:
    """The CLI's `key = value` lines as a dict of numbers and strings."""
    parsed = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep and key not in _PATH_KEYS:
            parsed[key.strip()] = _value(value.strip())
    return parsed


def parse_scan_files(csv_path: Path) -> dict:
    """The scan CSV columns and its JSON report."""
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "delay_s,normalized_rate":
        raise ValueError(f"unexpected CSV header in {csv_path.name}")
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    report = json.loads(csv_path.with_suffix(".report.json").read_text(encoding="utf-8"))
    return {
        "delays": [d for d, _ in rows],
        "rates": [r for _, r in rows],
        "report": report,
    }


def collect(command, stdout: str) -> dict:
    """Everything a command produced that the checks compare."""
    outputs = {"stdout": parse_stdout(stdout)}
    if command.out is not None:
        outputs["files"] = parse_scan_files(command.out)
    return outputs


def close(a: float, b: float, abs_tol: float = ABS_TOL) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + abs_tol


def _abs_tol(key: str, inherited: float) -> float:
    """The absolute floor for a field: delays and *_s fields are seconds."""
    return SECONDS_ABS_TOL if key == "delays" or key.endswith("_s") else inherited


def compare(expected, actual, where: str = "", abs_tol: float = ABS_TOL) -> list[str]:
    """Mismatches between a recorded reference and an actual output."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected an object"]
        problems = []
        for key, value in expected.items():
            if key not in actual:
                problems.append(f"{where}.{key}: missing")
            else:
                problems.extend(compare(value, actual[key], f"{where}.{key}",
                                        _abs_tol(key, abs_tol)))
        return problems
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: expected {len(expected)} entries"]
        for i, (e, a) in enumerate(zip(expected, actual)):
            problems = compare(e, a, f"{where}[{i}]", abs_tol)
            if problems:
                return problems
        return []
    if isinstance(expected, (int, float)) and not isinstance(expected, bool):
        if isinstance(actual, bool) or not isinstance(actual, (int, float)):
            return [f"{where}: expected a number, got {actual!r}"]
        return [] if close(float(expected), float(actual), abs_tol) else [
            f"{where}: {actual!r} differs from reference {expected!r}"]
    return [] if expected == actual else [f"{where}: {actual!r} != reference {expected!r}"]


def reference_view(kind: str, outputs: dict) -> dict:
    """The part of a command's outputs that is recorded as its reference."""
    view = dict(outputs)
    if kind == "oracle-check":
        stdout = dict(view["stdout"])
        stdout.pop("max_relative_deviation", None)
        stdout.pop("unitarity_defect", None)
        view["stdout"] = stdout
    return view


def _within(x, lo: float, hi: float) -> bool:
    """lo <= x <= hi, allowing for the 12-digit rounding of printed values."""
    return isinstance(x, float) and lo - ABS_TOL <= x <= hi * (1.0 + REL_TOL) + ABS_TOL


def _need(out: dict, *keys: str) -> list[str]:
    return [f"missing output {k}" for k in keys if not isinstance(out.get(k), float)]


def invariants(kind: str, outputs: dict) -> list[str]:
    """Violations of what must hold for the output of any valid state."""
    out = outputs["stdout"]
    if kind == "classify":
        missing = _need(out, "as_residual", "bell_residual", "coincidence_at_zero_delay",
                        "chsh_value", "basis45_visibility", "threshold")
        if missing:
            return missing
        problems = []
        r_as, r_bell = out["as_residual"], out["bell_residual"]
        p_cc = out["coincidence_at_zero_delay"]
        if not abs(r_as + p_cc - 1.0) <= 1e-9:
            problems.append(f"as_residual + coincidence = {r_as + p_cc!r}, not 1")
        for name, value, hi in (("as_residual", r_as, 1.0), ("bell_residual", r_bell, 2.0),
                                ("coincidence_at_zero_delay", p_cc, 1.0),
                                ("chsh_value", out["chsh_value"], _SQRT8),
                                ("basis45_visibility", out["basis45_visibility"], 1.0)):
            if not _within(value, 0.0, hi):
                problems.append(f"{name} = {value!r} outside [0, {hi}]")
        label = _LABELS[(r_as < out["threshold"], r_bell < out["threshold"])]
        if out.get("label") != label:
            problems.append(f"label {out.get('label')!r} disagrees with residuals ({label})")
        return problems
    if kind == "chsh":
        missing = _need(out, "chsh_value")
        if missing:
            return missing
        return [] if _within(out["chsh_value"], 0.0, _SQRT8) else [
            f"chsh_value = {out['chsh_value']!r} outside [0, 2 sqrt 2]"]
    if kind == "oracle-check":
        problems = [] if out.get("result") == "PASS" else [f"result = {out.get('result')!r}"]
        dev, unit = out.get("max_relative_deviation"), out.get("unitarity_defect")
        if not (isinstance(dev, float) and dev < _ORACLE_DEVIATION_LIMIT):
            problems.append(f"max_relative_deviation = {dev!r}")
        if not (isinstance(unit, float) and unit < _ORACLE_UNITARITY_LIMIT):
            problems.append(f"unitarity_defect = {unit!r}")
        return problems
    if kind == "scan":
        files = outputs["files"]
        delays, rates, report = files["delays"], files["rates"], files["report"]
        problems = [f"rate {r!r} outside [0, 1]" for r in rates if not _within(r, 0.0, 1.0)][:1]
        if report.get("n_samples") != len(rates) or len(rates) < 2:
            problems.append(f"{len(rates)} rows but report n_samples = {report.get('n_samples')!r}")
            return problems
        if any(b <= a for a, b in zip(delays, delays[1:])):
            problems.append("delays not ascending")
        if not close(out.get("background", math.nan), report.get("background", math.nan)):
            problems.append("printed background differs from the report")
        return problems
    raise ValueError(f"unknown command kind {kind!r}")


def check(command, outputs: dict, references: dict) -> list[str]:
    """All problems with one command's outputs; empty when it is correct."""
    problems = invariants(command.kind, outputs)
    if command.preset is not None:
        key = command.reference_key
        if key not in references:
            problems.append(f"no reference recorded for {key}")
        else:
            expected, actual = references[key], reference_view(command.kind, outputs)
            if command.kind == "scan" and expected["stdout"]["visibility"] < FLAT_VISIBILITY:
                expected, actual = _without_extremum_delay(expected), _without_extremum_delay(actual)
            problems.extend(compare(expected, actual, key))
    return problems


def _without_extremum_delay(outputs: dict) -> dict:
    """A scan's outputs without extremum_delay_s, for a flat curve."""
    stdout = {k: v for k, v in outputs["stdout"].items() if k != "extremum_delay_s"}
    files = dict(outputs["files"])
    files["report"] = {k: v for k, v in files["report"].items() if k != "extremum_delay_s"}
    return {**outputs, "stdout": stdout, "files": files}
