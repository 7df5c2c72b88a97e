"""Workload definitions: which CLI commands a benchmark round issues.

A round issues every configuration of the workload once (the five
bundled presets plus three seeded type-II variants) in an order the seed
shuffles, so every round has the same mix of command costs and a run of
whole rounds has stable medians and tails.  Every command passes its
grid size, and where it has one its bin count and mode overlap, as
explicit flags: a later change of a CLI default cannot change the work.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

PRESETS = (
    "bell_ideal",
    "two_color_path",
    "two_color_polarization",
    "uncompensated_dip",
    "uncompensated_peak",
)

VARIANTS_PER_ROUND = 3

#: Grid points per axis and oracle bins per workload.  16 N^2 bytes is
#: the computed size of one complex128 amplitude: 1 MiB at N = 256 fits
#: a 2 MiB per-core L2, 4 MiB at N = 512 does not.
GRID_POINTS = {"scan": 256, "classify": 512, "oracle": 256}
ORACLE_BINS = 32

#: The uncompensated_peak preset written out in full, so a later edit of
#: the bundled preset cannot change the variants.  The seed redraws only
#: the walk-off, the phase and the arm-2 delay, within the ranges the
#: presets already use.
_TYPE2_BASE = {
    "description": "seeded type-II variant",
    "source": {
        "type": "type2_ultrafast",
        "pump_center_wavelength_nm": 390.0,
        "pump_duration_fs": 120.0,
        "sigma_h_rad_per_s": 6.0e13,
        "sigma_v_rad_per_s": 3.0e13,
        "walkoff_fs": 400.0,
        "phase_rad": math.pi,
        "extra_group_delay_arm2_fs": 0.0,
        "filter": {"center_wavelength_nm": 780.0, "fwhm_nm": 20.0, "shape": "gaussian"},
    },
    "grid": {"center_wavelength_nm": 780.0, "half_width_rad_per_s": 3.6e14, "n_points": 256},
    "scan": {"delay_min_fs": -500.0, "delay_max_fs": 500.0, "n_delays": 201},
    "analysis": {
        "chsh_angles_rad": [0.0, math.pi / 4.0, math.pi / 8.0, 3.0 * math.pi / 8.0],
        "classification_threshold": 1e-3,
        "mode_overlap_epsilon": 1.0,
    },
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  preset is None for a seeded variant."""

    kind: str
    argv: tuple[str, ...]
    preset: str | None
    out: Path | None = None

    @property
    def reference_key(self) -> str:
        return f"{self.kind}:{self.preset}"


def draw_variant(rng: random.Random) -> dict:
    config = json.loads(json.dumps(_TYPE2_BASE))
    source = config["source"]
    source["walkoff_fs"] = rng.uniform(0.0, 400.0)
    source["phase_rad"] = rng.choice((0.0, math.pi))
    source["extra_group_delay_arm2_fs"] = rng.uniform(0.0, 30.0)
    return config


def command(kind: str, config: str, preset: str | None, out_dir: Path, tag: str) -> Command:
    """The argv for one command; config is a preset name or a file path."""
    if kind == "scan":
        out = out_dir / f"scan-{tag}.csv"
        argv = ("scan", "--config", config, "--grid-points", str(GRID_POINTS["scan"]),
                "--epsilon", "1.0", "--out", str(out))
        return Command(kind, argv, preset, out)
    if kind in ("classify", "chsh"):
        argv = (kind, "--config", config, "--grid-points", str(GRID_POINTS["classify"]))
        return Command(kind, argv, preset)
    if kind == "oracle-check":
        argv = (kind, "--config", config, "--grid-points", str(GRID_POINTS["oracle"]),
                "--bins", str(ORACLE_BINS))
        return Command(kind, argv, preset)
    raise ValueError(f"unknown command kind {kind!r}")


def make_round(workload: str, rng: random.Random, out_dir: Path, round_index: int) -> list[Command]:
    """Write this round's variant configs and return its shuffled commands."""
    configs: list[tuple[str, str | None]] = [(name, name) for name in PRESETS]
    for v in range(VARIANTS_PER_ROUND):
        path = out_dir / f"variant-r{round_index}-{v}.json"
        path.write_text(json.dumps(draw_variant(rng), indent=2), encoding="utf-8")
        configs.append((str(path), None))
    tag = f"r{round_index}"
    if workload == "classify":
        # classify and chsh alternate; each config gets both per round.
        first, second = rng.sample(configs, len(configs)), rng.sample(configs, len(configs))
        commands = []
        for i, ((c1, p1), (c2, p2)) in enumerate(zip(first, second)):
            commands.append(command("classify", c1, p1, out_dir, f"{tag}-{i}a"))
            commands.append(command("chsh", c2, p2, out_dir, f"{tag}-{i}b"))
        return commands
    kind = {"scan": "scan", "oracle": "oracle-check"}[workload]
    shuffled = rng.sample(configs, len(configs))
    return [command(kind, c, p, out_dir, f"{tag}-{i}") for i, (c, p) in enumerate(shuffled)]


def preset_commands(out_dir: Path) -> list[Command]:
    """Every preset command any workload issues, for recording references."""
    kinds = ("scan", "classify", "chsh", "oracle-check")
    return [command(k, p, p, out_dir, f"{k}-{p}") for k in kinds for p in PRESETS]
