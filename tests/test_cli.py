"""Command-line interface: config validation, outputs, determinism, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import biphoton
from biphoton import (
    InvariantError,
    JointAmplitude,
    TwoPhotonState,
    apply_path1_delay,
    coherence_time,
    discretize,
)
from biphoton.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    ConfigError,
    list_presets,
    load_config,
    main,
    parse_config,
)
from biphoton.core import reductions

PRESET_NAMES = {
    "bell_ideal",
    "two_color_path",
    "two_color_polarization",
    "uncompensated_dip",
    "uncompensated_peak",
}

NUMBER_RE = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$")

#: A two_color source block without its required ``case``.
_TWO_COLOR_WITHOUT_CASE = {
    "type": "two_color",
    "red_offset_rad_per_s": -1.2e14,
    "blue_offset_rad_per_s": 1.2e14,
    "bandwidth_rad_per_s": 2.0e13,
}


def _valid_config() -> dict:
    return {
        "description": "pulsed pair with walk-off and a 20 nm filter",
        "source": {
            "type": "type2_ultrafast",
            "pump_center_wavelength_nm": 390.0,
            "pump_duration_fs": 120.0,
            "sigma_h_rad_per_s": 6.0e13,
            "sigma_v_rad_per_s": 3.0e13,
            "walkoff_fs": 400.0,
            "phase_rad": math.pi,
            "extra_group_delay_arm2_fs": 0.0,
            "filter": {
                "center_wavelength_nm": 780.0,
                "fwhm_nm": 20.0,
                "shape": "gaussian",
            },
        },
        "grid": {
            "center_wavelength_nm": 780.0,
            "half_width_rad_per_s": 3.6e14,
            "n_points": 128,
        },
        "scan": {"delay_min_fs": -500.0, "delay_max_fs": 500.0, "n_delays": 101},
        "analysis": {
            "chsh_angles_rad": [0.0, math.pi / 4.0, math.pi / 8.0, 3.0 * math.pi / 8.0],
            "classification_threshold": 1e-3,
            "mode_overlap_epsilon": 1.0,
        },
    }


def _write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


def test_bundled_presets_are_complete():
    entries = list_presets()
    assert {name for name, _ in entries} == PRESET_NAMES
    # every preset parses and carries a description
    for name, description in entries:
        assert description
        load_config(name)


def test_load_config_resolves_names_and_paths(tmp_path):
    by_name = load_config("uncompensated_peak")
    by_json_name = load_config("uncompensated_peak.json")
    assert by_name == by_json_name
    from_file = load_config(_write_config(tmp_path, _valid_config()))
    assert from_file.grid_points == 128

    with pytest.raises(ConfigError, match="presets"):
        load_config("no_such_preset")
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(bad))


def _preset_bytes(name: str) -> bytes:
    return resources.files("biphoton").joinpath("presets", f"{name}.json").read_bytes()


def _walkoff_of_5001_digits() -> bytes:
    raw = json.loads(_preset_bytes("uncompensated_peak"))
    raw["source"]["walkoff_fs"] = "WALKOFF"
    return json.dumps(raw).replace('"WALKOFF"', "1" + "0" * 5000).encode()


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(lambda: b"[" * 200_000, id="nesting-past-the-recursion-limit"),
        pytest.param(_walkoff_of_5001_digits, id="integer-past-the-digit-limit"),
        pytest.param(lambda: b"\xff" + _preset_bytes("bell_ideal"), id="not-utf-8"),
    ],
)
def test_a_config_that_does_not_decode_is_a_config_error_naming_the_file(tmp_path, content):
    path = tmp_path / "broken.json"
    path.write_bytes(content())
    done = _cli_run(["classify", "--config", str(path)], "1", tmp_path)
    assert done.returncode == EXIT_CONFIG
    assert done.stdout == b""
    err = done.stderr.decode()
    assert err.startswith("config error: ") and str(path) in err
    assert "Traceback" not in err and err.count("\n") == 1


def test_parse_config_converts_units():
    config = parse_config(_valid_config())
    source = config.source
    assert source["t_v"] == pytest.approx(400e-15, rel=1e-12)
    assert source["pump_duration_fwhm"] == pytest.approx(120e-15, rel=1e-12)
    assert source["pump_center_wavelength"] == pytest.approx(390e-9, rel=1e-12)
    assert source["filter"]["fwhm"] == pytest.approx(20e-9, rel=1e-12)
    assert config.grid_center == pytest.approx(
        2.0 * math.pi * 299_792_458.0 / 780e-9, rel=1e-12
    )
    assert config.scan.delay_min == pytest.approx(-500e-15, rel=1e-12)
    assert config.analysis.mode_overlap_epsilon == 1.0


def test_parse_config_defaults_for_optional_analysis_block():
    raw = _valid_config()
    del raw["analysis"]
    config = parse_config(raw)
    assert config.analysis.classification_threshold == 1e-3
    assert config.analysis.mode_overlap_epsilon == 1.0
    assert config.analysis.chsh_angles[1] == pytest.approx(math.pi / 4.0)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda r: r.pop("grid"), "missing block grid"),
        (lambda r: r["grid"].pop("n_points"), "grid.n_points"),
        (lambda r: r["source"].update(extra=1), "unknown key source.extra"),
        (
            lambda r: r["source"]["filter"].update(fwhm=3),
            "unknown key source.filter.fwhm",
        ),
        (lambda r: r["source"].update(type="laser"), "source.type"),
        (
            lambda r: r["source"].update(pump_duration_fs=-5),
            "source.pump_duration_fs must be positive",
        ),
        (lambda r: r["grid"].update(n_points=1), "grid.n_points must be at least 2"),
        (lambda r: r["grid"].update(n_points=2.5), "grid.n_points must be an integer"),
        (
            lambda r: r["scan"].update(delay_min_fs=900.0),
            "scan.delay_min_fs must be below",
        ),
        (
            lambda r: r["analysis"].update(chsh_angles_rad=[0.0, 1.0, 2.0]),
            "list of 4 numbers",
        ),
        (
            lambda r: r["analysis"].update(chsh_angles_rad=[0.0, 1.0, 2.0, True]),
            "list of 4 numbers",
        ),
        (
            lambda r: r["analysis"].update(chsh_angles_rad=[math.nan, 0.0, 0.0, 0.0]),
            "analysis.chsh_angles_rad must be finite, got nan",
        ),
        (
            lambda r: r["analysis"].update(chsh_angles_rad=[0.0, 0.0, 0.0, math.inf]),
            "analysis.chsh_angles_rad must be finite, got inf",
        ),
        (
            lambda r: r["analysis"].update(mode_overlap_epsilon=1.5),
            "mode_overlap_epsilon",
        ),
        (
            lambda r: r["analysis"].update(classification_threshold=0.0),
            "classification_threshold must be positive",
        ),
        (lambda r: r["source"].update(walkoff_fs="fast"), "must be a number"),
        # integers beyond float range
        (lambda r: r["source"].update(walkoff_fs=10**400), "source.walkoff_fs must be finite"),
        (
            lambda r: r["analysis"].update(chsh_angles_rad=[0.0, -(10**400), 0.0, 0.0]),
            "analysis.chsh_angles_rad must be finite, got -1000",
        ),
        # counts numpy cannot index
        (lambda r: r["scan"].update(n_delays=2**63), "scan.n_delays must be at most"),
        (lambda r: r["grid"].update(n_points=10**400), "grid.n_points must be at most"),
        # json.loads accepts NaN and Infinity
        (lambda r: r["source"].update(walkoff_fs=math.nan), "walkoff_fs must be finite"),
        (
            lambda r: r["source"]["filter"].update(shape="lorentzian"),
            "source.filter.shape must be 'gaussian' or 'tophat'",
        ),
        (
            lambda r: r["analysis"].update(mode_overlap_epsilon=-0.1),
            "mode_overlap_epsilon must be nonnegative",
        ),
        (lambda r: r.update(grid=[1, 2]), "grid must be an object"),
        (lambda r: r.update(source="type2_ultrafast"), "source must be an object"),
        (lambda r: r.update(extra=1), "unknown key <root>.extra"),
        (lambda r: r.update(description=3), "description must be a string"),
        (lambda r: r.update(source=dict(_TWO_COLOR_WITHOUT_CASE)), "missing key source.case"),
        (
            lambda r: r.update(source={**_TWO_COLOR_WITHOUT_CASE, "case": None}),
            "source.case must be 'i' or 'ii', got None",
        ),
    ],
)
def test_parse_config_rejects_bad_input(mutate, message):
    raw = _valid_config()
    mutate(raw)
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(raw)
    with pytest.raises(ConfigError, match="configuration root must be an object"):
        parse_config([raw])


def test_parse_config_defaults_a_missing_filter_shape():
    raw = _valid_config()
    del raw["source"]["filter"]["shape"]
    assert parse_config(raw).source["filter"]["shape"] == "gaussian"


def test_scan_writes_csv_and_report(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = main(["scan", "--config", "uncompensated_peak", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "delay_s,normalized_rate"
    assert len(lines) == 1 + 201
    for line in lines[1:]:
        delay_text, rate_text = line.split(",")
        assert NUMBER_RE.match(delay_text), delay_text
        assert NUMBER_RE.match(rate_text), rate_text

    report = json.loads((tmp_path / "curve.report.json").read_text(encoding="utf-8"))
    assert list(report) == sorted(report)
    assert report["visibility"] == pytest.approx(1.0, abs=2e-3)
    assert report["background"] == pytest.approx(0.5, abs=1e-2)
    assert report["n_samples"] == 201
    # report floats survive the declared 12-significant-digit rounding
    for key, value in report.items():
        if isinstance(value, float):
            assert float(f"{value:.11e}") == value

    shown = capsys.readouterr().out
    for prefix in ("csv = ", "report = ", "background = ", "visibility = ",
                   "extremum_delay_s = "):
        assert prefix in shown


def test_scan_is_deterministic(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["scan", "--config", "uncompensated_dip", "--out", str(out_a)]) == EXIT_OK
    assert main(["scan", "--config", "uncompensated_dip", "--out", str(out_b)]) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()
    assert (tmp_path / "a.report.json").read_bytes() == (
        tmp_path / "b.report.json"
    ).read_bytes()


def _fresh_env(threads: str) -> dict[str, str]:
    """This environment with the tested package on the path and BLAS on ``threads`` threads."""
    src = str(Path(biphoton.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_cli_outputs(workdir: Path, threads: str) -> dict[str, bytes]:
    # stdout names the --out paths, so every run writes the same relative ones
    env = _fresh_env(threads)
    workdir.mkdir()
    outputs = {}
    for command in ("classify", "chsh", "scan"):
        argv = [sys.executable, "-m", "biphoton.cli", command, "--config",
                "uncompensated_peak", "--grid-points", "1024"]
        out = "scan.csv" if command == "scan" else f"{command}.json"
        done = subprocess.run(argv + ["--out", out], cwd=workdir, env=env,
                              capture_output=True, timeout=300, check=True)
        outputs[f"{command} stdout"] = done.stdout
    for path in sorted(workdir.iterdir()):
        outputs[path.name] = path.read_bytes()
    return outputs


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # N = 1024 gives the scan's pass 8-row blocks of 8192 entries, the largest
    # the blocked passes use; a larger block would let OpenBLAS split its dot
    # products
    one = _run_cli_outputs(tmp_path / "threads-1", "1")
    two = _run_cli_outputs(tmp_path / "threads-2", "2")
    assert sorted(one) == [
        "chsh stdout", "chsh.json", "classify stdout", "classify.json",
        "scan stdout", "scan.csv", "scan.report.json",
    ]
    for name, content in one.items():
        assert content == two[name], name


@pytest.mark.parametrize("command", ["classify", "chsh"])
def test_factored_outputs_do_not_depend_on_the_blas_thread_count_at_large_n(tmp_path, command):
    # at N = 8192 the 2N - 1 = 16383-entry sums of the factored reductions
    # would cross OpenBLAS's 10000-entry threading cutoff in one dot product
    for preset in ("uncompensated_dip", "bell_ideal"):
        argv = [command, "--config", preset, "--grid-points", "8192"]
        assert _cli_stdout(argv, "1", tmp_path) == _cli_stdout(argv, "2", tmp_path), preset


def test_factored_reductions_do_not_depend_on_the_blas_thread_count_at_large_n(tmp_path):
    # the printed 12 digits hide a last-bit difference; the reductions themselves
    # show one sum over all 16383 entries, which OpenBLAS splits across threads
    code = (
        "import dataclasses; from biphoton.cli import load_config; from biphoton.core import reductions\n"
        "for preset in ('uncompensated_dip', 'bell_ideal'):\n"
        "    print(dataclasses.astuple(reductions(load_config(preset).build_state(8192))))\n"
    )
    one, two = (
        subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_fresh_env(threads),
                       capture_output=True, timeout=300, check=True).stdout
        for threads in ("1", "2")
    )
    assert one == two


def _printed_numbers(stdout: bytes) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in stdout.decode().splitlines())


@pytest.mark.parametrize(
    "command, preset",
    [("classify", "uncompensated_peak"), ("classify", "bell_ideal"), ("chsh", "bell_ideal")],
)
def test_classify_and_chsh_on_a_huge_grid_end_promptly_with_the_converged_outputs(
    tmp_path, command, preset
):
    # two million points: the N x N amplitudes would take 64 TB, and O(N^2)
    # sums would take hours; the factored route sums by FFT from 1024 points
    argv = [command, "--config", preset, "--grid-points", "2000000"]
    huge = _cli_run(argv, "1", tmp_path, timeout=30)
    assert huge.returncode == EXIT_OK, huge.stderr
    reference = _printed_numbers(_cli_stdout(argv[:-1] + ["1024"], "1", tmp_path))
    got = _printed_numbers(huge.stdout)
    assert sorted(got) == sorted(reference)
    for key, value in reference.items():
        if key in ("label", "angles_rad"):
            assert got[key] == value
        else:
            assert abs(float(got[key]) - float(value)) <= 1e-9, key


@pytest.mark.parametrize(
    "argv", [["presets"], ["classify", "--config", "bell_ideal"], ["chsh", "--config", "bell_ideal"]]
)
def test_a_closed_stdout_exits_1_without_a_config_error(argv):
    process = subprocess.Popen([sys.executable, "-m", "biphoton.cli", *argv], env=_fresh_env("1"),
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    process.stdout.close()  # the reader goes away before the command prints
    stderr = process.stderr.read()
    process.stderr.close()
    assert process.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert stderr == b""


def _cli_run(argv, threads: str, cwd: Path, timeout: float = 300) -> subprocess.CompletedProcess:
    """``python -m biphoton.cli *argv`` in a fresh process."""
    return subprocess.run([sys.executable, "-m", "biphoton.cli", *argv], cwd=cwd,
                          env=_fresh_env(threads), capture_output=True, timeout=timeout)


def _cli_stdout(argv, threads: str, cwd: Path) -> bytes:
    """stdout of ``python -m biphoton.cli *argv`` in a fresh process."""
    done = _cli_run(argv, threads, cwd)
    done.check_returncode()
    return done.stdout


@pytest.mark.parametrize("n_points", ["256", "1024"])
def test_oracle_check_does_not_depend_on_the_blas_thread_count(tmp_path, n_points):
    # At K = 32 the 4K x 4K pair matrix has 16384 entries, past OpenBLAS's
    # 10000-entry threading cutoff for a dot product; at N = 1024 the bin
    # projection's gemm is threaded as well.
    for k_bins in ("8", "32"):
        argv = ["oracle-check", "--config", "uncompensated_peak", "--grid-points", n_points,
                "--bins", k_bins]
        assert _cli_stdout(argv, "1", tmp_path) == _cli_stdout(argv, "2", tmp_path), k_bins


def test_commands_in_one_process_print_what_fresh_processes_print(tmp_path, capsys):
    # The argparse parser is built once per process; an option given to one
    # command must not leak into the next.
    import biphoton.cli as cli_module

    assert cli_module._build_parser() is cli_module._build_parser()
    out = str(tmp_path / "rate.csv")
    sequence = [
        ["scan", "--config", "uncompensated_peak", "--out", out, "--epsilon", "0.5"],
        ["scan", "--config", "uncompensated_peak", "--out", out],
        ["oracle-check", "--config", "bell_ideal", "--bins", "3"],
        ["oracle-check", "--config", "bell_ideal"],
    ]
    for argv in sequence:
        assert main(argv) == EXIT_OK
        in_process = capsys.readouterr().out
        assert in_process.encode() == _cli_stdout(argv, "1", tmp_path), argv


def test_scan_dip_locates_the_configured_arm_offset(tmp_path):
    out = tmp_path / "dip.csv"
    assert main(["scan", "--config", "uncompensated_dip", "--out", str(out)]) == EXIT_OK
    report = json.loads((tmp_path / "dip.report.json").read_text(encoding="utf-8"))
    # the dip preset carries a 30 fs arm-2 delay; the scan grid step is 5 fs
    assert report["extremum_delay_s"] == pytest.approx(30e-15, abs=2.5e-15)
    assert report["extremum"] == pytest.approx(0.0, abs=1e-6)


def test_scan_epsilon_override_sets_the_visibility(tmp_path):
    out = tmp_path / "eps.csv"
    code = main(
        ["scan", "--config", "uncompensated_peak", "--out", str(out), "--epsilon", "0.91"]
    )
    assert code == EXIT_OK
    report = json.loads((tmp_path / "eps.report.json").read_text(encoding="utf-8"))
    assert report["visibility"] == pytest.approx(0.91, abs=5e-3)
    assert report["mode_overlap_epsilon"] == 0.91

    bad = main(
        ["scan", "--config", "uncompensated_peak", "--out", str(out), "--epsilon", "1.5"]
    )
    assert bad == EXIT_CONFIG


def test_classify_output_lines(capsys):
    expected_labels = {
        "uncompensated_peak": "AS-only",
        "uncompensated_dip": "Neither",
        "bell_ideal": "Both",
        "two_color_polarization": "AS-only",
        "two_color_path": "Bell-only",
    }
    for preset, label in expected_labels.items():
        assert main(["classify", "--config", preset]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        keys = [line.split(" = ")[0] for line in lines]
        assert keys == [
            "label",
            "as_residual",
            "bell_residual",
            "coincidence_at_zero_delay",
            "chsh_value",
            "basis45_visibility",
            "threshold",
        ]
        assert lines[0] == f"label = {label}"


def test_classify_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["classify", "--config", "two_color_path", "--out", str(out)])
    assert code == EXIT_OK
    capsys.readouterr()
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["label"] == "Bell-only"
    assert report["coincidence_at_zero_delay"] == pytest.approx(0.5, abs=1e-6)
    assert report["chsh_value"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)


def test_chsh_verb(tmp_path, capsys):
    assert main(["chsh", "--config", "bell_ideal"]) == EXIT_OK
    out_text = capsys.readouterr().out
    assert "chsh_value = 2.82842712475e+00" in out_text

    assert main(["chsh", "--config", "uncompensated_peak"]) == EXIT_OK
    assert "chsh_value = 1.41421356237e+00" in capsys.readouterr().out

    out = tmp_path / "chsh.json"
    assert main(["chsh", "--config", "bell_ideal", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["chsh_value"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)
    assert len(report["angles_rad"]) == 4


def test_oracle_check_passes_on_every_preset(capsys):
    for preset in sorted(PRESET_NAMES):
        code = main(["oracle-check", "--config", preset])
        out_text = capsys.readouterr().out
        assert code == EXIT_OK, out_text
        assert "result = PASS" in out_text
        assert "k_bins = 8" in out_text


def test_oracle_check_makes_no_spectra_pass(capsys, monkeypatch):
    # its checked delays need tau_c, which the intensity moments give
    import biphoton.beamsplitter as beamsplitter_module
    import biphoton.core as core_module

    argv = ["oracle-check", "--config", "uncompensated_peak", "--bins", "32"]
    assert main(argv) == EXIT_OK
    expected = capsys.readouterr().out

    def refused(*_):
        raise AssertionError("spectra pass")

    for module in (beamsplitter_module, core_module):
        monkeypatch.setattr(module, "spectra", refused)
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == expected


def test_oracle_check_bins_flag(capsys):
    assert main(["oracle-check", "--config", "bell_ideal", "--bins", "3"]) == EXIT_OK
    assert "k_bins = 3" in capsys.readouterr().out
    assert main(["oracle-check", "--config", "bell_ideal", "--bins", "1"]) == EXIT_CONFIG
    assert main(["oracle-check", "--config", "bell_ideal", "--bins", "40"]) == EXIT_CONFIG


def test_oracle_check_refuses_out(tmp_path, capsys):
    # oracle-check writes no report, so an --out path would be silently ignored
    path = tmp_path / "oracle.json"
    with pytest.raises(SystemExit) as excinfo:
        main(["oracle-check", "--config", "bell_ideal", "--out", str(path)])
    assert excinfo.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("verb", ["scan", "classify", "chsh"])
def test_unwritable_out_path_is_a_config_error_that_prints_nothing(tmp_path, capsys, verb):
    missing = tmp_path / "missing" / "out.json"
    # a path in a directory that does not exist, and the empty path (".")
    for out, named in ((str(missing), str(missing)), ("", "'.'")):
        code = main([verb, "--config", "bell_ideal", "--out", out])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err.startswith("config error: ") and named in captured.err


def test_oracle_check_reports_invariant_failure(monkeypatch, capsys):
    import biphoton.cli as cli_module

    real = cli_module.outcome_probabilities

    def corrupted(basis):
        probs = real(basis)
        probs["coincidence"] += 1e-3
        return probs

    monkeypatch.setattr(cli_module, "outcome_probabilities", corrupted)
    code = main(["oracle-check", "--config", "uncompensated_peak"])
    out_text = capsys.readouterr().out
    assert code == EXIT_INVARIANT
    assert "result = FAIL" in out_text


def test_oracle_check_checks_the_library_coincidence_probability(monkeypatch, capsys):
    # a sign error in the one closed form of P_cc must fail the oracle
    import biphoton.beamsplitter as beamsplitter_module

    real = beamsplitter_module._coincidence

    def flipped(total, cross, mode_overlap):
        return real(total, -cross, mode_overlap)

    monkeypatch.setattr(beamsplitter_module, "_coincidence", flipped)
    code = main(["oracle-check", "--config", "uncompensated_peak"])
    assert code == EXIT_INVARIANT
    assert "result = FAIL" in capsys.readouterr().out


def test_config_errors_exit_2_with_diagnostics(tmp_path, capsys):
    raw = _valid_config()
    del raw["grid"]["center_wavelength_nm"]
    code = main(["classify", "--config", _write_config(tmp_path, raw)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "config error: missing key grid.center_wavelength_nm" in err

    code = main(["classify", "--config", "no_such_preset"])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "no such config file or preset" in err


def test_library_preconditions_surface_as_config_errors(tmp_path, capsys):
    # a scan window too short for the state's coherence time is rejected
    raw = _valid_config()
    raw["scan"] = {"delay_min_fs": -20.0, "delay_max_fs": 20.0, "n_delays": 11}
    code = main(
        ["scan", "--config", _write_config(tmp_path, raw), "--out", str(tmp_path / "x.csv")]
    )
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "10 coherence times" in err

    # a grid that truncates the envelope is rejected at build time
    raw = _valid_config()
    raw["grid"]["half_width_rad_per_s"] = 1.0e14
    code = main(["classify", "--config", _write_config(tmp_path, raw)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "grid too narrow" in err

    # two-color separation precondition
    raw = _valid_config()
    raw["source"] = {
        "type": "two_color",
        "case": "i",
        "red_offset_rad_per_s": -5.0e13,
        "blue_offset_rad_per_s": 5.0e13,
        "bandwidth_rad_per_s": 2.0e13,
    }
    code = main(["classify", "--config", _write_config(tmp_path, raw)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "separation" in err


@pytest.mark.parametrize(
    "key, name", [("walkoff_fs", "t_v"), ("extra_group_delay_arm2_fs", "extra_group_delay_arm2")]
)
def test_a_delay_without_finite_phases_is_a_config_error_naming_it(tmp_path, capsys, key, name):
    preset = resources.files("biphoton").joinpath("presets", "uncompensated_peak.json")
    raw = json.loads(preset.read_text(encoding="utf-8"))
    raw["source"][key] = 1e308
    code = main(["classify", "--config", _write_config(tmp_path, raw)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert re.fullmatch(
        f"config error: {name} \\S+ s gives non-finite phases on the grid\n", captured.err
    )


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r["grid"].update(center_wavelength_nm=1e-292),
        lambda r: r["source"].update(pump_center_wavelength_nm=1e-292),
        # a FWHM below the center, so the center itself is converted
        lambda r: r["source"]["filter"].update(center_wavelength_nm=1e-292, fwhm_nm=1e-295),
    ],
    ids=["grid", "pump", "filter"],
)
def test_a_wavelength_without_a_finite_frequency_is_a_config_error_naming_it(
    tmp_path, capsys, mutate
):
    raw = _valid_config()
    mutate(raw)
    code = main(["classify", "--config", _write_config(tmp_path, raw)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert captured.err == (
        "config error: wavelength 1e-301 m gives a non-finite angular frequency\n"
    )


def test_grid_points_override(tmp_path, capsys):
    code = main(["classify", "--config", "uncompensated_peak", "--grid-points", "96"])
    assert code == EXIT_OK
    capsys.readouterr()
    code = main(["classify", "--config", "uncompensated_peak", "--grid-points", "1"])
    assert code == EXIT_CONFIG
    assert "--grid-points" in capsys.readouterr().err


def test_presets_verb(capsys):
    assert main(["presets"]) == EXIT_OK
    out_text = capsys.readouterr().out
    for name in PRESET_NAMES:
        assert name in out_text
    assert main(["presets", "list"]) == EXIT_OK
    capsys.readouterr()


def test_antisymmetric_source_rejects_a_grid_that_clips_the_envelope(tmp_path, capsys):
    # The same narrow grid the type2_ultrafast case above rejects.
    raw = _valid_config()
    raw["source"]["type"] = "antisymmetric"
    del raw["source"]["phase_rad"]
    del raw["source"]["extra_group_delay_arm2_fs"]
    raw["grid"]["half_width_rad_per_s"] = 1.0e14
    raw["grid"]["n_points"] = 256
    code = main(["classify", "--config", _write_config(tmp_path, raw)])
    assert code == EXIT_CONFIG
    assert "grid too narrow" in capsys.readouterr().err


@pytest.mark.parametrize("stype", [["type2_ultrafast"], {"name": "laser"}])
def test_source_type_must_be_a_known_name(tmp_path, capsys, stype):
    raw = _valid_config()
    raw["source"]["type"] = stype
    code = main(["classify", "--config", _write_config(tmp_path, raw)])
    assert code == EXIT_CONFIG
    assert "source.type must be one of" in capsys.readouterr().err


def _readme_schema_rows():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config schema", 1)[1].split("\n## ", 1)[0]
    return [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("|")
    ]


def test_readme_config_schema_lists_every_key_with_its_constraint():
    import biphoton.cli as cli_module

    tables = [cli_module._GRID, cli_module._SCAN, cli_module._ANALYSIS, cli_module._FILTER]
    tables += [record.table for record in cli_module._SOURCES.values()]
    words = {
        None: "finite",
        "positive": "positive",
        "fraction": "in [0, 1]",
        "count": "integer ≥ 2",
        "angles": "list of 4 numbers",
    }
    rows = _readme_schema_rows()
    for table in tables:
        for key, spec in table.items():
            if isinstance(spec.check, tuple):
                expected = " or ".join(f'`"{choice}"`' for choice in spec.check)
            elif isinstance(spec.check, dict):
                # a nested block: its own keys are listed from its own table
                expected = "see below"
            else:
                expected = words[spec.check]
            constraints = [row[row.index(f"`{key}`") + 2] for row in rows if f"`{key}`" in row]
            assert constraints, f"README config schema does not list {key}"
            assert any(cell.startswith(expected) for cell in constraints), (key, constraints)
    for stype in cli_module._SOURCES:
        assert any(f"`{stype}`" in row[0] for row in rows), stype


def test_oracle_check_prints_the_smallest_captured_norm_on_every_preset(capsys):
    for preset in sorted(PRESET_NAMES):
        assert main(["oracle-check", "--config", preset]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        keys = [line.partition(" = ")[0] for line in lines]
        assert keys.index("captured_norm") == keys.index("result") - 1, lines
        printed = lines[keys.index("captured_norm")].partition(" = ")[2]
        state = load_config(preset).build_state()
        tau_c = coherence_time(state)
        smallest = min(
            discretize(apply_path1_delay(state, delay), 8).captured_norm
            for delay in (0.0, 2.0 * tau_c, -5.0 * tau_c)
        )
        assert printed == f"{smallest:.3e}"


def _config_with_source(stype, **changes):
    raw = _valid_config()
    raw["source"]["type"] = stype
    if stype == "antisymmetric":
        del raw["source"]["phase_rad"]
        del raw["source"]["extra_group_delay_arm2_fs"]
    raw["source"].update(changes)
    raw["grid"]["n_points"] = 64
    return raw


@pytest.mark.parametrize("stype", ["type2_ultrafast", "antisymmetric"])
@pytest.mark.parametrize(
    "changes",
    [
        {"sigma_h_rad_per_s": 1e300},  # 4 sigma^2 overflows
        {"sigma_v_rad_per_s": 1e300},
        {"sigma_h_rad_per_s": 1e-200},  # 4 sigma^2 underflows to zero
        {"pump_duration_fs": 1e-300},  # pump bandwidth overflows
        {"pump_duration_fs": 1e300},
    ],
    ids=["sigma_h-huge", "sigma_v-huge", "sigma_h-tiny", "pump-tiny", "pump-huge"],
)
def test_source_widths_whose_square_is_not_finite_are_config_errors(
    tmp_path, capsys, stype, changes
):
    raw = _config_with_source(stype, **changes)
    code = main(["classify", "--config", _write_config(tmp_path, raw)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error:") and "out of range" in err, err


@pytest.mark.parametrize(
    "filter_block",
    [
        # a 20 nm FWHM about a 2.5 nm center: the linear conversion is void
        {"center_wavelength_nm": 2.5, "fwhm_nm": 20.0},
        # a passband reaching the grid from a center far outside it
        {"center_wavelength_nm": 1500.0, "fwhm_nm": 1000.0},
    ],
    ids=["fwhm-above-center", "center-off-grid"],
)
def test_filter_far_from_the_grid_is_a_config_error(tmp_path, capsys, filter_block):
    raw = _config_with_source("type2_ultrafast")
    raw["source"]["filter"] = filter_block
    code = main(["chsh", "--config", _write_config(tmp_path, raw)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG, captured.out
    assert captured.err.startswith("config error:") and "filter" in captured.err


def test_unnormalized_state_is_an_invariant_failure_not_a_config_error(monkeypatch, capsys):
    import biphoton.cli as cli_module

    real = cli_module._build_source

    def doubled(source, grid):
        state = real(source, grid)
        return TwoPhotonState(
            JointAmplitude(grid, 2.0 * state.f_h1v2.values),
            JointAmplitude(grid, 2.0 * state.f_v1h2.values),
        )

    monkeypatch.setattr(cli_module, "_build_source", doubled)
    code = main(["classify", "--config", "uncompensated_peak"])
    captured = capsys.readouterr()
    assert code == EXIT_INVARIANT
    assert captured.err.startswith("invariant failure: state is not normalized"), captured.err
    assert captured.out == ""


def test_an_allocation_failure_is_a_config_error(monkeypatch, capsys):
    import biphoton.cli as cli_module

    message = "Unable to allocate 233. TiB for an array with shape (4000000, 4000000)"

    def unallocatable(source, grid):
        raise MemoryError(message)

    monkeypatch.setattr(cli_module, "_build_source", unallocatable)
    code = main(["classify", "--config", "bell_ideal"])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


def test_invariant_error_is_a_value_error_raised_by_the_norm_check():
    state = parse_config(_config_with_source("type2_ultrafast")).build_state()
    tripled = TwoPhotonState(
        JointAmplitude(state.grid, 3.0 * state.f_h1v2.values), state.f_v1h2
    )
    with pytest.raises(InvariantError, match="not normalized"):
        reductions(tripled).require_normalized()
    assert issubclass(InvariantError, ValueError)


def _scan_exit(tmp_path, capsys, config, *extra):
    code = main(["scan", "--config", config, "--out", str(tmp_path / "curve.csv"), *extra])
    return code, capsys.readouterr()


def test_scan_past_the_alias_delay_is_a_config_error_naming_the_grid_size(tmp_path, capsys):
    # at 64 points the +-500 fs axis folds back onto the peak (pi/dw = 275 fs)
    code, captured = _scan_exit(tmp_path, capsys, "uncompensated_peak", "--grid-points", "64")
    assert code == EXIT_CONFIG
    assert captured.err.startswith("config error:") and "alias delay" in captured.err
    assert "at least 116 grid points" in captured.err
    assert not (tmp_path / "curve.csv").exists()


def test_scan_at_the_named_grid_size_resolves_the_peak(tmp_path, capsys):
    code, _ = _scan_exit(tmp_path, capsys, "uncompensated_peak", "--grid-points", "116")
    assert code == EXIT_OK
    report = json.loads((tmp_path / "curve.report.json").read_text(encoding="utf-8"))
    assert report["background"] == pytest.approx(0.5, abs=1e-4)
    assert report["visibility"] == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize(
    "reach_fs, half_width",
    # the grid count the last one needs overflows a double
    [(1e300, 3.6e14), (1.7e308, 3.6e14), (1e300, 1e300)],
)
def test_scan_with_an_astronomical_delay_is_a_config_error(
    tmp_path, capsys, reach_fs, half_width
):
    raw = _valid_config()
    raw["grid"]["half_width_rad_per_s"] = half_width
    raw["scan"] = {"delay_min_fs": -reach_fs, "delay_max_fs": reach_fs, "n_delays": 11}
    code, captured = _scan_exit(tmp_path, capsys, _write_config(tmp_path, raw))
    assert code == EXIT_CONFIG
    assert "alias delay" in captured.err, captured.err


#: Values each config key takes, one at a time, in the exit-code contract:
#: non-finite numbers, extreme numbers, and values of the wrong type.
_HOSTILE_VALUES = [
    math.nan, math.inf, -math.inf,
    10**400, 2**63, 1e300, -1e300, 1e-300, 0, -1,
    None, "text", [1.0, 2.0], True,
]
#: Count keys take only values numpy refuses before it allocates anything.
_HOSTILE_COUNTS = [2**63, 2**64, 10**400]


def _key_paths(block: dict, table: dict, path: tuple = ()):
    """(path, spec) of every key ``table`` reads from ``block``, nested blocks
    included where ``block`` holds them."""
    for key, spec in table.items():
        yield path + (key,), spec
        if isinstance(spec.check, dict) and isinstance(block.get(key), dict):
            yield from _key_paths(block[key], spec.check, path + (key,))


def _contract_cases(raw: dict):
    """(key path, value) pairs: each key of ``raw`` set to each hostile value."""
    import biphoton.cli as cli_module

    tables = {
        "grid": cli_module._GRID,
        "scan": cli_module._SCAN,
        "analysis": cli_module._ANALYSIS,
        "source": cli_module._SOURCES[raw["source"]["type"]].table,
    }
    for name, table in tables.items():
        for path, spec in _key_paths(raw.get(name, {}), table, (name,)):
            for value in _HOSTILE_COUNTS if spec.check == "count" else _HOSTILE_VALUES:
                yield path, value


def _contract_base(name: str) -> dict:
    if name == "antisymmetric":
        return _config_with_source("antisymmetric")  # no preset has this type
    preset = resources.files("biphoton").joinpath("presets", f"{name}.json")
    return json.loads(preset.read_text(encoding="utf-8"))


@pytest.mark.parametrize("base", sorted(PRESET_NAMES) + ["antisymmetric"])
def test_every_hostile_config_value_exits_0_2_or_3(tmp_path, capsys, base):
    """The exit-code contract over every key of the key tables: 0 with no
    NaN or inf printed, 2 with one ``config error:`` line and nothing on
    stdout, or 3."""
    failures = []
    raw = _contract_base(base)
    config_path = tmp_path / "config.json"
    for path, value in _contract_cases(raw):
        case = json.loads(json.dumps(raw))
        block = case
        for key in path[:-1]:
            block = block.setdefault(key, {})
        block[path[-1]] = value
        config_path.write_text(json.dumps(case), encoding="utf-8")
        for command in (
            ["scan", "--out", str(tmp_path / "curve.csv")],
            ["classify"],
            ["chsh"],
            ["oracle-check"],
        ):
            label = f"{'.'.join(path)}={str(value)[:12]} {command[0]}"
            try:
                code = main([*command, "--config", str(config_path), "--grid-points", "64"])
            except Exception as exc:  # an escape is exit 1 with a traceback
                capsys.readouterr()
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            out, err = capsys.readouterr()
            if code == EXIT_CONFIG:
                lines = err.splitlines()
                if len(lines) != 1 or not lines[0].startswith("config error:") or out:
                    failures.append(f"{label}: exit 2 with stdout {out!r}, stderr {err!r}")
            elif code == EXIT_OK:
                if re.search(r"\b(nan|inf)\b", out, re.IGNORECASE):
                    failures.append(f"{label}: exit 0 printed {out!r}")
            elif code != EXIT_INVARIANT:
                failures.append(f"{label}: exit {code}")
    assert not failures, "\n".join(failures)
