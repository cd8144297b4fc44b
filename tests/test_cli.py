import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import igc
from igc import cli
from igc.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_steepness_default(capsys):
    code, out = run_cli(capsys, ["steepness", "--a", "0.5"])
    assert code == 0
    record = json.loads(out)
    assert record["schema_version"] == 1
    assert record["pass"] is True
    assert record["values"]["edge_value"] == pytest.approx(0.8037381, abs=1e-5)
    rows = {row["alpha"]: row for row in record["values"]["rows"]}
    assert rows[1.1]["divergent"] is True


def test_steepness_tolerance_failure(capsys):
    code, out = run_cli(capsys, ["steepness", "--a", "0.5", "--tol", "1e-30"])
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_orlicz_profile_csv(capsys):
    code, out = run_cli(capsys, ["--format", "csv", "orlicz", "profile", "--a", "0.5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "alpha,value,divergent"
    assert lines[1].startswith("0.0,0.0,")
    assert lines[-1].startswith("{")  # JSON record follows the table


def test_chart_div_pyth(capsys):
    for cmd in ("chart", "div", "pyth"):
        code, out = run_cli(capsys, ["--seed", "7", cmd, "--n", "8"])
        record = json.loads(out)
        assert code == 0, cmd
        assert record["pass"] is True
        assert len(record["inputs_hash"]) == 64


def test_transport(capsys):
    code, out = run_cli(
        capsys, ["transport", "--trials", "25", "--max-size", "32"]
    )
    record = json.loads(out)
    assert code == 0
    assert record["values"]["n_trials"] == 25
    assert record["values"]["max_defect"] <= 1e-12


def test_flow_geodesic_with_csv(tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    code, out = run_cli(
        capsys,
        ["flow", "geodesic", "--n", "6", "--T", "0.5", "--seed", "2", "--out", str(out_path)],
    )
    record = json.loads(out)
    assert code == 0
    assert record["values"]["max_gap"] <= 1e-6
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("time,v000,")
    assert len(lines) == 2 + int(round(0.5 / 1e-3))


def test_flow_heat(capsys):
    code, out = run_cli(capsys, ["flow", "heat", "--nodes", "32", "--T", "0.02"])
    record = json.loads(out)
    assert code == 0
    assert record["values"]["final_objective"] is None
    assert record["values"]["max_gap"] <= 1e-4
    assert record["values"]["mass_drift"] <= 1e-12


def test_flow_opt(capsys):
    code, out = run_cli(capsys, ["flow", "opt", "--n-sites", "6", "--iters", "200", "--seed", "3"])
    record = json.loads(out)
    assert code == 0
    assert record["values"]["max_gap"] <= 0.01


def test_deformed_subcommands(capsys):
    for argv in (
        ["deformed", "arc", "--family", "tsallis", "--param", "0.6", "--steps", "5"],
        ["deformed", "arc", "--family", "classical"],
        ["deformed", "norm", "--family", "kaniadakis", "--param", "0.4"],
        ["deformed", "cumulant", "--family", "classical"],
        ["deformed", "cumulant", "--family", "newton"],
    ):
        code, out = run_cli(capsys, argv)
        assert code == 0, argv
        assert json.loads(out)["pass"] is True


def test_deformed_cumulant_tsallis_patch_stays_positive(capsys):
    # the shrink loop must keep u - k + log_q p inside the domain for every k in [0, max u]
    argv = ["deformed", "cumulant", "--family", "tsallis", "--param", "0.5", "--n", "16", "--seed", "7"]
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["flow", "heat", "--dt", "1"],
        ["deformed", "cumulant", "--family", "tsallis", "--param", "2"],
        ["transport", "--max-size", "1"],
        ["flow", "opt", "--iters", "-1"],
        ["flow", "geodesic", "--dt", "inf"],
        ["flow", "geodesic", "--dt", "nan"],
        ["flow", "geodesic", "--T", "1e12", "--dt", "1e-3"],
        ["flow", "heat", "--dt", "nan"],
        ["orlicz", "profile", "--alphas", "nan"],
        ["steepness", "--alphas", "1,nan"],
        ["steepness", "--alphas", ","],
        ["orlicz", "profile", "--alphas", ","],
        ["orlicz", "profile", "--a", "nan"],
        ["steepness", "--a", "inf"],
        ["transport", "--trials", "0"],
        ["deformed", "arc", "--steps", "1"],
        ["chart", "--tol", "nan"],
        ["div", "--tol", "inf"],
        ["pyth", "--tol", "-1"],
        ["orlicz", "profile", "--tol", "nan"],
    ],
)
def test_invalid_input_exit_code(capsys, argv):
    code, out = run_cli(capsys, argv)
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert set(record) == {"schema_version", "command", "error", "pass"}
    assert record["schema_version"] == 1 and record["command"] == argv[0]
    assert record["error"] and record["pass"] is False


def test_invalid_tol_writes_no_table(capsys, tmp_path):
    out = tmp_path / "profile.csv"
    code, _ = run_cli(capsys, ["steepness", "--tol", "-1", "--out", str(out)])
    assert code == 2 and not out.exists()


@pytest.mark.parametrize("command", [["orlicz", "profile"], ["steepness"]])
def test_profile_at_large_a(capsys, command):
    # at theta*a = 1e16 the scaled-erfc difference for C(theta, a) cancels to 0.0
    code, out = run_cli(capsys, command + ["--a", "1e16"])
    assert code == 0
    rows = json.loads(out)["values"]["rows"]
    assert all(math.isfinite(row["value"]) for row in rows if not row["divergent"])
    assert [row["alpha"] for row in rows if row["divergent"]] == [1.1]


def test_record_never_holds_a_bare_nan(capsys, monkeypatch):
    monkeypatch.setattr(cli, "cmd_chart", lambda args, rng: ({}, {"value": math.nan}, True))
    with pytest.raises(ValueError):
        main(["chart"])
    assert capsys.readouterr().out == ""


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["div", "--n", "10"],
        ["orlicz", "profile", "--format", "csv"],
        ["steepness"],
        ["chart", "--n", "10"],
        ["pyth", "--n", "10"],
        ["transport", "--trials", "5", "--max-size", "16"],
        ["flow", "geodesic", "--n", "6", "--T", "0.05", "--dt", "0.01", "--format", "csv"],
        ["flow", "heat", "--nodes", "16", "--T", "0.005"],
        ["flow", "opt", "--n-sites", "4", "--iters", "10"],
        ["deformed", "arc", "--steps", "3", "--format", "csv"],
        ["deformed", "norm"],
        ["deformed", "cumulant", "--family", "kaniadakis", "--param", "0.3"],
    ],
    ids=lambda argv: "-".join(a for a in argv[:2] if not a.startswith("-")),
)
def test_byte_identical_reruns(capsys, argv):
    _, first = run_cli(capsys, ["--seed", "11"] + argv)
    _, second = run_cli(capsys, ["--seed", "11"] + argv)
    assert first == second
    _, third = run_cli(capsys, ["--seed", "12"] + argv)
    assert third != first  # the seed is in every record


def test_global_flags_before_or_after_the_subcommand(capsys, tmp_path):
    out_path = tmp_path / "traj.csv"
    flags = ["--seed", "5", "--tol", "1e-3", "--out", str(out_path), "--format", "csv"]
    argv = ["flow", "geodesic", "--n", "4", "--T", "0.05"]
    _, before = run_cli(capsys, flags + argv)
    table = out_path.read_text()
    _, after = run_cli(capsys, argv + flags)
    assert after == before and out_path.read_text() == table
    assert json.loads(before)["seed"] == 5
    _, defaults = run_cli(capsys, ["chart"])
    assert json.loads(defaults)["seed"] == 0


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


PROFILE_RUNS = (
    "import contextlib, io, json\n"
    "from igc.cli import main\n"
    "runs = []\n"
    "for argv in (['orlicz', 'profile', '--a', '0.5'], ['steepness', '--a', '0.5']):\n"
    "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
    "        runs.append([main(argv), json.loads(out.getvalue())['pass']])\n"
)


def run_fresh_interpreter(code):
    src = str(Path(igc.__file__).resolve().parents[1])
    argv = [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n" + code]
    return json.loads(subprocess.run(argv, capture_output=True, text=True, check=True).stdout)


def test_import_cli_leaves_scipy_unloaded():
    # nor does running the two profile commands: their half-line integral is pure math
    loaded = "print(json.dumps([runs, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))"
    assert run_fresh_interpreter(PROFILE_RUNS + loaded) == [[[0, True], [0, True]], []]


def test_profile_commands_pass_with_scipy_unimportable():
    block = "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
    assert run_fresh_interpreter(block + PROFILE_RUNS + "print(json.dumps(runs))") == [[0, True], [0, True]]


def test_chart_and_flow_opt_leave_numpy_ma_unloaded():
    # Measure checks distinct points by sorting: np.unique would import numpy.ma (16-20 ms) in every command
    runs = (
        "import contextlib, io, json\n"
        "from igc.cli import main\n"
        "codes = []\n"
        "for argv in (['chart', '--n', '8'], ['flow', 'opt', '--n-sites', '8', '--gamma', '0.5', '--iters', '20']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "print(json.dumps([codes, 'numpy.ma' in sys.modules]))\n"
    )
    assert run_fresh_interpreter(runs) == [[0, 0], False]
