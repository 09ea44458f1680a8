"""Command-line behavior: subcommands, precedence rules, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from epimob import (
    build_grid,
    exact_meeting_probability,
    expected_new_infections_bound,
    parse_config,
    preset_emerging,
    preset_industrialized,
    serialize_config,
)
from epimob import harness
from epimob.cli import OUT_DIR_ENV, cli_main
from epimob.rng import ReplicateStreams


@pytest.fixture(autouse=True)
def clean_out_dir_env(monkeypatch):
    monkeypatch.delenv(OUT_DIR_ENV, raising=False)


def test_preset_output_round_trips(capsys):
    assert cli_main(["preset", "emerging", "--n", "10000"]) == 0
    out = capsys.readouterr().out
    assert parse_config(out) == preset_emerging(10_000)

    assert cli_main(["preset", "industrialized", "--n", "100000"]) == 0
    out = capsys.readouterr().out
    assert parse_config(out) == preset_industrialized(100_000)


def test_preset_rejects_small_population(capsys):
    assert cli_main(["preset", "emerging", "--n", "50"]) == 2
    assert "config error:" in capsys.readouterr().err


def test_run_reports_outcome_lines(capsys):
    code = cli_main(
        ["run", "--n", "300", "--tau", "2", "--initial-infected", "5",
         "--seed", "3", "--replications", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "replications=2" in out.splitlines()[0]
    assert any(line.startswith("extinction_time mean=") for line in out.splitlines())
    assert any(line.startswith("survivor_fraction mean=") for line in out.splitlines())
    assert any(line.startswith("ever_infected mean=") for line in out.splitlines())


def test_run_requires_a_population(capsys):
    assert cli_main(["run"]) == 2
    assert "n is required" in capsys.readouterr().err


def test_run_rejects_bad_flag_values(capsys):
    assert cli_main(["run", "--n", "300", "--alpha", "1.0"]) == 2
    assert "alpha" in capsys.readouterr().err


def test_run_writes_files_and_echoes_destination(tmp_path, capsys):
    dest = tmp_path / "out"
    code = cli_main(
        ["run", "--n", "300", "--tau", "2", "--seed", "5", "--out-dir", str(dest)]
    )
    assert code == 0
    assert f"wrote {dest}" in capsys.readouterr().out
    names = {p.name for p in dest.iterdir()}
    assert {"trace_0000.csv", "summary.csv", "manifest.json"} <= names


def test_run_refuses_nul_in_out_dir(tmp_path, capsys):
    cfg = tmp_path / "nul.cfg"
    cfg.write_text("n=300\nout_dir=a\0b\n")
    assert cli_main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error: line 2: out_dir" in err and "NUL" in err


def test_unusable_out_dir_fails_before_any_replicate(tmp_path, capsys, monkeypatch):
    (tmp_path / "afile").write_text("")
    calls = []
    monkeypatch.setattr(harness, "run_replicate", lambda *args: calls.append(args))
    code = cli_main(["run", "--n", "300", "--out-dir", str(tmp_path / "afile" / "sub")])
    assert code == 3
    assert "io error:" in capsys.readouterr().err
    assert calls == []


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("n=300\ntau=1\nseed=4\n")
    dest = tmp_path / "out"
    code = cli_main(
        ["run", "--config", str(cfg), "--tau", "4", "--out-dir", str(dest)]
    )
    assert code == 0
    capsys.readouterr()
    manifest = json.loads((dest / "manifest.json").read_text())
    assert "tau=4" in manifest["config_text"].splitlines()
    assert "seed=4" in manifest["config_text"].splitlines()  # untouched file key


def test_cli_triggers_replace_file_triggers(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("n=300\ntau=2\ntrigger=time:5->tau=1\n")
    dest = tmp_path / "out"
    code = cli_main(
        ["run", "--config", str(cfg), "--trigger", "time:7->tau=1",
         "--out-dir", str(dest)]
    )
    assert code == 0
    capsys.readouterr()
    text = json.loads((dest / "manifest.json").read_text())["config_text"]
    assert "trigger=time:7->tau=1" in text
    assert "time:5" not in text


def test_out_dir_env_var_and_flag_precedence(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "from_env"
    flag_dir = tmp_path / "from_flag"
    monkeypatch.setenv(OUT_DIR_ENV, str(env_dir))

    assert cli_main(["run", "--n", "300", "--tau", "2", "--seed", "1"]) == 0
    capsys.readouterr()
    assert (env_dir / "summary.csv").exists()

    code = cli_main(
        ["run", "--n", "300", "--tau", "2", "--seed", "1", "--out-dir", str(flag_dir)]
    )
    assert code == 0
    capsys.readouterr()
    assert (flag_dir / "summary.csv").exists()
    assert not (env_dir / "trace_0001.csv").exists()  # env dir untouched by 2nd run


def test_python_dash_m_runs_the_cli():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "epimob", "preset", "emerging", "--n", "1000"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == serialize_config(preset_emerging(1000))


def test_log_cells_flag_lands_in_manifest(tmp_path, capsys):
    dest = tmp_path / "out"
    code = cli_main(
        ["run", "--n", "300", "--tau", "2", "--log-cells", "--out-dir", str(dest)]
    )
    assert code == 0
    capsys.readouterr()
    text = json.loads((dest / "manifest.json").read_text())["config_text"]
    assert "log_cells=true" in text.splitlines()


def _oracle_rows(out):
    lines = out.strip().splitlines()
    assert lines[0] == "quantity,value"
    return dict(line.split(",", 1) for line in lines[1:])


def test_oracle_matches_library_quantities(capsys):
    assert cli_main(["oracle", "--n", "500", "--seed", "11"]) == 0
    rows = _oracle_rows(capsys.readouterr().out)

    config = parse_config("n=500\nseed=11\n")
    grid = build_grid(config.params, ReplicateStreams.from_seed(11, 0).grid)
    assert int(rows["num_cells"]) == 500
    assert int(rows["max_attractiveness"]) == grid.max_attractiveness
    assert float(rows["meeting_probability"]) == exact_meeting_probability(grid)


def test_oracle_expectation_bound(capsys):
    code = cli_main(
        ["oracle", "--n", "500", "--seed", "11", "--i-count", "2", "--u-count", "3"]
    )
    assert code == 0
    rows = _oracle_rows(capsys.readouterr().out)
    config = parse_config("n=500\nseed=11\n")
    grid = build_grid(config.params, ReplicateStreams.from_seed(11, 0).grid)
    assert float(rows["expected_new_infections_bound"]) == pytest.approx(
        expected_new_infections_bound(grid, 2, 3)
    )


def test_oracle_cell_probs_sum_to_one(capsys):
    assert cli_main(["oracle", "--n", "200", "--cell-probs"]) == 0
    rows = _oracle_rows(capsys.readouterr().out)
    probs = [float(v) for k, v in rows.items() if k.startswith("cell_prob_")]
    assert len(probs) == 200
    assert sum(probs) == pytest.approx(1.0, abs=1e-9)


def test_oracle_requires_paired_counts(capsys):
    assert cli_main(["oracle", "--n", "200", "--i-count", "2"]) == 2
    assert "config error:" in capsys.readouterr().err


def test_validate_accepts_good_config(tmp_path, capsys):
    cfg = tmp_path / "good.cfg"
    cfg.write_text("n=1000\nalpha=3.0\ntrigger=time:5->tau=1\n")
    assert cli_main(["validate", str(cfg)]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_reports_line_numbers(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n=1000\nalpha=1.0\n")
    assert cli_main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "line 2" in err


def test_validate_missing_file_is_an_io_error(tmp_path, capsys):
    assert cli_main(["validate", str(tmp_path / "nope.cfg")]) == 3
    assert "io error:" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert cli_main(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert cli_main(["--help"]) == 0
    assert "run" in capsys.readouterr().out
