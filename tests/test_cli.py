"""Command-line behavior: subcommands, precedence rules, exit codes."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epimob import (
    build_grid,
    exact_meeting_probability,
    expected_new_infections_bound,
    parse_config,
    preset_emerging,
    preset_industrialized,
    serialize_config,
)
from epimob import cli, harness
from epimob.cli import CELL_PROBS_MAX_CELLS, OUT_DIR_ENV, cli_main
from epimob.errors import ConfigError
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


def test_empty_out_dir_is_a_config_error(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("n=300\nout_dir=\n")
    assert cli_main(["validate", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: line 2: out_dir must be a non-empty string")
    calls = []
    monkeypatch.setattr(harness, "run_replicate", lambda *args: calls.append(args))
    assert cli_main(["run", "--n", "300", "--out-dir", ""]) == 2
    assert capsys.readouterr().err.startswith("config error: out_dir must be a non-empty string")
    assert calls == []


def test_unusable_out_dir_fails_before_any_replicate(tmp_path, capsys, monkeypatch):
    (tmp_path / "afile").write_text("")
    calls = []
    monkeypatch.setattr(harness, "run_replicate", lambda *args: calls.append(args))
    code = cli_main(["run", "--n", "300", "--out-dir", str(tmp_path / "afile" / "sub")])
    assert code == 3
    assert "io error:" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_nonpositive_workers_fail_before_any_replicate(capsys, monkeypatch, workers):
    calls = []
    monkeypatch.setattr(harness, "run_replicate", lambda *args: calls.append(args))
    assert cli_main(["run", "--n", "1000", "--workers", workers]) == 2
    assert "workers must be a positive integer" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("workers", [0, -3, 2.5, True, "2"])
def test_workers_not_a_positive_int_fail_before_any_replicate(tmp_path, monkeypatch, workers):
    calls = []
    monkeypatch.setattr(harness, "run_replicate", lambda *args: calls.append(args))
    out_dir = tmp_path / "out"
    config = dataclasses.replace(preset_emerging(1000), out_dir=str(out_dir))
    with pytest.raises(ConfigError, match="^workers must be a positive integer$"):
        harness.run_replications(config, workers=workers)
    assert calls == []
    assert not out_dir.exists()


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


@pytest.mark.parametrize(
    "text, flags, merged",
    [
        # no n in the file
        ("seed=3\n", ["--n", "1000"], "n=1000\nseed=3\n"),
        # at the file's n the attractiveness support is empty
        ("n=50\nalpha=6\n", ["--n", "1000"], "n=1000\nalpha=6\n"),
        # the file's trigger, which --trigger replaces, reaches a grid of no cells
        ("n=300\ntrigger=time:1->kappa=0.0001\n", ["--trigger", "time:1->tau=2"],
         "n=300\ntrigger=time:1->tau=2\n"),
    ],
)
def test_flags_mend_a_config_file_invalid_on_its_own(tmp_path, capsys, text, flags, merged):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(text)
    assert cli_main(["validate", str(cfg)]) == 2  # validate checks the file alone
    capsys.readouterr()
    dest = tmp_path / "out"
    argv = ["run", "--config", str(cfg), *flags, "--replications", "2", "--out-dir", str(dest)]
    assert cli_main(argv) == 0
    capsys.readouterr()
    manifest = json.loads((dest / "manifest.json").read_text())
    expected = dataclasses.replace(parse_config(merged), replications=2, out_dir=str(dest))
    assert manifest["config_text"] == serialize_config(expected)


def test_a_file_value_that_fails_its_row_fails_at_its_line_under_any_flag(tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("n=300\nreplications=0\n")
    assert cli_main(["run", "--config", str(cfg), "--replications", "2"]) == 2
    assert capsys.readouterr().err.startswith("config error: line 2: replications must be")


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


def test_empty_out_dir_env_var_counts_as_unset(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(OUT_DIR_ENV, "")
    monkeypatch.chdir(tmp_path)
    assert cli_main(["run", "--n", "300", "--tau", "2"]) == 0
    assert "wrote" not in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_oracle_ignores_the_out_dir_env_var(capsys, monkeypatch):
    # only run writes files, so a value run would refuse leaves oracle alone
    argv = ["oracle", "--n", "500", "--seed", "11", "--i-count", "2", "--u-count", "3"]
    assert cli_main(argv) == 0
    plain = capsys.readouterr().out
    monkeypatch.setenv(OUT_DIR_ENV, "a#b")
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == plain
    assert cli_main(["run", "--n", "300"]) == 2
    assert "out_dir" in capsys.readouterr().err


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
    # from the CLI the flag only selects the per-node engine: the run writes
    # the files a default run writes, and no cell log
    args = ["run", "--n", "300", "--tau", "2", "--replications", "2"]
    assert cli_main([*args, "--out-dir", str(tmp_path / "default")]) == 0
    dest = tmp_path / "out"
    assert cli_main([*args, "--log-cells", "--out-dir", str(dest)]) == 0
    capsys.readouterr()
    manifest = json.loads((dest / "manifest.json").read_text())
    assert "log_cells=true" in manifest["config_text"].splitlines()
    assert manifest["engine"] == "per-node"
    names = {d: sorted(p.name for p in (tmp_path / d).iterdir()) for d in ("default", "out")}
    assert names["out"] == names["default"]


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
    assert int(rows["max_attractiveness"]) == config.params.max_attractiveness
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


@pytest.mark.parametrize(
    "argv",
    [
        # 5e9 cells, about 37 GiB of probabilities
        ["oracle", "--n", "500", "--kappa", "1e7", "--cell-probs"],
        # one cell over the cap
        ["oracle", "--n", str(CELL_PROBS_MAX_CELLS + 1), "--cell-probs"],
    ],
)
def test_oracle_cell_probs_refuses_huge_grids_before_building_one(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("grid built for a refused --cell-probs")

    monkeypatch.setattr(cli, "build_grid", refuse)
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --cell-probs") and f"at most {CELL_PROBS_MAX_CELLS}" in err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--n", "100", "--kappa", "1e308"],
        ["run", "--n", "100", "--kappa", "1e200"],
        ["run", "--n", "100", "--trigger", "time:2->kappa=1e308"],
        ["oracle", "--n", "100", "--kappa", "1e308"],
        ["validate", "CONFIG"],
        ["validate", "TRIGGER_CONFIG"],
    ],
)
def test_grids_too_large_for_int64_are_config_errors(tmp_path, capsys, argv):
    files = {
        "CONFIG": "n=100\nkappa=1e308\n",
        "TRIGGER_CONFIG": "n=100\ntrigger=time:2->kappa=1e308\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: grid too large") and "Traceback" not in err


# the list-order chain reaches alpha 10 at kappa 10000 (support up to 3), but
# the time trigger may fire first, reaching alpha 10 at kappa 1 (support 1)
OUT_OF_ORDER_EMPTY_SUPPORT = (
    "n=100\nalpha=2.5\ntau=50\ninitial_infected=5\nmax_steps=50\n"
    "trigger=prevalence:0.99->kappa=10000\ntrigger=time:1->alpha=10\n"
)


def test_a_grid_only_another_firing_order_reaches_is_a_config_error(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "order.cfg"
    cfg.write_text(OUT_OF_ORDER_EMPTY_SUPPORT)
    assert cli_main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: attractiveness support is empty")
    assert err.rstrip().endswith("(reached once time:1->alpha=10.0 fired)")
    calls = []
    monkeypatch.setattr(harness, "run_replicate", lambda *args: calls.append(args))
    dest = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out-dir", str(dest)]) == 2
    assert "attractiveness support is empty" in capsys.readouterr().err
    assert calls == [] and not dest.exists()


def test_config_files_that_are_not_utf8_are_config_errors(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"n=300\n# caf\xe9\n")
    for argv in (["validate", str(cfg)], ["run", "--config", str(cfg)]):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg} is not UTF-8 text")


def test_a_byte_order_mark_is_not_part_of_the_first_key(tmp_path, capsys):
    text = "n=300\ntau=2\nseed=5\n"
    plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text(text, encoding="utf-8")
    bom.write_text(text, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    assert cli_main(["validate", str(bom)]) == 0
    texts = []
    for cfg in (plain, bom):
        dest = tmp_path / f"out-{cfg.stem}"
        assert cli_main(["run", "--config", str(cfg), "--out-dir", str(dest)]) == 0
        texts.append(json.loads((dest / "manifest.json").read_text())["config_text"])
    assert texts[0] == texts[1].replace(str(tmp_path / "out-bom"), str(tmp_path / "out-plain"))
    capsys.readouterr()
    # after the mark the file must still be UTF-8
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xef\xbb\xbfn=300\n# caf\xe9\n")
    assert cli_main(["validate", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {bad} is not UTF-8 text")


def test_validate_rejects_replications_beyond_63_bits(tmp_path, capsys):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("n=300\nreplications=100000000000000000000\n")
    assert cli_main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: line 2: replications must be a positive integer below 2**63")


def test_run_rejects_replications_beyond_63_bits(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "run_replicate", lambda *args: calls.append(args))
    assert cli_main(["run", "--n", "300", "--replications", "100000000000000000000"]) == 2
    err = capsys.readouterr().err
    assert "replications must be a positive integer below 2**63" in err and "Traceback" not in err
    assert calls == []


def test_validate_missing_file_is_an_io_error(tmp_path, capsys):
    assert cli_main(["validate", str(tmp_path / "nope.cfg")]) == 3
    assert "io error:" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert cli_main(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert cli_main(["--help"]) == 0
    assert "run" in capsys.readouterr().out


_VALUES = st.one_of(
    st.integers(-3, 400).map(str),
    st.floats(-1.0, 40.0).map(repr),
    st.sampled_from(["0", "1e300", "nan", "inf", "", "x", "true", "2**64", "100000000000000000000",
                     "time:1->alpha=3,alpha=4", "prevalence:0.5->kappa=1e308",
                     "time:2->tau=1,beta=0.5", "time:0->tau=1"]),
    st.text(max_size=6),
)
_KEYS = ["n", "alpha", "kappa", "tau", "beta", "initial_infected", "max_steps", "seed",
         "replications", "log_cells", "trigger", "bogus", ""]
_LINES = st.lists(
    st.one_of(st.tuples(st.sampled_from(_KEYS), _VALUES).map("=".join), st.text(max_size=12)),
    max_size=6,
).map(lambda lines: "\n".join(lines).encode("utf-8", "surrogatepass"))
_FLAGS = st.lists(
    st.tuples(st.sampled_from([f"--{k.replace('_', '-')}" for k in _KEYS if k]), _VALUES),
    max_size=3,
)


@settings(max_examples=60)
@given(
    command=st.sampled_from(["validate", "run", "oracle"]),
    config=st.tuples(st.sampled_from([b"", b"n=200\n"]), st.one_of(_LINES, st.binary(max_size=40)))
    .map(b"".join),
    n=st.one_of(st.none(), st.integers(90, 300).map(str), _VALUES),
    flags=_FLAGS,
)
# a replicate count beyond 63 bits must reach run itself, past the fixed count
@example(command="run", config=b"n=200\n", n=None,
         flags=[("--replications", "100000000000000000000")])
def test_malformed_input_never_gives_a_traceback(tmp_path_factory, command, config, n, flags):
    work = tmp_path_factory.mktemp("fuzz")
    cfg = work / "fuzz.cfg"
    cfg.write_bytes(config)
    if command == "validate":
        argv = ["validate", str(cfg)]
    else:
        # with n unset the config file is the source
        argv = [command, *(["--config", str(cfg)] if n is None else ["--n", n])]
        if command == "run":
            # argparse keeps a flag's last value, so a fuzzed --replications
            # after this one reaches run
            argv += ["--replications", "2"]
        argv += [part for flag in flags for part in flag]
        if command == "run":
            # flags override the file: short runs, written under the fuzz directory
            argv += ["--max-steps", "5", "--out-dir", str(work / "out")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
