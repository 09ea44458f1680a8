"""Command-line interface.

Subcommands: run (execute a scenario), preset (emit a ready-made config),
oracle (print exact quantities for a realized grid), validate (parse a
config and report problems).  Exit codes: 0 success, 2 configuration
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .attractiveness import PARAM_FIELDS, build_grid
from .errors import ConfigError
from .harness import run_replications
from .oracle import exact_meeting_probability, expected_new_infections_bound
from .rng import ReplicateStreams
from .scenario import (
    FIELDS,
    InterventionSchedule,
    ScenarioConfig,
    parse_config,
    parse_trigger,
    preset_emerging,
    preset_industrialized,
    serialize_config,
)

OUT_DIR_ENV = "EPIMOB_OUT_DIR"
# oracle --cell-probs prints one row a cell, so it refuses grids above this
CELL_PROBS_MAX_CELLS = 10**6


def _add_field_flags(sub: argparse.ArgumentParser, fields) -> None:
    """--config plus one flag per schema row; an unset flag reads as None."""
    sub.add_argument("--config", metavar="PATH", help="config file (key=value lines)")
    for f in fields:
        flag = "--" + f.name.replace("_", "-")
        if f.type is bool:
            sub.add_argument(flag, action=argparse.BooleanOptionalAction, help=f.help)
        else:
            sub.add_argument(flag, type=f.type, help=f.help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epimob",
        description="Epidemic simulation on a mobile population with "
        "power-law location attractiveness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario and report outcomes")
    _add_field_flags(run, FIELDS.values())
    run.add_argument(
        "--trigger",
        action="append",
        metavar="RULE",
        help="time:STEP->k=v,... or prevalence:FRACTION->k=v,...; "
        "repeatable; replaces config-file triggers",
    )
    run.add_argument(
        "--workers", type=int, default=1,
        help="processes to run replicates in, counting this one (default 1)",
    )
    run.set_defaults(handler=_cmd_run)

    preset = sub.add_parser("preset", help="print a ready-made scenario config")
    preset.add_argument("model", choices=("emerging", "industrialized"))
    preset.add_argument("--n", type=int, required=True, help="population size (>= 100)")
    preset.set_defaults(handler=_cmd_preset)

    oracle = sub.add_parser("oracle", help="print exact quantities for a realized grid")
    # the oracle builds one grid, so of the run rows it reads only the seed
    _add_field_flags(oracle, (*PARAM_FIELDS, FIELDS["seed"]))
    oracle.add_argument("--i-count", type=int, help="infected count for the expectation bound")
    oracle.add_argument("--u-count", type=int, help="uninfected count for the expectation bound")
    oracle.add_argument(
        "--cell-probs",
        action="store_true",
        help=f"also print every cell's choice probability (at most {CELL_PROBS_MAX_CELLS:,} cells)",
    )
    oracle.set_defaults(handler=_cmd_oracle)

    validate = sub.add_parser("validate", help="parse a config file and report problems")
    validate.add_argument("config", metavar="PATH")
    validate.set_defaults(handler=_cmd_validate)

    return parser


def _read_config(path: str) -> ScenarioConfig:
    """Parse the config file at path; a file that is not UTF-8 is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_config(text)


def _effective_config(args: argparse.Namespace) -> ScenarioConfig:
    """Config from file and/or flags; flags override file keys one for one."""
    if args.config is not None:
        cfg = _read_config(args.config)
    elif args.n is not None:
        cfg = parse_config(f"n={args.n}\n")
    else:
        raise ConfigError("n is required (give --config or --n)")

    flags = {
        f.name: getattr(args, f.name)
        for f in FIELDS.values()
        if getattr(args, f.name, None) is not None
    }
    if "out_dir" not in flags and os.environ.get(OUT_DIR_ENV):
        flags["out_dir"] = os.environ[OUT_DIR_ENV]
    params = dataclasses.replace(
        cfg.params, **{f.name: flags.pop(f.name) for f in PARAM_FIELDS if f.name in flags}
    )
    triggers = getattr(args, "trigger", None)
    if triggers:
        flags["schedule"] = InterventionSchedule(tuple(parse_trigger(t) for t in triggers))
    return dataclasses.replace(cfg, params=params, **flags)


def _fmt(stat) -> str:
    return (
        f"mean={stat.mean:.6g} q10={stat.q10:.6g} "
        f"median={stat.median:.6g} q90={stat.q90:.6g}"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    result = run_replications(config, workers=args.workers)
    agg = result.aggregate
    print(f"replications={agg.replications} extinct={agg.extinct_count} cap={agg.cap_count}")
    print(f"extinction_time {_fmt(agg.extinction_time)}")
    print(f"survivor_fraction {_fmt(agg.survivor_fraction)}")
    print(f"ever_infected {_fmt(agg.ever_infected)}")
    if config.out_dir is not None:
        print(f"wrote {config.out_dir}")
    return 0


def _cmd_preset(args: argparse.Namespace) -> int:
    maker = preset_emerging if args.model == "emerging" else preset_industrialized
    sys.stdout.write(serialize_config(maker(args.n)))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    if args.cell_probs and config.params.num_cells > CELL_PROBS_MAX_CELLS:
        raise ConfigError(
            f"--cell-probs prints one row a cell and allows at most {CELL_PROBS_MAX_CELLS} "
            f"cells; this grid has {config.params.num_cells}"
        )
    # same grid stream as replicate 0 of a run with this config
    grid = build_grid(config.params, ReplicateStreams.from_seed(config.seed, 0).grid)
    rows = [
        ("num_cells", str(grid.num_cells)),
        ("max_attractiveness", str(config.params.max_attractiveness)),
        ("total_weight", str(grid.total_weight)),
        ("meeting_probability", repr(exact_meeting_probability(grid))),
    ]
    if (args.i_count is None) != (args.u_count is None):
        raise ConfigError("give both --i-count and --u-count or neither")
    if args.i_count is not None:
        if args.i_count < 0 or args.u_count < 0:
            raise ConfigError("i-count and u-count must be non-negative")
        bound = expected_new_infections_bound(grid, args.i_count, args.u_count)
        rows.append(("expected_new_infections_bound", repr(bound)))
    if args.cell_probs:
        rows.extend(
            (f"cell_prob_{v}", repr(float(p)))
            for v, p in enumerate(grid.choice_probabilities())
        )
    print("quantity,value")
    for name, value in rows:
        print(f"{name},{value}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    _read_config(args.config)
    print("ok")
    return 0


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits itself on --help and errors
        code = exc.code
        return 0 if code in (0, None) else int(code)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
