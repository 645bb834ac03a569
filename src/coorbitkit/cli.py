"""Command-line driver for the experiment runners.

``coorbitkit <group> <variant>`` runs the entry of ``_RUNNERS`` for that pair, for
example ``counterexample affine``; ``coorbitkit --help`` lists the seven commands.
The two are positionals of one parser, built on the first ``main`` call and kept
for the process.  A pair that is not in ``_RUNNERS``, such as ``gabor affine``, is
an argparse "invalid choice" error that names the group's variants.  Every command
accepts ``--config`` (JSON overrides for the runner's keyword arguments), ``--out``
(report directory) and ``--format``.  A config value must have the JSON type of
the runner's default: an integer for an int default, a number for a float, a
string for a str and a list for a tuple, and never a bool.  Exit code 0 iff every
bounded metric passes, 1 if one fails, 2 on a bad command or config or an
exception from the runner or report writer (one ``error:`` line).
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import experiments


_RUNNERS = {
    ("counterexample", "realline"): experiments.run_counterexample_realline,
    ("counterexample", "affine"): experiments.run_counterexample_affine,
    ("gabor", "frame"): experiments.run_gabor_suite,
    ("gabor", "riesz"): experiments.run_riesz_suite,
    ("diagnostic", "in-group"): experiments.run_in_diagnostic,
    ("coorbit", "norm"): experiments.run_coorbit_norm,
    ("coorbit", "embed"): experiments.run_coorbit_embed,
}

# the JSON types a config value may have, by the type of the runner's default
_CONFIG_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
                 str: ((str,), "a string"), tuple: ((list,), "a list")}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    commands = "".join(f"\n  {group} {variant}" for group, variant in _RUNNERS)
    parser = argparse.ArgumentParser(prog="coorbitkit",
                                     description="coorbit-space experiment suites",
                                     epilog=f"commands:{commands}",
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("group", choices=list(dict.fromkeys(group for group, _ in _RUNNERS)))
    parser.add_argument("variant", choices=list(dict.fromkeys(variant for _, variant in _RUNNERS)))
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file with runner keyword overrides")
    parser.add_argument("--out", type=str, default="reports",
                        help="output directory for JSON/CSV reports")
    parser.add_argument("--format", type=str, default="csv", choices=["json", "csv"])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    runner = _RUNNERS.get((args.group, args.variant))
    if runner is None:
        variants = ", ".join(repr(variant) for group, variant in _RUNNERS if group == args.group)
        parser.error(f"argument variant: invalid choice: {args.variant!r} for group "
                     f"{args.group!r} (choose from {variants})")
    try:
        config = json.loads(Path(args.config).read_text()) if args.config else {}
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read --config {args.config}: {exc}")
    if not isinstance(config, dict):
        parser.error(f"--config must hold a JSON object, got {type(config).__name__}")
    params = inspect.signature(runner).parameters
    unknown = [key for key in config if key not in params]
    if unknown:
        parser.error(f"unknown --config key(s) {', '.join(map(repr, unknown))} for "
                     f"{args.group} {args.variant}; accepted keys: {', '.join(params)}")
    for key, value in config.items():
        kinds, name = _CONFIG_TYPES[type(params[key].default)]
        if isinstance(value, bool) or not isinstance(value, kinds):
            parser.error(f"--config key {key!r} needs {name}, got {json.dumps(value)}")
    try:
        report = runner(**config)
        paths = experiments.emit_report(report, args.out, fmt=args.format)
    except Exception as exc:  # the command-line boundary: report, do not trace back
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for metric in report.metrics:
        flag = "pass" if metric.passed else ("FAIL" if metric.passed is not None else "    ")
        bound = f" (bound {metric.bound:g})" if metric.bound is not None else ""
        print(f"[{flag}] {metric.name} = {metric.value:g}{bound}")
    print(f"report: {paths[0]}")
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
