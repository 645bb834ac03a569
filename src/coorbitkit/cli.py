"""Command-line driver for the experiment runners.

Subcommands: ``counterexample realline|affine``, ``gabor frame|riesz``,
``diagnostic in-group``, ``coorbit norm|embed``.  Each accepts ``--config``
(JSON overrides for the runner's keyword arguments) and ``--out`` (report
directory).  Exit code 0 iff every bounded metric passes; a config that is not
a JSON object of the runner's keywords is rejected with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import experiments


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    return json.loads(Path(path).read_text())


_RUNNERS = {
    ("counterexample", "realline"): experiments.run_counterexample_realline,
    ("counterexample", "affine"): experiments.run_counterexample_affine,
    ("gabor", "frame"): experiments.run_gabor_suite,
    ("gabor", "riesz"): experiments.run_riesz_suite,
    ("diagnostic", "in-group"): experiments.run_in_diagnostic,
    ("coorbit", "norm"): experiments.run_coorbit_norm,
    ("coorbit", "embed"): experiments.run_coorbit_embed,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coorbitkit",
                                     description="coorbit-space experiment suites")
    sub = parser.add_subparsers(dest="group", required=True)
    for group, variants in (
        ("counterexample", ["realline", "affine"]),
        ("gabor", ["frame", "riesz"]),
        ("diagnostic", ["in-group"]),
        ("coorbit", ["norm", "embed"]),
    ):
        gp = sub.add_parser(group)
        gsub = gp.add_subparsers(dest="variant", required=True)
        for variant in variants:
            vp = gsub.add_parser(variant)
            vp.add_argument("--config", type=str, default=None,
                            help="JSON file with runner keyword overrides")
            vp.add_argument("--out", type=str, default="reports",
                            help="output directory for JSON/CSV reports")
            vp.add_argument("--format", type=str, default="csv",
                            choices=["json", "csv"])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    import inspect

    parser = build_parser()
    args = parser.parse_args(argv)
    runner = _RUNNERS[(args.group, args.variant)]
    config = _load_config(args.config)
    if not isinstance(config, dict):
        parser.error(f"--config must hold a JSON object, got {type(config).__name__}")
    accepted = list(inspect.signature(runner).parameters)
    unknown = [key for key in config if key not in accepted]
    if unknown:
        parser.error(f"unknown --config key(s) {', '.join(map(repr, unknown))} for "
                     f"{args.group} {args.variant}; accepted keys: {', '.join(accepted)}")
    report = runner(**config)
    paths = experiments.emit_report(report, args.out, fmt=args.format)
    for metric in report.metrics:
        flag = "pass" if metric.passed else ("FAIL" if metric.passed is not None else "    ")
        bound = f" (bound {metric.bound:g})" if metric.bound is not None else ""
        print(f"[{flag}] {metric.name} = {metric.value:g}{bound}")
    print(f"report: {paths[0]}")
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
