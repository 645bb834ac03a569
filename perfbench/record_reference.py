"""Record reference.json: every operation's metric values at the current commit.

    python3 perfbench/record_reference.py

Seeded workloads are recorded for every runner seed 0 .. REFERENCE_SEEDS-1;
the deterministic ones for seeds 0 and 1, which must agree.  An operation whose
values agree across all recorded seeds is stored once, under "*".  Every
bounded metric must pass, otherwise nothing is written.  Re-record only for a
change that is meant to move report values, and say so where it is reviewed.
"""

from __future__ import annotations

import json
import shutil
import sys

import workload as wl
from spec import DETERMINISTIC, REFERENCE_SEEDS, WORKLOADS

WORK = wl.ROOT / ".perfbench" / "record"


def record_values(workload: str, seed: int) -> dict:
    out = WORK / f"{workload}-seed{seed}"
    shutil.rmtree(out, ignore_errors=True)
    values = {}
    for name, op in wl.prepare(workload, seed, out):
        metrics = op()
        failing = [m.name for m in metrics if not wl.metric_passes(m)]
        if failing:
            raise SystemExit(f"{workload} / {name} / seed {seed}: failing {failing}")
        values[name] = {m.name: m.value for m in metrics}
    return values


def record_workload(workload: str) -> dict:
    seeds = range(2) if workload in DETERMINISTIC else range(REFERENCE_SEEDS)
    per_seed = {seed: record_values(workload, seed) for seed in seeds}
    if workload in DETERMINISTIC and per_seed[0] != per_seed[1]:
        raise SystemExit(f"{workload}: values depend on the seed")
    entries = {}
    for name in per_seed[0]:
        by_seed = {str(seed): per_seed[seed][name] for seed in seeds}
        same = all(v == by_seed["0"] for v in by_seed.values())
        entries[name] = {"*": by_seed["0"]} if same else by_seed
    return entries


def main() -> int:
    reference = {workload: record_workload(workload) for workload in WORKLOADS}
    wl.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
