"""coorbitkit benchmark: time-to-verified-report for the paper's experiment runners.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample is one fresh process (``workload.py``) that imports coorbitkit,
prepares the workload's inputs from the seed, runs every operation once in a
closed loop of one client and checks every report.  Samples run one after
another until ``--seconds`` is used up (at least MIN_SAMPLES of them).

With ``--trace 0`` the end-to-end metrics are reported as medians over the
samples.  With ``--trace 1`` traced and untraced samples alternate; the
per-layer metrics come from the traced ones, whose work counters must repeat
exactly, and ``trace.overhead_s`` is the difference of the median wall times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with quartiles, sample counts and the host record, is written to
``.perfbench/result-<workload>-seed<N>-trace<T>.json`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from spec import DETERMINISTIC, END_TO_END, LAYER_METRICS, WORKLOADS, runner_seed  # noqa: E402

MIN_SAMPLES = 3          # untraced samples with --trace 0
MIN_TRACED = 2           # traced samples with --trace 1, so counts can be compared
HARD_LIMIT_S = 170.0     # the whole invocation stays below this


def quartiles(values) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_sample(workload: str, seed: int, trace: bool, index: int, deadline: float) -> dict:
    """One workload run in a fresh process; setup_s is measured from the spawn."""
    out = WORK / f"{workload}-seed{seed}" / f"sample{index}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--out", str(out)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(5.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return {"error": "timed out", "elapsed": time.monotonic() - spawned}
    elapsed = time.monotonic() - spawned
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": (proc.stderr or proc.stdout)[-2000:], "elapsed": elapsed}
    sample = json.loads(lines[-1])
    sample["setup_s"] = sample.pop("ready") - spawned
    sample["elapsed"] = elapsed
    return sample


def collect(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run samples until the time is used up; returns (untraced, traced, broken)."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    untraced, traced, broken = [], [], []
    durations = []
    while True:
        want_traced = trace and len(traced) <= len(untraced)
        elapsed = time.monotonic() - start
        estimate = statistics.median(durations) if durations else 0.0
        minimum_met = (len(untraced) >= (1 if trace else MIN_SAMPLES)
                       and (not trace or len(traced) >= MIN_TRACED))
        if minimum_met and elapsed + estimate > seconds:
            break
        if elapsed + estimate > HARD_LIMIT_S:
            break
        sample = run_sample(workload, seed, want_traced, len(untraced) + len(traced), deadline)
        durations.append(sample["elapsed"])
        if "error" in sample:
            broken.append(sample)
            if len(broken) >= 2:
                break
        elif want_traced:
            traced.append(sample)
        else:
            untraced.append(sample)
    return untraced, traced, broken


def summarize(samples: list, key: str) -> dict:
    values = [s[key] for s in samples]
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "coorbitkit" / "__init__.py").is_file():
        print(f"perfbench: no coorbitkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK / f"{args.workload}-seed{args.seed}", ignore_errors=True)
    WORK.mkdir(exist_ok=True)
    untraced, traced, broken = collect(args.workload, args.seed, args.seconds,
                                       bool(args.trace))
    samples = untraced + traced
    if not untraced or (args.trace and not traced):
        for sample in broken:
            print(f"perfbench: sample failed:\n{sample['error']}", file=sys.stderr)
        return 1

    ops_per_sample = len(samples[0]["ops"])
    outcomes = [op for s in samples for op in s["ops"]]
    attempted = len(outcomes) + ops_per_sample * len(broken)
    failed = sum(not op["passed"] for op in outcomes) + ops_per_sample * len(broken)
    values_changed = sum(len(op["changed"]) for op in outcomes)
    problems = [f"{op['op']}: failing {op.get('failing')} changed {op['changed']} "
                f"error {op['error']}" for op in outcomes
                if not op["passed"] or op["changed"] or op["error"]]
    problems += [f"sample failed: {s['error']}" for s in broken]

    summary = {name: summarize(untraced, name) for name, _ in END_TO_END}
    if args.trace:
        counts = [s["layer_counts"] for s in traced]
        if any(c != counts[0] for c in counts[1:]):
            problems.append(f"work counters differ between traced runs: {counts}")
        layer = dict(counts[0])
        for name in traced[0]["layer_times"]:
            layer[name] = statistics.median(s["layer_times"][name] for s in traced)
        layer["trace.overhead_s"] = (statistics.median(s["wall_s"] for s in traced)
                                     - summary["wall_s"]["median"])
        units = dict(LAYER_METRICS)
        metrics = {name: {"value": layer[name], "unit": units[name]} for name, _ in LAYER_METRICS}
    else:
        metrics = {name: {"value": summary[name]["median"], "unit": unit}
                   for name, unit in END_TO_END}

    host = samples[0]["host"]
    print(f"workload {args.workload}  seed {args.seed} (runner seed {runner_seed(args.seed)})  "
          f"trace {args.trace}  samples {len(untraced)} untraced, {len(traced)} traced")
    if args.workload in DETERMINISTIC:
        print("  inputs do not depend on the seed: the counterexample runners are "
              "deterministic by design")
    print(f"  host: cpus {host['cpus']}  python {host['python']}  numpy {host['numpy']}  "
          f"blas {host['blas']} ({host['blas_threads']} threads)")
    for name, unit in END_TO_END:
        s = summary[name]
        print(f"  {name:<16} {s['median']:.6g} {unit}  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, "
              f"n {s['n']})")
    print(f"  {'ops_failed_frac':<16} {failed / attempted:.6g}  ({failed} of ops {attempted})")
    print(f"  {'values_changed':<16} {values_changed}")
    if args.trace:
        for name, entry in metrics.items():
            print(f"  {name:<34} {entry['value']:.6g} {entry['unit']}")
        print(f"  spans per traced sample: {traced[0]['spans']}")
    for problem in problems:
        print(f"  PROBLEM {problem}")

    correct = not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {**result, "workload": args.workload, "seed": args.seed,
              "runner_seed": runner_seed(args.seed), "seconds": args.seconds,
              "host": host, "summary": summary, "ops_failed_frac": failed / attempted,
              "values_changed": values_changed, "problems": problems,
              "samples": [{k: v for k, v in s.items() if k != "ops"} for s in samples]}
    path = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
