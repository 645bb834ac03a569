"""One workload run in a fresh process: set up the inputs, run every operation, check it.

    python3 perfbench/workload.py --workload NAME --seed N --trace 0|1 --out DIR

``run.py`` starts this once per sample.  Every operation is one report (a CLI
runner driven through ``coorbitkit.cli.main``) or one seeded library battery.
An operation fails if it raises or if any of its bounded metrics does not pass;
its metric values are then compared with ``reference.json``.  The last line of
standard output is one JSON object with the timings, peak memory, per-operation
outcome and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(ROOT / "src"))

import coorbitkit as ck  # noqa: E402
from coorbitkit import cli  # noqa: E402
from coorbitkit import experiments as ex  # noqa: E402

from spec import (  # noqa: E402
    EXACT_METRICS,
    TOLERANCE,
    WORKLOADS,
    runner_seed,
)


# ---------------------------------------------------------------------------
# seeded library batteries on the cyclic N=8 model (acceptance criteria 7-9)

SCHUR_TRIALS = 20
TRIANGLE_PAIRS = 150


def battery_calibration(seed: int) -> list:
    """calibrate_constants + extend_operator_check on three operators (criterion 9)."""
    model = ck.build_cyclic_phase_space(8)
    rep = ck.gabor_representation(model)
    g = ck.gaussian_window(model)
    ks = ck.KernelSystem.build(rep, g)
    lam = ex.lattice_points(model, 2, 2)
    ctx = ck.CoorbitContext.build(rep, g, ck.QuasiNormSpec(p=1.0), ck.unit_weight(model), 1.0)
    duals = ck.dual_frame(ck.build_almost_tight_frame(ks, lam, ex.block_indices(model, 2, 2)),
                          p=1.0)
    cal = ck.calibrate_constants(ctx, lam, seed=2024 + seed)
    rng = ex.rng_for(seed, "perfbench-calibration")
    coeff = rng.normal(size=model.size) * np.exp(-np.arange(model.size) / 8.0)
    operators = {
        "identity": np.eye(rep.dim),
        "shift": rep.action(11),
        "conv_type": np.einsum("n,nij->ij", coeff * model.haar, rep.matrices),
    }
    metrics = [ex.Metric("coefficient_c", cal.coefficient_c),
               ex.Metric("reconstruction_c", cal.reconstruction_c)]
    for name, t_matrix in operators.items():
        res = ck.extend_operator_check(ctx, t_matrix, lam, duals, cal, seed=47 + seed)
        metrics.append(ex.Metric(f"operator_{name}", res["measured"],
                                 res["certificate_bound"] * (1 + 1e-9), res["pass"]))
    return metrics


def _random_localized(model, sample, rng):
    """Random CD matrix with an exponentially decaying profile and its minimal envelope."""
    n = model.n_side
    idx = np.arange(model.size)
    prof = np.exp(-1.2 * (np.minimum(idx // n, n - idx // n)
                          + np.minimum(idx % n, n - idx % n)))
    z = model.div_indices(sample.points[None, :], sample.points[:, None])
    mags = prof[z] * rng.random(z.shape)
    phases = np.exp(2j * np.pi * rng.random(z.shape))
    cdm = ck.CDMatrix(rows=sample, cols=sample, entries=mags * phases)
    cdm.envelope = ck.minimal_envelope(cdm)
    return cdm


def battery_cdmatrix(seed: int) -> list:
    """Schur soundness, product envelope and series inverse (criterion 7)."""
    model = ck.build_cyclic_phase_space(8)
    rng = ex.rng_for(seed, "perfbench-cdmatrix")
    full = ck.SampleSet(model=model, points=np.arange(model.size))
    violations, worst = 0, 0.0
    for _ in range(SCHUR_TRIALS):
        bounds = ck.schur_bounds(_random_localized(model, full, rng))
        violations += bounds["measured_op_norm"] > bounds["op_bound_l2"] + 1e-12
        worst = max(worst, bounds["measured_op_norm"] / bounds["op_bound_l2"])
    prod = ck.product_with_envelope(_random_localized(model, full, rng),
                                    _random_localized(model, full, rng))
    prod_check = ck.verify_envelope(prod, prod.envelope)
    lam = ck.SampleSet(model=model, points=np.arange(0, model.size, 2))
    perturb = _random_localized(model, lam, rng)
    scale = 0.4 / np.linalg.norm(perturb.entries, 2)
    mat = ck.CDMatrix(rows=lam, cols=lam, entries=np.eye(len(lam)) + scale * perturb.entries)
    mat.envelope = ck.minimal_envelope(mat)
    inv = ck.matrix_holomorphic(mat, "inverse", tail_tol=1e-10)
    gap = float(np.abs(inv.entries - np.linalg.inv(mat.entries)).max())
    inv_check = ck.verify_envelope(inv, inv.envelope)
    return [
        ex.Metric("schur_violations", float(violations), 0.0, violations == 0),
        ex.Metric("schur_max_ratio", worst),
        ex.Metric("product_envelope_excess", prod_check["max_excess"], 0.0,
                  prod_check["holds"] and prod_check["max_excess"] == 0.0),
        ex.Metric("series_inverse_gap", gap, 1e-9, gap <= 1e-9),
        ex.Metric("inverse_envelope_excess", inv_check["max_excess"], 1e-10,
                  inv_check["max_excess"] <= 1e-10),
    ]


def battery_triangle(seed: int) -> list:
    """p-triangle inequality of lpw_norm, amalgam_norm and sequence_norm (criterion 8)."""
    model = ck.build_cyclic_phase_space(8)
    rng = ex.rng_for(seed, "perfbench-triangle")
    lam = ex.lattice_points(model, 2, 2)
    failures = 0
    worst = {"plain": 0.0, "left": 0.0, "sequence": 0.0}
    for p in (1.0 / 3.0, 0.5, 1.0):
        plain = ck.QuasiNormSpec(p=p)
        left = ck.QuasiNormSpec(p=p, flavor="left")
        sspec = ck.SequenceSpaceSpec(base=ck.QuasiNormSpec(p=p), sample=lam)
        for _ in range(TRIANGLE_PAIRS):
            f = rng.normal(size=model.size) + 1j * rng.normal(size=model.size)
            h = rng.normal(size=model.size) + 1j * rng.normal(size=model.size)
            c1 = rng.normal(size=len(lam)) + 1j * rng.normal(size=len(lam))
            c2 = rng.normal(size=len(lam)) + 1j * rng.normal(size=len(lam))
            gf, gh = ck.GridFunction(model, f), ck.GridFunction(model, h)
            gs = ck.GridFunction(model, f + h)
            triples = {
                "plain": [ck.lpw_norm(x, plain) for x in (gs, gf, gh)],
                "left": [ck.amalgam_norm(x, left) for x in (gs, gf, gh)],
                "sequence": [ck.sequence_norm(x, sspec) for x in (c1 + c2, c1, c2)],
            }
            for flavor, (lhs, a, b) in triples.items():
                ratio = lhs ** p / (a ** p + b ** p)
                worst[flavor] = max(worst[flavor], ratio)
                failures += ratio > 1 + 1e-10
    metrics = [ex.Metric("triangle_failures", float(failures), 0.0, failures == 0)]
    metrics += [ex.Metric(f"triangle_max_ratio_{k}", v) for k, v in worst.items()]
    return metrics


BATTERIES = {
    "battery calibration": battery_calibration,
    "battery cdmatrix": battery_cdmatrix,
    "battery triangle": battery_triangle,
}


# ---------------------------------------------------------------------------
# operations


def prepare(workload: str, seed: int, out: Path) -> list:
    """The workload's inputs: one (name, callable) per operation, configs on disk."""
    ops = []
    for index, (name, config) in enumerate(WORKLOADS[workload]):
        op_dir = out / f"op{index}"
        op_dir.mkdir(parents=True, exist_ok=True)
        if config is None:
            battery = BATTERIES[name]
            ops.append((name, lambda battery=battery: battery(seed)))
            continue
        config_path = op_dir / "config.json"
        config_path.write_text(json.dumps({**config, "seed": seed}))
        argv = name.split() + ["--config", str(config_path), "--out", str(op_dir)]
        report_path = op_dir / f"{name.replace(' ', '_')}.json"
        ops.append((name, lambda argv=argv, path=report_path: _run_cli(argv, path)))
    return ops


def _run_cli(argv, report_path) -> list:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    report = ex.report_from_json(report_path.read_text())
    if (code == 0) != report.all_pass:
        raise RuntimeError(f"exit code {code} disagrees with the report's pass flags")
    return report.metrics


def metric_passes(metric) -> bool:
    return metric.bound is None or bool(metric.passed)


def values_match(name: str, value: float, expected: float) -> bool:
    if name in EXACT_METRICS:
        return value == expected
    return abs(value - expected) <= TOLERANCE * max(1.0, abs(value), abs(expected))


def reference_for(reference: dict, workload: str, op: str, seed: int):
    entry = reference.get(workload, {}).get(op, {})
    return entry.get("*", entry.get(str(seed)))


def changed_values(metrics, expected) -> list:
    """Names of metrics that are missing, extra or outside tolerance of the reference."""
    if expected is None:
        return ["<no reference>"]
    got = {m.name: m for m in metrics}
    changed = sorted(set(expected) ^ set(got))
    for name in sorted(set(expected) & set(got)):
        if not values_match(name, got[name].value, expected[name]):
            changed.append(name)
    return changed


def host_record() -> dict:
    """CPU count, interpreter, numpy and BLAS library with its thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = int(fn())
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def run(workload: str, seed: int, trace: bool, out: Path) -> dict:
    tracer = None
    if trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    reference = json.loads(REFERENCE.read_text())
    ops = prepare(workload, runner_seed(seed), out)
    ready = time.monotonic()

    start = time.perf_counter()
    outcomes = []
    for name, op in ops:
        try:
            metrics = op()
        except Exception:
            outcomes.append({"op": name, "passed": False, "changed": [],
                             "error": traceback.format_exc(limit=3)})
            continue
        expected = reference_for(reference, workload, name, runner_seed(seed))
        outcomes.append({
            "op": name,
            "passed": all(metric_passes(m) for m in metrics),
            "failing": [m.name for m in metrics if not metric_passes(m)],
            "changed": changed_values(metrics, expected),
            "error": None,
        })
    wall = time.perf_counter() - start

    result = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": outcomes,
        "host": host_record(),
    }
    if tracer is not None:
        tracer.write(out / "spans.npz")
        result["layer_counts"] = tracer.layer_counts()
        result["layer_times"] = tracer.layer_times()
        result["spans"] = len(tracer.names)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, bool(args.trace), Path(args.out))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
