"""Span tracer for the benchmark's traced runs.

The tracer wraps coorbitkit's public entry points from outside the package:
module functions are replaced in every ``coorbitkit`` submodule namespace (and
module-level dicts such as ``cli._RUNNERS``) that holds the same object, and
methods are replaced on their class.  Each call records a span (name, start,
end, parent id) in memory; work counters are computed from argument shapes and
results at the same call, never from timing, so they repeat exactly.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

from spec import LAYER_METRICS

# Bytes charged per maximal-function gather: the int64 product index and the
# float64 magnitude it fetches.  Labelled "computed": cache traffic is not seen.
GATHER_BYTES = 16
# Bytes charged per orbit call: the einsum reads every n x d x d complex matrix.
COMPLEX_BYTES = 16


class Tracer:
    """In-memory span recorder with per-layer work counters."""

    def __init__(self):
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.outermost: list = []   # False when an enclosing span has the same name
        self._stack = [-1]
        self._open = defaultdict(int)
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)

    def wrap(self, name: str, fn, count=None):
        """Return fn wrapped in a span; count(tracer, args, kwargs, result) adds work."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1])
            tracer.outermost.append(tracer._open[name] == 0)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer._stack.append(sid)
            tracer._open[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._open[name] -= 1
                tracer._stack.pop()
                tracer.starts[sid] = start
                tracer.ends[sid] = end
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return traced

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> dict:
        """Per span name: total duration minus the time covered by child spans."""
        child = [0.0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[sid] - self.starts[sid]
        totals = defaultdict(float)
        for sid, name in enumerate(self.names):
            totals[name] += self.ends[sid] - self.starts[sid] - child[sid]
        return totals

    def calls(self) -> dict:
        """Per span name: calls not nested inside a span of the same name."""
        totals = defaultdict(int)
        for name, outer in zip(self.names, self.outermost):
            if outer:
                totals[name] += 1
        return totals

    def layer_counts(self) -> dict:
        """Work counters of the per-layer metrics (exactly repeatable)."""
        calls = self.calls()
        c = self.counters
        m = self.maxima
        products = c["groups.mul_indices.products"]
        return {
            "groups.model_build.calls": calls["groups.model_build"],
            "groups.carrier_max_n": m["groups.carrier_max_n"],
            "groups.q_size_max": m["groups.q_size_max"],
            "groups.mul_indices.calls": calls["groups.mul_indices"],
            "groups.mul_indices.products": products,
            "groups.mul_indices.absent_frac":
                c["groups.mul_indices.absent"] / products if products else 0.0,
            "amalgam.maximal.calls": calls["amalgam.maximal"],
            "amalgam.maximal.gathers": c["amalgam.maximal.gathers"],
            "amalgam.maximal.bytes_computed": c["amalgam.maximal.gathers"] * GATHER_BYTES,
            "amalgam.convolve.calls": calls["amalgam.convolve"],
            "amalgam.convolve.pair_evals": c["amalgam.convolve.pair_evals"],
            "amalgam.norm.calls": calls["amalgam.norm"],
            "sampling.rel_separation.calls": calls["sampling.rel_separation"],
            "frames.representation.bytes": m["frames.representation.bytes"],
            "frames.orbit.calls": calls["frames.orbit"],
            "frames.orbit.bytes_computed": c["frames.orbit.bytes_computed"],
            "frames.voice_transform.calls": calls["frames.voice_transform"],
            "frames.kernel_system.bytes": m["frames.kernel_system.bytes"],
            "frames.fit_envelope.calls": calls["frames.fit_envelope"],
            "frames.series.terms": c["frames.series.terms"],
            "frames.envelope_check.pairs": c["frames.envelope_check.pairs"],
            "cdmatrix.product.calls": calls["cdmatrix.product"],
            "coorbit.sequence_norm.calls": calls["coorbit.sequence_norm"],
            "coorbit.coorbit_norm.calls": calls["coorbit.coorbit_norm"],
            "experiments.emit_report.bytes": c["experiments.emit_report.bytes"],
        }

    def layer_times(self) -> dict:
        """Self time of every per-layer ``.self_s`` metric, in seconds."""
        totals = self.self_times()
        return {name: totals[name[:-len(".self_s")]]
                for name, _ in LAYER_METRICS if name.endswith(".self_s")}

    def write(self, path) -> None:
        """Write the spans as columns (span id = row): name, parent id, start, end."""
        names = sorted(set(self.names))
        index = {name: i for i, name in enumerate(names)}
        np.savez(path, names=np.array(names), name=np.array([index[n] for n in self.names]),
                 parent=np.array(self.parents), start=np.array(self.starts),
                 end=np.array(self.ends))


# ---------------------------------------------------------------------------
# work counters, computed at the wrapped call from shapes and results


def _count_model(tracer, args, kwargs, result):
    model = args[0]
    tracer.maxima["groups.carrier_max_n"] = max(tracer.maxima["groups.carrier_max_n"],
                                                int(model.size))
    tracer.maxima["groups.q_size_max"] = max(tracer.maxima["groups.q_size_max"],
                                             len(model.q_indices))


def _count_mul(tracer, args, kwargs, result):
    tracer.counters["groups.mul_indices.products"] += int(np.size(result))
    tracer.counters["groups.mul_indices.absent"] += int(np.count_nonzero(np.asarray(result) < 0))


def _count_maximal(tracer, args, kwargs, result):
    model = args[0].model
    tracer.counters["amalgam.maximal.gathers"] += int(model.size) * len(model.q_indices)


def _count_convolve(tracer, args, kwargs, result):
    n = int(args[0].model.size)
    tracer.counters["amalgam.convolve.pair_evals"] += n * n


def _count_representation(tracer, args, kwargs, result):
    key = "frames.representation.bytes"
    tracer.maxima[key] = max(tracer.maxima[key], int(result.matrices.nbytes))


def _count_orbit(tracer, args, kwargs, result):
    rep = args[0]
    tracer.counters["frames.orbit.bytes_computed"] += \
        int(rep.model.size) * rep.dim * rep.dim * COMPLEX_BYTES


def _count_kernel_system(tracer, args, kwargs, result):
    key = "frames.kernel_system.bytes"
    tracer.maxima[key] = max(tracer.maxima[key], int(result.kernel_matrix.nbytes))


def _count_series(tracer, args, kwargs, result):
    tracer.counters["frames.series.terms"] += int(result[1])


def _count_envelope_check(tracer, args, kwargs, result):
    tracer.counters["frames.envelope_check.pairs"] += int(result["pairs"])


def _count_emit(tracer, args, kwargs, result):
    tracer.counters["experiments.emit_report.bytes"] += sum(os.path.getsize(p) for p in result)


# ---------------------------------------------------------------------------
# installation


def _rebind(orig, wrapped) -> None:
    """Replace orig by wrapped wherever a coorbitkit module namespace holds it."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "coorbitkit" or modname.startswith("coorbitkit.")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is orig:
                namespace[key] = wrapped
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if dvalue is orig:
                        value[dkey] = wrapped


def _wrap_function(tracer, module, attr, name, count=None) -> None:
    orig = getattr(module, attr)
    _rebind(orig, tracer.wrap(name, orig, count))


def _wrap_method(tracer, cls, attr, name, count=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, count)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, count))


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every coorbitkit layer (call once per process)."""
    import coorbitkit.cdmatrix as cdmatrix
    import coorbitkit.cli  # noqa: F401  (its runner table is rebound below)
    import coorbitkit.coorbit as coorbit
    import coorbitkit.experiments as experiments
    import coorbitkit.frames as frames
    import coorbitkit.groups as groups
    import coorbitkit.sampling as sampling
    import coorbitkit.amalgam as amalgam

    for cls in (groups.CyclicPhaseSpace, groups.RealLineModel, groups.AffineGridModel):
        _wrap_method(tracer, cls, "__init__", "groups.model_build", _count_model)
        _wrap_method(tracer, cls, "mul_indices", "groups.mul_indices", _count_mul)
    _wrap_function(tracer, groups, "measure_QxQ", "groups.measure_QxQ")

    for attr in ("maximal_left", "maximal_right"):
        _wrap_function(tracer, amalgam, attr, "amalgam.maximal", _count_maximal)
    for attr in ("convolve", "twisted_convolve"):
        _wrap_function(tracer, amalgam, attr, "amalgam.convolve", _count_convolve)
    for attr in ("lpw_norm", "amalgam_norm", "norm"):
        _wrap_function(tracer, amalgam, attr, "amalgam.norm")

    _wrap_function(tracer, sampling, "build_cover", "sampling.cover")
    _wrap_function(tracer, sampling, "rel_separation", "sampling.rel_separation")

    _wrap_function(tracer, frames, "gabor_representation", "frames.representation",
                   _count_representation)
    _wrap_method(tracer, frames.Representation, "orbit", "frames.orbit", _count_orbit)
    _wrap_function(tracer, frames, "voice_transform", "frames.voice_transform")
    _wrap_method(tracer, frames.KernelSystem, "build", "frames.kernel_system",
                 _count_kernel_system)
    _wrap_function(tracer, frames, "fit_envelope", "frames.fit_envelope")
    _wrap_function(tracer, frames, "_series_apply", "frames.series", _count_series)
    _wrap_function(tracer, frames, "frame_kernel_envelope_check", "frames.envelope_check",
                   _count_envelope_check)

    _wrap_function(tracer, cdmatrix, "product_with_envelope", "cdmatrix.product")
    _wrap_function(tracer, cdmatrix, "matrix_holomorphic", "cdmatrix.holomorphic")
    _wrap_function(tracer, cdmatrix, "schur_bounds", "cdmatrix.schur")

    _wrap_function(tracer, coorbit, "sequence_norm", "coorbit.sequence_norm")
    _wrap_function(tracer, coorbit, "coorbit_norm", "coorbit.coorbit_norm")
    _wrap_method(tracer, coorbit.CoorbitContext, "build", "coorbit.context_build")
    _wrap_function(tracer, coorbit, "calibrate_constants", "coorbit.calibrate")

    for attr in ("run_counterexample_realline", "run_counterexample_affine",
                 "run_gabor_suite", "run_riesz_suite", "run_in_diagnostic",
                 "run_coorbit_norm", "run_coorbit_embed"):
        _wrap_function(tracer, experiments, attr, "experiments.runner")
    _wrap_function(tracer, experiments, "emit_report", "experiments.emit_report", _count_emit)
