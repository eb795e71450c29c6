"""Span tracer that times calls into the program's public functions from
outside, by replacing them with timing wrappers.

A span is ``(id, parent, name, start, end, pid, counts)``. Spans are kept in
memory. Spark's Python workers run the same tracer from
``hook/sitecustomize.py`` and append each finished span as one JSON line to
``spans-<pid>.jsonl`` in the trace directory; the driver reads those files
after a traced pass. Times come from ``time.perf_counter`` (CLOCK_MONOTONIC
on Linux), so driver and worker spans share one clock.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _size(a, k, out, arg=0, key="data"):
    x = a[arg] if len(a) > arg else k.get(key)
    return int(np.size(x))


# (module, attribute, span name, counter(args, kwargs, result) -> dict | None)
# Methods are written "Class.method" and are replaced on the class itself.
TARGETS = [
    ("repro.sci_data", "generate", "sci_data.generate", None),
    ("repro.sci_data", "rtm_snapshot", "sci_data.rtm_snapshot", None),
    ("repro.sparklayer.chunks", "array_to_chunks", "chunks.ingest",
     lambda a, k, out: {"bytes": int(np.asarray(a[3]).nbytes)}),
    ("repro.sparklayer.chunks", "chunk_to_array", "chunks.to_array",
     lambda a, k, out: {"bytes": int(out.nbytes)}),
    ("repro.compressor.pipeline", "compress", "pipeline.compress",
     lambda a, k, out: {"points": _size(a, k, out)}),
    ("repro.compressor.pipeline", "decompress", "pipeline.decompress", None),
    ("repro.compressor.pipeline", "measure", "pipeline.measure", None),
    *[
        ("repro.compressor.predictors", f"{cls}.{meth}", f"predictors.{meth}", cnt)
        for cls in ("Lorenzo", "Interpolation", "Regression")
        for meth, cnt in (
            ("compress", lambda a, k, out: {"points": _size(a, k, out, 1)}),
            ("decompress", lambda a, k, out: {"points": int(np.prod(a[2]))}),
            ("sample_errors", None),
        )
    ],
    ("repro.compressor.huffman", "build", "huffman.build",
     lambda a, k, out: {"alphabet": len(out.symbols)}),
    ("repro.compressor.huffman", "HuffmanCode.encode", "huffman.encode",
     lambda a, k, out: {"symbols": int(np.size(a[1])), "payload_bytes": len(out)}),
    ("repro.compressor.rle", "lossless_bytes", "rle.lossless",
     lambda a, k, out: {"bytes_in": len(a[0]), "bytes_out": int(out)}),
    ("repro.core.model", "RatioQualityModel.__init__", "model.build",
     lambda a, k, out: {"points": _size(a, k, out, 1)}),
    ("repro.core.model", "RatioQualityModel.estimate", "model.estimate", None),
    *[
        ("repro.core.model", f"RatioQualityModel.{m}", "model.invert", None)
        for m in ("error_bound_for_bitrate", "error_bound_for_psnr", "error_bound_for_mse")
    ],
    ("repro.core.sampling", "sample_values", "sampling.sample_values", None),
    ("repro.core.sampling", "sample_error_report", "sampling.sample_error_report", None),
    *[("repro.core.histogram", f, f"histogram.{f}", None)
      for f in ("phase_smear", "code_histogram", "bin_transfer", "p0_of")],
    *[("repro.core.ratio_model", f, f"ratio_model.{f}", None)
      for f in ("huffman_bitrate", "lossless_bitrate", "rle_ratio", "invert_bitrate")],
    *[("repro.core.quality_model", f, f"quality_model.{f}", None)
      for f in ("sigma_e2_uniform", "sigma_e2_lattice", "sigma_e2", "sigma_e2_interp",
                "psnr_est", "ssim_est")],
    ("repro.analysis", "psnr", "analysis.psnr", None),
    ("repro.analysis", "ssim_global", "analysis.ssim", None),
    ("repro.usecases.data_dump", "run_dump_study", "dump.study", None),
    ("repro.usecases.data_dump", "offline_worstcase_abs_eb", "dump.offline_study", None),
    ("repro.usecases.data_dump", "_write_partition", "io.write",
     lambda a, k, out: {"file_bytes": int(out)}),
]

#: Span-name prefix -> the program module (layer) it belongs to.
LAYER_OF = {
    "sci_data": "sci_data",
    "chunks": "sparklayer.chunks",
    "pipeline": "compressor.pipeline",
    "predictors": "compressor.predictors",
    "huffman": "compressor.huffman",
    "rle": "compressor.rle",
    "model": "core.model",
    "sampling": "core.sampling",
    "histogram": "core.histogram",
    "ratio_model": "core.ratio_model",
    "quality_model": "core.quality_model",
    "analysis": "analysis",
    "dump": "usecases.data_dump",
    "io": "usecases.data_dump",
}


class Tracer:
    """Records spans while ``enabled`` (driver) or while ``flag_path``
    exists (worker; re-checked at most every 0.2 s outside a span)."""

    def __init__(self, sink_dir: str | None = None, flag_path: str | None = None):
        self.spans: list[list] = []
        self.enabled = False
        self.sink_dir = sink_dir
        self.flag_path = flag_path
        self._stack: list[int] = []
        self._next = 0
        self._flag_checked = -1.0
        self._sink = None
        self._sink_pid = None
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def on(self) -> bool:
        if self._stack or self.flag_path is None:
            return self.enabled or bool(self._stack)
        now = time.perf_counter()
        if now - self._flag_checked > 0.2:
            self._flag_checked = now
            self.enabled = os.path.exists(self.flag_path)
        return self.enabled

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself; does
        nothing while the tracer is off."""
        return _Span(self, name) if self.enabled else contextlib.nullcontext()

    def _begin(self) -> tuple[int, int | None, float]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _end(self, sid, parent, name, t0, counts):
        t1 = time.perf_counter()
        self._stack.pop()
        rec = [sid, parent, name, t0, t1, os.getpid(), counts]
        if self.sink_dir is None:
            self.spans.append(rec)
            return
        if self._sink_pid != os.getpid():  # first span in a forked worker
            self._sink = open(
                os.path.join(self.sink_dir, f"spans-{os.getpid()}.jsonl"), "a", buffering=1
            )
            self._sink_pid = os.getpid()
        self._sink.write(json.dumps(rec) + "\n")

    def wrap(self, fn, name, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*a, **k):
            if not tracer.on():
                return fn(*a, **k)
            sid, parent, t0 = tracer._begin()
            counts = None
            try:
                out = fn(*a, **k)
                counts = count(a, k, out) if count else None
                return out
            finally:
                tracer._end(sid, parent, name, t0, counts)

        return traced

    # -- installing ----------------------------------------------------------
    def install(self, targets=TARGETS) -> None:
        """Replace every target with a traced wrapper, in its defining module
        and in every loaded ``repro``/job module that imported it by name."""
        for modname, attr, name, count in targets:
            mod = importlib.import_module(modname)
            owner, _, meth = attr.rpartition(".")
            holder = getattr(mod, owner) if owner else mod
            orig = holder.__dict__[meth] if owner else getattr(mod, meth)
            wrapped = self.wrap(orig, name, count)
            self._patch(holder, meth, orig, wrapped)
            if not owner:
                for m in list(sys.modules.values()):
                    mname = getattr(m, "__name__", "")
                    if m is not mod and (mname.startswith("repro") or mname in (
                        "table2_accuracy", "usecase_dump"
                    )) and getattr(m, meth, None) is orig:
                        self._patch(m, meth, orig, wrapped)

    def _patch(self, holder, attr, orig, new):
        self._originals.append((holder, attr, orig))
        setattr(holder, attr, new)

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._originals):
            setattr(holder, attr, orig)
        self._originals.clear()


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.sid, self.parent, self.t0 = self.tracer._begin()
        return self

    def __exit__(self, *exc):
        self.tracer._end(self.sid, self.parent, self.name, self.t0, None)
        return False


def read_worker_spans(sink_dir: str) -> list[list]:
    """All spans the workers appended under ``sink_dir``."""
    out = []
    for fn in sorted(os.listdir(sink_dir)):
        if fn.startswith("spans-") and fn.endswith(".jsonl"):
            with open(os.path.join(sink_dir, fn)) as f:
                out.extend(json.loads(line) for line in f if line.strip())
    return out


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time per span name: duration minus the time its direct children
    cover. Children are found by parent id within one process."""
    child_time: dict[tuple[int, int], float] = defaultdict(float)
    for sid, parent, name, t0, t1, pid, _ in spans:
        if parent is not None:
            child_time[(pid, parent)] += t1 - t0
    out: dict[str, float] = defaultdict(float)
    for sid, parent, name, t0, t1, pid, _ in spans:
        out[name] += (t1 - t0) - child_time.get((pid, sid), 0.0)
    return dict(out)


def totals(spans: list[list]) -> tuple[dict, dict, dict]:
    """(inclusive seconds, call count, summed counters) per span name."""
    secs: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    for sid, parent, name, t0, t1, pid, c in spans:
        secs[name] += t1 - t0
        calls[name] += 1
        for key, v in (c or {}).items():
            counts[f"{name}.{key}"] += v
    return secs, calls, counts


def ancestors_named(spans: list[list], name: str) -> set[tuple[int, int]]:
    """(pid, id) of every span that has an ancestor called ``name``."""
    by_id = {(s[5], s[0]): s for s in spans}
    inside: dict[tuple[int, int], bool] = {}

    def has(key):
        if key in inside:
            return inside[key]
        s = by_id.get(key)
        parent = None if s is None or s[1] is None else (s[5], s[1])
        ok = parent is not None and parent in by_id and (
            by_id[parent][2] == name or has(parent)
        )
        inside[key] = ok
        return ok

    return {k for k in by_id if has(k)}


def link_to_items(spans: list[list], driver_pid: int, items=("workload.", "dump.snapshot", "select.item")) -> list[list]:
    """Spans with an 8th field: the driver item span each worker root span
    ran under (the innermost one open when it started). Worker processes
    cannot see the driver's span stack, so the link is made by time."""
    opened = [s for s in spans if s[5] == driver_pid and s[2].startswith(items)]
    out = []
    for s in spans:
        item = None
        if s[5] != driver_pid and s[1] is None:
            inside = [it for it in opened if it[3] <= s[3] <= it[4]]
            if inside:
                item = max(inside, key=lambda it: it[3])[0]
        out.append(list(s) + [item])
    return out
