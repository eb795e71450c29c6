"""The three benchmark workloads and the measuring loop they share.

Why these workloads:

* ``table2_bench`` - the Table II job (``jobs/table2_accuracy.py`` ``main``)
  at bench scale, the repository's headline result. Spark chunk ingest and
  per-pass task overhead dominate it; the compressor is about a quarter of
  the work and the model about 1%.
* ``dump`` - the Fig. 14 dump study (``run_dump_study``) with the job's
  settings, I/O throttle off. Many short Spark jobs: it stresses per-job and
  per-task overhead, the write path, and the model's MSE inversion against
  trial-and-error (TAE) compressions. The only workload that writes files.
* ``select_eb`` - serial, driver-only, no Spark: for every Table II field and
  predictor, choose an error bound with the model (build, 7 estimates, two
  inversions) and by trial (``pipeline.measure`` at the same 7 bounds). The
  paper's Fig. 9 comparison; the only workload that runs interp and
  regression.

End-to-end metrics are defined on every workload. Per-layer metrics of a
layer a workload does not call read 0 on that workload.
"""
from __future__ import annotations

import json
import os
import statistics
import time

import numpy as np

import tracing

#: Set-up repetitions per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Model-path repetitions per select_eb item; the item's model time is
#: their median (one model path is ~10 ms, too short to time once).
MODEL_REPS = 3
#: Snapshots per dump pass: one from each of 8 equal strata of the job's
#: timestep range, so every seed covers early and late (harder) snapshots.
DUMP_SNAPSHOTS = 8
TARGET_PSNR = 56.0
#: The point-wise bound as the repository's own tests state it: float64
#: reconstruction may land one rounding step past eb.
EB_SLACK = 1 + 1e-9
ROOT = os.getcwd()

#: Bound-checked metrics. ``item_p80_s`` is only reported: a percentile
#: needs ten samples beyond it, and a run has 1 (table2), 24 (dump) or 51
#: (select_eb) items, so on two of the three workloads it is noise.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ratio_err_pct", "%"),
]

LAYER_NAMES = sorted(set(tracing.LAYER_OF.values()))

PER_LAYER = [
    ("predictors.compress_s", "s"), ("predictors.decompress_s", "s"),
    ("predictors.points", "count"),
    ("huffman.build_s", "s"), ("huffman.encode_s", "s"), ("huffman.symbols", "count"),
    ("huffman.alphabet", "count"), ("huffman.payload_bytes", "bytes"),
    ("rle.lossless_s", "s"), ("rle.bytes_in", "bytes"), ("rle.bytes_out", "bytes"),
    ("analysis.psnr_s", "s"), ("analysis.ssim_s", "s"),
    ("model.build_s", "s"), ("model.estimate_s", "s"), ("model.estimates", "count"),
    ("model.invert_s", "s"), ("model.invert_evals", "count"),
    ("model.build_over_compress", "ratio"),
    ("spark.jobs", "count"), ("spark.stages", "count"), ("spark.tasks", "count"),
    ("spark.tasks_failed", "count"), ("spark.task_busy_s", "s"), ("spark.idle_frac", "ratio"),
    ("spark.task_skew", "ratio"),
    ("chunks.ingest_s", "s"), ("chunks.bytes", "bytes"),
    ("dump.opt_s", "s"), ("dump.compress_s", "s"), ("dump.io_s", "s"),
    ("dump.tae_trials_per_chunk", "count"), ("dump.bytes", "bytes"),
    ("dump.psnr_misses", "count"), ("io.write_s", "s"), ("io.file_bytes", "bytes"),
    ("select.model_s", "s"), ("select.tae_s", "s"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
    *[(f"self.{layer}_s", "s") for layer in LAYER_NAMES],
    ("self.spark_tasks_s", "s"), ("self.driver_s", "s"),
]


def field_seed(spec, seed: int) -> int:
    """Seed 0 gives each field its canonical seed (the committed results)."""
    return spec.seed if seed == 0 else spec.seed + 1000 * seed


def eq20_pct(measured, estimated) -> float:
    from repro.core.accuracy import eq20_error

    return 100.0 * eq20_error(measured, estimated)


def percentile(xs, q) -> float:
    return float(np.percentile(np.asarray(xs, dtype=np.float64), q))


# ---------------------------------------------------------------------------
# Spark status: job/stage/task counts from the status tracker, task busy
# times from the event log (written only in traced runs).
# ---------------------------------------------------------------------------
def spark_counts(sc, group: str) -> dict:
    st = sc.statusTracker()
    stage_ids: set[int] = set()
    jobs = list(st.getJobIdsForGroup(group))
    for j in jobs:
        info = st.getJobInfo(j)
        if info is not None:
            stage_ids.update(info.stageIds)
    stages = tasks = failed = 0
    for s in stage_ids:
        si = st.getStageInfo(s)
        if si is not None and si.numCompletedTasks + si.numFailedTasks > 0:
            stages += 1
            tasks += si.numCompletedTasks
            failed += si.numFailedTasks
    return {"jobs": len(jobs), "stages": stages, "tasks": tasks, "tasks_failed": failed}


def event_log_tasks(event_dir: str, group: str, expect: int, timeout: float = 15.0) -> list:
    """(stage id, busy seconds) of every finished task of ``group``. The
    listener bus writes asynchronously, so wait until ``expect`` tasks are in."""
    deadline = time.perf_counter() + timeout
    while True:
        stage_group: dict[int, str] = {}
        tasks = []
        for fn in os.listdir(event_dir):
            with open(os.path.join(event_dir, fn)) as f:
                for line in f:
                    if '"SparkListenerJobStart"' in line:
                        ev = json.loads(line)
                        g = (ev.get("Properties") or {}).get("spark.jobGroup.id")
                        for s in ev.get("Stage IDs", []):
                            stage_group[s] = g
                    elif '"SparkListenerTaskEnd"' in line:
                        ev = json.loads(line)
                        info = ev["Task Info"]
                        tasks.append((ev["Stage ID"],
                                      (info["Finish Time"] - info["Launch Time"]) / 1000.0))
        mine = [t for t in tasks if stage_group.get(t[0]) == group]
        if len(mine) >= expect or time.perf_counter() > deadline:
            return mine
        time.sleep(0.2)


def spark_layer(bench, group: str, wall: float) -> dict:
    sc = bench.spark.sparkContext
    c = spark_counts(sc, group)
    tasks = event_log_tasks(bench.event_dir, group, c["tasks"] + c["tasks_failed"])
    busy = sum(b for _, b in tasks)
    by_stage: dict[int, list[float]] = {}
    for s, b in tasks:
        by_stage.setdefault(s, []).append(b)
    skew = max(
        (max(v) / statistics.median(v) for v in by_stage.values()
         if len(v) >= 4 and statistics.median(v) > 0),
        default=1.0,
    )
    return {
        "spark.jobs": c["jobs"], "spark.stages": c["stages"], "spark.tasks": c["tasks"],
        "spark.tasks_failed": c["tasks_failed"], "spark.task_busy_s": busy,
        "spark.idle_frac": 1.0 - busy / (wall * sc.defaultParallelism),
        "spark.task_skew": skew,
    }


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
class Table2:
    uses_spark = True

    def __init__(self, bench):
        import table2_accuracy

        self.bench = bench
        self.job = table2_accuracy
        self.corpus: list = []
        # results/*.csv stay untouched: main() returns the table it emits
        table2_accuracy.emit = lambda *args, **kwargs: None
        # the job's own build_corpus generates the fixed-seed fields; the
        # benchmark hands it the seeded ones through the same chunk ingest
        table2_accuracy.build_corpus = self._build_corpus

    def _build_corpus(self, spark, scale="bench", n_chunks=4):
        dfs = [self.job.array_to_chunks(spark, d, f, a, n_chunks) for d, f, a in self.corpus]
        out = dfs[0]
        for d in dfs[1:]:
            out = out.unionByName(d)
        return out

    def setup(self, rep):
        from repro import sci_data
        from repro.config import SHAPES

        spark = self.bench.start_spark()
        seed = self.bench.args.seed
        self.fields = [
            (s.dataset, s.field, s.gen(tuple(SHAPES["bench"][s.dataset]), field_seed(s, seed)))
            for s in sci_data.FIELDS
        ]
        # warm-up: the same job over one small field starts the Python
        # workers and compiles the query stages
        s = sci_data.FIELDS[0]
        self.corpus = [(s.dataset, s.field, s.gen(tuple(SHAPES["test"][s.dataset]), s.seed))]
        self.job.main(spark, "bench")

    def run_pass(self, i):
        spark = self.bench.spark
        spark.catalog.clearCache()  # else the previous pass's cached chunks are reused
        group = f"pass-{i}"
        spark.sparkContext.setJobGroup(group, "perfbench table2_bench")
        self.corpus = self.fields
        t0 = time.perf_counter()
        table = self.job.main(spark, "bench")
        wall = time.perf_counter() - t0
        return {"wall": wall, "items": [wall], "table": table, "group": group}

    def check(self, p):
        import pandas as pd
        from repro import sci_data

        table = p["table"]
        failures = []
        expect = [(s.dataset, s.field) for s in sci_data.FIELDS] + [("Average", "-")]
        has_ssim = {(s.dataset, s.field): s.has_ssim for s in sci_data.FIELDS}
        has_ssim[("Average", "-")] = True
        ref = None
        if self.bench.args.seed == 0:
            ref = pd.read_csv(os.path.join(ROOT, "results", "table2_accuracy_bench.csv"))
        cols = ["sample_err", "huff_err", "lossless_err", "huff_ll_err", "psnr_err"]
        ssim_cols = ["ssim_err", "ssim_dist_err"]
        got = list(zip(table["dataset"].astype(str), table["field"].astype(str)))
        if got != expect:
            return len(expect), len(expect), [f"row order {got} != {expect}"]
        for i, key in enumerate(expect):
            row = table.iloc[i]
            vals = row[cols].to_numpy(np.float64)
            ok = bool(np.all(np.isfinite(vals)) and np.all(vals >= 0))
            sv = row[ssim_cols].to_numpy(np.float64)
            ok &= bool(np.all(np.isfinite(sv)) if has_ssim[key] else np.all(np.isnan(sv)))
            if ref is not None:
                a = row[cols + ssim_cols].to_numpy(np.float64)
                b = ref.iloc[i][cols + ssim_cols].to_numpy(np.float64)
                # the committed table is rounded to 0.01
                ok &= bool(np.allclose(a, b, rtol=0, atol=0.01, equal_nan=True))
            if not ok:
                failures.append(f"table2 row {key}: {row.to_dict()}")
        return len(expect), len(failures), failures

    def accuracy(self, p):
        avg = p["table"].iloc[-1]
        return float(avg["huff_ll_err"]), float(avg["psnr_err"])

    def report(self, passes):
        avg = passes[-1]["table"].iloc[-1]
        c = spark_counts(self.bench.spark.sparkContext, passes[-1]["group"])
        out = {f"table2.{k}_pct": (float(avg[k]), "%", 17)
               for k in ("sample_err", "huff_err", "lossless_err", "ssim_err")}
        out.update({f"spark.{k}": (v, "count", 1) for k, v in c.items()})
        return out

    def layer_extra(self, p, spans):
        return {}


def psnr_misses(study) -> int:
    """Snapshots an in-situ method (tae, model) dumped below the target."""
    return int(((study["method"] != "traditional") & (study["snapshot_psnr"] < TARGET_PSNR)).sum())


class Dump:
    uses_spark = True

    def __init__(self, bench):
        import usecase_dump
        from repro.usecases import data_dump

        self.bench = bench
        self.dd = data_dump
        self.shape = tuple(usecase_dump.SHAPE)
        job_t = list(usecase_dump.TIMESTEPS)
        self.t_lo, self.t_hi = job_t[0], job_t[-1]
        self.items: list[dict] = []
        orig = data_dump.dump_snapshot
        tracer = bench.tracer

        def timed(spark, data, t, outdir, method, **kw):
            with tracer.span("dump.snapshot"):
                t0 = time.perf_counter()
                pdf = orig(spark, data, t, outdir, method, **kw)
                t1 = time.perf_counter()
            self.items.append({"t": int(t), "method": method, "t0": t0, "t1": t1,
                               "rows": pdf, "outdir": outdir})
            return pdf

        # run_dump_study looks dump_snapshot up in its module at call time
        data_dump.dump_snapshot = timed

    def setup(self, rep):
        spark = self.bench.start_spark()
        rng = np.random.default_rng(self.bench.args.seed)
        width = (self.t_hi - self.t_lo) / DUMP_SNAPSHOTS
        self.timesteps = [
            int(self.t_lo + i * width + rng.integers(0, int(width)))
            for i in range(DUMP_SNAPSHOTS)
        ]
        warm = os.path.join(self.bench.run_dir, f"dump-warm-{rep}")
        self.dd.run_dump_study(spark, [self.t_lo], (16, 32, 32), warm,
                               target_psnr_db=TARGET_PSNR, n_partitions=8)
        self.items = []

    def run_pass(self, i):
        spark = self.bench.spark
        group = f"pass-{i}"
        spark.sparkContext.setJobGroup(group, "perfbench dump")
        outdir = os.path.join(self.bench.run_dir, f"dump-{i}")
        self.items = []
        t0 = time.perf_counter()
        study = self.dd.run_dump_study(spark, self.timesteps, self.shape, outdir,
                                       target_psnr_db=TARGET_PSNR, n_partitions=8)
        wall = time.perf_counter() - t0
        items = self.items
        return {"wall": wall, "items": [it["t1"] - it["t0"] for it in items],
                "labels": [f"t{it['t']}/{it['method']}" for it in items],
                "dump_items": items, "study": study, "group": group}

    def _slabs(self, t):
        from repro.sci_data import rtm_snapshot
        from repro.sparklayer.chunks import chunk_rows, chunk_to_array

        rows = chunk_rows("RTM", str(t), rtm_snapshot(t, self.shape), 8)
        return {r["chunk_id"]: chunk_to_array(r) for r in rows}

    def check(self, p):
        """Every partition file decodes to within its error bound."""
        failures = []
        self._checked = {}
        self.worst = 0.0
        file_bytes = 0
        for it in p["dump_items"]:
            if it["t"] not in self._checked:
                self._checked[it["t"]] = self._slabs(it["t"])
            slabs = self._checked[it["t"]]
            ok = len(it["rows"]) == len(slabs)
            for r in it["rows"].itertuples():
                path = os.path.join(it["outdir"], f"t{it['t']}_{it['method']}_p{r.chunk_id}.bin")
                try:
                    rec = self.dd.read_partition_file(path)
                    file_bytes += os.path.getsize(path)
                    err = float(np.max(np.abs(rec - slabs[r.chunk_id].astype(np.float64))))
                except (OSError, ValueError, AssertionError, KeyError) as e:
                    failures.append(f"dump t={it['t']} {it['method']} p{r.chunk_id}: {e!r}")
                    ok = False
                    continue
                self.worst = max(self.worst, err / r.eb_abs)
                if not err <= r.eb_abs * EB_SLACK:
                    failures.append(f"dump t={it['t']} {it['method']} p{r.chunk_id}: "
                                    f"max err {err:.6g} > eb {r.eb_abs:.6g}")
                    ok = False
            it["ok"] = ok
        p["file_bytes"] = file_bytes
        n = len(p["dump_items"])
        return n, sum(not it["ok"] for it in p["dump_items"]), failures

    def accuracy(self, p):
        """The model method's estimates at the bounds it chose against what
        it dumped: Eq. 20 over each snapshot's partitions, averaged over
        snapshots (Table II's per-field-then-average form), for bit-rate
        (Huff+LL) and PSNR. Pooling all partitions instead lets the few
        coarse TAE partitions of the earliest snapshots decide the result."""
        from repro.core.model import RatioQualityModel

        br, q = [], []
        for it in p["dump_items"]:
            if it["method"] != "model":
                continue
            slabs = self._checked[it["t"]]
            m_br, e_br, m_q, e_q = [], [], [], []
            for r in it["rows"].itertuples():
                # the same model the dump's rank built (same data and seed)
                est = RatioQualityModel(slabs[r.chunk_id], "lorenzo",
                                        seed=it["t"] + r.chunk_id).estimate(r.eb_abs)
                m_br.append(8.0 * r.nbytes / r.n_points)
                e_br.append(est["bitrate_ll"])
                m_q.append(r.psnr)
                e_q.append(est["psnr"])
            br.append(eq20_pct(m_br, e_br))
            q.append(eq20_pct(m_q, e_q))
        return float(np.mean(br)), float(np.mean(q))

    def report(self, passes):
        p = passes[-1]
        st = p["study"]
        by = st.groupby("method")
        n = len(st)
        return {
            "dump_bytes": (float(st["nbytes"].sum()), "bytes", n),
            "file_bytes": (float(p["file_bytes"]), "bytes", n * 8),
            "psnr_misses": (psnr_misses(st), "count", n),
            "model_opt_s": (float(by["opt_seconds"].sum()["model"]), "s", n // 3),
            "tae_opt_s": (float(by["opt_seconds"].sum()["tae"]), "s", n // 3),
            "max_err_over_eb": (self.worst, "ratio", n * 8),
        }

    def layer_extra(self, p, spans):
        st = p["study"]
        # TAE trials: worker-side compressions during the tae dump calls,
        # minus the one real compression per chunk
        tae = [it for it in p["dump_items"] if it["method"] == "tae"]
        n_comp = sum(
            1 for s in spans if s[2] == "pipeline.compress"
            and any(it["t0"] <= s[3] <= it["t1"] for it in tae)
        )
        chunks = sum(len(it["rows"]) for it in tae)
        return {
            "dump.opt_s": float(st["opt_seconds"].sum()),
            "dump.compress_s": float(st["compress_seconds"].sum()),
            "dump.io_s": float(st["io_seconds"].sum()),
            "dump.tae_trials_per_chunk": n_comp / chunks - 1.0 if chunks else 0.0,
            "dump.bytes": float(st["nbytes"].sum()),
            "dump.psnr_misses": psnr_misses(st),
        }


class SelectEB:
    uses_spark = False
    PREDICTORS = ("lorenzo", "interp", "regression")

    def __init__(self, bench):
        self.bench = bench

    def setup(self, rep):
        from repro import sci_data
        from repro.config import SHAPES
        from repro.sparklayer.chunks import chunk_rows, chunk_to_array

        seed = self.bench.args.seed
        self.model_seed = 7 + seed
        # the first of the 4 chunks Table II cuts each field into
        self.fields = []
        for s in sci_data.FIELDS:
            full = s.gen(tuple(SHAPES["bench"][s.dataset]), field_seed(s, seed))
            row = chunk_rows(s.dataset, s.field, full, 4)[0]
            self.fields.append((s.dataset, s.field, np.array(chunk_to_array(row))))
        # warm-up: one item per predictor on a small field
        s = sci_data.FIELDS[0]
        small = s.gen(tuple(SHAPES["test"][s.dataset]), s.seed)
        for pred in self.PREDICTORS:
            self._item(small, pred)

    def _item(self, arr, pred):
        from repro.compressor import pipeline
        from repro.config import EB_SWEEP_REL
        from repro.core.model import RatioQualityModel

        span = self.bench.tracer.span
        times = []
        for _ in range(MODEL_REPS):
            with span("select.model_path"):
                t0 = time.perf_counter()
                m = RatioQualityModel(arr, pred, seed=self.model_seed)
                est = [m.estimate(m.abs_bound(e)) for e in EB_SWEEP_REL]
                inv = (m.error_bound_for_bitrate(2.0), m.error_bound_for_psnr(TARGET_PSNR))
                times.append(time.perf_counter() - t0)
        vrange = m.value_range
        ssim = arr.ndim in (2, 3)
        with span("select.tae_path"):
            t0 = time.perf_counter()
            meas = [pipeline.measure(arr, pred, e * vrange, with_ssim=ssim) for e in EB_SWEEP_REL]
            tae = time.perf_counter() - t0
        return {"model_s": statistics.median(times), "tae_s": tae, "est": est, "meas": meas,
                "inv": inv, "ebs": [e * vrange for e in EB_SWEEP_REL]}

    def run_pass(self, i):
        span = self.bench.tracer.span
        out = []
        t0 = time.perf_counter()
        for d, f, arr in self.fields:
            for pred in self.PREDICTORS:
                with span("select.item"):
                    r = self._item(arr, pred)
                r["key"] = f"{d}/{f}/{pred}"
                out.append(r)
        wall = time.perf_counter() - t0
        return {"wall": wall, "items": [r["model_s"] + r["tae_s"] for r in out],
                "labels": [r["key"] for r in out],
                "select": out}

    def check(self, p):
        """Every trial keeps the point-wise bound; every inversion is a
        finite positive bound."""
        failures = []
        self.worst = max(m["max_err"] / eb for r in p["select"] for eb, m in zip(r["ebs"], r["meas"]))
        for r in p["select"]:
            bad = [f"eb {eb!r}: max err {m['max_err']!r}"
                   for eb, m in zip(r["ebs"], r["meas"]) if not m["max_err"] <= eb * EB_SLACK]
            bad += [f"inverted eb {x!r}" for x in r["inv"] if not (np.isfinite(x) and x > 0)]
            if bad:
                failures.append(f"select {r['key']}: " + "; ".join(bad))
        return len(p["select"]), len(failures), failures

    def accuracy(self, p):
        br = [eq20_pct([m["bitrate_ll"] for m in r["meas"]], [e["bitrate_ll"] for e in r["est"]])
              for r in p["select"]]
        q = [eq20_pct([m["psnr"] for m in r["meas"]], [e["psnr"] for e in r["est"]])
             for r in p["select"]]
        return float(np.mean(br)), float(np.mean(q))

    def report(self, passes):
        sel = passes[-1]["select"]
        n = len(sel)
        model = sum(r["model_s"] for r in sel)
        tae = sum(r["tae_s"] for r in sel)
        return {
            "model_s": (model, "s", n),
            "tae_s": (tae, "s", n),
            "tae_over_model": (tae / model, "ratio", n),
            "select_err_pct": (self.accuracy(passes[-1])[0], "%", n),
            "max_err_over_eb": (self.worst, "ratio", 7 * n),
        }

    def layer_extra(self, p, spans):
        secs, _, _ = tracing.totals(spans)
        return {"select.model_s": secs.get("select.model_path", 0.0),
                "select.tae_s": secs.get("select.tae_path", 0.0)}


WORKLOADS = {"table2_bench": Table2, "dump": Dump, "select_eb": SelectEB}


# ---------------------------------------------------------------------------
# Measuring loop
# ---------------------------------------------------------------------------
def measure(bench, wl, t_start: float) -> dict:
    args = bench.args
    if wl.uses_spark:
        bench.configure_spark_env()
    setup_times = []
    t0 = t_start
    for rep in range(1 if bench.trace else SETUP_REPS):
        wl.setup(rep)
        t1 = time.perf_counter()
        setup_times.append(t1 - t0)
        t0 = t1

    result: dict = {"notes": [f"setup reps (s): {[round(x, 4) for x in setup_times]}"]}
    if wl.uses_spark:
        result["spark_conf"] = bench.spark_conf()

    if bench.trace:
        passes = [wl.run_pass(0)]
        flag = os.path.join(bench.span_dir, "on")
        bench.tracer.install()
        bench.tracer.enabled = True
        open(flag, "w").close()
        try:
            with bench.tracer.span(f"workload.{args.workload}"):
                passes.append(wl.run_pass(1))
        finally:
            os.remove(flag)
            bench.tracer.enabled = False
            bench.tracer.uninstall()
    else:
        begin = time.perf_counter()
        passes = []
        while True:
            passes.append(wl.run_pass(len(passes)))
            elapsed = time.perf_counter() - begin
            if elapsed + passes[-1]["wall"] > args.seconds:
                break

    checked = passes[-1:] if bench.trace else passes
    attempted = failed = 0
    failures: list[str] = []
    for p in checked:
        a, f, msgs = wl.check(p)
        attempted, failed = attempted + a, failed + f
        failures += msgs
    result.update(attempted=attempted, failed=failed, failures=failures,
                  correct=failed == 0)

    if bench.trace:
        result["metrics"], result["spans"] = layer_metrics(bench, wl, passes[0], passes[1])
        return result

    walls = [p["wall"] for p in passes]
    result["notes"].append(f"pass walls (s): {[round(w, 4) for w in walls]}")
    items = [x for p in passes for x in p["items"]]
    result["items"] = [[lab, x] for p in passes
                       for lab, x in zip(p.get("labels", [""] * len(p["items"])), p["items"])]
    acc = [wl.accuracy(p) for p in passes]
    result["metrics"] = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "item_p50_s": (percentile(items, 50), "s", len(items)),
        "ratio_err_pct": (statistics.median(a[0] for a in acc), "%", len(acc)),
    }
    report = wl.report(passes)
    report["item_p80_s"] = (percentile(items, 80), "s", len(items))
    report["psnr_err_pct"] = (statistics.median(a[1] for a in acc), "%", len(acc))
    report["fail_frac"] = (failed / max(1, attempted), "ratio", attempted)
    result["report"] = report
    return result


def layer_metrics(bench, wl, untraced, traced):
    """Per-layer metrics of the traced pass, and its spans for the report."""
    spans = list(bench.tracer.spans)
    driver_pid = os.getpid()
    if wl.uses_spark:
        spans += tracing.read_worker_spans(bench.span_dir)
    secs, calls, counts = tracing.totals(spans)
    selfs = tracing.self_times(spans)
    m = {name: 0.0 for name, _ in PER_LAYER}

    def s(name):
        return secs.get(name, 0.0)

    m.update({
        "predictors.compress_s": s("predictors.compress"),
        "predictors.decompress_s": s("predictors.decompress"),
        "predictors.points": counts.get("predictors.compress.points", 0),
        "huffman.build_s": s("huffman.build"),
        "huffman.encode_s": s("huffman.encode"),
        "huffman.symbols": counts.get("huffman.encode.symbols", 0),
        "huffman.alphabet": counts.get("huffman.build.alphabet", 0),
        "huffman.payload_bytes": counts.get("huffman.encode.payload_bytes", 0),
        "rle.lossless_s": s("rle.lossless"),
        "rle.bytes_in": counts.get("rle.lossless.bytes_in", 0),
        "rle.bytes_out": counts.get("rle.lossless.bytes_out", 0),
        "analysis.psnr_s": s("analysis.psnr"),
        "analysis.ssim_s": s("analysis.ssim"),
        "model.build_s": s("model.build"),
        "model.estimate_s": s("model.estimate"),
        "model.estimates": calls.get("model.estimate", 0),
        "model.invert_s": s("model.invert"),
        "chunks.ingest_s": s("chunks.ingest"),
        "chunks.bytes": counts.get("chunks.ingest.bytes", 0),
        "io.write_s": s("io.write"),
        "io.file_bytes": counts.get("io.write.file_bytes", 0),
    })
    inverts = calls.get("model.invert", 0)
    if inverts:
        inside = tracing.ancestors_named(spans, "model.invert")
        evals = sum(1 for sp in spans if sp[2].startswith("quality_model.sigma_e2")
                    and (sp[5], sp[0]) in inside)
        m["model.invert_evals"] = evals / inverts
    build_pts = counts.get("model.build.points", 0)
    comp_pts = counts.get("pipeline.compress.points", 0)
    if build_pts and comp_pts and s("pipeline.compress"):
        m["model.build_over_compress"] = (s("model.build") / build_pts) / (
            s("pipeline.compress") / comp_pts)

    wall = traced["wall"]
    worker_root = sum(sp[4] - sp[3] for sp in spans if sp[5] != driver_pid and sp[1] is None)
    if wl.uses_spark:
        m.update(spark_layer(bench, traced["group"], wall))
        m["self.spark_tasks_s"] = m["spark.task_busy_s"] - worker_root
    m.update(wl.layer_extra(traced, spans))
    for name, v in selfs.items():
        layer = tracing.LAYER_OF.get(name.split(".")[0])
        if layer is not None:
            m[f"self.{layer}_s"] += v
        elif name.split(".")[0] in ("workload", "select"):
            m["self.driver_s"] += v
    m.update({
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced["wall"],
        "trace.overhead_s": wall - untraced["wall"],
        "trace.overhead_frac": (wall - untraced["wall"]) / untraced["wall"],
    })
    units = dict(PER_LAYER)
    return {k: (m[k], units[k], 1) for k, _ in PER_LAYER}, tracing.link_to_items(spans, driver_pid)
