"""Repository benchmark: the Table II job, the Fig. 14 dump study and
model-vs-trial error-bound selection, measured end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload {table2_bench,dump,select_eb} \
        --seed N --seconds S --trace {0,1}

Every workload is a closed loop with one client: the next pass starts when
the previous one has finished, and passes run while the next one is expected
to end within ``--seconds`` (at least one pass always runs). ``--seed`` only
changes the generated inputs. Human-readable lines (machine, every metric
with its unit and sample count, output checks) go to stdout; the last stdout
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics, the self
time per layer and the tracing overhead.

Everything the run writes (Spark scratch, dump files, worker spans, the JSON
report) goes under ``.perfbench_out/`` in the working directory; the
per-process scratch is removed before exit.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("table2_bench", "dump", "select_eb")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def machine_info() -> dict:
    """What the numbers were measured on. L3 size and memory are read, not
    measured: bytes moved are computed from array sizes."""
    info = {"nproc": os.cpu_count()}
    try:
        with open("/proc/meminfo") as f:
            info["mem_total"] = next(line.split(":")[1].strip() for line in f if line.startswith("MemTotal"))
    except (OSError, StopIteration):
        info["mem_total"] = None
    l3 = None
    cache = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache):
        for idx in sorted(os.listdir(cache)):
            try:
                with open(os.path.join(cache, idx, "level")) as f:
                    if f.read().strip() == "3":
                        with open(os.path.join(cache, idx, "size")) as g:
                            l3 = g.read().strip()
            except OSError:
                continue
    info["l3"] = l3
    info["python"] = sys.version.split()[0]
    for pkg in ("numpy", "pandas", "pyarrow", "pyspark"):
        try:
            info[pkg] = __import__(pkg).__version__
        except ImportError:
            info[pkg] = None
    info["git_sha"] = git_sha()
    return info


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        return None
    return None


class Bench:
    """Run-wide state: arguments, scratch directories, the driver-side
    tracer and (for the Spark workloads) the session."""

    def __init__(self, args, run_dir):
        self.args = args
        self.run_dir = run_dir
        self.trace = bool(args.trace)
        self.span_dir = os.path.join(run_dir, "spans")
        self.event_dir = os.path.join(run_dir, "events")
        for d in (run_dir, self.span_dir, self.event_dir, os.path.join(run_dir, "tmp")):
            os.makedirs(d, exist_ok=True)
        import tracing

        self.tracer = tracing.Tracer()
        self.spark = None
        self.cores = min(4, os.cpu_count() or 1)

    # -- Spark ---------------------------------------------------------------
    def configure_spark_env(self):
        """Environment the JVM and its Python workers inherit. Must run
        before the first session starts."""
        paths = [os.path.join(ROOT, "src")]
        if self.trace:
            paths.append(os.path.join(HERE, "hook"))
            os.environ["PERFBENCH_TRACE_DIR"] = self.span_dir
        os.environ["PYTHONPATH"] = os.pathsep.join(paths)
        tmp = os.path.join(self.run_dir, "tmp")
        os.environ["TMPDIR"] = tmp
        os.environ["SPARK_LOCAL_DIRS"] = os.path.join(self.run_dir, "spark-local")
        # every JVM (launcher and driver): temp files inside the checkout,
        # and no hsperfdata file under /tmp
        os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
        conf = {
            "spark.driver.host": "127.0.0.1",
            "spark.ui.enabled": "false",
            "spark.ui.showConsoleProgress": "false",
            "spark.local.dir": os.environ["SPARK_LOCAL_DIRS"],
        }
        if self.trace:
            conf["spark.eventLog.enabled"] = "true"
            conf["spark.eventLog.dir"] = "file://" + self.event_dir
            conf["spark.eventLog.rolling.enabled"] = "false"
            conf["spark.eventLog.compress"] = "false"
        args = ["--master", f"local[{self.cores}]", "--driver-memory", "2g"]
        for k, v in conf.items():
            args += ["--conf", f"{k}={v}"]
        os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(shlex.quote(a) for a in args + ["pyspark-shell"])

    def start_spark(self):
        """(Re)start the session through the jobs' own helper. A restart
        keeps the JVM but builds a new SparkContext and new Python workers."""
        from _common import get_spark

        if self.spark is not None:
            self.spark.stop()
        self.spark = get_spark("perfbench")
        self.spark.sparkContext.setLogLevel("ERROR")
        return self.spark

    def spark_conf(self) -> dict:
        keep = ("spark.master", "spark.driver.memory", "spark.sql.shuffle.partitions",
                "spark.sql.execution.arrow.pyspark.enabled", "spark.eventLog.enabled",
                "spark.default.parallelism", "spark.app.name")
        conf = dict(self.spark.sparkContext.getConf().getAll())
        out = {k: conf[k] for k in keep if k in conf}
        out["defaultParallelism"] = self.spark.sparkContext.defaultParallelism
        out["spark.version"] = self.spark.version
        return out

    def stop_spark(self):
        """Stop the session and the JVM, and wait for the JVM to exit."""
        if self.spark is None:
            return
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        self.spark.stop()
        self.spark = None
        if gateway is not None:
            proc = getattr(gateway, "proc", None)
            gateway.shutdown()
            if proc is not None:
                proc.stdin.close()
                proc.wait(timeout=60)
            SparkContext._gateway = None
            SparkContext._jvm = None


def fmt_metric(name, value, unit, n):
    return f"  {name:<28} {value:>18.10g} {unit:<6} (n={n})"


def run(args) -> int:
    if not (os.path.isdir(os.path.join(ROOT, "src", "repro"))
            and os.path.isfile(os.path.join(ROOT, "jobs", "table2_accuracy.py"))):
        print("perfbench: run from the repository root (src/repro and jobs/ not found)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "jobs")]
    run_dir = os.path.join(OUT, f"run-{os.getpid()}")
    bench = Bench(args, run_dir)
    try:
        import workloads

        wl = workloads.WORKLOADS[args.workload](bench)
        result = workloads.measure(bench, wl, T_START)
    finally:
        bench.stop_spark()
        shutil.rmtree(run_dir, ignore_errors=True)
    result["machine"] = machine_info()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        metrics = result["metrics"]
    else:
        result["metrics"]["peak_rss_mb"] = (peak_rss_mb, "MB", 1)
        # every end-to-end metric, in BENCHMARK.json order
        metrics = {name: result["metrics"][name] for name, _ in workloads.END_TO_END}

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("machine: " + json.dumps(result["machine"]))
    if result.get("spark_conf"):
        print("spark: " + json.dumps(result["spark_conf"]))
    for line in result.get("notes", []):
        print(line)
    print("metrics:")
    for name, (value, unit, n) in metrics.items():
        print(fmt_metric(name, value, unit, n))
    if result.get("report"):
        print("report (not bound-checked):")
        for name, (value, unit, n) in result["report"].items():
            print(fmt_metric(name, value, unit, n))
    fail_frac = result["failed"] / max(1, result["attempted"])
    print(f"checks: attempted={result['attempted']} failed={result['failed']} "
          f"fail_frac={fail_frac:.6g} correct={result['correct']}")
    for msg in result.get("failures", [])[:20]:
        print("  FAIL " + msg)

    os.makedirs(OUT, exist_ok=True)
    report_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report_path, "w") as f:
        json.dump(result, f)
    print(f"report written to {os.path.relpath(report_path, ROOT)}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args()))
