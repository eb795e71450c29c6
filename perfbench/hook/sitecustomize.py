"""Loaded by every Python process whose PYTHONPATH holds this directory: the
benchmark puts it on the path of Spark's Python workers in traced runs only.

With PERFBENCH_TRACE_DIR set, it installs the benchmark's span tracer around
the program's public functions, so worker-side layer calls are timed the
same way as driver-side ones. Spans are recorded only while the file
``<PERFBENCH_TRACE_DIR>/on`` exists.
"""
import os
import sys

_trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
if _trace_dir:
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import tracing

    tracing.Tracer(sink_dir=_trace_dir, flag_path=os.path.join(_trace_dir, "on")).install()
