"""Spark distribution layer.

Scientific fields are carved into chunks (slabs along axis 0 — the unit the
paper calls a "data partition": one MPI rank's share of a snapshot) and held
in a DataFrame with a binary payload column. Per-chunk work — building the
ratio-quality model, running the real compressor — executes inside Spark
executors in one Arrow-backed ``mapInPandas`` pass that puts the model's
estimate and the measured truth on the same row; everything downstream
(aggregation to per-field Table II rows) is Spark SQL over that one metric
DataFrame, checked against the DuckDB oracle in tests.
"""
from .chunks import CHUNK_SCHEMA, array_to_chunks, chunk_to_array, chunks_to_arrays  # noqa: F401
from .model_udf import chunk_metrics  # noqa: F401
