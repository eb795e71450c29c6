"""Spark integration tests: chunk round-trips, the executor-side metric UDF
vs local computation, and Spark SQL aggregations checked against the DuckDB
oracle."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import sci_data
from repro.compressor import pipeline
from repro.core.model import RatioQualityModel
from repro.core.sampling import sample_error_report
from repro.oracle import assert_equivalent
from repro.sparklayer import (
    array_to_chunks,
    chunk_metrics,
    chunk_to_array,
    chunks_to_arrays,
)
from repro.sparklayer.chunks import batch_arrays

SECONDS = ["build_s", "estimate_s", "measure_s", "sample_s"]


@pytest.fixture(scope="module")
def chunks_df(spark):
    d = sci_data.generate("SCALE", "PRES", "test")
    return array_to_chunks(spark, "SCALE", "PRES", d, n_chunks=3).cache()


@pytest.fixture(scope="module")
def metrics_df(spark, chunks_df):
    return chunk_metrics(chunks_df, ["lorenzo", "interp"], [1e-3, 1e-2], seed=1).cache()


def test_chunk_roundtrip_exact(spark, chunks_df):
    d = sci_data.generate("SCALE", "PRES", "test")
    arrs = chunks_to_arrays(chunks_df)
    rebuilt = np.concatenate([arrs[("SCALE", "PRES", i)] for i in range(3)], axis=0)
    np.testing.assert_array_equal(rebuilt, d)


def test_chunk_schema(chunks_df):
    assert set(chunks_df.columns) == {
        "dataset", "field", "chunk_id", "dims", "dtype", "values",
    }
    row = chunks_df.first()
    arr = chunk_to_array(row.asDict())
    assert arr.dtype == np.float32


def test_chunking_single_chunk(spark):
    d = sci_data.generate("Brown", "pressure", "test")
    df = array_to_chunks(spark, "Brown", "pressure", d, n_chunks=1)
    assert df.count() == 1
    np.testing.assert_array_equal(chunk_to_array(df.first().asDict()), d)


def test_batch_arrays_reads_columns(chunks_df):
    """Column-wise batch decoding == row-wise ``chunk_to_array``."""
    pdf = chunks_df.toPandas()
    got = list(batch_arrays(pdf))
    assert [(ds, f, c) for ds, f, c, _ in got] == [
        ("SCALE", "PRES", int(c)) for c in pdf["chunk_id"]
    ]
    for (_, _, _, arr), (_, row) in zip(got, pdf.iterrows()):
        np.testing.assert_array_equal(arr, chunk_to_array(row))


def test_estimate_udf_matches_local(spark, chunks_df):
    """Executor-side model == driver-side model, chunk by chunk."""
    pdf = chunk_metrics(chunks_df, ["lorenzo"], [1e-2], seed=5).toPandas()
    arrs = chunks_to_arrays(chunks_df)
    assert len(pdf) == 3
    for _, r in pdf.iterrows():
        arr = arrs[(r["dataset"], r["field"], int(r["chunk_id"]))]
        local = RatioQualityModel(arr, "lorenzo", seed=5)
        est = local.estimate(local.abs_bound(1e-2))
        assert r["e_huff"] == pytest.approx(est["bitrate_huff"], rel=1e-9)
        assert r["e_ll"] == pytest.approx(est["bitrate_ll"], rel=1e-9)
        assert r["e_psnr"] == pytest.approx(est["psnr"], rel=1e-9)
        assert r["e_ssim"] == pytest.approx(est["ssim"], rel=1e-9)


def test_measure_udf_matches_local(spark, chunks_df):
    pdf = chunk_metrics(chunks_df, ["lorenzo"], [1e-2]).toPandas()
    arrs = chunks_to_arrays(chunks_df)
    assert len(pdf) == 3
    for _, r in pdf.iterrows():
        arr = arrs[(r["dataset"], r["field"], int(r["chunk_id"]))]
        d = np.asarray(arr, np.float64)
        eb = 1e-2 * float(d.max() - d.min())
        m = pipeline.measure(arr, "lorenzo", eb)
        assert r["eb_abs"] == eb
        assert r["m_huff"] == pytest.approx(m["bitrate_huff"], rel=1e-9)
        assert r["m_ll"] == pytest.approx(m["bitrate_ll"], rel=1e-9)
        assert r["m_psnr"] == pytest.approx(m["psnr"], rel=1e-9)
        assert r["m_ssim"] == pytest.approx(m["ssim"], rel=1e-9)


def test_metric_row_counts(metrics_df):
    # 3 chunks × 2 predictors × 2 ebs, estimate and measurement on one row
    assert metrics_df.count() == 12
    # the one-time sample report: once per (chunk, predictor)
    assert metrics_df.filter(F.col("sample_err").isNotNull()).count() == 6


def test_sample_reports_udf(spark, chunks_df):
    """The UDF's sample report == the driver-side ``sample_error_report``,
    on the first error-bound row of each chunk only."""
    pdf = chunk_metrics(chunks_df, ["lorenzo"], [1e-2, 1e-3], seed=0).toPandas()
    arrs = chunks_to_arrays(chunks_df)
    rep = pdf[pdf["sample_err"].notna()]
    assert len(rep) == 3
    assert (rep["eb_rel"] == 1e-2).all()
    for _, r in rep.iterrows():
        arr = arrs[(r["dataset"], r["field"], int(r["chunk_id"]))]
        local = sample_error_report(arr, "lorenzo", rate=0.01, seed=0)
        assert r["sample_err"] == local["sample_err"]
    # test-scale chunks are ~2.3k points, so the sampling floor dominates;
    # bench-scale fidelity (paper's 0.12%) is checked in the Table II run
    assert (rep["sample_err"] < 0.15).all()


def test_per_layer_seconds(metrics_df):
    """Each layer's time is a finite, non-negative column; the one-time
    costs sit on the first error-bound row of each (chunk, predictor)."""
    pdf = metrics_df.toPandas()
    secs = pdf[SECONDS].to_numpy(np.float64)
    assert np.isfinite(secs).all() and (secs >= 0).all()
    assert (pdf["measure_s"] > 0).all()
    first = pdf["sample_err"].notna()
    assert (pdf.loc[first, "build_s"] > 0).all()
    assert (pdf.loc[~first, ["build_s", "sample_s"]] == 0).all().all()


# ---------------------------------------------------------------------------
# Oracle-checked Spark SQL aggregations (the relational layer of the repro)
# ---------------------------------------------------------------------------
def test_mean_bitrate_per_group_vs_oracle(spark, metrics_df):
    out = (
        metrics_df.groupBy("predictor", "eb_rel")
        .agg(
            F.avg("e_huff").alias("mean_est_bitrate"),
            F.avg("m_huff").alias("mean_meas_bitrate"),
            F.count(F.lit(1)).alias("n"),
        )
    )
    assert_equivalent(
        out,
        """
        SELECT predictor, eb_rel,
               avg(e_huff) AS mean_est_bitrate,
               avg(m_huff) AS mean_meas_bitrate,
               count(*) AS n
        FROM metrics GROUP BY predictor, eb_rel
        """,
        metrics=metrics_df,
    )


def test_est_meas_ratio_spread_vs_oracle(spark, metrics_df):
    """The Table II aggregation shape: per field and predictor, the
    spread of measured/estimated bit-rate ratios over chunks and the mean
    sample error, from the one wide metric frame."""
    out = metrics_df.groupBy("dataset", "field", "predictor").agg(
        F.stddev_pop(F.col("m_huff") / F.col("e_huff") - F.lit(1.0)).alias("spread"),
        F.avg("sample_err").alias("sample_err"),
        F.count(F.lit(1)).alias("n"),
    )
    assert_equivalent(
        out,
        """
        SELECT dataset, field, predictor,
               stddev_pop(m_huff / e_huff - 1.0) AS spread,
               avg(sample_err) AS sample_err,
               count(*) AS n
        FROM metrics GROUP BY dataset, field, predictor
        """,
        metrics=metrics_df,
    )


def test_best_predictor_per_chunk_vs_oracle(spark, metrics_df):
    """Use-case-1 selection as SQL: per (chunk, eb), the predictor with the
    highest estimated PSNR."""
    out = (
        metrics_df.groupBy("chunk_id", "eb_rel")
        .agg(F.max_by("predictor", "e_psnr").alias("best_predictor"))
    )
    assert_equivalent(
        out,
        """
        SELECT chunk_id, eb_rel, arg_max(predictor, e_psnr) AS best_predictor
        FROM metrics GROUP BY chunk_id, eb_rel
        """,
        metrics=metrics_df,
    )


def test_weighted_field_bitrate_vs_oracle(spark, metrics_df):
    """Points-weighted per-field bit-rate (chunks differ in size)."""
    meas = metrics_df.filter(F.col("predictor") == "lorenzo")
    out = meas.groupBy("dataset", "field", "eb_rel").agg(
        (
            F.sum(F.col("m_huff") * F.col("n_points")) / F.sum("n_points")
        ).alias("wmean_bitrate")
    )
    assert_equivalent(
        out,
        """
        SELECT dataset, field, eb_rel,
               sum(m_huff * n_points) / sum(n_points) AS wmean_bitrate
        FROM metrics
        WHERE predictor = 'lorenzo'
        GROUP BY dataset, field, eb_rel
        """,
        metrics=metrics_df,
    )


def test_udf_determinism(spark, chunks_df):
    a = chunk_metrics(chunks_df, ["lorenzo"], [1e-3], seed=9).toPandas()
    b = chunk_metrics(chunks_df, ["lorenzo"], [1e-3], seed=9).toPandas()
    a = a.sort_values("chunk_id").reset_index(drop=True)
    b = b.sort_values("chunk_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a.drop(columns=SECONDS), b.drop(columns=SECONDS))
