"""Per-chunk ratio-quality modeling beside ground-truth compression, as one
Arrow ``mapInPandas`` pass over a chunk DataFrame.

``chunk_metrics`` runs, for each chunk and predictor, the paper's model (one
1% sample, then per-error-bound estimates), the real SZ3-lite compressor at
the same bounds (the trial-and-error unit of work) and the Table II "Sample
Err." report. It emits one row per (chunk, predictor, eb) carrying the
estimated (``e_*``) and measured (``m_*``) metrics side by side, so the
model-vs-truth comparison is plain Spark SQL over one frame with no join.
The per-layer seconds columns feed the overhead study (Fig. 9 / Table E1).
"""
from __future__ import annotations

import time
from typing import Iterable, Iterator, Sequence

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from ..compressor import pipeline
from ..core.model import RatioQualityModel
from ..core.sampling import sample_error_report
from .chunks import batch_arrays

__all__ = ["METRIC_SCHEMA", "chunk_metrics"]

#: metric column suffix → key of the estimate / measurement dicts
METRICS = {"huff": "bitrate_huff", "ll": "bitrate_ll", "p0": "p0", "psnr": "psnr", "ssim": "ssim"}

METRIC_SCHEMA = T.StructType(
    [
        T.StructField("dataset", T.StringType(), False),
        T.StructField("field", T.StringType(), False),
        T.StructField("chunk_id", T.IntegerType(), False),
        T.StructField("predictor", T.StringType(), False),
        T.StructField("eb_rel", T.DoubleType(), False),
        T.StructField("eb_abs", T.DoubleType(), False),
        T.StructField("n_points", T.LongType(), False),
        *[
            T.StructField(f"{side}_{m}", T.DoubleType(), m == "ssim")
            for side in ("e", "m")
            for m in METRICS
        ],
        T.StructField("sample_err", T.DoubleType(), True),
        T.StructField("build_s", T.DoubleType(), False),
        T.StructField("estimate_s", T.DoubleType(), False),
        T.StructField("measure_s", T.DoubleType(), False),
        T.StructField("sample_s", T.DoubleType(), False),
    ]
)


def chunk_metrics(
    chunks: DataFrame,
    predictors: Sequence[str],
    ebs_rel: Sequence[float],
    sample_rate: float = 0.01,
    seed: int = 0,
) -> DataFrame:
    """Model estimate and measured truth per (chunk, predictor, error bound).

    The one-time costs of a (chunk, predictor) — the model build and the
    sample report — sit on its first error-bound row (``build_s``,
    ``sample_s``, ``sample_err``) and are 0 / null on the others, so a group
    sum of ``build_s + estimate_s`` is the full model cost and ``avg`` of
    ``sample_err`` counts each chunk once. SSIM is measured only for 2D/3D
    chunks (NaN otherwise).
    """
    preds = list(predictors)
    ebs = [float(e) for e in ebs_rel]

    def run(batches: Iterable[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            out = []
            for dataset, field, cid, arr in batch_arrays(pdf):
                ssim_ok = arr.ndim in (2, 3)
                for p in preds:
                    t0 = time.perf_counter()
                    model = RatioQualityModel(arr, p, sample_rate=sample_rate, seed=seed)
                    t1 = time.perf_counter()
                    rep = sample_error_report(arr, p, rate=sample_rate, seed=seed)
                    once = dict(
                        sample_err=rep["sample_err"],
                        build_s=t1 - t0,
                        sample_s=time.perf_counter() - t1,
                    )
                    for ebr in ebs:
                        eb_abs = model.abs_bound(ebr)
                        t0 = time.perf_counter()
                        est = model.estimate(eb_abs)
                        t1 = time.perf_counter()
                        m = pipeline.measure(arr, p, eb_abs, with_ssim=ssim_ok)
                        t2 = time.perf_counter()
                        row = dict(
                            dataset=dataset, field=field, chunk_id=cid, predictor=p,
                            eb_rel=ebr, eb_abs=eb_abs, n_points=int(arr.size),
                            estimate_s=t1 - t0, measure_s=t2 - t1, **once,
                        )
                        row.update({f"e_{c}": est[k] for c, k in METRICS.items()})
                        row.update({f"m_{c}": m[k] for c, k in METRICS.items()})
                        out.append(row)
                        once = dict(sample_err=None, build_s=0.0, sample_s=0.0)
            yield pd.DataFrame(out, columns=METRIC_SCHEMA.fieldNames())

    return chunks.mapInPandas(run, schema=METRIC_SCHEMA)
