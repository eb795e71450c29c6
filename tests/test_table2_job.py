"""The Table II job end to end: ``jobs/table2_accuracy.main`` reproduces the
committed test-scale table from one right-sized Spark pass."""
import os

import numpy as np
import pandas as pd
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GROUP = "test-table2-job"


@pytest.fixture(scope="module")
def run(spark):
    """``main(spark, "test")`` under its own job group → (table, completed
    tasks of every stage that ran, in stage order)."""
    sc = spark.sparkContext
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(os.path.join(ROOT, "jobs"))
        import table2_accuracy

        # results/*.csv stay untouched
        mp.setattr(table2_accuracy, "emit", lambda *args, **kwargs: None)
        sc.setJobGroup(GROUP, "table2_accuracy.main at test scale")
        try:
            table = table2_accuracy.main(spark, "test")
        finally:
            for key in ("spark.jobGroup.id", "spark.job.description",
                        "spark.job.interruptOnCancel"):
                sc.setLocalProperty(key, None)
    st = sc.statusTracker()
    stage_ids = sorted({s for j in st.getJobIdsForGroup(GROUP) for s in st.getJobInfo(j).stageIds})
    infos = [st.getStageInfo(s) for s in stage_ids]
    tasks = [i.numCompletedTasks for i in infos if i is not None and i.numCompletedTasks > 0]
    return table, tasks


def test_main_reproduces_committed_table(run):
    got, _ = run
    ref = pd.read_csv(os.path.join(ROOT, "results", "table2_accuracy_test.csv"))
    assert list(got.columns) == list(ref.columns)
    assert list(zip(got["dataset"], got["field"])) == list(zip(ref["dataset"], ref["field"]))
    num = list(ref.columns[2:])
    # the committed table is rounded to 0.01
    assert np.allclose(
        got[num].to_numpy(np.float64), ref[num].to_numpy(np.float64),
        rtol=0, atol=0.01, equal_nan=True,
    )


def test_udf_stage_runs_one_task_per_core(spark, run):
    """The first stage (chunk ingest → per-chunk UDF → partial aggregate, no
    shuffle before it) runs at most ``defaultParallelism`` tasks, not one
    per chunk (17 fields × 4 chunks)."""
    _, tasks = run
    assert tasks, "no stage of the job group ran"
    assert 1 <= tasks[0] <= spark.sparkContext.defaultParallelism
