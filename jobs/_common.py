"""The Spark session of the table jobs (``jobs/run_tables.py``)."""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def build_session(app: str) -> SparkSession:
    """Mirror conftest.py's session settings for standalone jobs.

    PYSPARK_SUBMIT_ARGS must be set before the JVM gateway launches
    (getOrCreate), since spark.driver.memory is not honoured post-launch.
    """
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '16g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    return (
        SparkSession.builder.appName(app)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )

