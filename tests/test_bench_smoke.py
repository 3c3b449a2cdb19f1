"""Smoke test of the benchmark harness: one small, untraced cli-both round ends in a well-formed report."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_cli_both_small_round_reports_correct_metrics():
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", "cli-both", "--small", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {"correct", "attempted", "failed", "metrics"} <= report.keys()
    assert report["correct"] is True, proc.stderr[-2000:]
    assert report["failed"] == 0
    assert report["attempted"] > 0
    for name, unit in (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")):
        entry = report["metrics"][name]
        assert entry["unit"] == unit, name
        assert entry["value"] > 0, name
