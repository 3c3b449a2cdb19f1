"""Self-test of the benchmark, in about a minute: python3 bench/selftest.py

- Runs every workload at small size, untraced and traced, on two seeds, and
  asserts that no operation failed and that every metric BENCHMARK.json
  names is printed with its unit.
- Asserts that cli-both writes the same CSV at one worker and at all cores.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys

from run import HERE, ROOT, WORK, cores
from workloads import WORKLOADS, plan


def bench(seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all", "--small",
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result, wanted):
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result
    for workload in WORKLOADS:
        for metric in wanted:
            entry = result["metrics"].get(f"{workload}.{metric['name']}")
            assert entry is not None, f"{workload}: {metric['name']} not printed"
            assert entry["unit"] == metric["unit"], f"{workload}: {metric['name']} in {entry['unit']}"
            assert isinstance(entry["value"], (int, float)), entry


def csv_at(workers, argv, path):
    env = dict(os.environ, FD_D2D_THREADS=str(workers),
               PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "fdd2d.cli", *argv, "--out", path],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_metrics(bench(1, 0), spec["end_to_end"])
    check_metrics(bench(1, 1), spec["per_layer"])
    check_metrics(bench(2, 0), spec["end_to_end"])

    out = os.path.join(WORK, "selftest")
    os.makedirs(out, exist_ok=True)
    try:
        argv = plan("cli-both", 1, small=True)["runs"][0]
        csv_at(1, argv, os.path.join(out, "one.csv"))
        csv_at(cores(), argv, os.path.join(out, "all.csv"))
        assert filecmp.cmp(os.path.join(out, "one.csv"), os.path.join(out, "all.csv"), shallow=False), \
            "cli-both CSV differs between one worker and all cores"
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
