"""One round of a workload in a fresh interpreter; prints one JSON line.

Usage: python3 bench/round.py PLAN_JSON LAUNCH_MONOTONIC WORKDIR MODE

MODE is ``plain`` (end-to-end figures), ``traced`` (spans around fdd2d's
public functions) or ``pool`` (plain, and also counts the worker processes
the simulator starts).  ``setup_s`` runs from LAUNCH_MONOTONIC, taken by the
parent just before it started this interpreter, until fdd2d is imported and
the round's inputs are built.
"""

import contextlib
import csv
import io
import json
import os
import resource
import sys
import threading
import time

import numpy as np


def _child_pids(parent):
    """Processes whose parent is ``parent``, read from /proc."""
    pids = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == parent:
            pids.add(int(entry))
    return pids


class _WorkerWatch:
    """Polls for child processes while the simulator runs; keeps the most seen at once."""

    def __init__(self, interval=0.05):
        self.most = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, args=(interval,), daemon=True)

    def _poll(self, interval):
        me = os.getpid()
        while not self._stop.wait(interval):
            self.most = max(self.most, len(_child_pids(me)))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def _build(plan, workdir):
    """Import fdd2d and make the round's inputs; returns the timed callable."""
    if plan["kind"] == "library":
        import fdd2d
        from fdd2d import ChannelConfig, DiskConfig, ModelConfig, build_zipf

        from workloads import ALPHA, GAMMA_R, M

        thetas = 10.0 ** (np.asarray(plan["theta_db"]) / 10.0)
        profile = build_zipf(M, GAMMA_R)
        configs = [
            (ModelConfig(c["n_users"], DiskConfig(c["radius"]), profile, ChannelConfig(ALPHA, c["beta"])),
             c["si_model"])
            for c in plan["curves"]
        ]

        def timed():
            # looked up at call time, so a traced round times it; no spec is
            # passed, so the library's own default nodes are timed
            return [fdd2d.success_curve(cfg, thetas, si_model=si) for cfg, si in configs]

        def collect(curves):
            return [{"p_cache": float(c.p_cache), "p_total": c.p_total.tolist()} for c in curves]

        return timed, collect

    from fdd2d.cli import main

    argvs = [argv + ["--out", os.path.join(workdir, f"run{i}.csv")] for i, argv in enumerate(plan["runs"])]

    def timed():
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                codes.append(code or 0)
        return codes

    def collect(codes):
        runs = []
        for code, argv in zip(codes, argvs):
            with open(argv[-1], newline="", encoding="utf-8") as fh:
                runs.append({"exit": code, "rows": list(csv.reader(fh))})
        return runs

    return timed, collect


def main():
    plan_text, launched, workdir, mode = sys.argv[1:5]
    plan = json.loads(plan_text)
    timed, collect = _build(plan, workdir)
    setup_s = time.monotonic() - float(launched)

    tracer = None
    if mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    watch = _WorkerWatch() if mode == "pool" else contextlib.nullcontext()

    cpu0 = os.times()
    start = time.perf_counter()
    with watch:
        raw = timed()
    wall_s = time.perf_counter() - start
    cpu1 = os.times()
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "process_cpu_s": sum(cpu1[:4]) - sum(cpu0[:4]),
        "children_cpu_s": (cpu1[2] + cpu1[3]) - (cpu0[2] + cpu0[3]),
        "outputs": collect(raw),
    }
    if mode == "pool":
        result["pool_workers"] = watch.most
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write(os.path.join(workdir, "spans.csv"))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
