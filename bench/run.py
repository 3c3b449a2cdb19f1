"""Benchmark of fdd2d: time-to-solution, set-up and memory per workload, with output checks.

Usage, from the root of the repository:

    python3 bench/run.py --workload analytic-radius-sweep --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another

Each round runs in a fresh interpreter (``bench/round.py``), so every round
pays the same imports and builds the same caches; rounds repeat until
``--seconds`` have passed.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end medians over the rounds; with
``--trace 1`` they are the per-layer figures of a traced run.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
from workloads import WORKLOADS, plan as make_plan  # noqa: E402

WORK = os.path.join(ROOT, ".bench_work")
ROUND_TIMEOUT_S = 100
ORACLE_SAMPLES = 100_000

UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "analytic.laplace_interference.first.s": "s",
    "analytic.laplace_interference.repeat.s": "s",
    "analytic.laplace_interference.calls": "count",
    "analytic.success_curve.calls": "count",
    "analytic.success_curve.s": "s",
    "analytic.points_per_s": "1/s",
    "geometry.link_distance_nodes.calls": "count",
    "geometry.link_distance_nodes.s": "s",
    "quadrature.spec_builds": "count",
    "modes.compute_mode_probabilities.s": "s",
    "modes.transmitter_count_pmf.s": "s",
    "popularity.build_zipf.calls": "count",
    "popularity.build_zipf.s": "s",
    "simulator.sample_realization.s": "s",
    "simulator.classify_modes.s": "s",
    "simulator.link_sir.s": "s",
    "simulator.trial_success.s": "s",
    "simulator.trials_per_s": "1/s",
    "simulator.pool.workers": "count",
    "simulator.pool.cpu_s": "s",
    "cli.parse_args.s": "s",
    "cli.run.s": "s",
    "cli.rows_per_s": "1/s",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
}
# per-layer figures taken as they are from the traced rounds' span summaries
TRACED_AS_IS = (
    "analytic.laplace_interference.first.s", "analytic.laplace_interference.repeat.s",
    "analytic.success_curve.calls", "analytic.success_curve.s",
    "geometry.link_distance_nodes.calls", "geometry.link_distance_nodes.s",
    "quadrature.spec_builds", "modes.compute_mode_probabilities.s", "modes.transmitter_count_pmf.s",
    "popularity.build_zipf.calls", "popularity.build_zipf.s",
    "simulator.sample_realization.s", "simulator.classify_modes.s", "simulator.link_sir.s",
    "simulator.trial_success.s", "cli.parse_args.s", "cli.run.s",
)


def cores():
    return len(os.sched_getaffinity(0))


def cycle(workload, trace):
    """(mode, workers) of the rounds that repeat until the time is up.

    The traced simulator runs on one worker so that every span is in one
    process; an untraced round at the same worker count gives the tracing
    overhead, and a round at the workload's own count gives the pool figures.
    """
    if not trace:
        return [("plain", cores())]
    if workload == "cli-both":
        return [("traced", 1), ("plain", 1), ("pool", cores())]
    return [("traced", cores()), ("pool", cores())]


def run_round(plan, mode, workers, rdir):
    """One fresh interpreter; returns its JSON result, or None if it failed."""
    os.makedirs(rdir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    env["FD_D2D_THREADS"] = str(workers)
    args = [sys.executable, os.path.join(HERE, "round.py"), json.dumps(plan)]
    launched = time.monotonic()
    # a session of its own, so that a round and its pool workers can be ended together
    proc = subprocess.Popen(args + [repr(launched), rdir, mode], cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"round timed out after {ROUND_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"round exited {proc.returncode}:\n{stderr[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    result.update(mode=mode, workers=workers, spans=os.path.join(rdir, "spans.csv"))
    return result


def check_round(plan, result, ref):
    """Number of curves (operations) of one round that failed."""
    if result is None:
        return len(plan["curves"])
    check = checks.check_library if plan["kind"] == "library" else checks.check_cli
    failures = check(plan, result["outputs"], ref)
    for curve, bad in zip(plan["curves"], failures):
        for message in bad:
            print(f"check failed for {curve}: {message}", file=sys.stderr)
    return sum(1 for bad in failures if bad)


def end_to_end(results):
    return {name: statistics.median(r[name] for r in results) for name in UNITS}


def per_layer(plan, results):
    """Per-layer medians over the traced rounds, plus pool and process figures."""
    traced = [r for r in results if r["mode"] == "traced"]
    untraced = [r for r in results if r["mode"] != "traced"]
    same_workers = [r for r in untraced if traced and r["workers"] == traced[0]["workers"]]
    own = [r for r in untraced if r["workers"] == cores()]

    def med(rounds, fn):
        values = [fn(r) for r in rounds]
        return statistics.median(values) if values else 0.0

    def span(r, name):
        return r["layers"].get(name, 0)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    def rows(r):
        return sum(len(o["rows"]) - 1 for o in r["outputs"] if "rows" in o)

    out = {name: med(traced, lambda r, name=name: span(r, name)) for name in TRACED_AS_IS}
    out["analytic.laplace_interference.calls"] = med(traced, lambda r: span(
        r, "analytic.laplace_interference.first.calls") + span(r, "analytic.laplace_interference.repeat.calls"))
    out["analytic.points_per_s"] = med(traced, lambda r: rate(
        span(r, "analytic.success_curve.points"), span(r, "analytic.success_curve.s")))
    out["simulator.trials_per_s"] = med(traced, lambda r: rate(
        plan.get("trials", 0), span(r, "simulator.run_experiment.s")))
    out["cli.rows_per_s"] = med(traced, lambda r: rate(rows(r), span(r, "cli.run.s")))
    out["simulator.pool.workers"] = med(own, lambda r: r.get("pool_workers", 0))
    out["simulator.pool.cpu_s"] = med(own, lambda r: r["children_cpu_s"])
    out["process.cpu_s"] = med(own, lambda r: r["process_cpu_s"])
    out["trace.overhead_s"] = med(traced, lambda r: r["wall_s"]) - med(same_workers, lambda r: r["wall_s"])
    return out


def run_workload(workload, seed, seconds, trace, small):
    plan = make_plan(workload, seed, small)
    run_dir = os.path.join(WORK, f"run-{os.getpid()}-{workload}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    results = []
    start = time.monotonic()
    try:
        while not results or time.monotonic() - start < seconds:
            for mode, workers in cycle(workload, trace):
                rdir = os.path.join(run_dir, f"round{len(results)}")
                results.append(run_round(plan, mode, workers, rdir))
                if results[-1] is not None:
                    print(f"{workload} round {len(results) - 1} ({mode}, {workers} workers): "
                          f"setup {results[-1]['setup_s']:.3f} s, wall {results[-1]['wall_s']:.3f} s, "
                          f"peak RSS {results[-1]['peak_rss_mb']:.1f} MB", file=sys.stderr)
        ref = checks.Reference(plan, seed, ORACLE_SAMPLES // 5 if small else ORACLE_SAMPLES)
        failed = sum(check_round(plan, r, ref) for r in results)
        done = [r for r in results if r is not None]
        traced = [r for r in done if r["mode"] == "traced"]
        if traced:
            shutil.move(traced[-1]["spans"], os.path.join(WORK, f"spans-{workload}.csv"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted = len(results) * len(plan["curves"])
    if not done:
        return attempted, failed, None
    if trace:
        values, units = per_layer(plan, done), LAYER_UNITS
    else:
        values, units = end_to_end(done), UNITS
    return attempted, failed, {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="small inputs and one round: a quick self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fdd2d", "__init__.py")):
        print(f"fdd2d sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    seconds = 0.0 if args.small else args.seconds

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m = run_workload(name, args.seed, seconds, args.trace, args.small)
        attempted, failed = attempted + a, failed + f
        if m is None:
            print(f"{name}: no round finished; no metrics", file=sys.stderr)
            return 1
        for metric, entry in m.items():
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = entry
            print(f"{key} = {entry['value']:.6g} {entry['unit']}", file=sys.stderr)
    print(f"attempted {attempted} operations, {failed} failed", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
