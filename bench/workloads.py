"""The benchmark's workloads: inputs made from the seed, and their oracle points.

A plan is plain JSON, so the parent can hand it to a fresh interpreter for
each round and check the round's outputs against the same plan afterwards.
"""

import numpy as np

WORKLOADS = ("analytic-radius-sweep", "analytic-users-sweep", "cli-both")
SI_MODELS = ("per-interferer", "single")

M = 1000
GAMMA_R = 1.2
ALPHA = 4.0
BETA = 1e-5
CLI_RADIUS = 30.0


def _theta_db(small):
    start, stop, step = (-10, 30, 10) if small else (-10, 30, 1)
    return f"{start}:{stop}:{step}", [float(x) for x in np.arange(start, stop + step, step)]


def plan(workload, seed, small=False):
    """Inputs of one round of ``workload``; the same seed gives the same plan.

    ``curves`` lists every curve a round must produce, one operation each,
    by its model parameters (and, for the CLI, the index of the run that
    writes it).  ``oracle`` lists (curve index, thresholds in dB) points
    that the independent Monte Carlo estimates.
    """
    grid, theta_db = _theta_db(small)
    if workload == "analytic-radius-sweep":
        # One radius per tenth of 10..100 m, placed by the seed: every radius
        # builds its own quadrature evaluator.
        n = 2 if small else 10
        rng = np.random.default_rng(seed)
        radii = [float(r) for r in 10.0 + 90.0 * (np.arange(n) + rng.random(n)) / n]
        curves = [
            {"n_users": 20, "radius": r, "beta": BETA, "si_model": SI_MODELS[0]} for r in radii
        ]
        oracle = [(0, [-10.0, 0.0, 10.0, 20.0]), (n - 1, [-10.0, 0.0, 10.0, 20.0])]
        return {"kind": "library", "theta_db": theta_db, "curves": curves, "oracle": oracle}

    if workload == "analytic-users-sweep":
        users = [25, 50] if small else [25, 50, 100, 200, 400]
        betas = [1e-5, 1e-3]
        runs, curves = [], []
        for run, si in enumerate(SI_MODELS):
            runs.append([
                "--mode", "analytic", "--radius", str(CLI_RADIUS), "--n-users", str(users[0]),
                "--sweep", "n_users=" + ",".join(map(str, users)),
                "--sweep", "beta=" + ",".join(map(repr, betas)),
                "--theta-db", grid, "--si-model", si,
            ])
            curves += [
                {"n_users": n, "radius": CLI_RADIUS, "beta": b, "si_model": si, "run": run}
                for n in users for b in betas
            ]

        def index(n_users, beta, si_model):
            return next(i for i, c in enumerate(curves)
                        if (c["n_users"], c["beta"], c["si_model"]) == (n_users, beta, si_model))

        oracle = [(index(25, 1e-3, "single"), [-10.0, 0.0, 10.0]),
                  (index(50, 1e-5, "per-interferer"), [-10.0, 0.0])]
        return {"kind": "cli", "theta_db": theta_db, "runs": runs, "curves": curves, "oracle": oracle}

    if workload == "cli-both":
        users = [10, 40]
        trials = 2048 if small else 4096
        runs = [[
            "--mode", "both", "--radius", str(CLI_RADIUS), "--n-users", str(users[0]),
            "--sweep", "n_users=" + ",".join(map(str, users)),
            "--theta-db", grid, "--trials", str(trials), "--seed", str(seed),
        ]]
        curves = [
            {"n_users": n, "radius": CLI_RADIUS, "beta": BETA, "si_model": SI_MODELS[0],
             "trials": trials, "seed": seed, "run": 0}
            for n in users
        ]
        oracle = [(0, [-10.0, 0.0, 10.0]), (1, [-10.0, 0.0])]
        return {"kind": "cli", "theta_db": theta_db, "runs": runs, "curves": curves,
                "oracle": oracle, "trials": trials * len(users)}

    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
