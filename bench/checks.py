"""Output checks of one run: every curve a round produced is one operation.

The checks compare against the independent oracle (``oracle.py``) and
against properties the model must have; none compares against a saved copy
of earlier output.  ``Reference`` holds what is computed once per run; the
``check_*`` functions return, for each curve of a round, the list of checks
it failed.
"""

import math

import numpy as np

import oracle
from workloads import ALPHA, GAMMA_R, M

Z_ORACLE = 5.0        # analytic vs oracle Monte Carlo, in standard errors
TOL_DOUBLED = 1e-6    # default nodes vs QuadratureSpec().doubled(), absolute
TOL_SCALE = 1e-12     # (R, beta) vs (2R, beta/2**alpha), absolute
TOL_GAP = 0.05        # |analytic - simulated| per CLI row
TOL_ORDER = 1e-12     # slack on orderings that hold exactly
TOL_CI = 1e-9         # relative, ci_halfwidth against its formula
ORACLE_STREAM = 0x6F7261  # keeps oracle draws apart from the simulator's (seed, trial) streams
CSV_COLUMNS = [
    "theta_db", "theta_linear", "p_cache", "p_sir_analytic", "p_total_analytic",
    "p_total_sim", "ci_halfwidth", "n_users", "gamma_r", "radius", "alpha", "beta",
    "trials", "seed",
]


def _model(curve):
    return {"n_users": curve["n_users"], "m": M, "gamma_r": GAMMA_R, "radius": curve["radius"],
            "alpha": ALPHA, "beta": curve["beta"], "si_model": curve["si_model"]}


class Reference:
    """Oracle estimates and fdd2d property values computed once per run."""

    def __init__(self, plan, seed, samples):
        theta_db = plan["theta_db"]
        self.oracle = []
        for k, (index, points_db) in enumerate(plan["oracle"]):
            p, se = oracle.mc_success(_model(plan["curves"][index]), 10.0 ** (np.asarray(points_db) / 10.0),
                                      samples, (ORACLE_STREAM, seed, k))
            self.oracle.append((index, [theta_db.index(db) for db in points_db], p, se))
        self.terms = [oracle.mode_terms(M, GAMMA_R, c["n_users"]) for c in plan["curves"]]
        self.scaled = self.doubled = None
        if plan["kind"] == "library":
            self.scaled, self.doubled = _library_properties(plan)


def _library_properties(plan):
    """The first curve at (2R, beta/2**alpha), and its first threshold at doubled nodes."""
    from fdd2d import (ChannelConfig, DiskConfig, ModelConfig, QuadratureSpec, build_zipf,
                       success_curve, success_probability)

    c = plan["curves"][0]
    profile = build_zipf(M, GAMMA_R)
    thetas = 10.0 ** (np.asarray(plan["theta_db"]) / 10.0)
    scaled = ModelConfig(c["n_users"], DiskConfig(2.0 * c["radius"]), profile,
                         ChannelConfig(ALPHA, c["beta"] / 2.0**ALPHA))
    cfg = ModelConfig(c["n_users"], DiskConfig(c["radius"]), profile, ChannelConfig(ALPHA, c["beta"]))
    doubled = success_probability(cfg, float(thetas[0]), QuadratureSpec().doubled(), c["si_model"])
    return success_curve(scaled, thetas, si_model=c["si_model"]).p_total, doubled.p_total


def _curve_checks(p_total, p_cache, terms):
    bad = []
    p = np.asarray(p_total)
    if not math.isclose(p_cache, terms["p_cache"], rel_tol=1e-12):
        bad.append(f"p_cache {p_cache!r} != P_hit/N {terms['p_cache']!r}")
    if np.any(p < p_cache - TOL_ORDER) or np.any(p > 1.0 + TOL_ORDER):
        bad.append("p_total outside [p_cache, 1]")
    if np.any(np.diff(p) > TOL_ORDER):
        bad.append("p_total increases with the threshold")
    return bad


def _oracle_checks(analytic, ref):
    for index, points, p, se in ref.oracle:
        if analytic[index] is None:
            continue
        for i, expected, err in zip(points, p, se):
            got = analytic[index][i]
            if abs(got - expected) > Z_ORACLE * err:
                yield index, f"threshold {i}: analytic {got:.6f} vs oracle {expected:.6f} +- {err:.2e}"


def check_library(plan, outputs, ref):
    """Failed checks per curve of a round that called ``success_curve`` directly."""
    failures = [[] for _ in plan["curves"]]
    if len(outputs) != len(plan["curves"]):
        return [[f"round returned {len(outputs)} curves"]] * len(plan["curves"])
    analytic = [out["p_total"] for out in outputs]
    for bad, out, terms in zip(failures, outputs, ref.terms):
        if len(out["p_total"]) != len(plan["theta_db"]):
            bad.append("wrong number of thresholds")
        else:
            bad += _curve_checks(out["p_total"], out["p_cache"], terms)
    for index, message in _oracle_checks(analytic, ref):
        failures[index].append(message)
    gap = np.max(np.abs(np.asarray(analytic[0]) - ref.scaled))
    if not gap <= TOL_SCALE:
        failures[0].append(f"(R, beta) vs (2R, beta/2^alpha) differ by {gap:.3e}")
    delta = abs(analytic[0][0] - ref.doubled)
    if not delta <= TOL_DOUBLED:
        failures[0].append(f"doubled-node delta {delta:.3e} > {TOL_DOUBLED}")
    return failures


def _group_rows(plan, outputs):
    """Rows of each planned curve, found by (run, n_users, beta); None when missing."""
    runs_of = {}
    for i, curve in enumerate(plan["curves"]):
        runs_of.setdefault(curve["run"], []).append(i)
    groups = [None] * len(plan["curves"])
    for run, indices in runs_of.items():
        rows = outputs[run]["rows"]
        if outputs[run]["exit"] != 0 or not rows or rows[0] != CSV_COLUMNS:
            continue
        if len(rows) - 1 != len(indices) * len(plan["theta_db"]):
            continue
        records = [dict(zip(CSV_COLUMNS, r)) for r in rows[1:]]
        for i in indices:
            c = plan["curves"][i]
            groups[i] = [r for r in records
                         if int(r["n_users"]) == c["n_users"] and float(r["beta"]) == c["beta"]]
    return groups


def check_cli(plan, outputs, ref):
    """Failed checks per curve of a round that ran the CLI in-process."""
    n_curves = len(plan["curves"])
    if len(outputs) != len(plan["runs"]):
        return [[f"round ran {len(outputs)} CLI invocations"]] * n_curves
    groups = _group_rows(plan, outputs)
    failures = [[] for _ in range(n_curves)]
    analytic = [None] * n_curves
    for i, (curve, rows, terms) in enumerate(zip(plan["curves"], groups, ref.terms)):
        bad = failures[i]
        if rows is None or [float(r["theta_db"]) for r in rows] != plan["theta_db"]:
            bad.append("exit code, CSV header, row count or thresholds wrong")
            continue
        analytic[i] = [float(r["p_total_analytic"]) for r in rows]
        bad += _curve_checks(analytic[i], float(rows[0]["p_cache"]), terms)
        if "trials" in curve:
            bad += _simulated_checks(curve, rows)
    for index, message in _oracle_checks(analytic, ref):
        failures[index].append(message)
    if len(plan["runs"]) > 1:
        _ordering_checks(plan, analytic, ref, failures)
    return failures


def _simulated_checks(curve, rows):
    bad = []
    samples = curve["trials"] * curve["n_users"]
    for r in rows:
        if int(r["trials"]) != curve["trials"] or int(r["seed"]) != curve["seed"]:
            bad.append("trials or seed column wrong")
            break
        p, ci = float(r["p_total_sim"]), float(r["ci_halfwidth"])
        if not math.isclose(ci, 1.96 * math.sqrt(p * (1.0 - p) / samples), rel_tol=TOL_CI, abs_tol=1e-15):
            bad.append(f"ci_halfwidth {ci!r} at theta_db={r['theta_db']} off its formula")
            break
        gap = abs(float(r["p_total_analytic"]) - p)
        if not gap <= TOL_GAP:
            bad.append(f"|analytic - simulated| = {gap:.4f} at theta_db={r['theta_db']}")
            break
    return bad


def _ordering_checks(plan, analytic, ref, failures):
    """More self-interference never helps; charging it once helps except when n_t = 1.

    Under ``single`` a full-duplex receiver with no interferer still pays
    one residual term, which ``per-interferer`` charges zero times, so
    ``single`` may trail by at most P(n_t = 1) * p_fdtr.
    """
    index = {(c["n_users"], c["beta"], c["si_model"]): i for i, c in enumerate(plan["curves"])}
    for (n, beta, si), i in index.items():
        if analytic[i] is None:
            continue
        p = np.asarray(analytic[i])
        for (n2, beta2, si2), j in index.items():
            if analytic[j] is None or n2 != n or j == i:
                continue
            q = np.asarray(analytic[j])
            if si2 == si and beta2 > beta and np.any(q > p + TOL_ORDER):
                failures[j].append(f"success rises from beta={beta} to beta={beta2}")
            if beta2 == beta and si == "per-interferer" and si2 == "single":
                terms = ref.terms[i]
                slack = n * terms["p_tx"] * (1.0 - terms["p_tx"]) ** (n - 1) * terms["p_fdtr"]
                if np.any(q < p - slack - TOL_ORDER):
                    failures[j].append(f"single trails per-interferer by more than {slack:.3e}")
