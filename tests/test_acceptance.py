"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run as ``pytest tests/test_acceptance.py -v -s`` to see every line as it
completes.  Criteria 6 and 7 pin qualitative expectations at specific
thresholds that the model's own ground truth contradicts; they are asserted
exactly as stated and report the measured values either way.
"""

import os
import subprocess
import sys
import time

import numpy as np

from fdd2d import (
    FDTR,
    HDRX,
    ChannelConfig,
    DiskConfig,
    ModelConfig,
    QuadratureSpec,
    SimConfig,
    build_zipf,
    classify_modes,
    compute_mode_probabilities,
    laplace_interference,
    link_distance_nodes,
    simulate_points,
    success_curve,
    success_probability_cache,
)
from oracles import integrate_1d, mc_laplace, pdf_interferer_distance, pdf_link_distance, refine_until

DISK30 = DiskConfig(30.0)
CHANNEL = ChannelConfig(alpha=4.0, beta=1e-5)


def _report(num, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {detail}")


def test_criterion_1_mode_probability_identities():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 2001))
        gamma = float(rng.uniform(0.0, 3.0))
        n_users = int(rng.integers(1, m + 1))
        profile = build_zipf(m, gamma)
        mp = compute_mode_probabilities(profile, n_users)
        total = mp.p_sr + mp.p_sr_hdtx + mp.p_fdtr + mp.p_hdtx + mp.p_hdrx + mp.p_ho
        worst = max(
            worst,
            abs(total - 1.0),
            abs(mp.p_fdtr - (mp.p_bfd + mp.p_tnfd)),
            abs(mp.p_tx - (mp.p_sr_hdtx + mp.p_hdtx + mp.p_fdtr)),
        )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    _report(1, ok, f"max identity deviation {worst:.2e} over 200 random configs in {elapsed:.2f}s")
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_2_mode_frequencies_vs_request_monte_carlo():
    t0 = time.perf_counter()
    profile = build_zipf(1000, 1.2)
    n_users = 20
    trials = 1_000_000
    rng = np.random.default_rng(1002)
    counts = np.zeros(7, dtype=np.int64)
    for start in range(0, trials, 200_000):
        block = min(200_000, trials - start)
        requests = np.searchsorted(profile.p_hit_prefix, rng.random((block, n_users))) + 1
        modes, _ = classify_modes(requests, n_users)
        # one uniformly chosen user per request vector keeps the samples
        # i.i.d., making the binomial standard error exact
        picked = modes[np.arange(block), rng.integers(0, n_users, block)]
        counts += np.bincount(picked, minlength=7)
    mp = compute_mode_probabilities(profile, n_users)
    expected = np.array([mp.p_sr, mp.p_sr_hdtx, mp.p_bfd, mp.p_tnfd, mp.p_hdrx, mp.p_hdtx, mp.p_ho])
    freq = counts / trials
    sigmas = np.sqrt(expected * (1 - expected) / trials)
    z_scores = (freq - expected) / sigmas
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(np.abs(z_scores) < 3.0)) and elapsed < 60.0
    _report(2, ok, f"max |z| = {np.abs(z_scores).max():.2f} across 7 modes, 1e6 vectors, {elapsed:.1f}s")
    assert np.all(np.abs(z_scores) < 3.0), z_scores
    assert elapsed < 60.0


def test_criterion_3_distance_law_normalization():
    t0 = time.perf_counter()
    worst_link = 0.0
    for frac in (0.0, 0.3, 0.7, 0.99):
        q = frac * DISK30.radius

        def density_mass(spec, q=q):
            n = spec.nodes("zi")
            near = integrate_1d(lambda z: pdf_link_distance(z, q, DISK30), 0.0, DISK30.radius - q, n)
            rim = 0.0
            if q > 0:
                rim = integrate_1d(
                    lambda z: pdf_link_distance(z, q, DISK30),
                    DISK30.radius - q,
                    DISK30.radius + q,
                    n,
                )
            return near + rim

        value, _ = refine_until(density_mass, QuadratureSpec(), levels=("zi",), rel_tol=1e-9)
        worst_link = max(worst_link, abs(value - 1.0))
        z, wts = link_distance_nodes(q, DISK30, 24)
        worst_link = max(worst_link, abs(wts.sum() - 1.0))

    rng = np.random.default_rng(1003)
    worst_pair = 0.0
    for _ in range(5):
        v, t = rng.uniform(0.05, 1.0, size=2)

        def angle_integrand(phi, v=v, t=t):
            w = np.sqrt(v**2 + t**2 - 2 * v * t * np.cos(phi))
            return pdf_interferer_distance(w, v, t) * (v * t * np.sin(phi) / w)

        mass = integrate_1d(angle_integrand, 1e-12, np.pi - 1e-12, 64)
        worst_pair = max(worst_pair, abs(mass - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_link < 1e-8 and worst_pair < 1e-8 and elapsed < 1.0
    _report(
        3,
        ok,
        f"link-law worst |mass-1| = {worst_link:.2e}, pair-law worst = {worst_pair:.2e}, {elapsed:.2f}s",
    )
    assert worst_link < 1e-8
    assert worst_pair < 1e-8
    assert elapsed < 1.0


def test_criterion_4_laplace_transform_anchors():
    t0 = time.perf_counter()
    cfg = ModelConfig(10, DISK30, build_zipf(1000, 1.2), CHANNEL)
    worst_zero = max(
        abs(laplace_interference(0.0, delta, n_t, cfg) - 1.0)
        for delta in (HDRX, FDTR)
        for n_t in (1, 4)
    )
    worst_single = max(
        abs(laplace_interference(s, delta, 1, cfg) - 1.0)
        for delta in (HDRX, FDTR)
        for s in (0.1, 1.0, 10.0, 1000.0)
    )
    cfg0 = ModelConfig(10, DISK30, cfg.profile, ChannelConfig(alpha=4.0, beta=0.0))
    worst_beta0 = max(
        abs(
            laplace_interference(s, FDTR, n_t, cfg0)
            - laplace_interference(s, HDRX, n_t, cfg0)
        )
        for s in (0.5, 5.0)
        for n_t in (2, 5)
    )
    s_grid = [0.1, 1.0, 10.0, 100.0, 1000.0]
    n_grid = [1, 2, 3, 5, 8]
    monotone = True
    for delta in (HDRX, FDTR):
        table = np.array(
            [[laplace_interference(s, delta, n, cfg) for n in n_grid] for s in s_grid]
        )
        monotone &= bool(np.all(np.diff(table, axis=0) <= 1e-12))
        monotone &= bool(np.all(np.diff(table, axis=1) <= 1e-12))
    elapsed = time.perf_counter() - t0
    ok = worst_zero < 1e-6 and worst_single < 1e-6 and worst_beta0 < 1e-6 and monotone and elapsed < 600
    _report(
        4,
        ok,
        f"|L(0)-1| = {worst_zero:.1e}, |L(s;1)-1| = {worst_single:.1e}, "
        f"beta=0 split = {worst_beta0:.1e}, monotone = {monotone}, {elapsed:.1f}s",
    )
    assert worst_zero < 1e-6
    assert worst_single < 1e-6
    assert worst_beta0 < 1e-6
    assert monotone
    assert elapsed < 600


def test_criterion_5_laplace_transform_vs_monte_carlo_oracle():
    t0 = time.perf_counter()
    cfg = ModelConfig(10, DISK30, build_zipf(1000, 1.2), CHANNEL)
    worst_z = 0.0
    lines = []
    ss = (0.1, 1.0, 10.0)
    for n_t in (2, 5):
        for delta in (HDRX, FDTR):
            # one oracle run per (delta, n_t) draws the samples every s shares
            oracle = mc_laplace(
                ss, delta, n_t, DISK30.radius, CHANNEL.alpha, CHANNEL.beta,
                n_samples=10_000_000, seed=1005,
            )
            for s, (mean, sem) in zip(ss, oracle):
                value = laplace_interference(s, delta, n_t, cfg)
                z = abs(value - mean) / sem
                worst_z = max(worst_z, z)
                lines.append(f"{delta}/n_t={n_t}/s={s}: z={z:.2f}")
    elapsed = time.perf_counter() - t0
    ok = worst_z < 3.0 and elapsed < 1800
    _report(5, ok, f"worst oracle z-score {worst_z:.2f} over 12 cells at 1e7 samples, {elapsed:.0f}s")
    assert worst_z < 3.0, "; ".join(lines)
    assert elapsed < 1800


def test_criterion_6_analytic_vs_network_simulation():
    t0 = time.perf_counter()
    cfg = ModelConfig(10, DISK30, build_zipf(1000, 1.2), CHANNEL)
    thetas = 10.0 ** (np.arange(-10, 31, 2) / 10.0)
    analytic = success_curve(cfg, thetas)
    sim = SimConfig(trials=200_000, master_seed=1006)
    with simulate_points([cfg], sim, thetas) as points:
        simulated, _ = next(points)
    gap = np.abs(analytic.p_total - simulated.p_total)
    max_gap = float(gap.max())
    floor = success_probability_cache(cfg)
    analytic_tail = float(analytic.p_total[-1] - floor)
    sim_tail = float(simulated.p_total[-1] - floor)
    non_increasing = bool(
        np.all(np.diff(analytic.p_total) <= 1e-12) and np.all(np.diff(simulated.p_total) <= 0)
    )
    elapsed = time.perf_counter() - t0
    agree = max_gap < 0.05
    asymptote = abs(analytic_tail) < 0.01 and abs(sim_tail) < 0.01
    _report(
        6,
        agree and non_increasing and asymptote,
        f"max |analytic-sim| = {max_gap:.4f} (limit 0.05), non-increasing = {non_increasing}, "
        f"30dB excess over P_hit/N: analytic {analytic_tail:+.4f}, simulated {sim_tail:+.4f} "
        f"(limit 0.01), {elapsed:.0f}s",
    )
    assert max_gap < 0.05
    assert non_increasing
    assert elapsed < 3600
    # the lone-transmitter binomial mass keeps an interference-free success
    # term alive at every threshold, so neither curve can settle on P_hit/N
    # for this configuration; asserted as stated regardless
    assert abs(analytic_tail) < 0.01, (
        f"analytic high-threshold excess over P_hit/N is {analytic_tail:+.4f}; the n_t=1 "
        f"term contributes f(1)*(P_HDRX+P_FDTR) which does not vanish as theta grows"
    )
    assert abs(sim_tail) < 0.01, (
        f"simulated high-threshold excess over P_hit/N is {sim_tail:+.4f}; receivers whose "
        f"only transmitter is their server succeed at any threshold"
    )


def test_criterion_7_user_count_crossover():
    t0 = time.perf_counter()
    profile = build_zipf(1000, 1.2)
    theta_low, theta_high = 0.1, 1000.0
    totals = {}
    for n in (5, 10, 20, 40):
        cfg = ModelConfig(n, DISK30, profile, CHANNEL)
        curve = success_curve(cfg, [theta_low, theta_high])
        totals[n] = curve.p_total
    low_ok = totals[40][0] > totals[5][0]
    high_ok = totals[40][1] < totals[5][1]
    elapsed = time.perf_counter() - t0
    _report(
        7,
        low_ok and high_ok,
        f"-10dB: P_s(40)={totals[40][0]:.4f} vs P_s(5)={totals[5][0]:.4f} (want 40 above), "
        f"+30dB: {totals[40][1]:.4f} vs {totals[5][1]:.4f} (want 40 below), {elapsed:.0f}s",
    )
    assert high_ok
    assert elapsed < 1800
    # interference already dominates at -10 dB for this geometry: the curves
    # do cross, but at -26.2 dB; asserted at the stated threshold regardless
    assert low_ok, (
        f"P_s(N=40)={totals[40][0]:.4f} < P_s(N=5)={totals[5][0]:.4f} at -10 dB; the model's "
        f"own simulation ranks them the same way, the crossover sits at -26.2 dB"
    )


def test_criterion_8_zipf_exponent_ordering():
    t0 = time.perf_counter()
    disk = DiskConfig(40.0)
    theta_low = 0.1
    values = []
    for gamma in (0.4, 0.8, 1.2):
        cfg = ModelConfig(20, disk, build_zipf(1000, gamma), CHANNEL)
        values.append(success_curve(cfg, [theta_low]).p_total[0])
    elapsed = time.perf_counter() - t0
    increasing = values[0] < values[1] < values[2]
    ok = increasing and elapsed < 1800
    _report(8, ok, "low-threshold P_s by gamma_r: " + ", ".join(f"{v:.4f}" for v in values) + f", {elapsed:.0f}s")
    assert increasing
    assert elapsed < 1800


def test_criterion_9_deterministic_csv(tmp_path):
    t0 = time.perf_counter()
    args = [
        sys.executable, "-m", "fdd2d.cli",
        "--mode", "both", "--n-users", "8", "--theta-db", "-10:30:10",
        "--trials", "4000", "--seed", "1009",
        "--quad-nodes", "v=12,t=12,z0=12,angle=16,zi=12",
    ]
    # the subprocesses import the checkout's package, installed or not
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for name, workers in (("a.csv", "2"), ("b.csv", "2"), ("c.csv", "1")):
        out = tmp_path / name
        env = dict(os.environ, FD_D2D_THREADS=workers, PYTHONPATH=pythonpath)
        result = subprocess.run(
            args + ["--out", str(out)], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        outputs.append(out.read_bytes())
    elapsed = time.perf_counter() - t0
    identical = outputs[0] == outputs[1] == outputs[2]
    ok = identical and elapsed < 300
    _report(9, ok, f"3 runs (repeat + worker counts 2,2,1) byte-identical = {identical}, {elapsed:.0f}s")
    assert identical
    assert elapsed < 300
