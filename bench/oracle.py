"""Independent oracle for the benchmark's output checks.

Nothing here imports fdd2d or the repository's tests.  The closed-form
quantities are computed from their definitions with plain Python sums, and
the SIR part of the success probability is estimated by an event-level Monte
Carlo of the model: a binomial transmitter count, disk distances drawn from
polar coordinates, Rayleigh fading on every link, and the residual
self-interference term of a full-duplex receiver.
"""

import math

import numpy as np


def zipf_weights(m, gamma_r):
    """Request probability of each of ``m`` contents, most popular first."""
    weights = [k ** -gamma_r for k in range(1, m + 1)]
    total = math.fsum(weights)
    return [w / total for w in weights]


def mode_terms(m, gamma_r, n_users):
    """``P_hit/N``, ``p_tx``, ``p_hdrx`` and ``p_fdtr`` of a uniformly chosen user.

    User ``u`` caches content ``u``.  It receives when its request lands in
    another user's cache (probability ``P_hit - rho_u``), and it transmits
    when at least one of the other ``N - 1`` users requests content ``u``.
    A receiver that also transmits is a full-duplex transceiver (FDTR); one
    that does not is a half-duplex receiver (HDRX).
    """
    rho = zipf_weights(m, gamma_r)[:n_users]
    p_hit = math.fsum(rho)
    nobody_else = [(1.0 - r) ** (n_users - 1) for r in rho]
    return {
        "p_cache": p_hit / n_users,
        "p_tx": math.fsum(1.0 - q for q in nobody_else) / n_users,
        "p_hdrx": math.fsum((p_hit - r) * q for r, q in zip(rho, nobody_else)) / n_users,
        "p_fdtr": math.fsum((p_hit - r) * (1.0 - q) for r, q in zip(rho, nobody_else)) / n_users,
    }


def _disk_offset(rng, radius, size):
    return radius * np.sqrt(rng.random(size))


def _distance_to_disk_point(rng, radius, offset):
    """Distance from a point at ``offset`` from the center to a uniform disk point."""
    r = _disk_offset(rng, radius, offset.shape)
    ang = 2.0 * np.pi * rng.random(offset.shape)
    return np.hypot(r * np.cos(ang) - offset, r * np.sin(ang))


def _receiver_sir(rng, size, n_users, p_tx, radius, alpha, beta, full_duplex, si_model):
    """SIR of ``size`` receivers of one kind; 0 when no transmitter is active.

    The model draws the transmitter count from Binomial(N, p_tx) independent
    of the receiver; a draw of 0 leaves the receiver without a server, so it
    fails at every threshold.  All interferers of one receiver share one
    offset ``t`` from the center, with independent bearings and link
    distances: this is the geometry the model's transform averages over.
    """
    n_tx = rng.binomial(n_users, p_tx, size)
    n_int = np.maximum(n_tx - 1, 0)
    v = _disk_offset(rng, radius, size)
    t = _disk_offset(rng, radius, size)
    width = max(int(n_int.max()), 1)
    active = np.arange(width)[None, :] < n_int[:, None]
    tt = np.broadcast_to(t[:, None], active.shape)
    z = _distance_to_disk_point(rng, radius, tt)
    phi = np.pi * rng.random(active.shape)
    w = np.sqrt(v[:, None] ** 2 + tt**2 - 2.0 * v[:, None] * tt * np.cos(phi))
    gain = rng.standard_exponential(active.shape)
    interference = np.sum(np.where(active, gain * (z / w) ** alpha, 0.0), axis=1)
    if full_duplex:
        z0 = _distance_to_disk_point(rng, radius, v)
        n_si = n_int if si_model == "per-interferer" else 1
        interference = interference + beta * z0**alpha * n_si
    signal = rng.standard_exponential(size)
    with np.errstate(divide="ignore"):
        sir = np.where(interference > 0, signal / interference, np.inf)
    return np.where(n_tx > 0, sir, 0.0)


def mc_success(config, thetas, samples, seed, chunk=5_000):
    """Monte Carlo ``p_total`` and its standard error at each threshold.

    ``config`` holds ``n_users``, ``m``, ``gamma_r``, ``radius``, ``alpha``,
    ``beta`` and ``si_model``.  Each receiver kind gets ``samples`` draws;
    the two estimates are combined with the kind probabilities, so the
    standard error is that of a stratified mean.
    """
    terms = mode_terms(config["m"], config["gamma_r"], config["n_users"])
    thetas = np.asarray(thetas, dtype=np.float64)
    rng = np.random.default_rng(seed)
    p_sir = np.zeros(thetas.size)
    var = np.zeros(thetas.size)
    for kind, full_duplex in (("p_hdrx", False), ("p_fdtr", True)):
        hits = np.zeros(thetas.size)
        done = 0
        while done < samples:
            size = min(chunk, samples - done)
            sir = _receiver_sir(
                rng, size, config["n_users"], terms["p_tx"], config["radius"],
                config["alpha"], config["beta"], full_duplex, config["si_model"],
            )
            hits += np.sum(sir[None, :] >= thetas[:, None], axis=1)
            done += size
        q = hits / samples
        p_sir += terms[kind] * q
        var += terms[kind] ** 2 * q * (1.0 - q) / samples
    return terms["p_cache"] + p_sir, np.sqrt(var)
