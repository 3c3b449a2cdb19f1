"""Reference routes used to cross-check the package.

- Reference densities, samplers and integrator: the conditional link and
  interferer distance densities, uniform-disk and distance samplers, a
  1-D Gauss-Legendre integrator on scipy's Legendre roots, and
  :func:`refine_until`, which doubles a quadrature spec's node counts until
  successive estimates agree.
- Monte Carlo oracles of the interference transform and of the SIR success
  event, and the two-point distance CDF of the disk.
- The per-trial network simulator that the package's block kernel is
  checked against: :func:`sample_realization` draws one network from its
  trial's generator, :func:`link_sir` and :func:`trial_success` evaluate
  it, :func:`block_stats` counts over a range of trials one at a time, and
  :func:`run_trial` evaluates one network at one threshold.
- The allocating closed-form transmitter-count sum :func:`count_sum` that
  the package's in-place ``_count_sum`` must equal bit for bit, and
  :func:`package_count_sum`, which runs the package's on a copy.

The samplers and Monte Carlo oracles draw raw geometry directly (polar disk
draws, explicit angle draws), and the integrator does not use the package's
quadrature or node helpers, so agreement between these estimates and the
library is a genuine dual-route check.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import roots_legendre

from fdd2d import (
    SI_MODELS,
    SI_PER_INTERFERER,
    ModelConfig,
    Mode,
    QuadratureWarning,
    classify_modes,
    sample_request,
)
from fdd2d.simulator import CACHE_MODES, FD_MODES, RECEIVING_MODES


class QuadratureError(ValueError):
    """Integrand returned a non-finite value."""


@lru_cache(maxsize=None)
def _gauss_legendre(nodes):
    """Gauss-Legendre nodes and weights on [-1, 1], cached per node count."""
    return roots_legendre(nodes)


def integrate_1d(f: Callable, a: float, b: float, nodes: int) -> float:
    """Gauss-Legendre estimate of the integral of ``f`` over [a, b].

    ``f`` is called once with the full node array and must evaluate
    elementwise (a scalar return is broadcast).  Exact for polynomials of
    degree up to ``2*nodes - 1``.

    Raises
    ------
    QuadratureError
        If ``f`` returns a non-finite value; the message names the abscissa.
    """
    if a > b:
        raise ValueError(f"integration bounds must satisfy a <= b, got a={a}, b={b}")
    if a == b:
        return 0.0
    xi, wts = _gauss_legendre(nodes)
    half = 0.5 * (b - a)
    x = half * xi + 0.5 * (a + b)
    y = np.broadcast_to(np.asarray(f(x), dtype=np.float64), x.shape)
    finite = np.isfinite(y)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise QuadratureError(f"integrand returned {y[bad]} at x={x[bad]!r}")
    return float(np.dot(half * wts, y))


def refine_until(f_estimate: Callable, spec, levels=None, *, rel_tol: float = 1e-8, max_evaluations: int = 10**9):
    """Double all node counts until successive estimates agree to ``rel_tol``.

    Parameters
    ----------
    f_estimate : callable
        Maps a :class:`fdd2d.QuadratureSpec` to a scalar estimate.
    spec : QuadratureSpec
        Starting node counts.
    levels : iterable of str, optional
        The levels the estimator actually integrates over; the budget then
        caps the product of those counts only.  Defaults to all levels,
        appropriate for the full nested transform.
    rel_tol : float
        Relative difference between successive estimates that stops the loop.
    max_evaluations : int
        Soft budget on the product of the node counts of ``levels``.

    Returns
    -------
    (value, achieved_rel_delta)
        The last estimate and the relative difference between the two most
        recent estimates.  If the node budget stops refinement first, a
        :class:`fdd2d.QuadratureWarning` reporting both estimates is emitted
        and the last pair is returned; the caller decides whether that is
        acceptable.
    """
    if not rel_tol > 0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    levels = tuple(levels) if levels is not None else tuple(spec.nodes_per_level)

    def evaluations(sp):
        return math.prod(sp.nodes(level) for level in levels)

    value = float(f_estimate(spec))
    if evaluations(spec) > max_evaluations:
        warnings.warn(
            QuadratureWarning(
                f"initial node counts {dict(spec.nodes_per_level)} already exceed the "
                f"evaluation budget {max_evaluations}; single estimate {value!r}"
            )
        )
        return value, math.inf
    while True:
        spec = spec.doubled()
        new = float(f_estimate(spec))
        scale = max(abs(new), abs(value))
        delta = 0.0 if new == value else abs(new - value) / scale
        previous, value = value, new
        if delta < rel_tol:
            return value, delta
        if evaluations(spec.doubled()) > max_evaluations:
            warnings.warn(
                QuadratureWarning(
                    f"node budget exhausted before reaching rel_tol={rel_tol}: "
                    f"last estimates {previous!r} and {value!r} (rel delta {delta:.3e})"
                )
            )
            return value, delta


class Point2D(NamedTuple):
    x: float
    y: float


def sample_uniform_disk(cfg, rng, size=None):
    """Draw points uniformly over the disk of radius ``cfg.radius``.

    Polar inversion: radius ``R*sqrt(U)``, angle ``2*pi*V``.

    Returns
    -------
    Point2D when ``size`` is None, else an ndarray of shape ``(size, 2)``.
    """
    r = cfg.radius * np.sqrt(rng.random(size))
    ang = 2.0 * np.pi * rng.random(size)
    if size is None:
        return Point2D(float(r * np.cos(ang)), float(r * np.sin(ang)))
    return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)


def _as_float_array(x, name):
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError(f"{name} must be nonnegative")
    return arr


def pdf_link_distance(z, q, cfg):
    """Density of the distance from a point at offset ``q`` to a uniform disk point.

    Two branches: ``2z/R**2`` while the circle of radius ``z`` around the
    point stays inside the disk (``z <= R - q``), and the arccos-clipped form
    on ``R - q < z <= R + q``; zero beyond.  ``q`` is the distance of the
    reference point from the disk center, ``0 <= q <= R``.
    """
    radius = cfg.radius
    if not 0 <= q <= radius:
        raise ValueError(f"offset q must lie in [0, R={radius}], got {q}")
    z_arr = _as_float_array(z, "z")
    out = np.zeros_like(z_arr)
    near = z_arr <= radius - q
    out[near] = 2.0 * z_arr[near] / radius**2
    if q > 0:
        rim = (z_arr > radius - q) & (z_arr <= radius + q)
        if np.any(rim):
            zr = z_arr[rim]
            # clamp: floating-point drift pushes the ratio past +-1 at branch edges
            arg = np.clip((zr**2 + q**2 - radius**2) / (2.0 * q * zr), -1.0, 1.0)
            out[rim] = 2.0 * zr / (np.pi * radius**2) * np.arccos(arg)
    if np.isscalar(z) or np.ndim(z) == 0:
        return float(out)
    return out


def pdf_interferer_distance(w, v, t):
    """Density of the distance between two points at offsets ``v`` and ``t`` with uniform bearing.

    Supported on the open interval ``(|v - t|, v + t)``; diverges (integrably)
    at both endpoints, which are reported as 0 and must not be used as
    quadrature abscissae -- integrate in the bearing angle instead
    (:func:`sample_interferer_distance` documents the substitution).
    """
    if not (v > 0 and t > 0):
        raise ValueError(
            f"offsets must be positive (the law degenerates to a point mass otherwise), "
            f"got v={v}, t={t}"
        )
    w_arr = _as_float_array(w, "w")
    out = np.zeros_like(w_arr)
    inside = (w_arr > abs(v - t)) & (w_arr < v + t)
    if np.any(inside):
        wi = w_arr[inside]
        cos_ang = np.clip((v**2 + t**2 - wi**2) / (2.0 * v * t), -1.0, 1.0)
        sin_ang = np.sqrt(np.maximum(1.0 - cos_ang**2, 0.0))
        with np.errstate(divide="ignore"):
            out[inside] = wi / (np.pi * v * t * sin_ang)
    if np.isscalar(w) or np.ndim(w) == 0:
        return float(out)
    return out


def sample_interferer_distance(v, t, rng, size=None):
    """Draw distances between points at offsets ``v`` and ``t`` with uniform bearing.

    Uses ``w = sqrt(v**2 + t**2 - 2*v*t*cos(phi))`` with ``phi`` uniform on
    ``(0, pi)``; the angle variable carries the whole law, so no rejection or
    endpoint handling is needed.
    """
    if not (v > 0 and t > 0):
        raise ValueError(f"offsets must be positive, got v={v}, t={t}")
    phi = np.pi * rng.random(size)
    w = np.sqrt(v**2 + t**2 - 2.0 * v * t * np.cos(phi))
    if size is None:
        return float(w)
    return w


def sample_link_distance(q, cfg, rng, size=None):
    """Draw distances from a point at offset ``q`` to uniform disk points."""
    radius = cfg.radius
    if not 0 <= q <= radius:
        raise ValueError(f"offset q must lie in [0, R={radius}], got {q}")
    pts = sample_uniform_disk(cfg, rng, size=size if size is not None else 1)
    d = np.hypot(pts[..., 0] - q, pts[..., 1])
    if size is None:
        return float(d[0])
    return d


@dataclass
class NetworkRealization:
    """One sampled network: geometry, requests, modes, link structure, fading.

    User ``k`` (0-based) caches content ``k + 1``; ``requests`` holds 1-based
    content indices.  ``serve_target[k]`` is the receiver the transmitter
    ``k`` power-controls toward (-1 for non-transmitters); ``server_of[k]``
    is the user caching ``k``'s requested content (-1 when the request is not
    cached by another user).  ``fading[i, j]`` is the unit-mean exponential
    gain of the directed link from user ``i`` to user ``j``; directions are
    drawn independently, so bi-directional pairs see independent gains.
    """

    positions: np.ndarray
    requests: np.ndarray
    modes: np.ndarray
    transmitters: np.ndarray
    serve_target: np.ndarray
    server_of: np.ndarray
    fading: np.ndarray


def sample_realization(cfg: ModelConfig, rng: np.random.Generator) -> NetworkRealization:
    """Draw one full network: positions, requests, fading, and link structure.

    The draw order (positions, requests, fading, serve-target picks) is fixed
    so a given generator state always yields the same realization.
    """
    n = cfg.n_users
    radius = cfg.disk.radius
    radii = radius * np.sqrt(rng.random(n))
    angles = 2.0 * np.pi * rng.random(n)
    positions = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    requests = sample_request(cfg.profile, rng, size=n)
    fading = rng.standard_exponential((n, n))
    picks = rng.random(n)

    modes, transmitters = classify_modes(requests, n)
    r0 = requests - 1
    users = np.arange(n)
    server_of = np.where((r0 < n) & (r0 != users), r0, -1)
    serve_target = np.full(n, -1, dtype=np.int64)
    for mu in np.flatnonzero(transmitters):
        requesters = np.flatnonzero(r0 == mu)
        requesters = requesters[requesters != mu]
        serve_target[mu] = requesters[min(int(picks[mu] * requesters.size), requesters.size - 1)]
    return NetworkRealization(
        positions=positions,
        requests=requests,
        modes=modes,
        transmitters=transmitters,
        serve_target=serve_target,
        server_of=server_of,
        fading=fading,
    )


def link_sir(real: NetworkRealization, channel, si_model: str = SI_PER_INTERFERER) -> np.ndarray:
    """SIR of every receiving user; NaN for non-receivers, inf when nothing interferes.

    Each transmitter inverts the path loss toward its chosen target, so it
    contributes ``fading * Z**alpha * W**-alpha`` at other receivers.  The
    evaluated receiver's own server is taken to power-control toward it
    (unit-mean numerator), and full-duplex receivers add the residual
    self-interference ``beta * Z0**alpha`` -- once per interferer under the
    ``per-interferer`` accounting, once in total under ``single``.
    """
    if si_model not in SI_MODELS:
        raise ValueError(f"si_model must be one of {SI_MODELS}, got {si_model!r}")
    n = real.positions.shape[0]
    sir = np.full(n, np.nan)
    receiving = np.isin(real.modes, RECEIVING_MODES)
    tx_idx = np.flatnonzero(real.transmitters)
    if not receiving.any():
        return sir
    rec_idx = np.flatnonzero(receiving)
    pos = real.positions
    alpha = channel.alpha

    targets = real.serve_target[tx_idx]
    z_pow = np.hypot(*(pos[tx_idx] - pos[targets]).T) ** alpha
    diff = pos[tx_idx][:, None, :] - pos[None, :, :]
    w = np.hypot(diff[..., 0], diff[..., 1])
    self_rows = tx_idx[:, None] == np.arange(n)[None, :]
    w_safe = np.where(self_rows, 1.0, w)
    contrib = real.fading[tx_idx] * z_pow[:, None] * w_safe**-alpha
    contrib[self_rows] = 0.0
    total = contrib.sum(axis=0)

    srv = real.server_of[rec_idx]
    tx_row = np.full(n, -1, dtype=np.int64)
    tx_row[tx_idx] = np.arange(tx_idx.size)
    interference = np.maximum(total[rec_idx] - contrib[tx_row[srv], rec_idx], 0.0)

    z0_pow = np.hypot(*(pos[srv] - pos[rec_idx]).T) ** alpha
    n_interferers = tx_idx.size - 1 - real.transmitters[rec_idx].astype(np.int64)
    si_count = n_interferers if si_model == SI_PER_INTERFERER else 1
    fd = np.isin(real.modes[rec_idx], FD_MODES)
    denom = interference + np.where(fd, channel.beta * z0_pow * si_count, 0.0)

    numer = real.fading[srv, rec_idx]
    with np.errstate(divide="ignore"):
        sir[rec_idx] = np.where(denom > 0, numer / denom, np.inf)
    return sir


def trial_success(real: NetworkRealization, channel, thetas, si_model: str = SI_PER_INTERFERER):
    """Per-user success indicators over a grid of thresholds, shape (n_thetas, n_users).

    Users serving from their own cache succeed outright; receiving users
    succeed when their SIR clears the threshold; transmit-only and outage
    users fail.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    sir = link_sir(real, channel, si_model)
    sir = np.where(np.isnan(sir), -np.inf, sir)
    cache_ok = np.isin(real.modes, CACHE_MODES)
    return cache_ok[None, :] | (sir[None, :] >= thetas[:, None])


def trial_rng(master_seed, trial_index):
    """The generator of one trial: seeded from ``(master_seed, trial_index)``."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, trial_index)))


def block_stats(cfg, sim, thetas, start, stop):
    """Counts over trials ``[start, stop)``, one realization at a time.

    Returns ``(successes per threshold, cache hits, user samples, mode
    counts, transmitter-count histogram)``, the tuple the package's block
    kernel aggregates to.
    """
    n = cfg.n_users
    succ = np.zeros(len(thetas), dtype=np.int64)
    cache_succ = 0
    mode_counts = np.zeros(len(Mode), dtype=np.int64)
    tx_hist = np.zeros(n + 1, dtype=np.int64)
    for trial in range(start, stop):
        real = sample_realization(cfg, trial_rng(sim.master_seed, trial))
        mode_counts += np.bincount(real.modes, minlength=len(Mode))
        tx_hist[int(real.transmitters.sum())] += 1
        succ += trial_success(real, cfg.channel, thetas, sim.si_model).sum(axis=1)
        cache_succ += int(np.isin(real.modes, CACHE_MODES).sum())
    return succ, cache_succ, (stop - start) * n, mode_counts, tx_hist


@dataclass
class TrialResult:
    success: np.ndarray  # per-user success indicator at the evaluated threshold
    realization: NetworkRealization


def run_trial(cfg, sim, theta, rng) -> TrialResult:
    """Sample one network and evaluate every user's success at one threshold."""
    if not theta > 0:
        raise ValueError(f"SIR threshold must be positive, got theta={theta}")
    real = sample_realization(cfg, rng)
    ok = trial_success(real, cfg.channel, theta, sim.si_model)[0]
    return TrialResult(success=ok, realization=real)


def disk_offsets(rng, radius, size):
    """Radii of points uniform on the disk (density 2q/R^2)."""
    return radius * np.sqrt(rng.random(size))


def distance_to_uniform_point(rng, radius, offset, size):
    """Distances from a point at ``offset`` from the center to uniform disk points."""
    r = disk_offsets(rng, radius, size)
    ang = 2.0 * np.pi * rng.random(size)
    return np.hypot(r * np.cos(ang) - offset, r * np.sin(ang))


def mc_laplace(s, delta, n_t, radius, alpha, beta, n_samples, seed,
               si_model="per-interferer", chunk=250_000):
    """Monte Carlo expectation of the interference-transform integrand.

    Mirrors the integrand structure exactly: one (v, t) pair per sample, the
    ``n_t - 1`` interferer factors drawn i.i.d. given that shared t, and for
    full-duplex receivers the self-interference factor drawn from the serving
    distance given v.

    Returns
    -------
    (mean, sem)
    """
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_samples:
        b = min(chunk, n_samples - done)
        v = disk_offsets(rng, radius, b)
        t = disk_offsets(rng, radius, b)
        prod = np.ones(b)
        for _ in range(n_t - 1):
            z = distance_to_uniform_point(rng, radius, t, b)
            phi = np.pi * rng.random(b)
            w = np.sqrt(v**2 + t**2 - 2.0 * v * t * np.cos(phi))
            prod *= 1.0 / (1.0 + s * (z / w) ** alpha)
        if delta == "FDTR":
            z0 = distance_to_uniform_point(rng, radius, v, b)
            n_si = (n_t - 1) if si_model == "per-interferer" else 1
            prod *= np.exp(-n_si * s * beta * z0**alpha)
        total += prod.sum()
        total_sq += (prod**2).sum()
        done += b
    mean = total / n_samples
    var = max(total_sq / n_samples - mean**2, 0.0)
    return mean, np.sqrt(var / n_samples)


def mc_sir_success(theta, n_users, p_tx, p_hdrx, p_fdtr, radius, alpha, beta,
                   n_samples, seed, si_model="per-interferer"):
    """Event-level oracle for the SIR part of the success probability.

    Replaces both the transmitter-count sum and the interference transform by
    direct simulation of the conditional success event under the model's
    independence assumptions: draw the transmitter count, the receiver kind,
    the conditioned distances, and the fading, then test the SIR inequality.

    Returns
    -------
    (mean, sem)
    """
    rng = np.random.default_rng(seed)
    n_t = rng.binomial(n_users, p_tx, size=n_samples)
    kind = rng.random(n_samples)
    success = np.zeros(n_samples, dtype=bool)
    for k in np.unique(n_t):
        if k < 1:
            continue
        idx = np.flatnonzero(n_t == k)
        b = idx.size
        is_hdrx = kind[idx] < p_hdrx
        is_fdtr = (kind[idx] >= p_hdrx) & (kind[idx] < p_hdrx + p_fdtr)
        v = disk_offsets(rng, radius, b)
        t = disk_offsets(rng, radius, b)
        interference = np.zeros(b)
        for _ in range(k - 1):
            z = distance_to_uniform_point(rng, radius, t, b)
            phi = np.pi * rng.random(b)
            w = np.sqrt(v**2 + t**2 - 2.0 * v * t * np.cos(phi))
            interference += rng.standard_exponential(b) * z**alpha * w**-alpha
        z0 = distance_to_uniform_point(rng, radius, v, b)
        n_si = (k - 1) if si_model == "per-interferer" else 1
        interference = interference + np.where(is_fdtr, n_si * beta * z0**alpha, 0.0)
        h0 = rng.standard_exponential(b)
        success[idx] = (is_hdrx | is_fdtr) & (h0 >= theta * interference)
    mean = success.mean()
    return mean, np.sqrt(mean * (1.0 - mean) / n_samples)


# distances per (d, q) block: 4096 x 96 float64 arrays are about 3 MB each
_CDF_CHUNK = 4096


def marginal_link_cdf(d, radius, q_nodes=96):
    """CDF of the distance between two independent uniform disk points.

    Marginalizes the conditional link-distance law over the offset of the
    first point: the inner integral is the lens-overlap area of a circle of
    radius ``d`` around the point with the deployment disk, the outer
    integral runs over the offset density ``2q/R**2`` (Gauss-Legendre,
    split at the branch point ``q = R - d``).  Evaluated on (d, q) arrays of
    at most ``_CDF_CHUNK`` distances at a time, which bounds the memory.
    """
    d = np.atleast_1d(np.asarray(d, dtype=np.float64))
    xi, wts = np.polynomial.legendre.leggauss(q_nodes)
    out = np.where(d <= 0, 0.0, 1.0)
    inside = np.flatnonzero((d > 0) & (d < 2 * radius))
    for start in range(0, inside.size, _CDF_CHUNK):
        idx = inside[start:start + _CDF_CHUNK]
        di = d[idx, None]
        split = np.maximum(radius - di, 0.0)
        # offsets q <= R - d: the circle around the point lies inside the disk
        near_mass = (di**2 / radius**2) * (split**2 / radius**2)
        half = 0.5 * (radius - split)
        q = half * xi + 0.5 * (radius + split)
        w = half * wts * 2.0 * q / radius**2
        lens = (
            di**2 * np.arccos(np.clip((q**2 + di**2 - radius**2) / (2 * q * di), -1, 1))
            + radius**2 * np.arccos(np.clip((q**2 + radius**2 - di**2) / (2 * q * radius), -1, 1))
            - 0.5
            * np.sqrt(
                np.maximum(
                    (-q + di + radius) * (q + di - radius) * (q - di + radius) * (q + di + radius),
                    0.0,
                )
            )
        )
        out[idx] = near_mass[:, 0] + np.sum(w * lens / (np.pi * radius**2), axis=1)
    return out


def count_sum(x, p_tx: float, n_users: int):
    """G(x) = sum over n >= 1 of pmf[n] * x**(n - 1) for a Binomial(n_users, p_tx) count.

    Equals ((q + p*x)**N - q**N) / x with q = 1 - p, evaluated as
    exp(N*log(q) + a) * -expm1(-a) / x with a = N*log1p(p*x/q): precise for
    small x, and finite where q**N underflows.  Below 1e-150 it is the limit
    pmf[1], as log1p(p*x/q)/x loses its precision for subnormal x.
    """
    if p_tx == 1.0:
        return x ** (n_users - 1)
    q = 1.0 - p_tx
    tiny = x < 1e-150
    x = np.where(tiny, 1.0, x)
    a = n_users * np.log1p(p_tx / q * x)
    total = np.exp(n_users * math.log(q) + a) * -np.expm1(-a) / x
    return np.where(tiny, n_users * p_tx * q ** (n_users - 1), total)


def package_count_sum(x, p_tx: float, n_users: int):
    """The package's in-place ``_count_sum`` on a copy of ``x``, with scratch of exactly the size it asks for."""
    from fdd2d.analytic import _count_sum, _count_sum_scratch

    out = np.array(x, dtype=np.float64)
    return _count_sum(out, np.empty(_count_sum_scratch(out.size)), p_tx, n_users)
