"""Interference Laplace transform and success probability of the full-duplex D2D model."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .geometry import DiskConfig, link_distance_nodes
from .modes import compute_mode_probabilities
from .popularity import PopularityProfile, hitting_probability
from .quadrature import QuadratureSpec, QuadratureWarning, _checked, panel_rule

__all__ = [
    "FDTR",
    "HDRX",
    "RECEIVER_KINDS",
    "SI_MODELS",
    "SI_PER_INTERFERER",
    "SI_SINGLE",
    "ChannelConfig",
    "ModelConfig",
    "SuccessCurve",
    "SuccessProbability",
    "laplace_interference",
    "success_curve",
    "success_probability",
    "success_probability_cache",
]

HDRX = "HDRX"
FDTR = "FDTR"
RECEIVER_KINDS = (HDRX, FDTR)

# Self-interference accounting: "per-interferer" adds one residual term per
# interfering transmitter (the literal interference sum the analysis is
# derived from); "single" charges the residual once, for sensitivity studies.
SI_PER_INTERFERER = "per-interferer"
SI_SINGLE = "single"
SI_MODELS = (SI_PER_INTERFERER, SI_SINGLE)

# Bytes of the work buffer a kernel build cuts its tiles from, and a curve's
# count average its chunks, each as many v rows as fit (at least one), so peak
# memory stays bounded whatever the node counts.  Reusing one buffer instead
# of a fresh block per chunk keeps large temporaries out of the allocator and
# its page faults.  Of 0.5, 1, 2, 3 and 4 MiB, 2 MiB is the smallest at which
# the radius sweep is fastest: the default count average then fits one chunk,
# and larger buffers only add RSS.  A default kernel tile takes 0.9 MB of it.
_WORK_BYTES = 2 << 20

# Bytes of the kernels an evaluator caches, and so of those a curve builds,
# and holds, at once: 4096 kernels at the default 24 x 24 (v, t) nodes.
_KERNEL_CACHE_BYTES = 18 << 20

# Soft budget of integrand evaluations per transform: over it, a warning.
_EVALUATION_BUDGET = 10**9


@dataclass(frozen=True)
class ChannelConfig:
    """Path-loss exponent and residual self-interference power ratio."""

    alpha: float = 4.0
    beta: float = 1e-5

    def __post_init__(self):
        object.__setattr__(self, "alpha", _checked(float, self.alpha, "alpha", 2, low_open=True))
        object.__setattr__(self, "beta", _checked(float, self.beta, "beta", 0, 1))


@dataclass(frozen=True)
class ModelConfig:
    """All scalar parameters of the network model.

    ``n_users`` may not exceed the library size, since each user caches a
    distinct content.  Link distances up to the diameter must raise to
    +-alpha within float64: the simulator takes ``W**-alpha`` and
    ``Z**alpha`` of distances up to ``2 * radius``, and the transform scales
    SI by ``beta * radius**alpha``.
    """

    n_users: int
    disk: DiskConfig
    profile: PopularityProfile
    channel: ChannelConfig

    def __post_init__(self):
        object.__setattr__(self, "n_users", _checked(int, self.n_users, "n_users", 1))
        if self.n_users > self.profile.m:
            raise ValueError(
                f"n_users={self.n_users} exceeds library size m={self.profile.m}; "
                f"each user caches a distinct content"
            )
        radius, alpha = self.disk.radius, self.channel.alpha
        with np.errstate(over="ignore"):
            powers = np.power([2.0 * radius, radius], [alpha, -alpha])
        if not np.all(np.isfinite(powers)):
            raise ValueError(
                f"radius={radius} and alpha={alpha} take (2*radius)**alpha or radius**-alpha out of float64 range"
            )


class SuccessProbability(NamedTuple):
    p_total: float
    p_cache: float
    p_sir: float


@dataclass
class SuccessCurve:
    """Success probability across an ascending grid of SIR thresholds (linear scale)."""

    thetas: np.ndarray
    p_cache: float
    p_sir: np.ndarray
    p_total: np.ndarray
    ci_halfwidth: Optional[np.ndarray] = None  # 95% normal CI, simulated curves only


class _LaplaceEvaluator:
    """Tensor Gauss-Legendre grids for the interference transform on the unit disk.

    The per-interferer kernel factorizes as exp(-s*1_FD*beta*z0**alpha) times
    1/(1 + s*(zi/wi)**alpha), so the serving-distance factor pulls out of the
    inner (wi, zi) integral exactly.  The inner integral K(v, t) depends only
    on s, and ``n_t - 1`` interferers raise it to that power, so a count law
    enters only through its generating function (see :meth:`count_average`).
    Distances scale with the radius R and the ratio zi/wi does not, so the
    grids are built once on the unit disk: R and beta enter only the SI
    exponent, as the scale ``beta * R**alpha`` times the unit-disk
    ``z0**alpha``.  The wi integral runs in the bearing angle (removing the
    endpoint divergences of the interferer-distance law) and the zi/z0 rim
    branches run in the subtended angle (removing the square-root cusp at
    z = 1 - offset).

    One evaluator per alpha and node set is shared process-wide by
    :func:`_unit_evaluator`, so it holds nodes, weights and finished kernels
    only: each call builds and averages in a work buffer of its own
    (:meth:`work_buffer`), and concurrent callers share nothing they write.
    A cached kernel is read-only.
    """

    def __init__(self, alpha: float, node_items: tuple):
        nodes = dict(node_items)
        n_v, n_t, n_phi = nodes["v"], nodes["t"], nodes["angle"]

        v_nodes, v_wts = panel_rule(0.0, 1.0, n_v)
        t_nodes, t_wts = panel_rule(0.0, 1.0, n_t)
        self.vt_weight = np.outer(v_wts * 2.0 * v_nodes, t_wts * 2.0 * t_nodes)

        phi, phi_wts = panel_rule(0.0, np.pi, n_phi)
        self.phi_weight = phi_wts / np.pi
        # Law of cosines for the interferer distance wi, which each kernel
        # tile builds: wi**2 = v**2 + t**2 - 2*v*t*cos(phi).  The
        # (t, v) layout gives a tile its v-chunk as one contiguous row.
        self.vt_sq = t_nodes[:, None] ** 2 + v_nodes[None, :] ** 2
        self.two_vt = 2.0 * np.outer(t_nodes, v_nodes)
        self.cos_phi = np.cos(phi)
        self.alpha = alpha

        self.zi, self.zi_wts = _link_nodes(t_nodes, nodes["zi"])
        z0, self.z0_wts = _link_nodes(v_nodes, nodes["z0"])
        self.z0_pow = z0**alpha

        self.grid_evaluations = n_v * n_phi * self.zi.size
        self.z0_evaluations = self.z0_pow.size
        # Floats one v row takes: in a kernel tile (the (zi, angle) ratio and
        # integrand blocks, wi and the integrand's zi reduction), and in the
        # per-interferer count average (SI row, K*e product, _count_sum scratch).
        n_tz = n_t * self.z0_pow.shape[1]
        self.kernel_row = n_phi * (2 * self.zi.shape[1] + 2)
        self.tile_rows = max(1, min(n_v, _WORK_BYTES // (8 * self.kernel_row)))
        self.count_row = self.z0_pow.shape[1] + n_tz + _count_sum_scratch(n_tz)
        self._k_cache: dict = {}

    def work_buffer(self) -> np.ndarray:
        """One call's scratch: _WORK_BYTES, or more if one v row of a kernel tile or count average needs it."""
        return np.empty(max(_WORK_BYTES // 8, self.kernel_row, 2 * self.vt_weight.size + self.count_row))

    def cached_kernels(self) -> int:
        """Kernels that fit _KERNEL_CACHE_BYTES, at least one."""
        return max(1, _KERNEL_CACHE_BYTES // (8 * self.vt_weight.size))

    def kernels(self, ss) -> dict:
        """The kernel of each s in ``ss``, keyed by ``float(s)``.

        The kernel at s is the inner (wi, zi) expectation of
        1/(1 + s*(zi/wi)**alpha) on the (v, t) grid.  Kernels not cached are
        built on this thread, in one :meth:`work_buffer` taken only then, and
        cached: this method alone reads and writes the cache, which is cleared
        when it holds :meth:`cached_kernels` kernels.
        """
        found = {s: self._k_cache.get(s) for s in map(float, ss)}
        missing = [s for s, k in found.items() if k is None]
        if missing:
            found.update(zip(missing, self._build_kernels(missing, self.work_buffer())))
            for s in missing:
                # unlocked: callers racing here can only clear twice, or
                # overshoot the cap by one kernel each
                if len(self._k_cache) >= self.cached_kernels():
                    self._k_cache.clear()
                self._k_cache[s] = found[s]
        return found

    def _build_kernels(self, ss: list, work: np.ndarray) -> list:
        """The read-only kernel at each s of ``ss``, built in (zi, v*angle) tiles cut from ``work``.

        Per interferer offset t and chunk of v rows, the ratio block
        (zi/wi)**alpha is built once for every s; each s then fills the
        integrand block with c/(c + ratio), c = 1/s, and reduces it over zi
        and the angle.  An infinite ratio is the limit of a vanishing term,
        and a zero one of a unit term, so the integrand stays finite at any
        alpha.  For s = 0, or an s whose reciprocal overflows, the integrand
        is 1.
        """
        n_t, n_v = self.vt_sq.shape
        n_phi, n_zi = self.cos_phi.size, self.zi.shape[1]
        cs = [1.0 / s if s else math.inf for s in ss]
        ks = [np.empty((n_v, n_t)) for _ in ss]
        for t in range(n_t):
            for i in range(0, n_v, self.tile_rows):
                j = min(i + self.tile_rows, n_v)
                m = (j - i) * n_phi
                ratio, damp = work[: 2 * n_zi * m].reshape(2, n_zi, m)
                w, inner = work[2 * ratio.size : 2 * ratio.size + 2 * m].reshape(2, j - i, n_phi)
                np.multiply(self.two_vt[t, i:j, None], self.cos_phi, out=w)
                np.subtract(self.vt_sq[t, i:j, None], w, out=w)
                np.maximum(w, 0.0, out=w)
                np.sqrt(w, out=w)
                with np.errstate(divide="ignore", over="ignore"):
                    np.divide(self.zi[t, :, None], w.reshape(m), out=ratio)
                    np.power(ratio, self.alpha, out=ratio)
                for c, k in zip(cs, ks):
                    if math.isinf(c):
                        damp.fill(1.0)
                    else:
                        np.add(ratio, c, out=damp)
                        np.divide(c, damp, out=damp)
                    np.matmul(self.zi_wts[t], damp, out=inner.reshape(m))
                    np.matmul(inner, self.phi_weight, out=k[i:j, t])
        for k in ks:
            k.setflags(write=False)
        return ks

    def count_average(self, k, s, scale, p_tx, n_users, si_model, work) -> tuple:
        """HDRX and FDTR transforms at ``s`` averaged over a Binomial(n_users, p_tx) transmitter count.

        ``k`` is the kernel at ``s``.  The count enters through ``G(x) = sum
        over n >= 1 of P(n) * x**(n - 1)``, taken in place by :func:`_count_sum`:
        ``n - 1`` interferers raise the kernel, and under the per-interferer
        SI model also the SI factor, to that power.  Everything runs in
        v-chunks inside ``work``, a :meth:`work_buffer`.
        """
        n_v, n_t = k.shape
        n_z = self.z0_pow.shape[1]
        g_k, fdtr = work[: 2 * k.size].reshape((2,) + k.shape)
        chunk = work[2 * k.size :]
        step = max(1, chunk.size // self.count_row)
        for i in range(0, n_v, step):
            j = min(i + step, n_v)
            si_factor = chunk[: (j - i) * n_z].reshape(j - i, n_z)
            x = chunk[si_factor.size :]
            np.multiply(-(s * scale), self.z0_pow[i:j], out=si_factor)
            np.exp(si_factor, out=si_factor)
            g_k[i:j] = k[i:j]
            _count_sum(g_k[i:j], x, p_tx, n_users)
            if si_model == SI_SINGLE:
                np.multiply(g_k[i:j], np.einsum("vk,vk->v", self.z0_wts[i:j], si_factor)[:, None], out=fdtr[i:j])
            else:
                k_e = x[: (j - i) * n_t * n_z].reshape(j - i, n_t, n_z)
                np.multiply(k[i:j, :, None], si_factor[:, None, :], out=k_e)
                _count_sum(k_e, x[k_e.size :], p_tx, n_users)
                np.einsum("vtk,vk->vt", k_e, self.z0_wts[i:j], out=fdtr[i:j])
        np.multiply(self.vt_weight, g_k, out=g_k)
        np.multiply(self.vt_weight, fdtr, out=fdtr)
        return float(np.sum(g_k)), float(np.sum(fdtr))


def _link_nodes(offsets, nodes: int):
    """Link-distance nodes and weights on the unit disk, one row per offset."""
    rows = [link_distance_nodes(float(q), DiskConfig(1.0), nodes) for q in offsets]
    return np.stack([row[0] for row in rows]), np.stack([row[1] for row in rows])


_unit_evaluator = lru_cache(maxsize=8)(_LaplaceEvaluator)
_DEFAULT_SPEC = QuadratureSpec()


def _evaluator(cfg: ModelConfig, spec: Optional[QuadratureSpec], si_model: str):
    """The shared unit-disk evaluator and the SI scale ``beta * R**alpha`` of ``cfg``."""
    if si_model not in SI_MODELS:
        raise ValueError(f"si_model must be one of {SI_MODELS}, got {si_model!r}")
    spec = spec if spec is not None else _DEFAULT_SPEC
    ev = _unit_evaluator(cfg.channel.alpha, spec.node_items())
    cost = ev.grid_evaluations + ev.z0_evaluations
    if cost > _EVALUATION_BUDGET:
        warnings.warn(
            QuadratureWarning(
                f"interference transform needs ~{cost} evaluations, over the "
                f"budget of {_EVALUATION_BUDGET}; result is still computed"
            )
        )
    return ev, cfg.channel.beta * cfg.disk.radius**cfg.channel.alpha


def laplace_interference(
    s: float,
    delta: str,
    n_t: int,
    cfg: ModelConfig,
    spec: Optional[QuadratureSpec] = None,
    si_model: str = SI_PER_INTERFERER,
) -> float:
    """Laplace transform of the interference at a receiver of kind ``delta``.

    Evaluated at ``s`` for ``n_t`` concurrent transmitters (one of which is
    the serving node, so ``n_t - 1`` interfere).  Equals the probability that
    an exponential serving gain beats ``s`` times the interference, i.e. the
    SIR distribution's tail at threshold ``s``.

    Parameters
    ----------
    s : float
        Nonnegative transform argument (the SIR threshold, linear scale).
    delta : str
        ``"HDRX"`` for a half-duplex receiver, ``"FDTR"`` for a full-duplex
        transceiver that also suffers residual self-interference.
    n_t : int
        Concurrent transmitter count, at least 1.
    cfg : ModelConfig
    spec : QuadratureSpec, optional
        Node counts per integration level; defaults are deterministic and
        shared process-wide.  A soft :class:`QuadratureWarning` is emitted if
        the node counts ask for more than 10**9 integrand evaluations.
    si_model : str
        Self-interference accounting, see :data:`SI_MODELS`.
    """
    s, m = _checked(float, s, "s", 0), _checked(int, n_t, "n_t", 1) - 1
    if delta not in RECEIVER_KINDS:
        raise ValueError(f"receiver kind must be one of {RECEIVER_KINDS}, got {delta!r}")
    ev, scale = _evaluator(cfg, spec, si_model)
    k_m = ev.kernels([s])[s] ** m
    if delta == FDTR:
        # A point-mass count needs no (v, t, z0) grid: (K*e_k)**m = K**m * e_k**m.
        si_power = m if si_model == SI_PER_INTERFERER else 1
        si_factor = np.exp(-(s * scale * si_power) * ev.z0_pow)
        k_m *= np.einsum("vk,vk->v", ev.z0_wts, si_factor)[:, None]
    return float(np.sum(ev.vt_weight * k_m))


def success_probability_cache(cfg: ModelConfig) -> float:
    """Probability that a uniformly chosen user finds its request in its own cache."""
    return hitting_probability(cfg.profile, cfg.n_users) / cfg.n_users


def _count_sum_scratch(size: int) -> int:
    """Floats of scratch :func:`_count_sum` needs for ``size`` points: two work arrays and a mask."""
    return 2 * size + -(-size // 8)


def _count_sum(x, work, p_tx: float, n_users: int):
    """Overwrite x with G(x) = sum over n >= 1 of pmf[n] * x**(n - 1) for a Binomial(n_users, p_tx) count.

    Equals ((q + p*x)**N - q**N) / x with q = 1 - p, evaluated as
    exp(N*log(q) + a) * -expm1(-a) / x with a = N*log1p(p*x/q): precise for
    small x, and finite where q**N underflows.  Below 1e-150 it is the limit
    pmf[1], as log1p(p*x/q)/x loses its precision for subnormal x.  ``x`` is a
    writable float array and ``work`` a flat float array of at least
    ``_count_sum_scratch(x.size)`` elements; no other memory is allocated.
    """
    if p_tx == 1.0:
        return np.power(x, n_users - 1, out=x)
    q = 1.0 - p_tx
    a, em = work[: 2 * x.size].reshape((2,) + x.shape)
    tiny = work[2 * x.size :].view(np.bool_)[: x.size].reshape(x.shape)
    np.less(x, 1e-150, out=tiny)
    x[tiny] = 1.0
    np.multiply(p_tx / q, x, out=a)
    np.log1p(a, out=a)
    np.multiply(n_users, a, out=a)
    np.negative(a, out=em)
    np.expm1(em, out=em)
    np.negative(em, out=em)
    np.add(n_users * math.log(q), a, out=a)
    np.exp(a, out=a)
    np.multiply(a, em, out=a)
    np.divide(a, x, out=x)
    x[tiny] = n_users * p_tx * q ** (n_users - 1)
    return x


def success_probability(
    cfg: ModelConfig,
    theta: float,
    spec: Optional[QuadratureSpec] = None,
    si_model: str = SI_PER_INTERFERER,
) -> SuccessProbability:
    """Success probability of an arbitrary user at SIR threshold ``theta``.

    The cache part is ``P_hit / N``; the SIR part averages the HDRX and FDTR
    tail probabilities over the binomial transmitter count.  This is the
    one-threshold :func:`success_curve`.

    Returns
    -------
    SuccessProbability
        Named tuple ``(p_total, p_cache, p_sir)``.
    """
    curve = success_curve(cfg, [theta], spec, si_model)
    return SuccessProbability(float(curve.p_total[0]), curve.p_cache, float(curve.p_sir[0]))


def _check_thresholds(thetas) -> np.ndarray:
    """``thetas`` as a float64 array, if it is a non-empty 1-D ascending grid of positive finite thresholds of integer or float dtype."""
    thetas = np.asarray(thetas)
    if thetas.dtype.kind not in "iuf":
        raise ValueError(f"thetas must be of integer or float dtype, got {thetas.dtype}")
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.ndim != 1 or thetas.size == 0:
        raise ValueError("thetas must be a non-empty 1-D grid")
    if not np.all(thetas > 0) or not np.all(np.isfinite(thetas)):
        raise ValueError("thetas must be positive and finite")
    if np.any(np.diff(thetas) < 0):
        raise ValueError("thetas must be sorted ascending")
    return thetas


def success_curve(
    cfg: ModelConfig,
    thetas,
    spec: Optional[QuadratureSpec] = None,
    si_model: str = SI_PER_INTERFERER,
) -> SuccessCurve:
    """Analytic success curve over an ascending grid of positive thresholds.

    The unit-disk kernel K is computed once per threshold for every radius,
    beta and user count; the kernels a curve lacks are built first, on the
    calling thread.  The binomial transmitter count is summed in closed
    form by G(x) = sum_{n>=1} pmf[n] x**(n-1): HDRX receivers, and FDTR ones
    under the single SI model, take G(K); per-interferer FDTR receivers take
    sum_k z0_w G(K*e_k) with e_k = exp(-theta*beta*R**alpha*z0_k**alpha).
    """
    thetas = _check_thresholds(thetas)
    ev, scale = _evaluator(cfg, spec, si_model)
    p_cache = success_probability_cache(cfg)
    mp = compute_mode_probabilities(cfg.profile, cfg.n_users)
    values = thetas.tolist()
    p_sir = np.empty(thetas.size)
    # a batch's kernels are held here, out of reach of a cache clear, while
    # the count averages run on them in a work buffer taken once the build's
    # buffer is freed
    per_batch = ev.cached_kernels()
    for lo in range(0, len(values), per_batch):
        batch = values[lo : lo + per_batch]
        kernels = ev.kernels(batch)
        work = ev.work_buffer()
        for i, theta in enumerate(batch, lo):
            hdrx, fdtr = ev.count_average(kernels[theta], theta, scale, mp.p_tx, cfg.n_users, si_model, work)
            p_sir[i] = mp.p_hdrx * hdrx + mp.p_fdtr * fdtr
    return SuccessCurve(
        thetas=thetas,
        p_cache=p_cache,
        p_sir=p_sir,
        p_total=p_cache + p_sir,
    )
