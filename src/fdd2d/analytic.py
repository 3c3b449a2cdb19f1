"""Interference Laplace transform and success probability of the full-duplex D2D model."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple, Optional

import numpy as np

from .geometry import DiskConfig, link_distance_nodes
from .modes import compute_mode_probabilities
from .popularity import PopularityProfile, hitting_probability
from .quadrature import QuadratureSpec, QuadratureWarning, panel_rule

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

# Bytes of the (v, t, angle, zi) block the kernel evaluates at once; chunks of
# the v axis keep memory bounded whatever node counts are asked for.
_KERNEL_CHUNK_BYTES = 4 << 20

# Soft budget of integrand evaluations per transform: over it, a warning.
_EVALUATION_BUDGET = 10**9


@dataclass(frozen=True)
class ChannelConfig:
    """Path-loss exponent and residual self-interference power ratio."""

    alpha: float = 4.0
    beta: float = 1e-5

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 2):
            raise ValueError(f"path-loss exponent must exceed 2, got alpha={self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"self-interference ratio must lie in [0, 1], got beta={self.beta}")


@dataclass(frozen=True)
class ModelConfig:
    """All scalar parameters of the network model."""

    n_users: int
    disk: DiskConfig
    profile: PopularityProfile
    channel: ChannelConfig

    def __post_init__(self):
        if self.n_users < 1:
            raise ValueError(f"n_users must be at least 1, got {self.n_users}")
        if self.n_users > self.profile.m:
            raise ValueError(
                f"n_users={self.n_users} exceeds library size m={self.profile.m}; "
                f"each user caches a distinct content"
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
    source: str  # "analytic" or "simulated"
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
    """

    def __init__(self, alpha: float, node_items: tuple):
        nodes = dict(node_items)
        n_v, n_t, n_phi = nodes["v"], nodes["t"], nodes["angle"]

        v_nodes, v_wts = panel_rule(0.0, 1.0, n_v)
        t_nodes, t_wts = panel_rule(0.0, 1.0, n_t)
        self.vt_weight = np.outer(v_wts * 2.0 * v_nodes, t_wts * 2.0 * t_nodes)

        phi, phi_wts = panel_rule(0.0, np.pi, n_phi)
        self.phi_weight = phi_wts / np.pi

        self.zi_pow, self.zi_wts = _link_nodes(t_nodes, nodes["zi"], alpha)
        self.z0_pow, self.z0_wts = _link_nodes(v_nodes, nodes["z0"], alpha)

        w_sq = (
            v_nodes[:, None, None] ** 2
            + t_nodes[None, :, None] ** 2
            - 2.0 * np.outer(v_nodes, t_nodes)[:, :, None] * np.cos(phi)[None, None, :]
        )
        self.w_pow = np.maximum(w_sq, 0.0) ** (alpha / 2.0)

        self.grid_evaluations = n_v * n_phi * self.zi_pow.size
        self.z0_evaluations = self.z0_pow.size
        self._k_cache: dict = {}

    def k_grid(self, s: float) -> np.ndarray:
        """Inner (wi, zi) expectation of wi**alpha/(wi**alpha + s*zi**alpha) on the (v, t) grid."""
        key = float(s)
        cached = self._k_cache.get(key)
        if cached is not None:
            return cached
        n_v = self.w_pow.shape[0]
        step = max(1, _KERNEL_CHUNK_BYTES * n_v // (8 * self.grid_evaluations))
        s_zi = s * self.zi_pow[:, None, :]
        k = np.empty(self.vt_weight.shape)
        for i in range(0, n_v, step):
            w = self.w_pow[i : i + step, ..., None]
            damp = w + s_zi
            np.divide(w, damp, out=damp)
            k[i : i + step] = np.einsum("vtpk,tk->vtp", damp, self.zi_wts) @ self.phi_weight
        if len(self._k_cache) > 4096:
            self._k_cache.clear()
        self._k_cache[key] = k
        return k

    def count_average(self, s, scale, g, si_model) -> tuple:
        """HDRX and FDTR transforms averaged over the transmitter-count law with generating function g.

        ``g(x) = sum over n >= 1 of P(n) * x**(n - 1)``, evaluated elementwise:
        ``n - 1`` interferers raise the kernel, and under the per-interferer
        SI model also the SI factor, to that power.
        """
        k = self.k_grid(s)
        g_k = g(k)
        si_factor = np.exp(-(s * scale) * self.z0_pow)
        if si_model == SI_SINGLE:
            fdtr = g_k * np.einsum("vk,vk->v", self.z0_wts, si_factor)[:, None]
        else:
            fdtr = np.einsum("vtk,vk->vt", g(k[:, :, None] * si_factor[:, None, :]), self.z0_wts)
        return float(np.sum(self.vt_weight * g_k)), float(np.sum(self.vt_weight * fdtr))


def _link_nodes(offsets, nodes: int, alpha: float):
    """Link-distance nodes (raised to alpha) and weights on the unit disk, one row per offset."""
    rows = [link_distance_nodes(float(q), DiskConfig(1.0), nodes) for q in offsets]
    return np.stack([row[0] for row in rows]) ** alpha, np.stack([row[1] for row in rows])


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
    if not (math.isfinite(s) and s >= 0):
        raise ValueError(f"transform argument must be finite and nonnegative, got s={s}")
    if delta not in RECEIVER_KINDS:
        raise ValueError(f"receiver kind must be one of {RECEIVER_KINDS}, got {delta!r}")
    if not isinstance(n_t, (int, np.integer)) or n_t < 1:
        raise ValueError(f"transmitter count must be an integer >= 1 (the serving node transmits), got {n_t}")
    ev, scale = _evaluator(cfg, spec, si_model)
    hdrx, fdtr = ev.count_average(s, scale, lambda x: x ** (int(n_t) - 1), si_model)
    return hdrx if delta == HDRX else fdtr


def success_probability_cache(cfg: ModelConfig) -> float:
    """Probability that a uniformly chosen user finds its request in its own cache."""
    return hitting_probability(cfg.profile, cfg.n_users) / cfg.n_users


def _count_sum(x, p_tx: float, n_users: int):
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


def success_curve(
    cfg: ModelConfig,
    thetas,
    spec: Optional[QuadratureSpec] = None,
    si_model: str = SI_PER_INTERFERER,
) -> SuccessCurve:
    """Analytic success curve over an ascending grid of positive thresholds.

    The unit-disk kernel K is computed once per threshold for every radius,
    beta and user count.  The binomial transmitter count is summed in closed
    form by G(x) = sum_{n>=1} pmf[n] x**(n-1): HDRX receivers, and FDTR ones
    under the single SI model, take G(K); per-interferer FDTR receivers take
    sum_k z0_w G(K*e_k) with e_k = exp(-theta*beta*R**alpha*z0_k**alpha).
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.ndim != 1 or thetas.size == 0:
        raise ValueError("thetas must be a non-empty 1-D grid")
    if not np.all(thetas > 0) or not np.all(np.isfinite(thetas)):
        raise ValueError("thetas must be positive and finite")
    if np.any(np.diff(thetas) < 0):
        raise ValueError("thetas must be sorted ascending")
    ev, scale = _evaluator(cfg, spec, si_model)
    p_cache = success_probability_cache(cfg)
    mp = compute_mode_probabilities(cfg.profile, cfg.n_users)
    binomial = partial(_count_sum, p_tx=mp.p_tx, n_users=cfg.n_users)
    p_sir = np.empty(thetas.size)
    for i, theta in enumerate(thetas.tolist()):
        hdrx, fdtr = ev.count_average(theta, scale, binomial, si_model)
        p_sir[i] = mp.p_hdrx * hdrx + mp.p_fdtr * fdtr
    return SuccessCurve(
        thetas=thetas,
        p_cache=p_cache,
        p_sir=p_sir,
        p_total=p_cache + p_sir,
        source="analytic",
    )
