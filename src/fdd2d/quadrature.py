"""Gauss-Legendre panel rules, per-level node counts of the nested transform, and doubling refinement.

Nodes and weights come from :func:`numpy.polynomial.legendre.leggauss`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "DEFAULT_NODES",
    "QuadratureSpec",
    "QuadratureWarning",
    "gauss_legendre",
    "panel_rule",
    "refine_until",
]

# Levels of the nested interference integral: receiver offset v, interferer
# offset t, serving distance z0, interferer bearing angle, interferer link zi.
DEFAULT_NODES = {"v": 24, "t": 24, "z0": 24, "angle": 32, "zi": 24}


class QuadratureWarning(UserWarning):
    """Node budget exhausted or refinement stopped before reaching tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts per integration level plus convergence targets.

    ``max_evaluations`` caps the product of the per-level node counts; it is
    a soft budget used by :func:`refine_until` and by the interference
    transform to warn rather than abort.
    """

    nodes_per_level: Mapping[str, int] = field(default_factory=lambda: dict(DEFAULT_NODES))
    rel_tol: float = 1e-8
    max_evaluations: int = 10**9

    def __post_init__(self):
        object.__setattr__(self, "nodes_per_level", dict(self.nodes_per_level))
        unknown = set(self.nodes_per_level) - set(DEFAULT_NODES)
        if unknown:
            raise ValueError(f"unknown quadrature levels {sorted(unknown)}; valid: {sorted(DEFAULT_NODES)}")
        for level, count in self.nodes_per_level.items():
            if not isinstance(count, (int, np.integer)) or count < 4:
                raise ValueError(f"node count for level {level!r} must be an integer >= 4, got {count}")
        for level, count in DEFAULT_NODES.items():
            self.nodes_per_level.setdefault(level, count)
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")

    def nodes(self, level: str) -> int:
        return self.nodes_per_level[level]

    def node_items(self) -> tuple:
        return tuple(sorted(self.nodes_per_level.items()))

    def product(self, levels=None) -> int:
        if levels is None:
            return math.prod(self.nodes_per_level.values())
        return math.prod(self.nodes_per_level[lv] for lv in levels)

    def doubled(self) -> "QuadratureSpec":
        return QuadratureSpec(
            nodes_per_level={k: 2 * v for k, v in self.nodes_per_level.items()},
            rel_tol=self.rel_tol,
            max_evaluations=self.max_evaluations,
        )


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1] (read-only arrays)."""
    x, w = np.polynomial.legendre.leggauss(int(n))
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def panel_rule(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights mapped to the interval [a, b]."""
    x, w = gauss_legendre(n)
    half = 0.5 * (b - a)
    return half * x + 0.5 * (a + b), half * w


def refine_until(f_estimate: Callable[[QuadratureSpec], float], spec: QuadratureSpec, levels=None):
    """Double all node counts until successive estimates agree to ``spec.rel_tol``.

    Parameters
    ----------
    f_estimate : callable
        Maps a :class:`QuadratureSpec` to a scalar estimate.
    spec : QuadratureSpec
        Starting node counts, tolerance, and node budget (cap on the product
        of per-level counts).
    levels : iterable of str, optional
        The levels the estimator actually integrates over; the budget then
        caps the product of those counts only.  Defaults to all levels,
        appropriate for the full nested transform.

    Returns
    -------
    (value, achieved_rel_delta)
        The last estimate and the relative difference between the two most
        recent estimates.  If the node budget stops refinement first, a
        :class:`QuadratureWarning` reporting both estimates is emitted and
        the last pair is returned; the caller decides whether that is
        acceptable.
    """
    levels = tuple(levels) if levels is not None else None
    value = float(f_estimate(spec))
    if spec.product(levels) > spec.max_evaluations:
        warnings.warn(
            QuadratureWarning(
                f"initial node counts {dict(spec.nodes_per_level)} already exceed the "
                f"evaluation budget {spec.max_evaluations}; single estimate {value!r}"
            )
        )
        return value, math.inf
    while True:
        spec = spec.doubled()
        new = float(f_estimate(spec))
        scale = max(abs(new), abs(value))
        delta = 0.0 if new == value else abs(new - value) / scale
        previous, value = value, new
        if delta < spec.rel_tol:
            return value, delta
        if spec.doubled().product(levels) > spec.max_evaluations:
            warnings.warn(
                QuadratureWarning(
                    f"node budget exhausted before reaching rel_tol={spec.rel_tol}: "
                    f"last estimates {previous!r} and {value!r} (rel delta {delta:.3e})"
                )
            )
            return value, delta
