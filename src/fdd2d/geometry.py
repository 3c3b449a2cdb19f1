"""Deployment disk and the quadrature rule for the conditional link-distance law.

:func:`link_distance_nodes` integrates against the density of the distance
from a point at offset ``q`` to a uniform point of the disk; the analytic
transform builds every distance level from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import _checked, panel_rule

__all__ = ["DiskConfig", "link_distance_nodes"]


@dataclass(frozen=True)
class DiskConfig:
    """Deployment region: a disk of the given radius centered at the origin."""

    radius: float

    def __post_init__(self):
        object.__setattr__(self, "radius", _checked(float, self.radius, "radius", 0, low_open=True))


def link_distance_nodes(q: float, cfg: DiskConfig, nodes: int):
    """Quadrature nodes and weights integrating against the link-distance law.

    Returns ``(z, wts)`` with ``sum(wts * g(z))`` approximating ``E[g(Z)]``
    for ``Z`` the distance from a point at offset ``q`` to a uniform disk
    point.  The near branch is a plain Gauss-Legendre panel on ``[0, R-q]``;
    the rim branch is mapped to the subtended-angle variable, which removes
    the square-root cusp at ``z = R - q``, and is split at the right angle
    where the integrand peaks as ``q`` approaches ``R``.  Each panel gets
    ``nodes`` points.
    """
    radius = cfg.radius
    q, nodes = _checked(float, q, "q", 0, radius), _checked(int, nodes, "nodes", 1)
    z_near, w_near = panel_rule(0.0, radius - q, nodes)
    w_near = w_near * 2.0 * z_near / radius**2
    if q == 0:
        return z_near, w_near
    parts_z = [z_near]
    parts_w = [w_near]
    for a, b in ((0.0, np.pi / 2.0), (np.pi / 2.0, np.pi)):
        psi, w_psi = panel_rule(a, b, nodes)
        root = np.sqrt(radius**2 - (q * np.sin(psi)) ** 2)
        z_rim = q * np.cos(psi) + root
        parts_z.append(z_rim)
        parts_w.append(w_psi * 2.0 * q * z_rim**2 * psi * np.sin(psi) / (np.pi * radius**2 * root))
    return np.concatenate(parts_z), np.concatenate(parts_w)
