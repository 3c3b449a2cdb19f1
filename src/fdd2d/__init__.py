"""Full-duplex cache-enabled D2D networks: closed-form performance model and Monte Carlo cross-validation."""

from .analytic import (
    FDTR,
    HDRX,
    SI_MODELS,
    SI_PER_INTERFERER,
    SI_SINGLE,
    ChannelConfig,
    ModelConfig,
    SuccessCurve,
    SuccessProbability,
    laplace_interference,
    success_curve,
    success_probability,
    success_probability_cache,
)
from .geometry import DiskConfig, link_distance_nodes
from .modes import ModeProbabilities, compute_mode_probabilities
from .popularity import PopularityProfile, build_zipf, hitting_probability
from .quadrature import DEFAULT_NODES, QuadratureSpec, QuadratureWarning
from .simulator import Mode, ModeFrequencyReport, SimConfig, classify_modes, simulate_points

__version__ = "0.1.0"
