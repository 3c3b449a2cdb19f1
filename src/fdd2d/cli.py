"""Command-line front end: experiment configuration, parameter sweeps, CSV emission."""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import sys

import numpy as np

from .analytic import (
    SI_MODELS,
    SI_PER_INTERFERER,
    ChannelConfig,
    ModelConfig,
    success_curve,
)
from .geometry import DiskConfig
from .modes import MODE_FIELDS, compute_mode_probabilities
from .popularity import build_zipf
from .quadrature import DEFAULT_NODES, QuadratureSpec
from .simulator import Mode, SimConfig, resolve_workers, simulate_points

__all__ = ["main", "parse_args", "run"]

CSV_COLUMNS = [
    "theta_db",
    "theta_linear",
    "p_cache",
    "p_sir_analytic",
    "p_total_analytic",
    "p_total_sim",
    "ci_halfwidth",
    "n_users",
    "gamma_r",
    "radius",
    "alpha",
    "beta",
    "trials",
    "seed",
]

RUN_MODES = ("analytic", "simulate", "both")

# Most thresholds a --theta-db grid may hold; each one costs a kernel evaluation.
_MAX_THRESHOLDS = 10**6


def _number(kind, valid=lambda v: True, requirement=""):
    """Argparse converter of text to ``kind``, finite if float; a usage error unless ``valid``."""

    def convert(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expects {'an integer' if kind is int else 'a number'}, got {text!r}") from None
        if kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        if not valid(value):
            raise argparse.ArgumentTypeError(f"must {requirement}, got {value}")
        return value

    return convert


_count = _number(int, lambda v: v >= 1, "be at least 1")

# The one converter of each sweepable parameter, used by its flag and by --sweep.
SWEEP_CONVERTERS = {
    "n_users": _count,
    "gamma_r": _number(float, lambda v: v >= 0, "be nonnegative"),
    "radius": _number(float, lambda v: v > 0, "be positive"),
    "beta": _number(float, lambda v: 0 <= v <= 1, "lie in [0, 1]"),
}
SWEEPABLE = tuple(SWEEP_CONVERTERS)


def _theta_grid(text) -> np.ndarray:
    """The inclusive dB grid ``start:stop:step``; ``stop`` is left out when ``step`` does not divide the span."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expects start:stop:step, got {text!r}")
    start, stop, step = map(_number(float), parts)
    if step <= 0:
        raise argparse.ArgumentTypeError(f"step must be positive, got {step}")
    if stop < start:
        raise argparse.ArgumentTypeError(f"start must not exceed stop, got {text!r}")
    if not (stop - start) / step < _MAX_THRESHOLDS:
        raise argparse.ArgumentTypeError(f"{text!r} asks for more than {_MAX_THRESHOLDS} thresholds")
    grid = start + step * np.arange(math.floor((stop - start) / step + 1e-9) + 1)
    with np.errstate(over="ignore"):
        linear = 10.0 ** (grid / 10.0)
    if not np.all((linear > 0) & np.isfinite(linear)):
        raise argparse.ArgumentTypeError(f"{text!r} gives thresholds of 0 or infinity in linear scale")
    return grid


def _quad_nodes(text) -> dict:
    overrides = {}
    for pair in text.split(","):
        pair = pair.strip()
        if not pair:
            continue
        if "=" not in pair:
            raise argparse.ArgumentTypeError(f"expects LEVEL=K pairs, got {pair!r}")
        level, _, count = pair.partition("=")
        level = level.strip()
        if level not in DEFAULT_NODES:
            raise argparse.ArgumentTypeError(f"level must be one of {sorted(DEFAULT_NODES)}, got {level!r}")
        if level in overrides:
            raise argparse.ArgumentTypeError(f"level {level!r} is given more than once")
        overrides[level] = _number(int, lambda v: v >= 4, f"give level {level!r} at least 4 nodes")(count)
    return overrides


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdd2d",
        description=(
            "Evaluate the full-duplex cache-enabled D2D network model: "
            "closed-form success curves, Monte Carlo simulation, or both."
        ),
    )
    parser.add_argument("--config", help="flat key=value file; flags override file values")
    parser.add_argument("--mode", choices=RUN_MODES, default="analytic", help="what to compute (default %(default)s)")
    parser.add_argument("--n-users", dest="n_users", type=_count, help="number of users N (required)")
    parser.add_argument("--radius", type=SWEEP_CONVERTERS["radius"], default="30", help="disk radius in meters (default %(default)s)")
    parser.add_argument("--library-size", dest="library_size", type=_count, default="1000", help="content library size m (default %(default)s)")
    parser.add_argument("--zipf", type=SWEEP_CONVERTERS["gamma_r"], default="1.2", help="Zipf skew exponent gamma_r (default %(default)s)")
    parser.add_argument("--alpha", type=_number(float, lambda v: v > 2, "exceed 2"), default="4", help="path-loss exponent, > 2 (default %(default)s)")
    parser.add_argument("--beta", type=SWEEP_CONVERTERS["beta"], default="1e-5", help="residual self-interference power ratio in [0,1] (default %(default)s)")
    parser.add_argument("--theta-db", dest="theta_db", type=_theta_grid, default="-10:30:2", help="SIR threshold grid start:stop:step in dB (default %(default)s)")
    parser.add_argument(
        "--sweep",
        action="append",
        default=None,
        metavar="PARAM=V1,V2,...",
        help=f"sweep one of {SWEEPABLE}; repeat the flag to sweep several (cartesian product)",
    )
    parser.add_argument("--trials", type=_count, default="10000", help="Monte Carlo trials (default %(default)s)")
    parser.add_argument(
        "--seed", type=_number(int, lambda v: 0 <= v < 2**64, "lie in [0, 2**64)"), default="0",
        help="master seed for the simulator, an integer in [0, 2**64) (default %(default)s)",
    )
    parser.add_argument("--si-model", dest="si_model", choices=SI_MODELS, default=SI_PER_INTERFERER, help="self-interference accounting (default %(default)s)")
    parser.add_argument(
        "--quad-nodes", dest="quad_nodes", type=_quad_nodes, default={}, metavar="LEVEL=K,...",
        help=f"override quadrature node counts per level, defaults {DEFAULT_NODES}",
    )
    parser.add_argument("--out", default="results.csv", help="output CSV path (default %(default)s)")
    return parser


def _read_config_file(path: str, known, error) -> dict:
    """Values by key; ``sweep`` lines add up to a list, any other key may appear once."""
    values = {"sweep": []}
    first_line = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    error(f"--config {path}: line {lineno} is not key=value: {raw.strip()!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                key = key.replace("-", "_")
                if key not in known:
                    error(f"--config {path}: line {lineno} has unknown key {key!r}; valid: {sorted(known)}")
                if key == "sweep":
                    values["sweep"].append(value)
                    continue
                if key in first_line:
                    error(f"--config {path}: key {key!r} is given on line {first_line[key]} and again on line {lineno}")
                first_line[key] = lineno
                values[key] = value
    except OSError as exc:
        error(f"--config: cannot read {path}: {exc}")
    return values


def _parse_sweep(entries, error) -> list:
    sweep = []
    for entry in entries:
        if "=" not in entry:
            error(f"--sweep expects PARAM=V1,V2,..., got {entry!r}")
        name, _, values_text = entry.partition("=")
        name = name.strip().replace("-", "_")
        if name not in SWEEP_CONVERTERS:
            error(f"--sweep parameter must be one of {SWEEPABLE}, got {name!r}")
        if any(name == swept for swept, _ in sweep):
            error(f"--sweep {name} is given more than once; list all its values in one flag")
        raw_values = [v for v in values_text.split(",") if v.strip()]
        if not raw_values:
            error(f"--sweep {name} has no values")
        try:
            sweep.append((name, [SWEEP_CONVERTERS[name](v) for v in raw_values]))
        except argparse.ArgumentTypeError as exc:
            error(f"--sweep {name}: {exc}")
    return sweep


def _join_theta_flag(argv) -> list:
    """Fuse ``--theta-db -10:30:1`` into one token so argparse does not read the
    leading minus of the grid as an option prefix."""
    out = []
    for token in argv:
        if out and out[-1] == "--theta-db":
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def parse_args(argv=None) -> argparse.Namespace:
    """Parse flags (and an optional config file) into the validated namespace that ``run`` reads.

    ``run`` reads ``mode``, ``n_users``, ``radius``, ``library_size``, ``zipf``
    (gamma_r), ``alpha``, ``beta``, ``theta_db`` (the dB grid as an array),
    ``sweep`` (``(parameter, values)`` pairs in flag order), ``trials``,
    ``seed``, ``si_model``, ``quad_nodes`` and ``out``.  Each numeric flag
    converts and checks its value in its argparse ``type``, which also
    converts the string defaults a config file sets; ``--sweep`` values go
    through the same converters.  Usage problems exit with status 2 and a
    message naming the flag.
    """
    parser = _build_parser()
    argv = _join_theta_flag(sys.argv[1:] if argv is None else list(argv))
    args = parser.parse_args(argv)
    error = parser.error

    file_sweep = []
    if args.config:
        # file values become the defaults that flags override; a --sweep flag
        # replaces the file's sweep instead of adding to it
        file_values = _read_config_file(args.config, set(vars(args)) - {"config"}, error)
        file_sweep = file_values.pop("sweep")
        parser.set_defaults(**file_values)
        args = parser.parse_args(argv)

    if args.mode not in RUN_MODES:
        error(f"--mode must be one of {RUN_MODES}, got {args.mode!r}")
    try:
        resolve_workers()
    except ValueError as exc:
        error(str(exc))
    if args.si_model not in SI_MODELS:
        error(f"--si-model must be one of {SI_MODELS}, got {args.si_model!r}")
    if args.n_users is None:
        error("--n-users is required (flag or config file)")

    args.sweep = _parse_sweep(args.sweep if args.sweep is not None else file_sweep, error)
    # a swept parameter's values replace its flag in every point of the run
    users = dict(args.sweep).get("n_users")
    if max(users or [args.n_users]) > args.library_size:
        error(f"{'--sweep n_users' if users else '--n-users'} must not exceed --library-size ({args.library_size})")
    radii = dict(args.sweep).get("radius")
    for radius in radii or [args.radius]:
        try:
            ModelConfig.check_distance_powers(radius, args.alpha)
        except ValueError as exc:
            error(f"{'--sweep radius' if radii else '--radius'} and --alpha: {exc}")
    return args


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _point_config(spec: argparse.Namespace, point: dict, profiles: dict) -> ModelConfig:
    """The model of one sweep point; points of one ``gamma_r`` share its profile in ``profiles``."""
    value = {"n_users": spec.n_users, "gamma_r": spec.zipf, "radius": spec.radius, "beta": spec.beta, **point}
    if value["gamma_r"] not in profiles:
        profiles[value["gamma_r"]] = build_zipf(spec.library_size, value["gamma_r"])
    return ModelConfig(
        n_users=value["n_users"],
        disk=DiskConfig(value["radius"]),
        profile=profiles[value["gamma_r"]],
        channel=ChannelConfig(alpha=spec.alpha, beta=value["beta"]),
    )


def run(spec: argparse.Namespace) -> int:
    """Execute the experiment of a ``parse_args`` namespace, write the CSV, and print the summary.

    Reads ``mode``, ``n_users``, ``radius``, ``library_size``, ``zipf``, ``alpha``, ``beta``,
    ``theta_db``, ``sweep``, ``trials``, ``seed``, ``si_model``, ``quad_nodes`` and ``out``.
    Returns the process exit code: 0 on success, 3 on output I/O failure.
    """
    thetas = 10.0 ** (spec.theta_db / 10.0)
    quad = QuadratureSpec(spec.quad_nodes)
    simulate = spec.mode in ("simulate", "both")
    analytic = spec.mode in ("analytic", "both")

    profiles = {}
    # the points are the cartesian product of the sweep, first parameter
    # outermost; every point's model is held until its tasks are folded
    points = itertools.product(*([(name, v) for v in values] for name, values in spec.sweep))
    configs = [_point_config(spec, dict(point), profiles) for point in points]
    sim = SimConfig(trials=spec.trials, master_seed=spec.seed, si_model=spec.si_model)
    rows = []
    gap_overall = None
    # every point's tasks are queued before the first analytic curve,
    # so the workers simulate while this process computes curves
    with simulate_points(configs if simulate else [], sim, thetas) as simulated:
        for cfg in configs:
            mp = compute_mode_probabilities(cfg.profile, cfg.n_users)
            print(
                f"== n_users={cfg.n_users} gamma_r={cfg.profile.gamma_r} radius={cfg.disk.radius} "
                f"alpha={cfg.channel.alpha} beta={cfg.channel.beta} =="
            )
            print("  " + "  ".join(f"{name[2:].upper().replace('_', '-')}={getattr(mp, name):.6f}" for name in MODE_FIELDS))
            print(f"  P-TX={mp.p_tx:.6f}")

            curve_a = success_curve(cfg, thetas, quad, spec.si_model) if analytic else None
            curve_s = None
            if simulate:
                curve_s, report = next(simulated)
                freqs = report.mode_frequencies
                print("  simulated mode frequencies: " + "  ".join(
                    f"{mode.name.replace('_', '-')}={freqs[mode]:.6f}" for mode in Mode
                ))
            if analytic and simulate:
                gap = float(np.max(np.abs(curve_a.p_total - curve_s.p_total)))
                at_db = float(spec.theta_db[int(np.argmax(np.abs(curve_a.p_total - curve_s.p_total)))])
                print(f"  max |p_total_analytic - p_total_sim| = {gap:.6f} at theta_db={at_db:g}")
                gap_overall = gap if gap_overall is None else max(gap_overall, gap)

            p_cache = float((curve_a or curve_s).p_cache)
            for i, theta_db in enumerate(spec.theta_db):
                rows.append(
                    {
                        "theta_db": _fmt(float(theta_db)),
                        "theta_linear": _fmt(float(thetas[i])),
                        "p_cache": _fmt(p_cache),
                        "p_sir_analytic": _fmt(float(curve_a.p_sir[i])) if curve_a is not None else "",
                        "p_total_analytic": _fmt(float(curve_a.p_total[i])) if curve_a is not None else "",
                        "p_total_sim": _fmt(float(curve_s.p_total[i])) if curve_s is not None else "",
                        "ci_halfwidth": _fmt(float(curve_s.ci_halfwidth[i])) if curve_s is not None else "",
                        "n_users": _fmt(cfg.n_users),
                        "gamma_r": _fmt(cfg.profile.gamma_r),
                        "radius": _fmt(cfg.disk.radius),
                        "alpha": _fmt(cfg.channel.alpha),
                        "beta": _fmt(cfg.channel.beta),
                        "trials": _fmt(spec.trials) if simulate else "",
                        "seed": _fmt(spec.seed) if simulate else "",
                    }
                )

    try:
        with open(spec.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
    except OSError as exc:
        print(f"fdd2d: cannot write {spec.out}: {exc}", file=sys.stderr)
        return 3
    if gap_overall is not None:
        print(f"overall max analytic-vs-simulated gap: {gap_overall:.6f}")
    print(f"wrote {len(rows)} rows to {spec.out}")
    return 0


def main(argv=None):
    sys.exit(run(parse_args(argv)))


if __name__ == "__main__":
    main()
