"""Command-line front end: experiment configuration, parameter sweeps, CSV emission."""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import re
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


def _number(kind):
    """Argparse converter of text to ``kind``, finite if float; the library checks the range."""

    def convert(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expects {'an integer' if kind is int else 'a number'}, got {text!r}") from None
        if kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        return value

    return convert


# The converter of each sweepable parameter, used by its flag and by --sweep.
SWEEP_CONVERTERS = {"n_users": _number(int), "gamma_r": _number(float), "radius": _number(float), "beta": _number(float)}
SWEEPABLE = tuple(SWEEP_CONVERTERS)
# The flag of each parameter of a sweep point, in the order a point's usage error names them.
_POINT_FLAGS = {"n_users": "--n-users", "library_size": "--library-size", "gamma_r": "--zipf",
                "radius": "--radius", "alpha": "--alpha", "beta": "--beta"}


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


def _quad_nodes(text) -> QuadratureSpec:
    """The quadrature rule of ``LEVEL=K`` pairs; :class:`QuadratureSpec` checks the levels and counts."""
    overrides = {}
    for pair in filter(None, (pair.strip() for pair in text.split(","))):
        level, eq, count = pair.partition("=")
        if not eq:
            raise argparse.ArgumentTypeError(f"expects LEVEL=K pairs, got {pair!r}")
        level = level.strip()
        if level in overrides:
            raise argparse.ArgumentTypeError(f"level {level!r} is given more than once")
        overrides[level] = _number(int)(count)
    try:
        return QuadratureSpec(overrides)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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
    parser.add_argument("--n-users", dest="n_users", type=_number(int), help="number of users N (required unless swept)")
    parser.add_argument("--radius", type=SWEEP_CONVERTERS["radius"], default="30", help="disk radius in meters (default %(default)s)")
    parser.add_argument("--library-size", dest="library_size", type=_number(int), default="1000", help="content library size m (default %(default)s)")
    parser.add_argument("--zipf", type=SWEEP_CONVERTERS["gamma_r"], default="1.2", help="Zipf skew exponent gamma_r (default %(default)s)")
    parser.add_argument("--alpha", type=_number(float), default="4", help="path-loss exponent, > 2 (default %(default)s)")
    parser.add_argument("--beta", type=SWEEP_CONVERTERS["beta"], default="1e-5", help="residual self-interference power ratio in [0,1] (default %(default)s)")
    parser.add_argument("--theta-db", dest="theta_db", type=_theta_grid, default="-10:30:2", help="SIR threshold grid start:stop:step in dB (default %(default)s)")
    parser.add_argument(
        "--sweep",
        action="append",
        default=None,
        metavar="PARAM=V1,V2,...",
        help=f"sweep one of {SWEEPABLE}; repeat the flag to sweep several (cartesian product)",
    )
    parser.add_argument("--trials", type=_number(int), default="10000", help="Monte Carlo trials (default %(default)s)")
    parser.add_argument("--seed", type=_number(int), default="0", help="master seed for the simulator, an integer in [0, 2**64) (default %(default)s)")
    parser.add_argument("--si-model", dest="si_model", choices=SI_MODELS, default=SI_PER_INTERFERER, help="self-interference accounting (default %(default)s)")
    parser.add_argument(
        "--quad-nodes", dest="quad_nodes", type=_quad_nodes, default="", metavar="LEVEL=K,...",
        help=f"override quadrature node counts per level, defaults {DEFAULT_NODES}",
    )
    parser.add_argument("--out", default="results.csv", help="output CSV path (default %(default)s)")
    return parser


def _read_config_file(path: str, known, sweep_flagged: bool, error) -> list:
    """The file's ``key = value`` lines as ``--key=value`` flags, in file order.

    ``sweep`` lines add up, and are left out when the command line has its own
    ``--sweep``; any other key may appear once.
    """
    flags, first_line = [], {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if "\0" in raw:
                    error(f"--config {path}: line {lineno} holds a NUL byte; a config file is text")
                # a comment starts at a "#" that opens the line or follows whitespace
                line = re.split(r"(?<!\S)#", raw, maxsplit=1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    error(f"--config {path}: line {lineno} is not key=value: {raw.strip()!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                key = key.replace("-", "_")
                if key not in known:
                    error(f"--config {path}: line {lineno} has unknown key {key!r}; valid: {sorted(known)}")
                if key in first_line and key != "sweep":
                    error(f"--config {path}: key {key!r} is given on line {first_line[key]} and again on line {lineno}")
                first_line.setdefault(key, lineno)
                if key != "sweep" or not sweep_flagged:
                    flags.append(f"--{key.replace('_', '-')}={value}")
    except (OSError, UnicodeDecodeError) as exc:
        error(f"--config: cannot read {path}: {exc}")
    return flags


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

    ``run`` reads ``mode``, ``configs`` (the ``ModelConfig`` of each point of
    ``sweep``, whose ``(parameter, values)`` pairs are in flag order),
    ``theta_db`` (the dB grid as an array), ``sim`` (the ``SimConfig`` of
    ``trials``, ``seed`` and ``si_model``), ``quad_nodes`` (a
    ``QuadratureSpec``) and ``out``.  A config file's lines are read as the
    flags they name, placed before the command line's, so flags win; the
    converters only parse, whichever source gives a value.  The models and
    ``SimConfig`` check each value the run uses as they are built here, so a
    bad one exits with status 2 before any work.  A swept parameter's values
    replace its flag, which goes unchecked, and ``--n-users`` is required
    unless swept.  Every usage error names the flag.
    """
    parser = _build_parser()
    argv = _join_theta_flag(sys.argv[1:] if argv is None else list(argv))
    args = parser.parse_args(argv)
    error = parser.error
    if args.config:
        # the file's lines are flags placed before the command line's, which win
        file_flags = _read_config_file(args.config, set(vars(args)) - {"config"}, args.sweep is not None, error)
        args = parser.parse_args(file_flags + argv)

    try:
        resolve_workers()
    except ValueError as exc:
        error(str(exc))
    args.sweep = _parse_sweep(args.sweep or [], error)
    # a swept parameter's values replace its flag in every point of the run
    swept = {name for name, _ in args.sweep}
    if args.n_users is None and "n_users" not in swept:
        error("--n-users is required (flag or config file) unless n_users is swept")
    flags = [f"--sweep {name}" if name in swept else flag for name, flag in _POINT_FLAGS.items()]
    profiles, args.configs = {}, []
    # the points are the cartesian product of the sweep, first parameter outermost
    for point in itertools.product(*([(name, v) for v in values] for name, values in args.sweep)):
        try:
            args.configs.append(_point_config(args, dict(point), profiles))
        except ValueError as exc:
            error(f"{', '.join(flags[:-1])} and {flags[-1]}: {exc}")
    try:
        args.sim = SimConfig(trials=args.trials, master_seed=args.seed, si_model=args.si_model)
    except ValueError as exc:
        error(f"--trials and --seed: {exc}")
    return args


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)


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


def _rows(spec: argparse.Namespace, thetas, cfg: ModelConfig, curve_a, curve_s):
    """The CSV rows of one point, each a list in ``CSV_COLUMNS`` order."""
    blank = (itertools.repeat(""),) * 2
    columns = zip(
        spec.theta_db, thetas, itertools.repeat(float((curve_a or curve_s).p_cache)),
        *((curve_a.p_sir, curve_a.p_total) if curve_a is not None else blank),
        *((curve_s.p_total, curve_s.ci_halfwidth) if curve_s is not None else blank),
    )
    fixed = [_fmt(v) for v in (cfg.n_users, cfg.profile.gamma_r, cfg.disk.radius, cfg.channel.alpha, cfg.channel.beta,
                               *((spec.sim.trials, spec.sim.master_seed) if curve_s is not None else ("", "")))]
    for values in columns:
        yield [*map(_fmt, values), *fixed]


def run(spec: argparse.Namespace) -> int:
    """Execute the experiment of a ``parse_args`` namespace, write the CSV, and print the summary.

    Reads the attributes that ``parse_args`` names, ``configs``, ``sim`` and ``quad_nodes`` among them.
    Each point's curves are kept, and its rows formatted only as the CSV is written after the last point.
    Returns the process exit code: 0 on success, 3 on output I/O failure.
    """
    thetas = 10.0 ** (spec.theta_db / 10.0)
    simulate = spec.mode in ("simulate", "both")
    analytic = spec.mode in ("analytic", "both")
    curves = []
    gap_overall = None
    # every point's tasks are queued before the first analytic curve,
    # so the workers simulate while this process computes curves
    with simulate_points(spec.configs if simulate else [], spec.sim, thetas) as simulated:
        for cfg in spec.configs:
            mp = compute_mode_probabilities(cfg.profile, cfg.n_users)
            print(
                f"== n_users={cfg.n_users} gamma_r={cfg.profile.gamma_r} radius={cfg.disk.radius} "
                f"alpha={cfg.channel.alpha} beta={cfg.channel.beta} =="
            )
            print("  " + "  ".join(f"{name[2:].upper().replace('_', '-')}={getattr(mp, name):.6f}" for name in MODE_FIELDS))
            print(f"  P-TX={mp.p_tx:.6f}")

            curve_a = success_curve(cfg, thetas, spec.quad_nodes, spec.si_model) if analytic else None
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

            curves.append((cfg, curve_a, curve_s))

    try:
        with open(spec.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for point in curves:
                writer.writerows(_rows(spec, thetas, *point))
    except OSError as exc:
        print(f"fdd2d: cannot write {spec.out}: {exc}", file=sys.stderr)
        return 3
    if gap_overall is not None:
        print(f"overall max analytic-vs-simulated gap: {gap_overall:.6f}")
    print(f"wrote {len(curves) * len(thetas)} rows to {spec.out}")
    return 0


def main(argv=None):
    sys.exit(run(parse_args(argv)))


if __name__ == "__main__":
    main()
