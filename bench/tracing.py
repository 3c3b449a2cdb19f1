"""Spans around calls into fdd2d's public functions, recorded from the benchmark.

Each public name is wrapped in every fdd2d module that holds it, so a call
from one module into another is timed where the caller looks the name up.
A name that a later version no longer exports is skipped; its metrics then
read 0.  Spans stay in memory until the round ends.
"""

import functools
import sys
import time

# module -> public functions timed in it
LAYERS = {
    "analytic": ("laplace_interference", "success_curve"),
    "geometry": ("link_distance_nodes",),
    "modes": ("compute_mode_probabilities", "transmitter_count_pmf"),
    "popularity": ("build_zipf",),
    "simulator": ("sample_realization", "classify_modes", "link_sir", "trial_success", "run_experiment"),
    "cli": ("parse_args", "run"),
}


def _laplace_key(args, kwargs):
    """(radius, alpha, node counts, s): a call at a new key computes a new kernel."""
    try:
        s, cfg = args[0], args[3]
        spec = args[4] if len(args) > 4 else kwargs.get("spec")
        nodes = spec.node_items() if spec is not None else None
        return (cfg.disk.radius, cfg.channel.alpha, nodes, float(s))
    except (IndexError, AttributeError, TypeError, ValueError):
        return None


def _curve_points(args, kwargs):
    try:
        return len(args[1] if len(args) > 1 else kwargs["thetas"])
    except (KeyError, TypeError):
        return 0


ATTRS = {"analytic.laplace_interference": _laplace_key, "analytic.success_curve": _curve_points}


class Tracer:
    """Records ``[name, start, end, parent, attr]`` spans and counts quadrature-spec builds."""

    def __init__(self):
        self.spans = []
        self.spec_builds = 0
        self._stack = []

    def install(self):
        modules = [m for name, m in list(sys.modules.items()) if name == "fdd2d" or name.startswith("fdd2d.")]
        for mod_name, names in LAYERS.items():
            module = sys.modules.get(f"fdd2d.{mod_name}")
            for name in names:
                if module is None or name not in getattr(module, "__all__", ()):
                    continue
                original = getattr(module, name)
                wrapper = self._wrap(f"{mod_name}.{name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
        self._count_spec_builds()

    def _wrap(self, name, fn):
        spans, stack, attr_of = self.spans, self._stack, ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      attr_of(args, kwargs) if attr_of else None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def _count_spec_builds(self):
        """Count QuadratureSpec objects built inside an analytic call (none passed in)."""
        quadrature = sys.modules.get("fdd2d.quadrature")
        cls = getattr(quadrature, "QuadratureSpec", None)
        post_init = getattr(cls, "__post_init__", None)
        if post_init is None:
            return
        tracer, spans = self, self.spans

        def counting_post_init(spec):
            if any(spans[i][0].startswith("analytic.") for i in tracer._stack):
                tracer.spec_builds += 1
            post_init(spec)

        cls.__post_init__ = counting_post_init

    def summary(self):
        """Per-name call counts and inclusive seconds, with the kernel split by first key."""
        out = {"quadrature.spec_builds": self.spec_builds}
        seen = set()
        for name, start, end, _parent, attr in self.spans:
            if name == "analytic.laplace_interference":
                name += ".repeat" if attr is not None and attr in seen else ".first"
                seen.add(attr)
            elif name == "analytic.success_curve":
                out["analytic.success_curve.points"] = out.get("analytic.success_curve.points", 0) + attr
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".s"] = out.get(name + ".s", 0.0) + (end - start)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent, _attr) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent}\n")
