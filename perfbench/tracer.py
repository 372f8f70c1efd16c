"""Outside-in tracer for the focusfocus layers.

Nothing inside the package is edited.  ``install`` wraps public functions
of the package's modules and rebinds each wrapper under every name that
refers to the original: a function imported by name into another module
(``from .lattice import reduced_period_rotation``) is a separate binding
and is rebound too.  Two call paths do not go through a module attribute
and are patched where they are held: the ``reduced_profile`` and
``check_window`` methods on the system classes, and the
``acceptance.CRITERIA`` list that ``run_all`` iterates.  (The subcommands,
which ``main`` dispatches through the ``cli.COMMANDS`` dict, are not
traced: the end-to-end ``wall_s`` already times them.)

Each wrapper records a span: its calls, inclusive seconds, and self
seconds (inclusive time minus the time covered by traced child spans).
Spans live in memory and are written out once, by ``snapshot``.

Work done inside worker processes (only C9's ``--jobs 2`` grid run starts
any) is not traced: the workers inherit the wrappers, but their records
die with them.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

# (module, function) pairs wrapped by name
FUNCTIONS = [
    ("numerics", "integrate_flow"),
    ("numerics", "quad_singular"),
    ("numerics", "find_root_bracketed"),
    ("systems", "eval_constants"),
    ("lattice", "reduced_period_rotation"),
    ("lattice", "cross_check"),
    ("lattice", "period_lattice"),
    ("lattice", "annulus_sweep"),
    ("lattice", "fit_asymptotic_model"),
    ("rotation", "rotation_grid"),
    ("rotation", "extract_level_curve"),
    ("rotation", "fit_log_spiral"),
    ("rotation", "monodromy_index"),
    ("twist", "twist"),
    ("twist", "twistless_point"),
    ("kolmogorov", "frequency_jacobian_det"),
    ("kolmogorov", "tau_jacobian"),
    ("cli", "write_csv"),
    ("cli", "write_summary"),
]

# (module, class, method, span name) patched on the class
METHODS = [
    ("systems", "ChampagneBottle", "reduced_profile", "systems.reduced_profile"),
    ("systems", "SphericalPendulum", "reduced_profile", "systems.reduced_profile"),
    ("systems", "SystemDefinition", "check_window", "systems.check_window"),
]

PACKAGE = "focusfocus"


class Span:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self._covered: list[float] = []   # child seconds of each open span
        self.engine_calls = {"quadrature": 0, "flow": 0}
        self.flow_steps = 0
        self._tori_seen: set = set()
        self.first = [0, 0.0]     # quadrature calls on a new torus: n, s
        self.repeat = [0, 0.0]    # quadrature calls on a torus seen before

    def wrap(self, name: str, fn, observe=None):
        span = self.spans.setdefault(name, Span())
        covered = self._covered
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            covered.append(0.0)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                span.calls += 1
                span.total_s += dt
                span.self_s += dt - covered.pop()
                if covered:
                    covered[-1] += dt
                if observe is not None:
                    observe(args, kwargs, result, dt)
        return traced

    def _observe_flow(self, args, kwargs, result, dt):
        if result is not None:
            self.flow_steps += len(result.times) - 1

    def _torus_observer(self, fn):
        params = inspect.signature(fn).parameters
        default_engine = params["engine"].default
        default_tol = params["rel_tol"].default

        def observe(args, kwargs, result, dt):
            system = args[0] if args else kwargs["system"]
            c = args[1] if len(args) > 1 else kwargs["c"]
            engine = args[2] if len(args) > 2 else kwargs.get("engine", default_engine)
            self.engine_calls[engine] = self.engine_calls.get(engine, 0) + 1
            if engine != "quadrature":
                return
            rel_tol = args[3] if len(args) > 3 else kwargs.get("rel_tol", default_tol)
            key = (system, c.h, c.l, rel_tol)
            if key in self._tori_seen:
                self.repeat[0] += 1
                self.repeat[1] += dt
            else:
                self.first[0] += 1
                self.first[1] += dt
                if result is not None:   # a failed torus is not cached
                    self._tori_seen.add(key)
        return observe

    def snapshot(self) -> dict:
        return {
            "spans": {k: [s.calls, s.total_s, s.self_s]
                      for k, s in self.spans.items()},
            "engine_calls": dict(self.engine_calls),
            "flow_steps": self.flow_steps,
            "distinct_tori": len(self._tori_seen),
            "first": list(self.first),
            "repeat": list(self.repeat),
        }


def _rebind(original, wrapper) -> None:
    """Point every package-level name bound to `original` at `wrapper`."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == PACKAGE
                               or modname.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install() -> Tracer:
    """Import every layer, wrap the traced functions, return the tracer."""
    import importlib

    mods = {name: importlib.import_module(f"{PACKAGE}.{name}")
            for name in ("numerics", "systems", "lattice", "rotation",
                         "twist", "kolmogorov", "acceptance", "cli")}
    tracer = Tracer()
    for modname, fname in FUNCTIONS:
        original = getattr(mods[modname], fname)
        observe = None
        if fname == "integrate_flow":
            observe = tracer._observe_flow
        elif fname == "reduced_period_rotation":
            observe = tracer._torus_observer(original)
        _rebind(original, tracer.wrap(f"{modname}.{fname}", original,
                                      observe))
    for modname, cls, meth, name in METHODS:
        klass = getattr(mods[modname], cls)
        setattr(klass, meth, tracer.wrap(name, vars(klass)[meth]))

    criteria = mods["acceptance"].CRITERIA
    for i, crit in enumerate(criteria):
        cid = crit.__name__.split("_")[0]
        criteria[i] = tracer.wrap(f"acceptance.{cid}", crit)
    return tracer
