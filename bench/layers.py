"""Per-layer tracing, installed from benchmark code only.

``Tracer.install`` wraps every public function of the hahnvar modules in
each module namespace that binds it (``iterated_quotient`` is bound in
``operators``, ``variational``, ``minimize`` and ``demos``), plus the
public methods of the package's classes and the private series summation loop
``_indexed_series``, whose per-term counts ROADMAP item 1 asks for.
``uninstall`` puts every original back.

Each wrapped call is a span whose parent is the enclosing span on the
stack: self time is the span minus its children.  Recursive calls
(``dsl.evaluate``) count the outermost call only.  Spans are aggregated
into counts and self times as they close.
"""

from __future__ import annotations

import functools
import inspect
import sys
import types
from collections import Counter
from time import perf_counter_ns

LAYERS = ("core", "dsl", "operators", "integrals", "variational", "minimize", "demos", "cli")

# Private functions traced besides the public ones: the series summation loop.
_INTERNAL = {"_indexed_series"}

_VALUE = "dsl.Lagrangian.value"
_MINIMIZE = "minimize.minimize_direct"


class Tracer:
    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.stack: list[list] = []  # [key, layer, start_ns, child_ns, value_calls_at_entry]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "hahnvar" or name.startswith("hahnvar."))]
        wrappers: dict[int, object] = {}
        classes = []
        for module in modules:
            for name, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and _ours(obj) and (
                    not name.startswith("_") or name in _INTERNAL
                ):
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self._wrap(obj)
                    self._patch(module, name, wrappers[id(obj)])
                elif (isinstance(obj, type) and _ours(obj) and not issubclass(obj, BaseException)
                      and obj not in classes):
                    classes.append(obj)
        for cls in classes:
            for name, attr in list(vars(cls).items()):
                if name.startswith("_"):
                    continue
                if isinstance(attr, types.FunctionType):
                    self._patch(cls, name, self._wrap(attr))
                elif isinstance(attr, classmethod):
                    self._patch(cls, name, classmethod(self._wrap(attr.__func__)))

    def uninstall(self) -> None:
        while self._patches:
            target, name, original = self._patches.pop()
            setattr(target, name, original)

    def _patch(self, target, name: str, value) -> None:
        self._patches.append((target, name, vars(target)[name]))
        setattr(target, name, value)

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        key = f"{layer}.{fn.__qualname__}"
        on_return = _ON_RETURN.get(key)
        signature = inspect.signature(fn) if on_return else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][0] == key:
                return fn(*args, **kwargs)
            if key == "dsl.evaluate" and stack and stack[-1][0] == _VALUE:
                tracer.counts["dsl.Lagrangian.value.fallbacks"] += 1
            frame = [key, layer, 0, 0, tracer.calls[_VALUE] if key == _MINIMIZE else 0]
            stack.append(frame)
            frame[2] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame)
                if not stack or stack[-1][1] != layer:
                    tracer.counts[f"{layer}.raised"] += 1
                raise
            tracer._close(frame)
            if on_return is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_return(tracer, frame, bound.arguments, result)
            return result

        return wrapper

    def _close(self, frame: list) -> None:
        duration = perf_counter_ns() - frame[2]
        self.stack.pop()
        key = frame[0]
        self.calls[key] += 1
        self.self_ns[key] += duration - frame[3]
        if self.stack:
            self.stack[-1][3] += duration

    # -- results --------------------------------------------------------

    def span_ms(self) -> float:
        """Sum of all self times, which equals the time covered by root spans."""
        return sum(self.self_ns.values()) / 1e6

    def layer_self_ms(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for key, ns in self.self_ns.items():
            layer = key.split(".", 1)[0]
            if layer in out:
                out[layer] += ns / 1e6
        return out


def _ours(obj) -> bool:
    return getattr(obj, "__module__", "").startswith("hahnvar")


# -- derived counters, taken from arguments and results -----------------

def _series_terms(tracer: Tracer, frame, args, result) -> None:
    tracer.counts["integrals.series_terms"] += result.terms_used
    if tracer.stack:
        tracer.counts[f"{tracer.stack[-1][0]}.terms"] += result.terms_used


def _unconverged(name: str):
    def hook(tracer: Tracer, frame, args, result) -> None:
        if not result.converged:
            tracer.counts[name] += 1
    return hook


def _el_report(tracer: Tracer, frame, args, result) -> None:
    """Points evaluated, and points with full stencil room that were dropped."""
    problem, y, depth = args["problem"], args["y"], args["depth"]
    limit = min(depth, y.lattice.depth) if hasattr(y, "lattice") else depth
    q, omega = problem.params.q, problem.params.omega
    expected = sum(
        max(0, limit - 2 * problem.r + 1)
        for seed in (problem.a, problem.b)
        if seed * (1.0 - q) - omega != 0.0
    )
    points = len(result.residuals) - (1 if result.omega0_included else 0)
    tracer.counts["variational.el_report.points"] += points
    tracer.counts["variational.el_report.points_dropped"] += expected - points


def _minimize(tracer: Tracer, frame, args, result) -> None:
    tracer.counts["minimize.sweeps"] += result.iterations
    tracer.counts["minimize.value_calls"] += tracer.calls[_VALUE] - frame[4]
    if not result.converged:
        tracer.counts["minimize.unconverged"] += 1


_ON_RETURN = {
    "integrals._indexed_series": _series_terms,
    "integrals.integral": _unconverged("integrals.unconverged"),
    "variational.functional_value": _unconverged("variational.functional_value.unconverged"),
    "variational.el_report": _el_report,
    "minimize.minimize_direct": _minimize,
}


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metric values named in BENCHMARK.json (trace.* aside)."""
    calls, self_ns, counts = tracer.calls, tracer.self_ns, tracer.counts
    out: dict[str, float] = {}
    for key in ("dsl.Lagrangian.partial", "dsl.Lagrangian.value", "dsl.evaluate", "dsl.parse",
                "integrals.integral", "operators.iterated_quotient",
                "operators.hahn_derivative_n", "operators.grid_derivative_at_fixed",
                "variational.traj_components", "variational.functional_value",
                "variational.el_report", "variational.first_variation",
                "minimize.minimize_direct"):
        out[f"{key}.calls"] = calls[key]
        out[f"{key}.self_ms"] = self_ns[key] / 1e6
    for key in ("core.GridFunction.sample", "dsl.partial_eval", "variational.first_variation_fd",
                "variational.materialize", "demos.random_admissible_grid", "cli.main"):
        out[f"{key}.self_ms"] = self_ns[key] / 1e6
    out["core.sigma_pow.calls"] = calls["core.sigma_pow"]
    out["core.Lattice.realize.calls"] = calls["core.Lattice.realize"]
    for name in ("dsl.Lagrangian.value.fallbacks", "integrals.series_terms",
                 "integrals.unconverged", "variational.functional_value.terms",
                 "variational.functional_value.unconverged",
                 "variational.el_report.points", "variational.el_report.points_dropped",
                 "minimize.sweeps", "minimize.unconverged"):
        out[name] = counts[name]
    sweeps = counts["minimize.sweeps"]
    out["minimize.value_calls_per_sweep"] = counts["minimize.value_calls"] / sweeps if sweeps else 0.0
    for layer, ms in tracer.layer_self_ms().items():
        out[f"{layer}.self_ms"] = ms
        out[f"{layer}.raised"] = counts[f"{layer}.raised"]
    return out
