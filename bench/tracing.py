"""Per-layer tracing of susyband from outside the package.

``Tracer.install()`` replaces each layer's public functions with timing
wrappers, both in the module that defines them and wherever another susyband
module bound the same function object at import time (``potentials`` binds
``jacobi_sncndn``, ``cli`` binds ``bloch_seed``, ``analysis`` binds ``susy1``,
and so on).  ``uninstall()`` puts the originals back.  No file under ``src/``
changes.

Every wrapped call pushes a frame.  When it returns, its self time (its
duration minus the time of the wrapped calls made inside it) is added to its
layer's busy time, and its full duration to its parent's child time.  Public
entry points also record a span (name, start, end, parent span, request id).
The hot leaves keep counters and busy time only, with no span per call,
because a request makes about 1e5 of those calls: ``LamePotential.__call__``,
``TabulatedPotential.__call__``, ``jacobi_sncndn``, ``seeds.brentq``, and
the integrator loop ``floquet._advance``.  ``analysis`` calls that loop
directly, so it is wrapped too; otherwise the integration work of shooting
would count as self time of ``analysis``.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter
from typing import NamedTuple

import numpy as np

LAYERS = (
    "elliptic", "potentials", "floquet", "seeds", "darboux",
    "numdiff", "analysis", "scenarios", "cli",
)

# private or foreign names that carry a layer's work across module lines
_EXTRA = {"floquet": ("_advance",), "seeds": ("bloch_branches", "brentq")}
_HOT = {
    "elliptic.jacobi_sncndn", "elliptic.complete_k",
    "potentials.LamePotential.__call__", "potentials.TabulatedPotential.__call__",
    "floquet._advance", "floquet.classify_discriminant",
    "floquet.multipliers_from_discriminant", "seeds.brentq",
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None


def _count_points(scalar_key, vector_key, index, from_floquet_key=None):
    """Hook counting scalar calls and vector points of argument `index`,
    and the scalar calls made directly by floquet under `from_floquet_key`."""

    def hook(tracer, parent, args, kwargs):
        x = args[index]
        if type(x) is float or np.isscalar(x):
            tracer.counts[scalar_key] += 1
            if from_floquet_key is not None and parent is not None and parent[1] == "floquet":
                tracer.counts[from_floquet_key] += 1
        else:
            tracer.counts[vector_key] += int(np.size(x))

    return hook


def _propagate_hook(tracer, parent, args, kwargs):
    tracer.counts["floquet.energies"] += 1
    samples = args[4] if len(args) > 4 else kwargs.get("samples")
    if samples is not None:
        tracer.counts["floquet.sampled_breakpoints"] += int(samples)


def _batch_hook(tracer, parent, args, kwargs):
    tracer.counts["floquet.batch_calls"] += 1
    tracer.counts["floquet.energies"] += int(np.size(args[1]))


def _csv_hook(tracer, parent, args, kwargs):
    tracer.counts["darboux.csv_rows"] += len(args[1].x)


def _nested(counter_name, total_name):
    """Hook adding to `total_name` the calls of `counter_name` made inside."""

    def hook(tracer, parent, args, kwargs):
        before = tracer.calls[counter_name]

        def after():
            tracer.counts[total_name] += tracer.calls[counter_name] - before

        return after

    return hook


_HOOKS = {
    "elliptic.jacobi_sncndn": _count_points("elliptic.scalar_calls", "elliptic.vector_points", 0),
    "potentials.LamePotential.__call__": _count_points(
        "potentials.lame_scalar_calls", "potentials.vector_points", 1, "floquet.scalar_v_calls"),
    "potentials.TabulatedPotential.__call__": _count_points(
        "potentials.tabulated_scalar_calls", "potentials.vector_points", 1,
        "floquet.scalar_v_calls"),
    "floquet.propagate": _propagate_hook,
    "floquet.transfer_matrices": _batch_hook,
    "floquet.band_edges": _nested("floquet.transfer_matrices", "floquet.band_edges_batches"),
    "analysis.shooting_eigenvalue": _nested(
        "floquet.transfer_matrix", "analysis.shooting_transfer_matrices"),
    "darboux.write_transform_csv": _csv_hook,
}


class Tracer:
    """Busy time per layer, call counts, inclusive times and spans."""

    def __init__(self):
        self.busy = dict.fromkeys(LAYERS, 0.0)
        self.calls: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[Span] = []
        self.request: int | None = None
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    def _wrap(self, layer: str, name: str, fn):
        hot = name in _HOT
        hook = _HOOKS.get(name)
        stack = self._stack
        busy = self.busy
        calls = self.calls
        inclusive = self.inclusive
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            after = hook(tracer, parent, args, kwargs) if hook is not None else None
            parent_span = parent[2] if parent is not None else None
            # frame: [time of wrapped children, layer, enclosing span index]
            frame = [0.0, layer, parent_span]
            if not hot:
                frame[2] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                busy[layer] += dt - frame[0]
                if parent is not None:
                    parent[0] += dt
                calls[name] += 1
                inclusive[name] += dt
                if not hot:
                    spans[frame[2]] = Span(name, t0, t0 + dt, parent_span, tracer.request)
                if after is not None:
                    after()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every layer's public functions and the hot potential methods."""
        import susyband
        from susyband import potentials

        modules = {layer: importlib.import_module("susyband." + layer) for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            names = [n for n in getattr(mod, "__all__", ()) if inspect.isfunction(getattr(mod, n))]
            names += [n for n in _EXTRA.get(layer, ()) if hasattr(mod, n)]
            for n in names:
                fn = getattr(mod, n)
                if fn.__module__.startswith("susyband") and fn.__module__ != mod.__name__:
                    continue  # re-export of another layer's function
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = (fn, self._wrap(layer, f"{layer}.{n}", fn))
        for mod in [susyband, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)][1])
        for cls in (potentials.LamePotential, potentials.TabulatedPotential):
            original = cls.__dict__["__call__"]
            self._saved.append((cls, "__call__", original))
            cls.__call__ = self._wrap("potentials", f"potentials.{cls.__name__}.__call__", original)

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def snapshot(self) -> dict:
        """Every count the trace keeps, and the shape of its span tree, for
        the repeat self-check."""
        shape = [(s.name, s.parent, s.request) for s in self.spans]
        return {**{f"calls:{k}": v for k, v in self.calls.items()},
                **{f"count:{k}": v for k, v in self.counts.items()},
                "spans": shape}

    def root_span_seconds(self) -> dict:
        """Request id -> time spent in spans that no other span encloses."""
        inside: Counter = Counter()
        for s in self.spans:
            if s.parent is None:
                inside[s.request] += s.end - s.start
        return inside

    def layer_metrics(self) -> dict:
        """The per-layer metrics named in BENCHMARK.json, as plain numbers."""
        c, inc, k, busy = self.calls, self.inclusive, self.counts, self.busy
        band_edges = c["floquet.band_edges"]
        shootings = c["analysis.shooting_eigenvalue"]
        return {
            "elliptic.scalar_calls": k["elliptic.scalar_calls"],
            "elliptic.vector_points": k["elliptic.vector_points"],
            "elliptic.busy_s": busy["elliptic"],
            "potentials.lame_scalar_calls": k["potentials.lame_scalar_calls"],
            "potentials.tabulated_scalar_calls": k["potentials.tabulated_scalar_calls"],
            "potentials.vector_points": k["potentials.vector_points"],
            "potentials.busy_s": busy["potentials"],
            "floquet.scalar_v_calls": k["floquet.scalar_v_calls"],
            "floquet.energies": k["floquet.energies"],
            "floquet.batch_calls": k["floquet.batch_calls"],
            "floquet.sampled_breakpoints": k["floquet.sampled_breakpoints"],
            "floquet.band_edges_s": inc["floquet.band_edges"],
            "floquet.batches_per_band_edges":
                k["floquet.band_edges_batches"] / band_edges if band_edges else 0.0,
            "floquet.busy_s": busy["floquet"],
            "seeds.bloch_branches_calls": c["seeds.bloch_branches"],
            "seeds.bloch_branches_s": inc["seeds.bloch_branches"],
            "seeds.nodeless_mixing_s": inc["seeds.nodeless_mixing"],
            "seeds.brentq_calls": c["seeds.brentq"],
            "seeds.busy_s": busy["seeds"],
            "numdiff.calls": c["numdiff.derivative"] + c["numdiff.second_derivative"],
            "numdiff.busy_s": busy["numdiff"],
            "darboux.susy_calls": c["darboux.susy1"] + c["darboux.susy2"],
            "darboux.busy_s": busy["darboux"],
            "darboux.csv_rows": k["darboux.csv_rows"],
            "darboux.csv_write_s": inc["darboux.write_transform_csv"],
            "cli.busy_s": busy["cli"],
            "cli.bytes_written": k["cli.bytes_written"],
            "scenarios.busy_s": busy["scenarios"],
            "analysis.displacement_fit_s": inc["analysis.displacement_fit"],
            "analysis.shooting_s": inc["analysis.shooting_eigenvalue"],
            # each mismatch evaluation builds two one-period transfer matrices
            "analysis.mismatch_evals_per_eig":
                k["analysis.shooting_transfer_matrices"] / 2 / shootings if shootings else 0.0,
            "analysis.compare_s": inc["analysis.compare_band_structure"],
            "analysis.busy_s": busy["analysis"],
        }
