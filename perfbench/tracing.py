"""Per-layer tracing of matconvex, wrapped from outside the library.

The layers are the library's modules.  :func:`install` wraps

* ``numpy.linalg.{eigh, eigvalsh, inv, qr}`` at ``numpy.linalg``;
* every public function of every layer module, in every ``matconvex.*``
  namespace and module-level dict that bound it (``from .linalg import
  min_eigenvalue`` binds at import time, and ``suite.CHECKS`` holds the
  check functions);
* the class-level hooks ``RandomSpec.rng`` and ``DensityOperator.__post_init__``;
* ``convexity._aggregate``, the one place a ``Verdict`` is made, to sum
  ``Verdict.trials``.

Each call becomes a span (id, name, start, end, parent id, pass id) kept in
memory.  A layer's self time is its spans' duration minus the part their
child spans cover; a group time is the duration of the outermost span of a
group, so nested calls are not counted twice.  ``Installation.restore`` puts back
every binding, so tracing changes no result.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable

import numpy as np

LAYERS = ("rand", "linalg", "entropy", "convexity", "jointconcavity",
          "quadrature", "resolvent", "io", "suite", "cli")
KERNELS = ("eigh", "eigvalsh", "inv", "qr")
#: Matrices up to this size count as small spectral calls.
SMALL_N = 8
TPI = "jointconcavity.tensor_power_integral"


class Tracer:
    """Span recorder; call :meth:`start_pass` before each traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_pass = array("i")
        self._next_id = 0
        self._stack = [[-1, 0.0]]
        self._depth: Counter = Counter()
        self.pass_id = -1

    def start_pass(self) -> None:
        """Open a new pass id and zero the per-pass aggregates."""
        self.pass_id += 1
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.group_s: defaultdict = defaultdict(float)

    def active(self, group: str) -> bool:
        return self._depth[group] > 0

    def wrap(self, fn: Callable, layer: str, name: str, group: str | None = None,
             note: Callable | None = None) -> Callable:
        """Return ``fn`` recording a span per call; ``note(tracer, args,
        result)`` updates counters after a call that returned."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        clock = time.perf_counter
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            if group:
                depth[group] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[1] += elapsed
                self.self_s[layer] += elapsed - frame[1]
                self.calls[name] += 1
                if group:
                    depth[group] -= 1
                    if not depth[group]:
                        self.group_s[group] += elapsed
                self.span_id.append(sid)
                self.span_name.append(nid)
                self.span_start.append(start)
                self.span_end.append(end)
                self.span_parent.append(parent[0])
                self.span_pass.append(self.pass_id)
            if note is not None:
                note(self, args, result)
            return result

        return traced

    def save(self, path) -> None:
        """Write every span recorded so far as an ``.npz`` archive."""
        np.savez(path, names=np.array(self.names), id=np.asarray(self.span_id),
                 name=np.asarray(self.span_name), start=np.asarray(self.span_start),
                 end=np.asarray(self.span_end), parent=np.asarray(self.span_parent),
                 pass_id=np.asarray(self.span_pass))

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the current pass."""
        calls, counts, group_s, self_s = self.calls, self.counts, self.group_s, self.self_s
        eig = calls["numpy.linalg.eigh"] + calls["numpy.linalg.eigvalsh"]
        out = {
            "rand.rng_calls": calls["rand.RandomSpec.rng"],
            "rand.sample_s": group_s["rand.sample"],
            "rand.qr_calls": calls["numpy.linalg.qr"],
            "linalg.eig_calls": eig,
            "linalg.eig_small_frac": counts["linalg.eig_small"] / eig if eig else 0.0,
            "linalg.inv_calls": calls["numpy.linalg.inv"],
            "linalg.kernel_s": group_s["linalg.kernel"],
            "linalg.apply_function_s": group_s["linalg.apply_function"],
            "linalg.scalar_evals": counts["linalg.scalar_evals"],
            "entropy.validations": calls["entropy.DensityOperator.__post_init__"],
            "entropy.validate_s": group_s["entropy.validate"],
            "entropy.partial_trace_calls": calls["entropy.partial_trace"],
            "entropy.self_s": self_s["entropy"],
            "convexity.trials": counts["convexity.trials"],
            "convexity.self_s": self_s["convexity"],
            "jointconcavity.tensor_power_integral_s": group_s[TPI],
            "jointconcavity.inversions": counts["jointconcavity.inversions"],
            "jointconcavity.self_s": self_s["jointconcavity"],
            "quadrature.rule_points": counts["quadrature.rule_points"],
            "quadrature.rule_s": group_s["quadrature.rule"],
            "resolvent.self_s": self_s["resolvent"],
            "io.serialize_s": group_s["io.serialize"],
            "io.report_bytes": counts["io.report_bytes"],
            "cli.self_s": self_s["cli"],
        }
        from matconvex.suite import CHECKS

        for check in CHECKS:
            out[f"suite.check_s.{check}"] = group_s[f"suite.check_s.{check}"]
        return out

    def call_counts(self) -> dict[str, int]:
        """Raw call counts of the current pass, by span name."""
        return dict(sorted(self.calls.items()))


# ---------------------------------------------------------------------------
# Counters updated after a call.


def _note_eig(tracer: Tracer, args, result) -> None:
    if np.shape(args[0])[-1] <= SMALL_N:
        tracer.counts["linalg.eig_small"] += 1


def _note_inv(tracer: Tracer, args, result) -> None:
    if tracer.active(TPI):
        tracer.counts["jointconcavity.inversions"] += 1


def _note_apply_function(tracer: Tracer, args, result) -> None:
    tracer.counts["linalg.scalar_evals"] += np.shape(args[0])[-1]


def _note_aggregate(tracer: Tracer, args, result) -> None:
    tracer.counts["convexity.trials"] += result.trials


def _note_rule(tracer: Tracer, args, result) -> None:
    if isinstance(result, tuple) and not tracer.active("quadrature.rule"):
        tracer.counts["quadrature.rule_points"] += len(result[1])


def _note_save_json(tracer: Tracer, args, result) -> None:
    tracer.counts["io.report_bytes"] += os.path.getsize(args[0])


# ---------------------------------------------------------------------------
# Installing and removing the wrappers.


def _namespaces() -> list[dict]:
    return [vars(mod) for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "matconvex" or name.startswith("matconvex."))]


def _function_spec(layer: str, fname: str, checks: dict) -> tuple[str | None, Callable | None]:
    """Group and counter for one public function of a layer module."""
    if layer == "rand" and fname.endswith("_from"):
        return "rand.sample", None
    if layer == "linalg" and fname == "apply_function":
        return "linalg.apply_function", _note_apply_function
    if layer == "jointconcavity" and fname == "tensor_power_integral":
        return TPI, None
    if layer == "quadrature":
        return "quadrature.rule", _note_rule
    if layer == "io":
        return "io.serialize", _note_save_json if fname == "save_json" else None
    if layer == "suite" and fname in checks:
        return f"suite.check_s.{checks[fname]}", None
    return None, None


class Installation:
    """The bindings replaced by :func:`install`; :meth:`restore` undoes them."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set_attr(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def rebind(self, namespaces: list[dict], orig: Callable, new: Callable) -> None:
        """Point every binding of ``orig`` in the namespaces, and in their
        module-level dicts, at ``new``."""
        for ns in namespaces:
            dicts = [v for k, v in ns.items() if isinstance(v, dict) and not k.startswith("__")]
            for container in [ns, *dicts]:
                for key, val in list(container.items()):
                    if val is orig:
                        self._undo.append((container, key, orig))
                        container[key] = new

    def restore(self) -> None:
        for owner, key, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._undo.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap numpy.linalg, the layer modules and the class hooks."""
    import importlib

    mods = {layer: importlib.import_module(f"matconvex.{layer}") for layer in LAYERS}
    inst = Installation()

    for kernel in KERNELS:
        note = _note_eig if kernel.startswith("eig") else _note_inv if kernel == "inv" else None
        inst.set_attr(np.linalg, kernel, tracer.wrap(
            getattr(np.linalg, kernel), "numpy", f"numpy.linalg.{kernel}",
            "linalg.kernel", note))

    rand, entropy = mods["rand"], mods["entropy"]
    inst.set_attr(rand.RandomSpec, "rng", tracer.wrap(
        rand.RandomSpec.rng, "rand", "rand.RandomSpec.rng"))
    inst.set_attr(entropy.DensityOperator, "__post_init__", tracer.wrap(
        entropy.DensityOperator.__post_init__, "entropy",
        "entropy.DensityOperator.__post_init__", "entropy.validate"))

    checks = {fn.__name__: name for name, fn in mods["suite"].CHECKS.items()}
    targets = []
    for layer, mod in mods.items():
        for fname, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ \
                    and not fname.startswith("_"):
                group, note = _function_spec(layer, fname, checks)
                targets.append((fn, tracer.wrap(fn, layer, f"{layer}.{fname}", group, note)))
    aggregate = mods["convexity"]._aggregate
    targets.append((aggregate, tracer.wrap(
        aggregate, "convexity", "convexity._aggregate", None, _note_aggregate)))

    namespaces = _namespaces()
    for orig, new in targets:
        inst.rebind(namespaces, orig, new)
    return inst
