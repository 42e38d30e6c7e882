"""Per-layer timing by wrapping photonsim's public functions from outside.

Each target is replaced, for the duration of a traced run, by a wrapper that
counts calls, accumulates its time and its self time (its time minus the
time of the wrapped calls made inside it) and, for some targets, a work
quantity such as the matrix size cubed.  Wrappers replace every binding of
the function object in every ``photonsim.*`` module, including the copies
that ``from .x import y`` makes and values of module-level dicts such as the
CLI's scenario table, so a call is traced whichever name it goes through.
A target that no longer exists is reported as absent, with zero counts.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def _n_cubed(args, kwargs, result):
    return args[0].shape[0] ** 3


def _hamiltonian_bytes(args, kwargs, result):
    return 16 * len(args[0]) ** 2


def _steps(args, kwargs, result):
    return len(args[1] if len(args) > 1 else kwargs["steps"])


def _result_len(args, kwargs, result):
    return len(result)


# (span name, module, attribute path, work quantity name, quantity function).
# Spans sharing a name are added together.
TARGETS: tuple = (
    ("cli.main", "photonsim.cli", "main", None, None),
    ("scenarios.build", "photonsim.scenarios", "lambda_scenario", None, None),
    ("scenarios.build", "photonsim.scenarios", "halted_light_scenario", None, None),
    ("scenarios.build", "photonsim.scenarios", "one_photon_dissociation_scenario", None, None),
    ("protocol.run", "photonsim.protocol", "run", "steps", _steps),
    ("protocol.check_templates", "photonsim.protocol", "check_templates", None, None),
    ("protocol.Trace.to_csv", "photonsim.protocol", "Trace.to_csv", "bytes", _result_len),
    ("qstate.window_state", "photonsim.qstate", "window_state", None, None),
    ("qstate.erase", "photonsim.qstate", "erase", None, None),
    ("qstate.decohere", "photonsim.qstate", "decohere", None, None),
    ("qstate.support", "photonsim.qstate", "support", None, None),
    ("dynamics.build_hamiltonian", "photonsim.dynamics", "build_hamiltonian", "bytes", _hamiltonian_bytes),
    ("dynamics.propagate", "photonsim.dynamics", "propagate", None, None),
    ("dynamics.solve_secular", "photonsim.dynamics", "solve_secular", None, None),
    ("kernels.jacobi_eigh", "photonsim._kernels", "jacobi_eigh", "n3", _n_cubed),
    ("basis.enumerate_basis", "photonsim.basis", "enumerate_basis", "elements", _result_len),
    ("basis.Basis.to_json", "photonsim.basis", "Basis.to_json", "bytes", _result_len),
)


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    quantity: int = 0


class Tracer:
    """Install with ``install()``, run the workload, read ``metrics()`` and
    ``uninstall()``.  Single-threaded: one stack of open spans."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats: dict[str, SpanStats] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._restore: list[Callable[[], None]] = []

    def _wrap(self, fn, stats: SpanStats, quantity):
        stack = self._stack

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stats.calls += 1
                stats.self_s += dt - children[0]
                if stack:
                    stack[-1][0] += dt
            if quantity is not None:
                stats.quantity += quantity(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, key, value, is_dict: bool) -> None:
        if is_dict:
            old = owner[key]
            owner[key] = value
            self._restore.append(lambda: owner.__setitem__(key, old))
        else:
            old = getattr(owner, key)
            setattr(owner, key, value)
            self._restore.append(lambda: setattr(owner, key, old))

    def install(self) -> None:
        for name, module_name, path, _, quantity in self.targets:
            stats = self.stats.setdefault(name, SpanStats())
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(fn, stats, quantity)
            if outer:  # a method: every caller goes through the class
                self._set(owner, attr, wrapper, is_dict=False)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "photonsim" or mod_name.startswith("photonsim.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, key, wrapper, is_dict=False)
                    elif type(value) is dict:
                        for k, v in list(value.items()):
                            if v is fn:
                                self._set(value, k, wrapper, is_dict=True)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """``<span>.calls``, ``<span>.self_s`` and ``<span>.<quantity>`` per
        span, plus the ``qstate`` layer summed over its functions."""
        out: dict[str, tuple[float, str]] = {}
        for name, _, _, qname, _ in self.targets:
            s = self.stats[name]
            out[f"{name}.calls"] = (s.calls, "count")
            out[f"{name}.self_s"] = (s.self_s, "s")
            if qname:
                out[f"{name}.{qname}"] = (s.quantity, "B" if qname == "bytes" else "count")
        qstate = [s for n, s in self.stats.items() if n.startswith("qstate.")]
        out["qstate.calls"] = (sum(s.calls for s in qstate), "count")
        out["qstate.self_s"] = (sum(s.self_s for s in qstate), "s")
        out["trace.absent"] = (len(self.absent), "count")
        return out
