"""In-memory spans recorded around calls into gibbsprep's layers.

The tracer patches module attributes from outside the package: a patched
name records a span ``[name, start, end, parent, info]`` each time it is
called, where ``parent`` is the index of the enclosing open span (-1 at the
top) and ``info`` holds whatever the span's caller attached. Patches are
undone by :meth:`Tracer.restore`. Nothing is written until the caller asks.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1, None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def patch(self, module, attr: str, replacement) -> None:
        """Replace ``module.attr``; :meth:`restore` puts the original back."""
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def wrap(self, module, attr: str, name: str, info=None) -> None:
        """Record a span named ``name`` around every call of ``module.attr``.

        ``info(result)``, when given, is stored as the span's info.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if info is not None:
                    record[4] = info(result)
                return result

        self.patch(module, attr, traced)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def install_layer_spans(tracer: Tracer, gibbsprep) -> None:
    """Span the cell, each restart, BFGS, its two objective paths and fidelity.

    ``gibbsprep`` is the imported package; its ``harness`` and ``adapt``
    modules look these names up at call time, so patching the module
    attribute is enough. A restart span's info holds what the growth loop
    recorded (per-step wall time and objective, termination, register size);
    a cell span's info holds how many Pauli tables the cell added to the cache.
    """
    adapt, harness, simcore = gibbsprep.adapt, gibbsprep.harness, gibbsprep.simcore
    original_postselect = harness.restart_postselect
    cache_info = simcore.pauli_action_tables.cache_info

    def traced_postselect(run, n_restarts):
        def traced_run(index):
            with tracer.span("restart") as record:
                ansatz, trace = run(index)
                record[4] = {
                    "flavor": trace.flavor,
                    "n_data": ansatz.n_data,
                    "n_ancilla": ansatz.n_ancilla,
                    "termination": trace.termination,
                    "step_ms": [r.wall_ms for r in trace.records],
                    "objectives": [r.objective for r in trace.records],
                }
            return ansatz, trace

        with tracer.span("harness.restart_postselect") as record:
            before = cache_info().currsize
            try:
                return original_postselect(traced_run, n_restarts)
            finally:
                record[4] = {"new_tables": cache_info().currsize - before}

    tracer.patch(harness, "restart_postselect", traced_postselect)
    tracer.wrap(
        adapt,
        "optimize_fixed_ansatz",
        "adapt.optimize_fixed_ansatz",
        info=lambda result: {"nit": result.iterations},
    )
    tracer.wrap(adapt, "ansatz_objective", "adapt.ansatz_objective")
    tracer.wrap(adapt, "ansatz_value_and_gradient", "adapt.ansatz_value_and_gradient")
    tracer.wrap(adapt, "fidelity", "adapt.fidelity")
