"""Layer spans for the traced run, recorded from outside the subgrad package.

While a LayerTrace is entered, the public names on the iteration path are
replaced by timing wrappers: ``__call__``/``value`` of every oracle class
(layer ``oracles``), the ConstrainedProblem methods and
``single_constraint_form`` (``problem``), ``TraceCollector.note``
(``reports``) and ``dsg.step`` (``solver``). Leaving restores the
originals. A span stack turns the nested spans into self times: a layer's
self time is its spans' durations minus the time their child spans cover.

The averaged point x_bar of the DSG solvers is evaluated between the end of
a ``dsg.step`` and the next ``TraceCollector.note``; that interval is
summed separately and includes the oracle calls made inside it.
"""

from __future__ import annotations

import functools
import time

LAYERS = ("solver", "oracles", "problem", "reports")

_PROBLEM_METHODS = ("eval_ineq", "violation_vector", "infeasibility")


class LayerTrace:
    def __init__(self):
        from subgrad import dsg, oracles, problem, reports, sg

        targets = []
        for cls in vars(oracles).values():
            if isinstance(cls, type) and issubclass(cls, oracles.ConvexOracle):
                targets += [(cls, name, "oracles") for name in ("__call__", "value")
                            if name in vars(cls)]
        targets += [(problem.ConstrainedProblem, name, "problem") for name in _PROBLEM_METHODS]
        targets += [(mod, "single_constraint_form", "problem") for mod in (problem, sg, dsg)]
        targets.append((reports.TraceCollector, "note", "reports"))
        targets.append((dsg, "step", "solver"))
        hooks = {"note": (self._xbar_end, None), "step": (None, self._xbar_start)}

        self._stack = []
        self.reset()
        self._originals = [(owner, name, vars(owner)[name]) for owner, name, _ in targets]
        self._wrappers = [
            (owner, name, self._wrap(layer, fn, *hooks.get(name, (None, None))))
            for (owner, name, fn), (_, _, layer) in zip(self._originals, targets)]

    def reset(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.xbar_s = 0.0
        self._stack.clear()
        self._step_end = None

    def __enter__(self):
        for owner, name, fn in self._wrappers:
            setattr(owner, name, fn)
        return self

    def __exit__(self, *exc):
        for owner, name, fn in self._originals:
            setattr(owner, name, fn)
        return False

    def span(self, layer, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span of the given layer."""
        return self._wrap(layer, fn)(*args, **kwargs)

    def _xbar_start(self, stepped):
        if stepped:
            self._step_end = time.perf_counter()

    def _xbar_end(self):
        if self._step_end is not None:
            self.xbar_s += time.perf_counter() - self._step_end
            self._step_end = None

    def _wrap(self, layer, fn, on_enter=None, on_return=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter()
            self.calls[layer] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.self_s[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if on_return is not None:
                on_return(out)
            return out

        return wrapper
