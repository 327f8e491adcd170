"""Outside-in tracing of oocsim: rebinds public names, never edits the program.

`Tracer.install()` replaces the names that `oocsim.sim` and `oocsim.costs`
look up at call time (`assemble`, `rk4_step`, `spectral_data`, `verify`,
`convexity_bounds`, `global_optimum`) with timing wrappers, and wraps the
`System.derivative` closure that `assemble` returns.  Calls made millions of
times (the derivative and the RK4 step) go into count-plus-total counters;
the coarse phases are recorded as spans.  Everything stays in memory and the
original names are restored on exit.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass

from oocsim import costs as costs_mod
from oocsim import sim as sim_mod

perf = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int   # index into Tracer.spans, -1 at the top


class Tracer:
    def __init__(self):
        self.counters = {}   # name -> [calls, total seconds]
        self.spans = []
        self._open = [-1]

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append(Span(name, perf(), float("nan"), self._open[-1]))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = perf()

    def spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def counted(self, name, fn):
        cell = self.counters.setdefault(name, [0, 0.0])

        def wrapper(*args):
            t0 = perf()
            try:
                return fn(*args)
            finally:
                cell[0] += 1
                cell[1] += perf() - t0
        return wrapper

    def calls(self, name):
        """Number of counted calls, or of spans, with this name."""
        if name in self.counters:
            return self.counters[name][0]
        return sum(1 for s in self.spans if s.name == name)

    def seconds(self, name):
        """Total time in counted calls, or in spans, with this name."""
        if name in self.counters:
            return self.counters[name][1]
        return sum(s.end - s.start for s in self.spans if s.name == name)

    @contextmanager
    def install(self):
        assemble = sim_mod.assemble

        def traced_assemble(sc):
            with self.span("sim.assemble"):
                system = assemble(sc)
            system.derivative = self.counted("sim.rhs", system.derivative)
            return system

        patches = [
            (sim_mod, "assemble", traced_assemble),
            (sim_mod, "rk4_step", self.counted("integrate.rk4_step", sim_mod.rk4_step)),
            (sim_mod, "spectral_data",
             self.spanned("digraph.spectral_data", sim_mod.spectral_data)),
            (sim_mod, "verify", self.spanned("sim.verify", sim_mod.verify)),
            (costs_mod, "convexity_bounds",
             self.spanned("costs.convexity_bounds", costs_mod.convexity_bounds)),
            (costs_mod, "global_optimum",
             self.spanned("costs.global_optimum", costs_mod.global_optimum)),
        ]
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
        try:
            for mod, name, fn in patches:
                setattr(mod, name, fn)
            yield self
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)
