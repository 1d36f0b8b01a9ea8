"""In-memory span recorder and the hooks that attach it to nvcdd.

A hook replaces one attribute that the CLI calls through (a module
function, or a method on a class) with a wrapper that records a span --
name, start, end and parent -- and adds work counts taken from the call's
arguments and result.  Nothing under ``src/`` is edited: hooks are
installed for the traced passes only and the originals are put back on
exit.  A hook whose target no longer exists (say, after a rename), or
whose counts can no longer be read from the call, is reported as absent,
so a refactor degrades the per-layer numbers instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


class Recorder:
    """Spans of one pass, kept in memory: [name, start, end, parent]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)

    def end(self) -> None:
        self.spans[self._open.pop()][2] = time.perf_counter()

    def self_times(self) -> defaultdict[str, float]:
        """Per layer: span time minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def total_times(self) -> defaultdict[str, float]:
        """Per layer: span time including children.  No hooked layer
        calls itself, so nothing is counted twice."""
        out: defaultdict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)


def _arg(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


# Counters: (counts, args, kwargs, result) -> None.

def _count_shot_points(counts, args, kwargs, result):
    counts["pulse_sim.shot_points"] += len(result.abscissa) * result.n_shots


def _count_samples(counts, args, kwargs, result):
    counts["pulse_sim.sample.shots"] += _arg(args, kwargs, 4, "n_shots")


def _count_hamiltonians(counts, args, kwargs, result):
    counts["pulse_sim.hamiltonian.bytes_computed"] += result.nbytes


def _count_propagation(counts, args, kwargs, result):
    states = _arg(args, kwargs, 0, "states")
    h = _arg(args, kwargs, 1, "h")
    counts["pulse_sim.propagate.matrices"] += h.shape[0]
    counts["pulse_sim.propagate.bytes_computed"] += (
        states.nbytes + h.nbytes + result.nbytes)


def _count_fits(counts, args, kwargs, result):
    counts["fitting.converged"] += bool(result.converged)


@dataclass(frozen=True)
class Hook:
    target: str      # "module:attribute" or "module:Class.method"
    layer: str       # span name
    count: Callable | None = None


_DEPHASING = ("envelope_max_protection", "envelope_second_order",
              "gaussian_envelope", "predicted_t2_mp", "rate_amplitude_mp",
              "rate_magnetic_mp", "sigma_b_from_t2")

# The CLI imports its collaborators by name, so its own namespace is
# where calls from cli into the other modules can be intercepted; calls
# inside pulse_sim go through that module's globals.
HOOKS = (
    Hook("nvcdd.cli:load_config", "cli.config"),
    Hook("nvcdd.cli:resolve_config", "cli.config"),
    Hook("nvcdd.cli:simulate_ramsey", "pulse_sim.simulate", _count_shot_points),
    Hook("nvcdd.cli:simulate_spectrum", "pulse_sim.simulate",
         _count_shot_points),
    Hook("nvcdd.pulse_sim:_sample_block", "pulse_sim.sample", _count_samples),
    Hook("nvcdd.pulse_sim:_run_batch", "pulse_sim.run_batch"),
    Hook("nvcdd.pulse_sim:_frame_hamiltonians", "pulse_sim.hamiltonian",
         _count_hamiltonians),
    Hook("nvcdd.pulse_sim:_propagate_batch", "pulse_sim.propagate",
         _count_propagation),
    Hook("nvcdd.cli:write_trace_csv", "pulse_sim.io"),
    Hook("nvcdd.cli:read_trace_csv", "pulse_sim.io"),
    Hook("nvcdd.cli:fourier_magnitude", "pulse_sim.io"),
    Hook("nvcdd.models:fourier_magnitude", "pulse_sim.io"),
    Hook("nvcdd.cli:nlls_fit", "fitting.nlls_fit", _count_fits),
    Hook("nvcdd.fitting:ModelFunction.evaluate", "models.evaluate"),
    *(Hook(f"nvcdd.cli:{name}", "dephasing") for name in _DEPHASING),
)


class Hooks:
    """Context manager that installs HOOKS around the current recorder."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.recorder = Recorder()
        self.absent: set[str] = set()
        self._installed: list[tuple] = []

    def __enter__(self) -> "Hooks":
        for hook in self.hooks:
            module_name, _, path = hook.target.partition(":")
            *outer, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for name in outer:
                    owner = getattr(owner, name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.add(hook.target)
                continue
            setattr(owner, attr, self._wrap(hook, original))
            self._installed.append((owner, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, hook: Hook, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            rec = self.recorder
            rec.begin(hook.layer)
            try:
                result = original(*args, **kwargs)
            finally:
                rec.end()
            rec.counts[hook.layer + ".calls"] += 1
            if hook.count is not None:
                try:
                    hook.count(rec.counts, args, kwargs, result)
                except (LookupError, AttributeError):
                    # The target's signature or result changed shape.
                    self.absent.add(hook.target + " (counts)")
            return result

        return traced
