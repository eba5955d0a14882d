"""Layer timing from outside the program.

The traced run replaces module attributes of rtcode (for example
``rtcode.scenarios.rvi_batch``) with wrappers that time each call, and
puts the originals back afterwards.  Functions are looked up through
the module that calls them, so a name imported into several modules is
wrapped in each of them.  Spans nest: a layer's self time is its
duration minus the time of the wrapped calls made inside it.
"""
from __future__ import annotations

import sys
import time
import tracemalloc
from dataclasses import dataclass, field

# (module, attribute, layer).  The layer names the self-time bucket.
TIMED = (
    ("rtcode.cli", "solve_feedback_finite", "scenarios"),
    ("rtcode.cli", "solve_feedback_complete", "scenarios"),
    ("rtcode.cli", "solve_nofeedback", "scenarios"),
    ("rtcode.baselines", "solve_feedback_finite", "scenarios"),
    ("rtcode.scenarios", "rvi_batch", "rvi"),
    ("rtcode.scenarios", "relative_value_iteration", "rvi"),
    ("rtcode.vending", "relative_value_iteration", "rvi"),
    ("rtcode.mdp", "relative_value_iteration", "rvi"),
    ("rtcode.vending", "constrained_solve", "dual"),
    ("rtcode.cli", "solve_vending_feedback", "pair_loop"),
    ("rtcode.vending", "_vending_feedback_core", "vending_compile"),
    ("rtcode.vending", "_vending_feedback_rewards", "vending_compile"),
    ("rtcode.cli", "symbol_by_symbol_check", "check"),
    ("rtcode.cli", "d0_distortion", "endpoint"),
    ("rtcode.cli", "shannon_limit", "endpoint"),
    ("rtcode.baselines", "d0_distortion", "endpoint"),
    ("rtcode.cli", "simulate", "simulate"),
)
# Wrapped only to count calls: timing them would cost more than they do.
COUNTED = (
    ("rtcode.baselines", "belief_update_feedback", "bayes_updates"),
)

# The layer each per-layer metric is read from.  A metric whose layer has
# a wrapped name missing is left out of the report and the missing names
# are listed, so a renamed function never reads as zero work.
METRIC_LAYER = {
    "scenarios.compile_s": "scenarios",
    "scenarios.compile_peak_mb": "scenarios",
    "mdp.rvi_s": "rvi",
    "mdp.rvi_calls": "rvi",
    "mdp.sweeps": "rvi",
    "mdp.sweeps_max": "rvi",
    "mdp.succ_evals": "rvi",
    "mdp.dual_s": "dual",
    "mdp.dual_evals": "dual",
    "vending.pairs": "dual",
    "vending.compile_s": "vending_compile",
    "vending.loop_s": "pair_loop",
    "baselines.check_s": "check",
    "bayes.updates": "bayes_updates",
    "baselines.endpoint_s": "endpoint",
    "simulate.loop_s": "simulate",
    "simulate.steps": "simulate",
}


UNITS = {name: ("MB" if name.endswith("_mb") else
                "s" if name.endswith("_s") else "count")
         for name in (*METRIC_LAYER, "cli.other_s", "trace.overhead_s")}


def missing_names() -> list[str]:
    """Wrapped names that the loaded rtcode no longer has."""
    out = []
    for mod_name, attr, _ in TIMED + COUNTED:
        mod = sys.modules.get(mod_name)
        if mod is None or not callable(getattr(mod, attr, None)):
            out.append(f"{mod_name}.{attr}")
    return out


def unmeasured_metrics(missing: list[str]) -> set[str]:
    """Per-layer metrics that the missing names leave without a reading."""
    gone = {layer for mod_name, attr, layer in TIMED + COUNTED
            if f"{mod_name}.{attr}" in missing}
    out = {name for name, layer in METRIC_LAYER.items() if layer in gone}
    if any(f"{m}.{a}" in missing for m, a, _ in TIMED):
        out.add("cli.other_s")
    return out


@dataclass
class Tally:
    """Totals collected while the wrappers are installed."""

    self_s: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)
    top_s: float = 0.0
    sweeps: int = 0
    sweeps_max: int = 0
    succ_evals: int = 0
    dual_evals: int = 0
    steps: int = 0
    compile_peak_mb: float = 0.0


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


class Patches:
    """Context manager base: wraps module functions on entry and puts the
    originals back on exit."""

    def __init__(self):
        self._saved = []

    def _wrap(self, mod_name, attr, make):
        mod = sys.modules.get(mod_name)
        original = getattr(mod, attr, None)
        if callable(original):
            self._saved.append((mod, attr, original))
            setattr(mod, attr, make(original))

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        return False


class Tap(Patches):
    """Records the return values of the named module functions."""

    def __init__(self, names):
        super().__init__()
        self.names = names
        self.seen = []

    def __enter__(self):
        for mod_name, attr in self.names:
            self._wrap(mod_name, attr, self._recorded)
        return self

    def _recorded(self, fn):
        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.seen.append(result)
            return result
        return recorded


class Tracer(Patches):
    """Times the layers of TIMED and counts the calls of COUNTED."""

    def __init__(self):
        super().__init__()
        self.tally = Tally()
        self._stack = []

    def __enter__(self):
        for mod_name, attr, layer in TIMED:
            self._wrap(mod_name, attr, self._timed(layer))
        for mod_name, attr, layer in COUNTED:
            self._wrap(mod_name, attr, self._counted(layer))
        return self

    def _counted(self, layer):
        calls = self.tally.calls

        def make(fn):
            def counted(*args, **kwargs):
                calls[layer] = calls.get(layer, 0) + 1
                return fn(*args, **kwargs)
            return counted
        return make

    def _timed(self, layer):
        tally, stack = self.tally, self._stack

        def make(fn):
            def timed(*args, **kwargs):
                # tracemalloc runs from the start of the outermost scenario
                # solve to its first solver call, which covers the build
                # and keeps the cost of tracing out of the other layers
                watch = layer == "scenarios" and not tracemalloc.is_tracing()
                if watch:
                    tracemalloc.start()
                elif layer == "rvi":
                    self._stop_malloc()
                frame = [0.0]
                stack.append(frame)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span = time.perf_counter() - t0
                    stack.pop()
                    if stack:
                        stack[-1][0] += span
                    else:
                        tally.top_s += span
                    tally.self_s[layer] = (tally.self_s.get(layer, 0.0)
                                           + span - frame[0])
                    tally.calls[layer] = tally.calls.get(layer, 0) + 1
                    if watch:
                        self._stop_malloc()
                self._count(layer, args, kwargs, result)
                return result
            return timed
        return make

    def _stop_malloc(self):
        if tracemalloc.is_tracing():
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            self.tally.compile_peak_mb = max(self.tally.compile_peak_mb, peak)

    def _count(self, layer, args, kwargs, result):
        tally = self.tally
        if layer == "rvi":
            if hasattr(result, "iterations"):        # one FiniteMdp
                mdp = _arg(args, kwargs, 0, "mdp")
                batch, (s, a, k) = 1, mdp.next_states.shape
                sweeps = int(result.iterations)
            else:                                    # rvi_batch tuple
                rewards = _arg(args, kwargs, 2, "rewards")
                batch = rewards.shape[0]
                s, a, k = _arg(args, kwargs, 0, "next_states").shape
                sweeps = int(result[2])
            tally.sweeps += sweeps
            tally.sweeps_max = max(tally.sweeps_max, sweeps)
            tally.succ_evals += sweeps * batch * s * a * k
        elif layer == "dual":
            tally.dual_evals += int(result.evaluations)
        elif layer == "simulate":
            horizon = _arg(args, kwargs, 3, "horizon")
            reps = _arg(args, kwargs, 4, "replications")
            tally.steps += int(horizon) * int(reps)


def layer_metrics(tally: Tally, wall_s: float) -> dict:
    """Per-layer figures of one traced round.  cli.other_s is the part of
    the CLI calls' wall time that no wrapped call covers."""
    s, c = tally.self_s, tally.calls
    return {
        "scenarios.compile_s": s.get("scenarios", 0.0),
        "scenarios.compile_peak_mb": tally.compile_peak_mb,
        "mdp.rvi_s": s.get("rvi", 0.0),
        "mdp.rvi_calls": c.get("rvi", 0),
        "mdp.sweeps": tally.sweeps,
        "mdp.sweeps_max": tally.sweeps_max,
        "mdp.succ_evals": tally.succ_evals,
        "mdp.dual_s": s.get("dual", 0.0),
        "mdp.dual_evals": tally.dual_evals,
        "vending.pairs": c.get("dual", 0),
        "vending.compile_s": s.get("vending_compile", 0.0),
        "vending.loop_s": s.get("pair_loop", 0.0),
        "baselines.check_s": s.get("check", 0.0),
        "bayes.updates": c.get("bayes_updates", 0),
        "baselines.endpoint_s": s.get("endpoint", 0.0),
        "simulate.loop_s": s.get("simulate", 0.0),
        "simulate.steps": tally.steps,
        "cli.other_s": wall_s - tally.top_s,
    }
