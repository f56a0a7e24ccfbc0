"""Spans around the public functions of each cuechaos layer, recorded from
outside the package.

Every traced function is replaced, in each cuechaos module that holds it,
by a wrapper that records a span (name, start, end, parent).  Modules bind
names such as ``sample_cue`` or ``fourier_coeffs`` at import, so the wrapper
has to sit in every namespace a caller looks the name up in, not only in the
defining module.  Spans stay in memory; ``summarize`` turns them into the
per-layer metrics after the run.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

import numpy as np
from cuechaos.montecarlo import RetryableSampleError

# (defining module, function) pairs; the span name is "<module>.<function>".
TRACED = (
    ("cue", "sample_cue"),
    ("cue", "integrate_f"),
    ("cue", "f_value"),
    ("cue", "trace_powers"),
    ("gmc", "gaussian_draw"),
    ("gmc", "chaos_measure"),
    ("montecarlo", "run_mc_detailed"),
    ("montecarlo", "ks_distance"),
    ("toeplitz", "fourier_coeffs"),
    ("toeplitz", "symbol_eval"),
    ("toeplitz", "toeplitz_logdet"),
    ("asymptotics", "fh_prediction"),
    ("asymptotics", "variance_integral"),
    ("special", "log_barnes_g"),
    ("experiments", "run_experiment"),
    ("experiments", "build_identifier"),
    ("experiments", "write_report"),
    ("cli", "main"),
)

# Spans that make up one Monte Carlo draw: the sample and the functional
# evaluated on it.  None of them calls another.
PER_DRAW = (
    "cue.sample_cue",
    "cue.integrate_f",
    "cue.f_value",
    "cue.trace_powers",
    "gmc.gaussian_draw",
    "gmc.chaos_measure",
)

# A functional of a draw that raises RetryableSampleError discards the draw;
# the Monte Carlo driver then draws again on a substream.
_DISCARDING = ("cue.integrate_f", "cue.f_value", "cue.trace_powers")


class Tracer:
    """Records spans between ``install()`` and ``uninstall()``."""

    def __init__(self):
        # [id, name, start, end, parent id]; a span's id is its list index
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._main_ident = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # a span opened on a pool thread belongs to whatever the main thread
        # is inside of (the call that started the pool)
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                span = [len(tracer.spans), name, 0.0, 0.0, tracer._parent(stack)]
                tracer.spans.append(span)
            stack.append(span[0])
            _on_call(tracer, name, span[4], args)
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except RetryableSampleError:
                if name in _DISCARDING:
                    tracer.add("cue.sample_cue.discarded", 1)
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return traced

    # -- installing ----------------------------------------------------
    def install(self) -> None:
        if self._patches:
            return
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "cuechaos" or name.startswith("cuechaos.")
        }
        for module_name, func_name in TRACED:
            original = getattr(modules[f"cuechaos.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------
    def span_records(self) -> list[dict]:
        return [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
            for s in self.spans
        ]


def _on_call(tracer: Tracer, name: str, parent: int | None, args: tuple) -> None:
    """Counts taken at the layer boundary from the call's own arguments."""
    if name == "toeplitz.toeplitz_logdet" and len(args) > 1:
        # dense LU of an n x n matrix: (2/3) n^3 flops, computed not measured
        tracer.add("toeplitz.toeplitz_logdet.flops", 2.0 * int(args[1]) ** 3 / 3.0)
    elif name == "toeplitz.symbol_eval" and args and parent is not None:
        if tracer.spans[parent][1] == "toeplitz.fourier_coeffs":
            tracer.add("toeplitz.fourier_coeffs.nodes", int(np.size(args[1])))


def _self_times(spans: list[list]) -> dict[int, float]:
    """Duration minus the part of the span's interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))
    self_time = {}
    for s in spans:
        start, end = s[2], s[3]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(s[0], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        self_time[s[0]] = (end - start) - covered
    return self_time


def _parallelism(spans: list[list]) -> float:
    """Per-draw span time over the wall time of the sampling stages.

    A sampling stage is the stretch from the first to the last draw span
    under one run_experiment span; with one worker the ratio sits just
    below 1, and a pool that overlaps draws pushes it above.
    """
    stages = defaultdict(list)
    for s in spans:
        if s[1] not in PER_DRAW:
            continue
        parent = s[4]
        while parent is not None and spans[parent][1] != "experiments.run_experiment":
            parent = spans[parent][4]
        if parent is not None:
            stages[parent].append(s)
    busy = sum(s[3] - s[2] for draws in stages.values() for s in draws)
    wall = sum(
        max(s[3] for s in draws) - min(s[2] for s in draws) for draws in stages.values()
    )
    return busy / wall if wall > 0 else 0.0


def summarize(tracer: Tracer, overhead_s: float, cli_bytes: int) -> dict:
    """Per-layer metrics ({name: (value, unit)}) from the recorded spans."""
    spans = tracer.spans
    self_time = _self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    for s in spans:
        calls[s[1]] += 1
        total[s[1]] += s[3] - s[2]
        own[s[1]] += self_time[s[0]]

    draws = calls["cue.sample_cue"]
    metrics = {
        "cue.sample_cue.calls": (draws, "count"),
        "cue.sample_cue.self_s": (own["cue.sample_cue"], "s"),
        "cue.sample_cue.mean_ms": (1e3 * total["cue.sample_cue"] / max(draws, 1), "ms"),
        "cue.sample_cue.useful_ratio": (
            (draws - tracer.counts["cue.sample_cue.discarded"]) / max(draws, 1),
            "ratio",
        ),
        "cue.integrate_f.self_s": (own["cue.integrate_f"], "s"),
        "cue.f_value.self_s": (own["cue.f_value"], "s"),
        "cue.trace_powers.self_s": (own["cue.trace_powers"], "s"),
        "gmc.gaussian_draw.self_s": (own["gmc.gaussian_draw"], "s"),
        "gmc.chaos_measure.self_s": (own["gmc.chaos_measure"], "s"),
        "montecarlo.run_mc_detailed.self_s": (own["montecarlo.run_mc_detailed"], "s"),
        "montecarlo.ks_distance.self_s": (own["montecarlo.ks_distance"], "s"),
        "montecarlo.parallelism": (_parallelism(spans), "ratio"),
        "toeplitz.fourier_coeffs.self_s": (own["toeplitz.fourier_coeffs"], "s"),
        "toeplitz.fourier_coeffs.nodes": (tracer.counts["toeplitz.fourier_coeffs.nodes"], "count"),
        "toeplitz.symbol_eval.self_s": (own["toeplitz.symbol_eval"], "s"),
        "toeplitz.toeplitz_logdet.calls": (calls["toeplitz.toeplitz_logdet"], "count"),
        "toeplitz.toeplitz_logdet.self_s": (own["toeplitz.toeplitz_logdet"], "s"),
        "toeplitz.toeplitz_logdet.flops": (tracer.counts["toeplitz.toeplitz_logdet.flops"], "flop"),
        "asymptotics.fh_prediction.self_s": (own["asymptotics.fh_prediction"], "s"),
        "asymptotics.variance_integral.self_s": (own["asymptotics.variance_integral"], "s"),
        "special.log_barnes_g.calls": (calls["special.log_barnes_g"], "count"),
        "experiments.run_experiment.self_s": (own["experiments.run_experiment"], "s"),
        "experiments.build_identifier.calls": (calls["experiments.build_identifier"], "count"),
        "experiments.build_identifier.self_s": (own["experiments.build_identifier"], "s"),
        "experiments.write_report.self_s": (own["experiments.write_report"], "s"),
        "cli.main.self_s": (own["cli.main"], "s"),
        "cli.bytes_written": (cli_bytes, "B"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return metrics
