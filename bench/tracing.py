"""Spans recorded from outside the program.

The tracer replaces, in each caller module, the public names that module
looks up at call time (for example abduce.generator.sample_complete_world
or abduce.scoring.parse_formula) with wrappers that record a span: name,
start, end, parent span and the repetition it belongs to.  Spans stay in
memory until the run ends; then they are written out and summarised.
A layer's self time is its spans' durations minus the time their child
spans cover.
"""

from __future__ import annotations

import functools
import time

import abduce.dataset
import abduce.engine
import abduce.generator
import abduce.prompts
import abduce.scoring
from abduce.engine import Regime

# (module, attribute, span name).  Engine calls are named by regime at call
# time, so they are listed separately.
PLAIN = (
    (abduce.generator, "sample_complete_world", "world.sample_complete"),
    (abduce.generator, "mask_world", "world.mask"),
    (abduce.generator, "render_formula", "formula.render"),
    (abduce.generator, "parse_formula", "formula.parse"),
    (abduce.generator, "validate_hypothesis", "formula.validate"),
    (abduce.generator, "build_competitor_pool", "generator.pool"),
    (abduce.generator, "cheater_pool", "generator.cheater_pool"),
    (abduce.generator, "generate_instance", "generator.instance"),
    (abduce.generator, "generate_holdouts", "generator.holdout"),
    (abduce.generator, "audit_instance", "generator.audit"),
    (abduce.dataset, "audit_instance", "generator.audit"),
    (abduce.dataset, "parse_formula", "formula.parse"),
    (abduce.dataset, "validate_hypothesis", "formula.validate"),
    (abduce.dataset, "render_formula", "formula.render"),
    (abduce.dataset, "save_dataset", "dataset.save"),
    (abduce.dataset, "load_dataset", "dataset.load"),
    (abduce.prompts, "render_formula", "formula.render"),
    (abduce.prompts, "render_prompt", "prompts.render"),
    (abduce.scoring, "parse_formula", "formula.parse"),
    (abduce.scoring, "validate_hypothesis", "formula.validate"),
    (abduce.scoring, "parse_prediction_line", "scoring.parse_line"),
    (abduce.scoring, "score_prediction", "scoring.score"),
    (abduce.scoring, "aggregate_report", "scoring.aggregate"),
    (abduce.scoring, "render_report", "scoring.render_report"),
)
BY_REGIME = (
    (abduce.generator, "validity"),
    (abduce.generator, "cost"),
    (abduce.generator, "opt_cost"),
    (abduce.scoring, "validity"),
    (abduce.scoring, "cost"),
)
ENGINE_CACHES = ("_world_arrays", "closed_world_extension", "_closed_violations",
                 "_world_grounding", "_alpha_grounding", "_bit_column")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.reps: list[int] = []
        self.stack: list[int] = []
        self.rep = -1
        self.caches: dict[str, list[int]] = {name: [0, 0] for name in ENGINE_CACHES}
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, args, kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.reps.append(self.rep)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, args, kwargs)

        return wrapper

    def _wrap_regime(self, fn, op):
        @functools.wraps(fn)
        def wrapper(regime, *args, **kwargs):
            name = f"engine.{op}_{Regime.parse(regime).value}"
            return self.span(name, fn, (regime,) + args, kwargs)

        return wrapper

    def install(self) -> None:
        """Patch the program's modules.  The benchmark calls the program
        through module attributes too, so its own calls are traced."""
        for module, attr, name in PLAIN:
            self._patch(module, attr, self._wrap(getattr(module, attr), name))
        for module, attr in BY_REGIME:
            self._patch(module, attr, self._wrap_regime(getattr(module, attr), attr))

    def _patch(self, module, attr, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def count_caches(self) -> None:
        """Add the engine caches' hits and misses since they were last
        cleared; the loop clears them between repetitions."""
        for name, (hits, misses) in engine_cache_info().items():
            self.caches[name][0] += hits
            self.caches[name][1] += misses

    # ------------------------------------------------------------------
    # Summaries

    def self_times(self) -> list[float]:
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[i] - self.starts[i]
        return out

    def durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for name, s, e in zip(self.names, self.starts, self.ends):
            out.setdefault(name, []).append(e - s)
        return out

    def self_time_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, t in zip(self.names, self.self_times()):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + t
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("span\tname\trep\tparent\tstart_s\tend_s\n")
            for i, (name, rep, parent, s, e) in enumerate(
                zip(self.names, self.reps, self.parents, self.starts, self.ends)
            ):
                fh.write(f"{i}\t{name}\t{rep}\t{parent}\t{s:.9f}\t{e:.9f}\n")


def engine_cache_info() -> dict[str, tuple[int, int]]:
    return {
        name: tuple(getattr(abduce.engine, name).cache_info()[:2]) for name in ENGINE_CACHES
    }
