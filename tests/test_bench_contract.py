"""What the benchmark harness (bench/) reads of the program.

bench/tracing.py patches named attributes of the program's modules and
reads the engine's lru caches by name, and bench/run.py empties them with
engine.clear_caches between repetitions.  A refactor that renames any of
these breaks the benchmark only when it runs; this test breaks first.
"""

import importlib.util
from pathlib import Path

from abduce import engine

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_attribute():
    tracing = load_tracing()
    patched = [(m, a) for m, a, _ in tracing.PLAIN] + list(tracing.BY_REGIME)
    before = {(m.__name__, a): getattr(m, a) for m, a in patched}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(m, a) is not before[(m.__name__, a)] for m, a in patched)
    finally:
        tracer.uninstall()
    assert all(getattr(m, a) is before[(m.__name__, a)] for m, a in patched)


def test_engine_caches_readable_and_cleared():
    tracing = load_tracing()
    info = tracing.engine_cache_info()
    assert set(info) == set(tracing.ENGINE_CACHES)
    engine.clear_caches()
    assert all(getattr(engine, name).cache_info().currsize == 0 for name in tracing.ENGINE_CACHES)
