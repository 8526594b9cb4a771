"""abduce benchmark: one closed-loop workload per run.

    python3 bench/run.py --workload {generate,score,verify} --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src.  With
--trace 0 the run times the workload untraced and prints the end-to-end
metrics.  With --trace 1 it runs the same repetitions untraced and then
traced, each for half the time, and prints the per-layer metrics, each
layer's share of self time and the tracing overhead.  Human-readable
results go to stdout first; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  A failed correctness check makes
correct false and the exit code 1.  See bench/NOTES.md.
"""

from __future__ import annotations

import os

# One process, one thread: keep numpy's thread pools at a single thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import timing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# At least SETUP_REPEATS set-ups, and more until they took SETUP_MIN_S, so
# a short set-up (generate's) still has enough samples for a steady median.
SETUP_REPEATS = 5
SETUP_MIN_S = 3.0
# setup_s is reported in seconds at a fixed reference speed: the time a
# reference sample takes on the uncontended 2-core host the bounds were
# set on.  Reference samples taken around the set-ups give the run's speed.
REFERENCE_NOMINAL_S = 0.006
# The import is timed again IMPORT_REPEATS times, each between two
# reference samples: the run's first import happens once, cold, and read
# 0.07-0.14 s on the same host.
IMPORT_REPEATS = 5

# Per-layer metric -> the end-to-end metric and workload it should move.
# A metric named <span>_us or <span>_ms is the median duration of that span.
MOVES = {
    "world.sample_complete_us": "work_per_ref on generate; flat on score",
    "world.mask_us": "work_per_ref on generate; flat on score",
    "generator.candidates_per_world": "work_per_ref on generate; flat on score",
    "engine.opt_cost_full_us": "work_per_ref on generate; flat on score",
    "engine.validity_full_us": "work_per_ref on generate; flat on score",
    "engine.cost_full_us": "work_per_ref on generate and score",
    "engine.validity_partial_us": "op_tail_ms, work_per_ref on score; work_per_ref on generate",
    "engine.validity_skeptical_us": "op_tail_ms, work_per_ref on score; work_per_ref on generate",
    "engine.cost_partial_us": "op_tail_ms, work_per_ref on score; work_per_ref on generate",
    "engine.cost_skeptical_us": "op_tail_ms, work_per_ref on score; work_per_ref on generate",
    "engine.opt_cost_partial_us": "work_per_ref on generate and verify",
    "engine.opt_cost_skeptical_us": "work_per_ref on generate and verify",
    "formula.parse_us": "op_p50_ref on score; flat on generate",
    "formula.validate_us": "op_p50_ref on score; flat on generate",
    "formula.render_us": "work_per_ref on generate and verify",
    "generator.pool_ms": "work_per_ref on generate and verify",
    "generator.attempts_per_instance": "work_per_ref, holdout_share on generate",
    "generator.holdout_ms": "work_per_ref, holdout_share on generate",
    "generator.audit_ms": "work_per_ref on verify",
    "dataset.load_us": "work_per_ref on verify",
    "dataset.save_us": "work_per_ref on verify",
    "prompts.render_us": "work_per_ref on verify",
    "scoring.score_self_us": "work_per_ref on score",
    "scoring.aggregate_ms": "work_per_ref on score",
}
LAYERS = ("world", "engine", "formula", "generator", "dataset", "prompts", "scoring", "bench")
SCALE = {"us": 1e6, "ms": 1e3}


def import_program() -> tuple[float, float]:
    """Import abduce from ./src (never an installed copy).  Returns the first
    import's seconds and the median, in reference units, of IMPORT_REPEATS
    fresh imports of abduce (its modules dropped from sys.modules first;
    numpy stays loaded)."""
    if not (SRC / "abduce" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program source at {SRC / 'abduce'}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    importlib.import_module("abduce.cli")
    first = time.perf_counter() - t0
    path = Path(sys.modules["abduce"].__file__).resolve().parent
    if path != SRC / "abduce":
        raise SystemExit(f"bench: imported abduce from {path}, not {SRC}")
    reference, times = [timing.reference_sample()], []
    for _ in range(IMPORT_REPEATS):
        for name in [n for n in sys.modules if n == "abduce" or n.startswith("abduce.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        importlib.import_module("abduce.cli")
        dt = time.perf_counter() - t0
        reference.append(timing.reference_sample())
        times.append(dt / ((reference[-2] + reference[-1]) / 2))
    return first, statistics.median(times)


def end_to_end(m, setup_s: float) -> tuple[dict, dict, dict]:
    """(metrics BENCHMARK.json gates, metrics only printed, details) of an
    untraced measurement."""
    ops, failures = m.ops(), m.failures()
    rep_fast, units, op_fast = m.fast_by_key()
    metrics = {
        "setup_s": (setup_s, "s"),
        "work_per_ref": (sum(units.values()) / sum(rep_fast.values()), "1/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    tail_value, tail_pct, beyond = timing.tail(ops)
    reported = {
        "op_p50_ref": (statistics.median(op_fast.values()), "ref"),
        "ops_per_s": (len(ops) / m.timed_s, "1/s"),
        "op_p50_ms": (statistics.median(ops) * 1e3, "ms"),
        "op_tail_ms": (tail_value * 1e3, "ms"),
        "failed_share": (len(failures) / len(ops), "share"),
        "ref_ms": (statistics.median(m.reference_s) * 1e3, "ms"),
    }
    details = {
        "ops": len(ops),
        "work_units_per_pass": sum(units.values()),
        "distinct_repetitions": len(units),
        "min_repeats": m.min_repeats(),
        "repetitions": len(m.reps),
        "timed_s": m.timed_s,
        "reference_samples": len(m.reference_s),
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": beyond,
        "failures_by_type": {f: failures.count(f) for f in sorted(set(failures))},
    }
    return metrics, reported, details


def per_layer(tracer, m, untraced) -> dict:
    out = {}
    durations = tracer.durations()
    for metric in MOVES:
        span, unit = metric.rsplit("_", 1)
        values = durations.get(span, [])
        if unit in SCALE:
            out[metric] = statistics.median(values) * SCALE[unit] if values else 0.0
    score_self = [t for name, t in zip(tracer.names, tracer.self_times()) if name == "scoring.score"]
    out["scoring.score_self_us"] = statistics.median(score_self) * 1e6 if score_self else 0.0
    # generation yield, from the instances the traced repetitions produced
    worlds = sum(rep.worlds for rep in m.reps)
    candidates = len(durations.get("world.sample_complete", []))
    out["generator.candidates_per_world"] = candidates / worlds if worlds else 0.0
    attempts = [rep.attempts for rep in m.reps if rep.attempts]
    out["generator.attempts_per_instance"] = statistics.mean(attempts) if attempts else 0.0
    by_layer = tracer.self_time_by_layer()
    covered = sum(by_layer.values())
    by_layer["bench"] = m.timed_s - covered
    for layer in LAYERS:
        out[f"share.{layer}_pct"] = 100.0 * by_layer.get(layer, 0.0) / m.timed_s
    for name, (hits, misses) in tracer.caches.items():
        out[f"engine.cache.{name}.hits"] = float(hits)
        out[f"engine.cache.{name}.misses"] = float(misses)
    # fast times, in reference units, of the repetitions both halves ran
    traced, plain = m.fast_by_key()[0], untraced.fast_by_key()[0]
    common = traced.keys() & plain.keys()
    out["trace.overhead_pct"] = 100.0 * (
        sum(traced[k] for k in common) / sum(plain[k] for k in common) - 1.0
    )
    return out


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None, tamper: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("generate", "score", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s, import_units = import_program()
    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, import_s, import_units, tamper, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, import_s: float, import_units: float, tamper: bool, workdir: str) -> int:
    # these import abduce, so only after import_program
    import gate
    import tracing
    from abduce import engine
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    workload = cls(args.seed, workdir, tamper=True) if tamper else cls(args.seed, workdir)
    problems = []

    clock, setups = timing.StepClock(), []
    while len(setups) < SETUP_REPEATS or sum(clock.wall) < SETUP_MIN_S:
        engine.clear_caches()  # every set-up starts cold, like the first
        clock.start()
        setups.append(workload.setup(clock.step))
        clock.step()
    if any(s.digests != setups[0].digests for s in setups):
        problems.append("set-up is not deterministic: input digests differ between set-ups")
    setup_wall_s = import_s + statistics.median(clock.wall)
    # in reference units, then seconds at the nominal speed
    setup_s = REFERENCE_NOMINAL_S * (import_units + statistics.median(clock.totals))

    if args.trace:
        # the same repetitions untraced, then traced: the difference is the
        # tracing overhead
        plain = timing.measure(workload, args.seconds / 2.0, engine.clear_caches)
        tracer = tracing.Tracer()
        m = timing.measure(workload, args.seconds / 2.0, engine.clear_caches, tracer=tracer)
        problems += plain.problems + m.problems
        tracer.write(str(WORK / f"trace-{args.workload}.tsv"))
        metrics = {k: (v, _unit(k)) for k, v in per_layer(tracer, m, plain).items()}
        reported = {"ref_ms": (statistics.median(m.reference_s) * 1e3, "ms")}
        details = {"spans": len(tracer.names), "traced_repetitions": len(m.reps)}
    else:
        m = timing.measure(workload, args.seconds, engine.clear_caches)
        problems += m.problems
        metrics, reported, details = end_to_end(m, setup_s)
        reported["setup_wall_s"] = (setup_wall_s, "s")
        generated = [rep for rep in m.reps if rep.attempts]
        if generated:
            reported["holdout_share"] = (sum(rep.holdouts for rep in generated) / len(generated), "share")

    problems += workload.gate_problems()
    oracle_problems, compared = gate.oracle_problems(workload.sample_instances(), args.seed)
    problems += oracle_problems

    attempted, failed = len(m.ops()), len(m.failures())
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(),
        "inputs_sha256": {**setups[-1].digests, **workload.digests()},
        "inputs": setups[-1].notes,
        "setup": {
            "import_s": import_s,
            "import_ref": import_units,
            "workload_setup_s": clock.wall,
            "workload_setup_ref": clock.totals,
            "reference_ms": [r * 1e3 for r in clock.reference],
        },
        "oracle_comparisons": compared,
        "problems": problems[:20],
        **details,
    }
    print(f"== abduce benchmark: {args.workload}, seed {args.seed}, trace {args.trace} ==")
    for key, value in report.items():
        print(f"{key}: {json.dumps(value, sort_keys=True)}")
    for name, (value, unit) in {**metrics, **reported}.items():
        note = MOVES.get(name, "")
        print(f"{name:36s} {value:14.6f} {unit:6s} {('moves ' + note) if note else ''}")
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def _unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
