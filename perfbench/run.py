"""Mission benchmark for rovernav: host cost of closed-loop missions.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mixed_adaptive --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py            # every workload, one process each

`--trace 0` flies the workload's mission repeatedly for `--seconds` with only
a one-timestamp-per-tick probe on `rovernav.mission.step` and reports the
end-to-end metrics. Host timings are those of the run's median mission,
composed tick by tick, with each mission scaled to reference host speed by
calibration chunks timed around it. `--trace 1` alternates untraced and
traced missions and reports per-layer span metrics. Every mission's behaviour
digest must equal the first one's and every run invariant must hold, or the
result is marked incorrect. The last line of output is one JSON object.
"""

from __future__ import annotations

import os

# One thread per numeric library: the host has few cores and the benchmark
# measures the single-threaded mission loop. Set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

TICK_BUDGET_MS = 50.0          # world.TICK_DT: the 20 Hz real-time budget
SETUP_SAMPLES = 10             # scene builds timed per run, at least
MIN_MISSIONS = 2               # a repeat is needed to check the digest
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10
CALIBRATION_CHUNKS = 100       # calibration samples around each mission
CALIBRATION_REF_MS = 1.0       # chunk time that defines reference host speed


def calibration_chunk_ms() -> float:
    """Host time of a fixed piece of interpreter and small-array work.

    The shared host this benchmark was built on slowed down by up to 1.8x for
    minutes at a time. Identical missions slowed with it, and so did this
    chunk, though less closely; scaling host timings by chunk time removes
    part of that drift. A chunk that was half array work on a costmap-sized
    grid tracked the missions worse when the host turned quiet.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(4000):
        acc += math.hypot(i * 0.5, 3.0)
    a = np.arange(64.0)
    for _ in range(400):
        a = np.minimum(a * 1.0001, 100.0)
    return (time.perf_counter() - t0) * 1e3


def provenance() -> dict:
    import scipy

    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        sha = ref
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def median(values) -> float:
    return float(np.median(values))


def tail_percentile(ticks: int) -> float:
    """Highest ladder percentile with at least ten of `ticks` beyond it."""
    return next((q for q in TAIL_LADDER if ticks * (100.0 - q) / 100.0 >= TAIL_MIN_BEYOND), 50.0)


def fly_until(deadline: float, fly, minimum: int) -> list:
    """Call `fly` until the next call would likely end past `deadline`."""
    out = []
    start = time.perf_counter()
    while True:
        out.append(fly())
        now = time.perf_counter()
        per_call = (now - start) / len(out)
        if len(out) >= minimum and now + per_call > deadline:
            return out


def check_runs(runs: list, reference: str) -> tuple[list, int]:
    """Broken invariants and digest mismatches, and how many missions had any."""
    problems, failed = [], 0
    for i, run in enumerate(runs):
        mine = [f"mission {i}: {v}" for v in run.violations]
        if run.digest != reference:
            mine.append(f"mission {i}: digest {run.digest[:16]} != first {reference[:16]}")
        problems += mine
        failed += bool(mine)
    return problems, failed


def declared(kind: str) -> list | None:
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    return [m["name"] for m in json.loads(spec.read_text())[kind]]


def report(correct: bool, attempted: int, failed: int, metrics: dict, kind: str) -> None:
    names = declared(kind)
    if names is not None and sorted(names) != sorted(metrics):
        print(f"metric names differ from BENCHMARK.json {kind}: "
              f"missing {sorted(set(names) - set(metrics))}, extra {sorted(set(metrics) - set(names))}")
        correct = False
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def print_outcome(name: str, scene_seed: int, first) -> None:
    from scenarios import WORKLOADS

    m = first.metrics
    print(f"workload {name}: scene seed {scene_seed} -- {WORKLOADS[name].why}")
    print(f"  outcome: end_reason {m['end_reason']}, sim {first.sim_s:.2f} s, digest {first.digest}")
    print(f"  mission_success = {1.0 if m['end_reason'] == 'complete' else 0.0:.1f} share "
          "(simulated outcome, identical in every mission of the run)")
    print(f"  waypoints_reached = {m['waypoints_reached']} count")
    print(f"  waypoints_skipped = {m['waypoints_skipped']} count")
    print(f"  hazards = {len(m['hazards'])} count {m['hazards']}")


def end_to_end(name: str, seconds: float, scene_seed: int) -> int:
    from scenarios import WORKLOADS, run_workload_once
    from rovernav.config import build_scene

    wl = WORKLOADS[name]
    build_scene(wl.kind, scene_seed)  # warm lazy imports and first-call paths
    start = time.perf_counter()
    batches = []

    def fly():
        batches.append([calibration_chunk_ms() for _ in range(CALIBRATION_CHUNKS)])
        return run_workload_once(name, scene_seed)

    runs = fly_until(start + seconds, fly, MIN_MISSIONS)
    setups = [r.setup_s for r in runs]
    while len(setups) < SETUP_SAMPLES:
        t0 = time.perf_counter()
        build_scene(wl.kind, scene_seed)
        setups.append(time.perf_counter() - t0)
    batches.append([calibration_chunk_ms() for _ in range(CALIBRATION_CHUNKS)])
    # Each mission, with its scene build, is scaled by the calibration chunks
    # timed just before and just after it; extra builds by the last ones.
    slowdowns = [median(a + b) / CALIBRATION_REF_MS for a, b in zip(batches, batches[1:])]
    scaled_setups = [t / slowdowns[min(i, len(runs) - 1)] for i, t in enumerate(setups)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = runs[0]
    problems, failed = check_runs(runs, first.digest)
    ticks = [t for r in runs for t in r.tick_ms]
    met = sum(1 for t in ticks if t <= TICK_BUDGET_MS) / len(ticks)
    # The tail percentile is fixed by the ticks of MIN_MISSIONS missions, the
    # fewest a run flies, so it does not move with how many missions fit.
    q = tail_percentile(len(first.tick_ms) * MIN_MISSIONS)
    # Every mission does identical work tick for tick (the digests prove it),
    # so tick i of one mission repeats tick i of every other. Host timings
    # are taken from the run's median mission, composed tick by tick: each
    # tick's time is the median over missions of that tick, at reference host
    # speed. Other tenants of a shared host slow single ticks and whole
    # missions by up to 1.8x; a per-tick median is hit only where most
    # missions were slowed at the same tick.
    n = min(len(r.tick_ms) for r in runs)
    scale = np.array(slowdowns)[:, None]
    tick_ms = np.median(np.array([r.tick_ms[:n] for r in runs]) / scale, axis=0)
    # Host time of a mission outside its ticks: set-up before the first step
    # and the return after the last one.
    rest_s = median([(r.wall_s - sum(r.tick_ms) / 1e3) / k for r, k in zip(runs, slowdowns)])
    metrics = {
        "wall_per_sim": ((float(tick_ms.sum()) / 1e3 + rest_s) / first.sim_s, "s/s"),
        "setup_s": (median(scaled_setups), "s"),
        "tick_p50_ms": (float(np.median(tick_ms)), "ms"),
        "tick_tail_ms": (float(np.percentile(tick_ms, q)), "ms"),
        "deadline_met_frac": (met, "fraction"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "waypoints_reached": (float(first.metrics["waypoints_reached"]), "count"),
    }

    print_outcome(name, scene_seed, first)
    print(f"  missions {len(runs)} in {time.perf_counter() - start:.1f} s, setups {len(setups)}, "
          f"ticks {len(first.tick_ms)} per mission")
    print(f"  host slowdown per mission (median calibration chunk around it / {CALIBRATION_REF_MS:g} ms): "
          + " ".join(f"{k:.3f}" for k in slowdowns) + "; host timings below are divided by it")
    per_mission = f"per-tick medians over {len(runs)} missions"
    notes = {
        "wall_per_sim": f"sum of {per_mission} plus {rest_s:.4g} s outside ticks, over {first.sim_s:g} s simulated; "
                        "raw per mission: " + " ".join(f"{r.wall_s / r.sim_s:.4g}" for r in runs),
        "tick_p50_ms": f"median of {n} {per_mission}",
        "tick_tail_ms": f"p{q:g} of {n} {per_mission}, {n * (100 - q) / 100:.1f} ticks beyond it",
    }
    notes.update({
        "setup_s": f"median of {len(setups)} scene builds, raw {median(setups):.4g}",
        "deadline_met_frac": f"share of {len(ticks)} ticks within {TICK_BUDGET_MS:g} ms; miss share {1 - met:.6f}",
        "peak_rss_mb": "ru_maxrss of this process",
        "waypoints_reached": "simulated outcome",
    })
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit} ({notes[key]})")
    print(f"  invariants and digest: {'ok' if not problems else problems}")
    report(not problems, len(runs), failed,
           {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, "end_to_end")
    return 0


def traced(name: str, seconds: float, scene_seed: int) -> int:
    import scenarios
    from rovernav.config import build_scene
    from spans import BUILD_SCENE, EXPECTED_EFFECT, Shim, Tracer, layer_metrics

    shim = Shim()
    build_scene(scenarios.WORKLOADS[name].kind, scene_seed)
    start = time.perf_counter()
    # The first mission in a process runs slower while the allocator grows
    # its heap; it sets the reference digest and stays out of the overhead.
    plain, traced_runs, layers, tracers = [scenarios.run_workload_once(name, scene_seed)], [], [], []

    def pair():
        plain.append(scenarios.run_workload_once(name, scene_seed))
        tracer = Tracer()
        shim.install(tracer)
        try:
            run = scenarios.run_workload_once(name, scene_seed, build=tracer.wrap(BUILD_SCENE, build_scene))
        finally:
            shim.restore()
        # world.step runs once per physics tick, so its span starts mark ticks.
        stamps = [tracer.starts[i] for i, n in enumerate(tracer.names) if n == "world.step"]
        traced_runs.append(run)
        layers.append(layer_metrics(tracer, stamps))
        tracers[:] = [tracer]

    fly_until(start + seconds, pair, 1)
    spans_file = tracers[0].dump(OUT / f"spans-{name}.jsonl")

    first = plain[0]
    problems, failed = check_runs(plain + traced_runs, first.digest)
    problems += [f"not restored after tracing: {target}" for target in shim.unrestored()]
    metrics = {key: {"value": median([lm[key]["value"] for lm in layers]), "unit": unit["unit"]}
               for key, unit in layers[0].items()}
    overhead = median([t.wall_s for t in traced_runs]) - median([p.wall_s for p in plain[1:]])
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}

    print_outcome(name, scene_seed, first)
    print(f"  traced missions {len(traced_runs)}, untraced {len(plain)} (first one warms up); values are medians over traced "
          f"missions, counts and totals per mission; spans of the last one in {spans_file.relative_to(ROOT)}")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print("  expected end-to-end effect of each layer:")
    for layer, effect in EXPECTED_EFFECT.items():
        print(f"    {layer}: {effect}")
    print(f"  invariants and digest (traced and untraced): {'ok' if not problems else problems}")
    report(not problems, len(plain) + len(traced_runs), failed, metrics, "per_layer")
    return 0


def run_all(args) -> int:
    from scenarios import WORKLOADS

    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scene-seed", str(args.scene_seed)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; default: all, one process each")
    parser.add_argument("--seed", type=int, default=0,
                        help="run seed; recorded only, the mission is fixed by the workload and --scene-seed")
    parser.add_argument("--scene-seed", type=int, default=None,
                        help="terrain seed, to check a claim on a scene not used while writing it")
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rovernav" / "__init__.py").is_file():
        print(f"perfbench: no rovernav sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from scenarios import DEFAULT_SCENE_SEED, WORKLOADS

    if args.scene_seed is None:
        args.scene_seed = DEFAULT_SCENE_SEED
    if args.workload is None:
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"provenance: {json.dumps(provenance(), sort_keys=True)}; run seed {args.seed}")
    if args.trace:
        return traced(args.workload, args.seconds, args.scene_seed)
    from spans import Shim

    Shim()  # fail loudly here, too, when a traced entry point was renamed
    return end_to_end(args.workload, args.seconds, args.scene_seed)


if __name__ == "__main__":
    sys.exit(main())
