"""pwham benchmark: seeded closed-loop workloads, end-to-end metrics, and a
traced per-layer split.

Run from the repository root:

    python3 bench/run.py --workload bulk --seed 505 --seconds 20 --trace 0

Each run is one single-threaded process with one caller; the next unit
starts only when the previous one has returned (closed loop).  pwham is a
batch tool, so a run reports work completed per second at the workload's
input size, not latency at fixed arrival rates.  Every unit's answer is
checked (``workloads.run_unit``); a unit that raises or fails its check
counts as failed.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end metrics.
Times are rescaled to a reference machine speed (``speed.py``), because on a
shared machine the raw figures of one commit drift by up to half between
runs; the raw figures are printed next to them.  A unit that runs more than
once in a run (``bigcoef`` and ``cli_oracle`` run whole passes over a fixed
set of units) counts each time at the median of its rescaled latencies.

* ``setup_s``: from the script's start to the first timed unit (importing
  pwham, building the inputs), the median over this process and a few
  ``--setup-only`` children run one after another;
* ``units_per_s``: units completed per second of summed unit latency;
* ``latency_p50_ms`` and ``latency_tail_ms``: median and tail unit latency.
  The tail percentile is fixed per workload, so that a faster and a slower
  commit compare the same percentile; at ``--seconds 20`` it leaves at least
  ten samples beyond it, and a run with fewer falls back to the highest
  percentile that does;
* ``peak_rss_mb``: peak resident memory of the process.

``fail_ratio`` (failed / attempted) and the tail's percentile and sample
count are printed on the lines before the final JSON line, whose
``attempted`` and ``failed`` carry the same counts.

``--trace 1`` runs a fixed list of units (so two runs at one seed agree on
every count) once untraced and once traced, writes the spans of the traced
pass to ``bench/out/spans-<workload>-<seed>.jsonl`` (one
``[name, start, end, parent, unit, raised]`` per line) and reports the
per-layer split derived from them (``spans.py``) plus the tracing overhead,
traced minus untraced summed unit time, both rescaled to the reference
speed.  End-to-end metrics always come from
untraced runs.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# Per workload: units built for a timed run (cycled if a run gets through
# them all), whether the run goes in whole passes over them, units in a
# traced run, and the tail percentile.  Workloads of long, unequal units run
# whole passes over a fixed set, so that every run weighs the same units
# equally.  cli_oracle's p60 keeps ten samples beyond it once a run makes
# three passes over the nine fixtures.
WORKLOADS = {
    "bulk": {"units": 1800, "passes": False, "trace": 120, "tail": 95},
    "bigcoef": {"units": 120, "passes": True, "trace": 60, "tail": 95},
    "annulus": {"units": 1600, "passes": False, "trace": 100, "tail": 90},
    "cli_oracle": {"units": 9, "passes": True, "trace": 9, "tail": 60},
}
SETUP_REPEATS = 5


def import_pwham():
    """Import pwham from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import pwham

    found = os.path.dirname(os.path.abspath(pwham.__file__))
    if found != os.path.join(SRC, "pwham"):
        raise ImportError(f"pwham imported from {found}, not from {SRC}")


def tail_latency(sorted_ms: list, level: float) -> tuple[float, float, int]:
    """(percentile, nearest-rank value, samples beyond) at ``level``, or at
    the highest percentile with at least ten samples beyond it when
    ``level`` has fewer (the maximum when no percentile has)."""
    n = len(sorted_ms)
    k = max(math.ceil(level / 100 * n), 1)
    if n - k < 10:
        k = max(n - 10, 1) if n > 10 else n
        level = 100 * k / n
    return level, sorted_ms[k - 1], n - k


def run_checked(run_unit, unit) -> bool:
    """Run one unit; report and swallow its failure so the loop goes on."""
    try:
        run_unit(unit)
    except Exception as e:  # noqa: BLE001 - a failed unit is counted, not fatal
        print(f"unit {unit[0]}/{unit[1]} failed: {type(e).__name__}: {e}", file=sys.stderr)
        return False
    return True


def timed_run(units: list, seconds: float, whole_passes: bool) -> dict:
    """Closed loop over ``units`` (cycled) until ``seconds`` have passed.

    With ``whole_passes`` the deadline is checked only after a complete pass,
    so every unit weighs equally in the figures.  Returns the raw latency of
    every unit run and, for each, the median of its unit's speed-normalized
    latencies over the passes, in seconds."""
    from speed import SpeedProbe
    from workloads import run_unit

    probe = SpeedProbe()
    probe.sample()
    starts, raw, failed = [], [], 0
    start = perf_counter()
    i = 0
    while not (i and (i % len(units) == 0 or not whole_passes)
               and perf_counter() - start >= seconds):
        probe.maybe_sample()
        t = perf_counter()
        failed += not run_checked(run_unit, units[i % len(units)])
        raw.append(perf_counter() - t)
        starts.append(t)
        i += 1
    wall = perf_counter() - start
    probe.sample()
    per_unit: dict[int, list] = {}
    for k, (t, r) in enumerate(zip(starts, raw)):
        per_unit.setdefault(k % len(units), []).append(r * probe.factor(t, t + r))
    medians = {u: statistics.median(v) for u, v in per_unit.items()}
    normalized = [medians[k % len(units)] for k in range(len(raw))]
    return {"wall": wall, "raw": raw, "normalized": normalized, "failed": failed}


def reference_factor() -> float:
    """The current speed factor (``speed.py``), from five reference samples."""
    from speed import SpeedProbe

    probe = SpeedProbe()
    for _ in range(5):
        probe.sample()
    return probe.factor(probe.times[0], probe.times[-1])


def setup_samples(workload: str, seed: int, repeats: int) -> list[float]:
    """Normalized set-up times of ``repeats`` fresh processes, one at a time."""
    out = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def end_to_end(workload: str, seed: int, seconds: float, units: list,
               own_setup: float, setup_repeats: int = SETUP_REPEATS - 1) -> dict:
    cfg = WORKLOADS[workload]
    own_setup *= reference_factor()
    res = timed_run(units, seconds, whole_passes=cfg["passes"])
    setups = [own_setup] + setup_samples(workload, seed, setup_repeats)
    n = len(res["raw"])
    ms = sorted(1000 * v for v in res["normalized"])
    raw_ms = sorted(1000 * v for v in res["raw"])
    level, tail, beyond = tail_latency(ms, cfg["tail"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "units_per_s": (1000 * n / sum(ms), "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "units_per_s": f"raw {n / res['wall']:.4f}: {n} units in {res['wall']:.2f} s",
        "latency_p50_ms": f"raw {statistics.median(raw_ms):.4f}",
        "latency_tail_ms": (f"raw {tail_latency(raw_ms, level)[1]:.4f}; "
                            f"p{level:g}, n={n}, {beyond} samples beyond"),
    }
    print(f"workload {workload} seed {seed}: closed loop, one caller")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:12.4f} {unit:<4} {notes.get(name, '')}".rstrip())
    print(f"  {'fail_ratio':<16} {res['failed'] / n:12.4f} {'':<4} {res['failed']}/{n}")
    return {"attempted": n, "failed": res["failed"], "metrics": metrics}


def traced(workload: str, units: list, spans_path: str) -> dict:
    """Untraced then traced pass over the same units; per-layer metrics.
    The spans are written to ``spans_path`` as JSON lines."""
    from speed import SpeedProbe
    from spans import Tracer
    from workloads import run_unit

    probe = SpeedProbe()

    def one_pass(run) -> tuple[float, int]:
        """Speed-normalized summed unit latency and failures of a pass."""
        probe.sample()
        start, busy, failed = perf_counter(), 0.0, 0
        for i, unit in enumerate(units):
            probe.maybe_sample()
            t = perf_counter()
            failed += not run(i, unit)
            busy += perf_counter() - t
        probe.sample()
        return busy * probe.factor(start, perf_counter(), margin=0.0), failed

    untraced_s, failed = one_pass(lambda i, unit: run_checked(run_unit, unit))
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, traced_failed = one_pass(
            lambda i, unit: tracer.run_unit(i, run_checked, run_unit, unit))
    finally:
        tracer.uninstall()
    failed += traced_failed
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(span) + "\n" for span in tracer.spans)
    metrics = tracer.layer_metrics(len(units))
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    print(f"workload {workload}: traced split over {len(units)} units, spans in {spans_path}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<38} {value:14.6g} {unit}")
    return {"attempted": 2 * len(units), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's acceptance-suite seed)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print the normalized set-up time, exit")
    args = ap.parse_args(argv)

    import_pwham()
    from workloads import DEFAULT_SEEDS, build_units

    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    cfg = WORKLOADS[args.workload]
    units = build_units(args.workload, seed, cfg["trace"] if args.trace else cfg["units"])
    own_setup = perf_counter() - _T0
    if args.setup_only:
        print(own_setup * reference_factor())
        return 0
    if args.trace:
        out = traced(args.workload, units,
                     os.path.join(BENCH_DIR, "out", f"spans-{args.workload}-{seed}.jsonl"))
    else:
        out = end_to_end(args.workload, seed, args.seconds, units, own_setup)
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
