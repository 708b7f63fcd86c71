"""ffchar benchmark: one workload, closed loop, one CLI process at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 times fresh `python -m ffchar.cli <argv>` processes (wall_s,
work_per_s, peak_rss_mb) interleaved with fresh-interpreter set-up probes
(setup_s).  --trace 1 alternates untraced runs with runs under
layer_trace.py and reports the per-layer metrics.  Every run's stdout and
output files are checked against reference.json; a nonzero exit, a timeout
or a differing digest counts as failed.  The workload inputs are fixed
argv (workloads.py), so the seed only orders the samples inside a run.

The last stdout line is one JSON object: correct, attempted, failed (so
fail_frac = failed / attempted) and metrics.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from harness import (
    FLOOR_LIMIT_MB,
    CheckoutError,
    ChildRun,
    quartiles,
    require_sources,
    rss_floor_mb,
    run_child,
    sample_dir,
    tree_bytes,
)
from layer_trace import layer_metrics
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

SETUP_REPS = 5  # set-up probes per run; setup_s is their median
MIN_SAMPLES = 2  # timed CLI runs per run, at least
CHILD_TIMEOUT_S = 90.0
RUN_LIMIT_S = 165.0  # the whole run stays under 180 s


@dataclass(frozen=True)
class CliSample:
    run: ChildRun
    outputs: dict[str, str]
    out_bytes: int
    trace: Optional[dict]
    stderr: str


def run_cli(wl: Workload, timeout: float, traced: bool = False) -> CliSample:
    """One CLI run in a fresh working directory, untraced or under layer_trace.py."""
    with sample_dir() as sd:
        cli_argv = wl.cli_argv(str(sd.work))
        trace_path = sd.root / "trace.json"
        if traced:
            argv = [sys.executable, str(HERE / "layer_trace.py"), str(trace_path), "--", *cli_argv]
        else:
            argv = [sys.executable, "-m", "ffchar.cli", *cli_argv]
        run = run_child(argv, sd.work, sd.stdout, sd.stderr, timeout)
        if not run.ok:
            return CliSample(run, {}, 0, None, sd.stderr_tail())
        trace = json.loads(trace_path.read_text()) if traced else None
        return CliSample(run, sd.outputs(), tree_bytes(sd.work), trace, "")


def run_setup(wl: Workload, timeout: float) -> ChildRun:
    q, n = wl.setup
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(q), *([] if n is None else [str(n)])]
    with sample_dir() as sd:
        return run_child(argv, sd.work, sd.stdout, sd.stderr, timeout)


def load_reference(name: str) -> dict[str, str]:
    return json.loads(REFERENCE.read_text())[name]


class Session:
    """Counts attempted and failed child runs and keeps the run inside its time limit."""

    def __init__(self, wl: Workload, reference: dict[str, str], seconds: float, seed: int):
        self.wl = wl
        self.reference = reference
        self.seconds = seconds
        self.rng = random.Random(seed)
        self.t0 = time.perf_counter()
        self.attempted = 0
        self.failed = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def timeout(self) -> float:
        return max(1.0, min(CHILD_TIMEOUT_S, RUN_LIMIT_S - self.elapsed()))

    def count(self, ok: bool, what: str, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}: {detail}", file=sys.stderr)
        return ok

    def floor_ok(self) -> bool:
        floor = rss_floor_mb(self.timeout())
        print(f"rss floor: {floor.peak_rss_mb:.1f} MB (limit {FLOOR_LIMIT_MB} MB)")
        return self.count(
            floor.ok and floor.peak_rss_mb <= FLOOR_LIMIT_MB,
            "rss floor",
            f"python -c pass peaked at {floor.peak_rss_mb:.1f} MB; the benchmark process would inflate peak_rss_mb",
        )

    def fits(self, seconds: float) -> bool:
        """Would work taking `seconds` still end inside --seconds (and the run limit)?"""
        return self.elapsed() + seconds <= self.seconds and self.alive()

    def alive(self) -> bool:
        return self.elapsed() < RUN_LIMIT_S - CHILD_TIMEOUT_S / 3

    def cli(self, traced: bool = False) -> Optional[CliSample]:
        s = run_cli(self.wl, self.timeout(), traced)
        kind = "traced run" if traced else "run"
        if not s.run.ok:
            why = "timed out" if s.run.timed_out else f"exit {s.run.returncode}"
            self.count(False, kind, f"{why}\n{s.stderr}")
            return None
        if s.outputs != self.reference:
            bad = sorted(k for k in s.outputs.keys() | self.reference.keys() if s.outputs.get(k) != self.reference.get(k))
            self.count(False, kind, f"output digests differ from reference: {bad}")
            return None
        self.count(True, kind)
        return s

    def setup(self) -> Optional[ChildRun]:
        r = run_setup(self.wl, self.timeout())
        ok = self.count(r.ok, "set-up probe", "timed out" if r.timed_out else f"exit {r.returncode}")
        return r if ok else None


def _summary(name: str, values: list[float], unit: str) -> str:
    q1, med, q3 = quartiles(values)
    return f"{name}: median {med:.4f} {unit}, quartiles {q1:.4f}..{q3:.4f}, n={len(values)}"


def measure(session: Session) -> dict[str, dict]:
    """End-to-end metrics from untraced CLI runs and set-up probes, interleaved."""
    samples: dict[str, list] = {"cli": [], "setup": []}
    took = {"cli": 0.0, "setup": 0.0}
    steps = {"cli": session.cli, "setup": session.setup}
    cli_runs = setup_runs = 0
    while session.alive():
        todo = []
        pending_setups = SETUP_REPS - setup_runs
        if cli_runs < MIN_SAMPLES or session.fits(took["cli"] + pending_setups * took["setup"]):
            todo.append("cli")
            cli_runs += 1
        if pending_setups > 0:
            todo.append("setup")
            setup_runs += 1
        if not todo:
            break
        session.rng.shuffle(todo)
        for kind in todo:
            start = session.elapsed()
            result = steps[kind]()
            took[kind] = session.elapsed() - start
            if result is not None:
                samples[kind].append(result)
    if not all(samples.values()):
        return {}
    walls = [s.run.wall_s for s in samples["cli"]]
    rss = [s.run.peak_rss_mb for s in samples["cli"]]
    setups = [r.wall_s for r in samples["setup"]]
    for line in (
        _summary("wall_s", walls, "s"),
        _summary("peak_rss_mb", rss, "MB"),
        _summary("setup_s", setups, "s"),
    ):
        print(line)
    print("samples: " + json.dumps({"wall_s": walls, "setup_s": setups}))
    wall = statistics.median(walls)
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "work_per_s": {"value": session.wl.work_units / wall, "unit": "1/s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def trace(session: Session) -> dict[str, dict]:
    """Per-layer metrics: medians over traced runs, each paired with an untraced run."""
    walls: list[float] = []
    traced: list[CliSample] = []

    rounds = 0
    last_round = 0.0
    while session.alive() and (rounds == 0 or session.fits(last_round)):
        start = session.elapsed()
        for traced_run in session.rng.sample((False, True), 2):
            s = session.cli(traced_run)
            if s is not None and traced_run:
                traced.append(s)
            elif s is not None:
                walls.append(s.run.wall_s)
        last_round = session.elapsed() - start
        rounds += 1
    if not walls or not traced:
        return {}
    per_run = [layer_metrics(s.trace, s.out_bytes) for s in traced]
    units = {name: unit for m in per_run for name, (_, unit) in m.items()}
    metrics = {
        name: {"value": statistics.median(m[name][0] for m in per_run if name in m), "unit": unit}
        for name, unit in sorted(units.items())
    }
    overhead = statistics.median(s.run.wall_s for s in traced) / statistics.median(walls) - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    wall = metrics["trace.wall_s"]["value"]
    busy = sorted(
        ((v["value"], k) for k, v in metrics.items() if v["unit"] == "s" and not k.startswith(("trace.", "cli.import"))),
        reverse=True,
    )
    print("self time share of trace.wall_s: " + ", ".join(f"{k} {v / wall:.1%}" for v, k in busy[:6]))
    return metrics


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        require_sources()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    session = Session(wl, load_reference(wl.name), args.seconds, args.seed)
    metrics = {}
    if session.floor_ok():
        metrics = trace(session) if args.trace else measure(session)
    correct = session.failed == 0 and bool(metrics)
    print(f"fail_frac: {session.failed}/{session.attempted}")
    print(
        json.dumps(
            {"correct": correct, "attempted": session.attempted, "failed": session.failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
