"""Per-layer busy time of one CLI run, measured from outside the program.

Run as a child process::

    python perfbench/layer_trace.py RESULT.json -- <ffchar CLI argv>

It imports ``ffchar.cli`` (timing the import), wraps each layer's public
callables listed in TARGETS, runs ``ffchar.cli.main`` in-process and writes
the spans to RESULT.json.  Nothing under src/ changes.  A layer's busy time
is its span's self time: the span's duration minus the part its child spans
cover, so the self times of a run sum to its in-process wall time.  The
tracer keeps one span stack, so it assumes the traced run uses one thread
(every workload passes --workers 1).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

Observer = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    """Self and inclusive time per span name, call counts and work counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._seen: set = set()
        self._stack: list[float] = []  # time covered by children of each open span

    def wrap(self, name: str, fn: Callable, observe: Optional[Observer] = None) -> Callable:
        self.self_s.setdefault(name, 0.0)
        self.total_s.setdefault(name, 0.0)
        self.calls.setdefault(name, 0)
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.self_s[name] += dt - stack.pop()
                self.total_s[name] += dt
                self.calls[name] += 1
                if stack:
                    stack[-1] += dt
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return span

    def add(self, counter: str, n: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + n

    def peak(self, counter: str, n: int) -> None:
        self.counts[counter] = max(self.counts.get(counter, 0), n)

    def first_time(self, key) -> bool:
        """True the first time key is seen: separates cache misses from repeats."""
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def result(self) -> dict:
        return {
            "self_s": self.self_s,
            "total_s": self.total_s,
            "calls": self.calls,
            "counts": self.counts,
            "missing": self.missing,
        }


@dataclass(frozen=True)
class Target:
    """Wrap module.attr (attr may be Class.method) as span `metric`."""

    metric: str
    module: str
    attr: str
    observe: Optional[Observer] = None


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _table_built(tr: Tracer, args, kwargs, result) -> None:
    tr.add("residue.dlog_table_entries", sum(args[0].units.component_orders))


def _slice_reduced(tr: Tracer, args, kwargs, result) -> None:
    tr.add("residue.reduced_polys", len(result))
    tr.peak("residue.max_slice_elems", len(result))


def _profiled(tr: Tracer, args, kwargs, result) -> None:
    tr.add("vecpoly.profile_polys", len(result))


def _ad_histogram(tr: Tracer, args, kwargs, result) -> None:
    modulus, d = _arg(args, kwargs, 0, "modulus"), _arg(args, kwargs, 1, "d")
    if tr.first_time(("ad", modulus, d)):
        tr.add("characters.ad_polys", modulus.field.q**d)
    else:
        tr.add("characters.ad_hist_hits", 1)


def _dft(tr: Tracer, args, kwargs, result) -> None:
    tr.add("characters.dft_points", len(result))


def _slice_histogram(tr: Tracer, args, kwargs, result) -> None:
    modulus, d, r = (_arg(args, kwargs, i, k) for i, k in enumerate(("modulus", "d", "r")))
    if tr.first_time(("slice", modulus, d, r)):
        hist, nonunits = result
        tr.add("smooth.slice_polys", int(hist.sum()) + nonunits)


def _persisted(tr: Tracer, args, kwargs, result) -> None:
    tr.add("experiments.records", len(_arg(args, kwargs, 2, "records")))


TARGETS = (
    Target("residue.dlog_table_s", "ffchar.residue", "DlogTable.__init__", _table_built),
    Target("residue.modulus_s", "ffchar.residue", "Modulus.irreducible"),
    Target("residue.generator_s", "ffchar.residue", "find_generator"),
    Target("residue.reduce_s", "ffchar.residue", "DlogTable.dlogs_of_monic_degree", _slice_reduced),
    Target("vecpoly.vadd_s", "ffchar.vecpoly", "vadd_poly_codes"),
    Target("vecpoly.profile_s", "ffchar.vecpoly", "max_factor_degree_profile", _profiled),
    Target("characters.ad_hist_s", "ffchar.characters", "unit_dlog_histogram", _ad_histogram),
    Target("characters.dft_s", "ffchar.characters", "all_char_sums_Ad", _dft),
    Target("smooth.slice_hist_s", "ffchar.smooth", "smooth_dlog_histogram", _slice_histogram),
    Target("smooth.slice_dft_s", "ffchar.smooth", "all_smooth_char_sums"),
    Target("smooth.count_s", "ffchar.smooth", "smooth_count"),
    Target("smooth.enum_count_s", "ffchar.smooth", "smooth_count_by_enumeration"),
    Target("smooth.dickman_table_s", "ffchar.smooth", "DickmanTable.__init__"),
    Target("algebra.irreducibles_s", "ffchar.algebra", "irreducibles_up_to"),
    Target("algebra.poly_str_s", "ffchar.algebra", "Poly.__str__"),
    Target("primitive.density_s", "ffchar.primitive", "density_experiment"),
    Target("primitive.epsilon_s", "ffchar.primitive", "epsilon_bound"),
    Target("primitive.epsilon_s", "ffchar.primitive", "best_epsilon_bound"),
    Target("intfact.factor_s", "ffchar.intfact", "factor_integer"),
    Target("experiments.grid_s", "ffchar.experiments", "run_main_theorem_grid"),
    Target("experiments.persist_s", "ffchar.experiments", "_Sink.write_combo", _persisted),
    Target("cli.main_s", "ffchar.cli", "main"),
)


def install(tracer: Tracer, targets=TARGETS, package: str = "ffchar") -> None:
    """Wrap every target; one that cannot be found goes to tracer.missing.

    A module-level function is rebound in every loaded module of `package`
    that imported it by name; a method is replaced on its class, keeping a
    classmethod a classmethod.
    """
    for t in targets:
        label = f"{t.module}:{t.attr}"
        *path, name = t.attr.split(".")
        try:
            owner = importlib.import_module(t.module)
            for part in path:
                owner = getattr(owner, part)
            found = getattr(owner, name)
        except (ImportError, AttributeError):
            tracer.missing.append(label)
            continue
        if not callable(found):
            tracer.missing.append(label)
            continue
        if path:  # a method: replace it on the class
            raw = owner.__dict__.get(name, found)
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, name, type(raw)(tracer.wrap(t.metric, raw.__func__, t.observe)))
            else:
                setattr(owner, name, tracer.wrap(t.metric, raw, t.observe))
            continue
        wrapped = tracer.wrap(t.metric, found, t.observe)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is found:
                    setattr(mod, key, wrapped)


# count metric -> (counter, or "calls" for the span's call count; span it depends on)
_COUNTS = {
    "residue.dlog_table_entries": ("residue.dlog_table_entries", "residue.dlog_table_s"),
    "residue.reduced_polys": ("residue.reduced_polys", "residue.reduce_s"),
    "residue.max_slice_elems": ("residue.max_slice_elems", "residue.reduce_s"),
    "vecpoly.vadd_calls": ("calls", "vecpoly.vadd_s"),
    "vecpoly.profile_polys": ("vecpoly.profile_polys", "vecpoly.profile_s"),
    "characters.ad_hist_calls": ("calls", "characters.ad_hist_s"),
    "characters.dft_points": ("characters.dft_points", "characters.dft_s"),
    "smooth.slice_polys": ("smooth.slice_polys", "smooth.slice_hist_s"),
    "algebra.poly_str_calls": ("calls", "algebra.poly_str_s"),
    "experiments.records": ("experiments.records", "experiments.persist_s"),
}

# rate metric (1/s) -> (work counter, span whose inclusive time divides it)
_RATES = {
    "residue.dlog_entries_per_s": ("residue.dlog_table_entries", "residue.dlog_table_s"),
    "vecpoly.profile_polys_per_s": ("vecpoly.profile_polys", "vecpoly.profile_s"),
    "characters.ad_polys_per_s": ("characters.ad_polys", "characters.ad_hist_s"),
    "smooth.slice_polys_per_s": ("smooth.slice_polys", "smooth.slice_hist_s"),
}


def layer_metrics(run: dict, persist_bytes: int) -> dict[str, tuple[float, str]]:
    """Named per-layer metrics of one traced run.

    `run` is the child's result document.  A metric whose span was never
    installed (its target is missing) is left out, never reported as 0;
    trace.missing_targets counts such targets.
    """
    self_s, total_s, calls, counts = run["self_s"], run["total_s"], run["calls"], run["counts"]
    out: dict[str, tuple[float, str]] = {name: (value, "s") for name, value in self_s.items()}
    for metric, (source, span) in _COUNTS.items():
        if span in self_s:
            value = calls[span] if source == "calls" else counts.get(source, 0)
            out[metric] = (value, "count")
    for metric, (source, span) in _RATES.items():
        if span in total_s:
            out[metric] = (counts.get(source, 0) / total_s[span] if total_s[span] > 0 else 0.0, "1/s")
    if "characters.ad_hist_s" in calls:
        n = calls["characters.ad_hist_s"]
        out["characters.ad_hist_hit_ratio"] = (counts.get("characters.ad_hist_hits", 0) / n if n else 0.0, "ratio")
    if "experiments.persist_s" in total_s:
        secs = total_s["experiments.persist_s"]
        out["experiments.persist_bytes"] = (persist_bytes, "bytes")
        out["experiments.persist_mb_per_s"] = (persist_bytes / 1e6 / secs if secs > 0 else 0.0, "MB/s")
    out["cli.import_s"] = (run["import_s"], "s")
    out["trace.wall_s"] = (run["wall_s"], "s")
    out["trace.uncovered_s"] = (run["wall_s"] - sum(self_s.values()), "s")
    out["trace.missing_targets"] = (len(run["missing"]), "count")
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: layer_trace.py RESULT.json -- <ffchar CLI argv>", file=sys.stderr)
        return 2
    result_path, cli_argv = argv[0], argv[2:]
    t0 = time.perf_counter()
    import ffchar.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    t0 = time.perf_counter()
    try:
        rc = ffchar.cli.main(cli_argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    wall_s = time.perf_counter() - t0
    sys.stdout.flush()
    with open(result_path, "w") as fh:
        json.dump({"rc": rc, "import_s": import_s, "wall_s": wall_s, **tracer.result()}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
