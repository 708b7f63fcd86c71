"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import harness
import run
from layer_trace import Target, Tracer, install, layer_metrics
from workloads import Workload

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

TINY = Workload("tiny", tuple("mertens --q 2 --k 3 --format csv --out {work}/m.csv".split()), 1, (2, None))


def _python(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(HERE), str(SRC)])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


def test_self_time_is_span_minus_children():
    # outer spans 0..10; its two inner calls span 1..3 and 4..7
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tr = Tracer(clock=lambda: next(ticks))
    inner = tr.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    tr.wrap("outer", body)()
    assert tr.self_s == {"inner": 5.0, "outer": 5.0}
    assert tr.total_s == {"inner": 5.0, "outer": 10.0}
    assert tr.calls == {"inner": 2, "outer": 1}
    metrics = layer_metrics({**tr.result(), "import_s": 0.5, "wall_s": 10.0}, 0)
    assert metrics["trace.uncovered_s"] == (0.0, "s")


def test_span_closes_when_the_call_raises():
    ticks = iter([0.0, 2.0, 5.0, 6.0])
    tr = Tracer(clock=lambda: next(ticks))

    def fail():
        raise ValueError("boom")

    failing = tr.wrap("failing", fail)

    def body():
        try:
            failing()
        except ValueError:
            pass

    tr.wrap("outer", body)()
    assert tr.self_s == {"failing": 3.0, "outer": 3.0}


def test_flipped_output_byte_counts_as_failure(tmp_path):
    sys.path.insert(0, str(SRC))
    try:
        from ffchar.cli import main as cli_main
    finally:
        sys.path.remove(str(SRC))
    assert cli_main(TINY.cli_argv(str(tmp_path))) == 0
    data = (tmp_path / "m.csv").read_bytes()
    flipped = bytes([data[0] ^ 1]) + data[1:]
    empty = hashlib.sha256(b"").hexdigest()

    good = run.Session(TINY, {"stdout": empty, "out/m.csv": hashlib.sha256(data).hexdigest()}, 1, 0)
    assert good.cli() is not None
    assert (good.attempted, good.failed) == (1, 0)

    bad = run.Session(TINY, {"stdout": empty, "out/m.csv": hashlib.sha256(flipped).hexdigest()}, 1, 0)
    assert bad.cli() is None
    assert (bad.attempted, bad.failed) == (1, 1)


def test_bloated_parent_trips_rss_floor_check():
    probe = (
        "import json, run, workloads\n"
        "{ballast}\n"
        "s = run.Session(workloads.WORKLOADS['grid'], {{}}, 1, 0)\n"
        "print(json.dumps([s.floor_ok(), s.failed]))\n"
    )
    lean = _python(probe.format(ballast="pass"))
    bloated = _python(probe.format(ballast="b = bytearray(b'x') * (160 << 20); del b"))
    assert lean.returncode == 0, lean.stderr
    assert bloated.returncode == 0, bloated.stderr
    assert json.loads(lean.stdout.splitlines()[-1]) == [True, 0]
    assert json.loads(bloated.stdout.splitlines()[-1]) == [False, 1]


def test_missing_target_is_reported_never_zero(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    layer = types.ModuleType("fakepkg.layer")
    layer.present = lambda: 1
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.layer", layer)
    targets = (
        Target("fake.present_s", "fakepkg.layer", "present"),
        Target("fake.gone_s", "fakepkg.layer", "gone"),
        Target("fake.nomodule_s", "fakepkg.nomodule", "f"),
    )
    tr = Tracer()
    install(tr, targets, package="fakepkg")
    assert layer.present() == 1
    assert tr.missing == ["fakepkg.layer:gone", "fakepkg.nomodule:f"]
    metrics = layer_metrics({**tr.result(), "import_s": 0.0, "wall_s": 1.0}, 0)
    assert metrics["trace.missing_targets"] == (2, "count")
    assert "fake.present_s" in metrics
    assert "fake.gone_s" not in metrics and "fake.nomodule_s" not in metrics


def test_every_target_resolves_and_is_rebound_everywhere():
    out = _python(
        "import json, layer_trace, ffchar.cli, ffchar.residue as r, ffchar.vecpoly as v\n"
        "t = layer_trace.Tracer(); layer_trace.install(t)\n"
        "m = r.Modulus.irreducible(r.Field.of_order(2), 3)\n"
        "print(json.dumps([t.missing, r.vadd_poly_codes is v.vadd_poly_codes,\n"
        "                  hasattr(r.vadd_poly_codes, '__wrapped__'), t.calls['residue.modulus_s']]))\n"
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == [[], True, True, 1]


def test_child_env_is_hermetic(monkeypatch):
    monkeypatch.setenv("FFCHAR_WORKERS", "2")
    env = harness.child_env()
    assert not any(k.startswith("FFCHAR_") for k in env)
    assert env["PYTHONPATH"] == str(SRC)
