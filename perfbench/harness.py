"""Child processes as the benchmark runs them: hermetic, timed, digested.

Peak RSS comes from ``os.wait4`` on the one child, never from
``RUSAGE_CHILDREN`` (a maximum over every earlier child).  Linux also carries
the parent's high-water RSS into a child across fork/exec, so the benchmark
stays small: outputs are hashed in fixed-size blocks and never read whole,
and ``rss_floor_mb`` launches ``python -c pass`` the same way so that an
inflated floor is caught before it can inflate a workload's figure.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

#: A bare interpreter is ~10-20 MB; the smallest workload (smooth) peaks near 96 MB.
FLOOR_LIMIT_MB = 40.0
HASH_BLOCK = 1 << 20


class CheckoutError(RuntimeError):
    """The directory holds no ffchar sources to benchmark."""


def require_sources() -> None:
    if not (SRC / "ffchar" / "cli.py").is_file():
        raise CheckoutError(f"no ffchar sources under {SRC}")


def child_env() -> dict[str, str]:
    """The caller's environment minus FFCHAR_* defaults, importing ffchar from src/."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FFCHAR_")}
    env["PYTHONPATH"] = str(SRC)
    # one compute thread, as --workers 1 promises
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass(frozen=True)
class ChildRun:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    timed_out: bool

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.timed_out


def run_child(argv: list[str], cwd: Path, stdout: Path, stderr: Path, timeout: float) -> ChildRun:
    """Run argv to completion; wall time from spawn to reap, RSS of this child only."""
    fired = threading.Event()
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err)

        def kill():
            fired.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, wall, usage.ru_maxrss / 1024.0, fired.is_set())


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    buf = bytearray(HASH_BLOCK)
    view = memoryview(buf)
    with open(path, "rb") as fh:
        while n := fh.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()


def tree_digests(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by its relative posix path."""
    return {
        p.relative_to(root).as_posix(): file_digest(p) for p in sorted(root.rglob("*")) if p.is_file()
    }


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


@dataclass(frozen=True)
class SampleDir:
    """work/ is the child's fresh cwd (its outputs); stdout and stderr sit beside it."""

    root: Path

    @property
    def work(self) -> Path:
        return self.root / "work"

    @property
    def stdout(self) -> Path:
        return self.root / "stdout"

    @property
    def stderr(self) -> Path:
        return self.root / "stderr"

    def outputs(self) -> dict[str, str]:
        """Digests of stdout plus every file the run wrote."""
        return {"stdout": file_digest(self.stdout), **{f"out/{k}": v for k, v in tree_digests(self.work).items()}}

    def stderr_tail(self, limit: int = 2000) -> str:
        try:
            data = self.stderr.read_bytes()[-limit:]
        except OSError:
            return ""
        return data.decode(errors="replace")


@contextmanager
def sample_dir() -> Iterator[SampleDir]:
    SCRATCH.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="sample-", dir=SCRATCH))
    try:
        (root / "work").mkdir()
        yield SampleDir(root)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def rss_floor_mb(timeout: float = 30.0) -> ChildRun:
    """`python -c pass` spawned like a workload: its RSS is the floor the benchmark process imposes."""
    with sample_dir() as sd:
        return run_child([sys.executable, "-c", "pass"], sd.work, sd.stdout, sd.stderr, timeout)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them; a lone value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
