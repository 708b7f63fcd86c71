"""The benchmark's workloads: exact CLI argv, work units and set-up inputs.

Every option not written here takes its default (FFCHAR_* variables are
stripped from the child environment).  ``{work}`` in an argv stands for the
sample's fresh working directory.  Why each workload exists is recorded in
BENCHMARK.json; which layer each one stresses is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    #: fixed work of one run, the numerator of work_per_s
    work_units: int
    #: (q, n) built by the set-up probe; n is None when the run uses no modulus
    setup: tuple[int, Optional[int]]

    def cli_argv(self, workdir: str) -> list[str]:
        return [a.replace("{work}", workdir) for a in self.argv]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid",
            tuple(
                "main-thm --q 2 --n-list 13 --d 6..10 --r 4..10 --format csv --workers 1 --out {work}/grid.csv".split()
            ),
            204_750,  # records written
            (2, 13),
        ),
        Workload(
            "density-deep",
            tuple("density --q 3 --n 9 --d 16 --format json --workers 1 --budget 100000000".split()),
            3**16,
            (3, 9),
        ),
        Workload(
            "smooth",
            tuple("smooth-count --q 3 --d 1..10 --enum-check --format csv --workers 1".split()),
            sum(3**d for d in range(1, 11)),
            (3, None),
        ),
    )
}
