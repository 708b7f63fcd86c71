"""Record the output digests every benchmark run is checked against.

    python3 perfbench/record_reference.py

Runs each workload twice, untraced, and writes reference.json only when
both runs exit 0 with identical stdout and output files.  Run it on the
commit whose outputs are the reference; later commits must reproduce them
byte for byte.
"""

import json
import sys

from harness import require_sources
from run import CHILD_TIMEOUT_S, REFERENCE, run_cli
from workloads import WORKLOADS


def main() -> int:
    require_sources()
    reference = {}
    for name, wl in WORKLOADS.items():
        first, second = (run_cli(wl, CHILD_TIMEOUT_S) for _ in range(2))
        if not (first.run.ok and second.run.ok) or first.outputs != second.outputs:
            print(f"{name}: runs failed or disagree\n{first.stderr}{second.stderr}", file=sys.stderr)
            return 1
        reference[name] = first.outputs
        print(f"{name}: {len(first.outputs)} digests, {first.run.wall_s:.2f} s, {first.run.peak_rss_mb:.1f} MB")
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
