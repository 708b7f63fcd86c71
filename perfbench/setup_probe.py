"""Set-up probe: a fresh interpreter builds what depends only on (q, n).

    python perfbench/setup_probe.py Q [N]

Imports ffchar.cli, then through public calls builds the field, the
canonical degree-N modulus with its unit group and dlog table (when N is
given) and the default Dickman table.  The benchmark times the whole
process, so work moved into precomputation shows in setup_s.
"""

import sys

import ffchar.cli  # noqa: F401  (the import is part of set-up)
from ffchar.algebra import Field
from ffchar.residue import Modulus
from ffchar.smooth import default_dickman_table


def main(argv: list[str]) -> int:
    field = Field.of_order(int(argv[0]))
    if len(argv) > 1:
        modulus = Modulus.irreducible(field, int(argv[1]))
        modulus.unit_group
        modulus.dlog_table
    default_dickman_table()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
