"""Grid rows read back from the JSONL mirror a run wrote."""

import json
from types import SimpleNamespace


def jsonl_records(text: str) -> list[SimpleNamespace]:
    """One record per JSONL line: its keys as attributes, plus the raw sums a_sum and s_sum."""
    records = []
    for line in text.splitlines():
        row = json.loads(line)
        a_sum, s_sum = complex(row["a_re"], row["a_im"]), complex(row["s_re"], row["s_im"])
        records.append(SimpleNamespace(**row, a_sum=a_sum, s_sum=s_sum))
    return records
