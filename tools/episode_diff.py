"""Compare two `episodes.jsonl` files field by field.

Every discrete field (ints, strings, nulls and lists of them: `predicted`,
`selected`, `label`, the view and token counts) must be equal in both files,
record by record; `peak_tape_nodes` is exempt, because it counts graph nodes
and not results. For each float field the largest relative difference
|a - b| / max(|a|, |b|) over all records is printed.

    python tools/episode_diff.py A.jsonl B.jsonl   # exit 1 on a discrete mismatch
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

EXEMPT = ("peak_tape_nodes",)


class Mismatch(ValueError):
    pass


def read_records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def compare(a, b, where: str, worst: dict, field: str):
    """Raise Mismatch on a discrete difference; fold float differences into worst."""
    if isinstance(a, float) or isinstance(b, float):
        if not (isinstance(a, (int, float)) and isinstance(b, (int, float))):
            raise Mismatch(f"{where}: {a!r} vs {b!r}")
        if a == b or (math.isnan(a) and math.isnan(b)):
            rel = 0.0
        else:
            rel = abs(a - b) / max(abs(a), abs(b))
            rel = math.inf if math.isnan(rel) else rel  # one NaN, or inf vs finite
        worst[field] = max(worst.get(field, 0.0), rel)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Mismatch(f"{where}: lengths {len(a)} vs {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            compare(x, y, f"{where}[{i}]", worst, field)
    elif a != b or type(a) is not type(b):
        raise Mismatch(f"{where}: {a!r} vs {b!r}")


def diff(records_a: list[dict], records_b: list[dict]) -> tuple[dict, dict]:
    """(largest relative difference per float field, {exempt field: set of (a, b) pairs})."""
    if len(records_a) != len(records_b):
        raise Mismatch(f"{len(records_a)} vs {len(records_b)} records")
    worst: dict = {}
    exempt: dict = {name: set() for name in EXEMPT}
    for i, (ra, rb) in enumerate(zip(records_a, records_b)):
        if ra.keys() != rb.keys():
            raise Mismatch(f"record {i}: fields {sorted(ra)} vs {sorted(rb)}")
        for field in ra:
            if field in EXEMPT:
                exempt[field].add((ra[field], rb[field]))
            else:
                compare(ra[field], rb[field], f"record {i} {field}", worst, field)
    return worst, exempt


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    records_a, records_b = read_records(args.a), read_records(args.b)
    try:
        worst, exempt = diff(records_a, records_b)
    except Mismatch as e:
        print(f"discrete mismatch: {e}")
        return 1
    print(f"{len(records_a)} records, discrete fields equal")
    for field, pairs in exempt.items():
        print(f"  {field} (not compared): "
              + ", ".join(f"{x} -> {y}" for x, y in sorted(pairs, key=str)))
    for field, rel in sorted(worst.items()):
        print(f"  {field}: max rel diff {rel:.3e}")
    print(f"largest float rel diff {max(worst.values(), default=0.0):.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
