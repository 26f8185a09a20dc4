#!/usr/bin/env python3
"""Fails when a traced `peak` run allocates more than CEILING per tx.

Reads the saved stdout of `hammerbench --workload peak --trace 1`, takes
its last JSON line and checks metrics["process.allocs_per_tx"].value.

CEILING = 90 allocations per committed transaction. The per-transaction
JSON-RPC path (flat json::Object, one allocation per parsed string, the
request and response envelopes written and read without copies) brought
the traced peak run from 160 to about 55 on a 4-core x86-64 box. The
ceiling sits well above that so machine noise never trips it, and well
below the old 160, so a change that brings back the tree copies (about
35 allocations per tx each way) fails here.

Exit codes: 0 under the ceiling, 1 over it, 2 when the line or the metric
is missing (a check that stopped measuring is not a pass).

Usage: check_alloc_ceiling.py HAMMERBENCH_STDOUT_FILE
"""

import json
import sys

METRIC = "process.allocs_per_tx"
CEILING = 90.0


def last_json_line(text):
    for line in reversed(text.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    return None


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        text = f.read()
    try:
        result = last_json_line(text)
    except json.JSONDecodeError as e:
        print(f"check_alloc_ceiling: unreadable result line: {e}", file=sys.stderr)
        return 2
    if result is None:
        print("check_alloc_ceiling: no JSON result line", file=sys.stderr)
        return 2
    try:
        value = float(result["metrics"][METRIC]["value"])
    except (KeyError, TypeError, ValueError):
        print(f"check_alloc_ceiling: result has no {METRIC} (was the run traced?)",
              file=sys.stderr)
        return 2
    if value > CEILING:
        print(f"check_alloc_ceiling: FAIL {METRIC} = {value:.1f} > ceiling {CEILING:g}",
              file=sys.stderr)
        return 1
    print(f"check_alloc_ceiling: ok {METRIC} = {value:.1f} <= ceiling {CEILING:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
