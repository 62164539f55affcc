#!/usr/bin/env python3
"""Compare the metrics of two perfbench result files.

    python3 perfbench/compare.py before.json after.json

Prints each metric of both files with the ratio after/before.  End-to-end
metrics are also checked against their bound in BENCHMARK.json: "worse"
marks a change beyond the bound in the metric's bad direction.  One pair of
files is a single sample; a claim needs repeated paired runs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before, after = (json.loads(Path(p).read_text()) for p in argv)
    for key in ("workload", "seconds", "trace"):
        if before.get(key) != after.get(key):
            print(f"warning: {key} differs: {before.get(key)!r} vs {after.get(key)!r}")
    bounds = {}
    if BENCHMARK.is_file():
        for m in json.loads(BENCHMARK.read_text())["end_to_end"]:
            bounds[m["name"]] = (m["bound"], m["better"])
    rows = [("fail_frac", before["fail_frac"], after["fail_frac"], "ratio")]
    for name in sorted(set(before["metrics"]) | set(after["metrics"])):
        a = before["metrics"].get(name, {}).get("value")
        b = after["metrics"].get(name, {}).get("value")
        unit = (before["metrics"].get(name) or after["metrics"].get(name))["unit"]
        rows.append((name, a, b, unit))
    for name, a, b, unit in rows:
        ratio = f"{b / a:8.3f}" if a and b is not None else "       -"
        verdict = ""
        if name in bounds and a and b is not None:
            bound, better = bounds[name]
            change = (b - a) / a if better == "lower" else (a - b) / a
            verdict = "worse" if change > bound else "within bound"
        print(f"{name:38s} {_fmt(a)} {_fmt(b)} {ratio} {unit:6s} {verdict}")
    return 0


def _fmt(v) -> str:
    return f"{v:14.6g}" if v is not None else f"{'-':>14s}"


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
