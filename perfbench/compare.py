"""Compare two result sets saved by ``run.py --save``.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

For each workload and metric it prints both medians, the relative change
and, for end-to-end metrics, whether the change is worse than the bound in
BENCHMARK.json.  It refuses (exit 2) to compare result sets measured with
different kernel backends (``theta_trunc.kernels.BACKEND``): compiled and
pure-Python kernels are not like for like.  Exit 1 means some metric got
worse by more than its bound.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def by_metric(records):
    out = {}
    for rec in records:
        for name, m in rec["result"]["metrics"].items():
            out.setdefault((rec["workload"], name), []).append(m["value"])
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    backends = {r["env"]["backend"] for r in base + new}
    if len(backends) != 1:
        print("refusing to compare: the result sets use kernel backends %s" % sorted(backends), file=sys.stderr)
        return 2
    bounds = {}
    if os.path.exists(BENCHMARK_JSON):
        with open(BENCHMARK_JSON, encoding="utf-8") as fh:
            bounds = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    b, n = by_metric(base), by_metric(new)
    regressed = False
    for key in sorted(set(b) & set(n)):
        mb, mn = statistics.median(b[key]), statistics.median(n[key])
        change = (mn - mb) / mb if mb else float("nan")
        verdict = ""
        spec = bounds.get(key[1])
        if spec is not None and mb:
            worse = change if spec["better"] == "lower" else -change
            verdict = "WORSE" if worse > spec["bound"] else "ok"
            regressed |= verdict == "WORSE"
        print("%-12s %-40s %12.6g %12.6g %+8.2f%% %s" % (key[0], key[1], mb, mn, 100 * change, verdict))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
