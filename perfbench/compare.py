"""Compare two sets of benchmark records; refuse a cross-host comparison.

Usage::

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records ``run.py`` writes to
``.perfbench/results/`` (copy them aside between the two sets).  For
every workload and every end-to-end metric of ``BENCHMARK.json``, the
median over each set's untraced runs is compared; a metric worse by
more than its bound is a regression.  Records whose host fingerprints
differ (CPU, Python or library versions, start method) are not
compared at all: a change of host is not a regression.

Exit codes: 0 no regression, 1 regression, 2 refused or unreadable.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> list[dict]:
    records = []
    for path in sorted(Path(directory).glob("*-trace0.json")):
        records.append(json.loads(path.read_text(encoding="utf-8")))
    if not records:
        raise SystemExit(f"error: no untraced records in {directory}")
    return records


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
        base, new = load(argv[0]), load(argv[1])
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    hosts = {json.dumps(r["fingerprint"], sort_keys=True) for r in base + new}
    if len(hosts) > 1:
        print("refused: the records come from different hosts or toolchains:", file=sys.stderr)
        for host in sorted(hosts):
            print(f"  {host}", file=sys.stderr)
        return 2
    regressed = False
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            old = statistics.median(
                r["result"]["metrics"][name]["value"] for r in base if r["workload"] == workload
            )
            now = statistics.median(
                r["result"]["metrics"][name]["value"] for r in new if r["workload"] == workload
            )
            change = (now - old) / old if old else 0.0
            worse = change if metric["better"] == "lower" else -change
            verdict = "REGRESSION" if worse > bound else "ok"
            regressed |= worse > bound
            print(f"{workload:11s} {name:15s} {old:12.4f} -> {now:12.4f} "
                  f"{change:+8.2%} (bound {bound:.0%}) {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
