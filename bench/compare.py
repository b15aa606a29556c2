#!/usr/bin/env python3
"""Summarise or compare result sets recorded by `bench/run.py --record`.

    python3 bench/compare.py BASE.jsonl               # spread of one set
    python3 bench/compare.py BASE.jsonl NEW.jsonl     # NEW against BASE

For each workload and metric, one set prints its median, quartiles and
the quartile spread as a share of the median (against the metric's bound
for end-to-end metrics).  Two sets also print the ratio of medians
NEW/BASE and the share of pairs NEW won: the i-th run of each set on a
workload form a pair, and ties count for neither side.  A gain is
`claimed` only when NEW wins at least nine tenths of the pairs and the
medians differ by more than BASE's quartile spread; an end-to-end metric
whose median got worse by more than its bound is a `REGRESSION`.
Provenance that differs between the sets (Python, CPU, nproc, run
length) is printed first, because such pairs compare machines, not code.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[1]
                   / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
PROVENANCE_KEYS = ("python", "cpu", "nproc", "seconds")


def load(path: str) -> tuple[dict, list[dict]]:
    """(workload, trace) -> metric -> values in run order; provenances."""
    runs = defaultdict(lambda: defaultdict(list))
    provs = []
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        prov = rec["provenance"]
        provs.append(prov)
        if not rec["result"]["correct"]:
            print(f"{path}: skipping a failed run of {prov['workload']} "
                  f"seed {prov['seed']}")
            continue
        for name, entry in rec["result"]["metrics"].items():
            runs[(prov["workload"], prov["trace"])][name].append(entry["value"])
    return runs, provs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def summarise(runs: dict) -> None:
    print(f"{'workload':<16} {'metric':<40} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for (workload, _), metrics in sorted(runs.items()):
        for name, values in sorted(metrics.items()):
            q1, q2, q3 = quartiles(values)
            bound = METRICS.get(name, {}).get("bound")
            print(f"{workload:<16} {name:<40} {len(values):>3} {q2:>12.4f} "
                  f"{q1:>12.4f} {q3:>12.4f} {spread(values):>7.3f} "
                  f"{'' if bound is None else bound:>6}")


def compare(base: dict, new: dict) -> int:
    regressions = 0
    print(f"{'workload':<16} {'metric':<40} {'base':>12} {'new':>12} "
          f"{'new/base':>8} {'won':>5}  verdict")
    for key in sorted(set(base) & set(new)):
        for name in sorted(set(base[key]) & set(new[key])):
            a, b = base[key][name], new[key][name]
            a1, a2, a3 = quartiles(a)
            b1, b2, b3 = quartiles(b)
            spec = METRICS.get(name, {"better": "lower"})
            sign = 1 if spec["better"] == "higher" else -1
            pairs = list(zip(a, b))
            wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            won = wins / len(pairs)
            verdict = ""
            if won >= 0.9 and abs(b2 - a2) > a3 - a1:
                verdict = "claimed"
            bound = spec.get("bound")
            if bound is not None and a2 and sign * (b2 - a2) / abs(a2) < -bound:
                verdict = "REGRESSION"
                regressions += 1
            ratio = b2 / a2 if a2 else float("inf")
            print(f"{key[0]:<16} {name:<40} {a2:>12.4f} {b2:>12.4f} "
                  f"{ratio:>8.3f} {won:>5.2f}  {verdict}")
            print(f"{'':<16} {'  quartiles':<40} {a1:>5.4g}..{a3:<5.4g} "
                  f"{b1:>5.4g}..{b3:<5.4g}")
    return 1 if regressions else 0


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(path) for path in argv]
    if len(sets) == 1:
        summarise(sets[0][0])
        return 0
    for k in PROVENANCE_KEYS:
        seen = [{p[k] for p in provs} for _, provs in sets]
        if seen[0] != seen[1]:
            print(f"provenance differs: {k} {sorted(map(str, seen[0]))} "
                  f"vs {sorted(map(str, seen[1]))}")
    return compare(sets[0][0], sets[1][0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
