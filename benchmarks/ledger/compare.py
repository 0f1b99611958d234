"""Compare two ledger result sets: ``compare.py A.json B.json``.

A set is what ``run.py --out`` writes (one run or many).  For every
(workload, end-to-end metric) pair the untraced runs of each set are
reduced to a median and a spread (distance between the first and third
quartile as a share of the median), and B is judged against A with the
metric's direction and bound from ``BENCHMARK.json``:

* ``REGRESSION``  B's median is worse than A's by more than the bound;
* ``unresolved``  not a regression, but either set's spread exceeds the
  bound, so "no change" cannot be claimed -- unless every run of B reads
  better than every run of A;
* ``ok``          otherwise.

Every ratio is printed with its base (B / A).  Exits non-zero on a
regression or when B fails a larger share of its attempted ops than A.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(path: str) -> list:
    doc = json.loads(Path(path).read_text())
    return doc["runs"] if "runs" in doc else [doc]


def spread(values: list) -> float:
    """IQR / median, as the driver computes it; None below two runs."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def by_workload(runs: list, trace: int, section: str) -> dict:
    """workload -> metric -> values, over the runs of one pass."""
    out: dict = {}
    for run in runs:
        if run["trace"] == trace:
            for name, value in run[section].items():
                out.setdefault(run["workload"], {}).setdefault(name, []).append(value)
    return out


def judge(a: list, b: list, better: str, bound: float) -> tuple:
    """(B/A ratio, verdict)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (med_b - med_a) / med_a
    if worse > bound:
        return med_b / med_a, "REGRESSION"
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
    if spreads and max(spreads) > bound and not all_better:
        return med_b / med_a, "unresolved"
    return med_b / med_a, "ok"


def _fmt_spread(values: list) -> str:
    s = spread(values)
    return "   n/a" if s is None else f"{s:6.1%}"


def compare(runs_a: list, runs_b: list, spec: dict) -> int:
    status = 0
    # BENCHMARK.json's workloads first, then any other both sets hold
    # (run.py also runs workloads the driver does not).
    names = [w["name"] for w in spec["workloads"]]
    both = {r["workload"] for r in runs_a} & {r["workload"] for r in runs_b}
    names += sorted(both - set(names))
    e2e_a, e2e_b = (by_workload(r, 0, "end_to_end") for r in (runs_a, runs_b))
    print(f"{'workload':<13}{'metric':<16}{'A median':>13}{'A iqr':>7}{'B median':>13}"
          f"{'B iqr':>7}{'B/A':>8}{'bound':>7}  verdict")
    for name in names:
        for metric in spec["end_to_end"]:
            a = e2e_a.get(name, {}).get(metric["name"])
            b = e2e_b.get(name, {}).get(metric["name"])
            if not a or not b:
                continue
            ratio, verdict = judge(a, b, metric["better"], metric["bound"])
            status |= verdict == "REGRESSION"
            print(f"{name:<13}{metric['name']:<16}{statistics.median(a):>13.6g}"
                  f"{_fmt_spread(a):>7}{statistics.median(b):>13.6g}{_fmt_spread(b):>7}"
                  f"{ratio:>8.3f}{metric['bound']:>7.2f}  {verdict} ({metric['better']} is better)")

    layers_a, layers_b = (by_workload(r, 1, "per_layer") for r in (runs_a, runs_b))
    for workload in sorted(set(layers_a) & set(layers_b)):
        print(f"\nper-layer rows, {workload} (medians; no bound, B/A for information)")
        for metric in spec["per_layer"]:
            a = statistics.median(layers_a[workload][metric["name"]])
            b = statistics.median(layers_b[workload][metric["name"]])
            if a == 0 and b == 0:
                continue
            ratio = f"{b / a:8.3f}" if a else "     new"
            print(f"  {metric['name']:<32}{a:>14.6g}{b:>14.6g}{ratio} {metric['unit']}")

    print()
    for name in names:
        frac = []
        for runs in (runs_a, runs_b):
            mine = [r for r in runs if r["workload"] == name]
            attempted = sum(r["attempted"] for r in mine)
            frac.append(sum(r["failed"] for r in mine) / attempted if attempted else None)
        if None in frac:
            continue
        risen = frac[1] > frac[0]
        status |= risen
        digests = [
            {(r["seed"]): r["digest"] for r in runs if r["workload"] == name}
            for runs in (runs_a, runs_b)
        ]
        shared = sorted(set(digests[0]) & set(digests[1]))
        same = sum(digests[0][s] == digests[1][s] for s in shared)
        print(f"{name:<13}failed_frac A {frac[0]:.4g} -> B {frac[1]:.4g}"
              f"{'  RISEN' if risen else ''}; output digests identical on "
              f"{same}/{len(shared)} shared seeds")
    return int(status)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    return compare(load_runs(argv[0]), load_runs(argv[1]), spec)


if __name__ == "__main__":
    sys.exit(main())
