"""Per-layer A/B report: a baseline and a candidate checkout, side by side.

Runs ``perfbench/run.py`` of each checkout in alternating pairs (the
baseline first in even pairs, the candidate first in odd ones), one seed
per pair, and prints every metric of the chosen mode — end-to-end for
``--trace 0``, per layer for ``--trace 1`` — with each side's median and
quartiles.  A metric is flagged only when the candidate wins (or loses)
at least nine in ten pairs, ties counting for neither, *and* the medians
differ by more than the baseline's own interquartile range::

    python3 perfbench/compare.py BASE_DIR CAND_DIR --workload fanout-hot --trace 1

Every run lasts the ``run_seconds`` of this checkout's ``BENCHMARK.json``.
Both checkouts should carry the same benchmark code; the report warns
when their ``perfbench`` files or ``BENCHMARK.json`` differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9
#: Pair ``n`` runs both sides on seed ``FIRST_SEED + n``.
FIRST_SEED = 1000


def benchmark_digest(checkout: Path) -> str:
    digest = hashlib.sha256()
    files = sorted((checkout / "perfbench").glob("*")) + [checkout / "BENCHMARK.json"]
    for path in files:
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=900,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: run failed (exit {completed.returncode})\n"
                         f"{completed.stdout[-2000:]}{completed.stderr[-2000:]}")
    return json.loads(lines[-1])


def collect(base: Path, cand: Path, workload: str, pairs: int, seconds: int,
            trace: int) -> dict:
    results: dict = {"workload": workload, "trace": trace, "seconds": seconds,
                     "base": [], "cand": []}
    for index in range(pairs):
        seed = FIRST_SEED + index
        order = [("base", base), ("cand", cand)]
        if index % 2:
            order.reverse()
        for side, checkout in order:
            result = run_once(checkout, workload, seed, seconds, trace)
            results[side].append({"seed": seed, **result})
            print(f"pair {index + 1}/{pairs} seed {seed} {side}: "
                  f"correct={result['correct']} failed={result['failed']}", file=sys.stderr)
    return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(results: dict, spec: dict) -> list[str]:
    """The side-by-side table, one row per metric, grouped by layer."""
    group = "per_layer" if results["trace"] else "end_to_end"
    better = {entry["name"]: entry["better"] for entry in spec[group]}
    base = {run["seed"]: run for run in results["base"]}
    cand = {run["seed"]: run for run in results["cand"]}
    seeds = sorted(set(base) & set(cand))
    lines = [
        f"{results['workload']} ({group}, {len(seeds)} pairs, {results['seconds']} s runs)",
        f"  failed operations: base {sum(base[s]['failed'] for s in seeds)}, "
        f"cand {sum(cand[s]['failed'] for s in seeds)}",
        f"  {'metric':52} {'base median [q1, q3]':>32} {'cand median [q1, q3]':>32} "
        f"{'change':>8} {'wins':>6}  flag",
    ]
    previous_layer = None
    for name in sorted(better, key=lambda metric: (metric.split(".")[0], metric)):
        layer = name.split(".")[0]
        if layer != previous_layer:
            lines.append(f"  [{layer}]")
            previous_layer = layer
        base_values = [base[s]["metrics"][name]["value"] for s in seeds]
        cand_values = [cand[s]["metrics"][name]["value"] for s in seeds]
        unit = base[seeds[0]]["metrics"][name]["unit"]
        b1, b2, b3 = quartiles(base_values)
        c1, c2, c3 = quartiles(cand_values)
        sign = 1 if better[name] == "higher" else -1
        wins = sum(1 for b, c in zip(base_values, cand_values) if sign * (c - b) > 0)
        losses = sum(1 for b, c in zip(base_values, cand_values) if sign * (c - b) < 0)
        flag = ""
        if abs(c2 - b2) > (b3 - b1):
            if wins >= WIN_SHARE * len(seeds):
                flag = "BETTER"
            elif losses >= WIN_SHARE * len(seeds):
                flag = "WORSE"
        change = f"{(c2 - b2) / b2 * 100:+.1f}%" if b2 else "n/a"
        lines.append(
            f"  {name:52} {b2:>12.4g} [{b1:.4g}, {b3:.4g}] {unit:>5} "
            f"{c2:>12.4g} [{c1:.4g}, {c3:.4g}] {change:>8} {wins:>2}/{len(seeds):<3}  {flag}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="baseline checkout")
    parser.add_argument("cand", type=Path, help="candidate checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    arguments = parser.parse_args(argv)

    here = Path(__file__).resolve().parent
    spec = json.loads((here.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    if benchmark_digest(arguments.base) != benchmark_digest(arguments.cand):
        print("warning: the two checkouts carry different benchmark code", file=sys.stderr)
    results = collect(arguments.base.resolve(), arguments.cand.resolve(), arguments.workload,
                      arguments.pairs, spec["run_seconds"], arguments.trace)
    print("\n".join(report(results, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
