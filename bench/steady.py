"""Steadiness check: re-run workloads over several seeds and compare each
end-to-end metric's run-to-run spread with its bound in BENCHMARK.json.

    python3 bench/steady.py --workload series --seeds 1-10
    python3 bench/steady.py --workload series --seeds 11-20 --against .bench_build/steady/series.json

The spread is the distance between the first and third quartiles of the
values (``statistics.quantiles(values, n=4)``) as a share of their median.
A metric is steady when its spread is within a third of its bound.
With ``--against``, each median is also compared
with that of an earlier set of runs: it may be worse by at most the bound.
Raw values go to ``.bench_build/steady/<workload>.json``.  Exits 1 when a
spread exceeds its bound or a median drifted beyond it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def collect(workload: str, seeds: list[int], seconds: int) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"{workload} seed {seed}: correct is false", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"{workload} seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), file=sys.stderr)
    return values


def report(workload: str, values: dict[str, list[float]], spec: dict, against: dict | None) -> bool:
    ok = True
    print(f"{'workload':13s} {'metric':14s} {'median':>11s} {'spread':>7s} {'bound':>6s}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        vals = values[name]
        q1, median, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / median if median else float("inf")
        if spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound, above a third"
        else:
            verdict = "UNSTEADY"
            ok = False
        if against is not None:
            before = statistics.median(against[name])
            worse = (median - before) / before if metric["better"] == "lower" else (before - median) / before
            drift_ok = worse <= bound
            ok = ok and drift_ok
            verdict += f"; vs earlier {worse:+.3f}{'' if drift_ok else ' DRIFTED'}"
        print(f"{workload:13s} {name:14s} {median:11.5g} {spread:7.3f} {bound:6.2f}  {verdict}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length; defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--against", type=Path, default=None,
                        help="raw values of an earlier steady.py run of the same workload")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    against = json.loads(args.against.read_text()) if args.against else None
    out_dir = ROOT / ".bench_build" / "steady"
    out_dir.mkdir(parents=True, exist_ok=True)
    ok = True
    for workload in args.workload:
        values = collect(workload, _seeds(args.seeds), seconds)
        (out_dir / f"{workload}.json").write_text(json.dumps(values))
        ok = report(workload, values, spec, against) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
