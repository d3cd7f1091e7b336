"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --workloads campaign,lift_io,exact_small \
        --seeds 1-10 [--trace 0] [--out bench/baseline.json]

Every run uses the run length of BENCHMARK.json. For each workload and
metric it prints the median, the quartiles and their distance as a share of
the median (the stability test), next to the metric's bound. Any run that
fails or prints no result stops the collection with exit code 1. With --out
the summary, keyed by trace mode, is merged into that JSON file.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from measure import relative_spread

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            runs.append({"seed": seed, **result})
            saved = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{args.trace}.json"
            environment = json.loads(saved.read_text())["detail"]["environment"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            row = {"unit": first["unit"], "median": statistics.median(values), "values": values}
            if len(values) >= 2:
                row["q1"], _, row["q3"] = statistics.quantiles(values, n=4)
                if row["median"]:
                    row["spread"] = relative_spread(values)
            metrics[name] = row
            bound = bounds.get(name)
            spread = row.get("spread")
            flag = "" if bound is None or spread is None or spread < bound / 3 else "  <-- spread"
            print(f"  {workload:12s} {name:32s} median {row['median']:<12.6g} {first['unit']:8s}"
                  f" spread {'-' if spread is None else f'{spread:.4f}'}"
                  f" bound {bound if bound is not None else '-'}{flag}")
        summary[workload] = {"runs": len(runs), "seeds": [r["seed"] for r in runs],
                             "metrics": metrics}
    if args.out:
        path = Path(args.out)
        stored = json.loads(path.read_text()) if path.exists() else {}
        stored.setdefault(f"trace{args.trace}", {}).update(summary)
        stored["run_seconds"] = spec["run_seconds"]
        stored["environment"] = environment
        path.write_text(json.dumps(stored, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
