"""liftlab benchmark: one workload, one seed, one timed run.

    python3 bench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory and nowhere else. With --trace 0 the run reports the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced replay.
Every line but the last is for people; the last line is one JSON object with
the keys correct, attempted, failed and metrics. The exit code is 0 only when
every operation's output passed its checks.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
SETUP_REPEATS = 9
COVERAGE_MIN = 0.7
ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "LIFTLAB_THREADS")

LAYER_TIMES = (
    "spectra.eig", "spectra.split", "characterization.roots", "characterization.verify",
    "lifts.sample", "lifts.build", "graphs.random_regular", "graphs.adjacency_matrix",
    "fileio.write", "fileio.read", "fileio.report", "experiments.search",
    "expansion.cheeger", "expansion.eml",
)
LAYER_COUNTS = (
    "spectra.eig.calls", "spectra.eig.flop_est", "lifts.edges", "fileio.bytes",
    "characterization.root_solves", "experiments.search.candidates",
    "expansion.cheeger.subsets", "expansion.eml.pairs",
)


def _import_library():
    """Import liftlab from this checkout's src/, or exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "liftlab" / "__init__.py").is_file():
        print(f"error: no liftlab sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import liftlab

    if Path(liftlab.__file__).resolve().parent != (src / "liftlab").resolve():
        print(f"error: liftlab imported from {liftlab.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    llc = None
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if llc is None or level >= llc["level"]:
            llc = {"level": level, "size": size}
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "llc": llc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "env": {var: os.environ.get(var) for var in ENV_VARS},
    }


def setup_probe(args) -> float:
    """Seconds from starting a fresh process, which imports the library and
    sets the workload up, to its ready line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    started = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed: {line!r}")
    return ready - started


def run_ops(wl, seconds: float, tracer=None, first: int = 0, between=None):
    """Closed loop, one operation at a time, until `seconds` of wall time
    have passed; with a tracer each operation is then replayed traced.
    `between(elapsed)` runs after each operation, outside its timing."""
    from workloads import OpResult

    results, errors = [], []
    started = time.perf_counter()
    index = first
    while index == first or time.perf_counter() - started < seconds:
        # Start every operation from the same collector state, as a fresh
        # CLI process would, instead of paying for the previous one's garbage.
        gc.collect()
        try:
            res = wl.op(index)
            wl.check(res)
            if tracer is not None and not res.errors:
                res.errors = wl.replay(index, tracer, res)
                res.failed = res.units if res.errors else 0
            if index == 0 and not res.errors:
                res.reference = wl.reference(res)
        except Exception as exc:  # an operation that raises is a failed one
            res = OpResult(0.0, wl.units_per_op, {}, wl.units_per_op,
                           [f"{type(exc).__name__}: {exc}"])
        res.out = None
        results.append(res)
        errors.extend(f"op {index}: {e}" for e in res.errors)
        index += 1
        if between is not None:
            between(time.perf_counter() - started)
    return results, errors


def end_to_end(results, setup_times) -> tuple[dict, dict]:
    """Five of the six end-to-end metrics. The sixth, failed_frac, travels as
    failed over attempted in the result line: a metric that is 0 whenever all
    is well has no relative bound, so BENCHMARK.json cannot list it."""
    from measure import tail_percentile

    timed = [r for r in results if r.seconds > 0]
    lat = [r.seconds for r in timed]
    tail, pct, beyond = tail_percentile(lat)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": sum(r.units for r in timed) / sum(lat),
        "call_s_p50": statistics.median(lat),
        "call_s_tail": tail,
        "peak_rss_mb": rss_mb,
    }
    detail = {"calls": len(lat), "tail_percentile": pct, "tail_beyond": beyond,
              "setup_samples": setup_times, "call_samples": lat}
    return values, detail


def per_layer(wl, tracer, results) -> tuple[dict, dict]:
    from measure import busy_frac, covered_time, self_time_by_name

    spans = tracer.spans
    units = sum(r.units for r in results)
    untraced = sum(r.seconds for r in results)
    self_s = self_time_by_name(spans)
    roots = [i for i, s in enumerate(spans) if s.parent is None]
    covered = sum(covered_time(spans, i) for i in roots)
    traced = sum(spans[i].end - spans[i].start for i in roots)
    counts = tracer.counts

    values = {f"{name}.s": self_s.get(name, 0.0) / units for name in LAYER_TIMES}
    values.update({name: counts.get(name, 0) / units for name in LAYER_COUNTS})
    values["spectra.eig.dim_max"] = counts.get("spectra.eig.dim_max", 0)
    eig_s = self_s.get("spectra.eig", 0.0)
    values["spectra.eig.gflop_per_s"] = (
        counts.get("spectra.eig.flop_est", 0) / eig_s / 1e9 if eig_s else 0.0)
    values["cli.self_s"] = (untraced - covered) / units if wl.via_cli else 0.0
    pool_wall = sum(s.end - s.start for s in spans if s.name == "experiments.pool")
    trial_busy = sum(s.end - s.start for s in spans if s.name == "experiments.trial")
    values["experiments.pool.busy_frac"] = (
        busy_frac(trial_busy, wl.workers, pool_wall) if pool_wall else 0.0)
    values["trace.coverage"] = covered / untraced
    values["trace.overhead_frac"] = (traced - untraced) / untraced
    total_self = sum(self_s.values())
    top = sorted(self_s.items(), key=lambda kv: -kv[1])[:5]
    detail = {"units": units, "spans": len(spans), "untraced_s": untraced,
              "traced_s": traced, "covered_s": covered,
              "self_time_share": {k: round(v / total_self, 4) for k, v in top}}
    return values, detail


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["campaign", "lift_io", "exact_small"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and set up, then exit (times setup_s)")
    parser.add_argument("--record-reference", action="store_true",
                        help="store the first outputs of a default-seed run as the reference")
    args = parser.parse_args(argv)

    _import_library()
    from measure import Tracer, failed_frac
    from workloads import WORKLOADS, compare_reference

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_times: list[float] = []

        def probe_setup(elapsed: float) -> None:
            # Spread the set-up samples over the run, so that their median
            # does not hang on the machine's state in one moment.
            due = min(SETUP_REPEATS, 1 + int(elapsed * SETUP_REPEATS / args.seconds))
            while len(setup_times) < due:
                setup_times.append(setup_probe(args))

        if not (args.trace or args.setup_only):
            setup_probe(args)  # warm-up process, discarded
        wl = WORKLOADS[args.workload](args.seed, str(workdir), nproc())
        if args.setup_only:
            print("ready", flush=True)
            return 0
        warm, warm_errors = run_ops(wl, 0.0, first=-1)
        tracer = Tracer() if args.trace else None
        results, errors = run_ops(wl, args.seconds, tracer,
                                  between=None if args.trace else probe_setup)
        if not args.trace:
            probe_setup(args.seconds)
        errors = [f"warm-up {e}" for e in warm_errors] + errors
        if not any(r.seconds > 0 for r in results):
            for err in errors[:20]:
                print(f"error: {err}", file=sys.stderr)
            print("error: no operation completed", file=sys.stderr)
            return 1
        ref_path = HERE / "reference.json"
        got = results[0].reference
        if args.record_reference and args.seed == DEFAULT_SEED and got is not None:
            stored = json.loads(ref_path.read_text()) if ref_path.exists() else {}
            stored[args.workload] = got
            ref_path.write_text(json.dumps(stored, indent=1) + "\n")
        elif args.seed == DEFAULT_SEED and got is not None:
            want = json.loads(ref_path.read_text())[args.workload]
            ref_errors = compare_reference(got, want, "reference")
            if ref_errors:
                results[0].failed = results[0].units
                errors.extend(ref_errors)
        if args.trace:
            values, detail = per_layer(wl, tracer, results)
            if values["trace.coverage"] < COVERAGE_MIN:
                errors.append(f"trace coverage {values['trace.coverage']:.3f} is below "
                              f"{COVERAGE_MIN}: the replay no longer accounts for the operation")
        else:
            values, detail = end_to_end(results, setup_times)
        units = declared_units("per_layer" if args.trace else "end_to_end")
        if set(values) != set(units):
            raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are not "
                               "both computed and declared in BENCHMARK.json")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = warm + results
    attempted = sum(r.units for r in everything)
    failed = sum(r.failed for r in everything)
    correct = failed == 0 and not errors
    detail.update(workload=args.workload, unit=wl.unit, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, failed_frac=failed_frac(failed, attempted),
                  working_set=wl.working_set(), environment=environment())

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"attempted {attempted}, failed {failed} (unit: {wl.unit})")
    for key, value in detail.items():
        print(f"  {key} = {json.dumps(value)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac = {detail['failed_frac']:.6g} fraction")
    for err in errors[:20]:
        print(f"error: {err}", file=sys.stderr)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    stem.with_suffix(".json").write_text(
        json.dumps({**result, "detail": detail, "errors": errors}, indent=1) + "\n")
    if tracer is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for i, s in enumerate(tracer.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
