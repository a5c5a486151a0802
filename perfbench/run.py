"""netcoord benchmark: end-to-end throughput plus a traced per-module breakdown.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lattice-analyze --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced and traced

Each workload runs in a fresh child process with ``SIM_WORKERS=1`` and
BLAS threads pinned to 1, on the package source under ``src/`` of the
checkout.  ``--trace 0`` measures the end-to-end metrics for
``--seconds``; ``--trace 1`` runs a fixed amount of work untraced and
then traced, and reports per-module metrics from the spans.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
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
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# BENCHMARK.json gates only wave-build and lattice-analyze: the run budget
# pays for two workloads at the run length a shared host's speed drift needs.
# The other two stay runnable for their per-module breakdown.
WORKLOADS = ("ensemble-complete", "rupath-lattice", "wave-build", "lattice-analyze")
THREAD_PINS = {
    "SIM_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# A child may run past --seconds by one cycle, the set-up probes and the
# reference check, or, traced, by its fixed untraced and traced passes;
# at the default 50 s a hung child is still stopped within 180 s.
CHILD_MARGIN_S = 100
# wave-build makes one CLI call per wave, so a run has few set-up samples
# of about 2 ms each; set-up probes top the run up to this many.
MIN_SETUPS = 15
END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: small inputs for the smoke test")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# ------------------------------------------------------------------ parent


def run_child(args, workload: str, trace: int, capture: bool) -> subprocess.CompletedProcess:
    """Run one workload in a fresh process; its work directory goes afterwards, even on a timeout."""
    workdir = WORK / f"{workload}-{trace}-{os.getpid()}"
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", "--workload", workload]
    argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace), "--scale", args.scale]
    argv += ["--workdir", str(workdir)]
    env = {**os.environ, **THREAD_PINS}
    timeout = args.seconds + CHILD_MARGIN_S
    try:
        return subprocess.run(argv, env=env, cwd=ROOT, timeout=timeout, text=True, capture_output=capture)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out after {timeout:g}s", file=sys.stderr)
        return subprocess.CompletedProcess(argv, 124, "", "")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload, untraced then traced; a summary JSON as the last line."""
    summary = {"correct": True, "workloads": {}}
    code = 0
    for name in WORKLOADS:
        entry = summary["workloads"][name] = {}
        for trace in (0, 1):
            proc = run_child(args, name, trace, capture=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                code = proc.returncode or 1
                summary["correct"] = False
                continue
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            entry["env"] = json.loads(lines[0])["env"]
            entry["per_layer" if trace else "end_to_end"] = result
    print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if args.workload == "all":
        return run_all(args)
    return run_child(args, args.workload, args.trace, capture=False).returncode


# ------------------------------------------------------------------- child


def load_package():
    """Import netcoord from this checkout's ``src/``; None if it is not there."""
    if not (SRC / "netcoord" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import netcoord

    if SRC.resolve() not in Path(netcoord.__file__).resolve().parents:
        return None
    return netcoord


def git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree of its own."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink(missing_ok=True)


def measure(w, args, workdir: Path) -> tuple[dict, dict]:
    """Timed loop of batches for ``--seconds``, then the reference check."""
    batches = []
    errors: list[str] = []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        batch = w.batch(args.seed, index, workdir, args.scale)
        res = w.run_batch(batch)
        remove(batch.out)
        batches.append(res)
        errors += res.errors
        index += 1
        if time.perf_counter() >= deadline and index % w.cycle(args.scale) == 0:
            break
    setups = [b.setup_s for b in batches if b.setup_s is not None]
    while len(setups) < MIN_SETUPS:
        batch = w.batch(args.seed, index, workdir, args.scale, "probe")
        setups.append(w.setup_probe(batch))
        remove(batch.out)
        index += 1
    ref_items, ref_errors = w.check_reference(workdir, args.scale)
    errors += ref_errors
    items = [t for b in batches for t in b.item_s]
    attempted = sum(b.attempted for b in batches) + ref_items
    failed = sum(b.failed for b in batches) + min(ref_items, len(ref_errors))
    # Throughput per cycle (one CLI call, or one wave panel), then the
    # median over cycles: a few seconds of a slow host moves it less.
    cycle = w.cycle(args.scale)
    rates = []
    for i in range(0, len(batches), cycle):
        part = batches[i : i + cycle]
        after_setup = sum(b.post_setup_s for b in part)
        rates.append(sum(b.attempted - b.failed for b in part) / after_setup if after_setup else 0.0)
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": statistics.median(rates),
        "item_p50_s": statistics.median(items) if items else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "batches": len(batches),
        "items": len(items),
        "cycles": len(rates),
        "fail_ratio": failed / attempted if attempted else 1.0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }
    if len(items) >= 100:
        info["item_p90_s"] = statistics.quantiles(items, n=10)[8]
    return metrics, info


def traced(w, args, workdir: Path) -> tuple[dict, dict]:
    """The same fixed work untraced, then traced; per-layer metrics from the spans."""
    from spans import UNIT_CLOCKS, Tracer, per_layer_metrics

    warmup = w.run_batch(w.warmup_batch(args.seed, workdir, args.scale))
    walls, digests, errors = [], [], list(warmup.errors)
    attempted, failed = warmup.attempted, warmup.failed
    # The untraced pass clocks only the calls the per-flip and per-cube
    # ratios divide, so those ratios carry no per-span tracing cost.
    clocks, tracer = Tracer(only=UNIT_CLOCKS), Tracer()
    for tag, tr in (("u", clocks), ("t", tracer)):
        batches = w.trace_batches(args.seed, workdir, args.scale, tag)
        tr.install()
        try:
            results = [w.run_batch(batch) for batch in batches]
        finally:
            tr.uninstall()
        walls.append(sum(r.wall_s for r in results))
        attempted += sum(r.attempted for r in results)
        failed += sum(r.failed for r in results)
        errors += [e for r in results for e in r.errors]
        digests.append([{} if r.errors else w.digests(b) for b, r in zip(batches, results)])
    if digests[0] != digests[1]:
        errors.append("traced outputs differ from untraced outputs")
        failed = max(failed, 1)
    metrics = per_layer_metrics(tracer.rec, clocks.rec, walls[0], walls[1])
    info = {
        "untraced_s": walls[0],
        "traced_s": walls[1],
        "fail_ratio": failed / attempted if attempted else 1.0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }
    return metrics, info


def child_main(args) -> int:
    if load_package() is None:
        print(f"perfbench: no netcoord package under {SRC}", file=sys.stderr)
        return 2
    workdir = args.workdir
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        import workloads

        env = environment(args)
        print(json.dumps({"env": env}))
        w = workloads.workloads()[args.workload]
        metrics, info = (traced if args.trace else measure)(w, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    from spans import PER_LAYER

    units = PER_LAYER if args.trace else END_TO_END_UNITS
    print(f"workload {args.workload}")
    for name, value in metrics.items():
        print(f"  {name:<30} {value:.6g} {units[name]}")
    for key in ("item_p90_s", "fail_ratio", "batches", "cycles", "items", "untraced_s", "traced_s"):
        if key in info:
            print(f"  {key:<30} {info[key]:.6g}")
    for err in info["errors"][:5]:
        print(f"perfbench: {err}", file=sys.stderr)
    result = {
        "correct": info["failed"] == 0 and not info["errors"],
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
