"""trafficast benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload fit_small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run it from the root of a checkout; it imports the package from ``src/``
there and from nowhere else. ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` measures the same workload untraced and then
traced, and reports the per-layer metrics and the tracing overhead. Every
metric is printed by name with its unit; the last line of standard output
is one JSON object (correct, attempted, failed, metrics). A failed output
check makes the exit code 1; a missing package makes it 2.

Results, the environment and (traced runs) the spans go to
``perfbench/out/``. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("train_n32", "eval_n207", "fit_small", "grid_jobs2")


def _import_package():
    """Import trafficast from this checkout's src/, or return an error text."""
    if not (SRC / "trafficast" / "__init__.py").is_file():
        return None, f"no package at {SRC / 'trafficast'}: run from a repository checkout"
    sys.path.insert(0, str(SRC))
    try:
        import trafficast
        from trafficast import cli, data, graph, model, tensor, training
    except ImportError as exc:
        return None, f"cannot import trafficast from {SRC}: {exc}"
    if not Path(trafficast.__file__).resolve().is_relative_to(SRC):
        return None, f"trafficast imported from {trafficast.__file__}, not {SRC}"
    return {"tensor": tensor, "graph": graph, "data": data, "model": model,
            "training": training, "cli": cli}, None


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _blas_threads():
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "default")


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _cache_bytes(code: int):
    # glibc sysconf codes for _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2/3_CACHE_SIZE
    try:
        return os.sysconf(code)
    except (ValueError, OSError):
        return None


def environment(seed: int) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "seed": seed,
        "l1d_bytes": _cache_bytes(188),
        "l2_bytes": _cache_bytes(191),
        "l3_bytes": _cache_bytes(194),
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def _run_workload(mods, name: str, seed: int, seconds: float, traced: bool, reps: int):
    import tracing
    import workloads
    tracer = tracing.Tracer(traced=traced)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT)
    tracer.install(mods)
    try:
        ctx = workloads.Ctx(seed=seed, seconds=seconds, tracer=tracer,
                            workdir=workdir, reps=reps)
        out = workloads.WORKLOADS[name](ctx)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    return tracer, out


def measure(mods, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result document."""
    import metrics
    import workloads
    base_rss = _maxrss_mib()
    reps = 2 if trace else workloads.REPS[name]
    budget = seconds / 2 if trace else seconds
    tracer, out = _run_workload(mods, name, seed, budget, False, reps)
    e2e = metrics.end_to_end(tracer, out, _maxrss_mib() - base_rss)
    doc = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(seed),
        "working_set": out.working_set,
        "named": metrics.named(tracer, out, e2e),
        "failures": list(out.failures),
    }
    attempted, failed = out.attempted, out.failed
    if trace:
        t_tracer, t_out = _run_workload(mods, name, seed, budget, True, reps)
        gated = metrics.per_layer(t_tracer, t_out, e2e["step_s"][0])
        attempted, failed = attempted + t_out.attempted, failed + t_out.failed
        doc["failures"] += t_out.failures
        t_tracer.write_spans(str(OUT / f"{name}-seed{seed}-spans.jsonl"))
    else:
        gated = e2e
    doc["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in gated.items()}
    doc["attempted"], doc["failed"] = attempted, failed
    doc["correct"] = failed == 0 and attempted > 0
    return doc


def report(doc: dict) -> int:
    """Print every metric with its unit, then the result line; return the exit code."""
    print(f"workload {doc['workload']} seed {doc['seed']} trace {doc['trace']}")
    print("environment " + json.dumps(doc["environment"], sort_keys=True))
    print("working_set " + json.dumps(doc["working_set"], sort_keys=True))
    for name, (value, unit, note) in doc["named"].items():
        print(f"  {name:<28} {value:>14.6g} {unit:<10} {note}")
    for name, m in doc["metrics"].items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    for failure in doc["failures"]:
        print(f"FAILED: {failure}")
    with open(OUT / f"{doc['workload']}-seed{doc['seed']}-trace{doc['trace']}.json",
              "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=1, default=str)
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": doc["metrics"]}))
    return 0 if doc["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="feed each output check a wrong result; exit 0 if all catch it")
    args = parser.parse_args(argv)
    mods, error = _import_package()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    if args.self_test:
        import selftest
        return selftest.run(mods, measure, report)
    if args.workload is None:
        parser.error("--workload is required")
    return report(measure(mods, args.workload, args.seed, args.seconds, bool(args.trace)))


if __name__ == "__main__":
    sys.exit(main())
