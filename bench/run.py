"""The nvtorus benchmark: seeded workloads through the public library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  The run generates the workload's inputs from the seed (spec files
under ``.bench_work/``), then runs passes over them until S seconds of op
time are measured.  Each pass is a fresh interpreter that meets every input
once (see ``worker.py``).  Every output is checked; a failed check or a
raised error counts as a failed op.

With ``--trace 0`` the last line reports the end-to-end metrics; set-up time
is the median wall time of importing ``nvtorus.cli`` in fresh interpreters.
With ``--trace 1`` half of the time runs untraced and half traced, and the
last line reports per-stage self times from the traced passes, with the
tracing overhead.  Earlier lines carry run metadata and input descriptors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Import probes run two at a time between passes, up to SETUP_PROBES, so that
# they sample the machine over the run rather than in one burst; a run with
# few passes tops them up at its end.
SETUP_PROBES = 20
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import nvtorus.cli; "
    "print(time.perf_counter() - t)"
)
# No pass starts that would likely end later than this after the run began,
# so a run ends in time even when the library gets much slower.
WALL_CAP_S = 140.0
PASS_TIMEOUT_S = 150.0

STAGE_METRICS = {
    "specio.load_morphism": "specio.load_morphism.ms",
    "morphisms.validate": "morphisms.validate.ms",
    "morphisms.decompose": "morphisms.decompose.ms",
    "morphisms.index_orbits": "morphisms.index_orbits.ms",
    "morphisms.linear_part": "morphisms.linear_part.ms",
    "affine.check_necessary.affine": "affine.check_necessary.affine_ms",
    "affine.check_necessary.not_affine": "affine.check_necessary.not_affine_ms",
    "affine.affine_data": "affine.affine_data.ms",
    "affine.diagnose_realization": "affine.diagnose_realization.ms",
    "affine.torsion_witness": "affine.torsion_witness.ms",
    "nielsen.nielsen_of_morphism": "nielsen.nielsen_of_morphism.ms",
    "nielsen.count_fixed_points": "nielsen.count_fixed_points.ms",
    "constructions.build": "constructions.build.ms",
    "constructions.epsilon_perturbation": "constructions.epsilon_perturbation.ms",
    "constructions.verify": "constructions.verify.ms",
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_seconds():
    """Seconds to import nvtorus.cli in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip())


def write_pass_file(manifest, workdir):
    def with_path(item, name):
        item = dict(item)
        if "spec" in item["input"]:
            path = workdir / f"{name}.json"
            path.write_text(item["input"]["spec"])
            item["path"] = str(path)
        return item

    items = [with_path(it, f"spec-{it['id']:03d}") for it in manifest["items"]]
    warmup = with_path({"id": -1, "input": manifest["warmup"]}, "warmup")
    pass_file = workdir / "pass.json"
    pass_file.write_text(json.dumps({"workload": manifest["workload"], "items": items,
                                     "warmup": warmup}))
    return pass_file


def run_passes(pass_file, workdir, budget_s, trace, deadline, after_pass=None):
    """Fresh-interpreter passes until budget_s of op time is measured, or
    until the next pass would likely end after ``deadline``."""
    results, measured, longest = [], 0.0, 0.0
    while not results or (measured < budget_s and time.monotonic() + longest < deadline):
        if results and after_pass:
            after_pass()
        began = time.monotonic()
        result_file = workdir / f"result-{len(results)}-{int(trace)}.json"
        command = [sys.executable, str(BENCH / "worker.py"), str(pass_file), str(result_file)]
        subprocess.run(command + (["--trace"] if trace else []), env=child_env(), cwd=ROOT,
                       timeout=PASS_TIMEOUT_S, check=True)
        result = json.loads(result_file.read_text())
        results.append(result)
        measured += pass_ms(result) / 1000.0
        longest = max(longest, time.monotonic() - began)
    return results


def pass_ms(result):
    return sum(ms for _, ms, _ in result["ops"])


def end_to_end(results, setup_s):
    latencies = [ms for r in results for _, ms, _ in r["ops"]]
    failed = sum(1 for r in results for _, _, error in r["ops"] if error)
    attempted = len(latencies)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (attempted / (sum(latencies) / 1000.0), "1/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_p90_ms": (statistics.quantiles(latencies, n=10)[8], "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in results) / 1024.0, "MB"),
    }


def per_layer(traced, untraced):
    """Mean self time per op of each stage, over the ops that run it."""
    total_ns = {name: 0 for name in STAGE_METRICS}
    ops_with = {name: set() for name in STAGE_METRICS}
    verify_ns = 0
    for result in traced:
        spans = result["spans"]
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_ns[parent] += end - start
        for (name, start, end, _, op), covered in zip(spans, child_ns):
            if name in total_ns:
                total_ns[name] += end - start - covered
                ops_with[name].add((id(result), op))
            if name == "constructions.verify":
                verify_ns += end - start - covered
    metrics = {
        STAGE_METRICS[name]: (total_ns[name] / 1e6 / len(ops_with[name]) if ops_with[name] else 0.0, "ms")
        for name in STAGE_METRICS
    }
    samples = sum(r["samples"] for r in traced)
    metrics["constructions.verify.samples_per_s"] = (samples / (verify_ns / 1e9) if verify_ns else 0.0, "1/s")
    metrics["nielsen.count_fixed_points.points"] = (traced[0]["points"], "count")
    metrics["constructions.verify.samples"] = (traced[0]["samples"], "count")
    overhead = statistics.median(map(pass_ms, traced)) / statistics.median(map(pass_ms, untraced)) - 1
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def commit_id():
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "nvtorus").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nvtorus" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'nvtorus'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    started = time.monotonic()
    deadline = started + WALL_CAP_S
    import_seconds()  # the first import also writes the bytecode caches
    probes = []

    def probe_twice():
        if len(probes) < SETUP_PROBES:
            probes.extend(import_seconds() for _ in range(2))

    manifest = gen.build(args.workload, args.seed)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pass_file = write_pass_file(manifest, workdir)
        if args.trace:
            untraced = run_passes(pass_file, workdir, args.seconds / 2, False, deadline)
            traced = run_passes(pass_file, workdir, args.seconds / 2, True, deadline)
        else:
            untraced = run_passes(pass_file, workdir, args.seconds, False, deadline, probe_twice)
            traced = []
            while len(probes) < SETUP_PROBES:
                probes.append(import_seconds())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = untraced + traced
    if args.trace:
        metrics = per_layer(traced, untraced)
        trace_file = WORK / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                                          "passes": [r["spans"] for r in traced]}))
    else:
        metrics = end_to_end(untraced, statistics.median(probes))
    attempted = sum(len(r["ops"]) for r in runs)
    failed = sum(1 for r in runs for _, _, error in r["ops"] if error)
    digests = sorted({r["output_digest"] for r in runs})
    errors = sorted({error for r in runs for _, _, error in r["ops"] if error})
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": runs[0]["numpy"],
        "nproc": os.cpu_count(),
        "commit": commit_id(),
        "source_sha256": source_digest(),
        "input_digest": manifest["input_digest"],
        "output_digest": digests[0] if len(digests) == 1 else digests,
        "descriptors": manifest["descriptors"],
        "items": len(manifest["items"]),
        "passes": len(untraced) + len(traced),
        "latency_samples": sum(len(r["ops"]) for r in untraced),
        "fail_ratio": failed / attempted,
        "errors": errors[:5],
        "wall_s": round(time.monotonic() - started, 3),
    }
    print(json.dumps({"meta": meta}))
    for error in errors[:5]:
        print(f"failed op: {error}", file=sys.stderr)
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
