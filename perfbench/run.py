"""End-to-end benchmark of the AutoMDT reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train --seed 1 --seconds 24 --trace 0

Workloads: ``train``, ``population``, ``deploy``, ``fleet`` (see
``perfbench/README.md`` for why each exists).  One run is one fresh process:

1. set-up, ``SETUP_REPEATS`` times each: a fresh interpreter importing the
   program, then seeded input generation (plus the production policy's
   training for ``deploy``); ``setup_s`` is the median import plus the
   median set-up;
2. the timed phase: whole passes of the workload until ``--seconds`` is used
   up.  With ``--trace 1`` the first half runs untraced and the second half
   under the layer tracer (:mod:`spans`), which also gives the tracing
   overhead;
3. output checks: every pass's checks hold, every pass of the run has the same
   fingerprint (traced and untraced alike), set-up repeats generated the same
   inputs, and the tracer's wrappers were removed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``); the line before it
holds the detail metrics, the fingerprint and the run environment.  Spans
and results are also written under ``.perfbench/`` in the repository root.
Exit status: 0 when every check holds, 1 when one fails, 2 when the
repository's ``src/repro`` package is missing.
"""

from __future__ import annotations

import os
import sys
import time

BLAS_THREADS = 1  # one BLAS thread: steadier timings, within nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

from stats import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
WORKLOADS = ("train", "population", "deploy", "fleet")
#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "quality_frac": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    """What the numbers were measured on."""
    import numpy

    head = ROOT / ".git" / "HEAD"
    revision = "unavailable"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            revision = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            revision = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
    }


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing the benchmarked program."""
    probe = "import sys; sys.path[:0] = sys.argv[1:]; import workloads"
    times = []
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", probe, str(HERE), str(ROOT / "src")], check=True, timeout=120
        )
        times.append(time.perf_counter() - begin)
    return median(times)


def timed_passes(workload, ctxs, budget: float, scratch: Path, tracer=None):
    """Whole passes until ``budget`` seconds are used (at least one)."""
    walls, results = [], []
    started = time.perf_counter()
    while True:
        pass_dir = scratch / f"pass{len(walls)}"
        gc.collect()
        begin = time.perf_counter()
        result = workload.run_pass(ctxs, pass_dir)
        walls.append(time.perf_counter() - begin)
        results.append(result)
        if tracer is not None:
            tracer.close_counters()
        shutil.rmtree(pass_dir, ignore_errors=True)
        if time.perf_counter() - started + median(walls) > budget:
            return walls, results


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}; nothing to benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    workload = workloads.REGISTRY[args.workload]
    import_s = import_seconds()

    problems = []
    setup_times, digests = [], []
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        inputs = workload.make_inputs(args.seed)
        ctxs = workload.setup(inputs)
        setup_times.append(time.perf_counter() - begin)
        digests.append(workloads.inputs_digest(inputs))
    if len(set(digests)) != 1:
        problems.append("inputs: one seed generated different inputs")

    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / f"scratch-{args.workload}-{os.getpid()}"
    tracer = None
    try:
        plain_budget = args.seconds / 2 if args.trace else args.seconds
        walls, results = timed_passes(workload, ctxs, plain_budget, scratch / "plain")
        traced_walls, traced = [], []
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced_walls, traced = timed_passes(
                    workload, ctxs, args.seconds / 2, scratch / "traced", tracer
                )
            finally:
                tracer.restore()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    everything = results + traced
    for result in everything:
        problems.extend(result.problems)
    fingerprints = {r.fingerprint for r in everything}
    if len(fingerprints) != 1:
        problems.append("fingerprint: passes of one run disagree (traced vs untraced or repeat)")
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    if problems and not failed:
        failed = attempted

    wall = median(walls)
    if args.trace:
        per_pass = sum(traced_walls) / len(traced_walls)
        layer = spans.layer_metrics(
            tracer.spans, sum(traced_walls), len(traced_walls), tracer.counts
        )
        layer["trace.wall_s"] = (per_pass, "s")
        layer["trace.overhead_frac"] = (median(traced_walls) / wall - 1.0, "ratio")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
    else:
        values = {
            "setup_s": import_s + median(setup_times),
            "wall_s": wall,
            "throughput_per_s": results[0].work / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "quality_frac": results[0].quality,
        }
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "work_unit": workload.work_unit,
        "passes": len(walls),
        "traced_passes": len(traced_walls),
        "pass_walls_s": walls,
        "traced_pass_walls_s": traced_walls,
        "setup_repeats_s": setup_times,
        "import_s": import_s,
        "details": workloads.detail_metrics(args.workload, results, walls),
        "fingerprint": results[0].fingerprint,
        "inputs_sha256": digests[0],
        "problems": problems[:20],
        "env": environment(),
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(dict(record, result=result), indent=1))
    if tracer is not None:
        with open(OUT_DIR / f"spans-{stem}.jsonl", "w") as fh:
            for name, start, end, parent in tracer.spans:
                fh.write(f'["{name}",{start!r},{end!r},{parent}]\n')
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
