#!/usr/bin/env python3
"""stylerec benchmark: one seeded workload per process.

    python3 perfbench/run.py --workload train-a07 --seed 1 --seconds 35 --trace 0

Builds the workload's inputs from ``--seed``, times a closed loop of its
operations for about ``--seconds`` seconds, checks every output, and prints
one JSON object as the last line of standard output. ``--trace 0`` reports
the end-to-end metrics named in BENCHMARK.json; ``--trace 1`` runs the loop
three times, the middle one with per-layer wrappers installed, and reports
the per-layer metrics. A results file with the environment block, every
workload metric and the full layer table goes to ``perfbench/results/``.
See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REF_SEED = 0  # the pinned probe inputs that references.json was recorded on
# relative tolerances for probe values that may drift with float summation order
TOLERANCE = {"loss": 1e-3, "val_ndcg5": 0.1}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """Run BLAS single-threaded; returns the CPUs this process may use.

    One thread stays under any CPU count, and on a shared 2-CPU machine it
    measured about three times steadier than two threads. Must run before
    numpy is imported.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def environment(seed: int, nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stylerec").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": nproc,
        "cpu": platform.processor() or platform.machine(),
        "platform": platform.platform(),
        "seed": seed,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def timed_setup(wl, keys: set, at_least: int, at_most: int) -> list:
    """Set up ``at_least`` times, and up to ``at_most`` while under 1 s in total.

    ``keys`` collects what each set-up built. The timed loop runs after
    exactly one set-up: each repeat frees and reallocates the inputs, and
    after a few the allocator places the 5 MB embedding table of eval-20k
    where its full-catalog scoring runs twice as slow. The other samples
    are taken after the loop.
    """
    times = []
    while len(times) < at_least or (sum(times) < 1.0 and len(times) < at_most):
        t0 = time.perf_counter()
        keys.add(wl.setup())
        times.append(time.perf_counter() - t0)
    return times


def compare_probe(name: str, observed: dict, references: dict, checks) -> None:
    reference = references.get(name)
    if not checks.op(bool(reference), f"{name}: no reference recorded"):
        return
    for key, want in reference.items():
        got = observed.get(key)
        if key in TOLERANCE:
            ok = isinstance(got, float) and abs(got - want) <= TOLERANCE[key] * abs(want)
        else:
            ok = got == want
        checks.op(ok, f"{name}: probe {key} is {got!r}, reference {want!r}")


def layer_metrics(tracer, traced, untraced_ms) -> dict:
    """Per-layer numbers from the traced loop, plus coverage and overhead."""
    stats = tracer.stats
    out = {}
    for name, st in stats.items():
        out[f"{name}.calls"] = st.calls
        out[f"{name}.s"] = st.s
        out[f"{name}.self_s"] = st.self_s
    draws = stats["training.sample_negatives"]
    # every workload draws 100 negatives per evaluated session
    out["training.negsample.useful_frac"] = 100 * draws.calls / draws.extra if draws.calls else 0.0
    out["model.score.candidates"] = stats["model.score"].extra
    saves = stats["model.save_checkpoint"]
    out["model.checkpoint.bytes"] = saves.extra / saves.calls if saves.calls else 0.0
    if "train.epochs" in traced.extra:  # share of a mean training step, per step part
        step_s = traced.extra["train.step_ms.mean"] / 1000.0
        for name in ("training.training_loss", "tensor.backward", "training.Adam.step",
                     "training.l2_penalty"):
            out[f"{name}.share_of_step"] = stats[name].s / stats[name].calls / step_s
    out["trace.wall_s"] = traced.wall_s
    out["trace.coverage_pct"] = 100.0 * sum(st.self_s for st in stats.values()) / traced.wall_s
    out["trace.overhead_pct"] = 100.0 * (traced.primary_ms / untraced_ms - 1.0)
    return out


def run(args) -> dict:
    import workloads as W
    from spans import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    checks = W.Checks()
    try:
        wl = W.make(args.workload, args.seed, work / "run")
        keys = set()
        setup_s = timed_setup(wl, keys, 1, 1)
        wl.prepare_checks()
        gc.collect()
        report = {"setup_s_samples": setup_s}
        if args.trace:
            # untraced loops before and after the traced one, so that drift
            # in machine speed cancels out of the overhead estimate
            before = wl.segment(args.seconds / 3, checks)
            tracer = Tracer(W.TRACED, W.COUNTERS)
            with tracer.active():
                traced = wl.segment(args.seconds / 3, checks)
            after = wl.segment(args.seconds / 3, checks)
            tracer.check_counts(traced.expected_calls)
            values = layer_metrics(tracer, traced,
                                   statistics.fmean([before.primary_ms, after.primary_ms]))
            report["untraced"] = [before.extra, after.extra]
            segment = traced
        else:
            segment = wl.segment(args.seconds, checks)
            values = {
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "primary_ms": segment.primary_ms,
                "secondary_ms": segment.secondary_ms,
            }
        wl.finish_checks(checks)
        setup_s += timed_setup(wl, keys, 3, 8)
        checks.op(len(keys) == 1, "setup built different inputs from one seed")
        values["setup_s"] = statistics.median(setup_s)
        report["workload_metrics"] = segment.extra
        report["samples"] = segment.samples
        probe = W.make(args.workload, REF_SEED, work / "probe", probe=True).probe()
        references = json.loads((HERE / "references.json").read_text())
        compare_probe(args.workload, probe, references, checks)
        report["probe"] = probe
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    report["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in wanted}
    if args.trace:
        report["layers"] = values
    report["checks"] = {"attempted": checks.attempted, "failed": checks.failed,
                        "failed_frac": checks.failed / checks.attempted,
                        "failures": checks.notes}
    return report


def main(argv=None) -> int:
    nproc = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import stylerec from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from spans import LivenessError

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        report = run(args)
    except LivenessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed, nproc), **report}
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")

    env = report["environment"]
    print(f"# {args.workload} seed {args.seed}: python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']['name']} {env['blas']['version']}, nproc {nproc}, "
          f"threads {env['blas_thread_env']}")
    for name, metric in report["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for name, value in report["workload_metrics"].items():
        print(f"{name} {value:.6g}")
    layers = report.get("layers", {})
    for name in sorted(set(layers) - set(report["metrics"])):
        print(f"{name} {layers[name]:.6g}")
    c = report["checks"]
    print(f"failed_frac {c['failed_frac']:.6g} ({c['failed']} of {c['attempted']} operations)")
    for note in c["failures"]:
        print(f"FAILED: {note}")
    print(f"# results: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": c["failed"] == 0, "attempted": c["attempted"],
                      "failed": c["failed"], "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
