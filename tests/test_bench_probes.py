"""The benchmark's probes as tests: each gated workload's small pinned run,
compared with ``perfbench/references.json`` by the benchmark's own
``compare_probe``, so the tolerances are the gate's. A change that moves a
probe output fails here before the benchmark reports it. The tracer's liveness
counts, which ``run.py --trace 1`` checks, are checked here too, at probe size.

``train-long`` is left out: its recorded loss is stale (ROADMAP). The
references were recorded at one BLAS thread, and the probes run in-process
under ``threads.one_blas_thread``.
"""

import json
import sys
from pathlib import Path

import pytest

from stylerec import threads

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PROBED = ("train-a07", "eval-20k", "ingest")


def probe_checks() -> dict:
    """Run every probe of ``PROBED`` in the working directory; the checks made
    and the notes of those that failed."""
    sys.path.insert(0, str(PERFBENCH))
    import run
    import workloads

    references = json.loads((PERFBENCH / "references.json").read_text(encoding="utf-8"))
    checks = workloads.Checks()
    for name in PROBED:
        probe = workloads.make(name, run.REF_SEED, Path.cwd() / name, probe=True).probe()
        run.compare_probe(name, probe, references, checks)
    return {"attempted": checks.attempted, "failures": checks.notes}


def test_probes_match_references(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))  # probe_checks adds perfbench/
    with threads.one_blas_thread():
        assert threads._blas_thread_calls() is not None  # the count is owned
        got = probe_checks()
    assert got["failures"] == []
    assert got["attempted"] >= len(PROBED)


@pytest.mark.parametrize("name", PROBED)
def test_traced_call_counts_are_exact(tmp_path, monkeypatch, name):
    """The liveness counts ``run.py --trace 1`` checks, at probe size: one untraced
    segment first, as that run makes (ingest's first round saves its style cache once
    more, to check that it reloads), then one under the tracer, whose call counts must
    be the ones the segment expects, with no failed check."""
    monkeypatch.setattr(sys, "path", [str(PERFBENCH), *sys.path])
    import spans
    import workloads

    checks = workloads.Checks()
    with threads.one_blas_thread():
        wl = workloads.make(name, 1, tmp_path / name, probe=True)
        wl.setup()
        wl.prepare_checks()
        wl.segment(0.0, checks)  # a zero budget runs each workload's minimum of units
        tracer = spans.Tracer(workloads.TRACED, workloads.COUNTERS)
        with tracer.active():
            segment = wl.segment(0.0, checks)
        tracer.check_counts(segment.expected_calls)  # a LivenessError names each count off
        wl.finish_checks(checks)
    assert checks.failed == 0, checks.notes


def test_every_traced_function_exists(monkeypatch):
    """The benchmark's tracer installs over every name it traces and uninstalls: a traced
    function renamed or folded away fails here, not only in a ``--trace`` run."""
    monkeypatch.setattr(sys, "path", [str(PERFBENCH), *sys.path])
    import spans
    import workloads

    tracer = spans.Tracer(workloads.TRACED, workloads.COUNTERS)
    with tracer.active():  # a LivenessError names a traced function that no longer exists
        assert len(tracer._undo) >= len(workloads.TRACED)
    assert not tracer._undo
