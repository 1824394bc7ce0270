#!/usr/bin/env python3
"""Record the probe outputs that every benchmark run is checked against.

    python3 perfbench/record_references.py

Runs each workload's probe on its pinned inputs and writes
perfbench/references.json. Re-record only when a change is meant to alter
seeded outputs, and say why in CHANGES.md.
"""

import json
import shutil
import sys

import run


def main() -> int:
    run.pin_blas_threads()
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads as W

    work = run.HERE / "work" / "references"
    try:
        refs = {name: W.make(name, run.REF_SEED, work / name, probe=True).probe()
                for name in W.WORKLOADS}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bad = [name for name, probe in refs.items() if probe.get("ops_ok") is False]
    if bad:
        print(f"probe checks failed for {bad}; nothing written", file=sys.stderr)
        return 1
    (run.HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(json.dumps(refs, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
