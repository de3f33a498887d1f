"""Write reference.json: every workload's outputs at DEFAULT_SEED, both sizes.

Run it only at a commit whose outputs are the reference (the benchmark's
reference rows were recorded at the seed commit of the library):

    python3 benchmark/record_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    run.pin_threads()
    sys.path.insert(0, str(run.SRC))
    import spinchain.cli  # noqa: F401
    import oracle
    out_dir = run.OUT / "record"
    record = {}
    try:
        for name, workload in WORKLOADS.items():
            record[name] = {}
            for size in ("smoke", "full"):
                outcome = run.run_table(workload, DEFAULT_SEED, out_dir, size == "smoke")
                if any(status != "ok" for _, _, status in outcome):
                    raise SystemExit(f"{name} ({size}) did not finish: {outcome}")
                record[name][size] = [oracle.reference_record(oracle.read_output(p))
                                      for _, p, _ in outcome]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    (run.HERE / "reference.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
