"""Record the reference outputs the correctness gate compares against.

    python3 perfbench/make_reference.py

Run from the repository root. It runs each canary (train losses, a
probability map, a tracker result on the check seed) and rewrites
perfbench/reference.json. The stored file is the oracle for later
commits, so regenerate it only when an output is meant to change.
"""

from __future__ import annotations

import json

from run import _import_package

if __name__ == "__main__":
    workloads = _import_package()
    reference = {name: workloads.canary_outputs(name) for name in workloads.CANARIES}
    lines = ",\n".join(f"{json.dumps(name)}: {json.dumps(out)}" for name, out in reference.items())
    workloads.REFERENCE_PATH.write_text("{\n" + lines + "\n}\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
