"""Freeze the expected output digest of every workload point into expected.json.

    python3 perfbench/freeze.py

Run it only on the commit whose outputs define "correct"; the digests were
taken at the commit that introduced the benchmark.  Every point must first
pass the checks that do not depend on the digests.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
                         text=True, timeout=10).stdout.strip()
    digests = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--seed", "0", "--unfrozen"],
            capture_output=True, text=True, timeout=600, check=True)
        points = json.loads(proc.stdout.splitlines()[-1])["points"]
        errors = [f"{p['key']}: {p['error']}" for p in points if p["error"]]
        if errors:
            print("\n".join(errors), file=sys.stderr)
            return 1
        digests[workload] = {p["key"]: p["digest"] for p in sorted(points, key=lambda p: p["key"])}
    text = json.dumps({"source_commit": sha, "digests": digests}, indent=2, sort_keys=True)
    workloads.EXPECTED_PATH.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
