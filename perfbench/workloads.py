"""Benchmark workloads: the points each one runs and the checks on their output.

A point is one command through ``qr2m.cli.main``.  Verify points are keyed
``"p,m"`` and weight points ``"code,p,m"``.  Every output is compared with
the digest frozen in ``expected.json`` and, independently of that file, with
facts the output must show (a clean verify summary, a built or skipped
family, the desk errata catalog, known binary QR distances).
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"
DESK_ERRATA_PATH = ROOT / "fixtures" / "desk_errata.json"

WORKLOADS = ("family", "nonfamily_grid", "weight")

# The wide grid of the north star: every prime p < 200 with p = +-1 mod 8,
# at 4 <= m <= 8.
GRID_PRIMES = (7, 17, 23, 31, 41, 47, 71, 73, 79, 89, 97, 103, 113, 127, 137,
               151, 167, 191, 193, 199)
GRID_MS = (4, 5, 6, 7, 8)
CONSTRUCTIBLE = (
    (7, 4), (17, 5), (23, 4), (31, 6), (41, 4), (47, 5), (71, 4), (73, 4),
    (79, 5), (89, 4), (97, 6), (103, 4), (113, 5), (127, 8), (137, 4),
    (151, 4), (167, 4), (191, 7), (193, 7), (199, 4),
)

# Both case tags (C12, C21), m in {4, 5, 6, 8}, and the three constructible
# desk points, in about 12 s: the generic linear algebra is the hot path.
FAMILY = ((7, 4), (17, 5), (23, 4), (31, 6), (41, 4), (47, 5), (71, 4),
          (73, 4), (79, 5), (127, 8))
# No family is built here, so lincode is never called: the idempotent scan,
# ring_mul and the 2-adic checks carry the time.
NONFAMILY_GRID = tuple(
    (p, m) for p in GRID_PRIMES for m in GRID_MS if (p, m) not in CONSTRUCTIBLE
)
DESK_POINTS = ((7, 4), (17, 5), (23, 4))

# Minimum-weight enumeration, from 2^9 to 2^20 words.
WEIGHT = (("lift", 7, 3), ("lift", 7, 4), ("lift", 7, 5), ("lift", 17, 1),
          ("lift", 17, 2), ("lift", 23, 1), ("lift", 31, 1), ("q", 7, 4),
          ("n", 7, 4))
WEIGHT_BUDGET = 1 << 20
# The lift of a binary QR code has the binary code's minimum distance;
# q and n at p = 7 lift the even-like [7, 3, 4] subcode.
LIFT_DISTANCE = {7: 3, 17: 5, 23: 7, 31: 7}
EVEN_LIKE_DISTANCE = {7: 4}


def points(workload: str) -> list[str]:
    """Point keys of a workload, in definition order."""
    if workload == "family":
        return [f"{p},{m}" for p, m in FAMILY]
    if workload == "nonfamily_grid":
        return [f"{p},{m}" for p, m in NONFAMILY_GRID]
    if workload == "weight":
        return [f"{c},{p},{m}" for c, p, m in WEIGHT]
    raise ValueError(f"unknown workload {workload!r}")


def ordered_points(workload: str, seed: int) -> list[str]:
    """The workload's points in the order the seed gives."""
    keys = points(workload)
    random.Random(seed).shuffle(keys)
    return keys


def config_text(key: str) -> str:
    p, m = key.split(",")
    return f"p_list = [{p}]\nm_list = [{m}]\n"


def argv(workload: str, key: str, config_path: str | None) -> list[str]:
    """The CLI arguments for one point; verify points read config_path."""
    if workload == "weight":
        code, p, m = key.split(",")
        return ["weight", p, m, "--code", code, "--exhaustive",
                "--budget", str(WEIGHT_BUDGET)]
    return ["verify", "--config", config_path]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def load_desk_errata() -> list[dict]:
    with open(DESK_ERRATA_PATH, encoding="utf-8") as fh:
        return json.load(fh)["errata"]


def check_output(workload: str, key: str, rc, out: str, frozen: str | None,
                 desk_errata: list[dict]) -> str | None:
    """Why the output of one point is wrong, or None when it is right.

    ``frozen`` is the expected digest; None skips only the digest check.
    """
    if rc != 0:
        return f"exit code {rc}"
    if frozen is not None and digest(out) != frozen:
        return "output differs from the frozen digest"
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if workload == "weight":
        code, p, _ = key.split(",")
        table = LIFT_DISTANCE if code == "lift" else EVEN_LIKE_DISTANCE
        weight = report["report"]
        if not weight["enumerated"]:
            return "minimum weight was not enumerated"
        if weight["min_weight"] != table[int(p)]:
            return f"minimum weight {weight['min_weight']} is not {table[int(p)]}"
        return None
    if report["summary"]["failed"] != 0:
        return f"{report['summary']['failed']} failed checks"
    status = {row["name"]: row["status"] for row in report["checks"]}
    if workload == "family" and status.get("family_case") != "pass":
        return "no family was built"
    if workload == "nonfamily_grid" and status.get("family_construction") != "skip":
        return "the family construction was not skipped"
    p, m = (int(x) for x in key.split(","))
    if (p, m) in DESK_POINTS:
        want = [e for e in desk_errata if e["p"] == p and e["m"] in (m, None)]
        if report["errata"] != want:
            return "errata differ from fixtures/desk_errata.json"
    return None
