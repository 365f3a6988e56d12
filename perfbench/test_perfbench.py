"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import qr2m.cli  # noqa: E402
import qr2m.lincode  # noqa: E402
import qr2m.qr  # noqa: E402
import qr2m.verify  # noqa: E402
from qr2m.errors import NoCaseApplies, NoValidK, OutOfFamilyRange  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for name in [*run.END_TO_END, *run.PER_LAYER, *workloads.WORKLOADS]:
        assert NAME.fullmatch(name), name


def test_workloads_keep_their_points():
    assert workloads.FAMILY == ((7, 4), (17, 5), (23, 4), (31, 6), (41, 4), (47, 5),
                                (71, 4), (73, 4), (79, 5), (127, 8))
    grid = {(p, m) for p in workloads.GRID_PRIMES for m in workloads.GRID_MS}
    assert len(grid) == 100 and len(workloads.CONSTRUCTIBLE) == 20
    assert set(workloads.FAMILY) <= set(workloads.CONSTRUCTIBLE)
    assert len(workloads.NONFAMILY_GRID) == 80
    assert set(workloads.NONFAMILY_GRID) | set(workloads.CONSTRUCTIBLE) == grid
    assert len(workloads.WEIGHT) == 9
    frozen = workloads.load_expected()["digests"]
    for workload in workloads.WORKLOADS:
        assert sorted(frozen[workload]) == sorted(workloads.points(workload))


class _Reached(Exception):
    pass


def test_family_points_build_and_nonfamily_points_skip(monkeypatch):
    # build_family looks up the lifted code only once a sub-case is viable,
    # so reaching it marks a constructible point without building any code.
    def reached(p, m):
        raise _Reached

    monkeypatch.setattr(qr2m.qr, "lifted_residue_code", reached)
    for p in workloads.GRID_PRIMES:
        for m in workloads.GRID_MS:
            try:
                qr2m.qr.build_family(p, m)
            except _Reached:
                assert (p, m) in workloads.CONSTRUCTIBLE
            except (OutOfFamilyRange, NoValidK, NoCaseApplies):
                assert (p, m) in workloads.NONFAMILY_GRID


CHEAP = {
    "family": ["7,4", "23,4", "17,5"],
    "nonfamily_grid": ["7,5", "17,4", "23,6", "41,7"],
    "weight": ["lift,7,3", "lift,17,1", "q,7,4", "n,7,4"],
}


def _digests(tmp_path) -> dict:
    out = {}
    for workload, keys in CHEAP.items():
        for key in keys:
            config = tmp_path / f"{key.replace(',', '_')}.toml"
            config.write_text(workloads.config_text(key) if workload != "weight" else "")
            _, rc, text, _ = worker._run_point(
                qr2m.cli, workloads.argv(workload, key, str(config)))
            assert rc == 0, (workload, key)
            out[workload, key] = workloads.digest(text)
    return out


def test_traced_outputs_equal_untraced(tmp_path):
    untraced = _digests(tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _digests(tmp_path)
    finally:
        tracer.uninstall()
    assert traced == untraced
    frozen = workloads.load_expected()["digests"]
    for (workload, key), value in traced.items():
        assert frozen[workload][key] == value
    stats = tracer.summary()
    # verify binds dual, intersect and canonical_form by name
    assert stats["lincode.dual.calls"] > 0
    assert stats["lincode.intersect.calls"] > 0
    assert stats["lincode.contains_code.calls"] > 0
    assert stats["lincode.canonical_form.rows_in"] >= stats["lincode.canonical_form.rows_out"] > 0


def test_tracer_patches_every_binding_and_restores_them():
    original = qr2m.lincode.dual
    tracer = Tracer()
    tracer.install()
    try:
        assert qr2m.verify.dual is qr2m.lincode.dual is not original
        assert qr2m.cli.build_family is qr2m.qr.build_family
        assert qr2m.cli.min_weight is qr2m.lincode.min_weight
    finally:
        tracer.uninstall()
    assert qr2m.verify.dual is qr2m.lincode.dual is original


def test_check_output_rejects_wrong_outputs():
    desk = workloads.load_desk_errata()
    good = {"summary": {"failed": 0}, "errata": [],
            "checks": [{"name": "family_construction", "status": "skip"}]}
    text = json.dumps(good)
    check = workloads.check_output
    assert check("nonfamily_grid", "7,5", 0, text, None, desk) is None
    assert check("nonfamily_grid", "7,5", 0, text, workloads.digest(text), desk) is None
    assert check("nonfamily_grid", "7,5", 0, text, "0" * 64, desk) is not None
    assert check("nonfamily_grid", "7,5", 1, text, None, desk) is not None
    assert check("family", "41,4", 0, text, None, desk) is not None
    failed = dict(good, summary={"failed": 1})
    assert check("nonfamily_grid", "7,5", 0, json.dumps(failed), None, desk) is not None
    built = dict(good, checks=[{"name": "family_case", "status": "pass"}])
    assert check("family", "41,4", 0, json.dumps(built), None, desk) is None
    assert check("family", "17,5", 0, json.dumps(built), None, desk) is not None
    weight = {"report": {"min_weight": 3, "enumerated": True}}
    assert check("weight", "lift,7,4", 0, json.dumps(weight), None, desk) is None
    assert check("weight", "q,7,4", 0, json.dumps(weight), None, desk) is not None


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "weight", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
