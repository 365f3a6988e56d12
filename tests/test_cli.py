import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qr2m
from qr2m import cli, lincode, qr
from qr2m.cli import ConfigError, _json_text, main, parse_config_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def test_partition_command(capsys):
    code, data, _ = run_json(capsys, "partition", "7")
    assert code == 0
    assert data["schema_version"] == 1
    assert data["residues"] == [1, 2, 4]
    assert data["nonresidues"] == [3, 5, 6]


def test_partition_rejects_composite(capsys):
    code, _, err = run_cli(capsys, "partition", "15")
    assert code == 2
    assert "error" in err


def test_identities_command(capsys):
    code, data, _ = run_json(capsys, "identities", "17", "4")
    assert code == 0
    assert data["all_hold"] is True
    assert len(data["printed_divergences"]) == 1


def test_idempotents_command(capsys):
    code, data, _ = run_json(capsys, "idempotents", "7", "4")
    assert code == 0
    assert len(data["span"]) == 8
    assert [s["alpha"] for s in data["solutions"]] == [5, 5, 12, 12]
    assert data["conjugate_sum_classes"] == [7, 9]


def test_family_command(capsys):
    code, data, _ = run_json(capsys, "family", "7", "4")
    assert code == 0
    assert data["constructible"] is True
    assert data["case"] == "C12"
    assert data["log2_sizes"] == {"q": 12, "qprime": 16, "n": 12, "nprime": 16}


def test_family_command_not_constructible(capsys):
    code, data, _ = run_json(capsys, "family", "7", "5")
    assert code == 0
    assert data["constructible"] is False
    assert "no constructible" in data["reason"]


# sha256 over the exit code and stdout of `family P M` at every constructible
# point of the wide grid and at the three desk points that are not
# constructible, frozen while the family still held p-length idempotents
FAMILY_STDOUT_SHA256 = "e7eeda4e84e1de76266e6831a6162ee8ea8f59d0fc3a1b5a958be46db7cb3ad8"


def test_family_outputs_are_frozen(capsys, constructible_points):
    h = hashlib.sha256()
    for p, m in list(constructible_points) + [(7, 5), (17, 4), (23, 5)]:
        argv = ("family", str(p), str(m))
        code, out, _ = run_cli(capsys, *argv)
        h.update(f"{' '.join(argv)}\n{code}\n{out}".encode())
    assert h.hexdigest() == FAMILY_STDOUT_SHA256


def test_family_command_builds_no_code(capsys, monkeypatch, constructible_points):
    # log2_sizes come from the block sets, so printing a family needs no code
    def refuse(*args, **kwargs):
        raise AssertionError("family built a code")

    monkeypatch.setattr(qr, "code_from_divisor", refuse)
    for p, m in constructible_points:
        code, data, _ = run_json(capsys, "family", str(p), str(m))
        assert code == 0 and data["constructible"] is True, (p, m)


def test_weight_json(capsys):
    code, data, _ = run_json(
        capsys, "weight", "7", "3", "--code", "lift", "--exhaustive"
    )
    assert code == 0
    assert data["report"]["min_weight"] == 3
    assert data["report"]["enumerated"] is True


def test_weight_csv(capsys):
    code, out, _ = run_cli(
        capsys, "weight", "7", "4", "--code", "ones", "--exhaustive", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,m,code,log2_size,min_weight,exhaustive"
    assert lines[1] == "7,4,ones,4,7,true"


def test_weight_budget_exceeded(capsys):
    code, _, err = run_cli(
        capsys, "weight", "23", "4", "--code", "qprime", "--budget", "16", "--exhaustive"
    )
    assert code == 3
    assert "budget" in err


def test_weight_default_budget_is_exact(capsys):
    code, data, _ = run_json(capsys, "weight", "23", "4", "--code", "qprime")
    assert code == 0
    assert data["report"] == {
        "min_weight": 7,
        "min_weight_count": 253,
        "all_min_odd_like": True,
        "enumerated": True,
    }


def test_padic_command(capsys):
    code, data, _ = run_json(capsys, "padic", "23", "5")
    assert code == 0
    assert data["sign"] == 1
    assert data["inverse_equals_self"] is False
    assert data["targets"]["inv_p"]["value"] == 7
    assert data["targets"]["inv_p"]["template_matches"] is True


def test_lift_command(capsys):
    code, data, _ = run_json(capsys, "lift", "7", "2")
    assert code == 0
    assert data["f_q"] == [3, 1, 2, 1, 0, 0, 0]
    assert data["product_ok"] is True


def test_verify_with_expectation(capsys):
    code, data, err = run_json(
        capsys,
        "verify",
        "--config",
        "fixtures/desk.toml",
        "--expect",
        "fixtures/desk_errata.json",
    )
    assert code == 0, err
    assert data["schema_version"] == 1
    assert data["summary"]["failed"] == 0


def test_verify_expectation_mismatch(tmp_path, capsys):
    bogus = tmp_path / "expect.json"
    bogus.write_text(json.dumps({"schema_version": 1, "errata": []}))
    code, _, err = run_cli(
        capsys, "verify", "--config", "fixtures/desk.toml", "--expect", str(bogus)
    )
    assert code == 1
    assert "errata" in err


def test_verify_writes_output_file(tmp_path, capsys):
    cfg = tmp_path / "sweep.toml"
    out = tmp_path / "report.json"
    cfg.write_text(f"p_list = [7]\nm_list = [4]\noutput = {out}\n")
    code, stdout, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 0
    assert stdout == ""
    report = json.loads(out.read_text())
    assert report["summary"]["ok"] is True


@pytest.mark.parametrize("target", ["missing/dir/out.json", "."])
def test_unwritable_output_is_a_config_error(tmp_path, capsys, target):
    cfg = tmp_path / "sweep.toml"
    cfg.write_text(f"p_list = [7]\nm_list = [4]\noutput = {tmp_path / target}\n")
    code, _, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert "config error: cannot write output" in err


def test_unwritable_output_fails_before_the_sweep(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(cli, "run_verification", refuse)
    cfg = tmp_path / "sweep.toml"
    cfg.write_text(f"p_list = [7]\nm_list = [4]\noutput = {tmp_path / 'missing' / 'out.json'}\n")
    code, _, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert "config error: cannot write output" in err


def test_existing_output_is_kept_until_the_report_replaces_it(tmp_path, capsys):
    out = tmp_path / "report.json"
    # longer than the report, so a write without truncation would leave a tail
    old = "x" * 100_000
    out.write_text(old)
    for p, status in ((15, 2), (7, 0)):  # 15 is not prime: the sweep raises
        cfg = tmp_path / f"sweep{p}.toml"
        cfg.write_text(f"p_list = [{p}]\nm_list = [4]\noutput = {out}\n")
        code, _, _ = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == status
        if p == 15:
            assert out.read_text() == old
    assert json.loads(out.read_text())["summary"]["ok"] is True


def test_new_output_file_gets_the_mode_of_a_plain_open(tmp_path, capsys):
    cfg = tmp_path / "sweep.toml"
    out = tmp_path / "report.json"
    cfg.write_text(f"p_list = [7]\nm_list = [4]\noutput = {out}\n")
    code, _, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 0
    plain = tmp_path / "plain.json"
    with open(plain, "w"):
        pass
    assert out.stat().st_mode == plain.stat().st_mode


def test_non_object_expectation_is_a_config_error(tmp_path, capsys):
    listed = tmp_path / "expect.json"
    listed.write_text("[1, 2]")
    code, _, err = run_cli(
        capsys, "verify", "--config", "fixtures/desk.toml", "--expect", str(listed)
    )
    assert code == 2
    assert "config error" in err and "not a JSON object" in err


@pytest.mark.parametrize(
    "p,fragment",
    [(15, "not an odd prime"), (11, "not +-1 mod 8"), ((1 << 20) + 7, "exceeds the bound")],
)
def test_bad_p_list_entry_fails_before_any_file_is_made(tmp_path, capsys, p, fragment):
    cfg = tmp_path / "sweep.toml"
    out = tmp_path / "report.json"
    cfg.write_text(f"m_list = [4]\np_list = [7, {p}]\noutput = {out}\n")
    code, _, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert "config error: line 2: field p_list" in err and fragment in err
    assert not out.exists()


@pytest.mark.parametrize("text", [None, "{not json", "[1, 2]"])
def test_bad_expectation_fails_before_the_sweep(tmp_path, capsys, monkeypatch, text):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(cli, "run_verification", refuse)
    expect = tmp_path / "expect.json"
    if text is not None:
        expect.write_text(text)
    cfg = tmp_path / "sweep.toml"
    out = tmp_path / "report.json"
    cfg.write_text(f"p_list = [7]\nm_list = [4]\noutput = {out}\n")
    code, _, err = run_cli(
        capsys, "verify", "--config", str(cfg), "--expect", str(expect)
    )
    assert code == 2
    assert "config error" in err and "expectation file" in err
    assert not out.exists()


def test_bad_config_reports_line(tmp_path, capsys):
    cfg = tmp_path / "bad.toml"
    cfg.write_text("p_list = [7]\nwidth = 3\n")
    code, _, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert "line 2" in err and "width" in err


def test_missing_config_file(capsys):
    code, _, err = run_cli(capsys, "verify", "--config", "/nonexistent.toml")
    assert code == 2
    assert "config error" in err


def test_parse_config_text_variants():
    cfg = parse_config_text(
        "# sweep\np_list = 7, 17\nm_list = [4, 5]\nbudget = 256\nformat = \"csv\"\n"
    )
    assert cfg.p_list == (7, 17)
    assert cfg.m_list == (4, 5)
    assert cfg.budget == 256
    assert cfg.format == "csv"
    assert cfg.output == "-"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("p_list = [7]\n", "m_list"),
        ("p_list = [7]\nm_list = [3]\n", "outside 4..8"),
        ("p_list = [7]\nm_list = [4]\np_list = [17]\n", "duplicate"),
        ("p_list = seven\nm_list = [4]\n", "not an integer"),
        ("p_list = [7]\nm_list = []\n", "empty list"),
        ("p_list = [7]\nm_list = [4]\nbudget = -2\n", "positive"),
        ("p_list = [7]\nm_list = [4]\nformat = xml\n", "json or csv"),
        ("p_list [7]\n", "key = value"),
    ],
)
def test_parse_config_text_errors(text, fragment):
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert fragment in str(exc.value)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("m", ["0", "63"])
@pytest.mark.parametrize(
    "command,extra",
    [
        ("identities", ()),
        ("idempotents", ()),
        ("family", ()),
        ("weight", ("--code", "lift")),
        ("padic", ()),
        ("lift", ()),
    ],
)
def test_out_of_range_m_is_a_usage_error(capsys, command, extra, m):
    code, _, err = run_cli(capsys, command, "7", m, *extra)
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("m", ["0", "63"])
@pytest.mark.parametrize(
    "command,extra",
    [
        ("identities", ()),
        ("idempotents", ()),
        ("family", ()),
        ("weight", ("--code", "lift")),
        ("padic", ()),
        ("lift", ()),
    ],
)
def test_bad_m_is_rejected_before_work_on_p(command, extra, m):
    # at p = 10^9 + 7 any work on p before m is checked runs for minutes
    src = str(Path(qr2m.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "qr2m", command, "1000000007", m, *extra],
        capture_output=True,
        text=True,
        timeout=30,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("partition", "2305843009213693951"),
        ("partition", "1000000007"),
        ("lift", "2305843009213693951", "3"),
        ("lift", "1000000007", "3"),
    ],
)
def test_p_above_max_p_exits_2_at_once(argv):
    # past the bound, trial division of 2^61 - 1 runs for minutes and the
    # partition at 10^9 + 7 needs gigabytes, so the refusal must come first
    src = str(Path(qr2m.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "qr2m", *argv],
        capture_output=True,
        text=True,
        timeout=30,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "MAX_P" in proc.stderr
    assert "Traceback" not in proc.stderr


BOUNDARY_P = ("2", "9", "2305843009213693951")


@pytest.mark.parametrize(
    "argv",
    [("partition", p) for p in BOUNDARY_P]
    + [
        (command, p, m, *extra)
        for command, extra in [
            ("identities", ()),
            ("idempotents", ()),
            ("family", ()),
            ("weight", ("--code", "lift")),
            ("padic", ()),
            ("lift", ()),
        ]
        for p in BOUNDARY_P
        for m in ("0", "3", "63")
    ]
    + [("weight", "7", "4", "--code", "ones", "--budget", b) for b in ("-5", "0")],
    ids="-".join,
)
def test_boundary_p_and_m_exit_2(capsys, argv):
    # 2 is even, 9 composite and 2^61 - 1 above MAX_P; m = 0 and 63 are
    # out of range, and m = 3 is valid; a budget below 1 is a usage error,
    # as it is in the sweep file, not an exhausted budget
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [("padic", "7", "40"), ("family", "7", "62"), ("idempotents", "199", "62")],
)
def test_large_m_commands_finish(capsys, argv):
    code, data, _ = run_json(capsys, *argv)
    assert code == 0
    assert data["m"] == int(argv[2])


# sha256 of the stdout of large-p commands, frozen from the long-division
# lift (lift 10007 8 then took about 74 s; Newton division takes about 1 s)
LARGE_P_STDOUT_SHA256 = {
    ("lift", "1031", "8"): "f50c037b4a34cd101d0ea76e380054d69146ddf6a9ae4fd5a0d4bf933ea110fd",
    ("lift", "4007", "8"): "77b7c1ddb832568582a711973244cb50aa5c5839e7914ece1167773b10993a25",
    ("lift", "10007", "8"): "4cc6a3df17975a1f9c969b98e22b4adc5f11743fad1c8b0c4bfbc1113ee5cbeb",
    ("idempotents", "1031", "6"): "a6028278adbce6534a164425c20fef626109cd105aead1224f67f2149a82c7a6",
    ("identities", "10007", "8"): "ce7ba9d34affdbac8be1bfa0524a344de0310794d91357e12951724f54c4d531",
}


@pytest.mark.slow
def test_large_p_outputs_are_frozen(capsys):
    # a few seconds in all, so it runs only in CI's slow step (pytest -m slow)
    for argv, digest in LARGE_P_STDOUT_SHA256.items():
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_heaviest_lift_weight_reports(capsys):
    for p, count in ((31, 155), (23, 253)):
        code, data, _ = run_json(capsys, "weight", str(p), "1", "--code", "lift")
        assert code == 0
        assert data["report"] == {
            "min_weight": 7,
            "min_weight_count": count,
            "all_min_odd_like": True,
            "enumerated": True,
        }


WEIGHT_CALLS = (
    [
        ("weight", str(p), str(m), "--code", c)
        for p, m in ((7, 4), (17, 5), (23, 4), (31, 6))
        for c in ("q", "qprime", "n", "nprime")
    ]
    + [
        ("weight", str(p), str(m), "--code", "lift")
        for p in (7, 17, 23, 31)
        for m in (1, 2, 3, 4)
    ]
    + [
        ("weight", str(p), str(m), "--code", "ones")
        for p, m in ((7, 4), (17, 5), (23, 4), (31, 6))
    ]
    + [("weight", "41", "1", "--code", "lift", "--budget", "4194304")]
)
# sha256 over the exit code and stdout of every call above, frozen before
# min_weight walked the socle by a Gray code and shortened once per orbit
WEIGHT_CALLS_SHA256 = "afab54f0815f4159e74e86da67e60e5a4a99fa2065cb42c0e47fcec6e18d9adf"


def test_weight_reports_are_frozen(capsys):
    h = hashlib.sha256()
    for argv in WEIGHT_CALLS:
        code, out, _ = run_cli(capsys, *argv)
        h.update(f"{' '.join(argv)}\n{code}\n{out}".encode())
    assert h.hexdigest() == WEIGHT_CALLS_SHA256


# the points of the weight benchmark, as (code, p, m)
WEIGHT_BENCH_POINTS = (
    ("lift", 7, 3), ("lift", 7, 4), ("lift", 7, 5), ("lift", 17, 1),
    ("lift", 17, 2), ("lift", 23, 1), ("lift", 31, 1), ("q", 7, 4), ("n", 7, 4),
)


@pytest.mark.parametrize("name,p,m", WEIGHT_BENCH_POINTS)
def test_min_weight_intersects_only_for_the_socle(monkeypatch, name, p, m):
    # the shortened codes are sized by a projection, not built by intersect
    code = cli._resolve_weight_code(p, m, name)
    real = lincode.intersect
    calls = []

    def spy(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(lincode, "intersect", spy)
    lincode.min_weight(code)
    assert len(calls) == 1


@pytest.mark.parametrize("p", [7, 17, 23, 31, 41])
@pytest.mark.parametrize("m", [1, 4, 8])
def test_divisor_built_weight_codes_match_rotation_spans(p, m):
    lifted = qr.lifted_factors(p, m)
    assert qr.lifted_residue_code(p, m) == lincode.code_from_polynomial(lifted.f_q)
    _, _, h = qr.basis_vectors(p, m)
    ones = cli._resolve_weight_code(p, m, "ones")
    assert ones == lincode.code_from_polynomial(h)


@pytest.mark.parametrize("p", ("2", "9", "11", "2305843009213693951"))
def test_bad_p_for_the_ones_code_exits_2(capsys, p):
    # p is checked before the p-sized generator [1] * p is built
    code, _, err = run_cli(capsys, "weight", p, "4", "--code", "ones")
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err


json_scalars = (
    st.text()
    | st.integers(min_value=-(1 << 80), max_value=1 << 80)
    | st.booleans()
    | st.none()
)
json_trees = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(json_trees)
def test_report_writer_matches_indented_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_report_writer_escapes_like_json_dumps():
    obj = {"\u00e9\u4e2d\U0001f600": ['"quoted"', "back\\slash", "\x00\t\n\x1f\x7f"]}
    assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [1.5, {1, 2}, {1: "a"}, {"a": [0.0]}, {"a": {None: 1}}])
def test_report_writer_refuses_other_types(obj):
    with pytest.raises(TypeError):
        _json_text(obj)


def test_report_writer_leaves_no_reference_cycle():
    # a cycle would hold each report's text parts until the collector ran,
    # which raised the peak RSS of a verify sweep
    gc.collect()
    gc.disable()
    try:
        _json_text({"a": [{"b": 1, "c": (2, None)}], "d": []})
        assert gc.collect() == 0
    finally:
        gc.enable()
