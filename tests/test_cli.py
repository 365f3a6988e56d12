import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qr2m
from qr2m.cli import ConfigError, main, parse_config_text


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


@pytest.mark.slow
def test_weight_reports_are_frozen(capsys):
    # about a second, so it runs only in CI's slow step (pytest -m slow)
    h = hashlib.sha256()
    for argv in WEIGHT_CALLS:
        code, out, _ = run_cli(capsys, *argv)
        h.update(f"{' '.join(argv)}\n{code}\n{out}".encode())
    assert h.hexdigest() == WEIGHT_CALLS_SHA256
