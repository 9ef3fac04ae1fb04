import json
from pathlib import Path

import pytest

from ncbieberbach.cli import main


def run_json(capsys, *argv):
    code = main(list(argv) + ["--format", "json"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


def test_ktheory_json_payload(capsys):
    code, report = run_json(capsys, "ktheory", "B6")
    assert code == 0
    assert report["payload"]["K0"] == {"rank": 2, "torsion": []}
    assert report["payload"]["K1"] == {"rank": 2, "torsion": []}
    assert report["schema"] == "nbk-report/1"
    assert {r["status"] for r in report["results"]} == {"pass"}


def test_ktheory_epsilon_variants_agree(capsys):
    _, plus = run_json(capsys, "ktheory", "B2", "--epsilon", "+1")
    _, minus = run_json(capsys, "ktheory", "B2", "--epsilon", "-1")
    assert plus["payload"]["K0"] == minus["payload"]["K0"]
    assert plus["payload"]["K1"] == minus["payload"]["K1"]
    assert plus["payload"]["matrix"] != minus["payload"]["matrix"]


def test_ktheory_b3_groups(capsys):
    code, report = run_json(capsys, "ktheory", "B3")
    assert code == 0
    assert report["payload"]["K0"] == {"rank": 2, "torsion": [3]}
    snf = report["payload"]["snf_certificate"]
    assert snf["diagonal"].count(3) == 1


def test_scan_matching_family(capsys):
    code, report = run_json(capsys, "scan", "--family", "B2")
    assert code == 0
    assert report["payload"]["computed"] == report["payload"]["reference"]


def test_scan_subgrid(capsys):
    code, report = run_json(capsys, "scan", "--family", "B2", "--denominator", "2")
    assert code == 0


def test_scan_documented_mismatch_exits_nonzero(capsys):
    code, report = run_json(capsys, "scan", "--family", "N2")
    assert code == 1
    statuses = {r["name"]: r["status"] for r in report["results"]}
    assert statuses["matches-reference-table"] == "fail"
    assert any("not reproducible" in note for note in report["notes"])


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["scan", "--family", "B9"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["ktheory"])
    assert err.value.code == 2
    # sample sizes that would let a check pass after evaluating nothing
    for argv in (["verify", "--suite", "traces", "--samples", "0"],
                 ["verify", "--suite", "traces", "--samples", "-3"],
                 ["verify", "--suite", "morita", "--degree", "-1"],
                 ["verify", "--suite", "morita", "--degree", "0"],
                 # options a subcommand would not read
                 ["ktheory", "B3", "--theta", "1/5"],
                 ["ktheory", "B3", "--samples", "7"],
                 ["homology", "--samples", "7"],
                 ["scan", "--family", "B2", "--seed", "3"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


def test_verify_homology_suite(capsys):
    code, report = run_json(capsys, "verify", "--suite", "homology")
    assert code == 0
    assert all(r["status"] == "pass" for r in report["results"])


def test_verify_betastar_suite_anomalies_do_not_fail(capsys):
    code, report = run_json(capsys, "verify", "--suite", "betastar")
    assert code == 0
    statuses = {r["status"] for r in report["results"]}
    assert statuses == {"pass", "anomaly"}


def test_strict_mode_turns_anomalies_into_failures(capsys):
    code, _ = run_json(capsys, "verify", "--suite", "betastar", "--strict")
    assert code == 1


def test_report_byte_stability(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code = main(["verify", "--suite", "homology", "--seed", "5",
                     "--format", "json", "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, extra", [
    ("verify_all_seed11.json", []),
    ("verify_all_seed11_theta1-5.json", ["--theta", "1/5"]),
])
def test_verify_report_matches_golden(tmp_path, monkeypatch, name, extra):
    # the golden files pin the exact report bytes, anomaly reprs included
    monkeypatch.delenv("NBK_CYCLOTOMIC_ORDER", raising=False)
    path = tmp_path / name
    code = main(["verify", "--suite", "all", "--samples", "3", "--degree", "1", "--seed", "11",
                 "--format", "json", "--out", str(path), *extra])
    assert code == 0
    assert path.read_bytes() == (GOLDEN / name).read_bytes()


def test_markdown_rendering(capsys):
    code = main(["homology", "--family", "B4", "--format", "md"])
    out = capsys.readouterr().out
    assert code == 0
    assert "# nbk homology" in out
    assert "k0-equals-z-plus-h1[B4]" in out


def test_out_file_writing(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["ktheory", "B4", "--format", "json", "--out", str(path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(path.read_text())
    assert report["payload"]["K0"] == {"rank": 2, "torsion": [2]}


def test_cyclotomic_order_env_override(capsys, monkeypatch):
    monkeypatch.setenv("NBK_CYCLOTOMIC_ORDER", "48")
    code, report = run_json(capsys, "verify", "--suite", "homology")
    assert code == 0
    assert report["config"]["cyclotomic_order"] == 48


def test_folded_theta_verify(capsys):
    code, report = run_json(capsys, "verify", "--suite", "crossed", "--theta", "1/5")
    assert code == 0
    assert report["config"]["theta_mode"] == "1/5"
    assert report["config"]["cyclotomic_order"] == 120
