"""CLI behaviour: exit codes, JSON output, self-test, rule listing."""

from __future__ import annotations

import json

from repro.checks.cli import main


def _write(tmp_path, name: str, code: str) -> str:
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(code, encoding="utf-8")
    return str(target)


def test_clean_file_exits_zero(tmp_path, capsys) -> None:
    path = _write(tmp_path, "src/repro/workload/mod.py",
                  "X = 1\n")
    assert main([path]) == 0
    assert "clean" in capsys.readouterr().out


def test_findings_exit_one(tmp_path, capsys) -> None:
    path = _write(tmp_path, "src/repro/workload/mod.py",
                  "import random\n")
    assert main([path]) == 1
    out = capsys.readouterr().out
    assert "R1" in out and "1 finding(s)" in out


def test_json_output_is_machine_readable(tmp_path, capsys) -> None:
    path = _write(tmp_path, "src/repro/workload/mod.py",
                  "import random\n")
    assert main(["--format", "json", path]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["files_checked"] == 1
    (finding,) = payload["findings"]
    assert finding["rule_id"] == "R1"
    assert finding["line"] == 1
    assert finding["path"].endswith("mod.py")


def test_select_limits_rules(tmp_path, capsys) -> None:
    path = _write(tmp_path, "src/repro/workload/mod.py",
                  "import random\n")
    assert main(["--select", "units", path]) == 0
    capsys.readouterr()


def test_unknown_rule_is_usage_error(capsys) -> None:
    assert main(["--select", "R99", "src"]) == 2
    assert "r99" in capsys.readouterr().err.lower()


def test_syntax_error_is_usage_error(tmp_path, capsys) -> None:
    path = _write(tmp_path, "src/repro/workload/mod.py",
                  "def broken(:\n")
    assert main([path]) == 2
    assert "cannot analyze" in capsys.readouterr().err


def test_list_rules(capsys) -> None:
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("R1", "R2", "R3", "R4", "R5", "R6"):
        assert rule_id in out


def test_self_test(capsys) -> None:
    assert main(["--self-test"]) == 0
    assert "0 failure(s)" in capsys.readouterr().out


def test_self_test_json(capsys) -> None:
    assert main(["--self-test", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["failures"] == []


def test_json_output_is_byte_stable(tmp_path, capsys) -> None:
    # CI diffs consecutive runs; identical input must serialise to
    # identical bytes.
    path = _write(tmp_path, "src/repro/workload/mod.py",
                  "import random\nx = 1 == 1.0\n")
    main(["--format", "json", path])
    first = capsys.readouterr().out
    main(["--format", "json", path])
    second = capsys.readouterr().out
    assert first == second


def test_sarif_output_shape(tmp_path, capsys) -> None:
    path = _write(tmp_path, "src/repro/workload/mod.py",
                  "import random\n")
    assert main(["--format", "sarif", path]) == 1
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    (run,) = log["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro.checks"
    rule_ids = [rule["id"] for rule in driver["rules"]]
    assert rule_ids == sorted(rule_ids)
    (result,) = run["results"]
    assert result["ruleId"] == "R1"
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 1
    assert region["startColumn"] >= 1  # SARIF columns are 1-based
    assert driver["rules"][result["ruleIndex"]]["id"] == "R1"


def test_sarif_clean_run_has_no_results(tmp_path, capsys) -> None:
    path = _write(tmp_path, "src/repro/workload/mod.py", "X = 1\n")
    assert main(["--format", "sarif", path]) == 0
    log = json.loads(capsys.readouterr().out)
    assert log["runs"][0]["results"] == []


def test_module_entry_point() -> None:
    """``python -m repro.checks`` is wired up end to end."""
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "repro.checks", "--self-test"],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
