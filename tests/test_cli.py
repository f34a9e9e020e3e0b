"""The command-line interface."""

import pytest

from repro.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_table2(capsys):
    code, out = run(capsys, "table2")
    assert code == 0
    assert "1041" in out and "2612" in out and "C = 5" in out


def test_table3(capsys):
    code, out = run(capsys, "table3")
    assert code == 0
    assert "1125" in out and "3254" in out


def test_table_with_custom_disks(capsys):
    code, out = run(capsys, "table2", "--disks", "1000")
    assert code == 0
    assert "D = 1000" in out


def test_ksweep(capsys):
    code, out = run(capsys, "ksweep")
    assert code == 0
    assert "MPEG-2" in out and "14.78" in out


def test_fig9(capsys):
    code, out = run(capsys, "fig9")
    assert code == 0
    assert "Figure 9(a)" in out and "Figure 9(b)" in out


def test_reliability(capsys):
    code, out = run(capsys, "reliability", "--disks", "1000",
                    "--group-size", "10")
    assert code == 0
    assert "1,141.6" in out  # the Section 2 in-text claim (~1100 years)
    assert "540.7" in out    # the Section 4 in-text claim (~540 years)


def test_simulate_normal(capsys):
    code, out = run(capsys, "simulate", "--scheme", "SR",
                    "--cycles", "10")
    assert code == 0
    assert "payload mismatches: 0" in out
    assert "0 hiccups" in out


def test_simulate_with_failure(capsys):
    code, out = run(capsys, "simulate", "--scheme", "SR", "--disks", "10",
                    "--fail-disk", "0", "--fail-cycle", "1",
                    "--cycles", "10")
    assert code == 0
    assert "disk 0 failed" in out
    assert "payload mismatches: 0" in out


def test_simulate_nc_lowercase_scheme(capsys):
    code, out = run(capsys, "simulate", "--scheme", "nc", "--cycles", "12")
    assert code == 0
    assert "Non-clustered" in out


def test_simulate_with_repair(capsys):
    code, out = run(capsys, "simulate", "--scheme", "NC", "--disks", "10",
                    "--fail-disk", "0", "--fail-cycle", "2",
                    "--repair-cycle", "6", "--cycles", "15")
    assert code == 0
    assert "disk 0 repaired" in out


def test_simulate_fast_forward_prints_the_scalar_report(capsys):
    # The failure window forces reconstructions, so the fast run must
    # land both scripted events on their cycles to match.
    argv = ["simulate", "--scheme", "NC", "--disks", "10", "--streams",
            "8", "--fail-disk", "1", "--fail-cycle", "4",
            "--repair-cycle", "20", "--cycles", "30", "--metadata-only"]
    scalar = run(capsys, *argv)
    fast = run(capsys, *argv, "--fast-forward")
    assert fast == scalar
    assert "[cycle 4] disk 1 failed" in scalar[1]
    assert "[cycle 20] disk 1 repaired" in scalar[1]


def test_rebuild(capsys):
    code, out = run(capsys, "rebuild")
    assert code == 0
    assert "tape reload" in out and "speedup" in out


def test_design_recommends_nc_at_1200(capsys):
    code, out = run(capsys, "design", "--streams", "1200")
    assert code == 0
    assert "Non-clustered" in out


def test_design_recommends_ib_at_1500(capsys):
    code, out = run(capsys, "design", "--streams", "1500")
    assert code == 0
    assert "Improved BW" in out and "C=2" in out


def test_design_infeasible_exits_nonzero(capsys):
    code, out = run(capsys, "design", "--streams", "99999")
    assert code == 1
    assert "no feasible design" in out


def test_scale_prints_section1_numbers(capsys):
    code, out = run(capsys, "scale")
    assert code == 0
    assert "329 MPEG-2 movies" in out
    assert "21,333 MPEG-1 users" in out


def test_verify_passes_all_checks(capsys):
    code, out = run(capsys, "verify")
    assert code == 0
    assert "9/9 checks passed" in out
    assert "FAIL" not in out


def test_experiments_all_ok(capsys):
    code, out = run(capsys, "experiments")
    assert code == 0
    assert out.count("[ok]") == 7
    assert "MISMATCH" not in out


def test_experiments_single_with_json(capsys):
    code, out = run(capsys, "experiments", "table2", "--json")
    assert code == 0
    assert '"streams": 1041' in out


def test_experiments_unknown_name(capsys):
    code, out = run(capsys, "experiments", "nope")
    assert code == 2
    assert "unknown experiment" in out


def test_cluster_prints_summary(capsys):
    code, out = run(capsys, "cluster", "--shards", "2", "--disks", "20",
                    "--cycles", "20", "--seed", "7")
    assert code == 0
    assert "2 shards x 20 disks" in out
    assert "shard 0:" in out and "shard 1:" in out
    assert "digest" in out


def test_cluster_json_shape(capsys):
    import json
    code, out = run(capsys, "cluster", "--shards", "2", "--disks", "20",
                    "--cycles", "20", "--seed", "7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"shards", "workers", "admitted", "rejected",
                            "unarrived", "capacity", "hiccups", "digest",
                            "ff_disengagements", "per_shard"}
    assert payload["shards"] == 2
    assert len(payload["per_shard"]) == 2
    assert (payload["admitted"] + payload["rejected"]
            == sum(s["routed"] for s in payload["per_shard"]))
    assert all("ff_engaged_cycles" in s and "ff_disengagements" in s
               for s in payload["per_shard"])


def test_chaos_runs_print_the_same_at_any_worker_count(capsys):
    argv = ("chaos", "--runs", "2", "--cycles", "12")
    code, serial = run(capsys, *argv, "--workers", "1")
    assert code == 0
    assert serial.endswith("10/10 campaigns clean\n")
    _, pooled = run(capsys, *argv, "--workers", "2")
    assert pooled == serial


def test_chaos_single_run_uses_the_given_seed(capsys):
    code, out = run(capsys, "chaos", "--runs", "1", "--seed", "7",
                    "--cycles", "12", "--scheme", "SR")
    assert code == 0
    assert "seed 7," in out
    assert out.endswith("1/1 campaigns clean\n")


def test_cluster_chaos_gate(capsys):
    import json
    code, out = run(capsys, "cluster", "--shards", "2", "--disks", "20",
                    "--cycles", "20", "--seed", "7", "--fast-forward",
                    "--workers", "2", "--chaos", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["chaos"]["deterministic"] is True
    assert payload["chaos"]["events"] > 0
    assert payload["chaos"]["violations"] == []


def test_cluster_chaos_prints_verdict(capsys):
    code, out = run(capsys, "cluster", "--shards", "2", "--disks", "20",
                    "--cycles", "20", "--seed", "7", "--chaos")
    assert code == 0
    assert "chaos:" in out and "deterministic" in out


def test_cluster_workers_do_not_change_digest(capsys):
    import json
    _, serial = run(capsys, "cluster", "--shards", "2", "--disks", "20",
                    "--cycles", "20", "--seed", "7", "--fast-forward",
                    "--json")
    _, pooled = run(capsys, "cluster", "--shards", "2", "--disks", "20",
                    "--cycles", "20", "--seed", "7", "--fast-forward",
                    "--workers", "2", "--json")
    assert json.loads(serial)["digest"] == json.loads(pooled)["digest"]


def test_cluster_replication_and_fast_forward_flags(capsys):
    code, out = run(capsys, "cluster", "--shards", "2", "--disks", "20",
                    "--cycles", "20", "--scheme", "PD",
                    "--replicate-top-k", "2", "--fast-forward")
    assert code == 0
    assert "PD: 2 shards" in out


def test_cluster_rejects_bad_shards(capsys):
    with pytest.raises(ValueError):
        run(capsys, "cluster", "--shards", "0")


def test_unknown_scheme_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "--scheme", "XY"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])
