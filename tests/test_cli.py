import csv
import os
import re
from dataclasses import replace
from ipaddress import IPv4Address

import pytest

from geogossip.cli import main
from geogossip.scenario import (
    ChurnEvent,
    NodeSpec,
    four_node_demo,
    load_scenario,
    save_scenario,
)
from geogossip.wire import DiscoveryItem, encode


@pytest.fixture
def demo_path(tmp_path):
    path = tmp_path / "demo.scn"
    save_scenario(four_node_demo(), path)
    return str(path)


class TestGen:
    def test_writes_scenario(self, tmp_path, capsys):
        out = tmp_path / "scn.txt"
        rc = main(["gen", "--n", "25", "--region", "2000x2000",
                   "--radius", "100,400", "--seed", "7", "--out", str(out)])
        assert rc == 0
        assert "25 nodes" in capsys.readouterr().out
        sc = load_scenario(out)
        assert len(sc.nodes) == 25
        assert sc.rng_seed == 7

    def test_bad_count(self, tmp_path, capsys):
        rc = main(["gen", "--n", "0", "--out", str(tmp_path / "x.txt")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_region_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--n", "5", "--region", "abc", "--out", str(tmp_path / "x.txt")])
        assert exc.value.code == 2
        assert "region must look like" in capsys.readouterr().err

    def test_inverted_radius_range_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        rc = main(["gen", "--n", "5", "--radius", "5,1", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_unwritable_path(self, tmp_path, capsys):
        rc = main(["gen", "--n", "5", "--out", str(tmp_path / "no" / "dir" / "x.txt")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_output_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GEOGOSSIP_OUT", str(tmp_path))
        rc = main(["gen", "--n", "5", "--out", "rel.txt"])
        assert rc == 0
        assert (tmp_path / "rel.txt").exists()
        # the message names the path written, not the one given
        assert capsys.readouterr().out.startswith(f"wrote {tmp_path / 'rel.txt'}:")


@pytest.mark.parametrize("command", [
    ["gen", "--n", "5"], ["run", "--rounds", "2"], ["assign", "--rounds", "2"],
], ids=["gen", "run", "assign"])
def test_unwritable_output_under_env_var_names_the_resolved_path(
        command, demo_path, tmp_path, capsys, monkeypatch):
    base = tmp_path / "missing"
    monkeypatch.setenv("GEOGOSSIP_OUT", str(base))
    args = command[:1] + ([] if command[0] == "gen" else [demo_path]) + command[1:]
    rc = main(args + ["--out", "out.csv"])
    assert rc == 1
    assert f"cannot write {base / 'out.csv'}:" in capsys.readouterr().err


class TestRun:
    def test_metrics_and_report(self, demo_path, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        rc = main(["run", demo_path, "--rounds", "5", "--out", str(out),
                   "--threshold", "1.0"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "convergence round" in text
        assert "final mean recall: 1.000000" in text
        lines = out.read_text().splitlines()
        assert lines[0].startswith("round,mean_recall")
        assert len(lines) == 6

    def test_verbose_per_round(self, demo_path, tmp_path, capsys):
        rc = main(["run", demo_path, "--rounds", "2", "--out",
                   str(tmp_path / "m.csv"), "-v"])
        assert rc == 0
        assert "round 0:" in capsys.readouterr().out

    def test_missing_scenario(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "nope.scn"), "--out", str(tmp_path / "m.csv")])
        assert rc == 1
        assert "cannot read scenario" in capsys.readouterr().err

    def test_unwritable_out_exits_1(self, demo_path, tmp_path, capsys):
        rc = main(["run", demo_path, "--rounds", "2",
                   "--out", str(tmp_path / "no" / "dir" / "m.csv")])
        assert rc == 1
        assert "cannot write" in capsys.readouterr().err

    def test_seed_override_changes_nothing_for_same_seed(self, demo_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", demo_path, "--rounds", "5", "--out", str(a), "--seed", "3"]) == 0
        assert main(["run", demo_path, "--rounds", "5", "--out", str(b), "--seed", "3"]) == 0
        assert a.read_text() == b.read_text()


_ONE_NODE = "[nodes]\n1 0.0 0.0 5.0\n\n[seeds]\n1\n\n"
# valid alone, but round 19 stamps 1.9e19 ms, past a 64-bit timestamp
_LONG_PERIOD = "period_seconds = 1e15\n" + _ONE_NODE


@pytest.mark.parametrize("command", [
    ["run"], ["churn-run", "--rounds", "2"], ["assign", "--rounds", "2"],
], ids=["run", "churn-run", "assign"])
@pytest.mark.parametrize("text", [
    "period_seconds = abc\n", "c_rand = 0\n", "[nodes]\n1 95.0 0.0 100.0\n\n[seeds]\n1\n",
    _ONE_NODE + "[churn]\n-1 leave 1\n",
    _ONE_NODE + "[churn]\n0 leave 2\n",
    _ONE_NODE + "[churn]\n3 join 1 0.0 0.0 5.0\n",
    _ONE_NODE + "[churn]\n0 leave 1\n1 leave 1\n",
    _ONE_NODE + "[churn]\n2 leave 1 junk\n",
    "c_far = 3\npartner_strategy = oldest\nc_rand = 30\nsample_half = 15\nc_rank = 20\n"
    "p_far = 0.1\nrecent_rounds = 5\nstale_rounds = 10\n" + _ONE_NODE,
    _ONE_NODE + "1\n",
    _LONG_PERIOD,
], ids=["non-numeric", "removed-key-c-rand", "latitude-95", "churn-negative-round",
        "leave-of-non-member", "join-of-live-id", "double-leave", "churn-extra-field",
        "removed-param-keys", "repeated-seed", "period-past-64-bit-timestamps"])
def test_invalid_scenario_exits_2(command, text, tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text(text)
    rounds = ["--rounds", "20"] if text == _LONG_PERIOD else []  # the last --rounds counts
    rc = main([command[0], str(path), "--out", str(tmp_path / "out.csv")] + command[1:] + rounds)
    assert rc == 2
    err = capsys.readouterr().err
    assert "invalid scenario" in err
    if rounds:
        assert "--rounds 20" in err and "period_seconds = 1e+15" in err


@pytest.mark.parametrize("command", ["run", "churn-run", "assign"])
def test_long_period_runs_while_timestamps_fit(command, tmp_path):
    path = tmp_path / "long.scn"
    path.write_text(_LONG_PERIOD)
    assert main([command, str(path), "--out", str(tmp_path / "out.csv"), "--rounds", "19"]) == 0


@pytest.mark.parametrize("args", [
    ["run", "--threshold", "1.5"], ["run", "--threshold", "nan"], ["run", "--rounds", "-3"],
    ["churn-run", "--threshold", "0"], ["assign", "--channels", "0"], ["assign", "--rounds", "0"],
], ids=["threshold-over-one", "threshold-nan", "negative-rounds", "churn-run-threshold-zero",
        "zero-channels", "zero-rounds"])
def test_out_of_range_flag_exits_2_before_any_run(args, demo_path, tmp_path, capsys):
    out = tmp_path / "out.csv"
    rc = main([args[0], demo_path, "--out", str(out)] + args[1:])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {args[-2]} must be")
    assert not out.exists()


class TestChurnRun:
    @pytest.mark.parametrize("flags", [
        ["--radius", "-5"], ["--rate", "-0.5"], ["--rate", "1.5"], ["--region", "0x1000"],
    ], ids=["negative-radius", "negative-rate", "rate-over-one", "zero-width-region"])
    def test_schedule_that_cannot_be_added_exits_2(self, flags, demo_path, tmp_path, capsys):
        out = tmp_path / "m.csv"
        rc = main(["churn-run", demo_path, "--rounds", "2", "--rate", "0.25", "--radius", "100",
                   "--out", str(out)] + flags)
        assert rc == 2
        assert "cannot add churn" in capsys.readouterr().err
        assert not out.exists()

    def test_generated_joiners_skip_the_files_ids(self, tmp_path, capsys):
        # the file joins id 5 at round 0; the generated joiners take 6 on
        path = tmp_path / "scn.txt"
        churn = [ChurnEvent(0, "join", node=NodeSpec(5, 59.91, 10.75, 50.0))]
        save_scenario(replace(four_node_demo(), churn=churn), path)
        out = tmp_path / "m.csv"
        rc = main(["churn-run", str(path), "--rounds", "2", "--rate", "0.25",
                   "--radius", "100", "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        rows = out.read_text().splitlines()[1:]
        # five nodes after round 0's listed join, one generated join and one leave
        assert [row.split(",")[-1] for row in rows] == ["5", "5"]

    def test_runs_with_schedule(self, tmp_path, capsys):
        scn_path = tmp_path / "scn.txt"
        assert main(["gen", "--n", "40", "--region", "2000x2000",
                     "--radius", "100,400", "--seed", "1", "--out", str(scn_path)]) == 0
        capsys.readouterr()
        out = tmp_path / "m.csv"
        rc = main(["churn-run", str(scn_path), "--rounds", "10", "--rate", "0.05",
                   "--region", "2000x2000", "--radius", "100,400", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 11


class TestAssign:
    def test_assignment_csv(self, demo_path, tmp_path, capsys):
        out = tmp_path / "assign.csv"
        rc = main(["assign", demo_path, "--rounds", "5", "--channels", "3",
                   "--out", str(out)])
        assert rc == 0
        assert "assigned 4 nodes to 3 channels" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "node_id,channel,local_conflict_weight"
        assert len(lines) == 5

    def test_unwritable_out_exits_1(self, demo_path, tmp_path, capsys):
        rc = main(["assign", demo_path, "--rounds", "2",
                   "--out", str(tmp_path / "no" / "dir" / "a.csv")])
        assert rc == 1
        assert "cannot write" in capsys.readouterr().err

    def test_seed_override_runs_as_the_files_own_seed(self, demo_path, tmp_path, capsys):
        seeded = tmp_path / "seeded.scn"
        save_scenario(replace(four_node_demo(), rng_seed=3), seeded)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["assign", demo_path, "--rounds", "3", "--seed", "3", "--out", str(a)]) == 0
        first = capsys.readouterr().out
        assert main(["assign", str(seeded), "--rounds", "3", "--out", str(b)]) == 0
        assert capsys.readouterr().out == first
        assert a.read_text() == b.read_text()

    def test_conflict_weights_print_as_python_numbers(self, tmp_path, capsys):
        scn = tmp_path / "s.scn"
        assert main(["gen", "--n", "40", "--region", "1000x1000", "--radius", "100,400",
                     "--seed", "2", "--out", str(scn)]) == 0
        out = tmp_path / "assign.csv"
        assert main(["assign", str(scn), "--rounds", "5", "--channels", "1",
                     "--out", str(out)]) == 0
        assert re.search(r"total conflict weight [1-9]\d*\.\d\n", capsys.readouterr().out)
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        weights = [w for _, _, w in rows]
        # a float repr, or the int 0 of an empty sum
        assert all(w == "0" or repr(float(w)) == w for w in weights)
        assert any(w != "0" for w in weights)


class TestInspect:
    def test_pretty_print(self, capsys):
        item = DiscoveryItem(
            node_id=7, latitude=59.91, longitude=10.75, radius=500.0,
            address=IPv4Address("192.0.2.1"), timestamp_ms=1_700_000_000_000,
        )
        rc = main(["inspect", encode(item).hex()])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Identifier:          7" in out
        assert "192.0.2.1" in out
        assert "500.0 m" in out

    def test_malformed_hex(self, capsys):
        rc = main(["inspect", "zz"])
        assert rc == 2
        assert "malformed hex" in capsys.readouterr().err

    def test_wrong_length(self, capsys):
        rc = main(["inspect", "00" * 10])
        assert rc == 2
        assert "FrameLengthError" in capsys.readouterr().err

    def test_bad_field(self, capsys):
        item = DiscoveryItem(
            node_id=7, latitude=45.0, longitude=0.0, radius=1.0,
            address=IPv4Address("192.0.2.1"), timestamp_ms=0,
        )
        frame = bytearray(encode(item))
        frame[8:16] = b"\x7f\xf0\x00\x00\x00\x00\x00\x00"  # +inf latitude
        rc = main(["inspect", bytes(frame).hex()])
        assert rc == 2
        assert "FieldRangeError" in capsys.readouterr().err
