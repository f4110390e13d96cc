import csv
import json

import pytest

from deltapath.cli import main, parse_event_file
from deltapath.errors import EventParseError
from deltapath.graph_model import save_topology

from conftest import triangle, utilization_topology


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.txt"
    save_topology(triangle(), path)
    return path


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestRun:
    def test_replay_with_verify(self, tmp_path, triangle_file):
        events = tmp_path / "events.txt"
        events.write_text("epoch 1\n-link 0 1\n")
        out = tmp_path / "metrics.csv"
        rc = main([
            "run", "--topology", str(triangle_file), "--strategy", "sd-util",
            "--events", str(events), "--out", str(out), "--verify",
        ])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 2
        assert rows[0]["epoch"] == "0"
        assert rows[0]["rules_changed"] == "9"
        assert rows[1]["epoch"] == "1"
        # four pairs change, each as one retraction plus one establishment
        assert int(rows[1]["rules_changed"]) == 8
        assert int(rows[1]["fixpoint_us"]) > 0

    def test_empty_event_file_leaves_only_epoch_zero(self, tmp_path, triangle_file):
        events = tmp_path / "events.txt"
        events.write_text("# nothing\n")
        out = tmp_path / "m.csv"
        assert main([
            "run", "--topology", str(triangle_file),
            "--events", str(events), "--out", str(out),
        ]) == 0
        assert len(read_csv(out)) == 1

    def test_corrupt_event_line_names_the_line(self, tmp_path, triangle_file, capsys):
        events = tmp_path / "events.txt"
        events.write_text("epoch 1\n-link 0 1\nepoch 2\n~boom\n")
        rc = main([
            "run", "--topology", str(triangle_file), "--events", str(events),
        ])
        assert rc == 1
        assert "line 4" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["-policy", "-policy x"])
    def test_policy_removal_without_an_id(self, tmp_path, triangle_file, capsys, line):
        events = tmp_path / "events.txt"
        events.write_text(f"epoch 1\n{line}\n")
        rc = main([
            "run", "--topology", str(triangle_file), "--events", str(events),
        ])
        assert rc == 1
        assert "line 2: -policy needs an id" in capsys.readouterr().err

    def test_jsonl_format(self, tmp_path, triangle_file):
        out = tmp_path / "m.jsonl"
        assert main([
            "run", "--topology", str(triangle_file), "--out", str(out),
            "--format", "jsonl",
        ]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows[0]["epoch"] == 0

    def test_requests_and_policies_in_replay(self, tmp_path, triangle_file, capsys):
        events = tmp_path / "events.txt"
        events.write_text(
            "epoch 1\nreq 1 0 2\n+policy 7 0 : !1 : 2\n"
            "epoch 2\n-policy 7\nweight 0 1 utilization=50\n"
        )
        out = tmp_path / "m.csv"
        rc = main([
            "run", "--topology", str(triangle_file), "--strategy", "sd-util",
            "--events", str(events), "--out", str(out), "--verify",
        ])
        assert rc == 0
        assert "path=0-2 cost=3 length=1 policy=7" in capsys.readouterr().out
        rows = read_csv(out)
        assert rows[1]["requests"] == "1"

    def test_reset_restores_initial_state(self, tmp_path, triangle_file):
        events = tmp_path / "events.txt"
        events.write_text(
            "epoch 1\n-link 0 1\nreset\nepoch 2\n-link 0 1\n"
        )
        out = tmp_path / "m.csv"
        rc = main([
            "run", "--topology", str(triangle_file), "--strategy", "sd-util",
            "--events", str(events), "--out", str(out), "--verify",
        ])
        assert rc == 0
        rows = read_csv(out)
        # both epochs see the same change count because of the reset
        assert rows[1]["rules_changed"] == rows[2]["rules_changed"]

    def test_widest_verify_beyond_bruteforce_size(self, tmp_path):
        from deltapath.graph_model import load_topology

        topo = tmp_path / "jelly.txt"
        assert main([
            "gen", "jellyfish", "--n", "16", "--r", "3", "--plan", "uniform",
            "--seed", "4", "-o", str(topo),
        ]) == 0
        a, b, _p = load_topology(topo).links[0]
        events = tmp_path / "ev.txt"
        events.write_text(f"epoch 1\n-link {a} {b}\n")
        # 16 nodes exceeds the brute-force cap, exercising the reference oracle
        assert main([
            "run", "--topology", str(topo), "--strategy", "widest",
            "--events", str(events), "--out", str(tmp_path / "m.csv"), "--verify",
        ]) == 0

    def test_identical_seeds_reproduce_rule_counts(self, tmp_path):
        topo_path = tmp_path / "topo.txt"
        assert main([
            "gen", "fattree", "--k", "4", "--plan", "uniform",
            "--seed", "3", "-o", str(topo_path),
        ]) == 0
        events = tmp_path / "ev.txt"
        assert main([
            "gen", "scenario", "--kind", "link-failure", "--topology",
            str(topo_path), "--trials", "5", "--seed", "1", "-o", str(events),
        ]) == 0
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main([
                "run", "--topology", str(topo_path), "--strategy", "sd-util",
                "--events", str(events), "--out", str(out),
            ]) == 0
            outs.append([r["rules_changed"] for r in read_csv(out)])
        assert outs[0] == outs[1]


class TestQuery:
    def test_query_prints_the_path(self, triangle_file, capsys):
        rc = main([
            "query", "--topology", str(triangle_file), "--strategy", "sd-util",
            "0", "2",
        ])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "path=0-1-2 cost=2 length=2"

    def test_query_after_replay(self, tmp_path, triangle_file, capsys):
        events = tmp_path / "ev.txt"
        events.write_text("epoch 1\n-link 0 1\n")
        rc = main([
            "query", "--topology", str(triangle_file), "--strategy", "sd-util",
            "--events", str(events), "0", "2",
        ])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "path=0-2 cost=3 length=1"

    def test_unreachable_is_an_error(self, tmp_path, capsys):
        topo = tmp_path / "t.txt"
        save_topology(utilization_topology(4, [(0, 1, 1), (2, 3, 1)]), topo)
        rc = main(["query", "--topology", str(topo), "0", "3"])
        assert rc == 1
        assert "no rule" in capsys.readouterr().err


class TestBench:
    def test_link_failure_bench(self, tmp_path, triangle_file):
        out = tmp_path / "bench.csv"
        rc = main([
            "bench", "--kind", "link-failure", "--topology", str(triangle_file),
            "--strategy", "sd-util", "--trials", "4", "--out", str(out),
        ])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 4
        assert all(int(r["fixpoint_us"]) >= 0 for r in rows)

    def test_switch_failure_bench(self, tmp_path, triangle_file):
        out = tmp_path / "bench.csv"
        rc = main([
            "bench", "--kind", "switch-failure", "--topology", str(triangle_file),
            "--strategy", "sd-util", "--trials", "3", "--out", str(out),
        ])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 3
        assert all(r["target"].isdigit() for r in rows)

    def test_path_request_sweep_row_count(self, tmp_path, triangle_file):
        out = tmp_path / "bench.csv"
        rc = main([
            "bench", "--kind", "path-requests", "--topology", str(triangle_file),
            "--trials", "3", "--batch-size", "8", "--out", str(out),
        ])
        assert rc == 0
        rows = read_csv(out)
        assert [int(r["batch_size"]) for r in rows] == [1, 2, 4, 8]
        assert all(int(r["requests_per_s"]) > 0 for r in rows)

    def test_weight_batch_sweep(self, tmp_path):
        topo_path = tmp_path / "topo.txt"
        main(["gen", "fattree", "--k", "2", "--plan", "uniform", "--seed", "2",
              "-o", str(topo_path)])
        out = tmp_path / "bench.csv"
        rc = main([
            "bench", "--kind", "weight-batches", "--topology", str(topo_path),
            "--strategy", "sd-util", "--trials", "3", "--batch-size", "2",
            "--out", str(out),
        ])
        assert rc == 0
        rows = read_csv(out)
        assert [int(r["batch_size"]) for r in rows] == [1, 2]


class TestGen:
    def test_gen_fattree_round_trip(self, tmp_path):
        out = tmp_path / "fat.txt"
        assert main(["gen", "fattree", "--k", "4", "-o", str(out)]) == 0
        text = out.read_text()
        assert text.count("node ") == 20
        assert text.count("link ") == 32

    def test_gen_jellyfish(self, tmp_path):
        out = tmp_path / "jelly.txt"
        assert main([
            "gen", "jellyfish", "--n", "12", "--r", "3", "--plan", "uniform",
            "--seed", "5", "-o", str(out),
        ]) == 0
        assert out.read_text().count("link ") == 18

    def test_gen_scenario(self, tmp_path, triangle_file):
        out = tmp_path / "sc.txt"
        assert main([
            "gen", "scenario", "--kind", "switch-failure", "--topology",
            str(triangle_file), "--trials", "7", "-o", str(out),
        ]) == 0
        assert out.read_text().count("-node") == 7

    def test_gen_odd_arity_fails(self, tmp_path, capsys):
        assert main(["gen", "fattree", "--k", "3", "-o", str(tmp_path / "x")]) == 1
        assert "even" in capsys.readouterr().err


def test_broken_pipe_exits_quietly(tmp_path, triangle_file, monkeypatch):
    class _Closed:
        def write(self, _data):
            raise BrokenPipeError

        def flush(self):
            raise BrokenPipeError

    monkeypatch.setattr("sys.stdout", _Closed())
    assert main(["run", "--topology", str(triangle_file), "--out", "-"]) == 0


class TestEventFileParsing:
    def test_epoch_ids_must_increase(self, tmp_path):
        path = tmp_path / "ev.txt"
        path.write_text("epoch 2\nepoch 1\n")
        with pytest.raises(EventParseError, match="increase"):
            parse_event_file(path)

    def test_event_outside_epoch(self, tmp_path):
        path = tmp_path / "ev.txt"
        path.write_text("-link 0 1\n")
        with pytest.raises(EventParseError, match="outside"):
            parse_event_file(path)

    def test_blocks_carry_everything(self, tmp_path):
        path = tmp_path / "ev.txt"
        path.write_text(
            "epoch 1\n+node 9 switch\nreq 1 0 2\n+policy 3 0 : 1 : 2\n"
            "reset\nepoch 2\n-policy 3\n"
        )
        blocks = parse_event_file(path)
        assert len(blocks) == 3
        assert blocks[0].events and blocks[0].requests
        assert blocks[0].policy_adds[0][:2] == (3, "0 : 1 : 2")
        assert blocks[1].reset
        assert blocks[2].policy_removes == [3]
