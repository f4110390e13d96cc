import csv
import json
import logging
import os
import subprocess
import sys
import textwrap
from dataclasses import fields
from pathlib import Path

import pytest

import deltapath
from deltapath import workloads as wl
from deltapath.cli import main, parse_blocks, parse_event_file
from deltapath.errors import EventParseError
from deltapath.graph_model import AddLink, format_event, load_topology, save_topology
from deltapath.routing_core import EpochStats, RuleStore, step_epoch

from conftest import set_key, triangle, utilization_topology


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

    def test_verify_names_the_pair_that_diverges(
        self, tmp_path, triangle_file, monkeypatch, capsys
    ):
        def corrupting_step(store, graph, events):
            batch = step_epoch(store, graph, events)
            set_key(store, 2, 0, (99.0, 1, 2))  # in a new row
            return batch

        monkeypatch.setattr("deltapath.cli.step_epoch", corrupting_step)
        events = tmp_path / "events.txt"
        events.write_text("epoch 1\n-link 0 1\n")
        assert main([
            "run", "--topology", str(triangle_file), "--strategy", "sd-util",
            "--events", str(events), "--out", str(tmp_path / "m.csv"), "--verify",
        ]) == 1
        err = capsys.readouterr().err
        assert "error: epoch 1: pair (0, 2) diverges from the oracle" in err
        assert "Traceback" not in err

    def test_verify_of_fractional_weights(self, tmp_path):
        """sd_free_bw weights are fractions, which the oracle sums in the
        engine's order: the check compares them exactly."""
        topo = tmp_path / "fattree4.txt"
        assert main([
            "gen", "fattree", "--k", "4", "--plan", "uniform", "--seed", "5",
            "-o", str(topo),
        ]) == 0
        events = tmp_path / "ev.txt"
        assert main([
            "gen", "scenario", "--kind", "link-failure", "--topology", str(topo),
            "--trials", "3", "--seed", "5", "-o", str(events),
        ]) == 0
        assert main([
            "run", "--topology", str(topo), "--strategy", "sd-freebw",
            "--events", str(events), "--out", str(tmp_path / "m.csv"), "--verify",
        ]) == 0

    def test_a_link_added_twice_is_logged(self, tmp_path, triangle_file, caplog):
        a, b, p = triangle().links[0]
        events = tmp_path / "events.txt"
        events.write_text(f"epoch 1\n{format_event(AddLink(a, b, p))}\n")
        caplog.set_level(logging.WARNING, logger="deltapath")
        assert main([
            "run", "--topology", str(triangle_file), "--strategy", "sd-util",
            "--events", str(events), "--out", str(tmp_path / "m.csv"), "--verify",
        ]) == 0
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == [
            "duplicate link (0, 1, 1): multiplicity will rise"
        ]

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
        # 16 nodes, past the brute-force cap of 14
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


class TestBadLinkLines:
    """A self-link, an out-of-range utilization, a NaN or infinite capacity,
    a NaN delay, a second line for one node or a link to an undeclared node
    is an input error: the CLI names its line and exits 1, without a
    traceback."""

    def run_cli(self, topology, events=None):
        argv = ["run", "--topology", str(topology), "--strategy", "sd-util"]
        if events is not None:
            argv += ["--events", str(events)]
        env = dict(os.environ, PYTHONPATH=str(Path(deltapath.__file__).parents[1]))
        return subprocess.run(
            [sys.executable, "-m", "deltapath.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )

    @pytest.mark.parametrize("line", [
        "+link 2 2 capacity=10.0", "weight 0 1 utilization=150",
        "+link 0 1 capacity=nan", "+link 0 1 delay=nan",
        "+link 0 1 capacity=inf utilization=100", "+link 0 1 capacity=inf utilization=10",
    ])
    def test_event_line(self, tmp_path, triangle_file, line):
        events = tmp_path / "events.txt"
        events.write_text(f"epoch 1\n-link 0 2\n{line}\n")
        proc = self.run_cli(triangle_file, events)
        assert proc.returncode == 1
        assert "error: line 3: " in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("line,message", [
        ("link 0 0", "self-link on node 0"),
        ("link 0 1 capacity=nan", "capacity must be positive, got nan"),
        ("link 0 1 delay=nan", "delay must be non-negative, got nan"),
        ("link 0 1 capacity=inf utilization=100", "capacity must be finite, got inf"),
        ("node 1 switch", "node 1 already declared on line 2"),
        ("link 0 9", "node 9 does not exist"),
    ])
    def test_topology_line(self, tmp_path, triangle_file, line, message):
        topo = tmp_path / "topo.txt"
        topo.write_text(triangle_file.read_text() + line + "\n")
        proc = self.run_cli(topo)
        assert proc.returncode == 1
        assert f"error: line 7: {message}" in proc.stderr
        assert "Traceback" not in proc.stderr


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

    @pytest.mark.parametrize("kind,prefix", [
        ("link-failure", "-link "), ("switch-failure", "-node "),
    ])
    def test_targets_are_the_scenario_lines(self, tmp_path, kind, prefix):
        topo_path = tmp_path / "topo.txt"
        save_topology(wl.gen_fattree(4), topo_path)
        args = ["--kind", kind, "--topology", str(topo_path), "--trials", "12",
                "--seed", "3"]
        assert main(["gen", "scenario", *args, "-o", str(tmp_path / "sc.txt")]) == 0
        assert main(["bench", *args, "--out", str(tmp_path / "bench.csv")]) == 0
        lines = (tmp_path / "sc.txt").read_text().splitlines()
        want = [l[len(prefix):].replace(" ", "-") for l in lines if l.startswith(prefix)]
        assert [r["target"] for r in read_csv(tmp_path / "bench.csv")] == want

    def test_undo_that_leaves_a_rule_changed_fails(
        self, tmp_path, triangle_file, monkeypatch, capsys
    ):
        def leaky_step(store, graph, events):
            batch = step_epoch(store, graph, events)
            if isinstance(events[0], AddLink):
                # a new row, as an epoch writes one: the bench's snapshot
                # shares the rows the epoch left alone
                set_key(store, 2, 0, (99.0, 1, 2))
            return batch

        monkeypatch.setattr("deltapath.cli.step_epoch", leaky_step)
        assert main([
            "bench", "--kind", "link-failure", "--topology", str(triangle_file),
            "--trials", "2", "--out", str(tmp_path / "bench.csv"),
        ]) == 1
        err = capsys.readouterr().err
        assert "did not restore the rules" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["gen", "scenario", "--kind", "link-failure", "-o", "{out}"],
        ["bench", "--kind", "link-failure", "--out", "{out}"],
    ], ids=["gen-scenario", "bench"])
    def test_topology_without_links_is_an_error(self, tmp_path, capsys, argv):
        topo_path = tmp_path / "topo.txt"
        topo_path.write_text("node 0 switch\nnode 1 switch\n")
        argv = [a.format(out=tmp_path / "out.txt") for a in argv]
        assert main([*argv, "--topology", str(topo_path)]) == 1
        err = capsys.readouterr().err
        assert "error: link failures need a topology with at least one link" in err
        assert "Traceback" not in err


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

    @pytest.mark.parametrize("what,sizes,generate", [
        ("fattree", ["--k", "4"], lambda plan: wl.gen_fattree(4, plan)),
        ("jellyfish", ["--n", "20", "--r", "4"],
         lambda plan: wl.gen_jellyfish(20, 4, plan, seed=7)),
    ])
    def test_gen_topology_reads_back_unchanged(self, tmp_path, what, sizes, generate):
        out = tmp_path / "topo.txt"
        assert main([
            "gen", what, *sizes, "--plan", "uniform", "--seed", "7", "-o", str(out),
        ]) == 0
        want = generate(wl.WeightPlan(wl.PlanKind.UNIFORM, 7))
        got = load_topology(out)
        assert got.nodes == want.nodes
        assert got.links == want.links

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


class TestCheckAndStats:
    EVENTS = "epoch 1\n-link 0 1\nreset\nepoch 2\nweight 0 2 utilization=50\n"

    def run(self, tmp_path, triangle_file):
        events = tmp_path / "events.txt"
        events.write_text(self.EVENTS)
        return main([
            "run", "--topology", str(triangle_file), "--strategy", "sd-util",
            "--events", str(events), "--out", str(tmp_path / "m.csv"),
        ])

    def test_clean_replay_passes_the_check(self, tmp_path, triangle_file, monkeypatch):
        calls = []
        real = RuleStore.check_integrity
        monkeypatch.setattr(
            RuleStore, "check_integrity",
            lambda store, graph: calls.append(store.epoch) or real(store, graph),
        )
        monkeypatch.setenv("DELTAPATH_CHECK", "1")
        assert self.run(tmp_path, triangle_file) == 0
        # set-up, epoch 1, the reset, epoch 2
        assert calls == [0, 1, 0, 1]

    def test_corrupt_store_fails_the_check(
        self, tmp_path, triangle_file, monkeypatch, capsys
    ):
        def corrupting_step(store, graph, events):
            batch = step_epoch(store, graph, events)
            set_key(store, 2, 0, (99.0, 1, 2))
            return batch

        monkeypatch.setattr("deltapath.cli.step_epoch", corrupting_step)
        assert self.run(tmp_path, triangle_file) == 0
        monkeypatch.setenv("DELTAPATH_CHECK", "1")
        assert self.run(tmp_path, triangle_file) == 1
        err = capsys.readouterr().err
        assert "error: epoch 1: integrity check failed: stale selection" in err
        assert "Traceback" not in err

    def test_corrupt_store_fails_the_check_under_python_O(self, tmp_path, triangle_file):
        """The checks raise instead of asserting, so `python -O`, which
        strips assert statements, still catches the corrupted store."""
        events = tmp_path / "events.txt"
        events.write_text(self.EVENTS)
        script = textwrap.dedent("""
            import sys
            import deltapath.cli as cli

            def corrupting_step(store, graph, events):
                batch = step(store, graph, events)
                cost, length, nxt = store._est[2]  # the rule (99.0, 1, 2) for (0, 2)
                cost[0], length[0], nxt[0] = 99.0, 1, store.slot[2]
                return batch

            step, cli.step_epoch = cli.step_epoch, corrupting_step
            sys.exit(cli.main(sys.argv[1:]))
        """)
        env = dict(os.environ, DELTAPATH_CHECK="1",
                   PYTHONPATH=str(Path(deltapath.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, "run",
             "--topology", str(triangle_file), "--strategy", "sd-util",
             "--events", str(events), "--out", str(tmp_path / "m.csv")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        assert "error: epoch 1: integrity check failed: stale selection" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_debug_log_has_the_epoch_stats(
        self, tmp_path, triangle_file, monkeypatch, caplog
    ):
        monkeypatch.setenv("DELTAPATH_LOG", "debug")
        caplog.set_level(logging.DEBUG, logger="deltapath")
        assert self.run(tmp_path, triangle_file) == 0
        lines = [r.getMessage() for r in caplog.records if " stats: " in r.getMessage()]
        assert [line.split(" stats: ")[0] for line in lines] == ["epoch 1", "epoch 2"]
        names = [
            f.name[:-3] + "_ms" if f.name.endswith("_ns") else f.name
            for f in fields(EpochStats)
        ]
        assert len(names) == 11
        for line in lines:
            assert [kv.split("=")[0] for kv in line.split(" stats: ")[1].split()] == names
        assert "groups_changed=4" in lines[0]
        assert "rules=9" in lines[0] and "rules=9" in lines[1]


def test_broken_pipe_exits_quietly(tmp_path, triangle_file, monkeypatch):
    class _Closed:
        def write(self, _data):
            raise BrokenPipeError

        def flush(self):
            raise BrokenPipeError

    monkeypatch.setattr("sys.stdout", _Closed())
    assert main(["run", "--topology", str(triangle_file), "--out", "-"]) == 0


@pytest.mark.parametrize("argv", [
    ["run", "--seed", "1"],
    ["query", "--seed", "1", "0", "2"],
    ["query", "--out", "q.jsonl", "0", "2"],
    ["query", "--format", "jsonl", "0", "2"],
], ids=["run-seed", "query-seed", "query-out", "query-format"])
def test_options_a_command_does_not_read_are_rejected(triangle_file, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--topology", str(triangle_file)] + argv[1:])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [
    ["gen", "scenario", "--kind", "path-requests", "-o", "x.txt"],
    ["bench", "--kind", "path-requests"],
], ids=["gen-scenario", "bench"])
@pytest.mark.parametrize("option", ["--trials", "--batch-size"])
def test_counts_below_one_are_usage_errors(triangle_file, capsys, command, option):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--topology", str(triangle_file), option, "0"])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


def test_importing_the_cli_does_not_load_the_oracle():
    script = "import sys, deltapath.cli; print('deltapath.oracle' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(deltapath.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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

    @pytest.mark.parametrize("line", [
        "req 1 0 2", "+policy 3 0 : 1 : 2", "-policy 3", "-link 0 1", "+node 9 switch",
    ])
    @pytest.mark.parametrize("before", ["", "epoch 1\nreset\n"])
    def test_every_directive_outside_an_epoch_is_named(self, line, before):
        """Before the first epoch and after a reset, which closes its epoch."""
        lines = (before + line).splitlines()
        with pytest.raises(EventParseError) as err:
            list(parse_blocks(lines))
        assert err.value.line_no == len(lines)
        assert f"{line.split()[0]!r} outside an epoch" in str(err.value)

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
