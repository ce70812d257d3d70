"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "--trace", "cad"])
        assert args.policy == "tree"
        assert args.cache == 1024

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--trace", "cad", "--policy", "magic"]
            )


class TestCommands:
    def test_simulate(self, capsys):
        rc = main(["simulate", "--trace", "cad", "--refs", "2000",
                   "--cache", "128"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "miss_rate" in out
        assert "tree on cad" in out

    def test_simulate_with_policy_kwargs(self, capsys):
        rc = main(["simulate", "--trace", "cad", "--refs", "2000",
                   "--cache", "128", "--policy", "tree-threshold",
                   "--threshold", "0.1"])
        assert rc == 0
        assert "threshold" in capsys.readouterr().out

    def test_simulate_tcpu_override(self, capsys):
        rc = main(["simulate", "--trace", "cad", "--refs", "2000",
                   "--cache", "128", "--t-cpu", "200"])
        assert rc == 0

    def test_simulate_hardware_overrides(self, capsys):
        # Modern-hardware timings: every --t-* flag maps into SystemParams.
        rc = main(["simulate", "--trace", "cad", "--refs", "2000",
                   "--cache", "128", "--t-cpu", "5", "--t-disk", "0.1",
                   "--t-driver", "0.02", "--t-hit", "0.005"])
        assert rc == 0
        assert "miss_rate" in capsys.readouterr().out

    def test_negative_param_override_is_clean_error(self, capsys):
        rc = main(["simulate", "--trace", "cad", "--refs", "500",
                   "--cache", "64", "--t-disk", "-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "t_disk" in err

    @pytest.mark.parametrize("flag", ["--t-disk", "--t-driver"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_param_override_is_clean_error(self, capsys, flag,
                                                      value):
        rc = main(["simulate", "--trace", "cad", "--refs", "500",
                   "--cache", "64", flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert flag[2:].replace("-", "_") in err

    def test_sweep(self, capsys):
        rc = main(["sweep", "--trace", "sitar", "--refs", "2000",
                   "--policies", "no-prefetch", "next-limit",
                   "--sizes", "64", "128"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "no-prefetch" in out and "next-limit" in out
        assert "64" in out and "128" in out

    def test_sweep_with_jobs_and_cache_dir(self, tmp_path, capsys):
        cache = str(tmp_path / "results")
        argv = ["sweep", "--trace", "sitar", "--refs", "2000",
                "--policies", "no-prefetch", "tree", "--sizes", "64", "128",
                "--jobs", "2", "--cache-dir", cache]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "executed=4" in cold
        # Warm re-run replays every result from the on-disk store.
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "executed=0" in warm and "disk_hits=4" in warm
        assert warm.split("simulations:")[0] == cold.split("simulations:")[0]

    def test_invalid_jobs_is_clean_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--trace", "cad", "--refs", "500",
                  "--sizes", "64", "--jobs", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--jobs" in err
        assert "Traceback" not in err

    def test_trace_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "t.npz"
        rc = main(["trace", "--name", "snake", "--refs", "1500",
                   "--out", str(out_file)])
        assert rc == 0
        assert out_file.exists()
        # The written file is a valid simulation input.
        rc = main(["simulate", "--trace", str(out_file), "--cache", "64"])
        assert rc == 0

    def test_trace_text_format(self, tmp_path):
        out_file = tmp_path / "t.trace"
        rc = main(["trace", "--name", "cad", "--refs", "500",
                   "--out", str(out_file)])
        assert rc == 0
        first = out_file.read_text().splitlines()[0]
        assert first.startswith("# name:")

    def test_missing_trace_file_is_clean_error(self, capsys):
        rc = main(["simulate", "--trace", "/no/such/file.trace",
                   "--cache", "64"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "not found" in err
        assert "Traceback" not in err

    def test_malformed_trace_file_is_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("12\nnot-a-block-id\n")
        rc = main(["simulate", "--trace", str(bad), "--cache", "64"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "cannot read trace file" in err

    def test_corrupt_npz_is_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"this is not a zip archive")
        rc = main(["simulate", "--trace", str(bad), "--cache", "64"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_report(self, tmp_path, capsys, monkeypatch):
        out_file = tmp_path / "EXP.md"
        import repro.analysis.report as report_mod
        import repro.analysis.experiments as ex

        # Shrink the battery to two cheap experiments for the CLI test.
        monkeypatch.setattr(
            report_mod, "ALL_EXPERIMENTS", (ex.run_table1, ex.run_table2)
        )
        rc = main(["report", "--refs", "1500", "--out", str(out_file)])
        assert rc == 0
        body = out_file.read_text()
        assert "paper vs. measured" in body
        assert "table2" in body


class TestServiceCommands:
    def test_serve_and_replay_parsers(self):
        args = build_parser().parse_args(["serve", "--port", "7000"])
        assert args.port == 7000 and args.host == "127.0.0.1"
        args = build_parser().parse_args(
            ["replay", "--trace", "cad", "--clients", "8", "--t-disk", "0.1"]
        )
        assert args.clients == 8
        assert args.t_disk == 0.1

    def test_replay_against_live_server(self, capsys):
        from repro.service.server import BackgroundServer

        with BackgroundServer() as server:
            rc = main(["replay", "--trace", "cad", "--refs", "800",
                       "--clients", "4", "--cache", "128",
                       "--port", str(server.port), "--t-disk", "1.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "advice_per_second" in out
        assert "latency_p50_ms" in out
        assert "latency_p99_ms" in out
        assert "requests               : 3200" in out

    def test_replay_profile_totals_client_spans(self, capsys):
        from repro.service.server import BackgroundServer

        with BackgroundServer() as server:
            rc = main(["replay", "--trace", "cad", "--refs", "150",
                       "--clients", "2", "--sessions-per-client", "2",
                       "--cache", "64", "--port", str(server.port),
                       "--profile"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        head = lines.index("replay profile: per-stage breakdown")
        assert lines[head + 1].split() == [
            "stage", "calls", "total_s", "avg_us", "max_us"
        ]
        calls = {}
        for line in lines[head + 2:]:
            cells = line.split()
            if len(cells) != 5:
                break
            calls[cells[0]] = int(cells[1])
        assert calls == {"client.open": 4, "client.rpc": 4 * 150}
        # a ring-only tracer: nothing was written, so no trace_dir line
        assert "replay: trace_dir=" not in out

    def test_replay_without_server_is_clean_error(self, capsys):
        # An unused ephemeral port: bind-then-close guarantees nothing listens.
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        rc = main(["replay", "--trace", "cad", "--refs", "100",
                   "--port", str(port)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no server" in err


class TestStoreCommands:
    def test_train_to_file_then_inspect(self, tmp_path, capsys):
        snap = tmp_path / "tree.snap"
        rc = main(["train", "--trace", "cad", "--refs", "1500",
                   "--cache", "128", "--out", str(snap)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trained tree on cad" in out
        assert "counts[references]" in out

        rc = main(["inspect", "--snapshot", str(snap)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "checksum verified" in out
        assert "provenance[trace]" in out and "cad" in out

    def test_train_into_store_and_list(self, tmp_path, capsys):
        store = tmp_path / "models"
        rc = main(["train", "--trace", "cad", "--refs", "1000",
                   "--cache", "128", "--store", str(store),
                   "--name", "tree-cad", "--model-only"])
        assert rc == 0
        assert "tree-cad@1" in capsys.readouterr().out

        rc = main(["inspect", "--store", str(store)])
        assert rc == 0
        assert "tree-cad@1 (latest)" in capsys.readouterr().out

        rc = main(["inspect", "--store", str(store), "--model", "tree-cad"])
        assert rc == 0
        assert "model" in capsys.readouterr().out

    def test_train_needs_exactly_one_destination(self, tmp_path, capsys):
        rc = main(["train", "--trace", "cad", "--refs", "100"])
        assert rc == 2
        assert "exactly one" in capsys.readouterr().err

        rc = main(["train", "--trace", "cad", "--refs", "100",
                   "--store", str(tmp_path)])
        assert rc == 2
        assert "--name" in capsys.readouterr().err

    def test_train_rejects_offline_only_policy(self, tmp_path, capsys):
        rc = main(["train", "--trace", "cad", "--refs", "100",
                   "--policy", "informed", "--out", str(tmp_path / "x.snap")])
        assert rc == 2
        assert "online" in capsys.readouterr().err

    def test_inspect_rejects_corrupt_snapshot(self, tmp_path, capsys):
        bad = tmp_path / "bad.snap"
        bad.write_text("definitely not a snapshot\n")
        rc = main(["inspect", "--snapshot", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_serve_flag_validation(self, capsys):
        rc = main(["serve", "--model", "m"])
        assert rc == 2
        assert "--store" in capsys.readouterr().err

        rc = main(["serve", "--checkpoint-dir", "x"])
        assert rc == 2
        assert "--checkpoint-every-s" in capsys.readouterr().err

    def test_serve_unknown_default_model_fails_fast(self, tmp_path, capsys):
        rc = main(["serve", "--store", str(tmp_path / "empty"),
                   "--model", "ghost"])
        assert rc == 2
        assert "no model named" in capsys.readouterr().err
