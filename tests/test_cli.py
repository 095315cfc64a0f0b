"""The janus-repro command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_with_knobs(self):
        args = build_parser().parse_args(
            ["run", "fig5", "--requests", "100", "--samples", "500"]
        )
        assert args.experiment == "fig5"
        assert args.requests == 100 and args.samples == 500

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nope"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "overhead" in out

    def test_run_fast_experiment(self, capsys):
        assert main(["run", "fig1b", "--samples", "600"]) == 0
        out = capsys.readouterr().out
        assert "Fig 1b" in out and "took" in out

    def test_run_with_seed(self, capsys):
        assert main(["run", "fig1a", "--seed", "3"]) == 0
        assert "slack" in capsys.readouterr().out


class TestSweep:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.command == "sweep"
        assert args.workflows == "IA,VA"
        assert args.jobs is None

    def test_parser_knobs(self):
        args = build_parser().parse_args(
            ["sweep", "--workflows", "IA", "--arrivals", "poisson@4",
             "--slo-scales", "1.0,1.5", "--tenants", "1",
             "--requests", "25", "--samples", "300", "--jobs", "2"]
        )
        assert args.arrivals == "poisson@4"
        assert args.requests == 25 and args.jobs == 2

    def test_small_sweep_end_to_end(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        json_path = tmp_path / "sweep.json"
        assert main(
            ["sweep", "--workflows", "IA",
             "--arrivals", "constant,poisson@8",
             "--slo-scales", "1.0", "--tenants", "1",
             "--policies", "Optimal,Janus",
             "--requests", "20", "--samples", "300", "--seed", "9",
             "--jobs", "1",
             "--csv", str(csv_path), "--json", str(json_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "sweeping 2 scenario cells" in out
        assert "Scenario sweep" in out and "Janus" in out
        assert csv_path.exists() and json_path.exists()
        import json as json_mod

        payload = json_mod.loads(json_path.read_text())
        assert payload["num_cells"] == 2

    def test_parser_cluster_knobs(self):
        args = build_parser().parse_args(
            ["sweep", "--executor", "auto,cluster",
             "--cluster-config", "n_vms=2,autoscale=false"]
        )
        assert args.executor == "auto,cluster"
        assert args.cluster_config == "n_vms=2,autoscale=false"

    def test_cluster_sweep_end_to_end(self, capsys, tmp_path):
        csv_path = tmp_path / "cluster.csv"
        assert main(
            ["sweep", "--workflows", "IA",
             "--arrivals", "poisson@4",
             "--slo-scales", "2.0", "--tenants", "1",
             "--policies", "GrandSLAM,Janus",
             "--executor", "cluster",
             "--cluster-config", "n_vms=2,warm_pool_size=2,autoscale=false",
             "--requests", "10", "--samples", "300", "--seed", "3",
             "--jobs", "1", "--csv", str(csv_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "sweeping 1 scenario cells" in out
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        cold = lines[1].split(",")[header.index("cold_start_rate")]
        assert cold != "" and 0.0 < float(cold) <= 1.0
        assert "exec cluster" in lines[1]


class TestSweepBackendsAndCache:
    def test_parser_backend_and_cache_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--backend", "pool",
             "--cache-dir", "/tmp/x", "--progress"]
        )
        assert args.backend == "pool"
        assert args.cache_dir == "/tmp/x"
        assert args.progress is True and args.no_cache is False

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--backend", "quantum"])
        with pytest.raises(SystemExit):  # folded into pool
            build_parser().parse_args(["sweep", "--backend", "workstealing"])

    def test_cache_dir_env_default(self, monkeypatch):
        monkeypatch.setenv("JANUS_SWEEP_CACHE", "/tmp/from-env")
        args = build_parser().parse_args(["sweep"])
        assert args.cache_dir == "/tmp/from-env"

    def test_cold_then_warm_sweep_round_trip(self, capsys, tmp_path):
        # The CI smoke in miniature: same cache dir, byte-identical JSON,
        # second run fully served from cache with per-cell progress lines.
        cache = tmp_path / "cache"
        base = ["sweep", "--workflows", "IA", "--arrivals", "constant",
                "--slo-scales", "1.0", "--tenants", "1,2",
                "--policies", "Optimal,Janus",
                "--requests", "15", "--samples", "300", "--seed", "11",
                "--jobs", "2", "--cache-dir", str(cache), "--progress"]
        cold_json = tmp_path / "cold.json"
        warm_json = tmp_path / "warm.json"
        assert main(base + ["--backend", "pool",
                            "--json", str(cold_json)]) == 0
        cold_out = capsys.readouterr().out
        assert "pool backend" in cold_out
        assert "cell cache: 0 hit(s), 2 miss(es)" in cold_out
        assert main(base + ["--json", str(warm_json)]) == 0
        warm_out = capsys.readouterr().out
        assert "cell cache: 2 hit(s), 0 miss(es)" in warm_out
        assert warm_out.count("cache hit") == 2
        assert cold_json.read_bytes() == warm_json.read_bytes()

    def test_no_cache_disables_env_and_flag(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert main(
            ["sweep", "--workflows", "IA", "--arrivals", "constant",
             "--slo-scales", "1.0", "--tenants", "1",
             "--policies", "Janus", "--requests", "10",
             "--samples", "300", "--jobs", "1",
             "--cache-dir", str(cache), "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "cell cache" not in out
        assert not cache.exists()


class TestTraceCommands:
    def test_generate_summarize_replay_round_trip(self, capsys, tmp_path):
        out = tmp_path / "day.jsonl"
        assert main(
            ["trace", "generate", "--workflows", "IA,VA", "--n", "150",
             "--arrival", "diurnal@10", "--period-s", "10",
             "--amplitude", "0.8", "--zipf", "1.0", "--seed", "7",
             "--out", str(out)]
        ) == 0
        gen_out = capsys.readouterr().out
        assert "generated 150 records" in gen_out
        assert "content digest: " in gen_out
        assert out.exists()

        assert main(["trace", "summarize", str(out)]) == 0
        sum_out = capsys.readouterr().out
        assert "records:   150" in sum_out
        assert "IA" in sum_out and "VA" in sum_out
        # The digest printed at generation matches the summary's.
        digest = gen_out.split("content digest: ")[1].strip()
        assert digest in sum_out

        assert main(["trace", "replay", str(out)]) == 0
        assert "replayed 150 arrivals" in capsys.readouterr().out
        assert main(
            ["trace", "replay", str(out), "--workflow", "IA",
             "--requests", "20"]
        ) == 0
        assert "replayed 20 IA requests" in capsys.readouterr().out

    def test_generate_csv_encoding(self, capsys, tmp_path):
        out = tmp_path / "day.csv"
        assert main(
            ["trace", "generate", "--workflows", "IA", "--n", "30",
             "--arrival", "poisson@5", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        assert out.read_text().startswith("#janus-trace=1\n")

    def test_shape_flags_rejected_for_non_diurnal(self, tmp_path):
        with pytest.raises(SystemExit, match="diurnal"):
            main(
                ["trace", "generate", "--workflows", "IA", "--n", "10",
                 "--arrival", "poisson@5", "--amplitude", "0.5",
                 "--out", str(tmp_path / "x.jsonl")]
            )

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_sweep_traces_flag_end_to_end(self, capsys, tmp_path):
        trace_path = tmp_path / "day.jsonl"
        assert main(
            ["trace", "generate", "--workflows", "IA", "--n", "80",
             "--arrival", "diurnal@10", "--period-s", "5",
             "--seed", "3", "--out", str(trace_path)]
        ) == 0
        capsys.readouterr()
        json_path = tmp_path / "sweep.json"
        assert main(
            ["sweep", "--workflows", "IA", "--arrivals", "constant",
             "--traces", str(trace_path),
             "--slo-scales", "1.0", "--tenants", "1",
             "--policies", "Optimal,Janus",
             "--requests", "15", "--samples", "300", "--seed", "9",
             "--jobs", "1", "--json", str(json_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "sweeping 2 scenario cells" in out
        import json as json_mod

        payload = json_mod.loads(json_path.read_text())
        arrivals = {r["arrival"] for r in payload["results"]}
        assert arrivals == {"constant@0ms", f"replay@{trace_path}"}

    def test_sweep_replay_arrival_token(self, capsys, tmp_path):
        trace_path = tmp_path / "day.jsonl"
        assert main(
            ["trace", "generate", "--workflows", "IA", "--n", "60",
             "--arrival", "poisson@10", "--seed", "3",
             "--out", str(trace_path)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["sweep", "--workflows", "IA",
             "--arrivals", f"replay@{trace_path}",
             "--slo-scales", "1.0", "--tenants", "1",
             "--policies", "Janus",
             "--requests", "10", "--samples", "300", "--jobs", "1"]
        ) == 0
        assert "sweeping 1 scenario cells" in capsys.readouterr().out


class TestServe:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.source == "diurnal@8" and args.policy == "Janus"
        assert args.max_requests is None and args.time_scale == 0.0

    def test_unbounded_run_rejected(self, cli_error):
        # No --max-requests / --max-seconds.
        assert "unbounded" in cli_error(["serve"])

    def test_bad_drift_token_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--max-requests", "10", "--drift", "nope"])

    def test_serve_end_to_end(self, capsys, tmp_path):
        snap_path = tmp_path / "snapshot.json"
        events_path = tmp_path / "events.jsonl"
        assert main(
            ["serve", "--source", "poisson@50", "--max-requests", "120",
             "--samples", "300", "--metrics-every", "60",
             "--snapshot-out", str(snap_path),
             "--event-log", str(events_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "served 120/120 requests (0 dropped)" in out
        assert "P50" in out and "SLO" in out
        import json as json_mod

        snap = json_mod.loads(snap_path.read_text())
        for key in ("p50", "p95", "p99", "slo_attainment", "miss_rate",
                    "mean_allocated_millicores"):
            assert key in snap
        from repro.serving import read_events

        assert len(read_events(events_path, kind="decision")) == 120

    def test_serve_with_drift_reports_swaps(self, capsys):
        assert main(
            ["serve", "--source", "poisson@50", "--max-requests", "700",
             "--samples", "300", "--drift", "300:4.0",
             "--miss-threshold", "0.05"]
        ) == 0
        out = capsys.readouterr().out
        assert "hint swap(s)" in out
        swaps = int(out.split("hint swap(s)")[0].strip().split()[-1])
        assert swaps >= 1


class TestSweepStreaming:
    def test_flag_reaches_the_matrix(self, capsys):
        assert main(
            ["sweep", "--workflows", "IA", "--arrivals", "poisson@8",
             "--slo-scales", "1.0", "--tenants", "1",
             "--policies", "Optimal,Janus", "--requests", "25",
             "--samples", "300", "--jobs", "1", "--streaming"]
        ) == 0
        out = capsys.readouterr().out
        assert "sweeping 1 scenario cells" in out and "Janus" in out


class TestFaultFlags:
    def test_sweep_faults_parser(self):
        args = build_parser().parse_args(
            ["sweep", "--faults", "none,preempt@30"]
        )
        assert args.faults == "none,preempt@30"

    def test_sweep_faults_end_to_end(self, capsys, tmp_path):
        csv_path = tmp_path / "cells.csv"
        assert main(
            ["sweep", "--workflows", "IA", "--arrivals", "poisson@8",
             "--slo-scales", "1.0", "--tenants", "1", "--policies", "Janus",
             "--requests", "30", "--samples", "120", "--jobs", "1",
             "--executor", "cluster",
             "--cluster-config", "n_vms=2,autoscale=false",
             "--faults", "none,preempt@30",
             "--csv", str(csv_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "sweeping 2 scenario cells" in out
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        assert {"preemptions", "evictions", "retries",
                "straggler_exposure"} <= set(header)
        idx = header.index("preemptions")
        cells = [line.split(",")[idx] for line in lines[1:]]
        assert "" in cells  # the clean cell leaves fault counters blank

    @pytest.mark.parametrize("flag,token,message", [
        ("--tenants", "1.5", "--tenants wants comma-separated integers, "
                             "got '1.5'"),
        ("--tenants", "x", "--tenants wants comma-separated integers, "
                           "got 'x'"),
        ("--slo-scales", "x", "--slo-scales wants comma-separated numbers, "
                              "got 'x'"),
    ])
    def test_sweep_bad_axis_token_rejected(self, cli_error, flag, token,
                                           message):
        assert cli_error(["sweep", "--workflows", "IA", "--jobs", "1",
                          "--no-cache", flag, token]) == message

    def test_sweep_bad_fault_token_rejected(self, cli_error):
        assert "unknown fault kind" in cli_error(
            ["sweep", "--workflows", "IA", "--arrivals", "poisson@8",
             "--faults", "meteor@9"]
        )

    def test_serve_faults_parser(self):
        args = build_parser().parse_args(
            ["serve", "--max-requests", "10", "--faults", "storm@6"]
        )
        assert args.faults == "storm@6"

    def test_serve_storm_end_to_end(self, capsys, tmp_path):
        events_path = tmp_path / "events.jsonl"
        assert main(
            ["serve", "--source", "diurnal@50", "--max-requests", "120",
             "--samples", "300", "--faults", "storm@6",
             "--event-log", str(events_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "served 120/120 requests" in out
        from repro.serving import read_events

        (fault,) = read_events(events_path, kind="fault")
        assert fault["fault_kind"] == "storm"
        assert fault["effective_source"].startswith("storm@")

    def test_serve_cluster_fault_rejected(self, cli_error):
        assert "arrival-side" in cli_error(
            ["serve", "--max-requests", "10", "--faults", "preempt@2"]
        )
