"""CLI entry point tests (list / argument handling; heavy experiment
runs are covered by the benchmarks themselves)."""

import pytest

from repro.bench import cli


class TestList:
    def test_list_prints_all_experiments(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for key in cli._EXPERIMENTS:
            assert key in out

    def test_every_experiment_module_resolves(self):
        for name in cli._EXPERIMENTS:
            compute = cli._load(name)
            assert callable(compute)


class TestRunArguments:
    def test_unknown_experiment_fails(self, capsys):
        assert cli.main(["run", "nope"]) == 1
        assert "unknown experiment" in capsys.readouterr().out

    def test_empty_run_is_an_error(self, capsys):
        assert cli.main(["run"]) == 2

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main([])


class TestSummarise:
    def test_nested_dict(self, capsys):
        cli._summarise({"a": 1, "b": {"c": 2}})
        out = capsys.readouterr().out
        assert "a: 1" in out
        assert "c: 2" in out

    def test_tuple_of_dicts(self, capsys):
        cli._summarise(({"x": 1}, {"y": 2}))
        out = capsys.readouterr().out
        assert "x: 1" in out and "y: 2" in out


class TestPerfArguments:
    def test_bad_workers_rejected(self):
        # Rollout costing is serial; --workers is not an option.
        with pytest.raises(SystemExit):
            cli.main(["--perf", "mcts", "--workers", "2"])

    def test_unknown_perf_target_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["--perf", "nope"])


class TestPerfBenchSmoke:
    """Tiny end-to-end runs of the perf benchmarks."""

    def test_mcts_perf_three_modes(self, tmp_path):
        from repro.bench.perf import run_mcts_perf

        out = tmp_path / "mcts.json"
        report = run_mcts_perf(
            iterations=6, rounds=2, out_path=str(out),
            observe_queries=60,
        )
        assert out.exists()
        assert report["identical_result"] is True
        for mode in ("full", "delta", "vectorized"):
            assert report[mode]["wall_seconds"] > 0
        assert "parallel" not in report
        assert report["speedup_vectorized"] > 0
        assert report["speedup_vectorized_vs_full"] > 0
        assert report["machine"]["cpu_count"] >= 1

    def test_ingest_perf_three_modes(self, tmp_path):
        from repro.bench.perf import run_ingest_perf

        out = tmp_path / "ingest.json"
        report = run_ingest_perf(
            queries=300, out_path=str(out), diagnosis_every=100
        )
        assert out.exists()
        assert report["identical_result"] is True
        assert report["normalizer_version"] >= 1
        assert report["machine"]["cpu_count"] >= 1
        for mode in ("full", "cached", "cached_incremental"):
            result = report[mode]
            assert result["queries_per_second"] > 0
            assert result["diagnosis_passes"] == 3
            assert result["templates"] == sum(
                result["shard_stats"].values()
            )
        # Full-parse mode never touches the raw-key cache; the fast
        # modes resolve nearly everything through it.
        assert report["full"]["raw_cache"]["hits"] == 0
        assert report["cached"]["raw_cache"]["hits"] > 0


class TestFaultsArguments:
    def test_regret_requires_faults(self):
        with pytest.raises(SystemExit):
            cli.main(["--regret"])

    def test_nonpositive_regret_bound_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["--faults", "--regret", "--regret-bound", "0"])

    def test_bad_fault_rate_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["--faults", "--rate", "1.5"])


class TestChaosBenchSmoke:
    """Tiny end-to-end runs of the chaos/regret scenarios."""

    def test_chaos_on_sqlite_backend(self, tmp_path):
        from repro.bench.chaos import run_chaos

        out = tmp_path / "chaos.json"
        report = run_chaos(
            seed=11, rate=0.2, rounds=2, queries_per_round=120,
            out_path=str(out), backend="sqlite",
        )
        assert out.exists()
        assert report["backend"] == "sqlite"
        assert report["ok"] is True
        assert report["replay_identical"]
        assert report["faults_off_identical"]

    def test_regret_stays_bounded_and_replays(self, tmp_path):
        from repro.bench.chaos import run_regret

        out = tmp_path / "regret.json"
        report = run_regret(
            seeds=(11,), rounds=3, queries_per_round=120,
            out_path=str(out),
        )
        assert out.exists()
        assert report["all_within_bound"]
        assert report["all_replay_identical"]
        row = report["per_seed"][0]
        assert row["cumulative_regret"] <= report["regret_bound"]
