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


class TestPerfRemoved:
    def test_perf_flag_rejected(self):
        # Performance is measured by perfbench/; the CLI has no --perf.
        with pytest.raises(SystemExit):
            cli.main(["--perf", "mcts"])


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
