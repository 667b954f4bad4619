"""Tests for the ROCC and workload command-line interfaces."""

import pytest

from repro.rocc.__main__ import build_parser, config_from_args, main
from repro.rocc.config import Architecture, ForwardingTopology


class TestRoccCli:
    def test_defaults(self):
        args = build_parser().parse_args([])
        cfg = config_from_args(args)
        assert cfg.architecture is Architecture.NOW
        assert cfg.nodes == 8
        assert cfg.sampling_period == 40_000.0
        assert cfg.adaptive is None

    def test_mpp_tree_flags(self):
        args = build_parser().parse_args(
            ["--arch", "mpp", "--nodes", "16", "--tree", "--batch", "32"]
        )
        cfg = config_from_args(args)
        assert cfg.architecture is Architecture.MPP
        assert cfg.forwarding is ForwardingTopology.TREE
        assert cfg.batch_size == 32

    def test_adaptive_flag(self):
        args = build_parser().parse_args(["--adaptive-budget", "0.02"])
        cfg = config_from_args(args)
        assert cfg.adaptive is not None
        assert cfg.adaptive.budget == 0.02

    def test_barrier_flag(self):
        args = build_parser().parse_args(["--barrier-ms", "5"])
        cfg = config_from_args(args)
        assert cfg.barrier_period == 5_000.0

    def test_run_prints_summary(self, capsys):
        rc = main(
            ["--nodes", "2", "--duration-s", "0.5", "--period-ms", "20",
             "--seed", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Pd CPU/node" in out
        assert "samples" in out

    def test_uninstrumented_run(self, capsys):
        rc = main(["--nodes", "2", "--duration-s", "0.3", "--uninstrumented"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0/0 delivered" in out

    def test_aggregated_run(self, capsys):
        rc = main(
            ["--arch", "mpp", "--nodes", "32", "--duration-s", "0.5",
             "--aggregated", "--batch", "8"]
        )
        assert rc == 0
        assert "n=32" in capsys.readouterr().out

    def test_workload_run(self, capsys):
        rc = main(
            ["--nodes", "2", "--duration-s", "0.5", "--seed", "3",
             "--workload", "stationary:rate=100"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "open workload :" in out
        assert "wl=stationary:rate=100" in out

    def test_workload_open_model_reports_users(self, capsys):
        rc = main(
            ["--nodes", "2", "--duration-s", "0.5", "--seed", "3",
             "--workload", "open:avg_users=40,rpm=120,window_s=0.1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "users" in out

    def test_workload_unknown_name_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--workload", "bogus"])
        assert "unknown workload" in capsys.readouterr().err

    def test_workload_bad_parameters_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--workload", "open:rpm=-5"])
        assert "must be positive" in capsys.readouterr().err

    def test_lp_workers_rejects_non_positive(self, capsys):
        for bad in ("0", "-3"):
            with pytest.raises(SystemExit):
                main(["--lp-workers", bad, "--duration-s", "0.1"])
            assert "--lp-workers must be >= 1" in capsys.readouterr().err

    def test_lp_fallback_reason_printed(self, capsys):
        rc = main(["--arch", "mpp", "--nodes", "8", "--tree",
                   "--lp-workers", "2", "--duration-s", "0.05"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "LP fallback   : sequential kernel (tree forwarding" in out

    def test_no_lp_fallback_line_without_lp_request(self, capsys):
        assert main(["--arch", "mpp", "--nodes", "8", "--tree",
                     "--duration-s", "0.05"]) == 0
        assert "LP fallback" not in capsys.readouterr().out


class TestWorkloadCli:
    def test_generate_and_characterize(self, tmp_path, capsys):
        from repro.workload.__main__ import main as wmain

        out = tmp_path / "trace.csv"
        rc = wmain(
            ["generate", "--benchmark", "pvmbt", "--seconds", "1",
             "--out", str(out)]
        )
        assert rc == 0
        assert out.exists()
        capsys.readouterr()

        rc = wmain(["characterize", str(out), "--fit"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "application" in text
        assert "lognormal" in text

    def test_unknown_benchmark_errors(self, tmp_path):
        from repro.workload.__main__ import main as wmain

        with pytest.raises(KeyError):
            wmain(["generate", "--benchmark", "pvmep",
                   "--out", str(tmp_path / "x.csv")])
