"""The command-line front end (the EvalVid-toolchain analogue)."""

import hashlib

import pytest

from repro.cli import build_parser, main
from repro.testbed import ResultCache, RunMetrics


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["inspect"])
        assert args.motion == "slow"
        assert args.gop == 30
        assert args.frames == 150

    def test_rejects_unknown_motion(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["inspect", "--motion", "warp"])

    def test_rejects_unknown_device(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["advise", "--device", "iphone"])


class TestCommands:
    def test_clip_writes_yuv(self, tmp_path, capsys):
        out = tmp_path / "clip.yuv"
        code = main(["clip", "--motion", "slow", "--frames", "12",
                     "--gop", "6", "--out", str(out)])
        assert code == 0
        # 12 frames of CIF I420 = 12 * 352*288*1.5 bytes.
        assert out.stat().st_size == 12 * 352 * 288 * 3 // 2
        assert "slow-motion clip" in capsys.readouterr().out

    def test_inspect_reports_motion_class(self, capsys):
        code = main(["inspect", "--motion", "fast", "--frames", "40",
                     "--gop", "20"])
        assert code == 0
        output = capsys.readouterr().out
        assert "high" in output
        assert "decoder sensitivity" in output

    def test_experiment_reports_metrics(self, capsys):
        code = main(["experiment", "--motion", "slow", "--frames", "60",
                     "--policy", "I"])
        assert code == 0
        output = capsys.readouterr().out
        assert "delay (ms)" in output
        assert "I(AES256)" in output

    def test_experiment_mixture_policy_parsing(self, capsys):
        code = main(["experiment", "--motion", "slow", "--frames", "60",
                     "--policy", "I+20%P"])
        assert code == 0
        assert "I+20%P" in capsys.readouterr().out

    def test_experiment_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["experiment", "--frames", "60", "--policy", "everything"])

    def test_advise_recommends_for_slow(self, capsys):
        code = main(["advise", "--motion", "slow", "--frames", "90",
                     "--target-psnr", "15"])
        assert code == 0
        output = capsys.readouterr().out
        assert "<= recommended" in output

    def test_advise_unsatisfiable_returns_nonzero(self, capsys):
        code = main(["advise", "--motion", "slow", "--frames", "90",
                     "--target-psnr", "-5"])
        assert code == 1
        assert "encrypt everything" in capsys.readouterr().out

    def test_multiflow_reports_per_flow_percentiles(self, capsys):
        code = main(["multiflow", "--flows", "2", "--frames", "30",
                     "--gop", "10"])
        assert code == 0
        output = capsys.readouterr().out
        assert "2 contending slow-motion flows" in output
        assert "p99 (ms)" in output
        assert "all-flow mean delay" in output

    def test_multiflow_rejects_zero_flows(self):
        with pytest.raises(SystemExit):
            main(["multiflow", "--flows", "0", "--frames", "30"])


class TestAdviseServeArgs:
    """`repro advise` service arguments and `repro serve` error paths."""

    def test_advise_defaults(self):
        args = build_parser().parse_args(["advise"])
        assert args.target_psnr is None
        assert args.target_mos is None
        assert args.flows == 2
        assert args.server is None
        assert args.ap == "default"

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 0
        assert args.host == "127.0.0.1"
        # None = derive the cap from the DCF contention model at startup.
        assert args.ap_capacity is None
        assert args.engine == "vector"
        assert args.workers == 2

    def test_advise_rejects_both_targets(self):
        with pytest.raises(SystemExit, match="not both"):
            main(["advise", "--frames", "12", "--gop", "6",
                  "--target-psnr", "15", "--target-mos", "2"])

    def test_advise_rejects_unknown_policy_name(self):
        with pytest.raises(SystemExit, match="unknown policy"):
            main(["advise", "--frames", "12", "--gop", "6",
                  "--policies", "I,everything"])

    def test_advise_rejects_out_of_range_mos(self):
        with pytest.raises(SystemExit, match="MOS"):
            main(["advise", "--frames", "12", "--gop", "6",
                  "--target-mos", "7"])

    def test_advise_rejects_malformed_server_spec(self):
        with pytest.raises(SystemExit, match="malformed tcp spec"):
            main(["advise", "--frames", "12", "--gop", "6",
                  "--server", "udp:somewhere"])

    def test_advise_unreachable_server_fails_cleanly(self, capsys):
        # A closed port: the client retries transport errors, then the
        # CLI reports the failure with exit 1 instead of a traceback.
        code = main(["advise", "--frames", "12", "--gop", "6",
                     "--server", "tcp:127.0.0.1:9"])
        assert code == 1
        assert "advise:" in capsys.readouterr().out

    def test_advise_explicit_policies_subset(self, capsys):
        code = main(["advise", "--frames", "12", "--gop", "6",
                     "--policies", "I,all"])
        assert code == 0
        out = capsys.readouterr().out
        assert "I(AES256)" in out
        assert "all(AES256)" in out
        assert "P(AES256)\n" not in out  # subset never invents labels

    def test_advise_target_mos_resolves_to_bucket_edge(self, capsys):
        code = main(["advise", "--frames", "12", "--gop", "6",
                     "--target-mos", "2"])
        assert code == 0
        # MOS <= 2 is PSNR <= 25 dB, shown in the table title.
        assert "target <= 25 dB" in capsys.readouterr().out

    def test_serve_rejects_bad_capacity(self, tmp_path):
        with pytest.raises(SystemExit, match="ap_capacity"):
            main(["serve", "--cache", str(tmp_path), "--ap-capacity", "0"])

    def test_serve_rejects_bad_workers(self, tmp_path):
        with pytest.raises(SystemExit, match="workers"):
            main(["serve", "--cache", str(tmp_path), "--workers", "-1"])


class TestCacheCommand:
    @staticmethod
    def _populate(directory, n=2):
        with ResultCache(directory) as cache:
            keys = []
            for i in range(n):
                key = hashlib.sha256(f"cli-{i}".encode()).hexdigest()
                cache.put_runs(key, [RunMetrics(
                    mean_delay_ms=float(i), mean_waiting_ms=2.0,
                    average_power_w=3.0)])
                keys.append(key)
        return keys

    def test_stats(self, tmp_path, capsys):
        self._populate(tmp_path)
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out
        assert "sqlite" in out

    def test_gc_enforces_caps(self, tmp_path, capsys):
        self._populate(tmp_path, n=4)
        code = main(["cache", "gc", "--dir", str(tmp_path),
                     "--max-entries", "1"])
        assert code == 0
        assert "evicted" in capsys.readouterr().out
        with ResultCache(tmp_path) as cache:
            assert len(cache) == 1

    def test_clear(self, tmp_path, capsys):
        self._populate(tmp_path, n=3)
        assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
        assert "removed 3" in capsys.readouterr().out
        with ResultCache(tmp_path) as cache:
            assert len(cache) == 0

    def test_verify_flags_corruption(self, tmp_path, capsys):
        keys = self._populate(tmp_path)
        with ResultCache(tmp_path) as cache:
            cache.backend.write(keys[0], b"{broken")
        assert main(["cache", "verify", "--dir", str(tmp_path)]) == 1
        assert "corrupt" in capsys.readouterr().out
        # a clean cache verifies green
        assert main(["cache", "verify", "--dir", str(tmp_path)]) == 0

    def test_stats_on_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "nothing-here"
        assert main(["cache", "stats", "--dir", str(target)]) == 0
        assert "entries" in capsys.readouterr().out
        assert not target.exists()


class TestExampleModules:
    """The shipped examples must at least import cleanly."""

    @pytest.mark.parametrize("name", [
        "quickstart", "policy_advisor", "eavesdropper_demo", "tcp_vs_udp",
        "adaptive_streaming",
    ])
    def test_example_imports(self, name):
        import importlib.util
        import pathlib
        path = (pathlib.Path(__file__).resolve().parent.parent / "examples"
                / f"{name}.py")
        spec = importlib.util.spec_from_file_location(f"example_{name}",
                                                      path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert hasattr(module, "main")
