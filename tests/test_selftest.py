"""`repro selftest` — the first command of every CI job."""

import pytest

import repro.selftest as selftest_mod
from repro.cli import main
from repro.selftest import CheckResult, run_selftest
from repro.video.concealment import ConcealedSequence


class TestRunSelftest:
    def test_all_checks_pass_in_this_tree(self):
        results = run_selftest()
        assert [r.name for r in results] == [
            "crypto-kat", "cached-engine", "event-kernel", "vector-flows",
            "sender-oracle", "lookup-decode", "vector-models", "mobility",
            "net-queue", "advise-serve"]
        failures = [r for r in results if not r.ok]
        assert not failures, [f"{r.name}: {r.detail}" for r in failures]

    def test_mobility_check_proves_the_differential(self):
        """The mobility check must pin both halves of the contract:
        deterministic builds and kernel==vector across handoffs."""
        results = run_selftest(["mobility"])
        assert [r.name for r in results] == ["mobility"]
        assert results[0].ok, results[0].detail
        assert "oracle==kernel" in results[0].detail
        assert "handoffs" in results[0].detail

    def test_sender_oracle_check_proves_the_differential(self):
        """The single-flow sender must equal the vector oracle path."""
        results = run_selftest(["sender-oracle"])
        assert [r.name for r in results] == ["sender-oracle"]
        assert results[0].ok, results[0].detail
        assert "kernel==vector oracle" in results[0].detail

    def test_lookup_check_proves_the_differential(self):
        results = run_selftest(["lookup-decode"])
        assert results[0].ok, results[0].detail
        assert "lookup==decode" in results[0].detail
        assert "cold then warm" in results[0].detail

    def test_lookup_check_catches_a_corrupt_table_entry(self, monkeypatch):
        """One wrong D[i, j], written after the cold pass filled it,
        must fail the check when a later lookup reads it."""
        original = ConcealedSequence.distortion_table
        corrupted = []

        def distortion_table(sequence, reference):
            table = original(sequence, reference)
            if table and not corrupted:
                key = next(iter(table))
                table[key] += 1.0
                corrupted.append(key)
            return table

        monkeypatch.setattr(ConcealedSequence, "distortion_table",
                            distortion_table)
        results = run_selftest(["lookup-decode"])
        assert corrupted
        assert not results[0].ok
        assert "PSNR/MOS" in results[0].detail

    def test_subset_selection(self):
        results = run_selftest(["crypto-kat"])
        assert [r.name for r in results] == ["crypto-kat"]
        assert results[0].ok

    def test_advise_serve_check_asserts_memo_hit(self):
        """The serve check must prove the warm path did zero sweeps."""
        results = run_selftest(["advise-serve"])
        assert [r.name for r in results] == ["advise-serve"]
        assert results[0].ok, results[0].detail
        assert "memo hit" in results[0].detail
        assert "1 evaluation" in results[0].detail

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown selftest check"):
            run_selftest(["crypto-kat", "warp-core"])

    def test_failures_become_rows_not_exceptions(self, monkeypatch):
        def boom():
            raise AssertionError("synthetic breakage")
        monkeypatch.setattr(
            selftest_mod, "_CHECKS",
            [("crypto-kat", boom)] + selftest_mod._CHECKS[1:])
        results = run_selftest(["crypto-kat"])
        assert results == [CheckResult(
            "crypto-kat", False, "AssertionError: synthetic breakage")]


class TestCli:
    def test_exit_zero_and_table(self, capsys):
        rc = main(["selftest", "--only", "crypto-kat"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "crypto-kat" in out
        assert "all 1 checks passed" in out

    def test_exit_one_on_failure(self, monkeypatch, capsys):
        def boom():
            raise RuntimeError("synthetic breakage")
        monkeypatch.setattr(
            selftest_mod, "_CHECKS", [("crypto-kat", boom)])
        rc = main(["selftest"])
        assert rc == 1
        assert "SELFTEST FAILED" in capsys.readouterr().out
