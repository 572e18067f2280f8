"""`repro lint` — the reproducibility static checks.

The banned patterns below are assembled from fragments (or marked
`# lint: allow`) so this test file itself stays clean under the linter.
"""

from pathlib import Path

from repro.cli import main
from repro.lint import DEFAULT_ROOTS, lint_file, lint_paths

REPO_ROOT = Path(__file__).resolve().parent.parent

NP_SEED = "np.random." + "seed(42)"
GLOBAL_RANDOM = "x = " + "random" + ".randint(0, 9)"
WALL_CLOCK = "now = time." + "time()"
RAW_SOCKET = "sock = " + "socket" + ".create_connection(addr)"
BLOCKING_SLEEP = "time." + "sleep(0.2)"
BARE_PRINT = "print" + "(report)"
SQLITE_USES = ("import " + "sqlite3",
               "from " + "sqlite3 import connect",
               "conn = " + "sqlite3" + ".connect(path)")


def _write(tmp_path, name, *lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestRules:
    def test_global_np_seed_flagged(self, tmp_path):
        path = _write(tmp_path, "mod.py", "import numpy as np", NP_SEED)
        errors = lint_file(path)
        assert [e.rule for e in errors] == ["global-np-seed"]
        assert errors[0].line == 2
        assert "default_rng" in errors[0].message

    def test_module_level_random_flagged(self, tmp_path):
        path = _write(tmp_path, "mod.py", "import random", GLOBAL_RANDOM)
        assert [e.rule for e in lint_file(path)] == ["global-random"]

    def test_seeded_random_instance_allowed(self, tmp_path):
        path = _write(tmp_path, "mod.py",
                      "import random",
                      "rng = random.Random(7)",
                      "value = rng.randint(0, 9)")
        assert lint_file(path) == []

    def test_np_random_default_rng_allowed(self, tmp_path):
        path = _write(tmp_path, "mod.py",
                      "import numpy as np",
                      "rng = np.random.default_rng(7)")
        assert lint_file(path) == []

    def test_wall_clock_only_banned_in_events(self, tmp_path):
        everywhere_else = _write(tmp_path, "mod.py",
                                 "import time", WALL_CLOCK)
        assert lint_file(everywhere_else) == []
        kernel = _write(tmp_path, "events.py", "import time", WALL_CLOCK)
        assert [e.rule for e in lint_file(kernel)] == \
            ["wall-clock-in-kernel"]

    def test_packet_loop_only_banned_in_vector_module(self, tmp_path):
        loop = "for packet in packets:"
        elsewhere = _write(tmp_path, "mod.py", loop, "    pass")
        assert lint_file(elsewhere) == []
        vector = _write(tmp_path, "vector_flows.py", loop, "    pass")
        assert [e.rule for e in lint_file(vector)] == \
            ["packet-loop-in-vector"]
        assert "flow_sampling" in lint_file(vector)[0].message

    def test_packet_loop_variants_flagged(self, tmp_path):
        for line in ("for pkt in self.pkts:",
                     "for i, packet in enumerate(stream):",
                     "for p in packets[flow]:"):
            vector = _write(tmp_path, "vector_flows.py", line, "    pass")
            assert [e.rule for e in lint_file(vector)] == \
                ["packet-loop-in-vector"], line

    def test_flow_loop_allowed_in_vector_module(self, tmp_path):
        vector = _write(tmp_path, "vector_flows.py",
                        "for flow in range(tables.n_flows):",
                        "    pass")
        assert lint_file(vector) == []

    def test_policy_loop_only_banned_in_vector_models(self, tmp_path):
        loop = "for policy in candidates:"
        elsewhere = _write(tmp_path, "mod.py", loop, "    pass")
        assert lint_file(elsewhere) == []
        models = _write(tmp_path, "vector_models.py", loop, "    pass")
        assert [e.rule for e in lint_file(models)] == \
            ["policy-loop-in-vector-models"]
        assert "leading axis" in lint_file(models)[0].message

    def test_policy_loop_variants_flagged(self, tmp_path):
        for line in ("for i, policy in enumerate(ladder):",
                     "for lane in range(batch_size):",
                     "for c in candidates:"):
            models = _write(tmp_path, "vector_models.py", line, "    pass")
            assert [e.rule for e in lint_file(models)] == \
                ["policy-loop-in-vector-models"], line

    def test_model_stacking_loop_allowed_in_vector_models(self, tmp_path):
        models = _write(tmp_path, "vector_models.py",
                        "values = np.array([getter(m) for m in models])")
        assert lint_file(models) == []

    def test_blocking_calls_only_banned_in_server_module(self, tmp_path):
        for line in (RAW_SOCKET, BLOCKING_SLEEP):
            elsewhere = _write(tmp_path, "mod.py", line)
            assert lint_file(elsewhere) == [], line
            server = _write(tmp_path, "server.py", line)
            assert [e.rule for e in lint_file(server)] == \
                ["blocking-call-in-server"], line
            assert "asyncio" in lint_file(server)[0].message

    def test_socket_attribute_access_allowed_in_server(self, tmp_path):
        # server.sockets[0].getsockname() is asyncio API, not the
        # blocking socket module
        server = _write(tmp_path, "server.py",
                        "addr = listener.sockets[0].getsockname()",
                        "s = my.socket.thing")
        assert lint_file(server) == []

    def test_timestep_loop_only_banned_in_mobility_vector(self, tmp_path):
        loop = "for segment in scenario.segments:"
        elsewhere = _write(tmp_path, "mod.py", loop, "    pass")
        assert lint_file(elsewhere) == []
        # a file named vector.py outside a mobility/ directory is fine
        other_vector = _write(tmp_path, "vector.py", loop, "    pass")
        assert lint_file(other_vector) == []
        (tmp_path / "mobility").mkdir()
        mobile = _write(tmp_path / "mobility", "vector.py",
                        loop, "    pass")
        assert [e.rule for e in lint_file(mobile)] == \
            ["timestep-loop-in-mobility-vector"]
        assert "searchsorted" in lint_file(mobile)[0].message

    def test_timestep_loop_variants_flagged(self, tmp_path):
        (tmp_path / "mobility").mkdir()
        for line in ("for step in range(n_steps):",
                     "for t, timestep in enumerate(trace):",
                     "for seg in segments:",
                     "for packet in packets:",
                     "for waypoint in leg_waypoints:"):
            mobile = _write(tmp_path / "mobility", "vector.py",
                            line, "    pass")
            assert [e.rule for e in lint_file(mobile)] == \
                ["timestep-loop-in-mobility-vector"], line

    def test_flow_loop_allowed_in_mobility_vector(self, tmp_path):
        (tmp_path / "mobility").mkdir()
        mobile = _write(tmp_path / "mobility", "vector.py",
                        "for flow in range(n_flows):",
                        "    pass")
        assert lint_file(mobile) == []

    def test_wall_clock_and_seed_banned_across_mobility(self, tmp_path):
        (tmp_path / "mobility").mkdir()
        clock = _write(tmp_path / "mobility", "trace.py",
                       "import time", WALL_CLOCK)
        assert [e.rule for e in lint_file(clock)] == \
            ["wall-clock-in-mobility"]
        assert "SeedSequence" in lint_file(clock)[0].message
        # np.random.seed() inside mobility/ trips both the global ban
        # and the mobility-specific rule
        seeded = _write(tmp_path / "mobility", "field.py",
                        "import numpy as np", NP_SEED)
        assert [e.rule for e in lint_file(seeded)] == \
            ["global-np-seed", "wall-clock-in-mobility"]
        # outside mobility/ the wall clock stays allowed (except in the
        # event kernel, covered above)
        elsewhere = _write(tmp_path, "trace.py", "import time", WALL_CLOCK)
        assert lint_file(elsewhere) == []

    def test_bare_print_banned_in_package_source(self, tmp_path):
        package = tmp_path / "src" / "repro"
        (package / "testbed").mkdir(parents=True)
        for where in (package, package / "testbed"):
            library = _write(where, "mod.py", BARE_PRINT)
            assert [e.rule for e in lint_file(library)] == \
                ["print-in-library"]
            assert "cli.py" in lint_file(library)[0].message

    def test_bare_print_allowed_outside_library_code(self, tmp_path):
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        for name in ("cli.py", "selftest.py"):
            assert lint_file(_write(package, name, BARE_PRINT)) == [], name
        for where in ("benchmarks", "tests", "src"):
            (tmp_path / where).mkdir(exist_ok=True)
            script = _write(tmp_path / where, "mod.py", BARE_PRINT)
            assert lint_file(script) == [], where

    def test_print_lookalikes_allowed_in_package_source(self, tmp_path):
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        path = _write(package, "mod.py",
                      "console.print(x)",
                      "digest = code_fingerprint()",
                      "text = 'fingerprint()'")
        assert lint_file(path) == []

    def test_sqlite_banned_in_package_source_outside_backends(
            self, tmp_path):
        package = tmp_path / "src" / "repro"
        (package / "testbed").mkdir(parents=True)
        for where, name in ((package, "mod.py"),
                            (package / "testbed", "cache.py"),
                            (package, "backends.py")):
            path = _write(where, name, *SQLITE_USES)
            assert [e.rule for e in lint_file(path)] == \
                ["sqlite-outside-storage"] * len(SQLITE_USES), name

    def test_sqlite_allowed_in_storage_module_and_outside_package(
            self, tmp_path):
        storage = tmp_path / "src" / "repro" / "testbed"
        storage.mkdir(parents=True)
        assert lint_file(_write(storage, "backends.py", *SQLITE_USES)) == []
        (tmp_path / "tests").mkdir()
        assert lint_file(_write(tmp_path / "tests", "test_store.py",
                                *SQLITE_USES)) == []
        lookalikes = _write(storage, "cache.py",
                            "backend = SqliteBackend(path)",
                            "name = 'pysqlite3'")
        assert lint_file(lookalikes) == []

    def test_allow_marker_and_comments_skipped(self, tmp_path):
        path = _write(tmp_path, "mod.py",
                      NP_SEED + "  # lint: allow",
                      "# commented out: " + NP_SEED)
        assert lint_file(path) == []

    def test_pattern_in_string_is_still_flagged_without_marker(
            self, tmp_path):
        # docstring mentions count: the rules are textual by design, and
        # the allow marker is the documented escape hatch
        path = _write(tmp_path, "mod.py", f'text = "{NP_SEED}"')
        assert [e.rule for e in lint_file(path)] == ["global-np-seed"]

    def test_error_rendering(self, tmp_path):
        path = _write(tmp_path, "mod.py", NP_SEED)
        rendered = str(lint_file(path)[0])
        assert rendered.startswith(f"{path}:1: [global-np-seed]")


class TestPaths:
    def test_roots_walk_and_self_exclusion(self, tmp_path):
        (tmp_path / "src").mkdir()
        _write(tmp_path / "src", "bad.py", NP_SEED)
        _write(tmp_path / "src", "lint.py", NP_SEED)  # the linter itself
        errors = lint_paths(["src"], base=tmp_path)
        assert [Path(e.path).name for e in errors] == ["bad.py"]

    def test_missing_root_is_empty(self, tmp_path):
        assert lint_paths(["nowhere"], base=tmp_path) == []

    def test_repository_is_clean(self):
        errors = lint_paths(DEFAULT_ROOTS, base=REPO_ROOT)
        assert errors == [], "\n".join(str(e) for e in errors)


class TestCli:
    def test_exit_one_and_report(self, tmp_path, capsys):
        bad = _write(tmp_path, "bad.py", NP_SEED)
        rc = main(["lint", str(bad)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "global-np-seed" in out
        assert "1 violation(s)" in out

    def test_exit_zero_on_clean_file(self, tmp_path, capsys):
        clean = _write(tmp_path, "ok.py", "x = 1")
        rc = main(["lint", str(clean)])
        assert rc == 0
