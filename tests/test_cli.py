"""The command-line interface."""

from __future__ import annotations

import asyncio
import contextlib
import errno
import json
import os
import signal
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

import pytest

from repro.cli import load_signatures, main


@pytest.fixture()
def sig_files(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("1\n2\n0xFF  # hex comment\n\n42\n")
    b.write_text("2\n0xff\n99\n")
    return a, b


class TestLoadSignatures:
    def test_parses_decimal_hex_comments(self, sig_files):
        a, _ = sig_files
        assert load_signatures(a).tolist() == [1, 2, 42, 255]

    def test_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not-a-number\n")
        with pytest.raises(SystemExit):
            load_signatures(bad)

    def test_rejects_out_of_universe(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0\n")
        with pytest.raises(SystemExit):
            load_signatures(bad)

    def test_rejects_wider_than_32_bits_with_line_number(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"7\n{1 << 32}\n")
        with pytest.raises(SystemExit, match=r"bad\.txt:2: .*32-bit"):
            load_signatures(bad)

    def test_rejects_duplicates_with_both_line_numbers(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("7\n9\n0x7  # same value, hex spelling\n")
        with pytest.raises(
            SystemExit, match=r"bad\.txt:3: duplicate .*line 1"
        ):
            load_signatures(bad)


class TestMain:
    def test_reconciles_files(self, sig_files, capsys):
        a, b = sig_files
        code = main([str(a), str(b), "--seed", "3", "--rounds", "0"])
        captured = capsys.readouterr()
        assert code == 0
        assert [int(line) for line in captured.out.split()] == [1, 42, 99]
        assert "success=True" in captured.err

    def test_quiet_mode(self, sig_files, capsys):
        a, b = sig_files
        main([str(a), str(b), "--quiet", "--rounds", "0"])
        assert capsys.readouterr().err == ""

    def test_selftest(self, capsys):
        code = main(["--selftest", "--rounds", "0"])
        captured = capsys.readouterr()
        assert code == 0
        assert len(captured.out.split()) == 100

    @pytest.mark.parametrize("scheme", ["ddigest", "graphene", "pinsketch"])
    def test_other_schemes(self, scheme, capsys):
        code = main(["--selftest", "--scheme", scheme, "--seed", "5"])
        captured = capsys.readouterr()
        assert code == 0
        assert len(captured.out.split()) == 100

    def test_missing_files_is_an_error(self, capsys):
        assert main([]) == 2

    def test_json_output(self, sig_files, capsys):
        a, b = sig_files
        code = main([str(a), str(b), "--json", "--rounds", "0"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["success"] is True
        assert out["difference"] == [1, 42, 99]
        assert out["total_bytes"] > 0
        assert out["bytes_by_label"]["estimator"] > 0


class TestServeAndSync:
    """`repro sync` against an in-process server (real sockets)."""

    @pytest.fixture()
    def server(self, memory_cluster):
        from repro.service.server import ReconciliationServer

        stack = contextlib.AsyncExitStack()

        async def _run():
            store = await stack.enter_async_context(
                memory_cluster({"inv": {2, 255, 99, 1000}})
            )
            srv = await stack.enter_async_context(ReconciliationServer(store))
            return srv, store

        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        yield asyncio.run_coroutine_threadsafe(_run(), loop).result(10)
        asyncio.run_coroutine_threadsafe(stack.aclose(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)

    def test_sync_subcommand(self, server, sig_files, capsys):
        srv, store = server
        a, _ = sig_files  # {1, 2, 255, 42}
        code = main([
            "sync", str(a), "--set", "inv", "--port", str(srv.port),
            "--json",
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["success"] is True
        assert sorted(out["difference"]) == [1, 42, 99, 1000]
        assert out["framing_bytes"] > 0
        assert store.get("inv") == {1, 2, 42, 99, 255, 1000}

    def test_sync_write_updates_file_to_union(self, server, sig_files):
        srv, _ = server
        a, _ = sig_files
        code = main([
            "sync", str(a), "--set", "inv", "--port", str(srv.port),
            "--write", "--quiet",
        ])
        assert code == 0
        assert load_signatures(a).tolist() == [1, 2, 42, 99, 255, 1000]

    def test_a_failed_sync_write_leaves_the_old_file_whole(
        self, server, sig_files, monkeypatch, capsys
    ):
        """A disk that fills up halfway through ``--write`` leaves the
        old file as it was and no temp file beside it, and the error
        names the file, not the connection: the sync itself completed."""
        srv, _ = server
        a, _ = sig_files
        before = a.read_bytes()
        fdopen = os.fdopen

        class HalfFull:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        argv = ["sync", str(a), "--set", "inv", "--port", str(srv.port),
                "--write", "--quiet"]
        with monkeypatch.context() as patch:
            patch.setattr(
                os, "fdopen", lambda *args, **kw: HalfFull(fdopen(*args, **kw))
            )
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"cannot write {a}" in err and "synced with" in err
        assert "cannot sync" not in err
        assert a.read_bytes() == before
        assert sorted(p.name for p in a.parent.iterdir()) == ["a.txt", "b.txt"]
        assert main(argv) == 0
        assert a.read_text() == "1\n2\n42\n99\n255\n1000\n"

    def test_sync_connection_refused_is_clean_error(self, sig_files, capsys):
        a, _ = sig_files
        code = main(["sync", str(a), "--port", "1", "--set", "inv"])
        assert code == 2
        assert "cannot sync" in capsys.readouterr().err

    def test_plain_serve_is_a_one_shard_inline_cluster(self, sig_files):
        """`repro serve` without cluster flags reports a 1-shard inline
        cluster on /varz, and a sync against a set it does not have yet
        creates the set through the shard queue and pushes a diff."""
        from repro.service.client import sync_once

        _, b = sig_files
        env = {**os.environ}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parent.parent / "src"),
             env.get("PYTHONPATH", "")]
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--admin-port", "0", "--log-json", "--set", f"inv={b}"],
            stderr=subprocess.PIPE, env=env, text=True,
        )
        try:
            port = admin_port = None
            for line in proc.stderr:
                if line.startswith("# serving on"):
                    port = int(line.split()[3].rpartition(":")[2])
                elif '"admin endpoint up"' in line:
                    admin_port = json.loads(line)["port"]
                    break
            assert port and admin_port, "server never came up"

            def varz() -> dict:
                url = f"http://127.0.0.1:{admin_port}/varz"
                with urllib.request.urlopen(url, timeout=10) as response:
                    return json.load(response)

            cluster = varz()["cluster"]
            assert (cluster["shards"], cluster["executor"]) == (1, "inline")
            assert cluster["per_shard"][0]["creates"] == 1   # --set inv
            result = sync_once(
                "127.0.0.1", port, {7, 8, 9}, set_name="fresh", seed=3
            )
            assert result.success
            assert result.difference == frozenset({7, 8, 9})
            after = varz()
            shard = after["cluster"]["per_shard"][0]
            assert (shard["creates"], shard["applies"]) == (2, 1)
            assert after["sets"]["fresh"]["size"] == 3
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=60)
            assert proc.returncode == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=60)


class TestServeValidation:
    def test_negative_caps_are_usage_errors(self, capsys):
        assert main(["serve", "--max-sessions", "-1"]) == 2
        assert "max-sessions" in capsys.readouterr().err
        assert main(["serve", "--max-decode-queue", "-2"]) == 2
        assert main(["serve", "--window-ms", "-1"]) == 2

    def test_fsync_without_data_dir_is_a_usage_error(self, capsys):
        assert main(["serve", "--fsync"]) == 2
        assert "--data-dir" in capsys.readouterr().err

    def test_no_coalesce_flag_is_gone(self, capsys):
        """``--window-ms 0`` is the only way to turn coalescing off."""
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--no-coalesce"])
        assert exc.value.code == 2
        assert "--no-coalesce" in capsys.readouterr().err

    def test_promote_after_flag_is_gone(self, capsys):
        """Failover after two failed respawns is a constant, not a flag."""
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--promote-after", "2"])
        assert exc.value.code == 2
        assert "--promote-after" in capsys.readouterr().err


def test_service_import_path_loads_no_scipy():
    """numpy is the only runtime dependency: the CLI and the proc-mode
    worker module import without loading any scipy module."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ}
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    probe = (
        "import sys, repro.cli, repro.cluster.proc; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env,
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"
