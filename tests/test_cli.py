"""The command-line interface."""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import threading
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
        assert load_signatures(a) == {1, 2, 255, 42}

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
    def server(self):
        from repro.service import ReconciliationServer, SetStore

        store = SetStore()
        store.create("inv", {2, 255, 99, 1000})
        srv = ReconciliationServer(store)
        loop = asyncio.new_event_loop()

        async def _run():
            await srv.start()
            started.set()

        started = threading.Event()
        thread = threading.Thread(
            target=lambda: (loop.run_until_complete(_run()),
                            loop.run_forever()),
            daemon=True,
        )
        thread.start()
        assert started.wait(timeout=10)
        yield srv, store
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
        assert load_signatures(a) == {1, 2, 42, 99, 255, 1000}

    def test_sync_connection_refused_is_clean_error(self, sig_files, capsys):
        a, _ = sig_files
        code = main(["sync", str(a), "--port", "1", "--set", "inv"])
        assert code == 2
        assert "cannot sync" in capsys.readouterr().err


class TestServeValidation:
    def test_negative_caps_are_usage_errors(self, capsys):
        assert main(["serve", "--max-sessions", "-1"]) == 2
        assert "max-sessions" in capsys.readouterr().err
        assert main(["serve", "--max-decode-queue", "-2"]) == 2

    def test_fsync_without_data_dir_is_a_usage_error(self, capsys):
        assert main(["serve", "--fsync"]) == 2
        assert "--data-dir" in capsys.readouterr().err


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
