"""End-to-end CLI tests over real sockets: serve + dig.

``serve`` binds port 0 and the tests read the port from its ``serving …
on host:port`` line, so no test depends on a fixed port being free or on
how long the server takes to start.
"""

import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.dns import TXT, AuthoritativeServer, Name, RRType, parse_zone_text
from repro.dns.listener import Listener, query_tcp, query_udp

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def zone_file(tmp_path):
    path = tmp_path / "test.zone"
    path.write_text(
        "$TTL 3600\n"
        "@    IN SOA ns1 hostmaster ( 1 7200 3600 1209600 300 )\n"
        "@    IN NS  ns1\n"
        "ns1  IN A   192.0.2.1\n"
        't    IN TXT "from the cli"\n'
    )
    return path


def port_of(serving_line: str) -> int:
    """The port of ``serving <origin> on <host>:<port> (udp+tcp)``."""
    return int(serving_line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])


def start_serve(zone_file, capsys) -> tuple[threading.Thread, int]:
    """``serve --port 0 --max-queries 1`` on a thread, once it listens."""
    server = threading.Thread(
        target=main,
        args=(
            [
                "serve", "--zone", str(zone_file), "--origin", "example.test.",
                "--port", "0", "--max-queries", "1",
            ],
        ),
        daemon=True,
    )
    server.start()
    out = ""
    deadline = time.monotonic() + 10.0
    while "serving" not in out:
        assert server.is_alive() and time.monotonic() < deadline, out
        time.sleep(0.005)
        out += capsys.readouterr().out
    return server, port_of(out)


class TestServeAndDig:
    def test_serve_then_dig(self, zone_file, capsys):
        server, port = start_serve(zone_file, capsys)
        code = main(["dig", "127.0.0.1", "t.example.test.", "TXT", "-p", str(port)])
        server.join(timeout=5.0)
        assert not server.is_alive()  # --max-queries 1 reached
        out = capsys.readouterr().out
        assert code == 0
        assert "from the cli" in out
        assert "NOERROR" in out
        assert "served 1 queries" in out

    def test_dig_tcp(self, zone_file, capsys):
        server, port = start_serve(zone_file, capsys)
        code = main(
            ["dig", "127.0.0.1", "t.example.test.", "TXT", "-p", str(port), "--tcp"]
        )
        server.join(timeout=5.0)
        assert not server.is_alive()
        assert code == 0
        assert "from the cli" in capsys.readouterr().out

    def test_dig_nxdomain_exit_code(self, zone_file, capsys):
        server, port = start_serve(zone_file, capsys)
        code = main(["dig", "127.0.0.1", "gone.example.test.", "A", "-p", str(port)])
        server.join(timeout=5.0)
        assert not server.is_alive()
        assert code == 1
        assert "NXDOMAIN" in capsys.readouterr().out

    def test_serve_rejects_invalid_zone(self, tmp_path, capsys):
        bad = tmp_path / "bad.zone"
        bad.write_text("$TTL 60\n@ IN A 192.0.2.1\n")  # no SOA/NS
        assert_cli_error(
            capsys,
            ["serve", "--zone", str(bad), "--origin", "example.test.",
             "--port", "0", "--max-queries", "1"],
            "serve: ",
        )

    def test_dig_falls_back_to_tcp_for_a_truncated_answer(self, capsys):
        zone = parse_zone_text(
            "$TTL 60\n@ IN SOA ns1 hostmaster 1 7200 3600 1209600 300\n"
            "@ IN NS ns1\nns1 IN A 192.0.2.1\n",
            "example.test.",
        )
        for index in range(20):
            zone.add(Name.from_text("fat.example.test."), RRType.TXT,
                     TXT.from_value(f"{index:02d}-" + "x" * 40))
        with Listener(AuthoritativeServer("fat", [zone])) as server:
            code = main(["dig", "127.0.0.1", "fat.example.test.", "TXT",
                         "-p", str(server.address[1])])
        captured = capsys.readouterr()
        assert code == 0
        assert ";; truncated" in captured.err
        assert all(f"{index:02d}-" in captured.out for index in range(20))

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
    def test_serve_process_runs_one_thread_and_exits_at_max_queries(self, zone_file):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        process = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro", "serve",
                "--zone", str(zone_file), "--origin", "example.test.",
                "--port", "0", "--max-queries", "2",
            ],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            address = ("127.0.0.1", port_of(process.stdout.readline()))
            assert len(os.listdir(f"/proc/{process.pid}/task")) == 1
            assert query_udp(address, "t.example.test.", RRType.TXT).answers
            assert query_tcp(address, "t.example.test.", RRType.TXT).answers
            assert process.wait(timeout=10) == 0
            assert process.stdout.read() == "served 2 queries\n"
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()


def assert_cli_error(capsys, argv: list[str], prefix: str) -> None:
    """``argv`` exits 2 with one ``error: <prefix>…`` line and no traceback."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {prefix}")
    assert "Traceback" not in captured.err


def closed_port(kind: int) -> int:
    """A loopback port nothing listens on (bound, then released)."""
    with socket.socket(socket.AF_INET, kind) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestBadInputIsAnError:
    def test_serve_zone_file_syntax_error(self, tmp_path, capsys):
        bad = tmp_path / "syntax.zone"
        bad.write_text("$TTL 60\n@ IN BOGUS x\n")
        assert_cli_error(
            capsys,
            ["serve", "--zone", str(bad), "--origin", "example.test.", "--port", "0"],
            f"serve: {bad}: line 2: unknown RR type",
        )

    def test_serve_missing_zone_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.zone"
        assert_cli_error(
            capsys,
            ["serve", "--zone", str(missing), "--origin", "example.test.",
             "--port", "0"],
            f"serve: {missing}: ",
        )

    def test_dig_tcp_to_a_closed_port(self, capsys):
        port = closed_port(socket.SOCK_STREAM)
        assert_cli_error(
            capsys,
            ["dig", "127.0.0.1", "t.example.test.", "-p", str(port), "--tcp"],
            f"dig: 127.0.0.1:{port} (tcp): ",
        )

    def test_dig_udp_to_a_closed_port_times_out(self, capsys):
        port = closed_port(socket.SOCK_DGRAM)
        assert_cli_error(
            capsys,
            ["dig", "127.0.0.1", "t.example.test.", "-p", str(port),
             "--timeout", "0.2"],
            f"dig: 127.0.0.1:{port} (udp): ",
        )
