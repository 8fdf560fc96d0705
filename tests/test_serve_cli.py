"""Tests for the ``repro-serve`` command line.

The server runs as ``python -m repro.serve`` in a subprocess, the way
operators and ``perfbench/run.py`` start it: the first stdout line is
the startup banner, whose ``http://host:port`` token is how a client
finds an ephemeral port, and SIGTERM drains it to a clean exit.
"""

import contextlib
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from http.client import HTTPConnection

import pytest

from repro.serve import sharding_supported
from repro.serve.cli import main
from tests.test_serve_loop import make_workdir

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("cli-runs") / "cli-run")
    return make_workdir(root, "cli-run")


@contextlib.contextmanager
def serving(workdir, stderr_path, *extra):
    """``python -m repro.serve`` on an ephemeral port, stopped on exit."""
    env = dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=SRC)
    with open(stderr_path, "w", encoding="utf-8") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--workdir", workdir,
             "--port", "0", *extra],
            stdout=subprocess.PIPE, stderr=err, env=env, text=True)
    try:
        yield proc
    finally:
        if proc.poll() is None:
            # SIGTERM first: the parent forwards it to its shards, and
            # a SIGKILLed parent would leave them running
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        proc.stdout.close()


def address(banner):
    """``(host, port)`` parsed from a banner line as perfbench does."""
    host, port = banner.split("http://", 1)[1].split()[0].split(":")
    return host, int(port)


def healthz(host, port):
    conn = HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", "/healthz")
        resp = conn.getresponse()
        resp.read()
        return resp.status
    finally:
        conn.close()


def test_banner_healthz_and_clean_sigterm(workdir, tmp_path):
    stderr_path = tmp_path / "serve.stderr"
    with serving(workdir, stderr_path) as proc:
        banner = proc.stdout.readline()
        assert "cli-run on http://" in banner
        assert healthz(*address(banner)) == 200
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
    assert "clean shutdown" in stderr_path.read_text(encoding="utf-8")


@pytest.mark.skipif(not sharding_supported(),
                    reason="needs SO_REUSEPORT + fork")
def test_sharded_banner_and_clean_sigterm(workdir, tmp_path):
    stderr_path = tmp_path / "serve.stderr"
    with serving(workdir, stderr_path, "--procs", "2",
                 "--job-workers", "1") as proc:
        # the parent's banner and one per shard, each a whole line
        # (the shards share the parent's stdout)
        lines = [proc.stdout.readline() for _ in range(3)]
        assert sorted(line.split(" on http://")[0] for line in lines) == [
            "repro-serve: 2 shards", "repro-serve: shard 0",
            "repro-serve: shard 1"]
        assert all(line.count("http://") == 1 for line in lines)
        banner = next(line for line in lines if " shards on " in line)
        assert healthz(*address(banner)) == 200
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
    err = stderr_path.read_text(encoding="utf-8")
    assert err.count("clean shutdown") == 2


def request(host, port, method, path, body=None):
    """One request on a fresh connection: ``(status, decoded JSON)``."""
    conn = HTTPConnection(host, port, timeout=30)
    try:
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


@pytest.mark.skipif(not sharding_supported(),
                    reason="needs SO_REUSEPORT + fork")
def test_sharded_jobs_share_one_id_space(workdir, tmp_path):
    """Whichever shard accepts a job and whichever answers a poll, the
    id names one job: the shards share the job database."""
    with serving(workdir, tmp_path / "serve.stderr", "--procs", "2",
                 "--job-workers", "1") as proc:
        lines = [proc.stdout.readline() for _ in range(3)]
        host, port = address(next(line for line in lines
                                  if " shards on " in line))
        seeds = {}
        for seed in range(6):
            status, body = request(host, port, "POST", "/api/simulate",
                                   json.dumps({"seed": seed, "days": 1,
                                               "rate_scale": 0.01,
                                               "variants": ["baseline"]}))
            assert status == 202
            seeds[body["job"]["id"]] = seed
        assert len(seeds) == 6
        for job_id, seed in seeds.items():
            for _ in range(30):
                status, job = request(host, port, "GET",
                                      f"/api/jobs/{job_id}")
                assert status == 200 and job["id"] == job_id
                if job["status"] == "done":
                    assert job["result"]["seed"] == seed
        deadline = time.monotonic() + 60
        for job_id, seed in seeds.items():
            _, job = request(host, port, "GET", f"/api/jobs/{job_id}")
            while job["status"] != "done" and time.monotonic() < deadline:
                time.sleep(0.02)
                _, job = request(host, port, "GET", f"/api/jobs/{job_id}")
            assert job["status"] == "done" and job["id"] == job_id
            assert job["result"]["seed"] == seed
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0


def _proc_state(pid):
    """``pid``'s state letter from ``/proc/<pid>/stat``; None once gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as f:
            stat = f.read()
    except (FileNotFoundError, ProcessLookupError):
        return None
    return stat.rsplit(")", 1)[1].split()[0]


def _is_serve_process(pid):
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return b"repro.serve" in f.read()
    except (FileNotFoundError, ProcessLookupError):
        return False


def _refuses(host, port):
    try:
        socket.create_connection((host, port), timeout=1).close()
    except ConnectionRefusedError:
        return True
    except OSError:
        return False
    return False


@pytest.mark.skipif(not sharding_supported() or
                    not os.path.isdir("/proc/self"),
                    reason="needs SO_REUSEPORT + fork and /proc")
def test_shards_exit_when_parent_is_sigkilled(workdir, tmp_path):
    """A SIGKILLed parent can forward nothing; its shards notice the
    death on their own, drain, and release the port."""
    shard_pids = []
    try:
        with serving(workdir, tmp_path / "serve.stderr", "--procs", "2",
                     "--job-workers", "1") as proc:
            lines = [proc.stdout.readline() for _ in range(3)]
            banner = next(line for line in lines if " shards on " in line)
            shard_pids = [int(pid) for pid in re.search(
                r"\(pids \[([\d, ]+)\]\)", banner).group(1).split(",")]
            assert len(shard_pids) == 2
            host, port = address(banner)
            assert healthz(host, port) == 200
            proc.kill()
            proc.wait(timeout=10)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                states = [_proc_state(pid) for pid in shard_pids]
                if _refuses(host, port) and \
                        all(state in (None, "Z") for state in states):
                    break
                time.sleep(0.1)
            assert _refuses(host, port)
            assert [_proc_state(pid) in (None, "Z")
                    for pid in shard_pids] == [True, True]
    finally:
        for pid in shard_pids:
            if _proc_state(pid) not in (None, "Z") and \
                    _is_serve_process(pid):
                os.kill(pid, signal.SIGKILL)


def test_procs_below_one_exits_2(workdir, capsys):
    assert main(["--workdir", workdir, "--procs", "0"]) == 2
    assert "--procs must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--transport", "thread"],
                                  ["--verbose"]])
def test_removed_options_rejected(workdir, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--workdir", workdir, *argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
