"""One ``repro serve`` child process: spawn, readiness, probes, SIGTERM drain."""

from __future__ import annotations

import http.client
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time

#: Longest a spawn may take to answer ``/readyz``.
READY_TIMEOUT = 150.0
#: Longest the SIGTERM drain may take before the child is killed.
STOP_TIMEOUT = 60.0
_MARKER = " on http://"


class Server:
    """``repro serve`` over *index*, optionally through the traced launcher.

    ``setup_s`` is the time from the spawn to the first 200 from
    ``/readyz``: interpreter start, index load, log replay, the first
    epoch publish and the bank pack.
    """

    def __init__(self, root, index, workdir, spec, spans=None) -> None:
        self.root = root
        flags = [
            "serve", str(index), "--port", "0",
            "--log", str(workdir / "interactions.wal"),
            "--apply-every", str(spec["apply_every"]),
        ]
        if spans is None:
            self.argv = [sys.executable, "-m", "repro.cli", *flags]
        else:
            launcher = root / "perfbench" / "traced_serve.py"
            self.argv = [sys.executable, str(launcher), str(spans), *flags]
        self.proc: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0
        self.setup_s = 0.0
        self._lines: queue.Queue = queue.Queue()

    def start(self) -> None:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        began = time.monotonic()
        self.proc = subprocess.Popen(
            self.argv, cwd=self.root, env=env, stdout=subprocess.PIPE, text=True
        )
        threading.Thread(target=self._pump, daemon=True).start()
        deadline = began + READY_TIMEOUT
        while True:
            try:
                line = self._lines.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("server did not come up in time") from None
            if line is None:
                raise RuntimeError(f"server exited with code {self.proc.wait()}")
            if _MARKER in line:
                address = line.split(_MARKER, 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
                break
        while self._get("/readyz")[0] != 200:
            if time.monotonic() > deadline:
                raise RuntimeError("server never reported ready")
            time.sleep(0.005)
        self.setup_s = time.monotonic() - began

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request("GET", path, headers={"Connection": "close"})
            response = conn.getresponse()
            return response.status, response.read()
        except OSError:
            return 0, b""
        finally:
            conn.close()

    def stats(self) -> dict:
        status, body = self._get("/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(body)

    def sample(self, video_ids, top_k: int) -> list[tuple[str, int, dict | None]]:
        """Answers to *video_ids*, asked one by one outside the window."""
        out = []
        for vid in video_ids:
            status, body = self._get(f"/recommend/{vid}?top_k={top_k}")
            out.append((vid, status, json.loads(body) if body else None))
        return out

    def _proc_file(self, name: str) -> str:
        with open(f"/proc/{self.proc.pid}/{name}") as handle:
            return handle.read()

    def cpu_seconds(self) -> float:
        """User + system CPU of the server process so far."""
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM drain (the traced launcher writes its spans then)."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
