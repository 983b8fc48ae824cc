"""Launch and stop the production front door: ``repro serve --replicas 1``.

One :class:`Fleet` is one supervisor process (router + health loop)
plus the replica it spawns.  Set-up time is split at the CLI's
machine-readable ``bound_port=`` line: ``spawn_s`` covers both
interpreter starts and the replica's model build, ``warmup_s`` covers
the first healthy ``/v1/healthz`` and the workload's warm-up requests
(which compile the execution plans its shape buckets need).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

#: Serving knobs left at the CLI defaults (2 workers, 5 ms flush tick,
#: 512-atom / 64-graph budgets); only the fleet shape and model are set.
SERVE_ARGS = ("serve", "--http", "0", "--replicas", "1", "--preset", "small")

#: The served model, for the in-process reference: ``--preset small``
#: with the CLI's default ``--seed 0``.
PRESET = "small"
MODEL_SEED = 0

STARTUP_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0


class FleetError(RuntimeError):
    """The fleet did not come up, or did not stop cleanly."""


def _get_json(url: str, timeout: float = 5.0) -> dict:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


class Fleet:
    """A fresh ``repro serve`` fleet: :meth:`start`, then :meth:`stop`."""

    def __init__(self, root: Path, extra_pythonpath: str | None = None, env: dict | None = None):
        self.root = root
        self.extra_pythonpath = extra_pythonpath
        self.extra_env = env or {}
        self.process: subprocess.Popen | None = None
        self.port = 0
        self.spawn_s = 0.0
        self.replica_pids: list[int] = []
        self._launched_at = 0.0
        self._log: list[str] = []
        self._drainer: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def start(self) -> "Fleet":
        env = dict(os.environ)
        paths = [str(self.root / "src")]
        if self.extra_pythonpath:
            paths.insert(0, self.extra_pythonpath)
        env["PYTHONPATH"] = os.pathsep.join(paths)
        env.update(self.extra_env)
        self._launched_at = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", *SERVE_ARGS],
            cwd=self.root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while True:
            line = self.process.stdout.readline()
            if line.startswith("bound_port="):
                self.port = int(line.split("=", 1)[1])
                break
            if line:
                self._log.append(line.rstrip("\n"))
            if not line or time.monotonic() > deadline:
                self.stop()
                raise FleetError("fleet never reported bound_port:\n" + "\n".join(self._log[-20:]))
        self.spawn_s = time.perf_counter() - self._launched_at
        self._drainer = threading.Thread(target=self._drain, daemon=True)
        self._drainer.start()
        while True:
            try:
                if _get_json(self.url + "/v1/healthz").get("status") == "ok":
                    break
            except (OSError, ValueError):
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise FleetError("fleet never reported a healthy /v1/healthz")
            time.sleep(0.005)
        self.replica_pids = [entry["pid"] for entry in self.stats()["replicas"].values()]
        return self

    def elapsed_s(self) -> float:
        """Seconds since launch (set-up time once warm-up is done)."""
        return time.perf_counter() - self._launched_at

    def _drain(self) -> None:
        for line in self.process.stdout:
            self._log.append(line.rstrip("\n"))

    def stats(self) -> dict:
        """The router's fleet-aggregated ``/v1/stats`` body."""
        return _get_json(self.url + "/v1/stats")

    def model_stats(self) -> dict:
        return self.stats()["models"]["default"]

    def replica_url(self) -> str:
        """The one replica's own address, as the router reports it."""
        replicas = self.stats()["replicas"]
        (entry,) = replicas.values()
        return f"http://127.0.0.1:{entry['port']}"

    def stop(self) -> None:
        """SIGTERM the supervisor (graceful drain) and wait for it."""
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
                for pid in self.replica_pids:  # replicas run in their own session
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                raise FleetError("fleet ignored SIGTERM")
        if self._drainer is not None:
            self._drainer.join(timeout=STOP_TIMEOUT_S)
        process.stdout.close()
        self.process = None
        if process.returncode != 0:
            raise FleetError(
                f"fleet exited {process.returncode}:\n" + "\n".join(self._log[-20:])
            )
