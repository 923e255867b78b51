"""Start, probe and stop a ``repro serve`` process."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import time
from typing import List, Optional

_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class ServerProc:
    """One server subprocess; stderr goes to ``log_path``."""

    def __init__(self, argv: List[str], env: dict, log_path: str):
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                     stdout=self._log,
                                     stderr=subprocess.STDOUT)
        self.host = "127.0.0.1"
        self.port: Optional[int] = None

    def wait_listening(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(self.log_path, encoding="utf-8",
                      errors="replace") as fh:
                match = _LISTENING.search(fh.read())
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return self.port
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"server did not start; log:\n{self.log_tail()}")

    def log_tail(self, n: int = 2000) -> str:
        with open(self.log_path, encoding="utf-8", errors="replace") as fh:
            return fh.read()[-n:]

    def cpu_s(self) -> float:
        """CPU time of the server and its reaped children (pool workers)."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks = sum(int(f) for f in fields[11:15])  # utime stime cu cs
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> int:
        """Graceful SIGTERM drain; kill if it does not exit in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        return self.proc.returncode
