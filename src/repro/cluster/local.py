"""Spawn and supervise a local N-shard cluster as subprocesses.

:class:`LocalCluster` is the process half of ``repro-cluster``: it
launches N independent ``python -m repro.service serve`` workers (each a
real OS process with its own event loop and simulation pool, written to
an ephemeral port published through a port file), pointed at one
*shared* result-cache directory — which is what keeps re-routed and
re-run work bit-identical and cheap: any shard can serve any finished
job from the common cache.

The manager owns the whole lifecycle:

* **start** — spawn workers, wait for every port file (the handshake
  that the listener is bound), fail loudly with the worker's captured
  log if one dies during startup;
* **kill_shard** — SIGKILL one worker mid-run (chaos testing: the
  coordinator's probes must evict it and re-route its jobs);
* **stop** — SIGTERM everyone (triggering the graceful drain: refuse
  new work, finish admitted jobs, flush caches), bounded wait, SIGKILL
  stragglers, then remove the scratch directory.

Worker stdout/stderr land in per-shard log files under the cluster's
scratch directory so a failed CI run can print exactly what each worker
saw.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional, Tuple

from repro.harness.envutil import knob

__all__ = ["LocalCluster"]


class _Worker:
    """One spawned shard process and its artifacts."""

    def __init__(self, index: int, process: subprocess.Popen,
                 port_file: Path, log_path: Path, scratch_dir: Path):
        self.index = index
        self.process = process
        self.port_file = port_file
        self.log_path = log_path
        self.scratch_dir = scratch_dir
        self.port: Optional[int] = None

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    def log_tail(self, lines: int = 30) -> str:
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return "<no log captured>"
        return "\n".join(text.splitlines()[-lines:])


class LocalCluster:
    """N shard workers as subprocesses over one shared cache directory."""

    def __init__(self, shards: Optional[int] = None,
                 workers_per_shard: int = 1,
                 queue_depth: Optional[int] = None,
                 cache_dir: Optional[os.PathLike] = None,
                 workdir: Optional[os.PathLike] = None,
                 host: str = "127.0.0.1",
                 startup_timeout_s: float = 60.0,
                 extra_env: Optional[dict] = None):
        self.n_shards = shards if shards is not None \
            else knob("REPRO_CLUSTER_SHARDS")
        if self.n_shards < 1:
            raise ValueError("a cluster needs at least one shard")
        # One worker per shard by default: the shards themselves are the
        # parallelism (N processes on N cores); per-shard pools multiply
        # on top for bigger machines.
        self.workers_per_shard = max(1, workers_per_shard)
        self.queue_depth = queue_depth
        self.host = host
        self.startup_timeout_s = startup_timeout_s
        self.extra_env = dict(extra_env or {})
        self._own_workdir = workdir is None
        self.workdir = Path(workdir) if workdir is not None else Path(
            tempfile.mkdtemp(prefix="repro-cluster-"))
        self.cache_dir = Path(cache_dir) if cache_dir is not None \
            else self.workdir / "cache"
        self.workers: List[_Worker] = []

    # --- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "LocalCluster":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def start(self) -> "LocalCluster":
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        # Workers must import the same `repro` this process runs.
        import repro

        src_root = str(Path(repro.__file__).parents[1])
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env.update(self.extra_env)
        for index in range(self.n_shards):
            port_file = self.workdir / ("shard%d.port" % index)
            log_path = self.workdir / ("shard%d.log" % index)
            # Per-shard scratch dir, handed to the worker as TMPDIR so
            # everything it tempfile()s is attributable and removable.
            scratch_dir = self.workdir / ("shard%d.tmp" % index)
            scratch_dir.mkdir(parents=True, exist_ok=True)
            worker_env = dict(env)
            worker_env["TMPDIR"] = str(scratch_dir)
            command = [
                sys.executable, "-m", "repro.service", "serve",
                "--host", self.host, "--port", "0",
                "--port-file", str(port_file),
                "--workers", str(self.workers_per_shard),
                "--cache-dir", str(self.cache_dir),
            ]
            if self.queue_depth is not None:
                command += ["--queue-depth", str(self.queue_depth)]
            log_handle = open(log_path, "wb")
            try:
                process = subprocess.Popen(
                    command, env=worker_env, cwd=str(self.workdir),
                    stdout=log_handle, stderr=subprocess.STDOUT,
                    start_new_session=True)
            finally:
                log_handle.close()
            self.workers.append(_Worker(index, process, port_file, log_path,
                                        scratch_dir))
        self._await_ports()
        return self

    def _await_ports(self) -> None:
        deadline = time.monotonic() + self.startup_timeout_s
        for worker in self.workers:
            while worker.port is None:
                if not worker.alive:
                    raise RuntimeError(
                        "shard %d died during startup (exit %s); log tail:\n"
                        "%s" % (worker.index, worker.process.returncode,
                                worker.log_tail()))
                try:
                    text = worker.port_file.read_text().strip()
                except OSError:
                    text = ""
                if text:
                    worker.port = int(text)
                    break
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        "shard %d did not publish a port within %gs; log "
                        "tail:\n%s" % (worker.index, self.startup_timeout_s,
                                       worker.log_tail()))
                time.sleep(0.05)

    # --- introspection ------------------------------------------------------

    @property
    def addresses(self) -> List[Tuple[str, int]]:
        """(host, port) per shard, in shard order — feed the
        coordinator."""
        return [(self.host, worker.port) for worker in self.workers
                if worker.port is not None]

    def alive(self, index: int) -> bool:
        return self.workers[index].alive

    # --- chaos & shutdown ---------------------------------------------------

    def kill_shard(self, index: int) -> None:
        """SIGKILL one worker (no drain — simulates a crash)."""
        worker = self.workers[index]
        if worker.alive:
            worker.process.kill()
            worker.process.wait(timeout=30)

    def leftover_artifacts(self) -> List[Path]:
        """Transient per-shard files still on disk (port files, scratch
        dirs).  E2e teardowns assert this is empty after :meth:`stop`;
        logs and the shared cache are durable artifacts, not leaks."""
        leftovers: List[Path] = []
        for worker in self.workers:
            if worker.port_file.exists():
                leftovers.append(worker.port_file)
            if worker.scratch_dir.exists():
                leftovers.append(worker.scratch_dir)
        return leftovers

    def stop(self, drain_timeout_s: float = 60.0) -> None:
        """Graceful shutdown: SIGTERM (drain), bounded wait, SIGKILL.

        Always removes the transient per-shard artifacts — port files
        and scratch (TMPDIR) dirs — even for a caller-owned workdir;
        logs and any caller-provided cache dir are kept unless the
        whole workdir is ours to delete.
        """
        for worker in self.workers:
            if worker.alive:
                try:
                    worker.process.send_signal(signal.SIGTERM)
                except OSError:
                    pass
        deadline = time.monotonic() + drain_timeout_s
        for worker in self.workers:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                worker.process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                worker.process.kill()
                try:
                    worker.process.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    pass
        for worker in self.workers:
            try:
                worker.port_file.unlink()
            except OSError:
                pass
            shutil.rmtree(worker.scratch_dir, ignore_errors=True)
        if self._own_workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)
