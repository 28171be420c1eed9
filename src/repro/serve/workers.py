"""Dispatcher pool: claims queued jobs and runs each in isolation.

A :class:`JobRunner` owns N daemon dispatcher threads.  Each thread
loops: claim the oldest waiting job from the :class:`JobQueue`, execute
it via :func:`repro.parallel.run_isolated` (a dedicated child process
per job), and record the outcome:

* normal return → ``done`` with the worker's summary dict;
* :class:`~repro.parallel.executor.RemoteTaskError` → ``failed`` with
  the original error type (``JobSpecError``, ``TrackingError``, ...);
* :class:`~repro.parallel.executor.TaskTimeout` → ``failed`` with
  ``TaskTimeout`` after the worker is killed;
* :class:`~repro.parallel.executor.WorkerDeath` (SIGKILL, OOM, crash)
  → ``failed`` with ``WorkerDeath`` and the exit code in the message.

The per-job child process is the isolation boundary the fault tests
exercise: killing one job's worker cannot corrupt the dispatcher, the
queue, or any other tenant's job.  ``pause()``/``resume()`` gate the
claim loop so tests can hold jobs in the waiting state and observe
admission control deterministically.
"""

from __future__ import annotations

import threading

from repro import obs
from repro.obs.log import get_logger
from repro.parallel.executor import (
    RemoteTaskError,
    TaskTimeout,
    WorkerDeath,
    run_isolated,
)
from repro.serve.queue import JobQueue, JobRecord
from repro.serve.runner import run_job
from repro.serve.tenancy import TenantPaths

__all__ = ["JobRunner"]

log = get_logger(__name__)

#: How often an idle dispatcher re-checks for work / shutdown (seconds).
_POLL_S = 0.2


class JobRunner:
    """N dispatcher threads executing queued jobs one child each."""

    def __init__(
        self,
        queue: JobQueue,
        root,
        *,
        workers: int = 2,
        job_timeout: float | None = 300.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.queue = queue
        self.root = str(root)
        self.workers = int(workers)
        self.job_timeout = job_timeout
        self._paused = threading.Event()
        self._stopping = threading.Event()
        self._threads: list[threading.Thread] = []

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "JobRunner":
        if self._threads:
            raise RuntimeError("runner already started")
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._dispatch_loop,
                name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        obs.set_gauge("serve.workers", self.workers)
        return self

    def pause(self) -> None:
        """Stop claiming new jobs (running jobs finish normally).

        Deterministic: once this returns, no dispatcher will claim —
        the gate is re-checked under the queue lock, so even a claimer
        woken by a concurrent submit sees it closed.
        """
        self._paused.set()
        self.queue.kick()

    def resume(self) -> None:
        self._paused.clear()
        self.queue.kick()

    def stop(self, timeout: float = 10.0) -> None:
        """Close the queue and join the dispatcher threads."""
        self._stopping.set()
        self.queue.close()
        for thread in self._threads:
            thread.join(timeout)
        self._threads.clear()

    # -- the loop ------------------------------------------------------

    def _dispatch_loop(self) -> None:
        gate = lambda: not self._paused.is_set()  # noqa: E731
        while not self._stopping.is_set():
            record = self.queue.claim_next(timeout=_POLL_S, gate=gate)
            if record is None:
                continue
            self._execute(record)

    def _execute(self, record: JobRecord) -> None:
        task = {
            "root": self.root,
            "tenant": record.tenant,
            "job_id": record.job_id,
            "spec": record.spec.to_dict(),
        }
        try:
            pid_path = TenantPaths(self.root, record.tenant).pid_path(record.job_id)
            try:
                summary = run_isolated(run_job, task, timeout=self.job_timeout)
            finally:
                # A SIGKILLed worker cannot clean up after itself, so the
                # dispatcher removes the pidfile however the worker
                # exited — before the terminal state becomes visible.
                pid_path.unlink(missing_ok=True)
        except RemoteTaskError as exc:
            log.warning(
                "job %s failed in worker: %s", record.job_id, exc
            )
            self.queue.mark_failed(record.job_id, exc.error_type, exc.message)
        except TaskTimeout as exc:
            log.warning("job %s timed out: %s", record.job_id, exc)
            self.queue.mark_failed(record.job_id, "TaskTimeout", str(exc))
        except WorkerDeath as exc:
            log.warning("job %s worker died: %s", record.job_id, exc)
            self.queue.mark_failed(record.job_id, "WorkerDeath", str(exc))
        except Exception as exc:  # dispatcher-side bug: never hang the job
            log.error("job %s dispatch error: %s", record.job_id, exc)
            self.queue.mark_failed(record.job_id, type(exc).__name__, str(exc))
        else:
            if not isinstance(summary, dict):
                summary = {"value": summary}
            self.queue.mark_done(record.job_id, summary)
