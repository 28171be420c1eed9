"""Job-server fault injection: killed workers, timeouts, crashed servers.

The service contract under fault:

* a SIGKILLed job worker produces a ``failed`` record with error type
  ``WorkerDeath`` — never a hung job — and the dispatcher survives to
  run the next job;
* a job overrunning its timeout is killed and marked ``failed`` with
  ``TaskTimeout``;
* a server that dies mid-queue re-queues every interrupted job exactly
  once on restart (one ``requeued`` journal event each), while terminal
  jobs stay terminal and queryable.
"""

from __future__ import annotations

import json
import os
import signal
import time

from repro.serve import JobClient, JobServer, TenantPaths

FAST_SPEC = {
    "kind": "track",
    "app": "hydroc",
    "scenarios": [
        {"block_size": 64, "ranks": 8, "iterations": 3},
        {"block_size": 64, "ranks": 8, "iterations": 4},
    ],
    "seeds": [1, 2],
}


def wait_for_pidfile(paths: TenantPaths, job_id: str, timeout: float = 60.0) -> int:
    """Poll until the job's worker writes its pidfile; return the pid."""
    deadline = time.monotonic() + timeout
    pid_path = paths.pid_path(job_id)
    while time.monotonic() < deadline:
        try:
            return int(pid_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            time.sleep(0.05)
    raise AssertionError(f"worker for job {job_id} never wrote {pid_path}")


def test_sigkilled_worker_fails_the_job_not_the_server(live_server, tmp_path):
    server = live_server(
        JobServer, tmp_path / "srv", workers=1, job_timeout=600.0
    )
    client = JobClient(server.url)
    # hold_s pins the worker alive long enough to target it.
    held = client.submit("ops", dict(FAST_SPEC, hold_s=30.0))["job_id"]
    paths = TenantPaths(server.root, "ops")
    pid = wait_for_pidfile(paths, held)
    os.kill(pid, signal.SIGKILL)

    final = client.wait(held, timeout=60.0)
    assert final["state"] == "failed"
    assert final["error_type"] == "WorkerDeath"
    # Exit code -9 = killed by SIGKILL, preserved in the message.
    assert "-9" in final["error"]
    # The killed worker could not remove its pidfile; the dispatcher
    # did, before the failed state became visible.
    assert not paths.pid_path(held).exists()

    # The dispatcher thread survived: the next job runs to completion.
    survivor = client.submit("ops", FAST_SPEC)["job_id"]
    assert client.wait(survivor, timeout=240.0)["state"] == "done"
    assert list(paths.jobs_dir.glob("*.pid")) == []


def test_job_timeout_kills_the_worker_and_fails_the_job(live_server, tmp_path):
    server = live_server(
        JobServer, tmp_path / "srv", workers=1, job_timeout=2.0
    )
    client = JobClient(server.url)
    job_id = client.submit("ops", dict(FAST_SPEC, hold_s=30.0))["job_id"]
    paths = TenantPaths(server.root, "ops")
    # hold_s outlasts the 2 s timeout, so the worker is alive to be read.
    pid = wait_for_pidfile(paths, job_id)
    final = client.wait(job_id, timeout=60.0)
    assert final["state"] == "failed"
    assert final["error_type"] == "TaskTimeout"
    assert "2" in final["error"]
    # The killed worker could not remove its pidfile; the dispatcher
    # did, before the failed state became visible.
    assert not paths.pid_path(job_id).exists()
    # The worker really is gone, not orphaned behind the failed record.
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        pass  # dead, as required
    else:
        raise AssertionError(f"worker {pid} still alive after timeout")


def test_restart_requeues_interrupted_jobs_exactly_once(live_server, tmp_path):
    root = tmp_path / "srv"
    first = live_server(JobServer, root, workers=1)
    first.runner.pause()
    client = JobClient(first.url)

    waiting = [client.submit("ops", FAST_SPEC)["job_id"] for _ in range(2)]
    doomed = client.submit("ops", FAST_SPEC)["job_id"]
    cancelled = client.submit("other", FAST_SPEC)["job_id"]
    client.cancel(cancelled)
    # Simulate a crash mid-execution: claim one job (journals `started`)
    # and kill the server before it can finish.
    claimed = first.queue.claim_next(timeout=5.0)
    assert claimed is not None and claimed.job_id in waiting + [doomed]
    first.close()

    second = live_server(JobServer, root, workers=2)
    requeued_ids = {r.job_id for r in second.requeued}
    assert requeued_ids == set(waiting) | {doomed}

    # Exactly one `requeued` journal event per interrupted job.
    events = list(second.journal.iter_events())
    requeue_counts: dict[str, int] = {}
    for event in events:
        if event.get("event") == "requeued":
            job = event["job_id"]
            requeue_counts[job] = requeue_counts.get(job, 0) + 1
    assert requeue_counts == {job_id: 1 for job_id in requeued_ids}

    # Terminal jobs stayed terminal and queryable across the restart.
    client2 = JobClient(second.url)
    assert client2.status(cancelled)["state"] == "cancelled"

    # The re-queued jobs drain to done on the new server.
    for job_id in requeued_ids:
        final = client2.wait(job_id, timeout=300.0)
        assert final["state"] == "done", final
        payload = json.loads(client2.result(job_id))
        assert payload["schema"] == "repro.serve.result/1"
    # The interrupted job's history is honest: its pre-crash claim
    # counts, so it finished on its second attempt.
    assert client2.status(claimed.job_id)["attempts"] == 2
    for job_id in requeued_ids - {claimed.job_id}:
        assert client2.status(job_id)["attempts"] == 1
    # Every worker has exited, so no tenant keeps a pidfile behind.
    assert list(root.glob("tenants/*/jobs/*.pid")) == []
