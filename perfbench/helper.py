"""In-process side of the benchmark: runs with the checkout's ``src`` on the path.

``run.py`` never imports ``repro`` itself; it starts this script as a
child process for each job that needs the package:

``fingerprint``
    Byte-compile the package, then print a JSON host fingerprint: CPU
    model and count, the Python, numpy, scipy and networkx versions,
    and the multiprocessing start method the job server's
    ``run_isolated`` ends up using.
``expected JOBS OUT``
    Run each job spec of the JSON list JOBS directly (no server) and
    write ``canonical_json(result_payload(...))`` to ``OUT/<index>.json``.
``generate URL JOBS EXPECTED OUT``
    Run the serve-mix open loop against the job server at URL and
    write one record per job to OUT.
``import-time``
    Print how long ``import repro.cli`` takes in a fresh interpreter.
``traced WORKLOAD OUT -- ARGV...``
    Time ``import repro.cli``, wrap the public functions of each layer
    at every name a caller looks them up by, call
    ``repro.cli.main(ARGV)`` and write the recorded spans to OUT.

Only the standard library is imported before ``import repro.cli`` is
timed.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _fingerprint() -> int:
    import compileall
    import multiprocessing
    import platform

    import networkx
    import numpy
    import scipy

    import repro.cli  # noqa: F401  (whatever the CLI import sets up)
    import repro.parallel.executor  # noqa: F401  (home of run_isolated)
    import repro.serve  # noqa: F401

    # Compile every module now, so no measured process pays for it.
    compileall.compile_dir(os.path.dirname(repro.__file__), quiet=1)
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    print(json.dumps({
        "cpu_model": model or platform.processor() or platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        # run_isolated calls multiprocessing.get_context() with no
        # argument, so it uses the interpreter's default start method.
        "start_method": multiprocessing.get_context().get_start_method(),
    }, sort_keys=True))
    return 0


def _expected(specs_path: str, out_dir: str) -> int:
    from repro.serve import JobSpec, canonical_json, result_payload
    from repro.serve.runner import execute_spec

    with open(specs_path, encoding="utf-8") as handle:
        jobs = json.load(handle)
    for index, _tenant, raw, _due in jobs:
        spec = JobSpec.from_dict(raw)
        result, failures = execute_spec(spec)
        text = canonical_json(result_payload(spec, result, failures))
        with open(os.path.join(out_dir, f"{index}.json"), "w", encoding="utf-8") as out:
            out.write(text)
    return 0


def _generate(url: str, jobs_path: str, expected_dir: str, out_path: str) -> int:
    """Open-loop job generator: one submitting thread, one polling thread.

    Each job is submitted when it is due, whatever happened to earlier
    jobs; its status is then polled until terminal, and a done job's
    result bytes are fetched and compared with the direct run in
    ``expected_dir``.  Times in the records are seconds from the start
    (``time.perf_counter``), except ``seen_epoch``, which is
    ``time.time()`` like the server's own status timestamps.
    """
    import queue
    import threading

    from repro.errors import AdmissionError, ServeError
    from repro.serve.client import JobClient

    poll_s, drain_s = 0.05, 30.0
    with open(jobs_path, encoding="utf-8") as handle:
        jobs = json.load(handle)
    client = JobClient(url, timeout=30.0)
    clock = time.perf_counter
    records = [
        {"index": index, "tenant": tenant, "kind": spec["kind"], "outcome": "unsent",
         "status_ms": []}
        for index, tenant, spec, _due in jobs
    ]
    submitted: queue.Queue = queue.Queue()
    origin = clock() + 0.2

    def poll_loop() -> None:
        active: list[dict] = []
        sending = True
        deadline = None
        while sending or active:
            while True:
                try:
                    item = submitted.get_nowait()
                except queue.Empty:
                    break
                if item is None:
                    sending = False
                    deadline = clock() + drain_s
                else:
                    active.append(item)
            sweep = clock()
            for record in list(active):
                begin = clock()
                try:
                    status = client.status(record["job_id"])
                except (ServeError, OSError) as error:
                    record.update(outcome="error", error=str(error), done=clock())
                    active.remove(record)
                    continue
                record["status_ms"].append((clock() - begin) * 1e3)
                if status["state"] not in ("done", "failed", "cancelled"):
                    continue
                active.remove(record)
                record["seen_epoch"] = time.time()
                for key in ("submitted_at", "started_at", "finished_at"):
                    record[key] = status[key]
                if status["state"] != "done":
                    record.update(outcome="failed", error=status.get("error", ""), done=clock())
                    continue
                begin = clock()
                try:
                    body = client.result(record["job_id"])
                except (ServeError, OSError) as error:
                    record.update(outcome="error", error=str(error), done=clock())
                    continue
                now = clock()
                record["result_ms"] = (now - begin) * 1e3
                with open(os.path.join(expected_dir, f"{record['index']}.json"), "rb") as handle:
                    same = handle.read() == body
                record.update(outcome="ok" if same else "wrong", done=now)
            if deadline is not None and clock() > deadline:
                for record in active:
                    record.update(outcome="timeout", done=clock())
                return
            time.sleep(max(0.0, poll_s - (clock() - sweep)))

    poller = threading.Thread(target=poll_loop, name="perfbench-poller")
    poller.start()
    try:
        for (index, tenant, spec, due_s), record in zip(jobs, records):
            due = origin + due_s
            time.sleep(max(0.0, due - clock()))
            sent = clock()
            record.update(due=due - origin, sent=sent - origin)
            try:
                status = client.submit(tenant, spec)
            except AdmissionError as error:
                record.update(outcome="refused", error=error.reason, done=clock())
                continue
            except (ServeError, OSError) as error:
                record.update(outcome="error", error=str(error), done=clock())
                continue
            record.update(submit_ms=(clock() - sent) * 1e3, job_id=status["job_id"],
                          outcome="pending")
            submitted.put(record)
    finally:
        submitted.put(None)
        poller.join()
    for record in records:
        if "done" in record:
            record["done"] -= origin
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(records, handle)
    return 0


def _import_time() -> int:
    start = time.perf_counter()
    import repro.cli  # noqa: F401

    print(repr(time.perf_counter() - start))
    return 0


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
#: (span name, "module:qualname") of every wrapped public function.
TARGETS = (
    ("apps.run", "repro.apps.base:AppModel.run"),
    ("trace.load", "repro.trace.io:load_trace"),
    ("robust.validate", "repro.robust.validate:validate_trace"),
    ("robust.validate", "repro.robust.validate:validate_frame"),
    ("clustering.frames", "repro.clustering.frames:make_frame"),
    ("clustering.frames", "repro.clustering.frames:make_frames"),
    ("clustering.frames", "repro.clustering.frames:make_frames_partial"),
    ("clustering.dbscan", "repro.clustering.dbscan:DBSCAN.fit"),
    ("alignment", "repro.alignment.msa:star_align"),
    ("alignment", "repro.alignment.spmd:consensus_sequence"),
    ("tracking.normalize", "repro.tracking.scaling:normalize_frames"),
    ("tracking.combine", "repro.tracking.combine:combine_pair"),
    ("tracking.displacement", "repro.tracking.evaluators.displacement:displacement_matrix"),
    ("tracking.callstack", "repro.tracking.evaluators.callstack:callstack_matrix"),
    ("tracking.simultaneity", "repro.tracking.evalcache:EvalCache.simultaneity"),
    ("tracking.consensus", "repro.tracking.evalcache:EvalCache.consensus"),
    ("tracking.sequence", "repro.tracking.evaluators.sequence:sequence_matrix"),
    ("tracking.chain", "repro.tracking.tracker:chain_regions"),
    ("stream.push", "repro.stream.incremental:IncrementalTracker.push"),
    ("stream.checkpoint", "repro.stream.checkpoint:save_checkpoint"),
    ("parallel.cache.get", "repro.parallel.cache:PipelineCache.get"),
    ("parallel.cache.put", "repro.parallel.cache:PipelineCache.put"),
    ("parallel.cache.get", "repro.parallel.cache:PipelineCache.get_labels"),
    ("parallel.cache.put", "repro.parallel.cache:PipelineCache.put_labels"),
)


class Recorder:
    """Spans kept in memory as ``[name, start, end, parent, attrs]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        import functools

        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[4] = _attrs(name, fn.__name__, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target at its definition and at every alias."""
        import importlib

        for name, target in TARGETS:
            module_name, qualname = target.split(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                owner_name, attr = qualname.split(".")
                owner = getattr(module, owner_name)
                setattr(owner, attr, self.wrap(name, owner.__dict__[attr]))
                continue
            original = getattr(module, qualname)
            wrapper = self.wrap(name, original)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                namespace = vars(loaded)
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapper


def _attrs(name: str, fn_name: str, args, kwargs, result):
    """The per-call counts a span carries, by layer."""
    if name in ("apps.run", "trace.load"):
        return {"bursts": len(result)}
    if name == "clustering.dbscan":
        points = args[1] if len(args) > 1 else kwargs["points"]
        return {"points": int(len(points))}
    if name == "stream.checkpoint":
        records = args[2] if len(args) > 2 else kwargs["records"]
        return {"records": len(records)}
    if name == "parallel.cache.get" and fn_name == "get":
        return {"hit": result is not None}
    if name == "parallel.cache.put" and fn_name == "put":
        return {"bytes": os.path.getsize(result)}
    return None


def _traced(workload: str, out_path: str, argv: list[str]) -> int:
    import uuid

    start = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - start
    recorder = Recorder()
    recorder.install()
    code = 1
    try:
        code = repro.cli.main(argv)
    finally:
        document = {
            "workload": workload,
            "run_id": uuid.uuid4().hex[:12],
            "import_s": import_s,
            "span_fields": ["name", "start", "end", "parent", "attrs"],
            "spans": recorder.spans,
        }
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
    return code


def main(argv: list[str]) -> int:
    command, rest = argv[0], argv[1:]
    if command == "fingerprint":
        return _fingerprint()
    if command == "expected":
        return _expected(*rest)
    if command == "generate":
        return _generate(*rest)
    if command == "import-time":
        return _import_time()
    if command == "traced":
        workload, out_path, separator, *program_argv = rest
        if separator != "--":
            raise SystemExit("usage: helper.py traced WORKLOAD OUT -- ARGV...")
        return _traced(workload, out_path, program_argv)
    raise SystemExit(f"unknown helper command {command!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
