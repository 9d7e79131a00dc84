"""The fabric master: queue, leases, heartbeats, retry, write-back.

One master owns the authoritative task table for a fleet.  Clients
submit serialized :class:`~repro.runner.spec.RunSpec`\\ s (deduplicated
by cache key); workers register, lease one spec at a time, heartbeat
while executing, and stream records back.  The master never simulates
— it answers submissions from its in-memory record table or the shared
:class:`~repro.service.store.ResultStore` when it can (a restarted
master over a warm store re-serves whole grids without granting a
single lease), and queues the rest.

Failure model (the full matrix is tabulated in DESIGN.md):

* **Worker death** is detected two ways — EOF on its connection (a
  killed process's sockets close immediately) and a heartbeat gap
  longer than the lease TTL (a wedged-but-connected worker).  Either
  evicts the worker and re-queues its in-flight leases at the front of
  the queue, bounded by ``max_retries`` re-leases per task; beyond
  that the task fails with the worker's obituary.
* **Deterministic execution errors** (a spec that raises in
  ``execute_spec``) fail the task immediately — re-running identical
  inputs would raise identically, so retrying only burns the fleet.
* **Cancellation** is cooperative end to end: a queued task cancels
  instantly; a leased task's key rides back to its worker on the next
  heartbeat/lease reply, where it trips the same checkpoint polling
  that ``REPRO_CANCEL_DIR`` marker files drive in-process.  A record
  that races a cancel and wins is kept — the work is already paid for
  and the result is valid.

Concurrency: one accept thread, one handler thread per connection,
one reaper thread; all state behind a single lock (operations are
dictionary-sized, never simulations, so the lock is never held long).
"""

from __future__ import annotations

import os
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import FabricError
from repro.fabric.protocol import PROTO_VERSION, Connection
from repro.runner.spec import RunSpec
from repro.service.serialization import record_to_dict, spec_from_dict
from repro.service.store import ResultStore

__all__ = [
    "ENV_LEASE_TTL",
    "ENV_MAX_RETRIES",
    "FabricMaster",
]

#: Seconds of heartbeat silence after which a worker is declared dead
#: and its leases are re-queued.
ENV_LEASE_TTL = "REPRO_FABRIC_LEASE_TTL"
DEFAULT_LEASE_TTL = 30.0

#: How many times a task may be *re*-leased after losing its worker
#: before it is declared failed.
ENV_MAX_RETRIES = "REPRO_FABRIC_MAX_RETRIES"
DEFAULT_MAX_RETRIES = 2

# Task states.  queued/leased are live; done/failed/cancelled are
# terminal and what ``poll`` reports back to clients.
QUEUED = "queued"
LEASED = "leased"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: How far into the queue a lease looks for a spec matching the
#: worker's previously built system (build-once/run-many affinity).
_AFFINITY_WINDOW = 32


@dataclass
class _Task:
    key: str
    spec_dict: dict
    system: str
    state: str = QUEUED
    attempts: int = 0            # lease grants so far
    worker: str | None = None
    record: dict | None = None   # store-document dict when DONE
    error: str | None = None
    cancel_requested: bool = False


@dataclass
class _Worker:
    worker_id: str
    pid: int
    last_seen: float
    leases: set[str] = field(default_factory=set)
    cancels: set[str] = field(default_factory=set)
    last_system: str | None = None


class FabricMaster:
    """The fleet coordinator; see the module docstring for the model.

    ``store`` — ``None`` reads ``REPRO_RESULT_STORE``, ``False``
    disables persistence, a path/:class:`ResultStore` uses that store
    (shared with the workers, who receive its root at registration).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 store: "ResultStore | str | Path | bool | None" = None,
                 lease_ttl: float | None = None,
                 max_retries: int | None = None):
        self.host = host
        self._requested_port = port
        if store is None:
            self.store = ResultStore.from_env()
        elif store is False:
            self.store = None
        elif isinstance(store, (str, Path)):
            self.store = ResultStore(store)
        else:
            self.store = store
        self.lease_ttl = lease_ttl if lease_ttl is not None else float(
            os.environ.get(ENV_LEASE_TTL, DEFAULT_LEASE_TTL))
        self.max_retries = max_retries if max_retries is not None \
            else int(os.environ.get(ENV_MAX_RETRIES,
                                    DEFAULT_MAX_RETRIES))
        self._tasks: dict[str, _Task] = {}
        self._queue: deque[str] = deque()
        self._workers: dict[str, _Worker] = {}
        self._worker_seq = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._server: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._counters = {
            "submitted": 0, "deduplicated": 0, "store_hits": 0,
            "completed": 0, "failed": 0, "cancelled": 0,
            "leases_granted": 0, "retries": 0, "workers_registered": 0,
            "workers_evicted": 0,
        }

    # -- lifecycle ---------------------------------------------------------
    @property
    def port(self) -> int:
        if self._server is None:
            raise FabricError("master is not started")
        return self._server.getsockname()[1]

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "FabricMaster":
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self.host, self._requested_port))
        server.listen(64)
        server.settimeout(0.5)
        self._server = server
        for target in (self._accept_loop, self._reaper_loop):
            thread = threading.Thread(target=target, daemon=True,
                                      name=f"fabric-{target.__name__}")
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._server is not None:
            self._server.close()
        for thread in self._threads:
            thread.join(timeout=5)

    def serve_forever(self) -> None:
        """Block until a ``shutdown`` request arrives (CLI mode)."""
        self._stop.wait()
        self.stop()

    def __enter__(self) -> "FabricMaster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- threads -----------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                sock, _addr = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listening socket closed by stop()
            thread = threading.Thread(
                target=self._serve_connection, args=(Connection(sock),),
                daemon=True, name="fabric-conn")
            thread.start()

    def _serve_connection(self, conn: Connection) -> None:
        worker_id: str | None = None
        try:
            while not self._stop.is_set():
                try:
                    message = conn.recv(timeout=0.5)
                except socket.timeout:
                    continue
                except FabricError:
                    break  # torn frame: treat like a disconnect
                if message is None:
                    break
                reply, worker_id = self._handle(message, worker_id)
                try:
                    conn.send(reply)
                except FabricError:
                    break
        finally:
            conn.close()
            if worker_id is not None:
                self._evict_worker(worker_id, "connection closed")

    def _reaper_loop(self) -> None:
        interval = max(0.05, min(1.0, self.lease_ttl / 4))
        while not self._stop.wait(interval):
            deadline = time.monotonic() - self.lease_ttl
            with self._lock:
                stale = [w.worker_id for w in self._workers.values()
                         if w.last_seen < deadline]
            for worker_id in stale:
                self._evict_worker(
                    worker_id,
                    f"no heartbeat for {self.lease_ttl}s")

    # -- dispatch ----------------------------------------------------------
    def _handle(self, message: dict, worker_id: str | None,
                ) -> tuple[dict, str | None]:
        kind = message.get("type")
        handler = getattr(self, f"_on_{kind}", None)
        if handler is None:
            return {"type": "reply", "ok": False,
                    "error": f"unknown message type {kind!r}"}, worker_id
        try:
            reply = handler(message)
        except Exception as exc:  # refuse the request, keep serving
            return {"type": "reply", "ok": False,
                    "error": f"{type(exc).__name__}: {exc}"}, worker_id
        if kind == "hello" and message.get("role") == "worker" \
                and reply.get("ok"):
            worker_id = reply["worker_id"]
        return reply, worker_id

    @staticmethod
    def _ok(**payload) -> dict:
        return {"type": "reply", "ok": True, **payload}

    # -- registration ------------------------------------------------------
    def _on_hello(self, message: dict) -> dict:
        if message.get("proto") != PROTO_VERSION:
            raise FabricError(
                f"protocol version {message.get('proto')!r} != "
                f"{PROTO_VERSION}")
        role = message.get("role")
        if role == "client":
            return self._ok(lease_ttl=self.lease_ttl)
        if role != "worker":
            raise FabricError(f"unknown role {role!r}")
        with self._lock:
            self._worker_seq += 1
            worker_id = f"w{self._worker_seq}"
            self._workers[worker_id] = _Worker(
                worker_id=worker_id, pid=message.get("pid", 0),
                last_seen=time.monotonic())
            self._counters["workers_registered"] += 1
        return self._ok(
            worker_id=worker_id,
            lease_ttl=self.lease_ttl,
            heartbeat_s=max(0.05, self.lease_ttl / 3),
            store_root=str(self.store.root)
            if self.store is not None else None)

    def _worker_for(self, message: dict) -> _Worker:
        worker = self._workers.get(message.get("worker_id"))
        if worker is None:
            raise FabricError(
                f"unknown or evicted worker "
                f"{message.get('worker_id')!r}; re-register")
        worker.last_seen = time.monotonic()
        return worker

    # -- client messages ---------------------------------------------------
    def _on_submit(self, message: dict) -> dict:
        statuses: dict[str, dict] = {}
        with self._lock:
            for item in message.get("specs", ()):
                key = item["key"]
                self._counters["submitted"] += 1
                task = self._tasks.get(key)
                if task is not None:
                    if task.state in (FAILED, CANCELLED):
                        # An explicit resubmission forgives a previous
                        # failure/cancellation: fresh retry budget.
                        task.state = QUEUED
                        task.attempts = 0
                        task.error = None
                        task.cancel_requested = False
                        self._queue.append(key)
                    else:
                        self._counters["deduplicated"] += 1
                    statuses[key] = self._status_of(task)
                    continue
                record = None
                if self.store is not None:
                    stored = self.store.get(key)
                    if stored is not None:
                        record = record_to_dict(stored, key=key)
                        self._counters["store_hits"] += 1
                spec = spec_from_dict(item["spec"])
                task = _Task(key=key, spec_dict=item["spec"],
                             system=repr(spec.system_key()))
                if record is not None:
                    task.state = DONE
                    task.record = record
                else:
                    self._queue.append(key)
                self._tasks[key] = task
                statuses[key] = self._status_of(task)
        return self._ok(statuses=statuses)

    def _status_of(self, task: _Task) -> dict:
        status: dict = {"state": task.state}
        if task.state == DONE:
            status["record"] = task.record
        elif task.state == FAILED:
            status["error"] = task.error
        return status

    def _on_poll(self, message: dict) -> dict:
        done: dict[str, dict] = {}
        pending = 0
        with self._lock:
            for key in message.get("keys", ()):
                task = self._tasks.get(key)
                if task is None:
                    done[key] = {"state": FAILED,
                                 "error": f"unknown task {key[:12]}…"}
                elif task.state in (DONE, FAILED, CANCELLED):
                    done[key] = self._status_of(task)
                else:
                    pending += 1
        return self._ok(done=done, pending=pending)

    def _on_cancel(self, message: dict) -> dict:
        acknowledged: list[str] = []
        with self._lock:
            for key in message.get("keys", ()):
                task = self._tasks.get(key)
                if task is None or task.state in (DONE, FAILED,
                                                  CANCELLED):
                    continue
                task.cancel_requested = True
                if task.state == QUEUED:
                    task.state = CANCELLED
                    self._counters["cancelled"] += 1
                else:  # leased: deliver on the worker's next beat
                    worker = self._workers.get(task.worker)
                    if worker is not None:
                        worker.cancels.add(key)
                acknowledged.append(key)
        return self._ok(cancelled=acknowledged)

    def _on_stats(self, message: dict) -> dict:
        return self._ok(stats=self.stats())

    def _on_shutdown(self, message: dict) -> dict:
        self._stop.set()
        return self._ok()

    # -- worker messages ---------------------------------------------------
    def _grant(self, worker: _Worker) -> _Task | None:
        """Next queued task, preferring one whose system matches what
        the worker last built (session reuse); caller holds the
        lock."""
        chosen: str | None = None
        for index, key in enumerate(self._queue):
            task = self._tasks.get(key)
            if task is None or task.state != QUEUED:
                continue  # lazily skip cancelled/re-leased leftovers
            if chosen is None:
                chosen = key
                if worker.last_system is None:
                    break
            if task.system == worker.last_system:
                chosen = key
                break
            if index >= _AFFINITY_WINDOW:
                break
        if chosen is None:
            # Nothing grantable: drop satisfied leftovers so the deque
            # cannot grow unboundedly with tombstones.
            while self._queue:
                head = self._tasks.get(self._queue[0])
                if head is not None and head.state == QUEUED:
                    break
                self._queue.popleft()
            return None
        self._queue.remove(chosen)
        task = self._tasks[chosen]
        task.state = LEASED
        task.attempts += 1
        task.worker = worker.worker_id
        worker.leases.add(chosen)
        worker.last_system = task.system
        self._counters["leases_granted"] += 1
        return task

    def _on_lease(self, message: dict) -> dict:
        with self._lock:
            worker = self._worker_for(message)
            cancels = sorted(worker.cancels)
            worker.cancels.clear()
            task = self._grant(worker)
            lease = None if task is None else {
                "key": task.key, "spec": task.spec_dict}
        return self._ok(lease=lease, cancel=cancels)

    def _on_heartbeat(self, message: dict) -> dict:
        with self._lock:
            worker = self._worker_for(message)
            cancels = sorted(worker.cancels)
            worker.cancels.clear()
        return self._ok(cancel=cancels)

    def _on_record(self, message: dict) -> dict:
        key = message["key"]
        record_dict = message["record"]
        with self._lock:
            worker = self._worker_for(message)
            worker.leases.discard(key)
            worker.cancels.discard(key)
            task = self._tasks.get(key)
            if task is None:
                raise FabricError(f"record for unknown task "
                                  f"{key[:12]}…")
            if task.state != DONE:
                # A record beats a pending cancel (the work is done)
                # and re-completes idempotently after a re-lease race.
                task.state = DONE
                task.record = record_dict
                task.error = None
                self._counters["completed"] += 1
        if self.store is not None:
            # Write-back outside the lock: decode validates the
            # payload, put() is atomic and idempotent.
            from repro.service.serialization import record_from_dict

            self.store.put(key, record_from_dict(record_dict,
                                                 expect_key=key))
        return self._ok()

    def _on_run_failed(self, message: dict) -> dict:
        key = message["key"]
        with self._lock:
            worker = self._worker_for(message)
            worker.leases.discard(key)
            worker.cancels.discard(key)
            task = self._tasks.get(key)
            if task is None or task.state == DONE:
                return self._ok()
            if message.get("cancelled"):
                task.state = CANCELLED
                self._counters["cancelled"] += 1
            else:
                # Deterministic failure: identical inputs would raise
                # identically on any worker, so never re-lease.
                task.state = FAILED
                task.error = message.get("error", "worker error")
                self._counters["failed"] += 1
        return self._ok()

    # -- eviction ----------------------------------------------------------
    def _evict_worker(self, worker_id: str, reason: str) -> None:
        with self._lock:
            worker = self._workers.pop(worker_id, None)
            if worker is None:
                return
            self._counters["workers_evicted"] += 1
            for key in worker.leases:
                task = self._tasks.get(key)
                if task is None or task.state != LEASED \
                        or task.worker != worker_id:
                    continue
                if task.cancel_requested:
                    task.state = CANCELLED
                    self._counters["cancelled"] += 1
                elif task.attempts <= self.max_retries:
                    task.state = QUEUED
                    task.worker = None
                    self._queue.appendleft(key)
                    self._counters["retries"] += 1
                else:
                    task.state = FAILED
                    task.error = (
                        f"worker {worker_id} died ({reason}) and the "
                        f"task exhausted its {self.max_retries} "
                        f"re-leases")
                    self._counters["failed"] += 1

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict:
        """Counters, live state census, fleet roster and store view —
        the document the CI smoke job uploads."""
        with self._lock:
            states: dict[str, int] = {}
            for task in self._tasks.values():
                states[task.state] = states.get(task.state, 0) + 1
            workers = {
                worker.worker_id: {
                    "pid": worker.pid,
                    "leases": sorted(worker.leases),
                    "idle_s": round(
                        time.monotonic() - worker.last_seen, 3),
                }
                for worker in self._workers.values()
            }
            stats = {
                **self._counters,
                "tasks": states,
                "queue_depth": len(self._queue),
                "workers": workers,
                "lease_ttl": self.lease_ttl,
                "max_retries": self.max_retries,
            }
        if self.store is not None:
            stats["store"] = {"root": str(self.store.root),
                              "entries": self.store.count(),
                              "hits": self.store.hits,
                              "writes": self.store.writes,
                              "index_failures":
                                  self.store.index_failures}
        return stats
