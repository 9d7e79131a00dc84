"""The fabric worker: register, heartbeat, lease, execute, report.

A worker is one process that connects to a master, registers, and then
loops: lease one spec, execute it through the same
:func:`repro.runner.worker.execute_spec` the in-process backends use
(so its per-process build/trace/baseline caches and the persistent
store read-through all apply unchanged), and send the record back.  A
daemon thread heartbeats on the shared connection while the main
thread simulates, keeping the lease alive and carrying cancellation
keys back — the wire extension of the ``REPRO_CANCEL_DIR`` marker
mechanism: the master's cancel set feeds the same ``cancel``
checkpoint callable that marker files feed locally.

The worker inherits the fleet's shared result store from the master's
registration reply unless ``REPRO_RESULT_STORE`` (or an explicit
``store=``) overrides it, so every record it produces is immediately
visible to the master, its sibling workers, and any warm local rerun.

``die_after_leases`` is the fault-injection hook the resilience tests
and drills use: the process hard-exits (``os._exit``) immediately
after accepting its Nth lease, before reporting anything — from the
master's point of view, a machine that caught fire mid-simulation.
"""

from __future__ import annotations

import os
import threading
import time

from repro.errors import FabricError, RunCancelled
from repro.fabric.protocol import PROTO_VERSION, Connection, parse_address
from repro.runner.worker import ENV_STORE, execute_spec
from repro.service.serialization import record_to_dict, spec_from_dict
from repro.service.store import ENV_RESULT_STORE, ResultStore

__all__ = ["FabricWorker"]

#: Idle backoff between lease requests when the queue is empty.
_IDLE_SLEEP = 0.1

#: ``execute_spec`` leans on per-process session/trace caches that
#: assume one simulation at a time per process (the pool backend gives
#: every worker its own interpreter).  Multiple FabricWorkers hosted
#: in one process (tests, embedded fleets) must therefore take turns
#: executing; leasing and heartbeats stay concurrent.
_EXECUTE_LOCK = threading.Lock()


class FabricWorker:
    """One fleet member; ``run()`` blocks until the master goes away
    or :meth:`stop` is called (it is thread-safe to run in a thread)."""

    def __init__(self, address: str,
                 store: "ResultStore | str | bool | None" = None,
                 die_after_leases: int | None = None):
        self.host, self.port = parse_address(address)
        self._store_arg = store
        self.die_after_leases = die_after_leases
        self.worker_id: str | None = None
        self.leases_taken = 0
        self.records_sent = 0
        self._cancelled: set[str] = set()
        self._stop = threading.Event()
        self._conn: Connection | None = None

    def stop(self) -> None:
        self._stop.set()
        # Unblock a worker parked in an idle sleep or a blocking recv.
        if self._conn is not None:
            self._conn.close()

    # -- store resolution --------------------------------------------------
    def _resolve_store(self, master_root: str | None):
        """Explicit ``store=`` beats ``REPRO_RESULT_STORE`` beats the
        master's shared root; the resolved value feeds
        :func:`execute_spec` directly."""
        if self._store_arg is not None:
            return self._store_arg
        if os.environ.get(ENV_RESULT_STORE):
            return ENV_STORE
        if master_root:
            return ResultStore(master_root)
        return False

    # -- heartbeat ---------------------------------------------------------
    def _heartbeat_loop(self, conn: Connection, interval: float) -> None:
        while not self._stop.wait(interval):
            try:
                reply = conn.request({"type": "heartbeat",
                                      "worker_id": self.worker_id},
                                     timeout=interval * 4)
            except FabricError:
                # Master unreachable: the main loop will hit the same
                # wall on its next request and wind down.
                return
            self._cancelled.update(reply.get("cancel", ()))

    # -- main loop ---------------------------------------------------------
    def run(self) -> None:
        conn = Connection.connect(self.host, self.port)
        self._conn = conn
        try:
            hello = conn.request({"type": "hello", "role": "worker",
                                  "pid": os.getpid(),
                                  "proto": PROTO_VERSION})
            self.worker_id = hello["worker_id"]
            store = self._resolve_store(hello.get("store_root"))
            heartbeat_s = hello.get("heartbeat_s", 1.0)
            beat = threading.Thread(
                target=self._heartbeat_loop, args=(conn, heartbeat_s),
                daemon=True, name="fabric-heartbeat")
            beat.start()
            while not self._stop.is_set():
                try:
                    reply = conn.request({"type": "lease",
                                          "worker_id": self.worker_id})
                except FabricError:
                    return  # master gone or connection torn down
                self._cancelled.update(reply.get("cancel", ()))
                lease = reply.get("lease")
                if lease is None:
                    self._stop.wait(_IDLE_SLEEP)
                    continue
                self.leases_taken += 1
                if self.die_after_leases is not None \
                        and self.leases_taken >= self.die_after_leases:
                    # Fault injection: vanish without a goodbye.
                    os._exit(17)
                self._execute(conn, lease["key"], lease["spec"], store)
        finally:
            self._stop.set()
            conn.close()

    def _execute(self, conn: Connection, key: str, spec_dict: dict,
                 store) -> None:
        try:
            spec = spec_from_dict(spec_dict)
            with _EXECUTE_LOCK:
                record = execute_spec(
                    spec, store=store,
                    cancel=lambda: key in self._cancelled)
        except RunCancelled:
            self._cancelled.discard(key)
            report = {"type": "run_failed", "worker_id": self.worker_id,
                      "key": key, "cancelled": True}
        except Exception as exc:
            report = {"type": "run_failed", "worker_id": self.worker_id,
                      "key": key, "cancelled": False,
                      "error": f"{type(exc).__name__}: {exc}"}
        else:
            report = {"type": "record", "worker_id": self.worker_id,
                      "key": key,
                      "record": record_to_dict(record, key=key)}
        try:
            conn.request(report)
        except FabricError:
            self._stop.set()  # master gone; record is in the store
            return
        if report["type"] == "record":
            self.records_sent += 1


def main(argv: list[str] | None = None) -> int:  # pragma: no cover
    """``python -m repro.fabric.worker HOST:PORT`` (thin wrapper; the
    full CLI lives in ``repro.fabric.__main__``)."""
    import sys

    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python -m repro.fabric.worker HOST:PORT",
              file=sys.stderr)
        return 2
    worker = FabricWorker(args[0])
    started = time.monotonic()
    try:
        worker.run()
    except KeyboardInterrupt:
        pass
    print(f"worker {worker.worker_id}: {worker.records_sent} records "
          f"in {time.monotonic() - started:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
