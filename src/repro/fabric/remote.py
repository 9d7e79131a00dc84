"""Client-side fabric backend: submit over the wire, poll to futures.

:class:`FabricExecutor` is what the service
:class:`~repro.service.client.Client` dispatches to when
``REPRO_FABRIC=host:port`` (or ``Client(fabric=...)``) selects the
fleet: pending specs are serialized and submitted to the master in one
request, and a poller thread resolves the per-spec futures as the
master reports terminal states.  Specs are *fully resolved* before
they cross the wire — ``length=None`` is pinned to the client's
``resolved_length()`` — so what the fleet simulates can never depend
on a worker's environment, and the worker files each record under the
exact key the client computed.
"""

from __future__ import annotations

import concurrent.futures as futures
import threading

from repro.errors import FabricError, RunCancelled
from repro.fabric.protocol import PROTO_VERSION, Connection, parse_address
from repro.runner.spec import RunSpec
from repro.service.serialization import record_from_dict, spec_to_dict

__all__ = ["ENV_FABRIC", "FabricExecutor"]

#: ``host:port`` of the fabric master; when set, every Client
#: dispatches uncached specs to the fleet instead of a local backend.
ENV_FABRIC = "REPRO_FABRIC"

#: Seconds between completion polls (the latency floor for streaming
#: results back; submissions and cancels are immediate requests).
DEFAULT_POLL_INTERVAL = 0.05


class FabricExecutor:
    """One client session against a fabric master."""

    def __init__(self, address: str):
        self.address = address
        host, port = parse_address(address)
        self._conn = Connection.connect(host, port)
        self._conn.request({"type": "hello", "role": "client",
                            "proto": PROTO_VERSION})
        self._watch: dict[str, futures.Future] = {}
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._poller: threading.Thread | None = None

    # -- dispatch ----------------------------------------------------------
    def dispatch(self, pending: list[tuple[str, RunSpec]],
                 by_key: dict[str, futures.Future]) -> None:
        """Submit ``(key, spec)`` pairs; resolves each future either
        immediately (master answered from its tables/store) or through
        the poller as workers finish."""
        payload = []
        for key, spec in pending:
            # Pin environment-dependent defaults before serializing:
            # the key was computed from the resolved length, and the
            # fleet must simulate exactly what the client named.
            resolved = spec if spec.length is not None \
                else spec.with_(length=spec.resolved_length())
            payload.append({"key": key, "spec": spec_to_dict(resolved)})
        for key, _spec in pending:
            by_key[key].set_running_or_notify_cancel()
        try:
            reply = self._conn.request(
                {"type": "submit", "specs": payload})
        except FabricError as exc:
            for key, _spec in pending:
                if not by_key[key].done():
                    by_key[key].set_exception(exc)
            return
        statuses = reply.get("statuses", {})
        watch: list[str] = []
        for key, _spec in pending:
            future = by_key[key]
            settled = self._settle(future,
                                   statuses.get(key, {"state": "queued"}),
                                   key)
            if not settled:
                watch.append(key)
        if watch:
            with self._lock:
                for key in watch:
                    self._watch[key] = by_key[key]
            self._wake.set()
            self._ensure_poller()

    @staticmethod
    def _resolve(future: futures.Future, record=None,
                 exc: Exception | None = None) -> None:
        """Settle a future, tolerating a racing resolver."""
        try:
            if exc is not None:
                future.set_exception(exc)
            else:
                future.set_result(record)
        except futures.InvalidStateError:  # pragma: no cover - race
            pass

    def _settle(self, future: futures.Future, status: dict,
                key: str) -> bool:
        """Resolve ``future`` from a terminal master status; False if
        the task is still live."""
        state = status.get("state")
        if state == "done":
            try:
                record = record_from_dict(status["record"],
                                          expect_key=key)
            except Exception as exc:
                self._resolve(future, exc=FabricError(
                    f"undecodable record for {key[:12]}…: {exc}"))
                return True
            self._resolve(future, record=record)
            return True
        if state == "failed":
            self._resolve(future, exc=FabricError(
                f"fabric run {key[:12]}… failed: "
                f"{status.get('error', 'unknown error')}"))
            return True
        if state == "cancelled":
            self._resolve(future, exc=RunCancelled(
                f"run {key[:12]}… was cancelled on the fabric"))
            return True
        return False

    # -- polling -----------------------------------------------------------
    def _ensure_poller(self) -> None:
        if self._poller is None or not self._poller.is_alive():
            self._poller = threading.Thread(
                target=self._poll_loop, daemon=True,
                name="fabric-poller")
            self._poller.start()

    def _poll_loop(self) -> None:
        while not self._stop.is_set():
            with self._lock:
                keys = list(self._watch)
            if not keys:
                self._wake.wait(timeout=1.0)
                self._wake.clear()
                continue
            try:
                reply = self._conn.request({"type": "poll",
                                            "keys": keys})
            except FabricError as exc:
                self._fail_all(exc)
                return
            for key, status in reply.get("done", {}).items():
                with self._lock:
                    future = self._watch.pop(key, None)
                if future is not None and not future.done():
                    self._settle(future, status, key)
            self._stop.wait(DEFAULT_POLL_INTERVAL)

    def _fail_all(self, exc: Exception) -> None:
        with self._lock:
            watched = list(self._watch.values())
            self._watch.clear()
        for future in watched:
            if not future.done():
                self._resolve(future, exc=FabricError(
                    f"fabric connection lost: {exc}"))

    # -- control -----------------------------------------------------------
    def cancel(self, key: str) -> None:
        """Best-effort cancellation relay to the master."""
        try:
            self._conn.request({"type": "cancel", "keys": [key]})
        except FabricError:
            pass

    def stats(self) -> dict:
        """The master's live counters/roster (see
        :meth:`repro.fabric.master.FabricMaster.stats`)."""
        return self._conn.request({"type": "stats"})["stats"]

    def close(self) -> None:
        self._stop.set()
        self._wake.set()
        self._fail_all(FabricError("client closed"))
        if self._poller is not None:
            self._poller.join(timeout=2)
        self._conn.close()
