"""Trace serialisation: save and reload generated workloads.

Traces are deterministic given (profile, seed, length), but attack
injection mutates them and experiments may want to archive the exact
workload a result came from.  The format is a compact fixed-width
binary: a JSON header (name, seed, regions, heap objects) followed by
one 50-byte little-endian record per instruction.

The format primitives live in :mod:`repro.trace.stream`, which also
provides chunked bounded-memory access to the same files
(:class:`~repro.trace.stream.TraceReader` /
:class:`~repro.trace.stream.TraceWriter`); this module keeps the
whole-trace convenience API.  Load errors name the failing record
index and file offset, so a truncated or corrupted archive points at
the damage instead of raising a bare struct error.
"""

from __future__ import annotations

import struct
from pathlib import Path

from repro.trace.record import Trace
from repro.trace.stream import (
    MAGIC,
    NO_ADDR as _NO_ADDR,
    RECORD_STRUCT as _RECORD,
    TraceMeta,
    TraceReader,
    pack_record,
)

__all__ = ["MAGIC", "load_trace", "save_trace"]


def save_trace(trace: Trace, path: str | Path) -> None:
    """Write a trace (records + metadata) to ``path``."""
    header_bytes = TraceMeta.from_trace(trace).header_bytes()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for rec in trace.records:
            fh.write(pack_record(rec))


def load_trace(path: str | Path) -> Trace:
    """Read a trace previously written by :func:`save_trace` (or by a
    :class:`~repro.trace.stream.TraceWriter`)."""
    return TraceReader(path).load()
