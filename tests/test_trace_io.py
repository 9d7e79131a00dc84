"""Tests for trace serialisation."""

import pytest

from repro.errors import TraceError
from repro.isa.opcodes import InstrClass
from repro.trace.attacks import AttackKind, inject_attacks
from repro.trace.generator import generate_trace
from repro.trace.io import load_trace, save_trace
from repro.trace.profiles import PARSEC_PROFILES
from repro.trace.record import InstrRecord
from repro.trace.stream import NO_ADDR, TraceReader


@pytest.fixture
def trace():
    return generate_trace(PARSEC_PROFILES["dedup"], seed=31, length=3000)


class TestRoundTrip:
    def test_records_identical(self, trace, tmp_path):
        # Edge records on top of the generated ones: dst and attack_id
        # None encode as -1 (0 must survive), mem_addr None as NO_ADDR
        # (the largest real address is one short of it), and srcs as
        # (nsrcs, src0, src1).
        for i, edge in enumerate((
                dict(dst=0, srcs=(), mem_addr=NO_ADDR - 1, attack_id=0),
                dict(dst=None, srcs=(7,), mem_addr=None),
                dict(dst=31, srcs=(7, 9), attack_id=None))):
            trace.records.append(InstrRecord(
                seq=len(trace.records), pc=0x1000 + 4 * i, word=0x13,
                opcode=0x13, funct3=0, iclass=InstrClass.INT_ALU,
                **edge))
        path = tmp_path / "t.fgt"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert len(loaded.records) == len(trace.records)
        for a, b in zip(trace.records, loaded.records):
            assert a.seq == b.seq and a.pc == b.pc and a.word == b.word
            assert a.iclass is b.iclass
            assert a.dst == b.dst and a.srcs == b.srcs
            assert a.mem_addr == b.mem_addr and a.mem_size == b.mem_size
            assert a.taken == b.taken and a.target == b.target
            assert a.result == b.result and a.attack_id == b.attack_id

    def test_metadata_preserved(self, trace, tmp_path):
        path = tmp_path / "t.fgt"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.name == trace.name and loaded.seed == trace.seed
        assert loaded.heap_base == trace.heap_base
        assert loaded.warm_end == trace.warm_end
        assert len(loaded.objects) == len(trace.objects)
        for a, b in zip(trace.objects, loaded.objects):
            assert (a.base, a.size, a.alloc_seq, a.free_seq) \
                == (b.base, b.size, b.alloc_seq, b.free_seq)

    def test_attack_ids_preserved(self, trace, tmp_path):
        inject_attacks(trace, AttackKind.OOB_ACCESS, 5)
        path = tmp_path / "t.fgt"
        save_trace(trace, path)
        loaded = load_trace(path)
        orig = {r.seq: r.attack_id for r in trace.records
                if r.attack_id is not None}
        got = {r.seq: r.attack_id for r in loaded.records
               if r.attack_id is not None}
        assert orig == got

    def test_simulation_identical(self, trace, tmp_path):
        from repro.ooo.core import MainCore

        path = tmp_path / "t.fgt"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert MainCore().run_standalone(trace).cycles \
            == MainCore().run_standalone(loaded).cycles

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.fgt"
        path.write_bytes(b"NOTATRACE")
        with pytest.raises(TraceError):
            load_trace(path)

    def test_truncated_rejected(self, trace, tmp_path):
        path = tmp_path / "t.fgt"
        save_trace(trace, path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 10])
        with pytest.raises(TraceError):
            load_trace(path)


class TestLoadErrorReporting:
    """Load errors name the failing record index and file offset (the
    regression for bare-struct-message TraceErrors)."""

    def _data_offset(self, path) -> int:
        from repro.trace.stream import MAGIC
        import struct

        blob = path.read_bytes()
        (header_len,) = struct.unpack(
            "<I", blob[len(MAGIC):len(MAGIC) + 4])
        return len(MAGIC) + 4 + header_len

    def test_truncated_mid_record_names_index_and_offset(
            self, trace, tmp_path):
        from repro.trace.stream import RECORD_BYTES

        path = tmp_path / "t.fgt"
        save_trace(trace, path)
        data_offset = self._data_offset(path)
        blob = path.read_bytes()
        # Cut the file in the middle of record 137; with 16-record
        # chunks that is a misaligned buffer in a later chunk.
        for chunk_records, partial in ((4096, 11), (16, 1), (16, 43)):
            cut = data_offset + 137 * RECORD_BYTES + partial
            path.write_bytes(blob[:cut])
            with pytest.raises(TraceError) as err:
                TraceReader(path, chunk_records=chunk_records).load()
            message = str(err.value)
            assert "record 137" in message
            assert f"file offset {data_offset + 137 * RECORD_BYTES}" \
                in message
            assert f"found {partial}" in message

    def test_truncated_at_record_boundary(self, trace, tmp_path):
        from repro.trace.stream import RECORD_BYTES

        path = tmp_path / "t.fgt"
        save_trace(trace, path)
        data_offset = self._data_offset(path)
        path.write_bytes(
            path.read_bytes()[:data_offset + 2000 * RECORD_BYTES])
        with pytest.raises(TraceError, match="record 2000"):
            load_trace(path)

    def test_corrupt_record_names_index_and_offset(
            self, trace, tmp_path):
        from repro.trace.stream import RECORD_BYTES

        path = tmp_path / "t.fgt"
        save_trace(trace, path)
        data_offset = self._data_offset(path)
        # Clobber record 42's instruction-class byte (offset 14 in the
        # packed layout) with an out-of-range index.
        blob = bytearray(path.read_bytes())
        blob[data_offset + 42 * RECORD_BYTES + 14] = 0xFF
        path.write_bytes(bytes(blob))
        # With 16-record chunks record 42 sits in the third chunk: the
        # index and offset are absolute, not chunk-relative.
        for chunk_records in (4096, 16):
            with pytest.raises(TraceError) as err:
                TraceReader(path, chunk_records=chunk_records).load()
            message = str(err.value)
            assert "record 42" in message
            assert f"file offset {data_offset + 42 * RECORD_BYTES}" \
                in message
            assert "instruction class code 255 out of range" in message

    def test_truncated_header_reported(self, trace, tmp_path):
        path = tmp_path / "t.fgt"
        save_trace(trace, path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(TraceError, match="truncated header"):
            load_trace(path)

    def test_corrupt_header_json_reported(self, trace, tmp_path):
        path = tmp_path / "t.fgt"
        save_trace(trace, path)
        blob = bytearray(path.read_bytes())
        blob[14] = ord("}")  # break the JSON without touching length
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceError, match="corrupt JSON header"):
            load_trace(path)
