"""Property tests for the FGTRACE1 record columns.

Every record is one fixed-width ``RECORD_STRUCT`` row; these tests pin
its per-field encodings through the writer and the chunked reader:
arbitrary in-range records must survive records → file → records
unchanged whatever the chunk size, the file body must equal
``pack_record`` applied per row, every sentinel encoding
(``mem_addr`` ``NO_ADDR``, ``attack_id``/``dst`` ``-1``, ``srcs``
truncation) must round-trip, and corrupt rows must be named by their
absolute record index.
"""

import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.isa.opcodes import InstrClass
from repro.trace.record import InstrRecord
from repro.trace.stream import (
    NO_ADDR,
    RECORD_BYTES,
    RECORD_STRUCT,
    TraceReader,
    TraceWriter,
    pack_record,
    parse_header,
)

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
U32 = st.integers(min_value=0, max_value=(1 << 32) - 1)
U16 = st.integers(min_value=0, max_value=(1 << 16) - 1)
U8 = st.integers(min_value=0, max_value=255)

records_strategy = st.builds(
    InstrRecord,
    seq=st.just(0),  # assigned by decode position, not encoded
    pc=U64,
    word=U32,
    opcode=U8,
    funct3=st.integers(min_value=0, max_value=7),
    iclass=st.sampled_from(list(InstrClass)),
    dst=st.one_of(st.none(), st.integers(min_value=0, max_value=31)),
    srcs=st.lists(U8, max_size=2).map(tuple),
    mem_addr=st.one_of(
        st.none(),
        # NO_ADDR (all-ones) is the None sentinel; real addresses stop
        # one short of it.
        st.integers(min_value=0, max_value=NO_ADDR - 1)),
    mem_size=U16,
    taken=st.booleans(),
    target=U64,
    result=U64,
    attack_id=st.one_of(
        st.none(), st.integers(min_value=0, max_value=(1 << 31) - 1)),
)

record_lists = st.lists(records_strategy, max_size=40)

# Byte offset of the instruction-class code inside one packed row
# (after pc, word, opcode and funct3).
ICLASS_OFFSET = struct.calcsize("<QIBB")


def write_records(path, records) -> int:
    """Write ``records`` as an FGTRACE1 file; returns the data offset."""
    with TraceWriter(path, "columns", seed=0) as writer:
        writer.extend(records)
        writer.finalize()
    with open(path, "rb") as fh:
        return parse_header(fh, path)[1]


def decode(records, chunk_records=4096) -> list[InstrRecord]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.fgt"
        write_records(path, records)
        return TraceReader(path, chunk_records=chunk_records).load().records


def assert_records_equal(decoded, originals):
    assert len(decoded) == len(originals)
    for index, (got, want) in enumerate(zip(decoded, originals)):
        assert got.seq == index
        for field in ("pc", "word", "opcode", "funct3", "iclass",
                      "dst", "srcs", "mem_addr", "mem_size", "taken",
                      "target", "result", "attack_id"):
            assert getattr(got, field) == getattr(want, field), (
                f"row {index} field {field}")


class TestLayout:
    def test_dtype_matches_scalar_record_size(self):
        assert RECORD_BYTES == RECORD_STRUCT.size == 50

    def test_dtype_has_no_padding(self):
        fields = RECORD_STRUCT.format.lstrip("<")
        total = sum(struct.calcsize("<" + code) for code in fields)
        assert total == RECORD_BYTES

    def test_class_table_matches_enum(self):
        # The class code is the enum position, and every code decodes
        # back to its class.
        records = [InstrRecord(seq=i, pc=i, word=0, opcode=0, funct3=0,
                               iclass=cls)
                   for i, cls in enumerate(InstrClass)]
        for index, rec in enumerate(records):
            assert pack_record(rec)[ICLASS_OFFSET] == index
        assert [rec.iclass for rec in decode(records)] == list(InstrClass)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(record_lists)
    def test_records_to_columns_and_back(self, records):
        assert_records_equal(decode(records), records)

    @settings(max_examples=100, deadline=None)
    @given(record_lists)
    def test_to_bytes_matches_scalar_encoder(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.fgt"
            data_offset = write_records(path, records)
            body = path.read_bytes()[data_offset:]
        assert body == b"".join(pack_record(rec) for rec in records)

    @settings(max_examples=100, deadline=None)
    @given(record_lists)
    def test_from_bytes_matches_scalar_decoder(self, records):
        # One record per chunk decodes exactly like one whole chunk.
        assert_records_equal(decode(records, chunk_records=1),
                             decode(records))

    @settings(max_examples=50, deadline=None)
    @given(record_lists, st.integers(min_value=1, max_value=16))
    def test_start_seq_offsets_every_row(self, records, chunk_records):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.fgt"
            write_records(path, records)
            chunks = list(TraceReader(path, chunk_records=chunk_records))
        starts = list(range(0, len(records), chunk_records))
        assert [chunk[0].seq for chunk in chunks] == starts
        assert_records_equal([rec for chunk in chunks for rec in chunk],
                             records)

    def test_empty_chunk(self, tmp_path):
        path = tmp_path / "t.fgt"
        data_offset = write_records(path, [])
        assert path.read_bytes()[data_offset:] == b""
        reader = TraceReader(path)
        assert len(reader) == 0
        assert list(reader) == []
        assert reader.load().records == []


class TestSentinels:
    """The three sentinel encodings, pinned explicitly (hypothesis
    covers them statistically; these make the contract readable)."""

    def base_record(self, **overrides):
        fields = dict(seq=0, pc=0x1000, word=0x13, opcode=0x13,
                      funct3=0, iclass=InstrClass.INT_ALU)
        fields.update(overrides)
        return InstrRecord(**fields)

    def row(self, record):
        """The packed fields of ``record`` and its decoded copy."""
        return (RECORD_STRUCT.unpack(pack_record(record)),
                decode([record])[0])

    def test_no_addr_sentinel(self):
        fields, rec = self.row(self.base_record(mem_addr=None))
        assert fields[9] == NO_ADDR
        assert rec.mem_addr is None
        # The largest real address survives (off-by-one guard).
        _, rec = self.row(self.base_record(mem_addr=NO_ADDR - 1))
        assert rec.mem_addr == NO_ADDR - 1

    def test_attack_id_sentinel(self):
        fields, rec = self.row(self.base_record(attack_id=None))
        assert fields[14] == -1
        assert rec.attack_id is None
        _, rec = self.row(self.base_record(attack_id=0))
        assert rec.attack_id == 0

    def test_dst_sentinel(self):
        fields, rec = self.row(self.base_record(dst=None))
        assert fields[5] == -1
        assert rec.dst is None
        _, rec = self.row(self.base_record(dst=0))
        assert rec.dst == 0

    def test_srcs_truncation(self):
        for srcs in ((), (7,), (7, 9)):
            fields, rec = self.row(self.base_record(srcs=srcs))
            assert fields[6] == len(srcs)
            assert rec.srcs == srcs


class TestCorruption:
    def records(self, count):
        return [InstrRecord(seq=i, pc=0x1000 + i, word=0x13,
                            opcode=0x13, funct3=0,
                            iclass=InstrClass.INT_ALU)
                for i in range(count)]

    def test_misaligned_buffer_rejected(self, tmp_path):
        path = tmp_path / "t.fgt"
        data_offset = write_records(path, self.records(2))
        path.write_bytes(
            path.read_bytes()[:data_offset + RECORD_BYTES + 1])
        with pytest.raises(TraceError, match="truncated at record 1"):
            TraceReader(path).load()

    def test_bad_class_code_names_row(self, tmp_path):
        path = tmp_path / "t.fgt"
        data_offset = write_records(path, self.records(104))
        blob = bytearray(path.read_bytes())
        # First invalid code, row 102 (third chunk of 50).
        blob[data_offset + 102 * RECORD_BYTES + ICLASS_OFFSET] = \
            len(InstrClass)
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceError, match="record 102") as err:
            TraceReader(path, chunk_records=50).load()
        assert (f"instruction class code {len(InstrClass)} out of range"
                in str(err.value))

    def test_clean_chunk_reports_no_bad_row(self, tmp_path):
        path = tmp_path / "t.fgt"
        write_records(path, self.records(1))
        assert len(TraceReader(path).load().records) == 1
