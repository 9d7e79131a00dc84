"""The persistent ResultStore: atomicity, robustness, warm hits."""

import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

from repro.errors import StoreError
from repro.runner import RunSpec
from repro.runner import worker as runner_worker
from repro.service import SCHEMA_VERSION, Client, ResultStore, StoreWarning
from repro.service.serialization import dumps_record
from test_service_serialization import rich_record

LEN = 1500

REPO_ROOT = Path(__file__).resolve().parents[1]


def small_specs():
    return [RunSpec(benchmark=bench, kernels=kernels, length=LEN)
            for bench in ("swaptions", "dedup")
            for kernels in (("pmc",), ("asan",))]


class TestBasics:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        record = rich_record()
        key = record.spec.cache_key()
        assert store.get(key) is None
        store.put(key, record)
        assert key in store
        assert store.get(key) == record
        assert list(store.keys()) == [key]
        assert store.count() == 1

    def test_illegal_keys_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        for bad in ("", "../escape", "a/b", "dot.dot"):
            with pytest.raises(StoreError):
                store.path_for(bad)

    def test_empty_store_is_truthy(self, tmp_path):
        # Regression: `store or None` must never drop an empty store.
        assert bool(ResultStore(tmp_path))


class TestRobustness:
    def _stored(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        record = rich_record()
        key = record.spec.cache_key()
        store.put(key, record)
        return store, record, key

    def test_corrupted_entry_quarantined_with_warning(self, tmp_path):
        store, record, key = self._stored(tmp_path)
        store.path_for(key).write_bytes(b"\x00garbage\xff")
        with pytest.warns(StoreWarning, match="quarantined"):
            assert store.get(key) is None
        # Entry is out of the way, and a re-run can re-store cleanly.
        assert key not in store
        quarantined = list((store.root / "quarantine").iterdir())
        assert len(quarantined) == 1
        store.put(key, record)
        assert store.get(key) == record

    def test_truncated_entry_quarantined(self, tmp_path):
        store, record, key = self._stored(tmp_path)
        data = store.path_for(key).read_bytes()
        store.path_for(key).write_bytes(data[:len(data) // 2])
        with pytest.warns(StoreWarning):
            assert store.get(key) is None
        assert store.quarantined == 1

    def test_wrong_key_content_quarantined(self, tmp_path):
        store, record, key = self._stored(tmp_path)
        other = "0" * 64
        store.path_for(key).replace(store.path_for(other))
        with pytest.warns(StoreWarning):
            assert store.get(other) is None

    def test_schema_mismatch_is_silent_miss_not_quarantine(
            self, tmp_path):
        store, record, key = self._stored(tmp_path)
        payload = json.loads(store.path_for(key).read_bytes())
        payload["schema"] = SCHEMA_VERSION + 7
        store.path_for(key).write_text(json.dumps(payload))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.get(key) is None
        assert store.schema_misses == 1
        # The stale entry is left in place and overwritten by a
        # current-schema re-store.
        assert store.path_for(key).exists()
        store.put(key, record)
        assert store.get(key) == record

    def test_concurrent_writers_one_key(self, tmp_path):
        """Racing writers on one key never leave a torn entry."""
        store = ResultStore(tmp_path / "store")
        record = rich_record()
        key = record.spec.cache_key()
        barrier = threading.Barrier(8)
        errors = []

        def write():
            try:
                barrier.wait(timeout=10)
                for _ in range(5):
                    ResultStore(store.root).put(key, record)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=write) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no quarantine happened
            assert store.get(key) == record
        # No stray temp files left behind.
        assert [p.name for p in store.root.iterdir()
                if p.name.startswith(".tmp-")] == []


class TestDirectoryIsTheState:
    """The ``<key>.json`` documents are the store's only state: no
    side file is written, and counting is one directory scan."""

    def test_root_holds_only_entry_documents(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        record = rich_record()
        keys = [record.spec.cache_key()] + [str(d) * 64 for d in range(3)]
        for key in keys:
            store.put(key, record)
        assert sorted(p.name for p in store.root.iterdir()) == \
            sorted(f"{key}.json" for key in keys)

    def test_count_is_the_json_documents_in_the_root(self, tmp_path):
        """count() sees every entry however it arrived (here one is
        copied in beside the store's own writes) and ignores abandoned
        temp files, quarantine/ and a stray index file that an older
        store version left in the root."""
        store = ResultStore(tmp_path / "store")
        record = rich_record()
        key = record.spec.cache_key()
        store.put(key, record)
        store.put("5" * 64, record)
        copied = "6" * 64
        store.path_for(copied).write_bytes(dumps_record(record, key=copied))
        (store.root / ".tmp-999-0-dead").write_bytes(b"partial")
        (store.root / "quarantine").mkdir()
        (store.root / "quarantine" / f"{'7' * 64}.json.1.corrupt") \
            .write_bytes(b"\x00garbage")
        for name in ("index.sqlite", "index.sqlite-wal",
                     "index.sqlite-shm"):
            (store.root / name).write_bytes(b"not a document")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.count() == 3
            fresh = ResultStore(store.root)
            assert fresh.count() == 3
            assert fresh.get(copied) == record
        assert sorted(fresh.keys()) == sorted([key, "5" * 64, copied])

    def test_import_does_not_load_sqlite3(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else "")
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro, repro.service.store; "
             "print('sqlite3' in sys.modules)"],
            env=env, cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=120, check=True)
        assert out.stdout.strip() == "False"


class TestIndexAndCompaction:
    """``gc()`` compaction (the class name predates the directory-only
    store and is kept so these test ids stay stable)."""

    def _stored(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        record = rich_record()
        key = record.spec.cache_key()
        store.put(key, record)
        return store, record, key

    def test_gc_reclaims_dead_weight_keeps_live(self, tmp_path):
        """Satellite acceptance: gc() removes quarantined corpses,
        abandoned temp files and stale-schema entries; live
        current-schema records are untouched."""
        store, record, key = self._stored(tmp_path)

        # A quarantined corpse (corrupt entry hit by a reader).
        other = "0" * 64
        store.path_for(other).write_bytes(b"\x00garbage")
        with pytest.warns(StoreWarning):
            assert store.get(other) is None
        # A stale-schema entry under another key.
        stale_key = "1" * 64
        payload = json.loads(store.path_for(key).read_bytes())
        payload["schema"] = SCHEMA_VERSION + 7
        store.path_for(stale_key).write_text(json.dumps(payload))
        # An abandoned temp file from a killed writer.
        (store.root / ".tmp-999-0-dead").write_bytes(b"partial")

        summary = store.gc()
        assert summary["kept"] == 1
        assert summary["removed_quarantined"] == 1
        assert summary["removed_stale_schema"] == 1
        assert summary["removed_tmp"] == 1
        assert summary["reclaimed_bytes"] > 0
        assert not (store.root / "quarantine").exists()
        assert not store.path_for(stale_key).exists()
        # The live record survived and is all that is counted.
        assert store.get(key) == record
        assert store.count() == 1

    def test_gc_can_keep_stale_schemas(self, tmp_path):
        store, record, key = self._stored(tmp_path)
        stale_key = "2" * 64
        payload = json.loads(store.path_for(key).read_bytes())
        payload["schema"] = SCHEMA_VERSION + 7
        store.path_for(stale_key).write_text(json.dumps(payload))
        summary = store.gc(keep_latest_schema=False)
        assert summary["removed_stale_schema"] == 0
        assert store.path_for(stale_key).exists()


class TestCrossProcessWarmHit:
    def test_workers_2_second_client_simulates_nothing(self, tmp_path):
        """Satellite acceptance: a grid executed by a 2-worker pool
        lands in the store; a fresh 2-worker client answers the same
        grid entirely from disk (zero dispatches), bit-identically."""
        specs = small_specs()
        store_dir = tmp_path / "store"
        runner_worker.clear_caches()
        with Client(workers=2, store=store_dir, cache=False) as cold:
            first = cold.run(specs)
            assert cold.stats.executed == len(specs)
        assert ResultStore(store_dir).count() == len(specs)

        runner_worker.clear_caches()  # no per-process reuse either
        with Client(workers=2, store=store_dir, cache=False) as warm:
            second = warm.run(specs)
            assert warm.stats.executed == 0
            assert warm.stats.store_hits == len(specs)
        assert second == first

    def test_pool_workers_write_back_reaches_other_clients(
            self, tmp_path):
        """Records simulated inside pool workers are durable: a
        workers=1 client (different process topology) reads them."""
        spec = small_specs()[0]
        store_dir = tmp_path / "store"
        with Client(workers=2, store=store_dir, cache=False) as pool:
            expected = pool.run_one(spec)
        runner_worker.clear_caches()
        with Client(workers=1, store=store_dir, cache=False) as serial:
            assert serial.run_one(spec) == expected
            assert serial.stats.executed == 0
