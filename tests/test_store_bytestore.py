"""ByteStore backends: unit behaviour, reader parity, and close semantics."""

import os
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.store import (
    ArchiveError,
    ArchiveReader,
    ArchiveWriter,
    ByteStore,
    FileByteStore,
    MemoryByteStore,
    MmapByteStore,
    open_bytestore,
)

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
GOLDEN_STEMS = sorted(p.stem for p in GOLDEN_DIR.glob("*.xfa"))


@pytest.fixture()
def sample_file(tmp_path):
    path = tmp_path / "sample.bin"
    path.write_bytes(bytes(range(256)) * 4)
    return path


# --------------------------------------------------------------------------- #
# backend units
# --------------------------------------------------------------------------- #
class TestFileByteStore:
    def test_pread(self, sample_file):
        with FileByteStore(path=sample_file) as store:
            assert store.pread(0, 4) == bytes([0, 1, 2, 3])
            assert store.pread(256, 2) == bytes([0, 1])
            assert store.size() == 1024

    def test_short_read_at_eof(self, sample_file):
        with FileByteStore(path=sample_file) as store:
            assert store.pread(1020, 100) == bytes([252, 253, 254, 255])

    def test_needs_exactly_one_of_path_or_fh(self, sample_file):
        with pytest.raises(ValueError, match="exactly one"):
            FileByteStore()
        with pytest.raises(ValueError, match="exactly one"):
            with open(sample_file, "rb") as fh:
                FileByteStore(path=sample_file, fh=fh)

    def test_borrowed_handle_stays_open(self, sample_file):
        with open(sample_file, "rb") as fh:
            store = FileByteStore(fh=fh)
            assert store.pread(0, 1) == b"\x00"
            store.close()
            assert store.closed
            assert not fh.closed  # borrowed, not owned

    def test_owned_handle_closes(self, sample_file):
        store = FileByteStore(path=sample_file)
        store.close()
        store.close()  # idempotent
        assert store.closed
        with pytest.raises(ValueError, match="closed"):
            store.pread(0, 1)

    def test_view_falls_back_to_pread(self, sample_file):
        with FileByteStore(path=sample_file) as store:
            assert isinstance(store.view(1, 3), bytes)


class TestMmapByteStore:
    def test_pread_and_view(self, sample_file):
        with MmapByteStore(sample_file) as store:
            assert store.pread(2, 3) == bytes([2, 3, 4])
            view = store.view(2, 3)
            assert isinstance(view, memoryview)
            assert bytes(view) == bytes([2, 3, 4])
            view.release()
            assert store.size() == 1024

    def test_empty_file_rejected(self, tmp_path):
        empty = tmp_path / "empty.bin"
        empty.touch()
        with pytest.raises(ValueError, match="empty"):
            MmapByteStore(empty)

    def test_close_is_idempotent_and_deterministic(self, sample_file):
        store = MmapByteStore(sample_file)
        store.close()
        store.close()
        assert store.closed
        with pytest.raises(ValueError, match="closed"):
            store.view(0, 1)

    def test_close_raises_on_leaked_view(self, sample_file):
        store = MmapByteStore(sample_file)
        leaked = store.view(0, 16)
        with pytest.raises(BufferError):
            store.close()
        leaked.release()
        store.close()
        assert store.closed

    def test_concurrent_lock_free_preads(self, sample_file):
        store = MmapByteStore(sample_file)
        errors = []

        def hammer():
            try:
                for _ in range(200):
                    offset = 17
                    assert store.pread(offset, 8) == bytes(range(17, 25))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        store.close()


class TestMemoryByteStore:
    def test_round_trip(self):
        store = MemoryByteStore(b"hello world")
        assert store.pread(6, 5) == b"world"
        view = store.view(0, 5)
        assert bytes(view) == b"hello"
        view.release()
        assert store.size() == 11
        store.close()
        store.close()
        with pytest.raises(ValueError, match="closed"):
            store.size()


class TestOpenBytestore:
    def test_explicit_backends(self, sample_file):
        with open_bytestore(sample_file, "file") as store:
            assert store.name == "file"
        with open_bytestore(sample_file, "mmap") as store:
            assert store.name == "mmap"

    def test_auto_prefers_mmap(self, sample_file):
        with open_bytestore(sample_file, "auto") as store:
            assert store.name == "mmap"

    def test_auto_falls_back_for_empty_file(self, tmp_path):
        empty = tmp_path / "empty.bin"
        empty.touch()
        with open_bytestore(empty, "auto") as store:
            assert store.name == "file"

    def test_unknown_backend_rejected(self, sample_file):
        with pytest.raises(ValueError, match="unknown io backend"):
            open_bytestore(sample_file, "tape")

    def test_is_bytestore(self, sample_file):
        assert isinstance(open_bytestore(sample_file, "auto"), ByteStore)


# --------------------------------------------------------------------------- #
# reader integration: backend parity, close semantics
# --------------------------------------------------------------------------- #
class TestReaderBackends:
    def test_backend_property(self, multi_codec_archive_master):
        with ArchiveReader(multi_codec_archive_master, backend="mmap") as reader:
            assert reader.backend == "mmap"
        with ArchiveReader(multi_codec_archive_master, backend="file") as reader:
            assert reader.backend == "file"
        with ArchiveReader(multi_codec_archive_master) as reader:
            assert reader.backend == "mmap"  # auto resolves to mmap on disk files
        assert reader.backend == "closed"

    def test_unknown_backend_rejected(self, multi_codec_archive_master):
        with pytest.raises(ValueError, match="unknown io backend"):
            ArchiveReader(multi_codec_archive_master, backend="tape")

    def test_read_field_bit_identical_across_backends(self, multi_codec_archive_master):
        with ArchiveReader(multi_codec_archive_master, backend="file") as via_file:
            expected = {name: via_file.read_field(name) for name in via_file.names}
        with ArchiveReader(multi_codec_archive_master, backend="mmap") as via_mmap:
            for name, data in expected.items():
                got = via_mmap.read_field(name)
                assert got.dtype == data.dtype
                assert np.array_equal(got, data)

    def test_deep_verify_on_mmap_backend(self, multi_codec_archive_master):
        with ArchiveReader(multi_codec_archive_master, backend="mmap", jobs=2) as reader:
            assert reader.verify(deep=True)["ok"]

    @pytest.mark.parametrize("stem", GOLDEN_STEMS)
    def test_golden_archives_bit_identical_across_backends(self, stem):
        path = GOLDEN_DIR / f"{stem}.xfa"
        with ArchiveReader(path, backend="file") as via_file:
            expected = {name: via_file.read_field(name) for name in via_file.names}
            steps = via_file.steps
        with ArchiveReader(path, backend="mmap") as via_mmap:
            for name, data in expected.items():
                assert np.array_equal(via_mmap.read_field(name), data), (
                    f"{stem}:{name} differs between file and mmap backends"
                )

        if not steps:
            return
        with ArchiveReader(path, backend="file") as via_file:
            expected_steps = {step: via_file.read_timestep(step) for step in steps}
        with ArchiveReader(path, backend="mmap") as via_mmap:
            for step, fieldset in expected_steps.items():
                decoded = via_mmap.read_timestep(step)
                for field in fieldset:
                    assert np.array_equal(decoded[field.name].data, field.data), (
                        f"{stem} step {step}:{field.name} differs between backends"
                    )

    def test_corruption_still_detected_on_mmap(self, multi_codec_archive_master, copy_archive):
        from repro.store import ArchiveCorruptionError

        path = copy_archive(multi_codec_archive_master)
        with ArchiveReader(path, backend="mmap") as reader:
            entry = reader.field("FLNT")
            chunk = entry.chunks[0]
            # flip payload bytes behind the open reader: the mapping shares
            # pages with the file, so the CRC check must still catch it
            with open(path, "r+b") as fh:
                fh.seek(chunk.offset)
                original = fh.read(4)
                fh.seek(chunk.offset)
                fh.write(bytes(b ^ 0xFF for b in original))
            with pytest.raises(ArchiveCorruptionError, match="CRC mismatch"):
                reader.read_field("FLNT")


class TestReaderClose:
    def test_close_is_idempotent(self, multi_codec_archive_master):
        reader = ArchiveReader(multi_codec_archive_master, backend="mmap")
        reader.read_field("FLNT")
        reader.close()
        reader.close()
        with pytest.raises(ArchiveError, match="closed"):
            reader.read_field("FLNT")

    def test_context_manager_closes(self, multi_codec_archive_master):
        with ArchiveReader(multi_codec_archive_master, backend="mmap") as reader:
            reader.read_field("FLNT")
        with pytest.raises(ArchiveError, match="closed"):
            reader.verify()

    def test_mmap_store_is_released_on_close(self, multi_codec_archive_master):
        reader = ArchiveReader(multi_codec_archive_master, backend="mmap")
        store = reader._fetcher.store
        reader.read_field("FLNT")
        reader.close()
        assert store.closed  # unmapped deterministically, not left to GC

    def test_failed_open_does_not_leak(self, tmp_path):
        bogus = tmp_path / "bogus.xfa"
        bogus.write_bytes(b"not an archive, but long enough to try parsing" * 4)
        with pytest.raises(ArchiveError):
            ArchiveReader(bogus, backend="mmap")


# --------------------------------------------------------------------------- #
# read-only cached chunks (regression: caller mutation must not poison cache)
# --------------------------------------------------------------------------- #
class TestReadOnlyCache:
    def test_get_chunk_returns_read_only(self, multi_codec_archive_master):
        with ArchiveReader(multi_codec_archive_master) as reader:
            chunk = reader._fetcher.get_chunk("FLNT", 0)
            assert not chunk.flags.writeable
            with pytest.raises(ValueError):
                chunk[0, 0] = 0.0

    def test_cached_hit_is_read_only_too(self, multi_codec_archive_master):
        with ArchiveReader(multi_codec_archive_master) as reader:
            reader._fetcher.get_chunk("FLNT", 0)
            hit = reader._fetcher.get_chunk("FLNT", 0)
            assert not hit.flags.writeable

    def test_read_region_results_stay_writable_and_fresh(self, multi_codec_archive_master):
        with ArchiveReader(multi_codec_archive_master) as reader:
            first = reader.read_field("FLNT")
            assert first.flags.writeable  # public reads hand out private copies
            first[:] = -1.0
            second = reader.read_field("FLNT")
            assert not np.array_equal(second, first)

    def test_freeze_copies_non_owned_buffers(self):
        from repro.store import SharedChunkCache, freeze_chunk

        backing = np.arange(16, dtype=np.float64)
        view = backing[2:10]
        frozen = freeze_chunk(view)
        assert not frozen.flags.writeable
        backing[:] = 0.0  # mutating the original buffer must not reach the cache copy
        assert np.array_equal(frozen, np.arange(2, 10, dtype=np.float64))

        cache = SharedChunkCache(max_bytes=1 << 20)
        owned = np.ones(8)
        cache.put("k", owned)
        stored = cache.get("k")
        assert not stored.flags.writeable
        # a view handed to the single-flight path is copied before caching
        computed = cache.get_or_compute("v", lambda: backing[2:10])
        assert not computed.flags.writeable and computed.base is None


# --------------------------------------------------------------------------- #
# append + recovery stay on the file backend; generations stay consistent
# --------------------------------------------------------------------------- #
class TestAppendGenerations:
    def _write_base(self, path):
        data = np.linspace(0.0, 1.0, 32 * 32, dtype=np.float64).reshape(32, 32)
        with ArchiveWriter(path, chunk_shape=(16, 16)) as writer:
            writer.add_field("base", data, codec="lossless")
        return data

    def test_reader_holding_old_generation_stays_consistent(self, tmp_path):
        path = tmp_path / "grow.xfa"
        data = self._write_base(path)

        with ArchiveReader(path, backend="mmap") as old_reader:
            gen_before = old_reader.generation
            before = old_reader.read_field("base")

            extra = np.full((32, 32), 7.0)
            with ArchiveWriter(path, mode="a") as appender:
                appender.add_field("extra", extra, codec="lossless")

            # the old reader keeps serving its generation's bytes mid-append
            assert np.array_equal(old_reader.read_field("base"), before)
            assert np.array_equal(before, data)
            assert "extra" not in old_reader.names

            with ArchiveReader(path, backend="mmap") as new_reader:
                assert new_reader.generation > gen_before
                assert np.array_equal(new_reader.read_field("extra"), extra)
                assert np.array_equal(new_reader.read_field("base"), data)

    def test_generation_matches_published_end(self, tmp_path):
        path = tmp_path / "gen.xfa"
        self._write_base(path)
        with ArchiveReader(path) as reader:
            assert reader.generation == os.path.getsize(path)

    def test_recovery_works_on_both_backends(self, tmp_path):
        path = tmp_path / "torn.xfa"
        self._write_base(path)
        size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"\x01" * 64)  # torn tail: payload bytes past the footer

        for backend in ("file", "mmap"):
            with pytest.raises(ArchiveError):
                ArchiveReader(path, backend=backend)
            with ArchiveReader(path, backend=backend, recover=True) as reader:
                assert reader.generation == size
                assert reader.verify(deep=True)["ok"]


# --------------------------------------------------------------------------- #
# telemetry
# --------------------------------------------------------------------------- #
class TestStoreIoTelemetry:
    def test_mmap_records_view_metrics(self, multi_codec_archive_master):
        from repro import obs

        recorder = obs.Recorder()
        previous = obs.set_recorder(recorder)
        try:
            with ArchiveReader(multi_codec_archive_master, backend="mmap") as reader:
                reader.read_field("FLNT")
        finally:
            obs.set_recorder(previous)
        snapshot = recorder.snapshot()
        assert snapshot.counter("store.io.view_calls") > 0
        assert snapshot.counter("store.io.view_bytes") > 0

    def test_file_records_pread_metrics(self, multi_codec_archive_master):
        from repro import obs

        recorder = obs.Recorder()
        previous = obs.set_recorder(recorder)
        try:
            with ArchiveReader(multi_codec_archive_master, backend="file") as reader:
                reader.read_field("FLNT")
        finally:
            obs.set_recorder(previous)
        snapshot = recorder.snapshot()
        assert snapshot.counter("store.io.pread_calls") > 0
        assert snapshot.counter("store.io.pread_bytes") > 0
        assert snapshot.histograms["store.io.pread_seconds"].count > 0
