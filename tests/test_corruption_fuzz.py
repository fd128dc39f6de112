"""Property-based corruption fuzz for chunk decoding.

A chunk whose checksums all pass but whose content is damaged — a flipped
bit, a cut tail or trailing garbage in one section of its container — must
never crash a read with a backend-specific error, and must never decode
silently when bytes are missing or extra: the reader raises
:class:`~repro.store.ArchiveCorruptionError` naming the field and chunk, and
the HTTP service answers 500.  The damage is injected by patching
:meth:`ChunkFetcher.read_payload` (past the chunk CRC), and the section's
container is re-serialised (so its own CRC matches), so it reaches the
entropy and codec decoders.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.container import CompressedBlob
from repro.serve.service import ArchiveService
from repro.store import ArchiveCorruptionError, ArchiveReader, ArchiveWriter, SharedChunkCache
from repro.store.reader import ChunkFetcher
from repro.sz.errors import ErrorBound

#: chunk kind -> ``add_field`` codec arguments.
CHUNK_KINDS = {
    "sz-huffman": {"codec": "sz"},
    "sz-zlib": {"codec": "sz", "entropy": "zlib"},
    "zfp": {"codec": "zfp", "layout": "interleaved"},
    "zfp-grouped": {"codec": "zfp", "layout": "grouped"},
}

SHAPE = (24, 32)
CHUNK = (12, 16)
N_CHUNKS = 4


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    """One small archive per chunk kind, each holding field ``F``."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(7)
    y, x = np.mgrid[0 : SHAPE[0], 0 : SHAPE[1]]
    data = (np.sin(y / 5.0) * np.cos(x / 7.0) + 0.05 * rng.normal(size=SHAPE)).astype(
        np.float32
    )
    paths = {}
    for kind, kwargs in CHUNK_KINDS.items():
        path = root / f"{kind}.xfa"
        with ArchiveWriter(
            path, chunk_shape=CHUNK, error_bound=ErrorBound.relative(1e-3), jobs=1
        ) as writer:
            writer.add_field("F", data, **kwargs)
        paths[kind] = path
    return paths


@st.composite
def corruptions(draw):
    """``(chunk kind, chunk index, section pick, damage kind, damage function)``."""
    kind = draw(st.sampled_from(sorted(CHUNK_KINDS)))
    index = draw(st.integers(0, N_CHUNKS - 1))
    section = draw(st.integers(0, 63))
    damage = draw(st.sampled_from(["flip", "truncate", "garbage"]))
    if damage == "flip":
        where = draw(st.floats(0, 1, exclude_max=True))
        bit = draw(st.integers(0, 7))

        def mutate(raw: bytes) -> bytes:
            out = bytearray(raw)
            if out:
                out[int(where * len(out))] ^= 1 << bit
            return bytes(out)

    elif damage == "truncate":
        keep = draw(st.floats(0, 1, exclude_max=True))

        def mutate(raw: bytes) -> bytes:
            return raw[: int(keep * len(raw))]

    else:
        tail = draw(st.binary(min_size=1, max_size=4))

        def mutate(raw: bytes) -> bytes:
            return raw + tail

    return kind, index, section, damage, mutate


@contextmanager
def damaged_chunk(index, section, mutate):
    """Deliver chunk ``index`` with one container section damaged.

    ``section`` picks the section (modulo the section count, in name order);
    the container is re-serialised around it, so only the decoders can tell.
    """
    original = ChunkFetcher.read_payload

    def read_payload(self, entry, chunk):
        payload = original(self, entry, chunk)
        if chunk.index != index:
            return payload
        blob = CompressedBlob.from_bytes(payload)
        if isinstance(payload, memoryview):
            payload.release()
        names = sorted(blob.sections)
        name = names[section % len(names)]
        blob.sections[name] = mutate(blob.sections[name])
        return blob.to_bytes()

    with mock.patch.object(ChunkFetcher, "read_payload", read_payload):
        yield


def _read(read):
    """``None`` when ``read()`` decodes, else the corruption error it raised."""
    try:
        read()
    except ArchiveCorruptionError as exc:
        return exc
    return None


@settings(max_examples=200, deadline=None)
@given(case=corruptions())
def test_damaged_chunk_is_typed_corruption(archives, case):
    kind, index, section, damage, mutate = case
    path = archives[kind]
    with damaged_chunk(index, section, mutate):
        with ArchiveReader(path, jobs=1) as reader:
            full = _read(lambda: reader.read_field("F"))
        with ArchiveReader(path, jobs=1) as reader:
            preview = _read(lambda: reader.read_region_preview("F", None, fraction=0.5))
        with ArchiveService({"a": path}, cache=SharedChunkCache()) as service:
            status = service.handle_region("a", "F").status

    if damage != "flip":
        # missing or extra bytes never decode silently; a grouped preview may
        # legitimately stop before the damaged group, other codecs preview
        # through a full decode
        assert full is not None
        assert preview is not None or kind == "zfp-grouped"
    for error in (full, preview):
        if error is not None:
            assert f"field 'F' chunk {index}" in str(error)
    assert status == (200 if full is None else 500)
