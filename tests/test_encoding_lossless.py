"""Unit tests for the lossless byte backends."""

import pytest

from repro.encoding.lossless import (
    LosslessBackend,
    RawBackend,
    ZlibBackend,
    available_backends,
    get_backend,
    register_backend,
)


class TestBackends:
    def test_zlib_round_trip(self):
        backend = ZlibBackend()
        payload = b"abc" * 1000
        compressed = backend.compress(payload)
        assert backend.decompress(compressed) == payload
        assert len(compressed) < len(payload)

    def test_zlib_rejects_trailing_garbage(self):
        backend = ZlibBackend()
        with pytest.raises(ValueError, match="1 trailing bytes"):
            backend.decompress(backend.compress(b"abc" * 100) + b"\x00")

    def test_zlib_rejects_truncated_stream(self):
        backend = ZlibBackend()
        with pytest.raises(ValueError, match="truncated"):
            backend.decompress(backend.compress(bytes(range(256)) * 8)[:-4])

    def test_raw_round_trip(self):
        backend = RawBackend()
        assert backend.decompress(backend.compress(b"hello")) == b"hello"

    def test_zlib_level_validation(self):
        with pytest.raises(ValueError):
            ZlibBackend(level=99)

    def test_get_backend_by_name(self):
        assert isinstance(get_backend("zlib"), ZlibBackend)
        assert isinstance(get_backend("raw"), RawBackend)

    def test_get_backend_passthrough_instance(self):
        backend = ZlibBackend(level=1)
        assert get_backend(backend) is backend

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            get_backend("lzma-nonexistent")

    def test_available_backends(self):
        names = available_backends()
        assert "zlib" in names and "raw" in names

    def test_register_custom_backend(self):
        class ReverseBackend(LosslessBackend):
            name = "reverse-test"

            def compress(self, data):
                return bytes(reversed(data))

            def decompress(self, data):
                return bytes(reversed(data))

        register_backend(ReverseBackend)
        backend = get_backend("reverse-test")
        assert backend.decompress(backend.compress(b"xyz")) == b"xyz"

    def test_register_rejects_non_backend(self):
        with pytest.raises(TypeError):
            register_backend(object)
