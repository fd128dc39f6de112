"""Pluggable lossless byte-stream backends.

SZ applies a general-purpose lossless compressor (zstd in the reference
implementation) after Huffman coding.  Offline we use :mod:`zlib` from the
standard library as the equivalent; a ``RawBackend`` pass-through exists for
ablations that isolate the entropy stage.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from typing import Dict, List, Type

__all__ = [
    "LosslessBackend",
    "ZlibBackend",
    "RawBackend",
    "get_backend",
    "available_backends",
    "register_backend",
]


class LosslessBackend(ABC):
    """Interface every lossless byte backend must implement."""

    #: Registry key.
    name: str = "abstract"

    @abstractmethod
    def compress(self, data: bytes) -> bytes:
        """Compress a byte string."""

    @abstractmethod
    def decompress(self, data: bytes) -> bytes:
        """Decompress a byte string produced by :meth:`compress`."""


class ZlibBackend(LosslessBackend):
    """DEFLATE (zlib) backend — the stand-in for SZ's zstd stage."""

    name = "zlib"

    def __init__(self, level: int = 6) -> None:
        if not 0 <= level <= 9:
            raise ValueError("zlib level must be in [0, 9]")
        self.level = level

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(bytes(data), self.level)

    def decompress(self, data: bytes) -> bytes:
        """Inflate exactly one complete stream; truncation or trailing bytes raise."""
        inflater = zlib.decompressobj()
        out = inflater.decompress(data)
        if not inflater.eof:
            raise ValueError("zlib section is truncated (stream has no end marker)")
        if inflater.unused_data:
            raise ValueError(
                f"zlib section has {len(inflater.unused_data)} trailing bytes after the stream"
            )
        return out


class RawBackend(LosslessBackend):
    """Identity backend: stores bytes unmodified (for ablation studies)."""

    name = "raw"

    def compress(self, data: bytes) -> bytes:
        return bytes(data)

    def decompress(self, data: bytes) -> bytes:
        return bytes(data)


_REGISTRY: Dict[str, Type[LosslessBackend]] = {
    ZlibBackend.name: ZlibBackend,
    RawBackend.name: RawBackend,
}


def register_backend(cls: Type[LosslessBackend]) -> Type[LosslessBackend]:
    """Register a new backend class under ``cls.name`` (usable as a decorator)."""
    if not issubclass(cls, LosslessBackend):
        raise TypeError("backend must subclass LosslessBackend")
    _REGISTRY[cls.name] = cls
    return cls


def get_backend(name: str, **kwargs) -> LosslessBackend:
    """Instantiate a backend by name."""
    if isinstance(name, LosslessBackend):
        return name
    key = str(name).lower()
    if key not in _REGISTRY:
        raise ValueError(f"unknown lossless backend {name!r}; available: {sorted(_REGISTRY)}")
    return _REGISTRY[key](**kwargs)


def available_backends() -> List[str]:
    """Names of all registered backends."""
    return sorted(_REGISTRY)
