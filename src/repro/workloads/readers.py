"""Chunk readers: materialise map input lazily, at grant time.

Before streaming ingest every dataset was materialised in driver
memory before chunk 0 was granted, which caps job size at driver RAM.
A :class:`ChunkReader` inverts that: it describes a chunked input —
how many chunks, each chunk's logical size — and materialises any
chunk's payload *on demand*.  :func:`repro.core.scheduler.resolve_chunks`
turns a reader-backed dataset into descriptor-backed
:class:`~repro.core.chunk.Chunk` objects, so the driver schedules on
descriptors and only worker ranks ever hold payload arrays (one or
two chunks at a time with grant prefetch).

Three reader kinds:

* :class:`DatasetReader` — wraps any synthetic :class:`Dataset`: chunks
  re-materialise deterministically from ``(seed, chunk_index)``, the
  property ``workloads.base`` has always guaranteed.
* :class:`NpySpanReader` — row spans of an on-disk ``.npy`` array,
  opened ``mmap_mode="r"`` so only the touched span is ever resident.
* :class:`TextSpanReader` — byte spans of a text file, split on line
  boundaries (the paper's "separated at line boundaries"), scanned
  once at open without loading the body.

Readers pickle by *key*, not by state: ``__reduce__`` ships the few
scalars needed to rebuild the reader, and a per-process cache rebuilds
it at most once per worker while it stays in use — so a grant that
crosses a process or socket boundary carries bytes, not gigabytes, and
kill -9 recovery works for free (the respawned rank's fresh process
rebuilds the reader from the descriptor it is re-granted).  Ranks are
resident across jobs, so the cache is a bounded LRU: a rank that has
seen many distinct inputs keeps only the most recently used readers.

:func:`streamed` wraps a dataset factory into a
:class:`StreamedDataset` — a drop-in :class:`Dataset` whose
``chunk_reader`` attribute routes ``resolve_chunks`` down the
streaming path while every app-facing attribute (``start_centers``,
``key_space``, ``dictionary``, the MM task plan...) delegates to the
wrapped instance, keeping runners oblivious.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .base import Dataset, WorkItem
from ..util.validation import check_positive

__all__ = [
    "ChunkReader",
    "DatasetReader",
    "NpySpanReader",
    "TextSpanReader",
    "StreamedDataset",
    "streamed",
]

_SCALARS = (type(None), bool, int, float, str, bytes)

#: Readers a process keeps: the least recently used one beyond this
#: is dropped (with its mmap handle or built dataset) and rebuilt if
#: its key is granted again.
CACHE_ENTRIES = 8

#: One reader instance per (type, key) per process: unpickling a
#: granted descriptor rebuilds the reader at most once while it stays
#: cached, and every later grant reuses it (mmap handle, boundary
#: scan, built dataset and all).
_CACHE: "OrderedDict[Tuple[type, Any], ChunkReader]" = OrderedDict()
_CACHE_LOCK = threading.Lock()


def _cached(cls: type, key: Any) -> "ChunkReader":
    """Pickle target: the process's one reader for ``(cls, key)``."""
    cache_key = (cls, key)
    with _CACHE_LOCK:
        inst = _CACHE.get(cache_key)
        if inst is not None:
            _CACHE.move_to_end(cache_key)
            return inst
    inst = cls._from_key(key)
    with _CACHE_LOCK:
        inst = _CACHE.setdefault(cache_key, inst)
        _CACHE.move_to_end(cache_key)
        while len(_CACHE) > CACHE_ENTRIES:
            _CACHE.popitem(last=False)
        return inst


class ChunkReader:
    """A chunked input whose payloads materialise on demand.

    Subclasses implement the descriptor half (:attr:`n_chunks`,
    :meth:`chunk_meta`) without touching payload bytes, the
    materialisation half (:meth:`materialize`), and a :meth:`_key` of
    scalars sufficient to rebuild the reader in another process.
    """

    @property
    def n_chunks(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def chunk_meta(self, index: int) -> Tuple[int, int]:
        """``(logical_items, logical_bytes)`` of chunk ``index``,
        computed without materialising the payload."""
        raise NotImplementedError  # pragma: no cover - abstract

    def materialize(self, index: int) -> WorkItem:  # pragma: no cover
        raise NotImplementedError

    def _key(self) -> Tuple:  # pragma: no cover - abstract
        raise NotImplementedError

    @classmethod
    def _from_key(cls, key: Tuple) -> "ChunkReader":  # pragma: no cover
        raise NotImplementedError

    def __reduce__(self):
        return (_cached, (type(self), self._key()))

    def _check_index(self, index: int) -> None:
        if not (0 <= index < self.n_chunks):
            raise IndexError(
                f"chunk index {index} out of range [0, {self.n_chunks})"
            )


class DatasetReader(ChunkReader):
    """Reader over a synthetic dataset factory and its scalar spec.

    Chunks re-materialise from ``(seed, chunk_index)`` — the
    determinism contract every :class:`Dataset` already keeps — so the
    "file" this reader streams from is the RNG.  The key is the
    factory's import path plus the spec, which is why spec values must
    be scalars: the key must round-trip through pickle byte-identically.
    """

    def __init__(self, factory: Any, spec: Dict[str, Any]) -> None:
        for k, v in spec.items():
            if not isinstance(v, _SCALARS):
                raise TypeError(
                    f"streamed spec value {k}={v!r} is not a scalar; "
                    "reader keys must rebuild the dataset in another "
                    "process from scalars alone"
                )
        self.factory = factory
        self.spec = dict(spec)
        #: the built dataset — resident in whichever process owns this
        #: reader, built lazily so the driver-side copy can stay cheap
        self._dataset: Optional[Dataset] = None
        self._build_lock = threading.Lock()

    @property
    def dataset(self) -> Dataset:
        if self._dataset is None:
            with self._build_lock:
                if self._dataset is None:
                    self._dataset = self.factory(**self.spec)
        return self._dataset

    @property
    def n_chunks(self) -> int:
        return self.dataset.n_chunks

    def chunk_meta(self, index: int) -> Tuple[int, int]:
        return self.dataset.chunk_meta(index)

    def materialize(self, index: int) -> WorkItem:
        return self.dataset.chunk(index)

    def _key(self) -> Tuple:
        return (
            self.factory.__module__,
            self.factory.__qualname__,
            tuple(sorted(self.spec.items())),
        )

    @classmethod
    def _from_key(cls, key: Tuple) -> "DatasetReader":
        module, qualname, spec_items = key
        obj: Any = importlib.import_module(module)
        obj = functools.reduce(getattr, qualname.split("."), obj)
        return cls(obj, dict(spec_items))


class NpySpanReader(ChunkReader):
    """Row spans of an on-disk ``.npy`` array, mmap'd read-only.

    Only the rows of a materialised span are ever faulted into memory;
    :meth:`materialize` copies the span out of the map so the payload
    owns its bytes (safe to release the map, ship the array, mutate).
    """

    def __init__(self, path: Any, rows_per_chunk: int) -> None:
        check_positive(rows_per_chunk, "rows_per_chunk")
        self.path = os.fspath(path)
        self.rows_per_chunk = int(rows_per_chunk)
        self._mmap = np.load(self.path, mmap_mode="r")
        if self._mmap.ndim < 1:
            raise ValueError("NpySpanReader needs an array with rows")
        self._rows = int(self._mmap.shape[0])
        self._row_bytes = int(self._mmap.dtype.itemsize)
        for dim in self._mmap.shape[1:]:
            self._row_bytes *= int(dim)

    @property
    def n_chunks(self) -> int:
        return (self._rows + self.rows_per_chunk - 1) // self.rows_per_chunk

    def _span(self, index: int) -> Tuple[int, int]:
        self._check_index(index)
        lo = index * self.rows_per_chunk
        return lo, min(self._rows, lo + self.rows_per_chunk)

    def chunk_meta(self, index: int) -> Tuple[int, int]:
        lo, hi = self._span(index)
        return hi - lo, (hi - lo) * self._row_bytes

    def materialize(self, index: int) -> WorkItem:
        lo, hi = self._span(index)
        data = np.array(self._mmap[lo:hi])
        return WorkItem(
            index=index,
            data=data,
            logical_items=hi - lo,
            logical_bytes=(hi - lo) * self._row_bytes,
        )

    def _key(self) -> Tuple:
        return (self.path, self.rows_per_chunk)

    @classmethod
    def _from_key(cls, key: Tuple) -> "NpySpanReader":
        path, rows_per_chunk = key
        return cls(path, rows_per_chunk)


class TextSpanReader(ChunkReader):
    """Byte spans of a text file, split at line boundaries.

    The boundary scan at open reads forward from each ``chunk_bytes``
    target to the next newline, so spans always hold whole lines (no
    word is ever split across chunks) and the scan touches a few KB per
    boundary, not the file body.  Payloads are uint8 arrays, the same
    shape :class:`~repro.workloads.text.TextDataset` chunks take.
    """

    def __init__(self, path: Any, chunk_bytes: int) -> None:
        check_positive(chunk_bytes, "chunk_bytes")
        self.path = os.fspath(path)
        self.chunk_bytes = int(chunk_bytes)
        self._offsets = self._scan_boundaries()

    def _scan_boundaries(self) -> Tuple[int, ...]:
        offsets = [0]
        with open(self.path, "rb") as fh:
            fh.seek(0, os.SEEK_END)
            size = fh.tell()
            while size - offsets[-1] > self.chunk_bytes:
                target = offsets[-1] + self.chunk_bytes
                fh.seek(target)
                boundary = size
                scanned = target
                while scanned < size:
                    blob = fh.read(1 << 16)
                    if not blob:
                        break
                    nl = blob.find(b"\n")
                    if nl >= 0:
                        boundary = scanned + nl + 1
                        break
                    scanned += len(blob)
                if boundary >= size:
                    break
                offsets.append(boundary)
        offsets.append(size)
        if size == 0:
            raise ValueError(f"text file {self.path!r} is empty")
        return tuple(offsets)

    @property
    def n_chunks(self) -> int:
        return len(self._offsets) - 1

    def _span(self, index: int) -> Tuple[int, int]:
        self._check_index(index)
        return self._offsets[index], self._offsets[index + 1]

    def chunk_meta(self, index: int) -> Tuple[int, int]:
        lo, hi = self._span(index)
        return hi - lo, hi - lo  # 1-byte elements, as in Table 1

    def materialize(self, index: int) -> WorkItem:
        lo, hi = self._span(index)
        with open(self.path, "rb") as fh:
            fh.seek(lo)
            blob = fh.read(hi - lo)
        data = np.frombuffer(blob, dtype=np.uint8)
        return WorkItem(
            index=index,
            data=data,
            logical_items=hi - lo,
            logical_bytes=hi - lo,
        )

    def _key(self) -> Tuple:
        return (self.path, self.chunk_bytes)

    @classmethod
    def _from_key(cls, key: Tuple) -> "TextSpanReader":
        path, chunk_bytes = key
        return cls(path, chunk_bytes)


class StreamedDataset(Dataset):
    """A :class:`Dataset` facade over a :class:`ChunkReader`.

    ``resolve_chunks`` spots the :attr:`chunk_reader` attribute and
    builds descriptor-backed chunks instead of materialising; every
    other attribute access falls through to the wrapped base dataset
    (when there is one), so app runners that read ``start_centers()``
    or the MM task plan never know the difference.
    """

    def __init__(
        self, reader: ChunkReader, base: Optional[Dataset] = None
    ) -> None:
        super().__init__(
            getattr(base, "seed", 0), getattr(base, "sample_factor", 1)
        )
        self.chunk_reader = reader
        self._base = base

    @property
    def n_chunks(self) -> int:
        return self.chunk_reader.n_chunks

    def chunk(self, index: int) -> WorkItem:
        return self.chunk_reader.materialize(index)

    def chunk_meta(self, index: int) -> Tuple[int, int]:
        return self.chunk_reader.chunk_meta(index)

    def __getattr__(self, name: str) -> Any:
        # Only called when normal lookup fails; delegate app-facing
        # attributes to the wrapped dataset.  Dunder/private lookups
        # must fail normally (pickle, copy, hasattr probes).
        if name.startswith("_"):
            raise AttributeError(name)
        base = self.__dict__.get("_base")
        if base is None:
            raise AttributeError(name)
        return getattr(base, name)


def streamed(factory: Any, **spec: Any) -> StreamedDataset:
    """A streaming drop-in for ``factory(**spec)``.

    The returned dataset runs the exact same job bit-identically, but
    ``resolve_chunks`` schedules descriptors and payloads materialise
    lazily — on workers, at grant time — instead of up front in the
    driver.
    """
    reader = DatasetReader(factory, spec)
    return StreamedDataset(reader, base=reader.dataset)
