"""Array namespaces: the pluggable device tier under the dataflow.

A :class:`ArrayNamespace` is the small op vocabulary the GPMR per-rank
dataflow actually needs — construction, transfer, stable sort-by-key,
run-length encoding, segmented reduction, scatter-add, scan — bound to
one array library:

* ``"numpy"`` — the host tier, always available.  Every op delegates
  to the exact NumPy/:mod:`repro.primitives` implementation the seed
  pipeline uses, so a ``accel="numpy"`` run is **bit-identical** to a
  run that never heard of namespaces.  This is the parity reference.
* ``"cupy"`` — CUDA arrays via CuPy (optional import).
* ``"torch"`` — Torch tensors, CUDA when available (optional import).

The namespace is injected at the executor level
(``make_executor(..., accel="cupy")``) and travels to the workers as a
*name* inside the job's :class:`~repro.core.config.PipelineConfig`, so
cluster ranks and multiprocessing children resolve their own instance
locally — namespaces hold library handles, not state.

Device tiers make no bitwise float guarantee (GPU scatter-add order is
nondeterministic); the parity contract binds the ``"numpy"`` tier.
Torch widens unsigned key dtypes to ``int64`` on device (torch has no
``uint32``) and narrows them back on export.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from ..primitives import (
    KeyRuns,
    exclusive_scan,
    inclusive_scan,
    radix_sort_pairs,
    segmented_reduce,
    stable_order,
    unique_segments,
)

__all__ = [
    "AccelUnavailable",
    "ArrayNamespace",
    "NumpyNamespace",
    "CupyNamespace",
    "TorchNamespace",
    "available_tiers",
    "namespace_of",
    "resolve_namespace",
    "ACCEL_TIERS",
]

#: The tier names ``resolve_namespace`` understands, in preference order.
ACCEL_TIERS = ("numpy", "cupy", "torch")


class AccelUnavailable(RuntimeError):
    """A requested acceleration tier's library is not importable here.

    Tests catch this (or probe :func:`available_tiers`) to skip device
    tiers cleanly on hosts without CuPy/Torch.
    """


class ArrayNamespace:
    """One array library bound to the op set the dataflow needs.

    Subclasses implement every op with their library's arrays;
    ``is_host`` namespaces promise their arrays *are* ``np.ndarray``
    (no transfer ever happens) and every op is bit-identical to the
    seed pipeline.
    """

    #: registry name ("numpy", "cupy", "torch")
    name: str = "abstract"
    #: True when arrays are host ndarrays and to_host is the identity
    is_host: bool = False

    # -- identity / transfer ------------------------------------------------
    def owns(self, arr: Any) -> bool:
        """Whether ``arr`` is this namespace's native array type."""
        raise NotImplementedError

    def from_host(self, arr: np.ndarray) -> Any:
        """Copy a host ndarray to this namespace's native array."""
        raise NotImplementedError

    def to_host(self, arr: Any) -> np.ndarray:
        """Copy a native array back to a host ndarray (identity on host)."""
        raise NotImplementedError

    def synchronize(self) -> None:
        """Block until queued device work is done (no-op on host).

        Span timing in the dataflow calls this before reading clocks,
        so wall-clock spans cover asynchronous device kernels instead
        of just their launch time.
        """

    # -- construction -------------------------------------------------------
    def asarray(self, x: Any, dtype: Any = None) -> Any:
        raise NotImplementedError

    def zeros(self, shape: Any, dtype: Any) -> Any:
        raise NotImplementedError

    def ones(self, shape: Any, dtype: Any) -> Any:
        raise NotImplementedError

    def arange(self, n: int, dtype: Any) -> Any:
        raise NotImplementedError

    def concatenate(self, arrays: Sequence[Any], axis: int = 0) -> Any:
        raise NotImplementedError

    def astype(self, arr: Any, dtype: Any) -> Any:
        raise NotImplementedError

    # -- compute ------------------------------------------------------------
    def add_at(self, target: Any, index: Any, values: Any) -> None:
        """In-place unbuffered scatter-add (``target[index] += values``)."""
        raise NotImplementedError

    def bincount(self, arr: Any, minlength: int) -> Any:
        raise NotImplementedError

    def argmin(self, arr: Any, axis: int) -> Any:
        raise NotImplementedError

    def matmul(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def stable_argsort(self, arr: Any) -> Any:
        raise NotImplementedError

    def cumsum(self, arr: Any) -> Any:
        raise NotImplementedError

    # -- pipeline primitives ------------------------------------------------
    def sort_pairs(self, keys: Any, values: Any, key_bits: Optional[int] = None):
        """Stable sort ``keys`` ascending, carrying ``values``."""
        raise NotImplementedError

    def unique_segments(self, sorted_keys: Any) -> KeyRuns:
        """Run-length encode a sorted key array (see primitives)."""
        raise NotImplementedError

    def segmented_reduce(self, values: Any, offsets: Any, op: str = "sum") -> Any:
        raise NotImplementedError

    def exclusive_scan(self, values: Any) -> Any:
        raise NotImplementedError

    def inclusive_scan(self, values: Any) -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ArrayNamespace {self.name}>"


class NumpyNamespace(ArrayNamespace):
    """The host tier: every op is the seed's exact NumPy computation."""

    name = "numpy"
    is_host = True

    def owns(self, arr: Any) -> bool:
        return isinstance(arr, np.ndarray)

    def from_host(self, arr: np.ndarray) -> np.ndarray:
        return np.asarray(arr)

    def to_host(self, arr: Any) -> np.ndarray:
        return np.asarray(arr)

    def asarray(self, x: Any, dtype: Any = None) -> np.ndarray:
        return np.asarray(x, dtype=dtype)

    def zeros(self, shape: Any, dtype: Any) -> np.ndarray:
        return np.zeros(shape, dtype=dtype)

    def ones(self, shape: Any, dtype: Any) -> np.ndarray:
        return np.ones(shape, dtype=dtype)

    def arange(self, n: int, dtype: Any) -> np.ndarray:
        return np.arange(n, dtype=dtype)

    def concatenate(self, arrays: Sequence[Any], axis: int = 0) -> np.ndarray:
        return np.concatenate(list(arrays), axis=axis)

    def astype(self, arr: Any, dtype: Any) -> np.ndarray:
        return np.asarray(arr).astype(dtype)

    def add_at(self, target: Any, index: Any, values: Any) -> None:
        np.add.at(target, index, values)

    def bincount(self, arr: Any, minlength: int) -> np.ndarray:
        return np.bincount(arr, minlength=minlength)

    def argmin(self, arr: Any, axis: int) -> np.ndarray:
        return arr.argmin(axis=axis)

    def matmul(self, a: Any, b: Any) -> np.ndarray:
        return a @ b

    def stable_argsort(self, arr: Any) -> np.ndarray:
        return stable_order(arr)[1]

    def cumsum(self, arr: Any) -> np.ndarray:
        return np.cumsum(arr)

    # The pipeline primitives delegate straight back to the seed's
    # implementations — this is what makes accel="numpy" the bit-parity
    # fallback rather than a reimplementation.
    def sort_pairs(self, keys: Any, values: Any, key_bits: Optional[int] = None):
        return radix_sort_pairs(keys, values, key_bits=key_bits)

    def unique_segments(self, sorted_keys: Any) -> KeyRuns:
        return unique_segments(sorted_keys)

    def segmented_reduce(self, values: Any, offsets: Any, op: str = "sum") -> Any:
        return segmented_reduce(values, offsets, op=op)

    def exclusive_scan(self, values: Any) -> Any:
        return exclusive_scan(values)

    def inclusive_scan(self, values: Any) -> Any:
        return inclusive_scan(values)


class CupyNamespace(ArrayNamespace):
    """CUDA arrays via CuPy.  Functional twins of the host ops; float
    scatter-adds are GPU-order nondeterministic (no bitwise promise)."""

    name = "cupy"
    is_host = False

    def __init__(self) -> None:
        try:
            import cupy  # noqa: PLC0415 - optional dependency probe
        except ImportError as exc:  # pragma: no cover - env-dependent
            raise AccelUnavailable(
                "accel='cupy' requires CuPy (and a CUDA device); install "
                "cupy-cuda* or fall back to accel='numpy'"
            ) from exc
        self._cp = cupy

    def owns(self, arr: Any) -> bool:
        return isinstance(arr, self._cp.ndarray)

    def from_host(self, arr: np.ndarray) -> Any:
        return self._cp.asarray(arr)

    def to_host(self, arr: Any) -> np.ndarray:
        return self._cp.asnumpy(arr)

    def synchronize(self) -> None:
        self._cp.cuda.get_current_stream().synchronize()

    def asarray(self, x: Any, dtype: Any = None) -> Any:
        return self._cp.asarray(x, dtype=dtype)

    def zeros(self, shape: Any, dtype: Any) -> Any:
        return self._cp.zeros(shape, dtype=dtype)

    def ones(self, shape: Any, dtype: Any) -> Any:
        return self._cp.ones(shape, dtype=dtype)

    def arange(self, n: int, dtype: Any) -> Any:
        return self._cp.arange(n, dtype=dtype)

    def concatenate(self, arrays: Sequence[Any], axis: int = 0) -> Any:
        return self._cp.concatenate(list(arrays), axis=axis)

    def astype(self, arr: Any, dtype: Any) -> Any:
        return arr.astype(dtype)

    def add_at(self, target: Any, index: Any, values: Any) -> None:
        self._cp.add.at(target, index, values)

    def bincount(self, arr: Any, minlength: int) -> Any:
        return self._cp.bincount(arr, minlength=minlength)

    def argmin(self, arr: Any, axis: int) -> Any:
        return arr.argmin(axis=axis)

    def matmul(self, a: Any, b: Any) -> Any:
        return a @ b

    def stable_argsort(self, arr: Any) -> Any:
        # CuPy's argsort makes no stability promise; lexsort with the
        # element index as tiebreak forces it.
        cp = self._cp
        return cp.lexsort(cp.stack((cp.arange(len(arr)), arr)))

    def cumsum(self, arr: Any) -> Any:
        return self._cp.cumsum(arr)

    def sort_pairs(self, keys: Any, values: Any, key_bits: Optional[int] = None):
        del key_bits  # functional device sort needs no pass structure
        order = self.stable_argsort(keys)
        return keys[order], (values[order] if values is not None else None)

    def unique_segments(self, sorted_keys: Any) -> KeyRuns:
        return _device_unique_segments(self, sorted_keys)

    def segmented_reduce(self, values: Any, offsets: Any, op: str = "sum") -> Any:
        return _device_segmented_sum(self, values, offsets, op)

    def exclusive_scan(self, values: Any) -> Any:
        out = self._cp.zeros_like(values)
        if len(values):
            out[1:] = self._cp.cumsum(values[:-1])
        return out

    def inclusive_scan(self, values: Any) -> Any:
        return self._cp.cumsum(values)


class TorchNamespace(ArrayNamespace):
    """Torch tensors, on CUDA when available (CPU tensors otherwise —
    still a real second namespace for genericity tests)."""

    name = "torch"
    is_host = False

    #: torch has no wide unsigned dtypes; widen on device, narrow back
    #: to the original dtype at export.
    _WIDEN = {"uint16": "int32", "uint32": "int64", "uint64": "int64"}

    def __init__(self) -> None:
        try:
            import torch  # noqa: PLC0415 - optional dependency probe
        except ImportError as exc:  # pragma: no cover - env-dependent
            raise AccelUnavailable(
                "accel='torch' requires PyTorch; install torch or fall "
                "back to accel='numpy'"
            ) from exc
        self._torch = torch
        self.device = "cuda" if torch.cuda.is_available() else "cpu"

    def _dtype(self, np_dtype: Any):
        name = np.dtype(np_dtype).name
        name = self._WIDEN.get(name, name)
        return getattr(self._torch, name)

    def owns(self, arr: Any) -> bool:
        return isinstance(arr, self._torch.Tensor)

    def from_host(self, arr: np.ndarray) -> Any:
        host = np.ascontiguousarray(arr)
        widened = self._WIDEN.get(host.dtype.name)
        if widened is not None:
            host = host.astype(widened)
        return self._torch.from_numpy(host).to(self.device)

    def to_host(self, arr: Any) -> np.ndarray:
        return arr.detach().cpu().numpy()

    def synchronize(self) -> None:
        if self.device == "cuda":  # pragma: no cover - needs hardware
            self._torch.cuda.synchronize()

    def asarray(self, x: Any, dtype: Any = None) -> Any:
        if self.owns(x):
            return x if dtype is None else x.to(self._dtype(dtype))
        return self.from_host(np.asarray(x, dtype=dtype))

    def zeros(self, shape: Any, dtype: Any) -> Any:
        return self._torch.zeros(shape, dtype=self._dtype(dtype), device=self.device)

    def ones(self, shape: Any, dtype: Any) -> Any:
        return self._torch.ones(shape, dtype=self._dtype(dtype), device=self.device)

    def arange(self, n: int, dtype: Any) -> Any:
        return self._torch.arange(n, dtype=self._dtype(dtype), device=self.device)

    def concatenate(self, arrays: Sequence[Any], axis: int = 0) -> Any:
        return self._torch.cat(list(arrays), dim=axis)

    def astype(self, arr: Any, dtype: Any) -> Any:
        return arr.to(self._dtype(dtype))

    def add_at(self, target: Any, index: Any, values: Any) -> None:
        if not self.owns(values):
            values = self.asarray(values, dtype=None)
        target.index_add_(0, index.to(self._torch.int64), values.to(target.dtype))

    def bincount(self, arr: Any, minlength: int) -> Any:
        return self._torch.bincount(arr, minlength=minlength)

    def argmin(self, arr: Any, axis: int) -> Any:
        return arr.argmin(dim=axis)

    def matmul(self, a: Any, b: Any) -> Any:
        return a @ b

    def stable_argsort(self, arr: Any) -> Any:
        return self._torch.argsort(arr, stable=True)

    def cumsum(self, arr: Any) -> Any:
        return self._torch.cumsum(arr, dim=0)

    def sort_pairs(self, keys: Any, values: Any, key_bits: Optional[int] = None):
        del key_bits
        order = self.stable_argsort(keys)
        return keys[order], (values[order] if values is not None else None)

    def unique_segments(self, sorted_keys: Any) -> KeyRuns:
        return _device_unique_segments(self, sorted_keys)

    def segmented_reduce(self, values: Any, offsets: Any, op: str = "sum") -> Any:
        return _device_segmented_sum(self, values, offsets, op)

    def exclusive_scan(self, values: Any) -> Any:
        out = self._torch.zeros_like(values)
        if len(values):
            out[1:] = self._torch.cumsum(values[:-1], dim=0)
        return out

    def inclusive_scan(self, values: Any) -> Any:
        return self._torch.cumsum(values, dim=0)


# ---------------------------------------------------------------------------
# Shared device formulations (CuPy and Torch express these identically
# through the namespace op vocabulary)
# ---------------------------------------------------------------------------

def _device_unique_segments(ns: ArrayNamespace, sorted_keys: Any) -> KeyRuns:
    """Head-flags + nonzero + diff, entirely in namespace ops."""
    n = len(sorted_keys)
    if n == 0:
        empty = ns.arange(0, dtype=np.int64)
        return KeyRuns(sorted_keys, empty, empty)
    heads = ns.ones(n, dtype=np.int64)
    heads[1:] = (sorted_keys[1:] != sorted_keys[:-1]).to(heads.dtype) if hasattr(
        heads, "to"
    ) else (sorted_keys[1:] != sorted_keys[:-1]).astype(heads.dtype)
    offsets = ns.astype(heads.nonzero()[0] if not hasattr(heads, "to")
                        else heads.nonzero().reshape(-1), np.int64)
    ends = ns.concatenate([offsets[1:], ns.asarray([n], dtype=np.int64)])
    counts = ends - offsets
    return KeyRuns(sorted_keys[offsets], offsets, counts)


def _device_segmented_sum(ns: ArrayNamespace, values: Any, offsets: Any, op: str):
    """Segment-id scatter-add; empty segments reduce to 0."""
    if op != "sum":
        raise ValueError(f"device segmented reduce supports op='sum', got {op!r}")
    n = len(values)
    n_seg = len(offsets)
    if n_seg == 0:
        return values[:0]
    ids = ns.zeros(max(n, 1), dtype=np.int64)
    if n_seg > 1:
        ns.add_at(ids, offsets[1:], ns.ones(n_seg - 1, dtype=np.int64))
    ids = ns.cumsum(ids)
    out = ns.zeros(n_seg, dtype=values.dtype if isinstance(values, np.ndarray)
                   else np.int64)
    if not isinstance(values, np.ndarray):
        out = ns.zeros(n_seg, dtype=np.int64)
        out = out.to(values.dtype) if hasattr(out, "to") else out.astype(values.dtype)
    if n:
        ns.add_at(out, ids[:n], values)
    return out


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------

_NAMESPACES = {}


def resolve_namespace(name: Optional[str] = "numpy") -> ArrayNamespace:
    """The namespace registered as ``name`` (cached singletons).

    Raises :class:`AccelUnavailable` when the tier's library is not
    importable, and ``ValueError`` for names outside
    :data:`ACCEL_TIERS`.
    """
    if isinstance(name, ArrayNamespace):
        return name
    key = (name or "numpy").lower()
    ns = _NAMESPACES.get(key)
    if ns is not None:
        return ns
    if key == "numpy":
        ns = NumpyNamespace()
    elif key == "cupy":
        ns = CupyNamespace()
    elif key == "torch":
        ns = TorchNamespace()
    else:
        raise ValueError(
            f"unknown acceleration tier {name!r}; expected one of {ACCEL_TIERS}"
        )
    _NAMESPACES[key] = ns
    return ns


def available_tiers() -> tuple:
    """The tiers whose libraries import on this host (numpy always)."""
    tiers = []
    for name in ACCEL_TIERS:
        try:
            resolve_namespace(name)
        except AccelUnavailable:
            continue
        tiers.append(name)
    return tuple(tiers)


def namespace_of(arr: Any) -> Optional[ArrayNamespace]:
    """The namespace owning ``arr``, judged by its array type's module.

    Returns None for objects no tier owns.  Used by the primitives to
    dispatch foreign (device) arrays to their library without the
    callers naming a namespace.
    """
    mod = type(arr).__module__
    root = mod.split(".", 1)[0]
    if root == "numpy":
        return resolve_namespace("numpy")
    if root in ("cupy", "torch"):
        try:
            return resolve_namespace(root)
        except AccelUnavailable:  # pragma: no cover - foreign array, no lib
            return None
    return None
