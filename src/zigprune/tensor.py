"""Dense float32 tensor with a gradient slot, plus checkpoint IO.

The checkpoint format is a flat binary container: the magic string
``OTOCKPT1``, a little-endian uint32 array count, then per array its
uint32 name length, UTF-8 name, uint32 rank, uint32 extents and the raw
little-endian float32 payload.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import FormatError

CHECKPOINT_MAGIC = b"OTOCKPT1"


class Tensor:
    """N-dimensional float32 array with a same-shape gradient slot.

    Buffer ownership: a trainable tensor belongs to at most one `ModelGraph`.
    Building the graph copies the tensor's values into the graph's flat
    parameter buffer and rebinds `data` to a view of that buffer and `grad` to
    a view of the graph's gradient buffer. From then on, write through the
    views (``t.data[...] = values``) and never rebind them, or the layer and
    the graph's flat view would part. `grad` stays None until a graph owns the
    tensor, and a graph refuses a tensor whose `grad` is set, so a layer list
    cannot be shared by two graphs; `ModelGraph.clone` copies one instead.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.ascontiguousarray(data, dtype=np.float32)
        self.grad = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def save_arrays(path, arrays: dict[str, np.ndarray]):
    """Write named float32 arrays to `path` in the checkpoint container format."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr, dtype=np.float32)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            for extent in arr.shape:
                fh.write(struct.pack("<I", extent))
            fh.write(arr.astype("<f4", copy=False).tobytes())


def load_arrays(path) -> dict[str, np.ndarray]:
    """Read a checkpoint container back into an ordered name -> array dict."""
    with open(path, "rb") as fh:
        blob = fh.read()

    def need(n, offset, what):
        if offset + n > len(blob):
            raise FormatError(
                f"truncated checkpoint: wanted {n} bytes for {what} at offset {offset}",
                offset=offset,
            )
        return blob[offset : offset + n], offset + n

    chunk, pos = need(len(CHECKPOINT_MAGIC), 0, "magic")
    if chunk != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {chunk!r}", offset=0)
    chunk, pos = need(4, pos, "array count")
    (count,) = struct.unpack("<I", chunk)
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        chunk, pos = need(4, pos, "name length")
        (name_len,) = struct.unpack("<I", chunk)
        chunk, pos = need(name_len, pos, "name")
        name = chunk.decode("utf-8")
        chunk, pos = need(4, pos, "rank")
        (rank,) = struct.unpack("<I", chunk)
        extents = []
        for _ in range(rank):
            chunk, pos = need(4, pos, "extent")
            extents.append(struct.unpack("<I", chunk)[0])
        n_bytes = 4 * int(np.prod(extents, dtype=np.int64))
        chunk, pos = need(n_bytes, pos, f"payload of {name}")
        arr = np.frombuffer(chunk, dtype="<f4").astype(np.float32)
        arrays[name] = arr.reshape(extents)
    if pos != len(blob):
        raise FormatError(f"{len(blob) - pos} trailing bytes after checkpoint payload", offset=pos)
    return arrays


def as_array(value) -> np.ndarray:
    """Coerce an array-like into a float ndarray without copying float32/64 data."""
    arr = np.asarray(value)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    if arr.dtype == np.float64:
        return arr
    return np.ascontiguousarray(arr, dtype=np.float32)

