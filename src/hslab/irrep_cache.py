"""On-disk cache of irrep matrix stacks.

One file per group descriptor, little-endian throughout:

    offset  size  field
    0       4     magic b"HSIR"
    4       4     u32 format version (currently 1)
    8       4     u32 byte length L of the descriptor
    12      L     descriptor, UTF-8 (e.g. "S4")
    ..      4     u32 group order NG
    ..      4     u32 irrep count R

followed by R irrep records:

    4             u32 byte length M of the irrep name
    M             irrep name, UTF-8 (e.g. "3+1")
    4             u32 dimension d
    NG*d*d*16     float64 (re, im) pairs; matrices for element indices
                  0..NG-1 in order, each row-major

A file that is truncated, has the wrong magic/version, or disagrees with
the requesting group is ignored (the caller recomputes and overwrites).
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

from .groups import Group

MAGIC = b"HSIR"
VERSION = 1


def cache_path(cache_dir: str | os.PathLike, group: Group) -> str:
    return os.path.join(os.fspath(cache_dir), f"{group.descriptor}.irr")


def write_cache(path: str, group: Group, records: list[tuple[str, np.ndarray]]) -> None:
    """Write the file through a temp file of this writer's own, then rename
    it into place, so concurrent writers never share a partial file."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    desc = group.descriptor.encode("utf-8")
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<I", len(desc)))
            fh.write(desc)
            fh.write(struct.pack("<II", group.order, len(records)))
            for name, stack in records:
                raw = name.encode("utf-8")
                dim = stack.shape[1]
                fh.write(struct.pack("<I", len(raw)))
                fh.write(raw)
                fh.write(struct.pack("<I", dim))
                data = np.ascontiguousarray(stack, dtype=np.complex128)
                fh.write(data.astype("<c16").tobytes())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_cache(path: str, group: Group) -> list[tuple[str, np.ndarray]] | None:
    """Load cached stacks, or None when the file is unusable."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError:
        return None
    try:
        return _parse(blob, group)
    except (ValueError, struct.error):
        return None


def _parse(blob: bytes, group: Group) -> list[tuple[str, np.ndarray]]:
    view = memoryview(blob)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise ValueError("truncated cache file")
        out = view[pos : pos + n]
        pos += n
        return out

    if bytes(take(4)) != MAGIC:
        raise ValueError("bad magic")
    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise ValueError("version mismatch")
    (dlen,) = struct.unpack("<I", take(4))
    if bytes(take(dlen)).decode("utf-8") != group.descriptor:
        raise ValueError("descriptor mismatch")
    order, count = struct.unpack("<II", take(8))
    if order != group.order:
        raise ValueError("order mismatch")
    records = []
    for _ in range(count):
        (nlen,) = struct.unpack("<I", take(4))
        name = bytes(take(nlen)).decode("utf-8")
        (dim,) = struct.unpack("<I", take(4))
        if dim == 0 or dim * dim > order:
            raise ValueError("implausible dimension")
        data = np.frombuffer(take(order * dim * dim * 16), dtype="<c16")
        stack = data.reshape(order, dim, dim).copy()
        if np.max(np.abs(stack.imag)) < 1e-15:
            stack = np.ascontiguousarray(stack.real)
        records.append((name, stack))
    if pos != len(view):
        raise ValueError("trailing bytes in cache file")
    return records
