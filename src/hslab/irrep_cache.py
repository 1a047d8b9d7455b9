"""On-disk irrep stack cache, one `<descriptor>.irr` file per group: `np.save` records
(a string array of the descriptor and the irrep names, then each (order, d, d) stack
in its own dtype), then their CRC-32 as 4 little-endian bytes. Bad files are rebuilt."""

import io
import os
import tempfile
import zlib

import numpy as np

from .groups import Group


def cache_path(cache_dir: str | os.PathLike, group: Group) -> str:
    return os.path.join(os.fspath(cache_dir), f"{group.descriptor}.irr")


def write_cache(path: str, group: Group, records: list[tuple[str, np.ndarray]]) -> None:
    """Write through a temp file of this writer's own, renamed into place."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "wb") as fh, io.BytesIO() as buf:
            names = np.array([group.descriptor] + [name for name, _ in records])
            for array in [names] + [stack for _, stack in records]:
                np.save(buf, array, allow_pickle=False)
            fh.write(buf.getvalue() + zlib.crc32(buf.getvalue()).to_bytes(4, "little"))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_cache(path: str, group: Group) -> list[tuple[str, np.ndarray]] | None:
    """Load cached stacks, or None when the file is unusable."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
        # no copy of the file: the checksum reads a view, np.load a shared buffer
        if zlib.crc32(memoryview(blob)[:-4]).to_bytes(4, "little") != blob[-4:]:
            return None  # checked first, so no corrupt header reaches np.load
        body = io.BytesIO(blob)
        names = np.load(body, allow_pickle=False)
        stacks = [np.load(body, allow_pickle=False) for _ in names[1:]]
    except (OSError, ValueError, EOFError, IndexError):
        return None
    fits = body.tell() == len(blob) - 4 and all(s.shape == (group.order,) + s.shape[-1:] * 2 for s in stacks)
    if names[:1].tolist() != [group.descriptor] or not fits:
        return None
    return [(str(name), stack) for name, stack in zip(names[1:], stacks)]
