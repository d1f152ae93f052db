"""Versioned, checksummed binary snapshots for every filter class.

Layout of a snapshot file::

    prelude   32 bytes, little-endian: 8-byte magic, u32 format version,
              u32 flags (reserved, zero), u64 header length, u64 CRC-32
              of everything after the prelude.
    header    UTF-8 JSON: the filter's class/module, its
              ``snapshot_config()`` (constructor arguments for an empty
              twin), and one descriptor per state section
              ``{name, dtype, shape, offset, nbytes}`` with offsets
              relative to the start of the data region.
    data      the ``snapshot_state()`` arrays, each 64-byte aligned so the
              file can be ``np.memmap``-ed and every section viewed
              zero-copy at its native dtype.

The CRC covers the header and all section bytes, so truncated or corrupted
files fail loudly at load time with :class:`~repro.core.exceptions.
SnapshotError` instead of restoring a silently wrong filter.

A snapshot file is one such *container* (:func:`encode_container` /
:func:`decode_container`); the job journal (:mod:`repro.service.journal`)
appends one per record and reads them back as a stream.
"""

from __future__ import annotations

import importlib
import json
import os
import struct
import tempfile
import zlib
from typing import Dict, Optional, Tuple, Type

import numpy as np

from ..core.base import AbstractFilter, FilterState
from ..core.exceptions import SnapshotError
from ..gpusim.stats import StatsRecorder

#: File magic: identifies a repro filter snapshot.
MAGIC = b"RPROSNAP"
#: Bumped whenever the binary layout or any filter's section set changes
#: incompatibly; the golden-snapshot fixture test catches silent breaks.
FORMAT_VERSION = 1
#: Section alignment, chosen so memmap views are aligned for every dtype.
ALIGNMENT = 64

_PRELUDE = struct.Struct("<8sIIQQ")


def _align(n: int) -> int:
    return (n + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _write_stream(fh, data: bytes) -> None:
    """Single seam through which snapshot bytes reach the file.

    Exists so the fault-injection harness (:func:`repro.service.faults.
    torn_snapshot_writes`) can kill a save mid-stream and prove the atomic
    rename protects the previous snapshot.
    """
    fh.write(data)


def _atomic_write(path, data: bytes) -> None:
    """Write ``data`` to ``path`` crash-safely.

    The bytes go to a same-directory temp file (so the final ``os.replace``
    is a same-filesystem atomic rename), are fsynced, and only then moved
    onto the destination — an interrupted save can never leave a torn
    snapshot behind, only the old file or the complete new one.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            _write_stream(fh, data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)


def encode_container(header: dict, arrays: Dict[str, np.ndarray]) -> bytes:
    """Encode ``header`` plus ``arrays`` as one checksummed container.

    ``header`` gains the ``sections`` descriptor list; the arrays follow it
    in insertion order, each 64-byte aligned relative to the data region.
    """
    sections = []
    blobs = []
    offset = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        offset = _align(offset)
        sections.append(
            {
                "name": name,
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": offset,
                "nbytes": int(array.nbytes),
            }
        )
        blobs.append((offset, array.tobytes()))
        offset += int(array.nbytes)
    header_bytes = json.dumps({**header, "sections": sections}, sort_keys=True).encode("utf-8")
    data_start = _align(_PRELUDE.size + len(header_bytes))
    buf = bytearray(data_start + offset)
    buf[_PRELUDE.size : _PRELUDE.size + len(header_bytes)] = header_bytes
    for section_offset, blob in blobs:
        start = data_start + section_offset
        buf[start : start + len(blob)] = blob
    checksum = zlib.crc32(memoryview(buf)[_PRELUDE.size :])
    buf[: _PRELUDE.size] = _PRELUDE.pack(
        MAGIC, FORMAT_VERSION, 0, len(header_bytes), checksum
    )
    return bytes(buf)


def decode_container(
    buf: np.ndarray, start: int = 0, source=""
) -> Tuple[dict, Dict[str, np.ndarray], int]:
    """Decode the container at ``buf[start:]`` (a ``uint8`` array).

    Returns ``(header, {section name: view}, end)`` where ``end`` is the
    offset just past the container.  Raises :class:`SnapshotError` on bad
    magic, unsupported versions, truncation, malformed section geometry or
    checksum mismatch; ``source`` names the bytes in those messages.
    """
    if buf.size - start < _PRELUDE.size:
        raise SnapshotError(f"truncated snapshot (no prelude): {source}")
    magic, version, flags, header_len, checksum = _PRELUDE.unpack(
        bytes(buf[start : start + _PRELUDE.size])
    )
    if magic != MAGIC:
        raise SnapshotError(f"not a repro filter snapshot (bad magic): {source}")
    if version != FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot format version {version} is not supported "
            f"(this build reads version {FORMAT_VERSION})"
        )
    if flags != 0:  # reserved, and outside the CRC: non-zero means damage
        raise SnapshotError(f"snapshot sets reserved flags {flags:#x}: {source}")
    header_start = start + _PRELUDE.size
    if buf.size < header_start + header_len:
        raise SnapshotError(f"truncated snapshot (incomplete header): {source}")
    try:
        header = json.loads(bytes(buf[header_start : header_start + header_len]))
    except ValueError as exc:
        raise SnapshotError(f"unreadable snapshot header: {source}") from exc
    sections = header.get("sections") if isinstance(header, dict) else None
    if not isinstance(sections, list):
        raise SnapshotError(f"snapshot header carries no section list: {source}")
    data_start = start + _align(_PRELUDE.size + int(header_len))
    geometry = [_section_geometry(section, source) for section in sections]
    end = max([data_start] + [data_start + g[1] + g[2] for g in geometry])
    if end > buf.size:
        raise SnapshotError(f"truncated snapshot (section data incomplete): {source}")
    if zlib.crc32(buf[header_start:end]) != checksum:
        raise SnapshotError(
            f"snapshot checksum mismatch (truncated or corrupted file): {source}"
        )
    arrays: Dict[str, np.ndarray] = {}
    for name, offset, nbytes, dtype, shape in geometry:
        view = buf[data_start + offset : data_start + offset + nbytes]
        try:
            arrays[name] = view.view(dtype).reshape(shape)
        except (TypeError, ValueError) as exc:
            raise SnapshotError(
                f"snapshot section {name!r} cannot be viewed as "
                f"{dtype.str}{list(shape)}: {source}"
            ) from exc
    return header, arrays, end


def save_filter(filt: AbstractFilter, path) -> int:
    """Write ``filt`` to ``path`` in the snapshot format; returns bytes written.

    The write is crash-safe: bytes land in a same-directory temp file that is
    atomically renamed onto ``path``, so an interrupted save leaves any
    previous snapshot at ``path`` intact.
    """
    if not isinstance(filt, FilterState):
        raise SnapshotError(
            f"{type(filt).__name__} does not implement the FilterState protocol"
        )
    header = {
        "class": type(filt).__name__,
        "module": type(filt).__module__,
        "format_version": FORMAT_VERSION,
        "config": filt.snapshot_config(),
    }
    data = encode_container(header, filt.snapshot_state())
    _atomic_write(path, data)
    return len(data)


def read_snapshot(path) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Parse a snapshot into ``(header, {section name: array})``.

    The file is ``np.memmap``-ed copy-on-write and each section returned as
    a zero-copy view at its native dtype; mutating a view never touches the
    file.  Raises :class:`SnapshotError` on bad magic, unsupported versions,
    truncation, trailing bytes, or checksum mismatch.
    """
    try:
        buf = np.memmap(os.fspath(path), dtype=np.uint8, mode="c")
    except ValueError as exc:  # zero-length file
        raise SnapshotError(f"not a snapshot (empty file): {path}") from exc
    header, arrays, end = decode_container(buf, 0, path)
    if end != buf.size:
        raise SnapshotError(
            f"snapshot checksum mismatch ({buf.size - end} trailing bytes): {path}"
        )
    return header, arrays


def _section_geometry(section: dict, source) -> Tuple[str, int, int, np.dtype, tuple]:
    """Validate one section descriptor: ``(name, offset, nbytes, dtype, shape)``.

    A crafted or corrupt descriptor raises :class:`SnapshotError` here,
    before any view is built, instead of a raw ``ValueError``.
    """
    try:
        name = str(section["name"])
        offset = int(section["offset"])
        nbytes = int(section["nbytes"])
        dtype = np.dtype(section["dtype"])
        shape = tuple(int(dim) for dim in section["shape"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"malformed snapshot section descriptor: {source}") from exc
    if offset < 0 or nbytes < 0 or any(dim < 0 for dim in shape):
        raise SnapshotError(f"snapshot section {name!r} has negative geometry: {source}")
    n_elements = int(np.prod(shape, dtype=np.int64)) if shape else 1
    if n_elements * dtype.itemsize != nbytes:
        raise SnapshotError(
            f"snapshot section {name!r} claims {nbytes} bytes but its "
            f"dtype/shape describe {n_elements * dtype.itemsize}: {source}"
        )
    return name, offset, nbytes, dtype, shape


def _resolve_class(module: str, name: str) -> Type[AbstractFilter]:
    if not module.startswith("repro."):
        raise SnapshotError(
            f"snapshot names a class outside the repro package: {module}.{name}"
        )
    try:
        cls = getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError) as exc:
        raise SnapshotError(f"snapshot names an unknown class {module}.{name}") from exc
    if not (isinstance(cls, type) and issubclass(cls, AbstractFilter)):
        raise SnapshotError(f"{module}.{name} is not a filter class")
    return cls


def load_filter(
    path,
    expected_class: Optional[Type[AbstractFilter]] = None,
    recorder: Optional[StatsRecorder] = None,
) -> AbstractFilter:
    """Restore the filter stored at ``path``.

    ``expected_class`` (set when loading through a concrete class's
    ``.load``) guards against restoring a snapshot of a different filter
    type; ``recorder`` attaches a stats recorder to the restored filter
    (a fresh one is created otherwise).
    """
    header, arrays = read_snapshot(path)
    cls = _resolve_class(header["module"], header["class"])
    if expected_class is not None and not issubclass(cls, expected_class):
        raise SnapshotError(
            f"snapshot holds a {cls.__name__}, not a {expected_class.__name__}"
        )
    filt = cls._from_snapshot_config(header["config"], recorder=recorder)
    filt.restore_state(arrays)
    return filt
