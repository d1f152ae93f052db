"""Append-only job journal: the service's crash-recovery log.

Every *accepted* job is journaled before it is queued (``submit`` records),
and every terminal outcome is journaled before the job is acknowledged
(``result`` records).  After a crash, :func:`replay` pairs the two streams
up:

* submit + result  -> the job finished; its result is preloaded into the
  idempotency store so resubmitting the request ID still returns the
  original outcome;
* submit, no result -> the job was accepted but never acknowledged; the
  recovering service re-executes it against the restored snapshots.

**Record layout.**  ``journal.rpro`` is a stream of back-to-back snapshot
containers (:func:`repro.lifecycle.snapshot.encode_container`), one per
record: the 32-byte prelude, a JSON header with the record's scalar fields,
then raw 64-byte-aligned sections, all under one CRC-32.

* submit — header ``type, request_id, filter, op, n_keys, deadline_s,
  submitted_at``; sections ``keys`` and, when the job has them, ``values``
  (both ``uint64``);
* result — header ``type, request_id`` plus :meth:`JobResult.as_dict`;
  section ``ok_mask`` (the per-item mask, ``np.packbits``-packed) when the
  job reports one.

Every append is written, flushed and fsynced before it returns: a submit
record on its own, so an accepted job survives the process, and the result
records of one batch together, under one fsync.

**Torn-tail rule.**  The journal is read front to back up to the first
record that does not decode (short, bad magic or geometry, or a CRC
mismatch); that record and everything after it are discarded.  Opening a
journal truncates the file to the end of its last valid record, and fsyncs
it, before the first append — so records written after a crash can never
sit unreachable behind a torn one.
"""

from __future__ import annotations

import os
import pathlib
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.exceptions import SnapshotError
from ..lifecycle.snapshot import decode_container, encode_container
from .jobs import Job, JobResult, JobStatus

JOURNAL_NAME = "journal.rpro"


def _fsync_dir(path: pathlib.Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _scan(path: pathlib.Path) -> Tuple[List[dict], int]:
    """Decode the journal's records up to the first damaged one.

    Returns ``(records, end)``: each record is its header fields plus
    copies of its sections, and ``end`` is the byte offset just past the
    last valid record.
    """
    try:
        buf = np.fromfile(path, dtype=np.uint8)
    except FileNotFoundError:
        return [], 0
    records: List[dict] = []
    end = 0
    while end < buf.size:
        try:
            header, arrays, end_next = decode_container(buf, end, path)
        except SnapshotError:
            break  # torn or corrupt record: everything before it is intact
        del header["sections"]
        records.append({**header, **{k: v.copy() for k, v in arrays.items()}})
        end = end_next
    return records, end


class JobJournal:
    """Append-only journal under one directory; safe for concurrent appends."""

    def __init__(self, directory) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / JOURNAL_NAME
        self._lock = threading.Lock()
        _, valid_end = _scan(self.path)
        self._fh = open(self.path, "ab")
        if os.fstat(self._fh.fileno()).st_size > valid_end:
            # A crash tore the last append: cut the damage off so the
            # records appended from here on stay reachable by replay.
            self._fh.truncate(valid_end)
            os.fsync(self._fh.fileno())
        # The journal file's entry may be new: make it durable before any
        # record is appended.
        _fsync_dir(self.directory)

    # ------------------------------------------------------------- appends
    def _append(self, *records: bytes) -> None:
        with self._lock:
            self._fh.writelines(records)
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def record_submit(self, job: Job) -> None:
        arrays = {"keys": job.keys}
        if job.values is not None:
            arrays["values"] = job.values
        header = {
            "type": "submit",
            "request_id": job.request_id,
            "filter": job.filter_name,
            "op": job.op,
            "n_keys": job.n_items,
            "deadline_s": job.deadline_s,
            "submitted_at": job.submitted_at,
        }
        self._append(encode_container(header, arrays))

    def record_result(self, *jobs: Job) -> None:
        """Append the terminal results of ``jobs`` under one fsync."""
        self._append(*(_result_record(job) for job in jobs))

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()


def _result_record(job: Job) -> bytes:
    assert job.result is not None
    arrays = {}
    if job.result.ok_mask is not None:
        # The per-item mask is what lets a recovery rebuild *acked* effects
        # exactly (see :func:`acked_effects`).
        arrays["ok_mask"] = np.packbits(job.result.ok_mask)
    header = {"type": "result", "request_id": job.request_id, **job.result.as_dict()}
    return encode_container(header, arrays)


# --------------------------------------------------------------------------
# replay
# --------------------------------------------------------------------------
def _read_records(directory) -> Tuple[Dict[str, dict], Dict[str, dict]]:
    """Read the journal into ``(submits, results)`` maps keyed by request ID."""
    by_type: Dict[str, Dict[str, dict]] = {"submit": {}, "result": {}}
    for record in _scan(pathlib.Path(directory) / JOURNAL_NAME)[0]:
        by_type.setdefault(record.get("type"), {})[record["request_id"]] = record
    return by_type["submit"], by_type["result"]


def _load_mask(result: dict) -> Optional[np.ndarray]:
    if "ok_mask" not in result:
        return None
    return np.unpackbits(result["ok_mask"], count=int(result["n_items"])).astype(bool)


def replay(directory) -> Tuple[List[dict], Dict[str, JobResult]]:
    """Read a journal back into ``(pending submits, finished results)``.

    ``pending`` holds the submit records (with key arrays under
    ``"keys"``/``"values"``) of jobs that never reached a terminal state;
    ``finished`` maps request IDs to their recorded :class:`JobResult`.
    """
    submits, results = _read_records(directory)
    finished: Dict[str, JobResult] = {}
    for request_id, record in results.items():
        finished[request_id] = JobResult(
            status=JobStatus(record["status"]),
            n_items=int(record["n_items"]),
            n_ok=int(record["n_ok"]),
            attempts=int(record["attempts"]),
            error=record.get("error"),
            ok_mask=_load_mask(record),
            deadline_exceeded=bool(record.get("deadline_exceeded")),
        )
    pending = [
        {"values": None, **record}
        for request_id, record in submits.items()
        if request_id not in finished
    ]
    return pending, finished


def acked_effects(directory) -> Dict[str, Tuple[np.ndarray, Optional[np.ndarray]]]:
    """Per-filter *acknowledged* insert effects recorded in the journal.

    Joins each insert submit record with its terminal result and keeps only
    the keys whose per-item mask says they were applied — exactly the state
    a recovery must rebuild into a filter whose snapshot was lost (torn
    file, restore-policy ``"recreate"``).  Returns ``{filter_name: (keys,
    values-or-None)}``.
    """
    submits, results = _read_records(directory)
    per_filter: Dict[str, List[Tuple[np.ndarray, Optional[np.ndarray]]]] = {}
    for request_id, submit in submits.items():
        if submit.get("op") != "insert":
            continue
        result = results.get(request_id)
        if result is None or result.get("status") not in ("succeeded", "partial"):
            continue
        keys, values = submit["keys"], submit.get("values")
        mask = _load_mask(result)
        if mask is None:  # a fully-succeeded record needs no stored mask
            mask = np.ones(keys.size, dtype=bool)
        per_filter.setdefault(submit["filter"], []).append(
            (keys[mask], values[mask] if values is not None else None)
        )
    effects: Dict[str, Tuple[np.ndarray, Optional[np.ndarray]]] = {}
    for name, chunks in per_filter.items():
        values = None
        if any(v is not None for _, v in chunks):
            values = np.concatenate(
                [np.zeros(k.size, dtype=np.uint64) if v is None else v for k, v in chunks]
            )
        effects[name] = (np.concatenate([k for k, _ in chunks]), values)
    return effects
