"""Append-only job journal: the service's crash-recovery log.

Every *accepted* job is journaled before it is queued (``submit`` records),
and every terminal outcome is journaled when it is reached (``result``
records).  After a crash, :func:`replay` pairs the two streams up:

* submit + result  -> the job finished; its result is preloaded into the
  idempotency store so resubmitting the request ID still returns the
  original outcome;
* submit, no result -> the job was accepted but never acknowledged; the
  recovering service re-executes it against the restored snapshots.

Records are JSON lines in ``journal.jsonl``.  Key payloads up to
``INLINE_KEYS`` items are stored inline; larger jobs spill their arrays to
``payloads/<request-id>.npz`` so the journal itself stays small even for
million-key jobs.  Journal appends are flushed + fsynced per record, each
after the payload files it names: an accepted job survives the process.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from .jobs import Job, JobResult, JobStatus

JOURNAL_NAME = "journal.jsonl"
PAYLOAD_DIR = "payloads"

#: Jobs at or below this many keys store them inline in the JSON record.
INLINE_KEYS = 1024


def _fsync_dir(path: pathlib.Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class JobJournal:
    """Append-only journal under one directory; safe for concurrent appends."""

    def __init__(self, directory) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        (self.directory / PAYLOAD_DIR).mkdir(exist_ok=True)
        self.path = self.directory / JOURNAL_NAME
        self._lock = threading.Lock()
        self._fh = open(self.path, "a", encoding="utf-8")
        # The journal file's and payloads/ entries may be new: make them
        # durable before any record is appended.
        _fsync_dir(self.directory)

    # ------------------------------------------------------------- appends
    def _append(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def _write_payload(self, path: pathlib.Path, arrays: Dict[str, np.ndarray]) -> None:
        """Write a spilled payload durably, before any record names it.

        The file is fsynced, then ``payloads/`` for its new entry: a crash
        must never leave a durable record pointing at a torn or missing
        payload.
        """
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        _fsync_dir(path.parent)

    def record_submit(self, job: Job) -> None:
        record = {
            "type": "submit",
            "request_id": job.request_id,
            "filter": job.filter_name,
            "op": job.op,
            "n_keys": job.n_items,
            "deadline_s": job.deadline_s,
            "submitted_at": job.submitted_at,
        }
        if job.n_items <= INLINE_KEYS:
            record["keys"] = [int(k) for k in job.keys]
            if job.values is not None:
                record["values"] = [int(v) for v in job.values]
        else:
            payload_path = self.directory / PAYLOAD_DIR / f"{job.request_id}.npz"
            arrays = {"keys": job.keys}
            if job.values is not None:
                arrays["values"] = job.values
            self._write_payload(payload_path, arrays)
            record["payload"] = payload_path.name
        self._append(record)

    def record_result(self, job: Job) -> None:
        assert job.result is not None
        record = {
            "type": "result",
            "request_id": job.request_id,
            **job.result.as_dict(),
        }
        mask = job.result.ok_mask
        if mask is not None:
            # The per-item mask is what lets a recovery rebuild *acked*
            # effects exactly (see :func:`acked_effects`).
            if len(mask) <= INLINE_KEYS:
                record["ok_mask"] = [bool(b) for b in mask]
            else:
                mask_path = (
                    self.directory / PAYLOAD_DIR / f"{job.request_id}.mask.npz"
                )
                self._write_payload(mask_path, {"ok_mask": np.asarray(mask, dtype=bool)})
                record["ok_mask_payload"] = mask_path.name
        self._append(record)

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()


# --------------------------------------------------------------------------
# replay
# --------------------------------------------------------------------------
def _load_payload(directory: pathlib.Path, record: dict) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    if "keys" in record:
        keys = np.asarray(record["keys"], dtype=np.uint64)
        values = (
            np.asarray(record["values"], dtype=np.uint64)
            if "values" in record
            else None
        )
        return keys, values
    with np.load(directory / PAYLOAD_DIR / record["payload"]) as payload:
        keys = payload["keys"]
        values = payload["values"] if "values" in payload.files else None
    return keys, values


def _read_records(directory: pathlib.Path) -> Tuple[Dict[str, dict], Dict[str, dict]]:
    """Parse the journal into raw ``(submits, results)`` record maps.

    Corrupt trailing lines (a crash mid-append) are tolerated: the journal
    is read up to the first unparsable line.
    """
    path = directory / JOURNAL_NAME
    submits: Dict[str, dict] = {}
    results: Dict[str, dict] = {}
    if not path.exists():
        return submits, results
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                break  # torn final append; everything before it is intact
            if record.get("type") == "submit":
                submits[record["request_id"]] = record
            elif record.get("type") == "result":
                results[record["request_id"]] = record
    return submits, results


def _load_mask(directory: pathlib.Path, result: dict, n_items: int) -> np.ndarray:
    if "ok_mask" in result:
        return np.asarray(result["ok_mask"], dtype=bool)
    if "ok_mask_payload" in result:
        with np.load(directory / PAYLOAD_DIR / result["ok_mask_payload"]) as payload:
            return np.asarray(payload["ok_mask"], dtype=bool)
    # A fully-succeeded record needs no stored mask.
    return np.ones(n_items, dtype=bool)


def replay(directory) -> Tuple[List[dict], Dict[str, JobResult]]:
    """Read a journal back into ``(pending submits, finished results)``.

    ``pending`` holds the submit records (with key arrays re-attached under
    ``"keys"``/``"values"``) of jobs that never reached a terminal state;
    ``finished`` maps request IDs to their recorded :class:`JobResult`.
    """
    directory = pathlib.Path(directory)
    submits, results = _read_records(directory)
    finished: Dict[str, JobResult] = {}
    for request_id, record in results.items():
        ok_mask = None
        if "ok_mask" in record or "ok_mask_payload" in record:
            mask = _load_mask(directory, record, int(record["n_items"]))
            ok_mask = [bool(b) for b in mask]
        finished[request_id] = JobResult(
            status=JobStatus(record["status"]),
            n_items=int(record["n_items"]),
            n_ok=int(record["n_ok"]),
            attempts=int(record["attempts"]),
            error=record.get("error"),
            ok_mask=ok_mask,
            deadline_exceeded=bool(record.get("deadline_exceeded")),
        )
    pending = []
    for request_id, record in submits.items():
        if request_id in finished:
            continue
        keys, values = _load_payload(directory, record)
        record = dict(record)
        record["keys"], record["values"] = keys, values
        pending.append(record)
    return pending, finished


def acked_effects(directory) -> Dict[str, Tuple[np.ndarray, Optional[np.ndarray]]]:
    """Per-filter *acknowledged* insert effects recorded in the journal.

    Joins each insert submit record with its terminal result and keeps only
    the keys whose per-item mask says they were applied — exactly the state
    a recovery must rebuild into a filter whose snapshot was lost (torn
    file, restore-policy ``"recreate"``).  Returns ``{filter_name: (keys,
    values-or-None)}``.
    """
    directory = pathlib.Path(directory)
    submits, results = _read_records(directory)
    per_filter: Dict[str, List[Tuple[np.ndarray, Optional[np.ndarray]]]] = {}
    for request_id, submit in submits.items():
        if submit.get("op") != "insert":
            continue
        result = results.get(request_id)
        if result is None or result.get("status") not in ("succeeded", "partial"):
            continue
        keys, values = _load_payload(directory, submit)
        mask = _load_mask(directory, result, keys.size)
        per_filter.setdefault(submit["filter"], []).append(
            (keys[mask], values[mask] if values is not None else None)
        )
    effects: Dict[str, Tuple[np.ndarray, Optional[np.ndarray]]] = {}
    for name, chunks in per_filter.items():
        keys = np.concatenate([c[0] for c in chunks])
        if all(c[1] is None for c in chunks):
            values = None
        else:
            values = np.concatenate(
                [
                    c[1] if c[1] is not None else np.zeros(c[0].size, dtype=np.uint64)
                    for c in chunks
                ]
            )
        effects[name] = (keys, values)
    return effects
