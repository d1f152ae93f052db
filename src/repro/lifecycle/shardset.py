"""Shard-set snapshots: one manifest + one snapshot file per shard.

A :class:`~repro.sharding.sharded.ShardedFilter` can already persist itself
through the ordinary single-file snapshot path (``filter.save(path)``: every
shard's sections land in one ``.rpro`` file under ``shard{i}/`` prefixes).
That is the right shape for small filters; for the paper's MetaHipMer-scale
use — shards sized near host memory, saved/restored by different ranks —
a *shard set* is the better layout:

* ``manifest.json`` — the sharded filter's ``snapshot_config`` plus the
  relative path and item count of each shard file (written last, atomically,
  so a torn save is detected by a missing/old manifest, mirroring the
  single-file format's write-then-rename discipline);
* ``shard0.rpro`` … ``shardN-1.rpro`` — each shard's table as an ordinary
  versioned snapshot of the *inner* class, checksummed like any other,
  loadable individually with :func:`repro.lifecycle.snapshot.load_filter`
  for repair or re-sharding-by-merge workflows.  A journaled (auto-resizing)
  TCF shard's key journal travels in its file as the TCF's own
  ``journal_keys``/``journal_values`` sections.

``save_shard_set`` / ``load_shard_set`` are deliberately *functions over
directories*, not a new binary format: every file is the existing snapshot
format or JSON, and each is written atomically and fsynced before the
manifest that names it.  Version 2 of the set moved the key journals into
the shard files; version-1 sets, whose journals sat in separate ``.npz``
files, are refused rather than loaded without them.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from ..core.exceptions import SnapshotError
from ..gpusim.stats import StatsRecorder
from .snapshot import FORMAT_VERSION, _atomic_write, read_snapshot, save_filter

MANIFEST_NAME = "manifest.json"

#: Bumped when the manifest layout changes incompatibly.
SHARD_SET_VERSION = 2


def save_shard_set(filt, directory) -> Dict[str, object]:
    """Persist a sharded filter as a manifest plus per-shard snapshots.

    Returns the manifest dict.  ``directory`` is created if missing; the
    manifest is written last so a torn save never looks complete.
    """
    from ..sharding.sharded import ShardedFilter

    if not isinstance(filt, ShardedFilter):
        raise TypeError(f"save_shard_set needs a ShardedFilter, got {type(filt).__name__}")
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    filt._refresh_all()
    shards: List[Dict[str, object]] = []
    for i, twin in enumerate(filt._twins):
        shard_file = f"shard{i}.rpro"
        nbytes = save_filter(twin, os.path.join(directory, shard_file))
        shards.append(
            {"file": shard_file, "n_items": int(twin.n_items), "nbytes": int(nbytes)}
        )
    manifest = {
        "format": "repro-shard-set",
        "version": SHARD_SET_VERSION,
        "snapshot_format_version": FORMAT_VERSION,
        "config": filt.snapshot_config(),
        "shards": shards,
    }
    _atomic_write(
        os.path.join(directory, MANIFEST_NAME),
        json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8") + b"\n",
    )
    return manifest


def read_manifest(directory) -> Dict[str, object]:
    """Read and validate a shard-set manifest."""
    path = os.path.join(os.fspath(directory), MANIFEST_NAME)
    try:
        with open(path, "rb") as fh:
            manifest = json.loads(fh.read().decode("utf-8"))
    except FileNotFoundError:
        raise SnapshotError(f"no shard-set manifest at {path}") from None
    except (ValueError, UnicodeDecodeError) as exc:
        raise SnapshotError(f"corrupt shard-set manifest at {path}: {exc}") from None
    if manifest.get("format") != "repro-shard-set":
        raise SnapshotError(f"{path} is not a shard-set manifest")
    if manifest.get("version") != SHARD_SET_VERSION:
        raise SnapshotError(
            f"shard-set version {manifest.get('version')} is not supported "
            f"(this build reads version {SHARD_SET_VERSION})"
        )
    if len(manifest.get("shards", ())) != manifest["config"]["n_shards"]:
        raise SnapshotError(
            f"manifest lists {len(manifest.get('shards', ()))} shard files for "
            f"{manifest['config']['n_shards']} shards"
        )
    return manifest


def load_shard_set(directory, recorder: Optional[StatsRecorder] = None):
    """Rebuild a :class:`ShardedFilter` from a shard-set directory.

    Each shard file is opened with the ordinary snapshot reader (magic,
    version and checksum enforced per shard) and restored straight into the
    rebuilt filter's shared segments.
    """
    from ..sharding.sharded import ShardedFilter

    directory = os.fspath(directory)
    manifest = read_manifest(directory)
    filt = ShardedFilter._from_snapshot_config(manifest["config"], recorder=recorder)
    try:
        for i, entry in enumerate(manifest["shards"]):
            header, state = read_snapshot(os.path.join(directory, entry["file"]))
            shard_class = f"{header['module']}.{header['class']}"
            expected = f"{filt._inner_class.__module__}.{filt._inner_class.__name__}"
            if shard_class != expected:
                raise SnapshotError(
                    f"shard {i} snapshot holds {shard_class}, expected {expected}"
                )
            filt.restore_shard(i, state)
    except BaseException:
        filt.close()
        raise
    return filt
