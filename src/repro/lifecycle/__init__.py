"""Filter lifecycle layer: snapshots and k-way merge.

The paper's headline application (the MetaHipMer k-mer pipeline) assumes
filters that outlive a single kernel launch: they are saved to disk, shipped
between nodes, merged, and grown.  This package provides those primitives on
top of the core filters:

* :mod:`repro.lifecycle.snapshot` — a versioned, checksummed binary snapshot
  format (``save_filter``/``load_filter``), surfaced as ``filter.save(path)``
  / ``FilterClass.load(path)`` on every filter;
* :mod:`repro.lifecycle.merge` — ``merge(*filters)`` streaming k sorted
  fingerprint runs into a fresh table (counts summed for counting filters,
  values resolved by policy for the TCF).

Growth is not here: every resizable filter grows in place through its own
``grow(extra_quotient_bits=1)`` (quotient extension for the quotient family,
journal replay into doubled tables for the TCF family, every shard for the
sharded filter), which is also what ``auto_resize=True`` runs inside
inserts.  A filter whose structure cannot grow refuses with
``UnsupportedOperationError``.
"""

from .merge import merge
from .shardset import load_shard_set, read_manifest, save_shard_set
from .snapshot import (
    FORMAT_VERSION,
    load_filter,
    read_snapshot,
    save_filter,
)

__all__ = [
    "FORMAT_VERSION",
    "load_filter",
    "load_shard_set",
    "merge",
    "read_manifest",
    "read_snapshot",
    "save_filter",
    "save_shard_set",
]
