"""Pluggable service storage: protocols, backends, and replay.

See docs/STORAGE.md for the operator view.  The layout:

* :mod:`.api` — the :class:`ResultStore`/:class:`WriteAheadLog`
  protocols, :class:`StorageConfig` (every knob) and
  :class:`StorageBundle` (the live stores).
* :mod:`.journal` — the framed append-only file with torn-tail recovery
  that every durable structure is built from.
* :mod:`.durable` — :class:`DurableStore` (segments + digest index).
* :mod:`.memory` — :class:`MemoryStore`, the one LRU over results,
  graphs and chain heads, in front of the durable tier when there is
  one.
* :mod:`.wal` — :class:`UpdateWAL`, the update verb's delta log.
* :mod:`.replay` — :func:`replay_chains`, warm-restart chain rebuild.
"""

from repro.service.storage.api import (
    ResultStore,
    StorageBundle,
    StorageConfig,
    StoreMeters,
    WriteAheadLog,
)
from repro.service.storage.durable import DurableStore
from repro.service.storage.journal import (
    FSYNC_POLICIES,
    FsyncPolicy,
    Journal,
    decode_record,
    encode_record,
)
from repro.service.storage.memory import MemoryStore
from repro.service.storage.replay import replay_chains
from repro.service.storage.wal import UpdateWAL, config_from_payload, update_record

__all__ = [
    "ResultStore",
    "WriteAheadLog",
    "StorageConfig",
    "StorageBundle",
    "StoreMeters",
    "DurableStore",
    "MemoryStore",
    "Journal",
    "FsyncPolicy",
    "FSYNC_POLICIES",
    "encode_record",
    "decode_record",
    "UpdateWAL",
    "update_record",
    "config_from_payload",
    "replay_chains",
]
