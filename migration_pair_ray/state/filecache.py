"""Parsed contents of the files the lake has published, kept per process.

Every state file, merge-on-read delta and Bloom sidecar is written to a
temporary name, fsynced and renamed into place under a pass-derived name
(stages/applier, state/bloom), and never changed afterwards.  A process
that has parsed one of them once (a Parquet footer, a sidecar's filters)
can therefore keep the parse: ``published`` returns it again after one
``os.stat`` of the file, so a repeated scan plans without re-reading 16
footers and a repeated lookup prunes without re-reading its sidecars.

The stat is the validation.  An entry is kept with the file's
``(st_ino, st_size, st_mtime_ns)`` and is used only while the file still
has them: a file replaced at the same path (temp + ``os.replace``, as the
writers publish) has a new inode and is parsed again, and a missing file
raises the stat's ``FileNotFoundError``.  That is sound only for files
that are never rewritten in place.  Change files (written by producers),
manifests, ``_lake_meta.json`` and checkpoints are rewritten in place and
are never read through here: a rewrite of the same size inside one mtime
tick, or a recycled inode of the same size, would alias the old entry.

The cache holds at most ``_CAP`` entries, least recently used first out.
It holds parsed footers and sidecars only, never decoded data.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict

_CAP = 1024
_entries: OrderedDict = OrderedDict()
_lock = threading.Lock()


def published(path, parse):
    """``parse(path)`` for a published lake file, parsed once per process
    while the file keeps its inode, size and mtime (see the module
    docstring for which files qualify).  Safe from several threads: two
    threads may parse the same new file at once, and either result is
    kept."""
    path = os.path.abspath(path)
    st = os.stat(path)
    stamp = (st.st_ino, st.st_size, st.st_mtime_ns)
    key = (parse, path)
    with _lock:
        hit = _entries.get(key)
        if hit is not None and hit[0] == stamp:
            _entries.move_to_end(key)
            return hit[1]
    value = parse(path)
    with _lock:
        _entries[key] = (stamp, value)
        _entries.move_to_end(key)
        while len(_entries) > _CAP:
            _entries.popitem(last=False)
    return value
