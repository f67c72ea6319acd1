"""Fault-injection helpers for validating the engine's retry/exactly-once
story (importable on Ray workers — test modules are not).

The reference handles write-timeouts by sleeping and retrying the write
(``Policies/RetryPolicy.cs:18-23``).  Here the equivalent guarantee is that
a merge task whose worker dies mid-task is retried by Ray (the task
executor's ``max_retries=cfg.apply_max_retries`` on each merge task) and
the retry is harmless because every effect is gated on the manifest commit.
"""

from __future__ import annotations

import os
from pathlib import Path

from migration_pair_ray.stages.applier import merge_partition


def fault_injecting_merge(group, cfg, pass_id, **kw):
    """``merge_partition`` whose worker process dies mid-task exactly once
    — the first attempt to create the marker file wins the right to crash.
    Later attempts (including the retried task) merge normally.  Pass as
    ``merge_fn`` to ``apply_changes_ds`` on its task executor."""
    marker = Path(cfg.lake_dir) / "_fault_injected_once"
    marker.parent.mkdir(parents=True, exist_ok=True)
    try:
        marker.touch(exist_ok=False)
    except FileExistsError:
        pass
    else:
        os._exit(1)   # simulate a worker crash mid-task
    return merge_partition(group, cfg, pass_id, **kw)
