"""Persistent store of tuned configurations.

One JSON file holds every tuned config, keyed by
``device|precision|sketch-digest``: a config tuned for the Protein
pattern on the K40 is reused whenever the same structure is multiplied
on the same device again, and never leaks to other devices or patterns.
``path=None`` keeps the store in memory (the default for library use;
the CLI's ``--tune-store`` flag provides a path).

Writes are atomic (temp file + ``os.replace``) so a crashed run never
leaves a truncated store, and any schema mismatch or undecodable file is
treated as empty -- stale caches invalidate themselves instead of
poisoning future runs.

Concurrent writers (several serving workers tuning at once, or separate
processes sharing ``--tune-store``) are serialized by a sidecar lock
file (``<path>.lock``, created with ``O_CREAT | O_EXCL``) held across
the read-modify-write: under the lock :meth:`TuningStore.save` re-reads
the on-disk entries and merges them beneath the in-memory ones, so two
writers tuning *different* keys both survive -- the classic lost-update
race of unsynchronized read-modify-write.  Locks abandoned by a crashed
writer are broken after :data:`LOCK_STALE_S`.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import threading
import time

#: Bump when the entry layout or the objective changes incompatibly;
#: stores written under any other schema are discarded on load.
STORE_SCHEMA = 1

#: How long a writer waits for the sidecar lock before giving up.
LOCK_TIMEOUT_S = 10.0
#: A lock file older than this is presumed abandoned and broken.
LOCK_STALE_S = 60.0
_LOCK_POLL_S = 0.002


class TuningStore:
    """Mapping ``(device, precision, digest) -> tuned entry``.

    Entries are plain dicts (JSON-representable): ``overrides`` (the
    :meth:`~repro.core.params.ParamOverrides.to_dict` form), ``speedup``,
    ``default_seconds``, ``tuned_seconds`` and ``validated``.
    """

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self.entries: dict[str, dict] = {}
        self._mutex = threading.Lock()    #: intra-process writer lock
        if path is not None:
            self._load()

    @staticmethod
    def key(device_name: str, precision: str, digest: str) -> str:
        return f"{device_name}|{precision}|{digest}"

    def _read_disk(self) -> dict[str, dict]:
        """The on-disk entries (empty on absence, damage or old schema)."""
        try:
            with open(self.path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return {}
        if not isinstance(data, dict) or data.get("schema") != STORE_SCHEMA:
            return {}                   # stale or foreign file: start fresh
        entries = data.get("entries")
        if not isinstance(entries, dict):
            return {}
        return {str(k): dict(v) for k, v in entries.items()
                if isinstance(v, dict)}

    def _load(self) -> None:
        self.entries = self._read_disk()

    @contextlib.contextmanager
    def _file_lock(self):
        """Hold ``<path>.lock`` (O_CREAT|O_EXCL) across a read-modify-write.

        Polls until :data:`LOCK_TIMEOUT_S` (raising :class:`TimeoutError`
        after), breaking locks older than :data:`LOCK_STALE_S` that a
        crashed writer left behind.
        """
        lock = self.path + ".lock"
        deadline = time.monotonic() + LOCK_TIMEOUT_S
        while True:
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, f"{os.getpid()}\n".encode())
                os.close(fd)
                break
            except FileExistsError:
                try:
                    if time.time() - os.path.getmtime(lock) > LOCK_STALE_S:
                        os.unlink(lock)     # abandoned by a crashed writer
                        continue
                except OSError:
                    pass                    # raced with the holder's unlink
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"tuning store lock {lock!r} held for over "
                        f"{LOCK_TIMEOUT_S:g}s; remove it if its owner died")
                time.sleep(_LOCK_POLL_S)
        try:
            yield
        finally:
            try:
                os.unlink(lock)
            except OSError:
                pass

    def save(self, merge: bool = True) -> None:
        """Persist to ``path`` atomically (no-op for in-memory stores).

        With ``merge=True`` (the default) the on-disk entries are
        re-read under the lock and kept beneath the in-memory ones, so
        a concurrent writer's keys are never silently dropped;
        ``merge=False`` makes this store's view authoritative
        (:meth:`clear` uses it -- a wipe must not resurrect entries).
        """
        if self.path is None:
            return
        with self._mutex, self._file_lock():
            if merge:
                merged = self._read_disk()
                merged.update(self.entries)
                self.entries = merged
            payload = {"schema": STORE_SCHEMA, "entries": self.entries}
            d = os.path.dirname(os.path.abspath(self.path)) or "."
            fd, tmp = tempfile.mkstemp(prefix=".tune-", dir=d)
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh, indent=1, sort_keys=True)
                    fh.write("\n")
                os.replace(tmp, self.path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

    def get(self, device_name: str, precision: str, digest: str) -> dict | None:
        return self.entries.get(self.key(device_name, precision, digest))

    def put(self, device_name: str, precision: str, digest: str,
            entry: dict) -> None:
        self.entries[self.key(device_name, precision, digest)] = dict(entry)
        self.save()

    def __len__(self) -> int:
        return len(self.entries)

    def clear(self) -> None:
        self.entries.clear()
        self.save(merge=False)
