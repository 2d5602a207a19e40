"""One store: checksummed records, content digests, a build-once cache.

Three decisions every restartable or cached thing here makes, made once
(DESIGN.md §17): a *record* is a dataclass of :func:`record_field` s,
saved as one ``.npz`` with a CRC32 over every stored field and refused
on load when unreadable or mismatching; :func:`atomic_open` is the only
way a file is replaced; :func:`content_digest` is the identity hash
that keys the :class:`ArtifactCache`, dedup and the goldens.  A leaf
module: it imports nothing from the packages that use it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import threading
import zipfile
import zlib
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from repro.observability import get_metrics

__all__ = [
    "record_field",
    "record_digest",
    "save_record",
    "load_record",
    "atomic_open",
    "content_digest",
    "ArtifactCache",
    "CacheEntry",
]


@contextmanager
def atomic_open(path: str | Path):
    """Binary write handle whose content replaces ``path`` on a clean exit.

    Written next to the target under a per-writer name; any exception,
    the replace's included, removes it and leaves ``path`` as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def record_field(dtype, **kwargs):
    """A dataclass field stored in the record's ``.npz`` as ``dtype``.

    The dataclass *is* the schema (field order = key order on disk); a
    field declared any other way makes :func:`save_record` raise.  A
    field declared with ``default=None`` is optional: while it is
    ``None`` it is not stored (nor checksummed), and a file without its
    key loads it as ``None`` -- so a field added that way leaves the
    files written before it readable.  Any other missing key refuses
    the file.
    """
    return dataclasses.field(metadata={"dtype": dtype}, **kwargs)


def _optional(f) -> bool:
    return f.default is None


def _encode(obj) -> dict[str, np.ndarray]:
    return {
        f.name: np.asarray(value, dtype=f.metadata["dtype"])
        for f in dataclasses.fields(obj)
        if (value := getattr(obj, f.name)) is not None or not _optional(f)
    }


def _crc(arrays: dict[str, np.ndarray]) -> int:
    crc = 0
    for name, a in arrays.items():
        crc = zlib.crc32(f"{name}{a.shape}".encode(), crc)
        crc = zlib.crc32(a.tobytes(), crc)
    return crc


def record_digest(obj) -> int:
    """CRC32 over every stored field of a record (name, shape, bytes)."""
    return _crc(_encode(obj))


def save_record(path: str | Path, obj) -> Path:
    """Write ``obj`` as a checksummed ``.npz``; returns the path written."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    arrays = _encode(obj)
    with atomic_open(path) as fh:
        np.savez(fh, **arrays, digest=np.uint64(_crc(arrays)))
    return path


def load_record(cls, path: str | Path):
    """Load a record written by :func:`save_record`, or refuse it.

    Scalars (0-d entries) come back as Python values, fields whose
    dataclass default is ``list`` as lists, the rest as arrays.
    """
    # our own handle: np.load leaks its own on an unreadable zip directory,
    # and a path that does not exist is not a bad record
    with open(path, "rb") as fh:
        try:
            with np.load(fh, allow_pickle=False) as z:
                stored = int(z["digest"])
                values = {}
                for f in dataclasses.fields(cls):
                    if _optional(f) and f.name not in z.files:
                        values[f.name] = None
                        continue
                    a = z[f.name]
                    to_python = a.ndim == 0 or f.default_factory is list
                    values[f.name] = a.tolist() if to_python else a
            obj = cls(**values)
            found = record_digest(obj)
        except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
            raise ValueError(
                f"{cls.__name__} {path} failed its integrity check (unreadable: {exc!r})"
            ) from exc
    if found != stored:
        raise ValueError(
            f"{cls.__name__} {path} failed its integrity check "
            f"(stored digest {stored}, recomputed {found})"
        )
    return obj


def content_digest(key: str) -> str:
    """Stable 16-hex-digit identity of a canonical key string."""
    return hashlib.sha256(key.encode()).hexdigest()[:16]


class CacheEntry:
    """One built scenario: its problem artifacts and their lock."""

    def __init__(self, scenario, test):
        self.scenario = scenario
        #: the built AntarcticaTest (mesh + geometry + problem)
        self.test = test
        #: held by whoever solves on, or refreshes, this entry's problem
        self.lock = threading.Lock()
        self.hits = 0

    @property
    def problem(self):
        return self.test.problem


#: built scenarios an :class:`ArtifactCache` keeps before evicting its coldest
MAX_ENTRIES = 32


class ArtifactCache:
    """Digest-keyed cache of built scenarios (thread-safe).

    Building a scenario (mesh, basis, AssemblyPlan symbolic pass) dwarfs
    another solve on it, so built problems are reused by
    ``scenario.digest`` -- anything with a ``digest`` will do (and a
    ``to_config()`` when no builder is injected).  An entry
    also keeps a lock: the problem holds per-solve mutable state (timers,
    hooks, the refreshed geometry), so one caller at a time per entry.
    """

    def __init__(self, builder=None):
        # injectable builder so unit tests swap in a stub problem
        if builder is None:
            from repro.app.antarctica import AntarcticaTest

            builder = lambda scenario: AntarcticaTest.build(scenario.to_config())  # noqa: E731
        self._builder = builder
        self._entries: dict[str, CacheEntry] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def peek(self, scenario) -> CacheEntry | None:
        """The entry for ``scenario`` if already built (no build, no miss)."""
        return self._entries.get(scenario.digest)

    def get(self, scenario) -> CacheEntry:
        """The built entry for ``scenario``, building it on first use."""
        metrics = get_metrics()
        digest = scenario.digest
        with self._lock:
            entry = self._entries.get(digest)
            if entry is not None:
                entry.hits += 1
                metrics.counter("serve.cache.hit").inc()
                return entry
            # built under the cache lock: builds are rare, building one
            # scenario twice wastes minutes, and an entry in the dict is
            # then always fully built
            metrics.counter("serve.cache.miss").inc()
            if len(self._entries) >= MAX_ENTRIES:
                # evict the coldest entry (fewest hits, oldest on ties:
                # dict preserves insertion order)
                coldest = min(self._entries, key=lambda d: self._entries[d].hits)
                del self._entries[coldest]
                metrics.counter("serve.cache.evicted").inc()
            entry = CacheEntry(scenario, self._builder(scenario))
            self._entries[digest] = entry
            metrics.gauge("serve.cache.entries").set(len(self._entries))
            return entry
