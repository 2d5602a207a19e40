"""Versioned JSON persistence of tuned configurations.

One cache file holds the winning configuration per ``(mesh key, GPU
spec)`` pair, so a tuned solve is a dictionary lookup on the next run
(zero trials -- the acceptance contract asserts this via the
``tune.trials`` counter).  The file is *advisory state*, never a
correctness input, so every failure mode degrades to "tune again or use
the hand-picked defaults":

* corrupt JSON / wrong top-level shape -> the whole file is ignored and
  a ``tune.cache.invalid`` counter is incremented (never a crash);
* schema-version mismatch (top-level or per-entry) -> the stale entries
  are ignored (``tune.cache.stale``) and overwritten on the next save;
* unknown axis values from a future repo version -> that entry is
  dropped on load (it no longer describes a constructible config).

Writes are atomic (:func:`repro.store.atomic_open`) so a crashed tuner
never leaves a half-written cache behind.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.observability import get_metrics
from repro.store import atomic_open
from repro.tune.space import TuneCandidate

__all__ = ["SCHEMA_VERSION", "TuneRecord", "TuneCache", "default_cache_path", "cache_key"]

#: 3: every trial priced at one kernel-axes choice.  Every v2 winner was
#: chosen with the default trial priced at another LaunchBounds than its
#: rivals (most name ``matrix-free`` for that reason alone), so v2
#: entries take the stale path and are retuned.
SCHEMA_VERSION = 3

#: environment override for the cache location (tests point this at a
#: tmp dir; CI keeps it out of the workspace)
CACHE_ENV = "REPRO_TUNE_CACHE"


def default_cache_path() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "tuned_configs.json"


def cache_key(mesh_key: str, gpu_name: str) -> str:
    """Cache entries are per (mesh, architecture): ``<mesh>|<gpu>``."""
    return f"{mesh_key}|{gpu_name}"


@dataclass(frozen=True)
class TuneRecord:
    """One persisted winner: the config plus its measured credentials."""

    candidate: TuneCandidate
    #: measured deterministic cost (modeled kernel + solver HBM bytes)
    cost_bytes: float
    #: measured GMRES iterations of the winning solve
    gmres_iterations: int
    #: trials spent finding it
    trials: int
    #: deterministic cost of the hand-picked default *solver* axes at
    #: the same kernel axes as the winner (so ``cost_bytes /
    #: default_cost_bytes`` <= 1 compares measured solves only)
    default_cost_bytes: float

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.candidate.to_dict(),
            "cost_bytes": self.cost_bytes,
            "gmres_iterations": self.gmres_iterations,
            "trials": self.trials,
            "default_cost_bytes": self.default_cost_bytes,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TuneRecord":
        return cls(
            candidate=TuneCandidate.from_dict(d["config"]),
            cost_bytes=float(d["cost_bytes"]),
            gmres_iterations=int(d["gmres_iterations"]),
            trials=int(d["trials"]),
            default_cost_bytes=float(d["default_cost_bytes"]),
        )


class TuneCache:
    """The on-disk ``{key: TuneRecord}`` map, loaded tolerantly."""

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else default_cache_path()
        self._entries: dict[str, TuneRecord] = {}
        self._load()

    # ------------------------------------------------------------------
    def _load(self) -> None:
        if not self.path.exists():
            return
        metrics = get_metrics()
        try:
            doc = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            metrics.counter("tune.cache.invalid").inc()
            return
        if not isinstance(doc, dict) or not isinstance(doc.get("entries"), dict):
            metrics.counter("tune.cache.invalid").inc()
            return
        if doc.get("schema_version") != SCHEMA_VERSION:
            # a whole file written by another schema: every entry is stale
            metrics.counter("tune.cache.stale").inc(len(doc["entries"]))
            return
        for key, entry in doc["entries"].items():
            if not isinstance(entry, dict) or entry.get("schema_version") != SCHEMA_VERSION:
                metrics.counter("tune.cache.stale").inc()
                continue
            try:
                self._entries[str(key)] = TuneRecord.from_dict(entry)
            except (KeyError, TypeError, ValueError):
                metrics.counter("tune.cache.invalid").inc()

    # ------------------------------------------------------------------
    def get(self, key: str) -> TuneRecord | None:
        rec = self._entries.get(key)
        metrics = get_metrics()
        if rec is None:
            metrics.counter("tune.cache.misses").inc()
        else:
            metrics.counter("tune.cache.hits").inc()
        return rec

    def put(self, key: str, record: TuneRecord) -> None:
        self._entries[key] = record

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list[str]:
        return sorted(self._entries)

    # ------------------------------------------------------------------
    def save(self) -> Path:
        """Atomic write of the full map (sorted keys: stable diffs)."""
        doc = {
            "schema_version": SCHEMA_VERSION,
            "entries": {k: self._entries[k].to_dict() for k in sorted(self._entries)},
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_open(self.path) as fh:
            fh.write((json.dumps(doc, indent=2, sort_keys=True) + "\n").encode())
        return self.path
