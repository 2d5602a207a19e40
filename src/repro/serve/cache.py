"""The artifact cache lives in :mod:`repro.store`; this is its serve-side name.

Kept as a module because the end-to-end benchmark binds
``repro.serve.cache.ArtifactCache.get`` by this path
(``benchmarks/e2e/trace.py:TARGETS``).
"""

from repro.store import ArtifactCache, CacheEntry

__all__ = ["ArtifactCache", "CacheEntry"]
