"""Content-addressed cache of extracted sweep results.

Sweep grids re-simulate identical ``(config, seed)`` points across
experiments — E1's base grid reappears in the E5/E7 ablations, and
regenerating a table after a docs-only change re-runs every scenario
from scratch.  Scenarios are fully deterministic given their config
(``repro check`` holds the reference twins, worker counts and shard
counts to byte-identical results), so an extracted reducer output is a
pure function of three things, which together form the cache key:

* the **canonical serialized config** (:func:`canonical_config_json` —
  includes the seed and every knob);
* a **hash of the ``repro`` package tree** (every ``.py`` file's path
  and content), so *any* source change invalidates the whole cache —
  stale physics can never be served after an optimization PR;
* the **extractor identity** (``module:qualname``), because the cached
  value is ``extract(result)``, not the result itself.

Entries are pickles of the (already pickle-safe — they cross the
process pool) reducer outputs, written atomically under a cache root
resolved from ``$REPRO_CACHE_DIR``, falling back to a repo-local
``.repro-cache/``.  A corrupted entry (truncated write, foreign file)
is treated as a miss: it is evicted, a warning is logged, and the
point is simulated normally.

``run_scenarios``/``run_sweep`` consult the *process default* cache —
``None`` unless installed via :func:`set_default_cache` (the CLI's
``repro experiment --cache`` does this) or passed explicitly — so
library behavior is unchanged until a caller opts in.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from repro.harness.serialize import canonical_config_json

__all__ = [
    "CacheStats",
    "SweepCache",
    "default_cache_dir",
    "get_default_cache",
    "package_tree_hash",
    "set_default_cache",
]

logger = logging.getLogger(__name__)

#: Bumped when the entry format changes; part of every key.
_FORMAT_VERSION = "1"

#: Memoized package-tree hashes, keyed by package root (hashing ~200
#: files per run_scenarios call would dwarf a cache hit's savings).
_tree_hashes: dict[str, str] = {}


def package_tree_hash(root: str | os.PathLike[str] | None = None) -> str:
    """Hash of every ``.py`` file (path + content) under a package root.

    Defaults to the installed ``repro`` package.  Memoized per process —
    the source tree does not change under a running sweep; tests that
    mutate files call :func:`invalidate_tree_hash` (or pass a fresh
    root) to observe the new hash.
    """
    if root is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
    root = os.path.abspath(os.fspath(root))
    cached = _tree_hashes.get(root)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    paths = sorted(
        path
        for path in Path(root).rglob("*.py")
        if "__pycache__" not in path.parts
    )
    for path in paths:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    value = digest.hexdigest()
    _tree_hashes[root] = value
    return value


def invalidate_tree_hash(root: str | os.PathLike[str] | None = None) -> None:
    """Drop memoized tree hashes (all of them when ``root`` is None)."""
    if root is None:
        _tree_hashes.clear()
    else:
        _tree_hashes.pop(os.path.abspath(os.fspath(root)), None)


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else a repo-local ``.repro-cache/``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path(".repro-cache")


@dataclass
class CacheStats:
    """Tallies of one cache's lifetime (what the CLI prints)."""

    hits: int = 0
    misses: int = 0
    skipped: int = 0  # points that were not cacheable (no extractor)
    stores: int = 0
    evictions: int = 0  # corrupted entries dropped

    def describe(self) -> str:
        return (
            f"cache: {self.hits} hits, {self.misses} misses, "
            f"{self.skipped} skipped, {self.stores} stored"
            + (f", {self.evictions} corrupt evicted" if self.evictions else "")
        )


class SweepCache:
    """One on-disk content-addressed store of extracted sweep results."""

    def __init__(
        self,
        root: str | os.PathLike[str] | None = None,
        *,
        package_root: str | os.PathLike[str] | None = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self._package_root = package_root
        self.stats = CacheStats()

    # ---------------------------------------------------------------- keys

    def key(self, config: Any, extract: Callable[..., Any]) -> str:
        """Content address of one ``(config, extractor)`` point."""
        extractor_id = f"{extract.__module__}:{getattr(extract, '__qualname__', repr(extract))}"
        payload = "\n".join(
            (
                _FORMAT_VERSION,
                package_tree_hash(self._package_root),
                extractor_id,
                canonical_config_json(config),
            )
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    # ------------------------------------------------------------- get/put

    def get(self, key: str) -> tuple[bool, Any]:
        """``(True, value)`` on a hit; corrupted entries evict to a miss."""
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return False, None
        except Exception as exc:
            logger.warning(
                "evicting corrupted cache entry %s (%s: %s); re-simulating",
                path, type(exc).__name__, exc,
            )
            try:
                path.unlink()
            except OSError:
                pass
            self.stats.evictions += 1
            self.stats.misses += 1
            return False, None
        self.stats.hits += 1
        return True, value

    def put(self, key: str, value: Any) -> None:
        """Store one extracted value atomically (tmp file + rename)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except Exception:
            tmp.unlink(missing_ok=True)
            raise
        self.stats.stores += 1

    # ------------------------------------------------------------ maintain

    def entries(self) -> list[Path]:
        """Every entry file currently in the store."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.pkl"))

    def info(self) -> dict[str, Any]:
        """Path, entry count and total size (``repro cache info``)."""
        entries = self.entries()
        return {
            "path": str(self.root),
            "entries": len(entries),
            "bytes": sum(path.stat().st_size for path in entries),
        }

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


# Process-wide default consulted by run_scenarios when no explicit cache
# is passed; None (the initial state) leaves library behavior untouched.
_default_cache: Optional[SweepCache] = None


def get_default_cache() -> Optional[SweepCache]:
    """The process-wide default cache, or ``None`` when caching is off."""
    return _default_cache


def set_default_cache(cache: Optional[SweepCache]) -> Optional[SweepCache]:
    """Install (or, with ``None``, remove) the process default; returns it."""
    global _default_cache
    _default_cache = cache
    return cache
