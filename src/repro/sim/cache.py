"""Disk memoization of simulation results.

Cache entries are keyed by a *content hash* (normally
:meth:`Scenario.content_hash`, or any canonical-JSON digest from
:func:`spec_hash`) combined with a *code version* — a digest over every
``src/repro`` source file — so editing the simulator silently
invalidates every stale result instead of reviving it.

The default cache root is ``.repro-cache`` in the working directory,
overridable with the ``REPRO_CACHE_DIR`` environment variable or the
``cache_dir`` argument.  Writes are atomic (tmp file + rename) so a
killed run never leaves a truncated entry behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional

#: cache entry layout version; bump on incompatible changes so old
#: entries become clean misses instead of being misparsed
CACHE_FORMAT = 1

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Digest of every ``.py`` file under ``src/repro`` (cached per
    process)."""
    global _CODE_VERSION
    if _CODE_VERSION is None:
        root = Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def spec_hash(spec: dict) -> str:
    """Stable digest of any JSON-serializable work-unit description
    (the runner hashes ``{"experiment": ..., "seed": ...}`` specs the
    same way scenarios hash their canonical form)."""
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class ResultCache:
    """A directory of memoized result payloads."""

    def __init__(self, cache_dir: "str | Path | None" = None):
        if cache_dir is None:
            cache_dir = os.environ.get("REPRO_CACHE_DIR", ".repro-cache")
        self.root = Path(cache_dir)
        self.version = code_version()

    def _path(self, content_hash: str) -> Path:
        name = f"{content_hash}-{self.version}.json"
        return self.root / content_hash[:2] / name

    def get(self, content_hash: str) -> Optional[dict]:
        """The stored payload, or None on any kind of miss.

        A truncated or garbage entry file (killed writer predating the
        atomic-write discipline, disk corruption, hand-editing), a
        stale code version or an unknown entry format are all treated
        as misses — the cache never raises on damaged state, it
        re-simulates.
        """
        path = self._path(content_hash)
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
        except (
            FileNotFoundError,
            json.JSONDecodeError,
            UnicodeDecodeError,
            OSError,
        ):
            return None
        if not isinstance(entry, dict):
            return None
        if entry.get("format") != CACHE_FORMAT:
            return None
        if entry.get("code_version") != self.version:  # pragma: no cover
            return None
        payload = entry.get("payload")
        return payload if isinstance(payload, dict) else None

    def put(self, content_hash: str, payload: dict) -> Path:
        path = self._path(content_hash)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "format": CACHE_FORMAT,
            "content_hash": content_hash,
            "code_version": self.version,
            "payload": payload,
        }
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, indent=2, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path
