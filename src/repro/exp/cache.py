"""Content-addressed on-disk result cache.

A run is keyed by the SHA-256 of the canonical JSON of its
``RunRequest.snapshot()`` plus a *code version* string, so a cache entry
is valid exactly as long as both the request and the simulator source
are unchanged.  The default code version is a digest over every ``.py``
file of the installed ``repro`` package — editing any simulator source
invalidates the whole cache, which errs on the side of re-simulating.

Entries are JSON files under ``<root>/<key[:2]>/<key>.json`` holding the
serialised :class:`repro.chip.run.RunOutcome` (request snapshot, result
dict, stats dump).  Writes are atomic (tmp file + ``os.replace``) so a
crashed or parallel run never leaves a torn entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path
from typing import Any, Dict, Optional

from .request import RunRequest

__all__ = ["ResultCache", "HIT_KINDS", "canonical_json", "code_version",
           "request_key"]

#: How a sweep point was satisfied: a full-run cache hit (result reused
#: verbatim), a warm-start partial hit (post-warmup checkpoint restored,
#: only the measurement suffix simulated), or a miss (full simulation).
HIT_KINDS = ("hit", "warm", "miss")

_PACKAGE_ROOT = Path(__file__).resolve().parents[1]
_code_version_cache: Optional[str] = None


def canonical_json(obj: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def code_version(refresh: bool = False) -> str:
    """Digest of the ``repro`` package sources (cached per process)."""
    global _code_version_cache
    if _code_version_cache is None or refresh:
        digest = hashlib.sha256()
        for path in sorted(_PACKAGE_ROOT.rglob("*.py")):
            digest.update(str(path.relative_to(_PACKAGE_ROOT)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _code_version_cache = digest.hexdigest()[:16]
    return _code_version_cache


def request_key(request: RunRequest, version: Optional[str] = None) -> str:
    """Stable cache key for one request under one code version."""
    payload = {"request": request.snapshot(),
               "code": version if version is not None else code_version()}
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


class ResultCache:
    """A directory of finished run outcomes, addressed by request key."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        #: entries that existed but could not be read or parsed
        self.corrupt = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored outcome dict, or ``None`` on a miss.

        An entry that exists but cannot be read or parsed also reads as
        ``None``, so the point is simulated again and its entry rewritten;
        it is counted in :attr:`corrupt` (and in the sweep's
        ``hit_counts``), and the first one per cache raises a warning.
        """
        path = self._path(key)
        try:
            return json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            self.corrupt += 1
            if self.corrupt == 1:
                warnings.warn(
                    f"unreadable result cache entry {path} ({exc}); "
                    f"simulating the point again (further corrupt entries "
                    f"are counted, not warned about)",
                    RuntimeWarning, stacklevel=2)
            return None

    def put(self, key: str, outcome: Dict[str, Any]) -> Path:
        """Atomically store an outcome dict under ``key``."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(outcome))
        os.replace(tmp, path)
        return path

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*/*.json"):
                path.unlink()
                removed += 1
        return removed
