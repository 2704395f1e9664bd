"""Versioned on-disk checkpoints of a running simulation.

A :class:`Checkpoint` is the durable form of one simulated system frozen
at one cycle: a format version, the code digest of the writing process, a
hash of the component-tree *schema* (paths, classes, anchors, signals,
stat names), the request snapshot that built the system, and the encoded
state body (per-path component state, kernel queues, RNG streams, stats)
produced by :mod:`repro.sim.snapshot`.

Restores are strict by design: a checkpoint only loads into a system
whose rebuilt schema hashes identically (:class:`CheckpointSchemaError`
otherwise), written by the same format version and — unless explicitly
overridden — the same code digest (:class:`CheckpointVersionError`).
The alternative, best-effort partial restores, silently corrupts
simulations; bit-identical resume is the whole contract.

:class:`SnapshotScope` gathers the pieces a run session exposes (sim,
component roots, RNG tree, stats registry, extra anchors)
and drives capture/restore through the codec.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..errors import (CheckpointError, CheckpointSchemaError,
                      CheckpointVersionError)
from .component import Component
from .engine import Simulator
from .rng import RngTree
from .snapshot import SnapshotDecoder, SnapshotEncoder
from .stats import StatsRegistry

__all__ = ["Checkpoint", "SnapshotScope", "FORMAT_VERSION",
           "save_checkpoint", "load_checkpoint"]

#: bump when the container layout or codec tags change incompatibly
FORMAT_VERSION = 1

_MAGIC = "repro-smarco-checkpoint"


class SnapshotScope:
    """Everything one run session exposes to the checkpoint layer."""

    def __init__(
        self,
        sim: Simulator,
        roots: Tuple[Component, ...] = (),
        rng: Optional[RngTree] = None,
        registry: Optional[StatsRegistry] = None,
        extra_anchors: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.sim = sim
        self.roots = tuple(roots)
        self.rng = rng
        self.registry = registry
        self.extra_anchors = dict(extra_anchors or {})

    # -- anchors and schema --------------------------------------------------

    def anchors(self) -> Dict[str, Any]:
        """The stable-key -> object table the codec resolves against."""
        table: Dict[str, Any] = {"sim": self.sim}
        for root in self.roots:
            for comp in root.walk():
                table[f"c:{comp.path}"] = comp
                for key, obj in comp.snapshot_anchors().items():
                    table[f"a:{comp.path}/{key}"] = obj
        for key, sig in self.sim.signals().items():
            table[f"s:{key}"] = sig
        for key, obj in self.extra_anchors.items():
            table[f"x:{key}"] = obj
        return table

    def schema_hash(self) -> str:
        """Digest of the system's *structure* (not its state).

        Stat names are deliberately excluded: some stats (latency-breakdown
        hop accumulators) are created lazily by traffic, so the save-time
        name set is state, not structure.  Stat-set mismatches still fail
        the restore, as a :class:`CheckpointSchemaError` from the registry
        load.
        """
        digest = hashlib.sha256()
        digest.update(f"format:{FORMAT_VERSION}".encode())
        for key, obj in sorted(self.anchors().items(),
                               key=lambda item: item[0]):
            digest.update(f"{key}={type(obj).__qualname__}\0".encode())
        return digest.hexdigest()[:16]

    # -- capture / restore ---------------------------------------------------

    def capture(self, extra_state: Optional[Dict[str, Any]] = None
                ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """Encode the full state body; returns (data, objects) blobs."""
        rng_names: Dict[int, str] = {}
        if self.rng is not None:
            rng_names = {id(stream): name
                         for name, stream in self.rng.items()}
        encoder = SnapshotEncoder(self.anchors(), rng_names)
        body: Dict[str, Any] = {
            "sim": self.sim.state_dict(),
            "components": {
                comp.path: comp.state_dict()
                for root in self.roots for comp in root.walk()
            },
            "stats": (self.registry.state_dict()
                      if self.registry is not None else {}),
            "rng": self.rng.state_dict() if self.rng is not None else None,
            "extra": extra_state or {},
        }
        return encoder.encode(body), encoder.objects

    def restore(self, data: Dict[str, Any],
                objects: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
        """Decode a state body into this (freshly rebuilt) system.

        Returns the session-specific ``extra`` state for the caller.
        """
        resolver = self.rng.resolve if self.rng is not None else None
        decoder = SnapshotDecoder(self.anchors(), objects,
                                  rng_resolver=resolver)
        body = decoder.decode(data)
        by_path = {comp.path: comp
                   for root in self.roots for comp in root.walk()}
        saved_paths = body["components"]
        if set(saved_paths) != set(by_path):
            missing = sorted(set(saved_paths) - set(by_path))[:3]
            extra = sorted(set(by_path) - set(saved_paths))[:3]
            raise CheckpointSchemaError(
                f"component tree mismatch (checkpoint-only: {missing}, "
                f"rebuilt-only: {extra})")
        for path, comp_state in saved_paths.items():
            by_path[path].load_state(comp_state)
        if self.registry is not None:
            try:
                self.registry.load_state(body["stats"])
            except KeyError as exc:
                raise CheckpointSchemaError(
                    f"stat set mismatch: {exc.args[0]}") from None
        if self.rng is not None and body["rng"] is not None:
            self.rng.load_state(body["rng"])
        self.sim.load_state(body["sim"])
        return body["extra"]


@dataclass
class Checkpoint:
    """The versioned container: header + encoded state body."""

    format: int
    code_digest: str
    schema: str
    kind: str
    request: Dict[str, Any]        # RunRequest.snapshot() of the run
    cycle: float                   # sim.now at capture
    data: Dict[str, Any]           # encoded state body
    objects: Dict[str, Any] = field(default_factory=dict)

    # -- header checks -------------------------------------------------------

    def verify(self, scope: SnapshotScope, code_digest: str,
               allow_code_skew: bool = False) -> None:
        """Raise unless this checkpoint may restore into ``scope``."""
        if self.format != FORMAT_VERSION:
            raise CheckpointVersionError(
                f"checkpoint format v{self.format} != supported "
                f"v{FORMAT_VERSION}")
        if self.code_digest != code_digest and not allow_code_skew:
            raise CheckpointVersionError(
                f"checkpoint written by code {self.code_digest}, this "
                f"process is {code_digest}; pass allow_code_skew=True "
                f"to override (results may not reproduce)")
        rebuilt = scope.schema_hash()
        if self.schema != rebuilt:
            raise CheckpointSchemaError(
                f"checkpoint schema {self.schema} != rebuilt system "
                f"schema {rebuilt}; the request does not rebuild the "
                f"structure this checkpoint froze")

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "magic": _MAGIC,
            "format": self.format,
            "code_digest": self.code_digest,
            "schema": self.schema,
            "kind": self.kind,
            "request": self.request,
            "cycle": self.cycle,
            "data": self.data,
            "objects": self.objects,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "Checkpoint":
        if raw.get("magic") != _MAGIC:
            raise CheckpointError("not a repro-smarco checkpoint file")
        return cls(
            format=raw["format"],
            code_digest=raw["code_digest"],
            schema=raw["schema"],
            kind=raw["kind"],
            request=raw["request"],
            cycle=raw["cycle"],
            data=raw["data"],
            objects=raw["objects"],
        )

    def summary(self) -> Dict[str, Any]:
        """Header-only view (the ``checkpoint info`` CLI output)."""
        return {
            "format": self.format,
            "code_digest": self.code_digest,
            "schema": self.schema,
            "kind": self.kind,
            "workload": self.request.get("workload"),
            "seed": self.request.get("seed"),
            "cycle": self.cycle,
            "objects": len(self.objects),
        }


def save_checkpoint(ckpt: Checkpoint, path: Path) -> Path:
    """Write a checkpoint (gzipped JSON when the name ends in ``.gz``).

    Compression is gzip level 1: on a 4x4 chip it writes about 14 %
    more bytes than level 9 in a tenth of the time, and reads as fast.
    The write is atomic (tmp file + ``os.replace``): an interrupted save
    leaves no file at ``path``, never a torn one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(ckpt.to_dict()).encode("utf-8")
    if path.suffix == ".gz":
        payload = gzip.compress(payload, compresslevel=1)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_checkpoint(path: Path) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`."""
    path = Path(path)
    try:
        if path.suffix == ".gz":
            with gzip.open(path, "rt", encoding="utf-8") as fh:
                raw = json.load(fh)
        else:
            raw = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from None
    return Checkpoint.from_dict(raw)
