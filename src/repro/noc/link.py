"""Physical links: sliced narrow channels and ring segments.

The paper's high-density NoC (§3.3, Figs 9–10) divides a wide link into
self-governed narrow channels.  We model a link as a set of *slices*, each
``slice_bytes`` wide per cycle, with per-slice availability times.  Three
allocation policies:

* ``"greedy"`` — the paper's allocator: a packet takes the earliest-free
  slices wherever they are, so several small packets share one cycle;
* ``"firstfit"`` — ablation: a packet must take a *contiguous* slice block
  (models cheap allocators that cannot scatter a packet across channels);
* ``"monolithic"`` — the conventional wide link: every packet occupies the
  whole width for its serialisation time, no sharing.

A :class:`RingSegment` is the physical connection between two adjacent
routers: per-direction fixed datapaths plus a pool of bidirectional
datapaths either direction may borrow (paper §3.3: main ring = 3 fixed per
direction + 2 bidirectional; sub-ring = 1 + 2).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from ..errors import NocError
from ..sim.stats import StatsRegistry

__all__ = ["SlicedLink", "RingSegment"]

_POLICIES = ("greedy", "firstfit", "monolithic")


class SlicedLink:
    """One direction of a physical link, divided into narrow slices."""

    def __init__(
        self,
        name: str,
        width_bytes: int,
        slice_bytes: int,
        policy: str = "greedy",
        registry: Optional[StatsRegistry] = None,
    ) -> None:
        if policy not in _POLICIES:
            raise NocError(f"unknown allocation policy {policy!r}")
        if width_bytes <= 0 or slice_bytes <= 0:
            raise NocError(
                f"link width/slice must be positive, got {width_bytes}/{slice_bytes}"
            )
        self.name = name
        self.width_bytes = width_bytes
        self.policy = policy
        # A slice wider than the link (or not dividing it) degrades to fewer,
        # wider channels; the whole width always stays usable.
        self.n_slices = max(1, width_bytes // slice_bytes)
        self.slice_bytes = width_bytes / self.n_slices
        self._slice_free: List[float] = [0.0] * self.n_slices
        # size_bytes -> (slices_needed, k, cycles); traffic uses a handful
        # of distinct packet sizes, so the ceil arithmetic is paid once per
        # size instead of once per reservation
        self._fit_cache: dict = {}
        #: set to a list to record every reservation as
        #: ``(chosen_slice_indices, start, finish)`` (tests/debugging)
        self.reservation_log: Optional[
            List[Tuple[Tuple[int, ...], float, float]]] = None
        #: set by the audit layer to observe every reservation as
        #: ``hook(link, size_bytes, start, finish, now)``
        self.audit_hook = None
        reg = registry if registry is not None else StatsRegistry()
        self.packets = reg.counter(f"{name}.packets")
        self.bytes_moved = reg.counter(f"{name}.bytes")
        self.wait_cycles = reg.accumulator(f"{name}.wait")

    # -- allocation ---------------------------------------------------------

    def transmit(self, size_bytes: int, now: float) -> float:
        """Reserve capacity for one packet; returns its link-exit time."""
        return self.reserve(size_bytes, now)[1]

    def reserve(self, size_bytes: int, now: float) -> Tuple[float, float]:
        """Reserve capacity for one packet; returns ``(start, finish)``.

        ``start - now`` is the per-slice wait the packet spends queued for
        its narrow channels (hop traces stamp it as ``link_wait``).
        """
        fit = self._fit_cache.get(size_bytes)
        if fit is None:
            if size_bytes <= 0:
                raise NocError(
                    f"packet size must be positive, got {size_bytes}")
            slices_needed = math.ceil(size_bytes / self.slice_bytes)
            k = min(slices_needed, self.n_slices)
            # ceil(needed / k) == ceil(needed / n_slices) for the
            # monolithic case too: under-width packets give 1 either way
            cycles = -(-slices_needed // k)
            fit = self._fit_cache[size_bytes] = (slices_needed, k, cycles)
        slices_needed, k, cycles = fit
        if self.policy == "greedy":
            # the paper's allocator, inlined: every default ring segment
            # reserves through here
            free = self._slice_free
            if k == self.n_slices:
                # whole-width packet: every slice is chosen, no ordering
                chosen: Sequence[int] = range(k)
                start = max(free)
                if now > start:
                    start = now
                finish = start + cycles
                free[:] = [finish] * k
            else:
                # earliest-free k slices (the self-governed channels the
                # packet "really needs"; the rest stay free for others)
                chosen = sorted(range(self.n_slices),
                                key=free.__getitem__)[:k]
                start = free[chosen[-1]]     # latest-free of the chosen
                if now > start:
                    start = now
                finish = start + cycles
                for i in chosen:
                    free[i] = finish
            self.wait_cycles.add(start - now)
            if self.reservation_log is not None:
                self._record(chosen, start, finish)
        elif self.policy == "monolithic":
            start, finish = self._transmit_monolithic(cycles, now)
        else:
            start, finish = self._transmit_firstfit(k, cycles, now)
        self.packets.inc()
        self.bytes_moved.inc(size_bytes)
        if self.audit_hook is not None:
            self.audit_hook(self, size_bytes, start, finish, now)
        return start, finish

    def _record(self, chosen: Sequence[int], start: float, finish: float) -> None:
        if self.reservation_log is not None:
            self.reservation_log.append((tuple(chosen), start, finish))

    def _transmit_monolithic(self, cycles: int,
                             now: float) -> Tuple[float, float]:
        start = max(now, max(self._slice_free))
        self.wait_cycles.add(start - now)
        finish = start + cycles
        self._slice_free = [finish] * self.n_slices
        self._record(range(self.n_slices), start, finish)
        return start, finish

    def _transmit_firstfit(self, k: int, cycles: int,
                           now: float) -> Tuple[float, float]:
        # contiguous block with the minimal start time
        best_start = math.inf
        best_base = 0
        for base in range(self.n_slices - k + 1):
            start = max([now] + self._slice_free[base:base + k])
            if start < best_start:
                best_start, best_base = start, base
        self.wait_cycles.add(best_start - now)
        finish = best_start + cycles
        for i in range(best_base, best_base + k):
            self._slice_free[i] = finish
        self._record(range(best_base, best_base + k), best_start, finish)
        return best_start, finish

    # -- snapshot protocol ----------------------------------------------------

    def state_dict(self) -> dict:
        return {"slice_free": list(self._slice_free)}

    def load_state(self, state: dict) -> None:
        saved = state["slice_free"]
        if len(saved) != self.n_slices:
            raise NocError(
                f"{self.name}: checkpoint has {len(saved)} slices, "
                f"link has {self.n_slices}")
        self._slice_free = [float(t) for t in saved]

    # -- introspection --------------------------------------------------------

    def next_free(self) -> float:
        """Earliest time any slice is free (congestion estimate)."""
        return min(self._slice_free)

    def busy_until(self) -> float:
        """Latest reserved slice-cycle (the link is fully idle after it)."""
        return max(self._slice_free)

    def utilization(self, now: float) -> float:
        """Delivered bytes / peak deliverable bytes in [0, now]."""
        if now <= 0:
            return 0.0
        peak = self.width_bytes * now
        return min(1.0, self.bytes_moved.value / peak)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SlicedLink({self.name}, {self.n_slices}x{self.slice_bytes}B, {self.policy})"


class RingSegment:
    """The physical wires between two adjacent ring routers.

    ``cw`` and ``ccw`` links are built from the per-direction *fixed*
    datapaths; the *bidirectional* datapaths form a third, shared link pool
    that a transmission in either direction borrows when its fixed slices
    are all busy.
    """

    def __init__(
        self,
        name: str,
        datapath_bytes: int,
        fixed_per_dir: int,
        bidi_datapaths: int,
        slice_bytes: int,
        policy: str = "greedy",
        registry: Optional[StatsRegistry] = None,
    ) -> None:
        self.name = name
        fixed_width = datapath_bytes * fixed_per_dir
        self.cw = SlicedLink(f"{name}.cw", fixed_width, slice_bytes, policy, registry)
        self.ccw = SlicedLink(f"{name}.ccw", fixed_width, slice_bytes, policy, registry)
        self.bidi: Optional[SlicedLink] = None
        if bidi_datapaths:
            self.bidi = SlicedLink(
                f"{name}.bidi", datapath_bytes * bidi_datapaths,
                slice_bytes, policy, registry,
            )

    def link(self, direction: str) -> SlicedLink:
        if direction == "cw":
            return self.cw
        if direction == "ccw":
            return self.ccw
        raise NocError(f"unknown direction {direction!r}")

    def transmit(self, direction: str, size_bytes: int, now: float) -> float:
        """Send using the fixed link, borrowing the bidi pool if it's freer."""
        return self.transmit_detail(direction, size_bytes, now)[1]

    def transmit_detail(self, direction: str, size_bytes: int,
                        now: float) -> Tuple[float, float]:
        """Like :meth:`transmit` but returns ``(start, finish)``.

        The bidi pool is only borrowed when the fixed link is actually busy
        at ``now`` — a freer bidi pool must not steal traffic from an idle
        fixed datapath (that would serialise both directions through the
        shared pool under light load).
        """
        link = self.link(direction)
        bidi = self.bidi
        if bidi is not None:
            fixed_free = min(link._slice_free)
            if fixed_free > now and min(bidi._slice_free) < fixed_free:
                link = bidi
        return link.reserve(size_bytes, now)

    def next_free(self, direction: str) -> float:
        fixed = self.link(direction).next_free()
        if self.bidi is None:
            return fixed
        return min(fixed, self.bidi.next_free())

    @property
    def total_bytes(self) -> int:
        total = self.cw.bytes_moved.value + self.ccw.bytes_moved.value
        if self.bidi is not None:
            total += self.bidi.bytes_moved.value
        return total

    # -- snapshot protocol ----------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "cw": self.cw.state_dict(),
            "ccw": self.ccw.state_dict(),
            "bidi": self.bidi.state_dict() if self.bidi is not None else None,
        }

    def load_state(self, state: dict) -> None:
        self.cw.load_state(state["cw"])
        self.ccw.load_state(state["ccw"])
        if self.bidi is not None and state["bidi"] is not None:
            self.bidi.load_state(state["bidi"])
