"""Virtual machines: capacity, pod placement and co-location tracking."""

from __future__ import annotations

import typing as _t

from ..errors import ClusterError
from ..types import Millicores

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from .pod import Pod

__all__ = ["VirtualMachine"]


class VirtualMachine:
    """A VM hosting function pods, with millicore capacity accounting."""

    def __init__(self, vm_id: int, capacity_millicores: Millicores) -> None:
        if capacity_millicores <= 0:
            raise ClusterError(f"VM capacity must be > 0, got {capacity_millicores}")
        self.vm_id = int(vm_id)
        self.capacity = int(capacity_millicores)
        self._pods: dict[int, "Pod"] = {}
        #: Sum of resident pod sizes, kept in step by place/evict/resize.
        self._allocated = 0
        #: Availability flag flipped by fault injection (preemption/crash).
        #: A down VM refuses placement; recovery restores it empty.
        self.up = True
        #: Transient execution slowdown (>= 1.0) while straggling.
        self.slowdown = 1.0

    # -- capacity ----------------------------------------------------------
    @property
    def allocated(self) -> Millicores:
        """Millicores currently reserved by resident pods."""
        return self._allocated

    @property
    def free(self) -> Millicores:
        """Unreserved millicores."""
        return self.capacity - self._allocated

    def fits(self, size: Millicores) -> bool:
        """Whether a pod of ``size`` can be placed here (never on a down VM)."""
        return self.up and size <= self.capacity - self._allocated

    # -- placement ----------------------------------------------------------
    def place(self, pod: "Pod") -> None:
        """Admit a pod; raises when capacity would be exceeded."""
        if pod.pod_id in self._pods:
            raise ClusterError(f"pod {pod.pod_id} already on VM {self.vm_id}")
        if not self.fits(pod.size):
            raise ClusterError(
                f"VM {self.vm_id}: pod of {pod.size} mc exceeds free {self.free} mc"
            )
        self._pods[pod.pod_id] = pod
        self._allocated += pod.size

    def evict(self, pod: "Pod") -> None:
        """Remove a pod."""
        if pod.pod_id not in self._pods:
            raise ClusterError(f"pod {pod.pod_id} not on VM {self.vm_id}")
        del self._pods[pod.pod_id]
        self._allocated -= pod.size

    def resize_pod(self, pod: "Pod", new_size: Millicores) -> None:
        """Adjust a resident pod's reservation (vertical scaling)."""
        if pod.pod_id not in self._pods:
            raise ClusterError(f"pod {pod.pod_id} not on VM {self.vm_id}")
        if new_size <= 0:
            raise ClusterError(f"size must be > 0, got {new_size}")
        delta = new_size - pod.size
        if delta > self.free:
            raise ClusterError(
                f"VM {self.vm_id}: resize by +{delta} mc exceeds free {self.free} mc"
            )
        self._allocated += int(new_size) - pod.size
        pod._size = int(new_size)

    # -- co-location ---------------------------------------------------------
    def pods(self) -> list["Pod"]:
        """Resident pods."""
        return list(self._pods.values())

    @property
    def num_pods(self) -> int:
        return len(self._pods)

    def colocated_count(self, function: str, busy_only: bool = True) -> int:
        """Instances of ``function`` on this VM (optionally only busy ones).

        Busy instances are the ones actively contending — the count driving
        the interference model.
        """
        return sum(
            1
            for p in self._pods.values()
            if p.function == function and (p.busy or not busy_only)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VirtualMachine(id={self.vm_id}, pods={self.num_pods}, "
            f"alloc={self.allocated}/{self.capacity})"
        )
