"""A host: one kernel, one NIC, its processes, and its devices.

This is the assembly layer — it owns no behaviour of its own, it just
wires a :class:`SimKernel` to a :class:`NIC` on a segment and offers the
conveniences every test, example and benchmark wants: spawn a process,
install the packet filter, install the kernel-resident network stack.
"""

from __future__ import annotations

from typing import Any, Generator

from ..net.ethernet import LinkSpec
from ..net.nic import DEFAULT_INPUT_QUEUE, NIC
from .costs import CostModel
from .kernel import SimKernel
from .process import Process

__all__ = ["Host"]


class Host:
    """One simulated machine on the segment."""

    def __init__(
        self,
        name: str,
        address: bytes,
        link: LinkSpec,
        scheduler,
        costs: CostModel,
        *,
        promiscuous: bool = False,
        input_queue_limit: int = DEFAULT_INPUT_QUEUE,
    ) -> None:
        self.name = name
        self.address = address
        self.link = link
        self.kernel = SimKernel(scheduler, costs, name=name)
        self.nic = NIC(
            address,
            link,
            promiscuous=promiscuous,
            input_queue_limit=input_queue_limit,
        )
        self.kernel.attach_nic(self.nic)
        self._packet_filter = None

    # -- processes ----------------------------------------------------------

    def spawn(self, name: str, body: Generator) -> Process:
        """Start a user process on this host."""
        return self.kernel.spawn(name, body)

    @property
    def stats(self):
        return self.kernel.stats

    # -- overload control ---------------------------------------------------

    def enable_overload(self, policy=None, pool=None):
        """Install receive-overload control on this host.

        ``policy`` is an :class:`repro.sim.overload.RxPolicy` (defaults
        to one with stock parameters) and ``pool`` an optional
        :class:`repro.sim.overload.BufferPool`.  With a policy
        installed the NIC's receive interrupts become CPU-gated and the
        budgeted-polling/early-drop machinery arms; ports opened after
        a pool is installed take their queue buffers from it.  Returns
        ``(policy, pool)`` as installed.
        """
        from .overload import RxPolicy  # assembly-time import

        if policy is None:
            policy = RxPolicy()
        self.kernel.rx_policy = policy
        if pool is not None:
            self.kernel.buffer_pool = pool
            self.kernel.publish_gauges("pool.", pool.telemetry_gauges())
        return policy, self.kernel.buffer_pool

    # -- the packet filter device ------------------------------------------------

    def install_packet_filter(self, device_name: str = "pf", **demux_options: Any):
        """Install the packet-filter pseudo-device driver (section 4).

        Returns the driver; processes then ``Open(device_name)`` to get
        a port.  ``demux_options`` pass through to
        :class:`repro.core.demux.PacketFilterDemux` (engine selection,
        flow cache, short-circuit mode...).
        """
        from ..core.device import PacketFilterDevice  # assembly-time import

        if self._packet_filter is not None:
            raise RuntimeError(f"{self.name} already has a packet filter")
        driver = PacketFilterDevice(self, **demux_options)
        self.kernel.register_device(device_name, driver)
        self.kernel.register_packet_filter(driver)
        self._packet_filter = driver
        return driver

    @property
    def packet_filter(self):
        if self._packet_filter is None:
            raise RuntimeError(f"{self.name} has no packet filter installed")
        return self._packet_filter

    # -- the kernel-resident stack --------------------------------------------

    def install_kernel_stack(self):
        """Install the kernel-resident IP/UDP/TCP stack (the baseline
        the paper compares against).  Returns the stack object."""
        from ..kernelnet.ipstack import KernelNetworkStack

        return KernelNetworkStack(self)

    def __repr__(self) -> str:
        return f"Host({self.name!r}, {self.address.hex()})"
