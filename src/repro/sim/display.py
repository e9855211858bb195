"""Rate-limited character display devices — table 6-7's bottleneck.

"The first two rows of the table show throughput using an
MC68010-based workstation capable of displaying about 3350 characters
per second.  ...  The last two rows, measured with characters displayed
on a 9600 baud terminal ..."

A :class:`DisplayDevice` drains written characters at a fixed rate; a
writer blocks until its characters have been displayed.  The device has
its own timeline (a terminal drains independently of the CPU), so
protocol work and display output overlap the way they did in the
measurement — which is why Telnet throughput is display-limited, not
network-limited, and BSP ≈ TCP there.
"""

from __future__ import annotations

from .kernel import DeviceDriver, DeviceHandle, SimKernel, checked_payload
from .ledger import Primitive
from .process import Process, Write

__all__ = [
    "DisplayDevice",
    "WORKSTATION_CPS",
    "TERMINAL_9600_CPS",
]

WORKSTATION_CPS = 3350
"""The MC68010 workstation display rate of table 6-7."""

TERMINAL_9600_CPS = 960
"""A 9600-baud terminal: 9600 bits/s / 10 bits per character."""


class DisplayDevice(DeviceDriver):
    """A shared output-only character device with a fixed drain rate.

    ``consumes_cpu=True`` models a workstation's bitmap display, where
    "displaying" is software rendering on the host CPU (the MC68010
    workstation's 3350 cps *is* a CPU cost); ``False`` models a serial
    terminal, where the UART drains on its own and the CPU is free.
    """

    def __init__(self, chars_per_second: float, *, consumes_cpu: bool = False) -> None:
        if chars_per_second <= 0:
            raise ValueError("display rate must be positive")
        self.chars_per_second = chars_per_second
        self.consumes_cpu = consumes_cpu
        self.characters_displayed = 0
        self._busy_until = 0.0

    def open(self, kernel: SimKernel, process: Process) -> "DisplayHandle":
        return DisplayHandle(self, kernel)

    def drain_time(self, nchars: int, now: float) -> float:
        """When ``nchars`` written at ``now`` finish displaying."""
        start = max(now, self._busy_until)
        self._busy_until = start + nchars / self.chars_per_second
        return self._busy_until


class DisplayHandle(DeviceHandle):
    def __init__(self, device: DisplayDevice, kernel: SimKernel) -> None:
        self.device = device
        self.kernel = kernel

    def write(self, process: Process, call: Write) -> None:
        data = checked_payload(call.data)
        # One kernel copy (it is a character device write)...
        self.kernel.charge_copy(len(data), component="display")
        self.device.characters_displayed += len(data)
        if self.device.consumes_cpu:
            # Bitmap rendering: the CPU does the displaying.
            self.kernel.account(
                Primitive.DISPLAY,
                len(data) / self.device.chars_per_second,
                quantity=len(data),
                component="display",
            )
            self.kernel.complete(process, len(data))
            return
        # Serial terminal: the writer sleeps until the UART catches up.
        done_at = self.device.drain_time(len(data), self.kernel.scheduler.now)
        self.kernel.scheduler.schedule_at(
            done_at, self.kernel.complete, process, len(data)
        )
