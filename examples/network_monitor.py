#!/usr/bin/env python3
"""The section 5.4 integrated network monitor, watching mixed traffic.

Three hosts talk over UDP, VMTP and RARP while a fourth, promiscuous
workstation captures everything through a copy-all packet-filter port,
decodes each frame, and prints a tcpdump-style trace plus a live
traffic summary — "all the tools of the workstation are available for
manipulating and analyzing packet traces."

Run:  python examples/network_monitor.py
"""

from repro.apps.monitor import NetworkMonitor
from repro.kernelnet import KernelUDP, KernelVMTP, SockIoctl, link_stacks
from repro.protocols.ip import ip_address
from repro.protocols.rarp import RARPServer, rarp_discover
from repro.sim import Ioctl, Open, Read, Sleep, World, Write


def main():
    world = World()
    alice = world.host("alice")
    bob = world.host("bob")
    carol = world.host("carol")
    watcher = world.host("watcher", promiscuous=True)

    # Kernel stacks + protocols on the talkers.
    stack_a = alice.install_kernel_stack()
    stack_b = bob.install_kernel_stack()
    link_stacks(stack_a, stack_b)
    KernelUDP(stack_a)
    KernelUDP(stack_b)
    KernelVMTP(alice)
    KernelVMTP(bob)
    carol.install_packet_filter()  # carol's boot client runs on the PF

    # The watcher: packet filter in see-everything mode.
    watcher.install_packet_filter()
    watcher.kernel.pf_sees_all = True
    monitor = NetworkMonitor(watcher, idle_timeout=0.3)
    monitor_proc = watcher.spawn("monitor", monitor.run())

    # Traffic generator 1: UDP chatter.
    def udp_server():
        fd = yield Open("udp")
        yield Ioctl(fd, SockIoctl.BIND, 53)
        while True:
            yield Read(fd)

    def udp_client():
        fd = yield Open("udp")
        yield Ioctl(fd, SockIoctl.CONNECT, (stack_b.ip_address, 53))
        for index in range(3):
            yield Write(fd, f"query {index}".encode())
            yield Sleep(0.02)

    bob.spawn("named", udp_server())
    alice.spawn("resolver", udp_client())

    # Traffic generator 2: a VMTP transaction.
    def vmtp_server():
        fd = yield Open("vmtp")
        yield Ioctl(fd, SockIoctl.BIND, 35)
        while True:
            request = yield Read(fd)
            yield Write(fd, b"served:" + request)

    def vmtp_client():
        fd = yield Open("vmtp")
        yield Sleep(0.03)
        yield Ioctl(fd, SockIoctl.CONNECT, (bob.address, 35))
        yield Write(fd, bytes(2500))  # 3 segments
        yield Read(fd)

    bob.spawn("vmtp-server", vmtp_server())
    alice.spawn("vmtp-client", vmtp_client())

    # Traffic generator 3: carol RARP-boots against a boot server
    # (the RARP daemon is itself a packet-filter program — section 5.3).
    boot_server = world.host("boot-server")
    boot_server.install_packet_filter()
    rarpd = RARPServer(boot_server, {carol.address: ip_address("10.0.0.3")})
    boot_server.spawn("rarpd", rarpd.run())

    def boot():
        yield Sleep(0.05)
        address = yield from rarp_discover(carol)
        return address

    carol.spawn("boot", boot())

    world.run_until_done(monitor_proc)

    print("=== captured trace (first 20 packets) ===")
    print(monitor.format_trace())
    print()
    print("=== traffic summary ===")
    print(f"{monitor.summary.packets} packets, {monitor.summary.bytes} bytes")
    for protocol, count in sorted(monitor.summary.by_protocol.items()):
        print(f"  {protocol:>10}: {count}")
    print("top talkers:", monitor.summary.top_talkers(3))
    return monitor


if __name__ == "__main__":
    main()
