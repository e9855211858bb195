#!/usr/bin/env python3
"""Section 5.3: RARP — diskless workstations discover their IP addresses.

"With the packet filter, however, a RARP implementation was easy; the
work was done in a few weeks by a student who had no experience with
network programming, and who had no need to learn how to modify the
Unix kernel."

A boot server with a MAC-to-IP table answers reverse-ARP broadcasts;
three diskless workstations boot concurrently, one of them through a
lossy cable (the retry loop earns its keep).

Run:  python examples/rarp_server.py
"""

from repro.net import ChaosConfig
from repro.protocols.ip import format_ip, ip_address
from repro.protocols.rarp import RARPServer, rarp_discover
from repro.sim import World


def main():
    # A mildly lossy Ethernet, to exercise the retry path.
    world = World(chaos=ChaosConfig(loss_rate=0.15), seed=20260707)
    server_host = world.host("boot-server")
    stations = [world.host(f"ws-{index}") for index in range(3)]
    server_host.install_packet_filter()
    for station in stations:
        station.install_packet_filter()

    table = {
        station.address: ip_address(f"10.0.0.{10 + index}")
        for index, station in enumerate(stations)
    }
    server = RARPServer(server_host, table)
    server_host.spawn("rarpd", server.run())

    boots = [
        station.spawn(f"boot-{index}", rarp_discover(station))
        for index, station in enumerate(stations)
    ]
    world.run_until_done(*boots)
    world.run(until=world.now + 0.05)  # let the daemon settle its counters

    results = {}
    for station, boot in zip(stations, boots):
        address = format_ip(boot.result)
        results[station.name] = address
        print(
            f"{station.name} ({station.address.hex()}) booted "
            f"as {address} at t={boot.finished_at * 1000:.1f} ms"
        )
    print(
        f"server answered {server.requests_answered} requests "
        f"({world.segment.frames_lost} frames lost on the wire)"
    )
    return results


if __name__ == "__main__":
    main()
