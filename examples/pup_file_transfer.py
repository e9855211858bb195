#!/usr/bin/env python3
"""Section 5.1: Pup/BSP bulk file transfer, entirely in user space.

"At Stanford, almost all of the Pup protocols were implemented for
Unix, based entirely on the packet filter."  This is that workload:
a file server streams a file to a client over BSP — windowed,
acknowledged, retransmitting — with every protocol decision made by a
user process through a figure 3-9-style socket filter.  The cable
drops 5% of frames to show the retransmission machinery working.

Run:  python examples/pup_file_transfer.py
"""

import hashlib

from repro.net import ChaosConfig
from repro.protocols.bsp import BSPEndpoint
from repro.protocols.pup import PupAddress
from repro.sim import World

FILE_SERVER_SOCKET = 0x0441
CLIENT_SOCKET = 0x0442


def make_file(size: int = 60_000) -> bytes:
    """A recognizable 'file' with verifiable contents."""
    block = b"".join(bytes([i & 0xFF]) for i in range(256))
    return (block * (size // 256 + 1))[:size]


def main():
    world = World(chaos=ChaosConfig(loss_rate=0.05), seed=1987)
    server_host = world.host("file-server")
    client_host = world.host("client")
    server_host.install_packet_filter()
    client_host.install_packet_filter()
    contents = make_file()

    def file_server():
        endpoint = BSPEndpoint(server_host, local_socket=FILE_SERVER_SOCKET)
        yield from endpoint.start()
        destination = PupAddress(
            net=1, host=client_host.address[-1], socket=CLIENT_SOCKET
        )
        started = world.now
        yield from endpoint.send_stream(
            client_host.address, destination, contents
        )
        return world.now - started, endpoint.stats

    def client():
        endpoint = BSPEndpoint(client_host, local_socket=CLIENT_SOCKET)
        yield from endpoint.start()
        data = yield from endpoint.recv_all()
        return data

    client_proc = client_host.spawn("pupftp-get", client())
    server_proc = server_host.spawn("pupftp-serve", file_server())
    world.run_until_done(client_proc, server_proc)

    data = client_proc.result
    elapsed, stats = server_proc.result
    rate = len(data) / 1024.0 / elapsed
    intact = hashlib.sha256(data).digest() == hashlib.sha256(contents).digest()

    print(f"transferred {len(data)} bytes in {elapsed:.2f} simulated seconds")
    print(f"rate: {rate:.1f} KB/s (paper's table 6-6: BSP at 38 KB/s)")
    print(f"contents intact: {intact}")
    print(
        f"data packets: {stats.data_packets_sent}, "
        f"retransmission rounds: {stats.retransmissions}, "
        f"frames lost on the wire: {world.segment.frames_lost}"
    )
    assert intact
    return rate


if __name__ == "__main__":
    main()
