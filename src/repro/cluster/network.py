"""Network model: per-node NICs over a non-blocking switch.

The paper's testbed interconnect is modelled as full-bisection: transfers
contend only at the sending and receiving NICs, which matches the
shared-nothing, scale-out architecture the paper's introduction
describes.
"""

from __future__ import annotations

from typing import Dict

from repro.cluster.events import Event, Resource, Simulation


class Nic:
    """A network interface with finite bandwidth, serialising transfers."""

    def __init__(self, sim: Simulation, name: str, bandwidth_gbps: float = 1.0):
        if bandwidth_gbps <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_gbps * 1e9 / 8.0  # bytes per second
        self._channel = Resource(sim, capacity=1, name=f"{name}-nic")
        self.bytes_sent = 0
        self.bytes_received = 0

    def _transfer(self, nbytes: int, receive: bool):
        grant = self._channel.request()
        yield grant
        try:
            yield self.sim.timeout(nbytes / self.bandwidth_bps)
        finally:
            self._channel.release()
            if receive:
                self.bytes_received += nbytes
            else:
                self.bytes_sent += nbytes

    def send(self, nbytes: int) -> Event:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.sim.process(self._transfer(nbytes, receive=False))

    def receive(self, nbytes: int) -> Event:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.sim.process(self._transfer(nbytes, receive=True))

    @property
    def total_bytes(self) -> int:
        return self.bytes_sent + self.bytes_received


class Network:
    """A non-blocking switch connecting named NICs."""

    def __init__(self, sim: Simulation):
        self.sim = sim
        self._nics: Dict[str, Nic] = {}

    def attach(self, nic: Nic) -> None:
        if nic.name in self._nics:
            raise ValueError(f"nic {nic.name!r} already attached")
        self._nics[nic.name] = nic

    def _do_transfer(self, source: str, destination: str, nbytes: int):
        sender = self._nics[source]
        receiver = self._nics[destination]
        send_event = sender.send(nbytes)
        receive_event = receiver.receive(nbytes)
        yield self.sim.all_of([send_event, receive_event])

    def transfer(self, source: str, destination: str, nbytes: int) -> Event:
        """Process event for moving ``nbytes`` between two nodes.

        Local "transfers" (same source and destination) complete without
        consuming NIC bandwidth, like the paper's data-local tasks.
        """
        if source == destination:
            return self.sim.timeout(0.0)
        return self.sim.process(self._do_transfer(source, destination, nbytes))
