"""The assembled machine: nodes, memory, coherence, interconnect, SIPS.

This is the single object kernels interact with.  It also carries the
machine-level fault operations (node halt, memory-range failure, revival
after diagnostics) whose semantics come from the FLASH memory fault model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.hardware.coherence import CoherenceController
from repro.hardware.firewall import NodeFirewall
from repro.hardware.interconnect import Interconnect
from repro.hardware.memory import PhysicalMemory
from repro.hardware.node import Node
from repro.hardware.params import HardwareParams
from repro.hardware.sips import SipsFabric
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


@dataclass
class MachineConfig:
    """Everything needed to build a machine."""

    params: HardwareParams = None
    seed: int = 1995
    firewall_enabled: bool = True
    firewall_factory: type = NodeFirewall
    hop_sensitive_network: bool = False

    def __post_init__(self):
        if self.params is None:
            self.params = HardwareParams()
        self.params.validate()


class Machine:
    """A simulated FLASH multiprocessor."""

    def __init__(self, sim: Simulator, config: Optional[MachineConfig] = None):
        self.sim = sim
        self.config = config or MachineConfig()
        self.params = self.config.params
        self.rng = RandomStreams(self.config.seed)
        self.interconnect = Interconnect(
            self.params, hop_sensitive=self.config.hop_sensitive_network
        )
        self.memory = PhysicalMemory(
            self.params,
            firewall_factory=self.config.firewall_factory,
            firewall_enabled=self.config.firewall_enabled,
        )
        self.coherence = CoherenceController(
            self.params, self.memory, self.interconnect
        )
        self.sips = SipsFabric(self.sim, self.params, self.interconnect)
        self.nodes: List[Node] = [
            Node(self.params, n, sim=sim, rng=self.rng)
            for n in range(self.params.num_nodes)
        ]
        #: frames whose only valid copy died in a failed node's cache, as
        #: reported by the fault model at each failure (for audit/tests).
        self.lost_frames_log: List[Set[int]] = []

    # -- lookups --------------------------------------------------------

    def node_of_cpu(self, cpu: int) -> Node:
        return self.nodes[cpu // self.params.cpus_per_node]

    def cpu(self, cpu_id: int):
        return self.node_of_cpu(cpu_id).cpus[cpu_id % self.params.cpus_per_node]

    def live_node_ids(self) -> List[int]:
        return [n.node_id for n in self.nodes if not n.halted]

    # -- fault operations -------------------------------------------------

    def halt_node(self, node_id: int) -> Set[int]:
        """Fail-stop a node: processors halt and its memory slice fails.

        Returns the set of frames whose only up-to-date copy was cached on
        the node — the data the memory fault model says is lost.  Per the
        fault model, that set only contains frames the node was authorized
        to write.
        """
        node = self.nodes[node_id]
        lost = self.coherence.frames_with_dirty_lines_owned_by_node(node_id)
        node.halt()
        node.memory_failed = True
        self.memory.fail_node(node_id)
        self.sips.fail_node(node_id)
        self.interconnect.fail_node(node_id)
        self.coherence.drop_node_cache_state(node_id)
        self.lost_frames_log.append(lost)
        return lost

    def halt_processor_only(self, node_id: int) -> None:
        """Halt a node's processors but leave its memory serviceable.

        "Clock monitoring detects hardware failures that halt processors
        but not entire nodes" (Section 4.3) — this is that fault.
        """
        node = self.nodes[node_id]
        node.halt()
        self.sips.fail_node(node_id)

    def fail_memory_range(self, node_id: int) -> Set[int]:
        """Fail a node's memory while its processors keep running.

        Subsequent accesses to the range raise bus errors; the owning
        cell's kernel will panic when it touches its own memory.
        """
        lost = self.coherence.frames_with_dirty_lines_owned_by_node(node_id)
        self.nodes[node_id].memory_failed = True
        self.memory.fail_node(node_id)
        self.lost_frames_log.append(lost)
        return lost

    def engage_cutoff(self, node_id: int) -> None:
        """Memory cutoff: stop exporting this node's memory (cell panic)."""
        self.memory.engage_cutoff(node_id)

    def revive_node(self, node_id: int) -> None:
        """Reintegrate a node after hardware diagnostics pass."""
        node = self.nodes[node_id]
        node.revive()
        self.memory.revive_node(node_id)
        self.sips.revive_node(node_id)
        self.interconnect.revive_node(node_id)
        self.coherence.drop_node_cache_state(node_id)

    def run_diagnostics(self, node_id: int) -> bool:
        """Recovery-master hardware diagnostics on a failed node's hardware.

        Models the check as: the node's memory and router respond and the
        mesh is still connected.  Always true for the fail-stop faults we
        inject (the paper automatically reboots when diagnostics succeed).
        """
        return self.interconnect.is_connected()
