//! The placement policies of Section 4.2.2 (Figure 9) — node-local (what
//! ERIS does), *Interleaved* and *Single RAM* — and the per-node tally of
//! the bytes they place.

use eris_numa::{NodeId, Topology};
use std::cell::Cell;

/// Where an allocation should be homed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// On a given node — ERIS' policy: each AEU allocates on its own node.
    Local(NodeId),
    /// Round-robin over all nodes — the `numactl --interleave=all` baseline.
    Interleaved,
    /// Everything on one node — the *Single RAM* baseline of Figure 9.
    SingleNode(NodeId),
}

/// A span of memory and the node it is homed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    pub home: NodeId,
    pub size: u64,
}

/// Places spans on the nodes of one machine and counts the live bytes
/// homed on each.
pub struct MemoryManager {
    live: Vec<Cell<u64>>,
    interleave_next: Cell<u64>,
}

impl MemoryManager {
    /// A manager for every node of `topo`, nothing placed yet.
    pub fn new(topo: &Topology) -> Self {
        MemoryManager {
            live: topo.nodes().map(|_| Cell::new(0)).collect(),
            interleave_next: Cell::new(0),
        }
    }

    /// Home one span of `size` bytes according to `policy`.  Interleaving
    /// places consecutive spans round-robin, as page-granular OS
    /// interleaving distributes a large array.
    pub fn alloc(&self, policy: Policy, size: u64) -> Allocation {
        let home = match policy {
            Policy::Local(n) | Policy::SingleNode(n) => n,
            Policy::Interleaved => {
                let i = self.interleave_next.get();
                self.interleave_next.set(i + 1);
                NodeId((i % self.live.len() as u64) as u16)
            }
        };
        let live = &self.live[home.index()];
        live.set(live.get() + size);
        Allocation { home, size }
    }

    /// Return a span to the node that homes it.
    pub fn free(&self, a: Allocation) {
        let live = &self.live[a.home.index()];
        live.set(live.get() - a.size);
    }

    /// Live bytes homed on `node`.
    pub fn node_live_bytes(&self, node: NodeId) -> u64 {
        self.live[node.index()].get()
    }

    /// Live bytes across all nodes.
    pub fn live_bytes(&self) -> u64 {
        self.live.iter().map(Cell::get).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eris_numa::machines::custom_machine;

    fn mgr() -> MemoryManager {
        MemoryManager::new(&custom_machine("m", 4, 2, 20.0, 100.0, 10.0, 50.0))
    }

    #[test]
    fn local_policy_homes_on_requested_node() {
        let m = mgr();
        let a = m.alloc(Policy::Local(NodeId(2)), 4096);
        assert_eq!(a.home, NodeId(2));
        assert_eq!(m.node_live_bytes(NodeId(2)), 4096);
    }

    #[test]
    fn single_node_policy_concentrates() {
        let m = mgr();
        for _ in 0..16 {
            assert_eq!(m.alloc(Policy::SingleNode(NodeId(1)), 64).home, NodeId(1));
        }
        assert_eq!(m.node_live_bytes(NodeId(1)), 16 * 64);
        assert_eq!(m.live_bytes(), 16 * 64);
    }

    #[test]
    fn interleaved_policy_round_robins() {
        let m = mgr();
        let homes: Vec<u16> = (0..8)
            .map(|_| m.alloc(Policy::Interleaved, 64).home.0)
            .collect();
        assert_eq!(homes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(m.node_live_bytes(NodeId(0)), 2 * 64);
    }

    #[test]
    fn free_returns_to_owning_node() {
        let m = mgr();
        let a = m.alloc(Policy::Local(NodeId(3)), 64);
        let b = m.alloc(Policy::Local(NodeId(0)), 128);
        m.free(a);
        assert_eq!(m.node_live_bytes(NodeId(3)), 0);
        assert_eq!(m.live_bytes(), 128);
        m.free(b);
        assert_eq!(m.live_bytes(), 0);
    }
}
