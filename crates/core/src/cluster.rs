//! Distributed-memory RBC search — the Philabaum et al. (2021) baseline
//! ("A Response-Based Cryptography Engine in Distributed-Memory", MPI,
//! 404× speedup on 512 cores) and §5's proposed multi-node scaling of
//! SALTED-CPU.
//!
//! The structure is message-passing, not shared-memory: a coordinator
//! process assigns each node a rank-slice of the current distance's mask
//! space, nodes run their slice to completion (polling only their local
//! stop latch), and report `Found`/`Exhausted` messages back; the
//! coordinator broadcasts `Stop` on the first find. Nodes here are OS
//! threads with crossbeam channels standing in for MPI ranks and
//! point-to-point messages — the control structure (assignment, collective
//! distance barrier, asynchronous stop broadcast) is the real thing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use rbc_bits::U256;
use rbc_comb::{binomial, partition, Alg515Stream, GosperStream, MaskStream, SeedIterKind};

use crate::derive::Derive;
use crate::sweep::{sweep, SweepPolicy};

/// Cluster configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of worker nodes (MPI ranks, excluding the coordinator).
    pub nodes: usize,
    /// Seed iterator used by every node.
    pub iter: SeedIterKind,
    /// Seeds per batch on each node, and so between stop-latch polls.
    pub check_interval: u32,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig { nodes: 4, iter: SeedIterKind::Gosper, check_interval: 64 }
    }
}

/// A work assignment from the coordinator to one node.
#[derive(Clone, Debug)]
struct Assignment {
    d: u32,
    start: u128,
    end: u128,
}

/// A node's report back to the coordinator.
#[derive(Clone, Debug)]
enum NodeReport {
    Found { node: usize, seed: U256, d: u32, searched: u64 },
    Exhausted { node: usize, searched: u64 },
}

/// Commands from the coordinator.
enum Command {
    Work(Assignment),
    Shutdown,
}

/// Per-node accounting.
#[derive(Clone, Copy, Debug)]
pub struct NodeStats {
    /// Node id (0-based rank).
    pub node: usize,
    /// Seeds this node derived across the whole search.
    pub seeds: u64,
}

/// The cluster search's result.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// The recovered seed and distance, if any.
    pub found: Option<(U256, u32)>,
    /// Total seeds derived cluster-wide.
    pub seeds: u64,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Per-node accounting.
    pub per_node: Vec<NodeStats>,
    /// Point-to-point messages exchanged (assignments + reports +
    /// shutdowns) — the communication volume an MPI deployment would see.
    pub messages: u64,
}

fn stream_for(iter: SeedIterKind, a: &Assignment) -> MaskStream {
    match iter {
        SeedIterKind::Gosper => {
            MaskStream::Gosper(GosperStream::from_rank_range(a.d, a.start, a.end))
        }
        SeedIterKind::Alg515 => {
            MaskStream::Alg515(Alg515Stream::from_rank_range(a.d, a.start, a.end))
        }
        // Chase cannot resume from an arbitrary rank without a snapshot
        // table; distributed nodes use rank-addressable iterators (the
        // distributed baseline predates the Chase optimization).
        SeedIterKind::Chase => {
            MaskStream::Alg515(Alg515Stream::from_rank_range(a.d, a.start, a.end))
        }
    }
}

/// A node's stop policy: its first hit, or the coordinator's stop
/// broadcast polled after every batch.
struct NodeStop<'a> {
    stop: &'a AtomicBool,
    hit: Option<U256>,
}

impl<S> SweepPolicy<S> for NodeStop<'_> {
    fn hit(&mut self, seed: U256) -> bool {
        self.hit = Some(seed);
        true
    }

    fn poll(&mut self, _stream: &S, _swept: u64) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// Runs the distributed search: `cfg.nodes` worker threads, a coordinator
/// on the calling thread, message-passing in between. Early exit is
/// always on (the engine is the average-case production configuration).
pub fn cluster_search<D: Derive>(
    derive: &D,
    target: &D::Out,
    s_init: &U256,
    max_d: u32,
    cfg: &ClusterConfig,
) -> ClusterReport {
    assert!(cfg.nodes > 0, "need at least one node");
    let start = Instant::now();
    let stop = Arc::new(AtomicBool::new(false));
    let mut messages = 0u64;

    // Coordinator checks distance 0 itself (Algorithm 1 lines 4–8).
    let mut found: Option<(U256, u32)> = None;
    let mut total_seeds = 1u64;
    if derive.derive(s_init) == *target {
        found = Some((*s_init, 0));
    }

    let (report_tx, report_rx): (Sender<NodeReport>, Receiver<NodeReport>) = unbounded();
    let mut cmd_txs: Vec<Sender<Command>> = Vec::with_capacity(cfg.nodes);
    let mut per_node = vec![0u64; cfg.nodes];

    std::thread::scope(|scope| {
        // Spawn long-lived node processes.
        for node in 0..cfg.nodes {
            let (tx, rx): (Sender<Command>, Receiver<Command>) = unbounded();
            cmd_txs.push(tx);
            let report_tx = report_tx.clone();
            let stop = stop.clone();
            let iter = cfg.iter;
            let batch = cfg.check_interval.max(1) as usize;
            scope.spawn(move || {
                while let Ok(cmd) = rx.recv() {
                    let assignment = match cmd {
                        Command::Work(a) => a,
                        Command::Shutdown => break,
                    };
                    let d = assignment.d;
                    let mut stream = stream_for(iter, &assignment);
                    let mut policy = NodeStop { stop: &stop, hit: None };
                    let searched =
                        sweep(derive, target, s_init, &mut stream, batch, None, &mut policy).0;
                    let report = match policy.hit {
                        Some(seed) => NodeReport::Found { node, seed, d, searched },
                        None => NodeReport::Exhausted { node, searched },
                    };
                    // A send only fails if the coordinator is gone.
                    if report_tx.send(report).is_err() {
                        break;
                    }
                }
            });
        }

        // Distance loop with a collective barrier per distance.
        let mut d = 1u32;
        while d <= max_d && found.is_none() {
            let ranges = partition(binomial(256, d), cfg.nodes);
            for (tx, range) in cmd_txs.iter().zip(ranges) {
                tx.send(Command::Work(Assignment { d, start: range.start, end: range.end }))
                    .expect("node alive");
                messages += 1;
            }
            // Collect all node reports for this distance (barrier).
            for _ in 0..cfg.nodes {
                match report_rx.recv().expect("node reports") {
                    NodeReport::Found { node, seed, d: fd, searched } => {
                        per_node[node] += searched;
                        if found.is_none() {
                            found = Some((seed, fd));
                            // Asynchronous stop broadcast.
                            stop.store(true, Ordering::Release);
                        }
                        messages += 1;
                    }
                    NodeReport::Exhausted { node, searched } => {
                        per_node[node] += searched;
                        messages += 1;
                    }
                }
            }
            stop.store(false, Ordering::Release); // reset latch for next d
            d += 1;
        }

        for tx in &cmd_txs {
            tx.send(Command::Shutdown).expect("node alive");
            messages += 1;
        }
    });

    total_seeds += per_node.iter().sum::<u64>();
    ClusterReport {
        found,
        seeds: total_seeds,
        elapsed: start.elapsed(),
        per_node: per_node
            .iter()
            .enumerate()
            .map(|(node, &seeds)| NodeStats { node, seeds })
            .collect(),
        messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive::HashDerive;
    use rbc_hash::{SeedHash, Sha3Fixed};

    fn target_for(base: &U256, bits: &[usize]) -> (U256, <Sha3Fixed as SeedHash>::Digest) {
        let mut client = *base;
        for &b in bits {
            client.flip_bit_in_place(b);
        }
        (client, Sha3Fixed.digest_seed(&client))
    }

    #[test]
    fn cluster_finds_planted_seed() {
        let base = U256::from_limbs([1, 2, 3, 4]);
        let (client, target) = target_for(&base, &[17, 170]);
        let report =
            cluster_search(&HashDerive(Sha3Fixed), &target, &base, 2, &ClusterConfig::default());
        assert_eq!(report.found, Some((client, 2)));
    }

    #[test]
    fn cluster_rejects_out_of_range() {
        let base = U256::from_u64(9);
        let (_, target) = target_for(&base, &[1, 2, 3]);
        let report =
            cluster_search(&HashDerive(Sha3Fixed), &target, &base, 2, &ClusterConfig::default());
        assert_eq!(report.found, None);
        // Full enumeration: every node exhausted its slices.
        assert_eq!(report.seeds, 1 + 256 + 32_640);
    }

    #[test]
    fn node_counts_sum_to_total() {
        let base = U256::from_u64(5);
        let (_, target) = target_for(&base, &[0, 1, 2]);
        let cfg = ClusterConfig { nodes: 7, ..Default::default() };
        let report = cluster_search(&HashDerive(Sha3Fixed), &target, &base, 2, &cfg);
        let node_sum: u64 = report.per_node.iter().map(|n| n.seeds).sum();
        assert_eq!(report.seeds, node_sum + 1, "+1 for the coordinator's d=0 probe");
        assert_eq!(report.per_node.len(), 7);
    }

    #[test]
    fn message_count_matches_protocol() {
        // Per distance: nodes assignments + nodes reports; plus shutdowns.
        let base = U256::from_u64(3);
        let (_, target) = target_for(&base, &[4, 5, 6]); // unfindable at d≤2
        let cfg = ClusterConfig { nodes: 3, ..Default::default() };
        let report = cluster_search(&HashDerive(Sha3Fixed), &target, &base, 2, &cfg);
        // 2 distances × (3 + 3) + 3 shutdowns.
        assert_eq!(report.messages, 2 * 6 + 3);
    }

    #[test]
    fn distance_zero_skips_node_work() {
        let base = U256::from_u64(77);
        let target = Sha3Fixed.digest_seed(&base);
        let report =
            cluster_search(&HashDerive(Sha3Fixed), &target, &base, 3, &ClusterConfig::default());
        assert_eq!(report.found, Some((base, 0)));
        assert_eq!(report.seeds, 1);
        // Only shutdown messages.
        assert_eq!(report.messages, ClusterConfig::default().nodes as u64);
    }

    #[test]
    fn early_exit_propagates_across_nodes() {
        // Seed early in node 0's slice: other nodes must stop early.
        let base = U256::from_u64(0);
        let (client, target) = target_for(&base, &[0]); // first d=1 candidate
        let cfg = ClusterConfig { nodes: 4, check_interval: 1, ..Default::default() };
        let report = cluster_search(&HashDerive(Sha3Fixed), &target, &base, 1, &cfg);
        assert_eq!(report.found, Some((client, 1)));
        assert!(
            report.seeds < 1 + 256,
            "stop broadcast should spare most of the d=1 space, searched {}",
            report.seeds
        );
    }

    #[test]
    fn works_with_every_iterator_kind() {
        let base = U256::from_limbs([6, 6, 6, 6]);
        let (client, target) = target_for(&base, &[100, 200]);
        for iter in SeedIterKind::ALL {
            let cfg = ClusterConfig { iter, nodes: 3, ..Default::default() };
            let report = cluster_search(&HashDerive(Sha3Fixed), &target, &base, 2, &cfg);
            assert_eq!(report.found, Some((client, 2)), "{iter}");
        }
    }

    #[test]
    fn single_node_cluster_degenerates_to_serial() {
        let base = U256::from_u64(12);
        let (client, target) = target_for(&base, &[50]);
        let cfg = ClusterConfig { nodes: 1, ..Default::default() };
        let report = cluster_search(&HashDerive(Sha3Fixed), &target, &base, 1, &cfg);
        assert_eq!(report.found, Some((client, 1)));
        assert_eq!(report.per_node.len(), 1);
    }
}
