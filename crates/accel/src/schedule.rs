//! Resource-constrained cycle-by-cycle scheduling of a DDDG.
//!
//! This is the "executed cycle-by-cycle by a breadth-first traversal that
//! also takes into account constraints like memory bandwidth and available
//! functional units" step of Aladdin (§3.1). The scheduler is list
//! scheduling: each cycle, ready nodes issue in trace order up to the
//! per-class functional-unit limits and the memory-bandwidth budget;
//! finished nodes wake their dependents.

use crate::dddg::Dddg;
use crate::ir::{FuClass, Kernel, OpKind};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Datapath resource provisioning.
#[derive(Clone, Copy, Debug)]
pub struct Resources {
    /// Arithmetic/compare units.
    pub alus: u32,
    /// Bit-manipulation units (output-buffer insert path).
    pub bitops: u32,
    /// Memory ports into the DRAM IO buffer.
    pub mem_ports: u32,
    /// Bytes the memory interface can move per cycle.
    pub mem_bytes_per_cycle: u64,
}

impl Resources {
    /// JAFAR's provisioning per §2.2 / Figure 1(b): two ALUs, one port into
    /// the IO buffer delivering one 64-bit word per 0.5 ns device cycle.
    /// The bitset-insert path (and/shift/or) is cheap combinational logic
    /// and is provisioned generously so the two ALUs are the compute
    /// bottleneck, as in the paper's datapath.
    pub fn jafar_default() -> Self {
        Resources {
            alus: 2,
            bitops: 4,
            mem_ports: 1,
            mem_bytes_per_cycle: 8,
        }
    }

    /// Checks the provisioning is schedulable.
    ///
    /// # Panics
    /// Panics if any resource is zero (the scheduler could never progress).
    pub fn validate(&self) {
        assert!(self.alus > 0, "at least one ALU required");
        assert!(self.bitops > 0, "at least one bitwise unit required");
        assert!(self.mem_ports > 0, "at least one memory port required");
        assert!(
            self.mem_bytes_per_cycle > 0,
            "memory bandwidth must be positive"
        );
    }
}

/// The result of scheduling a graph.
///
/// ```
/// use jafar_accel::ir::jafar_filter_kernel;
/// use jafar_accel::{Resources, Schedule};
///
/// // The paper's §2.2 claim, derived rather than assumed: with two ALUs
/// // the filter datapath sustains one word per cycle.
/// let ii = Schedule::steady_state_ii(&jafar_filter_kernel(), &Resources::jafar_default(), 8);
/// assert!((ii - 1.0).abs() < 0.05);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Total cycles from first issue to last completion.
    pub cycles: u64,
    /// Nodes issued per functional-unit class: `(alu, bitwise, memory)`.
    pub issued: (u64, u64, u64),
    /// Bytes moved over the memory interface.
    pub bytes_moved: u64,
}

impl Schedule {
    /// Computes the schedule of `graph` under `resources`.
    ///
    /// Bandwidth is a token bucket replenished by `mem_bytes_per_cycle`
    /// each cycle (bounded burst), so sub-word-per-cycle interfaces stretch
    /// transfers over multiple cycles instead of deadlocking.
    ///
    /// Ready nodes wait in one min-heap per functional-unit class, keyed by
    /// trace index, and each cycle issues the lowest-index prefix of every
    /// class up to its unit limit. This is exactly the single trace-ordered
    /// ready list of classic list scheduling, in O(n log n) instead of
    /// O(cycles × ready): the classes never compete for anything. Only
    /// memory ops spend bandwidth tokens and every memory op moves the same
    /// 8 bytes, so a memory op that misses a token blocks every later one
    /// too and the memory class still issues a prefix. Every latency is at
    /// least one cycle, so nothing issued in a cycle can wake a node in
    /// that same cycle, and the order classes issue in does not matter.
    /// Free (induction) nodes occupy no unit and issue the cycle they
    /// become ready.
    pub fn compute(graph: &Dddg, resources: &Resources) -> Schedule {
        resources.validate();
        let n = graph.nodes.len();
        // Successor lists in compressed form, and in-degrees.
        let mut indeg = vec![0u32; n];
        let mut succ_start = vec![0u32; n + 1];
        for (i, node) in graph.nodes.iter().enumerate() {
            indeg[i] = node.preds.len() as u32;
            for &p in &node.preds {
                succ_start[p as usize + 1] += 1;
            }
        }
        for i in 0..n {
            succ_start[i + 1] += succ_start[i];
        }
        let mut fill = succ_start.clone();
        let mut succs = vec![0u32; succ_start[n] as usize];
        for (i, node) in graph.nodes.iter().enumerate() {
            for &p in &node.preds {
                succs[fill[p as usize] as usize] = i as u32;
                fill[p as usize] += 1;
            }
        }
        // Earliest-start heap: (ready_cycle, node), plus per-node running
        // max of predecessor finish times.
        let mut max_pred_finish = vec![0u64; n];
        let mut wake: BinaryHeap<Reverse<(u64, u32)>> = (0..n as u32)
            .filter(|&i| indeg[i as usize] == 0)
            .map(|i| Reverse((0, i)))
            .collect();
        // Ready but resource-stalled, per class: alu, bitwise, memory.
        let mut ready: [BinaryHeap<Reverse<u32>>; 3] = Default::default();
        let limits = [resources.alus, resources.bitops, resources.mem_ports];
        let mut free_now: Vec<u32> = Vec::new();
        let mut cycle = 0u64;
        let mut last_finish = 0u64;
        let mut issued = [0u64; 3];
        let mut bytes_moved = 0u64;
        // Bandwidth token bucket: replenished each cycle, bounded burst.
        // The burst always holds one word, or an interface under 2 bytes
        // per cycle could never issue a load.
        let bw_cap = (resources.mem_bytes_per_cycle * 4).max(OpKind::Load.memory_bytes());
        let mut bw_tokens = resources.mem_bytes_per_cycle;
        let mut last_refill_cycle = 0u64;

        let mut issue = |idx: u32, cycle: u64, wake: &mut BinaryHeap<Reverse<(u64, u32)>>| {
            let finish = cycle + graph.nodes[idx as usize].kind.latency();
            last_finish = last_finish.max(finish);
            let (lo, hi) = (succ_start[idx as usize], succ_start[idx as usize + 1]);
            for &s in &succs[lo as usize..hi as usize] {
                let s = s as usize;
                max_pred_finish[s] = max_pred_finish[s].max(finish);
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    wake.push(Reverse((max_pred_finish[s], s as u32)));
                }
            }
        };

        while !wake.is_empty() || ready.iter().any(|h| !h.is_empty()) {
            // Pull everything ready by `cycle` into its class heap.
            while let Some(&Reverse((start, idx))) = wake.peek() {
                if start > cycle {
                    break;
                }
                wake.pop();
                let node = &graph.nodes[idx as usize];
                if node.free {
                    free_now.push(idx);
                } else {
                    ready[class_slot(node.kind.fu_class())].push(Reverse(idx));
                }
            }
            let stalled = free_now.is_empty() && ready.iter().all(BinaryHeap::is_empty);
            if stalled {
                // Jump to the next ready time.
                cycle = wake.peek().map(|&Reverse((s, _))| s).expect("nonempty");
            }
            // Refill bandwidth tokens for elapsed cycles.
            if cycle > last_refill_cycle {
                let earned =
                    (cycle - last_refill_cycle).saturating_mul(resources.mem_bytes_per_cycle);
                bw_tokens = (bw_tokens + earned).min(bw_cap);
                last_refill_cycle = cycle;
            }
            if stalled {
                continue;
            }
            for idx in free_now.drain(..) {
                issue(idx, cycle, &mut wake);
            }
            for (slot, heap) in ready.iter_mut().enumerate() {
                for _ in 0..limits[slot] {
                    let Some(&Reverse(idx)) = heap.peek() else {
                        break;
                    };
                    let bytes = graph.nodes[idx as usize].kind.memory_bytes();
                    if bytes > bw_tokens {
                        break;
                    }
                    heap.pop();
                    bw_tokens -= bytes;
                    bytes_moved += bytes;
                    issued[slot] += 1;
                    issue(idx, cycle, &mut wake);
                }
            }
            cycle += 1;
        }

        Schedule {
            cycles: last_finish,
            issued: (issued[0], issued[1], issued[2]),
            bytes_moved,
        }
    }

    /// Steady-state initiation interval of `kernel` under `resources` with
    /// the given unroll factor, in cycles per iteration: measured as the
    /// marginal cost of additional iterations (cancelling pipeline
    /// fill/drain).
    pub fn steady_state_ii(kernel: &Kernel, resources: &Resources, unroll: u64) -> f64 {
        let short = Schedule::compute(&Dddg::expand(kernel, 64, unroll), resources);
        let long = Schedule::compute(&Dddg::expand(kernel, 192, unroll), resources);
        (long.cycles as f64 - short.cycles as f64) / 128.0
    }
}

/// Index of `class` in the per-class arrays: alu, bitwise, memory.
fn class_slot(class: FuClass) -> usize {
    match class {
        FuClass::Alu => 0,
        FuClass::Bitwise => 1,
        FuClass::Memory => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{
        jafar_aggregate_kernel, jafar_filter_kernel, jafar_group_by_kernel, KernelBuilder, Op,
    };
    use jafar_common::check::forall;
    use jafar_common::rng::SplitMix64;

    /// The original list scheduler, kept as the oracle for [`Schedule::compute`]:
    /// one trace-ordered ready list, re-sorted and re-scanned every cycle.
    /// Its one change is the burst cap, which holds at least one word as in
    /// the scheduler under test (the original deadlocked below 2 bytes per
    /// cycle).
    fn reference_compute(graph: &Dddg, resources: &Resources) -> Schedule {
        resources.validate();
        let n = graph.nodes.len();
        if n == 0 {
            return Schedule {
                cycles: 0,
                issued: (0, 0, 0),
                bytes_moved: 0,
            };
        }
        // Successor lists and in-degrees.
        let mut indeg = vec![0u32; n];
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, node) in graph.nodes.iter().enumerate() {
            indeg[i] = node.preds.len() as u32;
            for &p in &node.preds {
                succs[p as usize].push(i as u32);
            }
        }
        // Earliest-start heap: (ready_cycle, node), plus per-node running
        // max of predecessor finish times.
        let mut max_pred_finish = vec![0u64; n];
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        for (i, d) in indeg.iter().enumerate() {
            if *d == 0 {
                heap.push(Reverse((0, i as u32)));
            }
        }
        let mut pending: Vec<u32> = Vec::new(); // ready but resource-stalled
        let mut cycle = 0u64;
        let mut last_finish = 0u64;
        let mut issued = (0u64, 0u64, 0u64);
        let mut bytes_moved = 0u64;
        // Bandwidth token bucket: replenished each cycle, bounded burst.
        let bw_cap = (resources.mem_bytes_per_cycle * 4).max(8);
        let mut bw_tokens = resources.mem_bytes_per_cycle;
        let mut last_refill_cycle = 0u64;

        while !heap.is_empty() || !pending.is_empty() {
            // Pull everything ready by `cycle` into the pending list.
            while let Some(&Reverse((start, _))) = heap.peek() {
                if start <= cycle {
                    let Reverse((_, idx)) = heap.pop().expect("peeked");
                    pending.push(idx);
                } else {
                    break;
                }
            }
            if pending.is_empty() {
                // Jump to the next ready time.
                cycle = heap.peek().map(|&Reverse((s, _))| s).expect("nonempty");
            }
            // Refill bandwidth tokens for elapsed cycles.
            if cycle > last_refill_cycle {
                let earned =
                    (cycle - last_refill_cycle).saturating_mul(resources.mem_bytes_per_cycle);
                bw_tokens = (bw_tokens + earned).min(bw_cap);
                last_refill_cycle = cycle;
            }
            if pending.is_empty() {
                continue;
            }
            // Issue this cycle, trace order, within resource limits.
            pending.sort_unstable();
            let mut used = [0u32; 3]; // alu, bitwise, memory
            let mut remaining: Vec<u32> = Vec::new();
            for &idx in &pending {
                let node = &graph.nodes[idx as usize];
                let class = node.kind.fu_class();
                let (slot, limit) = match class {
                    FuClass::Alu => (0, resources.alus),
                    FuClass::Bitwise => (1, resources.bitops),
                    FuClass::Memory => (2, resources.mem_ports),
                };
                let bytes = node.kind.memory_bytes();
                let fits = node.free || (used[slot] < limit && bytes <= bw_tokens);
                if !fits {
                    remaining.push(idx);
                    continue;
                }
                if !node.free {
                    used[slot] += 1;
                    bw_tokens -= bytes;
                    match class {
                        FuClass::Alu => issued.0 += 1,
                        FuClass::Bitwise => issued.1 += 1,
                        FuClass::Memory => issued.2 += 1,
                    }
                    bytes_moved += bytes;
                }
                let finish = cycle + node.kind.latency();
                last_finish = last_finish.max(finish);
                for &s in &succs[idx as usize] {
                    let s = s as usize;
                    max_pred_finish[s] = max_pred_finish[s].max(finish);
                    indeg[s] -= 1;
                    if indeg[s] == 0 {
                        heap.push(Reverse((max_pred_finish[s], s as u32)));
                    }
                }
            }
            pending = remaining;
            cycle += 1;
        }

        Schedule {
            cycles: last_finish,
            issued,
            bytes_moved,
        }
    }

    const ALL_KINDS: [OpKind; 10] = [
        OpKind::Load,
        OpKind::Store,
        OpKind::ICmp,
        OpKind::And,
        OpKind::Or,
        OpKind::Add,
        OpKind::Mul,
        OpKind::Shl,
        OpKind::Select,
        OpKind::Hash,
    ];

    /// A random kernel: 1–10 ops of any kind, each depending on a random
    /// subset of earlier ops, some of them induction ops, plus random
    /// loop-carried edges.
    fn random_kernel(rng: &mut SplitMix64) -> Kernel {
        let len = 1 + rng.next_below(10) as usize;
        let body = (0..len)
            .map(|i| Op {
                kind: ALL_KINDS[rng.next_below(ALL_KINDS.len() as u64) as usize],
                deps: (0..i).filter(|_| rng.next_bool(0.3)).collect(),
                induction: rng.next_bool(0.2),
            })
            .collect();
        let carried = (0..rng.next_below(4))
            .map(|_| {
                let from = rng.next_below(len as u64) as usize;
                (from, rng.next_below(len as u64) as usize)
            })
            .collect();
        Kernel { body, carried }
    }

    fn random_resources(rng: &mut SplitMix64) -> Resources {
        Resources {
            alus: 1 + rng.next_below(4) as u32,
            bitops: 1 + rng.next_below(4) as u32,
            mem_ports: 1 + rng.next_below(4) as u32,
            mem_bytes_per_cycle: 1 + rng.next_below(16),
        }
    }

    #[test]
    fn per_class_heaps_match_the_reference_list_scheduler() {
        forall("schedule vs reference", 500, |rng| {
            let kernel = random_kernel(rng);
            let resources = random_resources(rng);
            let unroll = 1 + rng.next_below(8);
            let graph = Dddg::expand(&kernel, rng.next_below(257), unroll);
            assert_eq!(
                Schedule::compute(&graph, &resources),
                reference_compute(&graph, &resources),
                "{kernel:?} under {resources:?}, unroll {unroll}"
            );
        });
    }

    #[test]
    fn device_kernel_iis_match_the_reference_list_scheduler() {
        let kernels = [
            jafar_filter_kernel(),
            jafar_aggregate_kernel(false),
            jafar_aggregate_kernel(true),
            jafar_group_by_kernel(),
        ];
        forall("device kernel ii vs reference", 64, |rng| {
            let resources = random_resources(rng);
            let unroll = 1 + rng.next_below(8);
            for kernel in &kernels {
                let cycles = |iterations| {
                    reference_compute(&Dddg::expand(kernel, iterations, unroll), &resources).cycles
                };
                let reference = (cycles(192) as f64 - cycles(64) as f64) / 128.0;
                let ii = Schedule::steady_state_ii(kernel, &resources, unroll);
                assert_eq!(
                    ii, reference,
                    "{kernel:?} under {resources:?}, unroll {unroll}"
                );
            }
        });
    }

    #[test]
    fn one_byte_interface_streams_one_word_per_eight_cycles() {
        let slow = Resources {
            mem_bytes_per_cycle: 1,
            ..Resources::jafar_default()
        };
        let ii = Schedule::steady_state_ii(&jafar_filter_kernel(), &slow, 8);
        assert!((ii - 8.0).abs() < 0.1, "ii={ii}");
    }

    #[test]
    fn empty_graph_schedules_to_zero() {
        let k = jafar_filter_kernel();
        let g = Dddg::expand(&k, 0, 1);
        let s = Schedule::compute(&g, &Resources::jafar_default());
        assert_eq!(s.cycles, 0);
    }

    #[test]
    fn jafar_kernel_achieves_ii_of_one_with_two_alus() {
        // §2.2: "JAFAR can process one [64-bit word] per clock cycle" with
        // two ALUs evaluating the range bounds in parallel.
        let k = jafar_filter_kernel();
        let ii = Schedule::steady_state_ii(&k, &Resources::jafar_default(), 8);
        assert!((ii - 1.0).abs() < 0.05, "ii={ii}");
    }

    #[test]
    fn single_alu_halves_throughput() {
        let k = jafar_filter_kernel();
        let one_alu = Resources {
            alus: 1,
            ..Resources::jafar_default()
        };
        let ii = Schedule::steady_state_ii(&k, &one_alu, 8);
        assert!((ii - 2.0).abs() < 0.1, "ii={ii}");
    }

    #[test]
    fn memory_bandwidth_limits_ii() {
        let k = jafar_filter_kernel();
        let starved = Resources {
            mem_bytes_per_cycle: 4, // half a word per cycle
            ..Resources::jafar_default()
        };
        let ii = Schedule::steady_state_ii(&k, &starved, 8);
        assert!(ii >= 1.9, "ii={ii}");
    }

    #[test]
    fn serial_carried_chain_cannot_pipeline() {
        let mut b = KernelBuilder::new();
        let mul = b.op(OpKind::Mul, &[]); // 3-cycle op
        b.carry(mul, mul);
        let k = b.build();
        let ii = Schedule::steady_state_ii(&k, &Resources::jafar_default(), 1);
        assert!(
            (ii - 3.0).abs() < 0.1,
            "carried 3-cycle chain → II 3, got {ii}"
        );
    }

    #[test]
    fn resource_counts_accumulate() {
        let k = jafar_filter_kernel();
        let g = Dddg::expand(&k, 16, 1);
        let s = Schedule::compute(&g, &Resources::jafar_default());
        // Per iteration: 2 cmps (alu), 3 bit ops, 1 load; induction is free.
        assert_eq!(s.issued, (32, 48, 16));
        assert_eq!(s.bytes_moved, 16 * 8);
    }

    #[test]
    fn schedule_respects_dependences() {
        // A pure chain of 10 adds has no parallelism: 10 cycles regardless
        // of resources.
        let mut b = KernelBuilder::new();
        let mut prev = b.op(OpKind::Add, &[]);
        for _ in 0..9 {
            prev = b.op(OpKind::Add, &[prev]);
        }
        let k = b.build();
        let g = Dddg::expand(&k, 1, 1);
        let wide = Resources {
            alus: 64,
            bitops: 64,
            mem_ports: 64,
            mem_bytes_per_cycle: 1 << 20,
        };
        let s = Schedule::compute(&g, &wide);
        assert_eq!(s.cycles, 10);
        assert_eq!(s.cycles, g.critical_path());
    }

    #[test]
    fn unrolling_amortises_induction_chain() {
        let k = jafar_filter_kernel();
        let r = Resources::jafar_default();
        let no_unroll = Schedule::compute(&Dddg::expand(&k, 64, 1), &r);
        let unrolled = Schedule::compute(&Dddg::expand(&k, 64, 8), &r);
        assert!(unrolled.cycles <= no_unroll.cycles);
    }
}
