//! Dynamic data dependence graph construction (trace expansion).
//!
//! Aladdin builds its graph from a dynamic trace; for loop kernels that is
//! the body replicated once per iteration, with loop-carried edges linking
//! consecutive iterations. Unrolling by *U* replicates the body *U* times
//! per "super-iteration" while keeping a single copy of the loop
//! bookkeeping (induction/branch) ops — exactly the effect unrolling has on
//! a real datapath.

use crate::ir::{Kernel, OpKind};

/// One node of the expanded graph.
#[derive(Clone, Debug)]
pub struct Node {
    /// Operation class.
    pub kind: OpKind,
    /// Global indices of predecessor nodes.
    pub preds: Vec<u32>,
    /// Loop-bookkeeping node: handled by control/address-generation logic,
    /// occupies no scheduled functional unit.
    pub free: bool,
}

/// The expanded dependence graph.
#[derive(Clone, Debug)]
pub struct Dddg {
    /// Nodes in trace order (a topological order by construction).
    pub nodes: Vec<Node>,
    /// Iterations represented.
    pub iterations: u64,
}

impl Dddg {
    /// Expands `kernel` over `iterations` iterations with unroll factor
    /// `unroll` (≥ 1).
    ///
    /// # Panics
    /// Panics if `unroll` is zero.
    pub fn expand(kernel: &Kernel, iterations: u64, unroll: u64) -> Self {
        assert!(unroll >= 1, "unroll factor must be at least 1");
        kernel.validate();
        let body = kernel.body.len();
        // Per body op, the ops whose previous-iteration copy feeds it.
        let mut carried_into: Vec<Vec<usize>> = vec![Vec::new(); body];
        for &(from, to) in &kernel.carried {
            carried_into[to].push(from);
        }
        let groups = iterations.div_ceil(unroll);
        let per_group = kernel.work_ops() as u64 * unroll + (body - kernel.work_ops()) as u64;
        let mut nodes: Vec<Node> = Vec::with_capacity((groups * per_group) as usize);
        // Maps body-op index -> global node index: the latest copy so far
        // (feeding carried edges) and the current iteration's copy.
        let mut group_last: Vec<Option<u32>> = vec![None; body];
        let mut this_iter: Vec<Option<u32>> = vec![None; body];
        let mut done = 0u64;
        while done < iterations {
            let group = unroll.min(iterations - done);
            for u in 0..group {
                this_iter.fill(None);
                for (i, op) in kernel.body.iter().enumerate() {
                    // Induction ops appear once per unrolled group.
                    if op.induction && u != 0 {
                        // Later unrolled copies reuse the group's single
                        // induction node.
                        this_iter[i] = group_last[i];
                        continue;
                    }
                    let mut preds = Vec::with_capacity(op.deps.len() + carried_into[i].len());
                    preds.extend(op.deps.iter().filter_map(|&d| this_iter[d]));
                    // Loop-carried edges from the previous iteration.
                    preds.extend(carried_into[i].iter().filter_map(|&from| group_last[from]));
                    nodes.push(Node {
                        kind: op.kind,
                        preds,
                        free: op.induction,
                    });
                    this_iter[i] = Some((nodes.len() - 1) as u32);
                }
                for (last, v) in group_last.iter_mut().zip(&this_iter) {
                    if v.is_some() {
                        *last = *v;
                    }
                }
            }
            done += group;
        }
        Dddg { nodes, iterations }
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The longest dependence chain (critical path) in *op latencies* —
    /// the unconstrained lower bound on schedule length.
    pub fn critical_path(&self) -> u64 {
        let mut finish = vec![0u64; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            let start = n
                .preds
                .iter()
                .map(|&p| finish[p as usize])
                .max()
                .unwrap_or(0);
            finish[i] = start + n.kind.latency();
        }
        finish.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{jafar_filter_kernel, KernelBuilder};

    #[test]
    fn expansion_counts() {
        let k = jafar_filter_kernel(); // 7 body ops, 1 induction
        let g = Dddg::expand(&k, 4, 1);
        assert_eq!(g.len(), 4 * 7);
        // Unroll 4: induction op shared — 4*6 work ops + 1 induction.
        let g4 = Dddg::expand(&k, 4, 4);
        assert_eq!(g4.len(), 4 * 6 + 1);
    }

    #[test]
    fn unroll_handles_remainder() {
        let k = jafar_filter_kernel();
        let g = Dddg::expand(&k, 10, 4); // groups of 4, 4, 2
        assert_eq!(g.len(), (4 * 6 + 1) + (4 * 6 + 1) + (2 * 6 + 1));
        assert_eq!(g.iterations, 10);
    }

    #[test]
    fn carried_dependence_serialises_without_unroll() {
        // A kernel that is *only* a carried chain: acc = acc + x.
        let mut b = KernelBuilder::new();
        let add = b.op(crate::ir::OpKind::Add, &[]);
        b.carry(add, add);
        let k = b.build();
        let g = Dddg::expand(&k, 8, 1);
        // Critical path = 8 chained adds.
        assert_eq!(g.critical_path(), 8);
    }

    #[test]
    fn independent_iterations_have_flat_critical_path() {
        // Load → cmp, no carried edges: iterations are fully parallel.
        let mut b = KernelBuilder::new();
        let l = b.op(crate::ir::OpKind::Load, &[]);
        b.op(crate::ir::OpKind::ICmp, &[l]);
        let k = b.build();
        let g = Dddg::expand(&k, 100, 1);
        assert_eq!(g.critical_path(), 2, "one load + one cmp, any iteration");
    }

    #[test]
    fn jafar_kernel_critical_path_per_iteration() {
        let k = jafar_filter_kernel();
        let g = Dddg::expand(&k, 1, 1);
        // load → cmp → and → shl → or = 5 single-cycle stages.
        assert_eq!(g.critical_path(), 5);
        // The induction chain, not the datapath, links iterations: the
        // last iteration's insert sits 2 stages after the 8-deep chain.
        let g8 = Dddg::expand(&k, 8, 1);
        assert_eq!(g8.critical_path(), 8 + 2, "8 inductions + shl + or");
        // Unrolling collapses the chain: one induction per group of 8.
        let g8u = Dddg::expand(&k, 8, 8);
        assert_eq!(g8u.critical_path(), 5);
    }

    #[test]
    fn empty_graph() {
        let k = jafar_filter_kernel();
        let g = Dddg::expand(&k, 0, 1);
        assert!(g.is_empty());
        assert_eq!(g.critical_path(), 0);
    }
}
