//! Kernel IR: the operations of one loop body and their dependences.

/// Operation classes, with datapath latencies in accelerator cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Read one word from the local memory interface.
    Load,
    /// Write one word to the local memory interface.
    Store,
    /// Integer comparison.
    ICmp,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Integer add/subtract.
    Add,
    /// Integer multiply.
    Mul,
    /// Shift.
    Shl,
    /// Two-way select (predicated move).
    Select,
    /// Fixed-function hash stage (§4 aggregation support).
    Hash,
}

/// Functional-unit class an operation competes for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FuClass {
    /// Arithmetic/compare units — the "two ALUs" of Figure 1(b).
    Alu,
    /// Dedicated bit-manipulation logic (the output-buffer insert path);
    /// cheap combinational logic, provisioned separately from the ALUs.
    Bitwise,
    /// Memory ports into the DRAM IO buffer.
    Memory,
}

impl OpKind {
    /// Latency in accelerator cycles (fully pipelined units: a new op can
    /// enter every cycle).
    pub fn latency(self) -> u64 {
        match self {
            OpKind::Load | OpKind::Store => 1,
            OpKind::ICmp
            | OpKind::And
            | OpKind::Or
            | OpKind::Add
            | OpKind::Shl
            | OpKind::Select => 1,
            OpKind::Mul => 3,
            OpKind::Hash => 4,
        }
    }

    /// The functional-unit class this op occupies.
    pub fn fu_class(self) -> FuClass {
        match self {
            OpKind::Load | OpKind::Store => FuClass::Memory,
            OpKind::ICmp | OpKind::Add | OpKind::Mul | OpKind::Select | OpKind::Hash => {
                FuClass::Alu
            }
            OpKind::And | OpKind::Or | OpKind::Shl => FuClass::Bitwise,
        }
    }

    /// True for operations that occupy a memory port.
    pub fn is_memory(self) -> bool {
        matches!(self, OpKind::Load | OpKind::Store)
    }

    /// Bytes moved over the local memory interface (for bandwidth limits).
    pub fn memory_bytes(self) -> u64 {
        if self.is_memory() {
            8
        } else {
            0
        }
    }
}

/// One operation in a loop body.
#[derive(Clone, Debug)]
pub struct Op {
    /// The operation class.
    pub kind: OpKind,
    /// Indices (within the body) of same-iteration operations this one
    /// depends on.
    pub deps: Vec<usize>,
    /// Loop-bookkeeping op (induction increment, branch): eliminated for
    /// all but one copy per unrolled group.
    pub induction: bool,
}

/// A loop kernel: a body plus loop-carried dependences.
#[derive(Clone, Debug)]
pub struct Kernel {
    /// The body operations.
    pub body: Vec<Op>,
    /// `(from, to)` pairs: body op `from` of iteration *i* feeds body op
    /// `to` of iteration *i + 1*.
    pub carried: Vec<(usize, usize)>,
}

impl Kernel {
    /// Number of non-induction ops per iteration.
    pub fn work_ops(&self) -> usize {
        self.body.iter().filter(|o| !o.induction).count()
    }

    /// Validates dependence indices.
    ///
    /// # Panics
    /// Panics on out-of-range or forward same-iteration dependences.
    pub fn validate(&self) {
        for (i, op) in self.body.iter().enumerate() {
            for &d in &op.deps {
                assert!(d < i, "op {i} depends on non-earlier op {d}");
            }
        }
        for &(from, to) in &self.carried {
            assert!(from < self.body.len() && to < self.body.len());
        }
    }
}

/// Fluent builder for kernels.
#[derive(Default)]
pub struct KernelBuilder {
    body: Vec<Op>,
    carried: Vec<(usize, usize)>,
}

impl KernelBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an operation; returns its id.
    pub fn op(&mut self, kind: OpKind, deps: &[usize]) -> usize {
        self.body.push(Op {
            kind,
            deps: deps.to_vec(),
            induction: false,
        });
        self.body.len() - 1
    }

    /// Appends a loop-bookkeeping operation; returns its id.
    pub fn induction(&mut self, kind: OpKind, deps: &[usize]) -> usize {
        self.body.push(Op {
            kind,
            deps: deps.to_vec(),
            induction: true,
        });
        self.body.len() - 1
    }

    /// Declares a loop-carried dependence from `from` (iteration *i*) to
    /// `to` (iteration *i + 1*).
    pub fn carry(&mut self, from: usize, to: usize) -> &mut Self {
        self.carried.push((from, to));
        self
    }

    /// Finishes the kernel.
    ///
    /// # Panics
    /// Panics if the kernel is structurally invalid.
    pub fn build(self) -> Kernel {
        let k = Kernel {
            body: self.body,
            carried: self.carried,
        };
        k.validate();
        k
    }
}

/// The JAFAR filter loop body (§2.2): load a 64-bit word, compare against
/// both range bounds in parallel (the two ALUs), AND the comparisons, and
/// OR the outcome into the output bitset at the tracked row offset. The
/// row-offset increment is loop bookkeeping (control/AGU logic, carried to
/// the next iteration); the bitmask insert depends on it.
pub fn jafar_filter_kernel() -> Kernel {
    let mut b = KernelBuilder::new();
    let inc = b.induction(OpKind::Add, &[]);
    let load = b.op(OpKind::Load, &[]);
    let cmp_lo = b.op(OpKind::ICmp, &[load]);
    let cmp_hi = b.op(OpKind::ICmp, &[load]);
    let and = b.op(OpKind::And, &[cmp_lo, cmp_hi]);
    let mask = b.op(OpKind::Shl, &[and, inc]);
    let _or = b.op(OpKind::Or, &[mask]);
    b.carry(inc, inc);
    b.build()
}

/// The §4 aggregation loop body: load a word and fold it into a
/// loop-carried accumulator. `filtered` adds the combined range filter
/// in front of the fold: both bound compares, their AND, and a predicated
/// select of the word (or zero) into the accumulating add.
pub fn jafar_aggregate_kernel(filtered: bool) -> Kernel {
    let mut b = KernelBuilder::new();
    let inc = b.induction(OpKind::Add, &[]);
    let load = b.op(OpKind::Load, &[]);
    let acc = if filtered {
        let c1 = b.op(OpKind::ICmp, &[load]);
        let c2 = b.op(OpKind::ICmp, &[load]);
        let and = b.op(OpKind::And, &[c1, c2]);
        let sel = b.op(OpKind::Select, &[load, and]);
        b.op(OpKind::Add, &[sel])
    } else {
        b.op(OpKind::Add, &[load])
    };
    b.carry(acc, acc);
    b.carry(inc, inc);
    b.build()
}

/// The §4 bounded-bucket hash group-by loop body: two loads per row (key
/// and value), the pipelined fixed-function hash of the key, a bucket-tag
/// compare and the bucket update.
pub fn jafar_group_by_kernel() -> Kernel {
    let mut b = KernelBuilder::new();
    let key = b.op(OpKind::Load, &[]);
    let val = b.op(OpKind::Load, &[]);
    let h = b.op(OpKind::Hash, &[key]);
    let cmp = b.op(OpKind::ICmp, &[h]);
    b.op(OpKind::Add, &[cmp, val]);
    let inc = b.induction(OpKind::Add, &[]);
    b.carry(inc, inc);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut b = KernelBuilder::new();
        let a = b.op(OpKind::Load, &[]);
        let c = b.op(OpKind::ICmp, &[a]);
        assert_eq!((a, c), (0, 1));
        let k = b.build();
        assert_eq!(k.body.len(), 2);
        assert_eq!(k.work_ops(), 2);
    }

    #[test]
    fn jafar_kernel_shape() {
        let k = jafar_filter_kernel();
        assert_eq!(k.body.len(), 7);
        assert_eq!(k.work_ops(), 6);
        assert_eq!(k.carried.len(), 1);
        // Both comparisons depend only on the load — they can issue in the
        // same cycle on the two parallel ALUs (§2.2, Figure 1(b)).
        assert_eq!(k.body[2].deps, vec![1]);
        assert_eq!(k.body[3].deps, vec![1]);
        // Exactly two ALU-class ops per iteration (the two compares).
        let alu_work = k
            .body
            .iter()
            .filter(|o| !o.induction && o.kind.fu_class() == FuClass::Alu)
            .count();
        assert_eq!(alu_work, 2);
    }

    #[test]
    fn fu_classes() {
        assert_eq!(OpKind::ICmp.fu_class(), FuClass::Alu);
        assert_eq!(OpKind::Or.fu_class(), FuClass::Bitwise);
        assert_eq!(OpKind::Load.fu_class(), FuClass::Memory);
        assert_eq!(OpKind::Hash.fu_class(), FuClass::Alu);
    }

    #[test]
    #[should_panic(expected = "non-earlier")]
    fn forward_dependence_rejected() {
        let k = Kernel {
            body: vec![Op {
                kind: OpKind::And,
                deps: vec![0],
                induction: false,
            }],
            carried: vec![],
        };
        k.validate();
    }

    #[test]
    fn op_latencies() {
        assert_eq!(OpKind::Mul.latency(), 3);
        assert_eq!(OpKind::Hash.latency(), 4);
        assert!(OpKind::Load.is_memory());
        assert!(!OpKind::ICmp.is_memory());
        assert_eq!(OpKind::Store.memory_bytes(), 8);
        assert_eq!(OpKind::And.memory_bytes(), 0);
    }
}
