//! The serving layout every façade shares.
//!
//! §4 ("Memory Management") has the OS pin a rank's pages before the
//! device runs and release them afterwards. A [`ServeLayout`] is that
//! pinning for one serve: it owns the filter-unit pool, one device per
//! unit and one rank-confined arena per unit. Each `serve_with_keys` on
//! [`crate::System`], [`crate::ServeCluster`] and every
//! [`crate::ServeGrid`] node is the same five steps — [`ServeLayout::carve`]
//! the replica and buffers, build the driver bank and the engine env,
//! run, [`ServeLayout::release`] — so a long-lived façade serves any
//! number of times in bounded simulated memory.
//!
//! The carve allocates per unit, in unit order, replica → bitset buffer
//! → projection buffer → group-by staging. On a fresh façade that is the
//! allocation sequence every golden trace was recorded under, and since
//! the release rewinds each arena to where the carve found it, every
//! later serve reuses exactly the same addresses.

use crate::alloc::SimAlloc;
use crate::config::SystemConfig;
use jafar_common::obs::SharedTracer;
use jafar_core::{DriverStats, JafarDevice, ResilienceConfig, ResilientDriver};
use jafar_dram::{DramModule, PhysAddr};
use jafar_serve::engine::{ServeConfig, ServeEnv, UnitBuffers};
use jafar_serve::FilterPool;

/// One machine's filter units: pool topology, devices and per-unit
/// arenas. Every rank but the last per channel is a unit (the last stays
/// CPU-private, so host traffic always has somewhere to go while devices
/// own their ranks), and every channel lays its arenas out at the same
/// channel-local addresses.
pub(crate) struct ServeLayout {
    pub(crate) pool: FilterPool,
    /// One device per unit; empty when the config has no JAFAR device.
    pub(crate) devices: Vec<JafarDevice>,
    /// `arenas[u]` allocates within rank `pool.unit(u).rank` of channel
    /// `pool.unit(u).channel`.
    pub(crate) arenas: Vec<SimAlloc>,
}

/// What one serve carved: each unit's buffers and where each arena
/// stood before, for [`ServeLayout::release`].
pub(crate) struct Carve {
    pub(crate) buffers: Vec<UnitBuffers>,
    marks: Vec<PhysAddr>,
}

impl ServeLayout {
    /// `channels` channels of `cfg`'s geometry, one device per unit when
    /// `cfg` has a JAFAR device.
    pub(crate) fn new(cfg: &SystemConfig, channels: usize) -> Self {
        let rank_bytes = cfg.dram_geometry.rank_bytes();
        let ranks = (cfg.dram_geometry.ranks as usize).saturating_sub(1).max(1);
        let pool = FilterPool::new(channels, ranks);
        let arenas = (0..pool.units())
            .map(|u| SimAlloc::new(PhysAddr(pool.unit(u).rank as u64 * rank_bytes), rank_bytes))
            .collect();
        let devices = match cfg.device {
            Some(d) => vec![JafarDevice::new(d); pool.units()],
            None => Vec::new(),
        };
        ServeLayout {
            pool,
            devices,
            arenas,
        }
    }

    /// Writes a replica of `values` into every unit's arena and carves
    /// its buffers behind it: a bitset buffer of `lanes` 64-byte-rounded
    /// full-column bitsets (see [`jafar_serve::out_lanes`]), a packed
    /// projection buffer (worst case every row qualifies) and a group-by
    /// staging region (worst case every row lands on this unit, each
    /// group padded to a 64-byte kernel boundary).
    ///
    /// # Panics
    /// Panics if a unit arena cannot hold the replica plus its buffers.
    pub(crate) fn carve(
        &mut self,
        modules: &mut [&mut DramModule],
        values: &[i64],
        lanes: u64,
    ) -> Carve {
        let rows = values.len() as u64;
        let stride = rows.div_ceil(8).next_multiple_of(64);
        let marks = self.arenas.iter().map(SimAlloc::cursor).collect();
        let buffers = self
            .arenas
            .iter_mut()
            .enumerate()
            .map(|(u, arena)| {
                let replica = arena.alloc_blocks(rows * 8);
                let data = modules[self.pool.unit(u).channel].data_mut();
                for (i, &v) in values.iter().enumerate() {
                    data.write_i64(PhysAddr(replica.0 + i as u64 * 8), v);
                }
                UnitBuffers {
                    replica,
                    out: arena.alloc_blocks((stride * lanes).max(64)),
                    proj: arena.alloc_blocks(rows * 8),
                    stage: arena.alloc_blocks(rows * 8 + 64),
                }
            })
            .collect();
        Carve { buffers, marks }
    }

    /// One fresh resilient driver per unit: driver costs and page size
    /// from `sys`, the rest of the recovery policy from `cfg`. Fresh per
    /// serve, so no breaker state leaks from one serve into the next.
    pub(crate) fn drivers(
        &self,
        sys: &SystemConfig,
        cfg: &ServeConfig,
        tracer: &SharedTracer,
    ) -> Vec<ResilientDriver> {
        let rcfg = ResilienceConfig {
            costs: sys.driver,
            page_bytes: sys.page_bytes,
            ..cfg.resilience
        };
        (0..self.pool.units())
            .map(|_| {
                let mut d = ResilientDriver::new(rcfg);
                d.set_tracer(tracer.clone());
                d
            })
            .collect()
    }

    /// The engine's view of this layout for one serve.
    pub(crate) fn env<'a>(
        &'a mut self,
        modules: Vec<&'a mut DramModule>,
        drivers: &'a mut [ResilientDriver],
        carve: &'a Carve,
        values: &'a [i64],
        keys: &'a [i64],
        tracer: &'a SharedTracer,
    ) -> ServeEnv<'a> {
        ServeEnv {
            modules,
            pool: self.pool,
            devices: &mut self.devices,
            drivers,
            buffers: &carve.buffers,
            values,
            keys,
            tracer,
        }
    }

    /// Hands the carved memory back: every arena rewinds to where
    /// [`ServeLayout::carve`] found it.
    pub(crate) fn release(&mut self, carve: Carve) {
        for (arena, mark) in self.arenas.iter_mut().zip(carve.marks) {
            arena.reset_to(mark);
        }
    }
}

/// Per-unit recovery counters of a driver bank, in unit order.
pub(crate) fn recovery(drivers: &[ResilientDriver]) -> Vec<DriverStats> {
    drivers.iter().map(|d| *d.stats()).collect()
}

/// The soak check every façade's tests run: K consecutive serves of one
/// mixed select/aggregate/group-by stream on one long-lived machine.
#[cfg(test)]
pub(crate) mod soak {
    use super::ServeLayout;
    use crate::config::SystemConfig;
    use jafar_common::rng::SplitMix64;
    use jafar_common::time::Tick;
    use jafar_dram::{DramGeometry, PhysAddr};
    use jafar_serve::{uniform_keys, AggFn, PredicateMix, QueryOp, QueryRecord, Workload};

    /// Consecutive serves per façade.
    const K: usize = 8;

    /// `test_small` with four ranks: three filter units per channel.
    pub(crate) fn config() -> SystemConfig {
        let mut cfg = SystemConfig::test_small();
        cfg.dram_geometry = DramGeometry {
            ranks: 4,
            ..cfg.dram_geometry
        };
        cfg
    }

    /// Value column, row-aligned key column and the mixed stream.
    pub(crate) fn inputs() -> (Vec<i64>, Vec<i64>, Workload) {
        let mut rng = SplitMix64::new(0x50AC);
        let values: Vec<i64> = (0..2048)
            .map(|_| rng.next_range_inclusive(0, 999))
            .collect();
        let keys = uniform_keys(values.len(), 16, 0x50AD);
        let mix = PredicateMix::UniformRange {
            min: 0,
            max: 999,
            width: 300,
        };
        let workload = Workload::poisson(mix, 12, Tick::from_us(2), 0x50AE).with_op_mix(&[
            QueryOp::Select,
            QueryOp::SelectAgg(AggFn::Sum),
            QueryOp::GroupBy { agg: AggFn::Sum },
            QueryOp::SelectCount,
            QueryOp::GroupBy { agg: AggFn::Min },
            QueryOp::SelectAgg(AggFn::Max),
        ]);
        (values, keys, workload)
    }

    /// Every arena's cursor, in unit order.
    pub(crate) fn cursors(layout: &ServeLayout) -> Vec<PhysAddr> {
        layout.arenas.iter().map(|a| a.cursor()).collect()
    }

    /// Runs `serve` [`K`] times. Each call gets its start instant — the
    /// previous serve's end, since simulated time on one machine only
    /// moves forward — and returns the arena cursors before and after its
    /// serve plus the serve's records. Every serve must hand back all it
    /// carved and return exactly serve 1's results.
    pub(crate) fn check(
        mut serve: impl FnMut(Tick) -> (Vec<PhysAddr>, Vec<PhysAddr>, Vec<QueryRecord>),
    ) {
        let mut start = Tick::ZERO;
        let mut first: Option<Vec<QueryRecord>> = None;
        for k in 1..=K {
            let (before, after, records) = serve(start);
            assert_eq!(before, after, "serve {k} kept arena memory");
            let ends: Option<Vec<Tick>> = records.iter().map(|r| r.done).collect();
            start = ends
                .expect("every query completes")
                .into_iter()
                .fold(start, Tick::max);
            let Some(first) = &first else {
                assert!(
                    records.iter().any(|r| !r.groups.is_empty()),
                    "the stream exercises group-by"
                );
                first = Some(records);
                continue;
            };
            assert_eq!(records.len(), first.len());
            for (a, b) in first.iter().zip(&records) {
                assert_eq!(a.bitset, b.bitset, "serve {k} query {} bitset", a.id);
                assert_eq!(a.matched, b.matched, "serve {k} query {} matched", a.id);
                assert_eq!(a.mode, b.mode, "serve {k} query {} mode", a.id);
                assert_eq!(a.agg, b.agg, "serve {k} query {} agg", a.id);
                assert_eq!(a.groups, b.groups, "serve {k} query {} groups", a.id);
            }
        }
    }
}
