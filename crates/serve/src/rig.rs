//! The serving test machine shared by the engine and cluster tests: one
//! DRAM module per channel, every unit carrying a full replica of the
//! same seeded column at fixed channel-local offsets within its rank,
//! one device and persistent driver per unit.

use crate::engine::{run_serve, ServeConfig, ServeEnv, UnitBuffers};
use crate::policy::SchedPolicy;
use crate::pool::FilterPool;
use crate::report::ServeReport;
use crate::workload::Workload;
use jafar_common::obs::SharedTracer;
use jafar_common::rng::SplitMix64;
use jafar_core::device::JafarDevice;
use jafar_core::driver::{ResilienceConfig, ResilientDriver};
use jafar_dram::{AddressMapping, DramGeometry, DramModule, DramTiming, PhysAddr};

/// Rows of every rig's served column.
pub(crate) const ROWS: u64 = 2048;

/// A channels × ranks serving machine. Every channel lays its units out
/// at the same channel-local addresses, so a one-channel rig is the
/// single-DIMM machine.
pub(crate) struct WideRig {
    pub(crate) modules: Vec<DramModule>,
    pub(crate) pool: FilterPool,
    pub(crate) devices: Vec<JafarDevice>,
    pub(crate) drivers: Vec<ResilientDriver>,
    pub(crate) buffers: Vec<UnitBuffers>,
    pub(crate) values: Vec<i64>,
    pub(crate) keys: Vec<i64>,
    pub(crate) tracer: SharedTracer,
}

/// A `channels × ranks_per` rig over the column seeded by `seed`.
pub(crate) fn wide_rig(channels: usize, ranks_per: u32, seed: u64) -> WideRig {
    let geom = DramGeometry {
        ranks: ranks_per,
        banks_per_rank: 4,
        rows_per_bank: 64,
        row_bytes: 1024,
    };
    let mut rng = SplitMix64::new(seed);
    let values: Vec<i64> = (0..ROWS)
        .map(|_| rng.next_range_inclusive(0, 999))
        .collect();
    // A separate key stream keeps the value stream (and with it every
    // pre-group-by golden expectation) untouched.
    let mut krng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let keys: Vec<i64> = (0..ROWS)
        .map(|_| krng.next_range_inclusive(0, 15))
        .collect();
    let rank_bytes = geom.rank_bytes();
    let mut modules = Vec::new();
    let mut buffers = Vec::new();
    for _ch in 0..channels {
        let mut module = DramModule::new(
            geom,
            DramTiming::ddr3_paper().without_refresh(),
            AddressMapping::RankRowBankBlock,
        );
        for r in 0..ranks_per as u64 {
            let base = r * rank_bytes;
            for (i, &v) in values.iter().enumerate() {
                module
                    .data_mut()
                    .write_i64(PhysAddr(base + i as u64 * 8), v);
            }
            buffers.push(UnitBuffers {
                replica: PhysAddr(base),
                out: PhysAddr(base + 192 * 1024),
                proj: PhysAddr(base + 64 * 1024),
                stage: PhysAddr(base + 128 * 1024),
            });
        }
        modules.push(module);
    }
    let nunits = channels * ranks_per as usize;
    WideRig {
        modules,
        pool: FilterPool::new(channels, ranks_per as usize),
        devices: vec![JafarDevice::paper_default(); nunits],
        drivers: (0..nunits)
            .map(|_| ResilientDriver::new(ResilienceConfig::default()))
            .collect(),
        buffers,
        values,
        keys,
        tracer: SharedTracer::disabled(),
    }
}

/// The single-channel rig: `nranks` units over one module.
pub(crate) fn rig(nranks: u32, seed: u64) -> WideRig {
    wide_rig(1, nranks, seed)
}

impl WideRig {
    /// The engine's view of this machine.
    pub(crate) fn env(&mut self) -> ServeEnv<'_> {
        ServeEnv {
            modules: self.modules.iter_mut().collect(),
            pool: self.pool,
            devices: &mut self.devices,
            drivers: &mut self.drivers,
            buffers: &self.buffers,
            values: &self.values,
            keys: &self.keys,
            tracer: &self.tracer,
        }
    }

    pub(crate) fn serve(
        &mut self,
        workload: &Workload,
        policy: SchedPolicy,
        cfg: &ServeConfig,
    ) -> ServeReport {
        run_serve(self.env(), workload, policy, cfg)
    }
}
