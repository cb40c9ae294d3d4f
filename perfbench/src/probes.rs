//! Host-cost probes: each layer's public entry point, called from outside
//! with inputs shaped like the workload (its `SystemConfig`, column
//! prefix, predicates and one device call's shard), timed per unit of work.
//!
//! The probes take their samples in rounds, every probe a few samples per
//! round, so a slow phase of the host hits all of them alike instead of
//! whichever probe happened to run then.

use crate::spans::Spans;
use crate::workloads::{Inputs, GRID_NODES};
use jafar_accel::ir::{KernelBuilder, OpKind};
use jafar_accel::schedule::Schedule;
use jafar_accel::Kernel;
use jafar_common::time::Tick;
use jafar_core::aggregate::{AggOp, AggregateJob};
use jafar_core::device::DeviceConfig;
use jafar_core::project::ProjectJob;
use jafar_core::{
    grant_ownership, FusedSelectJob, JafarDevice, Predicate, ResilienceConfig, ResilientDriver,
    SelectJob, SelectRequest,
};
use jafar_cpu::engine::ScanSpec;
use jafar_cpu::{FixedLatencyBackend, ScanEngine, ScanVariant};
use jafar_dram::{DramModule, PhysAddr, Requester};
use jafar_net::NetFabric;
use jafar_serve::cluster_fabric;
use jafar_sim::{System, SystemConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Rounds the probe budget is split into; the traced run times one
/// untraced pass per round, so passes and probes share the same host phases.
pub const ROUNDS: usize = 8;
/// Rows of the CPU scan probe.
const CPU_PROBE_ROWS: usize = 1 << 16;
/// Messages per net probe sample, and the request size the frontend sends.
const NET_MSGS: u64 = 1024;
const NET_MSG_BYTES: u64 = 256;
/// Lanes of the fused-select probe.
pub const FUSED_LANES: usize = 4;

/// The probed entry points, in sampling order.
const PROBES: [&str; 14] = [
    "sim.write_column",
    "net.delay",
    "core.select",
    "core.select_fused",
    "core.aggregate",
    "core.project",
    "core.group_by",
    "accel.steady_state_ii",
    "accel.steady_state_ii_fold",
    "dram.serve_addr",
    "dram.read_burst",
    "dram.write_i64",
    "core.driver_run_select",
    "cpu.scan",
];

/// Per-unit host cost of each probed entry point.
#[derive(Default)]
pub struct Probes {
    pub place_ns_per_word: f64,
    pub delay_ns_per_msg: f64,
    pub select_ns_per_burst: f64,
    pub fused_ns_per_burst: f64,
    pub aggregate_us_per_call: f64,
    pub project_ns_per_row: f64,
    pub group_by_us_per_call: f64,
    pub ii_us: f64,
    pub fold_ii_us: f64,
    pub serve_ns_per_burst: f64,
    pub read_ns_per_burst: f64,
    pub write_ns_per_word: f64,
    pub driver_ns_per_page: f64,
    pub scan_ns_per_row: f64,
}

fn timed(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

fn write_words(module: &mut DramModule, base: u64, values: &[i64]) {
    let data = module.data_mut();
    for (i, &v) in values.iter().enumerate() {
        data.write_i64(PhysAddr(base + i as u64 * 8), v);
    }
}

/// The aggregate kernel the device's aggregate path schedules: filtered
/// for a select-aggregate, unfiltered for a group-by's per-group fold.
fn aggregate_kernel(filtered: bool) -> Kernel {
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

/// Everything the probes call into, built once per probe run.
struct Rig<'a> {
    cfg: SystemConfig,
    device_cfg: DeviceConfig,
    values: &'a [i64],
    unit_rows: usize,
    call_rows: usize,
    predicate: Predicate,
    out: PhysAddr,
    proj_out: PhysAddr,
    fused: FusedSelectJob,
    group_jobs: Vec<AggregateJob>,
    kernels: [Kernel; 2],
    /// Rank 0 owned by the device, holding one unit's shard.
    module: DramModule,
    device: JafarDevice,
    t: Tick,
    /// The resilient driver grants and releases its rank itself, so it
    /// runs on a module of its own.
    driver_module: DramModule,
    driver: ResilientDriver,
    driver_t: Tick,
    fabric: NetFabric,
    scan_values: Vec<i64>,
}

impl<'a> Rig<'a> {
    fn new(inputs: &'a Inputs, seed: u64) -> Rig<'a> {
        let cfg = inputs.kind.config();
        let device_cfg = cfg.device.expect("every workload config has a device");
        let values = &inputs.values[..];
        let units = (cfg.dram_geometry.ranks as usize - 1).max(1);
        // One unit's shard of the column, and what one device call covers
        // of it: a page of the per-page select contract.
        let unit_rows = values.len().div_ceil(units);
        let call_rows = unit_rows.min((cfg.page_bytes / 8) as usize);
        let preds: Vec<(i64, i64)> = if inputs.selects.is_empty() {
            inputs
                .workload
                .specs
                .iter()
                .map(|s| (s.lo, s.hi))
                .take(8)
                .collect()
        } else {
            inputs.selects.clone()
        };
        let (lo, hi) = preds[preds.len() / 2];
        // Rank 0 holds the shard, then eight bitset lanes, the packed
        // projection output and the group-by staging area.
        let stride = (call_rows as u64).div_ceil(8).next_multiple_of(64);
        let out = PhysAddr((unit_rows as u64 * 8).next_multiple_of(4096));
        let proj_out = PhysAddr(out.0 + 8 * stride);
        let stage = PhysAddr(proj_out.0 + (call_rows as u64 * 8).next_multiple_of(64));

        let mut module = DramModule::new(cfg.dram_geometry, cfg.dram_timing, cfg.mapping);
        write_words(&mut module, 0, &values[..unit_rows]);
        // Group-by: the shard's qualifying rows grouped by key and staged
        // 64-byte-aligned, one device fold per group.
        let keys = if inputs.keys.is_empty() {
            jafar_serve::zipf_keys(unit_rows, 8, 1.0, seed)
        } else {
            inputs.keys[..unit_rows].to_vec()
        };
        let mut groups: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
        for (&k, &v) in keys.iter().zip(&values[..unit_rows]) {
            if lo <= v && v <= hi {
                groups.entry(k).or_default().push(v);
            }
        }
        let mut group_jobs = Vec::new();
        let mut off = 0u64;
        for vs in groups.values() {
            write_words(&mut module, stage.0 + off * 8, vs);
            group_jobs.push(AggregateJob {
                col_addr: PhysAddr(stage.0 + off * 8),
                rows: vs.len() as u64,
                op: AggOp::Sum,
                filter: None,
            });
            off = (off + vs.len() as u64).next_multiple_of(8);
        }
        let t = grant_ownership(&mut module, 0, Tick::ZERO)
            .expect("fresh module")
            .acquired_at;

        let mut driver_module = DramModule::new(cfg.dram_geometry, cfg.dram_timing, cfg.mapping);
        write_words(&mut driver_module, 0, &values[..unit_rows]);
        let driver = ResilientDriver::new(ResilienceConfig {
            costs: cfg.driver,
            page_bytes: cfg.page_bytes,
            ..ResilienceConfig::default()
        });
        Rig {
            fused: FusedSelectJob {
                col_addr: PhysAddr(0),
                rows: call_rows as u64,
                predicates: (0..FUSED_LANES)
                    .map(|i| {
                        let (l, h) = preds[i % preds.len()];
                        Predicate::Between(l, h)
                    })
                    .collect(),
                out_addrs: (0..FUSED_LANES as u64)
                    .map(|i| PhysAddr(out.0 + i * stride))
                    .collect(),
            },
            device: JafarDevice::new(device_cfg),
            scan_values: values[..CPU_PROBE_ROWS.min(values.len())].to_vec(),
            fabric: cluster_fabric(GRID_NODES, seed),
            kernels: [aggregate_kernel(true), aggregate_kernel(false)],
            cfg,
            device_cfg,
            values,
            unit_rows,
            call_rows,
            predicate: Predicate::Between(lo, hi),
            out,
            proj_out,
            group_jobs,
            module,
            t,
            driver_module,
            driver,
            driver_t: Tick::ZERO,
        }
    }

    /// One sample of probe `i`, in its unit (ns or us per unit of work).
    fn sample(&mut self, i: usize) -> f64 {
        let call_bursts = self.call_rows.div_ceil(8) as u64;
        let call_rows = self.call_rows as u64;
        match PROBES[i] {
            "sim.write_column" => {
                let mut sys = System::new(self.cfg.clone());
                let values = self.values;
                timed(|| {
                    black_box(sys.write_column(values));
                }) * 1e9
                    / values.len() as f64
            }
            "net.delay" => {
                let fabric = &mut self.fabric;
                timed(|| {
                    for m in 0..NET_MSGS {
                        black_box(fabric.delay((m % GRID_NODES as u64) as usize, NET_MSG_BYTES));
                    }
                }) * 1e9
                    / NET_MSGS as f64
            }
            "core.select" => {
                let job = SelectJob {
                    col_addr: PhysAddr(0),
                    rows: call_rows,
                    predicate: self.predicate,
                    out_addr: self.out,
                };
                let (device, module, t) = (&mut self.device, &mut self.module, &mut self.t);
                timed(|| *t = device.run_select(module, job, *t).expect("owned").end) * 1e9
                    / call_bursts as f64
            }
            "core.select_fused" => {
                let (device, module, t, job) =
                    (&mut self.device, &mut self.module, &mut self.t, &self.fused);
                timed(|| *t = device.run_select_fused(module, job, *t).expect("owned").end) * 1e9
                    / call_bursts as f64
            }
            "core.aggregate" => {
                let job = AggregateJob {
                    col_addr: PhysAddr(0),
                    rows: self.unit_rows as u64,
                    op: AggOp::Sum,
                    filter: Some(self.predicate),
                };
                let (device, module, t) = (&mut self.device, &mut self.module, &mut self.t);
                timed(|| *t = device.run_aggregate(module, job, *t).expect("owned").end) * 1e6
            }
            "core.project" => {
                let job = ProjectJob {
                    col_addr: PhysAddr(0),
                    rows: call_rows,
                    bitset_addr: self.out,
                    out_addr: self.proj_out,
                };
                let (device, module, t) = (&mut self.device, &mut self.module, &mut self.t);
                timed(|| *t = device.run_project(module, job, *t).expect("owned").end) * 1e9
                    / call_rows as f64
            }
            "core.group_by" => {
                let (device, module, t, jobs) = (
                    &mut self.device,
                    &mut self.module,
                    &mut self.t,
                    &self.group_jobs,
                );
                timed(|| {
                    for &job in jobs {
                        *t = device.run_aggregate(module, job, *t).expect("owned").end;
                    }
                }) * 1e6
                    / jobs.len().max(1) as f64
            }
            name @ ("accel.steady_state_ii" | "accel.steady_state_ii_fold") => {
                let kernel = &self.kernels[usize::from(name.ends_with("fold"))];
                let cfg = &self.device_cfg;
                timed(|| {
                    black_box(Schedule::steady_state_ii(
                        kernel,
                        &cfg.resources,
                        cfg.unroll,
                    ));
                }) * 1e6
            }
            "dram.serve_addr" => {
                let (module, t) = (&mut self.module, &mut self.t);
                timed(|| {
                    for b in 0..call_bursts {
                        *t = module
                            .serve_addr(PhysAddr(b * 64), false, Requester::Ndp, *t, None)
                            .expect("owned")
                            .data_ready;
                    }
                }) * 1e9
                    / call_bursts as f64
            }
            "dram.read_burst" => {
                let data = self.module.data();
                timed(|| {
                    for b in 0..call_bursts {
                        black_box(data.read_burst(PhysAddr(b * 64)));
                    }
                }) * 1e9
                    / call_bursts as f64
            }
            "dram.write_i64" => {
                let values = &self.values[..self.call_rows];
                let data = self.module.data_mut();
                timed(|| {
                    for (w, &v) in values.iter().enumerate() {
                        data.write_i64(PhysAddr(w as u64 * 8), black_box(v));
                    }
                }) * 1e9
                    / call_rows as f64
            }
            "core.driver_run_select" => {
                let (lo, hi) = self.predicate.bounds();
                let req = SelectRequest {
                    col_addr: PhysAddr(0),
                    rows: self.unit_rows as u64,
                    lo,
                    hi,
                    out_addr: self.out,
                };
                let (driver, device, module, t) = (
                    &mut self.driver,
                    &mut self.device,
                    &mut self.driver_module,
                    &mut self.driver_t,
                );
                let mut pages = 1;
                let secs = timed(|| {
                    let run = driver.run_select(device, module, req, *t);
                    *t = run.end;
                    pages = run.pages.max(1);
                });
                secs * 1e9 / pages as f64
            }
            "cpu.scan" => {
                let rows = self.scan_values.len();
                let mut backend = FixedLatencyBackend::new(rows * 12, Tick::from_ns(20));
                backend.put_column(0, &self.scan_values);
                let engine = ScanEngine::new(self.cfg.cpu_clock, self.cfg.kernel);
                let (lo, hi) = self.predicate.bounds();
                let spec = ScanSpec {
                    col_addr: 0,
                    rows: rows as u64,
                    lo,
                    hi,
                    out_addr: rows as u64 * 8,
                    variant: ScanVariant::Branching,
                };
                timed(|| {
                    black_box(engine.run(&mut backend, spec, Tick::ZERO).expect("placed"));
                }) * 1e9
                    / rows as f64
            }
            other => unreachable!("no probe named {other}"),
        }
    }
}

/// Samples the probes in rounds, between which the caller runs its passes.
pub struct Prober<'a> {
    rig: Rig<'a>,
    slot: Duration,
    samples: Vec<Vec<f64>>,
}

impl<'a> Prober<'a> {
    /// Spreads a quarter of `seconds` over [`ROUNDS`] rounds that each
    /// sample every probe.
    pub fn new(inputs: &'a Inputs, seed: u64, seconds: u64) -> Prober<'a> {
        let mut rig = Rig::new(inputs, seed);
        for i in 0..PROBES.len() {
            rig.sample(i);
        }
        Prober {
            rig,
            slot: Duration::from_secs_f64(seconds as f64 * 0.25 / (ROUNDS * PROBES.len()) as f64),
            samples: vec![Vec::new(); PROBES.len()],
        }
    }

    pub fn round(&mut self, spans: &mut Spans, run: u32) {
        for (i, all) in self.samples.iter_mut().enumerate() {
            let id = spans.open(&format!("probe:{}", PROBES[i]), run);
            let begin = Instant::now();
            all.push(self.rig.sample(i));
            while begin.elapsed() < self.slot {
                all.push(self.rig.sample(i));
            }
            spans.close(id);
        }
    }

    /// Each probe's value: the fastest of all its samples, as host times
    /// are everywhere in the benchmark.
    pub fn finish(self) -> Probes {
        let mut v = self.samples.iter().map(|s| crate::fastest(s));
        let mut next = || v.next().expect("one value per probe");
        Probes {
            place_ns_per_word: next(),
            delay_ns_per_msg: next(),
            select_ns_per_burst: next(),
            fused_ns_per_burst: next(),
            aggregate_us_per_call: next(),
            project_ns_per_row: next(),
            group_by_us_per_call: next(),
            ii_us: next(),
            fold_ii_us: next(),
            serve_ns_per_burst: next(),
            read_ns_per_burst: next(),
            write_ns_per_word: next(),
            driver_ns_per_page: next(),
            scan_ns_per_row: next(),
        }
    }
}
