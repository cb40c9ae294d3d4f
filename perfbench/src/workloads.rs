//! The four workloads: the inputs each one generates from its seed, the
//! façade it builds, the timed call, and the reference every completed
//! result is checked against.
//!
//! Every run builds a fresh machine. Serves never give their simulated
//! memory back (a second serve of one `System` leaks its replicas and a
//! third can exhaust the arena), so re-serving one machine would measure
//! the leak instead of the workload.

use crate::digest::Digest;
use jafar_common::obs::{RingTracer, SharedTracer};
use jafar_common::rng::SplitMix64;
use jafar_common::time::Tick;
use jafar_cpu::ScanVariant;
use jafar_dram::{DramGeometry, FaultPlan, PhysAddr};
use jafar_net::{NetFabric, Placement};
use jafar_serve::cluster::{ClusterConfig, RoutePolicy, Tier};
use jafar_serve::engine::ServeConfig;
use jafar_serve::{
    zipf_keys, AggFn, Arrivals, KeyRanges, PredicateMix, QueryOp, QueryRecord, QuerySpec,
    SchedPolicy, Workload,
};
use jafar_sim::{
    CpuSelectStats, GridServeRun, JafarSelectStats, ServeGrid, ServeRun, System, SystemConfig,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Values are uniform in `[0, VALUE_MAX]` on the serve workloads.
const VALUE_MAX: i64 = 999;

// The serve workloads' row counts sit where no seed's extra rows (see
// `uniform`) change how many 512-row-aligned shards a query splits into
// on 1, 2 or 3 free units: a seed crossing such a boundary would change
// the device work per query, and with it host time, by up to half.

/// `mixed-ops`: rows of the served column and queries in the stream.
pub const MIXED_ROWS: usize = 2560;
pub const MIXED_QUERIES: usize = 2048;
/// Mean Poisson gap: keeps the default 16-deep queue busy enough that the
/// median latency includes queueing, without shedding on any seed tried.
const MIXED_GAP_NS: u64 = 2500;
/// The §4 operator cycle, fusion off.
const MIXED_OPS: [QueryOp; 6] = [
    QueryOp::Select,
    QueryOp::SelectCount,
    QueryOp::SelectAgg(AggFn::Sum),
    QueryOp::Project { k: 2 },
    QueryOp::SelectAgg(AggFn::Min),
    QueryOp::SelectAgg(AggFn::Max),
];

/// `scan-fused`: a 512K-row column (a 4 MiB replica per unit, twice the
/// host's per-core L2) and a saturated burst. The traced pass holds every
/// DRAM event in the ring, so the size also bounds its memory.
pub const SCAN_ROWS: usize = 1 << 19;
pub const SCAN_QUERIES: usize = 48;
pub const SCAN_FUSE: usize = 4;

/// `grid-keyed`: nodes, rows per replica, queries, key domain.
pub const GRID_NODES: usize = 4;
pub const GRID_ROWS: usize = 4352;
pub const GRID_QUERIES: usize = 960;
const GRID_GAP_NS: u64 = 3000;
const GRID_KEYS: usize = 8;
/// The node and unit that go dark, and the share of the arrival span
/// (in percent) the outage covers: from 40 % to 60 % of the stream.
const GRID_DARK_NODE: usize = 1;
const GRID_DARK_UNIT: u32 = 0;
const GRID_DARK_FROM_PCT: usize = 40;
const GRID_DARK_UNTIL_PCT: usize = 60;

/// `paper-select`: Fig. 3 at reduced size, values uniform in
/// `[0, PAPER_VALUE_RANGE)`, swept over these selectivities (percent).
/// Eleven points give 22 latency samples, enough for a median with ten
/// beyond it. The traced pass holds every host DRAM and controller event
/// in the ring, which bounds the column at 256K rows.
pub const PAPER_ROWS: usize = 1 << 18;
const PAPER_VALUE_RANGE: i64 = 1_000_000;
pub const PAPER_SELECTIVITIES: [u64; 11] = [0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100];

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    MixedOps,
    ScanFused,
    GridKeyed,
    PaperSelect,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::MixedOps,
        Kind::ScanFused,
        Kind::GridKeyed,
        Kind::PaperSelect,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::MixedOps => "mixed-ops",
            Kind::ScanFused => "scan-fused",
            Kind::GridKeyed => "grid-keyed",
            Kind::PaperSelect => "paper-select",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The machine configuration the workload (and its probes) run on.
    pub fn config(self) -> SystemConfig {
        match self {
            // fig_engine's machine: a small 4-rank DIMM, 3 NDP units.
            Kind::MixedOps | Kind::GridKeyed => {
                let mut cfg = SystemConfig::test_small();
                cfg.dram_geometry = DramGeometry {
                    ranks: 4,
                    banks_per_rank: 4,
                    rows_per_bank: 64,
                    row_bytes: 1024,
                };
                cfg
            }
            Kind::ScanFused => {
                let mut cfg = SystemConfig::gem5_like();
                cfg.dram_geometry = DramGeometry {
                    ranks: 4,
                    ..DramGeometry::gem5_2gb()
                };
                cfg
            }
            Kind::PaperSelect => SystemConfig::gem5_like(),
        }
    }

    /// Queries one run attempts.
    pub fn attempted(self) -> usize {
        match self {
            Kind::MixedOps => MIXED_QUERIES,
            Kind::ScanFused => SCAN_QUERIES,
            Kind::GridKeyed => GRID_QUERIES,
            Kind::PaperSelect => 2 * PAPER_SELECTIVITIES.len(),
        }
    }
}

/// Everything the program receives, generated from the seed alone.
pub struct Inputs {
    pub kind: Kind,
    pub values: Vec<i64>,
    /// Row-aligned key column (`grid-keyed` only).
    pub keys: Vec<i64>,
    /// The served stream (empty on `paper-select`).
    pub workload: Workload,
    /// `paper-select` predicates, one per selectivity.
    pub selects: Vec<(i64, i64)>,
    /// `grid-keyed`'s outage window.
    pub outage: Option<(Tick, Tick)>,
}

/// A column of `base` rows plus up to 1/64 more, in whole bursts, drawn
/// from the seed: simulated service times then differ from seed to seed,
/// so no simulated latency reads the same on every seed.
fn uniform(base: usize, max: i64, rng: &mut SplitMix64) -> Vec<i64> {
    let n = base + 8 * rng.next_below((base / 512) as u64) as usize;
    (0..n).map(|_| rng.next_range_inclusive(0, max)).collect()
}

fn empty_workload() -> Workload {
    Workload {
        specs: Vec::new(),
        arrivals: Arrivals::Open(Vec::new()),
        slo: None,
    }
}

/// A semi-join build side: three short key runs, compressed to their
/// ranges (three lanes, fewer only where runs touch).
fn semi_join_spec(rng: &mut SplitMix64) -> QuerySpec {
    let mut keys = Vec::new();
    for _ in 0..3 {
        let lo = rng.next_range_inclusive(0, VALUE_MAX - 40);
        let len = 5 + rng.next_below(30) as i64;
        keys.extend(lo..=lo + len);
    }
    QuerySpec::semi_join(KeyRanges::from_keys(&keys).expect("at most three runs"))
}

impl Inputs {
    pub fn generate(kind: Kind, seed: u64) -> Inputs {
        let root = SplitMix64::new(seed);
        let mut col_rng = root.split("column");
        let stream_seed = root.split("stream").next_u64();
        let mix = PredicateMix::UniformRange {
            min: 0,
            max: VALUE_MAX,
            width: 200,
        };
        match kind {
            Kind::MixedOps => Inputs {
                kind,
                values: uniform(MIXED_ROWS, VALUE_MAX, &mut col_rng),
                keys: Vec::new(),
                workload: Workload::poisson(
                    mix,
                    MIXED_QUERIES,
                    Tick::from_ns(MIXED_GAP_NS),
                    stream_seed,
                )
                .with_op_mix(&MIXED_OPS),
                selects: Vec::new(),
                outage: None,
            },
            Kind::ScanFused => {
                let mut rng = root.split("semi-join");
                let specs = mix
                    .generate(SCAN_QUERIES, stream_seed)
                    .into_iter()
                    .enumerate()
                    .map(|(i, s)| {
                        if i % 4 == 3 {
                            semi_join_spec(&mut rng)
                        } else {
                            s
                        }
                    })
                    .collect();
                Inputs {
                    kind,
                    values: uniform(SCAN_ROWS, VALUE_MAX, &mut col_rng),
                    keys: Vec::new(),
                    workload: Workload {
                        specs,
                        arrivals: Arrivals::Open(vec![Tick::ZERO; SCAN_QUERIES]),
                        slo: None,
                    },
                    selects: Vec::new(),
                    outage: None,
                }
            }
            Kind::GridKeyed => {
                let values = uniform(GRID_ROWS, VALUE_MAX, &mut col_rng);
                let mut rng = root.split("semi-join");
                let mut workload =
                    Workload::poisson(mix, GRID_QUERIES, Tick::from_ns(GRID_GAP_NS), stream_seed);
                for (i, spec) in workload.specs.iter_mut().enumerate() {
                    *spec = match i % 5 {
                        0 => semi_join_spec(&mut rng),
                        1 => QuerySpec::group_by(spec.lo, spec.hi, AggFn::Sum),
                        2 => *spec,
                        3 => QuerySpec {
                            op: QueryOp::Project { k: 2 },
                            ..*spec
                        },
                        _ => QuerySpec::group_by(spec.lo, spec.hi, AggFn::Max),
                    };
                }
                let at = match &workload.arrivals {
                    Arrivals::Open(at) => at.clone(),
                    Arrivals::Closed { .. } => unreachable!("poisson streams are open"),
                };
                let outage = (
                    at[GRID_QUERIES * GRID_DARK_FROM_PCT / 100],
                    at[GRID_QUERIES * GRID_DARK_UNTIL_PCT / 100],
                );
                Inputs {
                    kind,
                    keys: zipf_keys(values.len(), GRID_KEYS, 1.0, root.split("keys").next_u64()),
                    values,
                    workload,
                    selects: Vec::new(),
                    outage: Some(outage),
                }
            }
            Kind::PaperSelect => {
                let mut rng = root.split("predicates");
                let selects = PAPER_SELECTIVITIES
                    .iter()
                    .map(|&pct| {
                        // A window of the target width at a seeded offset.
                        let width = PAPER_VALUE_RANGE * pct as i64 / 100;
                        let lo = rng.next_range_inclusive(0, PAPER_VALUE_RANGE - width);
                        (lo, lo + width - 1)
                    })
                    .collect();
                Inputs {
                    kind,
                    values: uniform(PAPER_ROWS, PAPER_VALUE_RANGE - 1, &mut col_rng),
                    keys: Vec::new(),
                    workload: empty_workload(),
                    selects,
                    outage: None,
                }
            }
        }
    }
}

/// The façade a run drives. One lives at a time, so the size gap between
/// the variants costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Machine {
    Sys {
        sys: System,
        /// Where `write_column` placed the column (`paper-select`).
        col: Option<PhysAddr>,
    },
    Grid {
        grid: ServeGrid,
        fabric: NetFabric,
        /// The ring behind the grid's tracer, when traced.
        ring: Option<Rc<RefCell<RingTracer>>>,
    },
}

impl Machine {
    /// Builds the machine `inputs` run on; `trace` attaches a ring of that
    /// many events.
    pub fn build(inputs: &Inputs, seed: u64, trace: Option<usize>) -> Machine {
        let cfg = inputs.kind.config();
        match inputs.kind {
            Kind::GridKeyed => {
                let (tracer, ring) = match trace {
                    Some(cap) => {
                        let (t, r) = SharedTracer::ring(cap);
                        (t, Some(r))
                    }
                    None => (SharedTracer::disabled(), None),
                };
                let mut grid = ServeGrid::new(cfg, GRID_NODES, tracer);
                let (from, until) = inputs.outage.expect("grid-keyed has an outage");
                grid.inject_faults_on_node(
                    GRID_DARK_NODE,
                    FaultPlan::none(seed).with_outage(GRID_DARK_UNIT, from, until),
                );
                let fabric = grid.fabric(seed);
                Machine::Grid { grid, fabric, ring }
            }
            kind => {
                let mut sys = System::new(cfg);
                if let Some(cap) = trace {
                    sys.enable_tracing(cap);
                }
                let col = (kind == Kind::PaperSelect).then(|| sys.write_column(&inputs.values));
                Machine::Sys { sys, col }
            }
        }
    }

    pub fn system(&self) -> Option<&System> {
        match self {
            Machine::Sys { sys, .. } => Some(sys),
            Machine::Grid { .. } => None,
        }
    }
}

/// One `paper-select` call pair: the CPU scan, then JAFAR, closed loop.
pub struct PaperCall {
    pub lo: i64,
    pub hi: i64,
    pub start: Tick,
    pub cpu: CpuSelectStats,
    pub jafar: JafarSelectStats,
}

/// What the timed call returned.
pub enum Output {
    Serve(ServeRun),
    Grid(GridServeRun),
    Paper(Vec<PaperCall>),
}

/// The serve configuration of each serve workload.
pub fn serve_config(kind: Kind) -> ServeConfig {
    match kind {
        Kind::ScanFused => ServeConfig {
            max_queue: SCAN_QUERIES,
            fuse_window: SCAN_FUSE,
            ..ServeConfig::default()
        },
        _ => ServeConfig::default(),
    }
}

pub fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        route: RoutePolicy::LeastOutstanding,
        ..ClusterConfig::default()
    }
}

/// The timed call: the only code `host_qps` measures.
pub fn run(inputs: &Inputs, machine: &mut Machine) -> Output {
    let kind = inputs.kind;
    match machine {
        Machine::Grid { grid, fabric, .. } => Output::Grid(grid.serve_with_keys(
            &inputs.values,
            &inputs.keys,
            &Placement::hot(GRID_NODES),
            fabric,
            &inputs.workload,
            SchedPolicy::Fifo,
            &serve_config(kind),
            &cluster_config(),
        )),
        Machine::Sys { sys, col: None } => Output::Serve(sys.serve(
            &inputs.values,
            &inputs.workload,
            SchedPolicy::Fifo,
            &serve_config(kind),
        )),
        Machine::Sys {
            sys,
            col: Some(col),
        } => {
            let rows = inputs.values.len() as u64;
            let mut t = Tick::ZERO;
            let mut calls = Vec::with_capacity(inputs.selects.len());
            for &(lo, hi) in &inputs.selects {
                let start = t;
                let cpu = sys
                    .run_select_cpu(*col, rows, lo, hi, ScanVariant::Branching, start)
                    .expect("column placed in range");
                let jafar = sys.run_select_jafar(*col, rows, lo, hi, cpu.end);
                t = jafar.end;
                calls.push(PaperCall {
                    lo,
                    hi,
                    start,
                    cpu,
                    jafar,
                });
            }
            Output::Paper(calls)
        }
    }
}

/// What a run delivered, checked against the references.
pub struct Summary {
    pub attempted: u64,
    pub completed: u64,
    pub shed: u64,
    pub wrong: u64,
    /// Completions per simulated second.
    pub sim_qps: f64,
    /// Simulated latency of each completed query, sorted.
    pub latencies: Vec<Tick>,
    /// Hash over every record's timing and result fields plus the
    /// simulated counters.
    pub digest: u64,
    /// A description of the first wrong result, if any.
    pub first_wrong: Option<String>,
}

fn bits(values: &[i64], pred: impl Fn(i64) -> bool) -> Vec<u8> {
    let mut out = vec![0u8; values.len().div_ceil(8)];
    for (i, &v) in values.iter().enumerate() {
        if pred(v) {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

/// The reference result of one served record, from the inputs alone.
fn record_ok(rec: &QueryRecord, values: &[i64], keys: &[i64]) -> bool {
    let (lo, hi) = (rec.lo, rec.hi);
    let hit = |v: i64| lo <= v && v <= hi;
    let matching = || values.iter().copied().filter(|&v| hit(v));
    match rec.op {
        QueryOp::Select => rec.bitset == bits(values, hit),
        QueryOp::SemiJoin { ranges } => rec.bitset == bits(values, |v| ranges.contains(v)),
        QueryOp::SelectCount => rec.agg == Some(matching().count() as i64),
        QueryOp::SelectAgg(AggFn::Sum) => rec.agg == matching().reduce(i64::wrapping_add),
        QueryOp::SelectAgg(AggFn::Min) => rec.agg == matching().min(),
        QueryOp::SelectAgg(AggFn::Max) => rec.agg == matching().max(),
        QueryOp::Project { .. } => {
            rec.bitset == bits(values, hit) && rec.projected == matching().collect::<Vec<_>>()
        }
        QueryOp::GroupBy { agg } => {
            let mut groups: BTreeMap<i64, (u64, Option<i64>)> = BTreeMap::new();
            for (&k, &v) in keys.iter().zip(values) {
                if hit(v) {
                    let g = groups.entry(k).or_insert((0, None));
                    g.0 += 1;
                    g.1 = Some(match (agg, g.1) {
                        (_, None) => v,
                        (AggFn::Sum, Some(a)) => a.wrapping_add(v),
                        (AggFn::Min, Some(a)) => a.min(v),
                        (AggFn::Max, Some(a)) => a.max(v),
                    });
                }
            }
            let want: Vec<(i64, u64, Option<i64>)> =
                groups.into_iter().map(|(k, (c, a))| (k, c, a)).collect();
            rec.groups == want
        }
    }
}

fn hash_record(d: &mut Digest, rec: &QueryRecord) {
    d.u64(u64::from(rec.id));
    d.str(rec.op.name());
    d.i64(rec.lo);
    d.i64(rec.hi);
    d.tick(rec.submitted);
    d.opt_tick(rec.started);
    d.opt_tick(rec.done);
    d.str(&format!("{:?}", rec.mode));
    d.u64(rec.matched);
    d.bytes(&rec.bitset);
    d.opt_i64(rec.agg);
    for &v in &rec.projected {
        d.i64(v);
    }
    for &(k, c, a) in &rec.groups {
        d.i64(k);
        d.u64(c);
        d.opt_i64(a);
    }
}

/// Hashes the simulated counters of a `System`; the trace ring's own
/// counters are left out so traced and untraced runs hash the same.
fn hash_metrics(d: &mut Digest, sys: &System) {
    let reg = sys.metrics();
    for (name, m) in reg.iter() {
        if let jafar_common::obs::Metric::Counter(v) = m {
            if !name.starts_with("trace.") {
                d.str(name);
                d.u64(*v);
            }
        }
    }
}

pub fn summarize(inputs: &Inputs, machine: &Machine, out: &Output) -> Summary {
    let values = &inputs.values;
    let mut d = Digest::new();
    let mut wrong = 0u64;
    let mut first_wrong = None;
    let mut note = |ok: bool, what: String| {
        if !ok {
            wrong += 1;
            first_wrong.get_or_insert(what);
        }
    };
    let (attempted, completed, shed, sim_qps, mut latencies) = match out {
        Output::Serve(run) => {
            let report = &run.report;
            for rec in &report.records {
                hash_record(&mut d, rec);
                if rec.done.is_some() {
                    note(
                        record_ok(rec, values, &inputs.keys),
                        format!("query {} ({})", rec.id, rec.op.name()),
                    );
                }
            }
            d.u64(report.events);
            d.tick(report.makespan);
            d.str(&format!("{:?}", report.availability));
            d.str(&format!("{:?}", run.recovery));
            let lat: Vec<Tick> = report.records.iter().filter_map(|r| r.latency()).collect();
            (
                report.records.len(),
                report.completed(),
                report.shed(),
                report.service_rate_qps(),
                lat,
            )
        }
        Output::Grid(run) => {
            let report = &run.report;
            for q in &report.queries {
                d.u64(q.node.map_or(u64::MAX, u64::from));
                d.str(q.tier.name());
                d.tick(q.submitted);
                d.opt_tick(q.responded);
                d.tick(q.req_hop);
                d.tick(q.resp_hop);
                hash_record(&mut d, &q.record);
                if q.tier != Tier::Shed {
                    note(
                        record_ok(&q.record, values, &inputs.keys),
                        format!("query {} ({})", q.record.id, q.record.op.name()),
                    );
                }
            }
            d.tick(report.makespan);
            d.str(&format!("{:?}", report.nodes));
            d.str(&format!("{:?}", report.store_link));
            d.u64(report.net_bytes);
            d.u64(report.net_messages);
            d.str(&format!("{:?}", run.recovery));
            let lat: Vec<Tick> = report.queries.iter().filter_map(|q| q.latency()).collect();
            (
                report.queries.len(),
                report.completed(),
                report.shed(),
                report.service_rate_qps(),
                lat,
            )
        }
        Output::Paper(calls) => {
            let mut lat = Vec::new();
            let mut end = Tick::ZERO;
            let sys = machine.system().expect("paper-select runs on a System");
            for c in calls {
                // Every JAFAR select wrote its bitset to a buffer of its own.
                let mut jafar_bits = vec![0u8; values.len().div_ceil(8)];
                sys.mc()
                    .module()
                    .data()
                    .read(c.jafar.out_addr, &mut jafar_bits);
                let want = values.iter().filter(|&&v| c.lo <= v && v <= c.hi).count() as u64;
                note(
                    c.cpu.matches == want
                        && c.jafar.matched == want
                        && jafar_bits == bits(values, |v| c.lo <= v && v <= c.hi),
                    format!("select [{}, {}]", c.lo, c.hi),
                );
                for t in [c.start, c.cpu.end, c.cpu.stall, c.jafar.end, c.jafar.device] {
                    d.tick(t);
                }
                for v in [c.cpu.matches, c.cpu.mispredicts, c.cpu.lines_from_dram] {
                    d.u64(v);
                }
                d.u64(c.jafar.matched);
                d.u64(c.jafar.pages);
                d.bytes(&jafar_bits);
                lat.push(c.cpu.end - c.start);
                lat.push(c.jafar.end - c.cpu.end);
                end = c.jafar.end;
            }
            let n = 2 * calls.len();
            let secs = end.as_ps() as f64 * 1e-12;
            (n, n, 0, n as f64 / secs, lat)
        }
    };
    if let Some(sys) = machine.system() {
        hash_metrics(&mut d, sys);
    }
    latencies.sort_unstable();
    Summary {
        attempted: attempted as u64,
        completed: completed as u64,
        shed: shed as u64,
        wrong,
        sim_qps,
        latencies,
        digest: d.finish(),
        first_wrong,
    }
}
