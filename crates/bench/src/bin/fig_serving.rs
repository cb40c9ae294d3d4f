//! Served-load sweep — the saturation knee of the multi-tenant serving
//! subsystem (beyond the paper).
//!
//! A TPC-H-Q6-style predicate mix over the `lineitem.l_shipdate` column
//! is served as an open-loop Poisson stream of **mixed §4 operators**
//! (select, count, sum/min/max, k-column projection) through
//! `System::serve`, sweeping offered load from far below to far above
//! the machine's service capacity. Three properties are asserted as the
//! sweep runs:
//!
//! - **zero result divergence**: every completed select's selection
//!   vector is bit-identical to running the same predicate alone through
//!   `run_select_jafar` (and hence to the CPU reference, which the solo
//!   path is already tested against); every scalar aggregate equals the
//!   functional fold over the qualifying values, and every projection's
//!   packed output equals the filtered column;
//! - **throughput saturates**: past the knee, doubling offered load no
//!   longer buys proportional throughput;
//! - **tail latency rises past the knee**: p99 at the heaviest load is a
//!   multiple of p99 at the lightest, driven by queue wait rather than
//!   service time.
//!
//! A **channel sweep** then re-runs the heaviest load on a
//! [`jafar_sim::ServeCluster`] with C ∈ {1, 2, 4} memory channels: the
//! saturation knee (the heavy-load service-rate plateau) must move by
//! roughly the pool multiple — the 2-channel plateau is asserted at
//! ≥ 1.7× the single-channel plateau — while every completed query
//! stays bit-identical to its solo baseline.
//!
//! A **fusion sweep** replays the same saturated load as a pure-select
//! stream — maximal same-column contention — with the shared-scan fuse
//! window closed (1) and open (4): the fused knee is asserted at ≥ 1.3×
//! the unfused plateau, with results still bit-identical to solo runs.
//!
//! A final run repeats a moderate load under a rank-scoped stall fault
//! with an SLO attached: the sick rank's circuit breaker opens, the
//! rank-affinity policy steers work away from it, SLO-threatened queries
//! degrade to the host CPU rung — and every completed query, on whatever
//! rung, is still bit-identical to its solo run (scalar-identical for
//! aggregates, byte-identical for projections).
//!
//! Usage: `fig_serving [--sf F] [--queries N] [--csv] [--smoke]`
//!
//! `--smoke` shrinks the defaults (sf 0.003, 16 queries, two load
//! points) so CI can execute the sweep — assertions included — in
//! seconds.

use jafar_bench::{arg, carry_baseline, f1, f2, flag, jnum, print_table, write_bench_json};
use jafar_common::time::Tick;
use jafar_core::ResilienceConfig;
use jafar_dram::{DramGeometry, FaultPlan};
use jafar_serve::engine::ServeConfig;
use jafar_serve::workload::q6_shipdate_column;
use jafar_serve::{AggFn, ExecMode, PredicateMix, QueryOp, QueryRecord, SchedPolicy, Workload};
use jafar_sim::{ServeCluster, System, SystemConfig};
use jafar_tpch::gen::{TpchConfig, TpchDb};
use std::collections::BTreeMap;

const SEED: u64 = 0x6EA7;

/// The §4 operator set the served stream cycles through.
const OP_MIX: [QueryOp; 6] = [
    QueryOp::Select,
    QueryOp::SelectCount,
    QueryOp::SelectAgg(AggFn::Sum),
    QueryOp::Project { k: 2 },
    QueryOp::SelectAgg(AggFn::Min),
    QueryOp::SelectAgg(AggFn::Max),
];

/// Solo baseline per distinct predicate: selection bytes, match count,
/// solo completion time, and the qualifying values in column order.
type SoloBaselines = BTreeMap<(i64, i64), (Vec<u8>, u64, Tick, Vec<i64>)>;

/// Every completed query, on whatever rung, must reproduce its solo
/// baseline: selection bytes for selects, the functional fold for
/// scalar aggregates, the filtered column for projections.
fn check_record(tag: &str, rec: &QueryRecord, solo: &SoloBaselines) {
    let (bytes, matched, _, qualifying) = &solo[&(rec.lo, rec.hi)];
    assert_eq!(rec.matched, *matched, "{tag}: query {} count", rec.id);
    match rec.op {
        QueryOp::Select | QueryOp::Project { .. } => {
            assert_eq!(
                &rec.bitset, bytes,
                "{tag}: query {} diverged from its solo run",
                rec.id
            );
            if matches!(rec.op, QueryOp::Project { .. }) {
                assert_eq!(
                    &rec.projected, qualifying,
                    "{tag}: query {} packed projection",
                    rec.id
                );
            }
        }
        QueryOp::SelectCount => assert_eq!(
            rec.agg,
            Some(*matched as i64),
            "{tag}: query {} count scalar",
            rec.id
        ),
        QueryOp::SelectAgg(f) => {
            let expect = match f {
                AggFn::Sum => qualifying.iter().copied().reduce(|a, b| a.wrapping_add(b)),
                AggFn::Min => qualifying.iter().copied().min(),
                AggFn::Max => qualifying.iter().copied().max(),
            };
            assert_eq!(rec.agg, expect, "{tag}: query {} aggregate scalar", rec.id);
        }
        QueryOp::SemiJoin { .. } | QueryOp::GroupBy { .. } => {
            unreachable!("{tag}: the fig_serving mix serves no joins or group-bys")
        }
    }
}

/// Same gem5-like 8-rank host as `fig_scaling`: 7 NDP ranks with a
/// device each, the last rank as CPU scratch.
fn config() -> SystemConfig {
    let mut cfg = SystemConfig::gem5_like();
    cfg.dram_geometry = DramGeometry {
        ranks: 8,
        banks_per_rank: 8,
        rows_per_bank: 1024,
        row_bytes: 8 * 1024,
    };
    cfg.query_overhead = Tick::from_us(5);
    cfg
}

fn main() {
    let smoke = flag("--smoke");
    let sf: f64 = arg("--sf", if smoke { 0.003 } else { 0.01 });
    let n: usize = arg("--queries", if smoke { 16 } else { 48 });
    let csv = flag("--csv");

    let db = TpchDb::generate(TpchConfig { sf, seed: 7 });
    let values = q6_shipdate_column(&db).to_vec();
    let rows = values.len() as u64;
    let mix = PredicateMix::tpch_q6();

    println!(
        "# Served-load sweep: {n} mixed-operator Q6-style queries over {rows} lineitem shipdates (sf {sf})"
    );
    let cfg = config();
    println!(
        "# platform: {} / {} — {} NDP ranks, fanout {}",
        cfg.name,
        cfg.dram_geometry.describe(),
        cfg.dram_geometry.ranks - 1,
        ServeConfig::default().fanout,
    );
    println!();

    // Solo baselines: every distinct predicate run alone on a fresh
    // system. The served runs must reproduce these bytes exactly. The
    // channel sweep below serves a deeper stream (`cn` queries), so
    // baselines cover that count too.
    let cn = n.max(128);
    let specs = mix.generate(cn, SEED);
    let mut solo: SoloBaselines = BTreeMap::new();
    for s in &specs {
        solo.entry((s.lo, s.hi)).or_insert_with(|| {
            let mut sys = System::new(config());
            let col = sys.write_column(&values);
            let run = sys.run_select_jafar(col, rows, s.lo, s.hi, Tick::ZERO);
            let mut bytes = vec![0u8; rows.div_ceil(8) as usize];
            sys.mc().module().data().read(run.out_addr, &mut bytes);
            let qualifying: Vec<i64> = values
                .iter()
                .copied()
                .filter(|v| (s.lo..=s.hi).contains(v))
                .collect();
            (bytes, run.matched, run.end, qualifying)
        });
    }
    // Offered load is normalised to the solo service time: load x means
    // a mean inter-arrival gap of (solo end) / x.
    let svc = solo
        .values()
        .map(|(_, _, end, _)| *end)
        .max()
        .expect("at least one query");
    println!(
        "# solo service time (worst distinct predicate): {} ms across {} distinct predicates",
        f2(svc.as_ms_f64()),
        solo.len()
    );
    println!();

    let loads: &[f64] = if smoke {
        &[0.5, 16.0]
    } else {
        &[0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    };

    if csv {
        println!("load,gap_us,completed,shed,throughput_qps,p50_ms,p95_ms,p99_ms,mean_wait_ms,mean_service_ms");
    }
    let mut table: Vec<Vec<String>> = Vec::new();
    struct Point {
        load: f64,
        offered: f64,
        tput: f64,
        service_rate: f64,
        completed: usize,
        shed: usize,
        p50: f64,
        p95: f64,
        p99: f64,
        wait: f64,
        svc: f64,
    }
    let mut sweep: Vec<Point> = Vec::new();
    for &load in loads {
        let gap = Tick::from_ps(((svc.as_ps() as f64) / load).round().max(1.0) as u64);
        let workload = Workload::poisson(mix, n, gap, SEED).with_op_mix(&OP_MIX);
        let mut sys = System::new(config());
        let run = sys.serve(
            &values,
            &workload,
            SchedPolicy::Fifo,
            &ServeConfig::default(),
        );
        let report = &run.report;

        assert_eq!(
            report.completed() + report.shed(),
            n,
            "load {load}: every query completes or is shed"
        );
        for rec in &report.records {
            if rec.done.is_none() {
                continue;
            }
            check_record(&format!("load {load}"), rec, &solo);
        }

        let ms = |t: Option<Tick>| t.map_or(f64::NAN, |t| t.as_ms_f64());
        let p99 = ms(report.p99());
        let tput = report.throughput_qps();
        // Realized offered rate over the same arrival window the
        // throughput uses — the pair the `throughput <= offered`
        // invariant is stated (and schema-checked) against. The seeded
        // Poisson stream drifts from the configured `1 / gap`.
        let offered = report.offered_qps();
        assert!(
            tput <= offered * 1.0001,
            "load {load}: goodput cannot exceed offered load ({tput} vs {offered})"
        );
        sweep.push(Point {
            load,
            offered,
            tput,
            service_rate: report.service_rate_qps(),
            completed: report.completed(),
            shed: report.shed(),
            p50: ms(report.p50()),
            p95: ms(report.p95()),
            p99,
            wait: ms(report.mean_queue_wait()),
            svc: ms(report.mean_service()),
        });
        if csv {
            println!(
                "{load},{:.2},{},{},{:.1},{:.4},{:.4},{:.4},{:.4},{:.4}",
                gap.as_ms_f64() * 1e3,
                report.completed(),
                report.shed(),
                tput,
                ms(report.p50()),
                ms(report.p95()),
                p99,
                ms(report.mean_queue_wait()),
                ms(report.mean_service()),
            );
        }
        table.push(vec![
            f2(load),
            f2(gap.as_ms_f64() * 1e3),
            format!("{}", report.completed()),
            format!("{}", report.shed()),
            f1(tput),
            f2(ms(report.p50())),
            f2(p99),
            f2(ms(report.mean_queue_wait())),
            f2(ms(report.mean_service())),
        ]);
    }

    if !csv {
        print_table(
            &[
                "load",
                "gap (µs)",
                "done",
                "shed",
                "q/s",
                "p50 (ms)",
                "p99 (ms)",
                "wait (ms)",
                "svc (ms)",
            ],
            &table,
        );
        println!();
    }

    // The knee: tail latency must blow up with offered load, and the
    // sustained service rate (completed per second of makespan, drain
    // included) must fall behind the offered rate — or admission must
    // shed — once the machine saturates. Goodput (`throughput_qps`)
    // cannot carry this signal any more: it shares the offered-load
    // denominator, so a zero-shed run keeps up with its offered load by
    // construction. Comparing the service rate vs *offered* (rather than
    // vs the previous point) keeps the check meaningful even with the
    // two-point smoke sweep, where light-load throughput is
    // arrival-limited, not capacity-limited.
    let (p99_light, wait_light, svc_light) = (sweep[0].p99, sweep[0].wait, sweep[0].svc);
    let heavy = &sweep[sweep.len() - 1];
    let (p99_heavy, rate_heavy, offered_heavy, shed_heavy) =
        (heavy.p99, heavy.service_rate, heavy.offered, heavy.shed);
    let tput_heavy = heavy.tput;
    assert!(
        p99_heavy > 2.0 * p99_light,
        "p99 must rise past the knee: {p99_heavy} ms heavy vs {p99_light} ms light"
    );
    assert!(
        wait_light < 0.5 * svc_light,
        "light load must be service-dominated, not queueing: mean wait {wait_light} ms vs mean service {svc_light} ms"
    );
    assert!(
        rate_heavy < 0.7 * offered_heavy || shed_heavy > 0,
        "heaviest load must saturate: {rate_heavy} q/s sustained vs {offered_heavy} offered, {shed_heavy} shed"
    );
    println!(
        "# knee confirmed: p99 {}x the light-load tail; heaviest point sheds {shed_heavy} and",
        f1(p99_heavy / p99_light)
    );
    println!(
        "#   sustains only {}% of its offered rate.",
        f1(100.0 * rate_heavy / offered_heavy),
    );
    println!();

    // Channel sweep: the same overloaded stream on a ServeCluster with
    // C ∈ {1, 2, 4} memory channels. Every channel carries the same
    // channel-local column layout, so results stay bit-identical to the
    // solo baselines, while the saturation knee — the heavy-load service
    // -rate plateau — moves by roughly the pool multiple. The gap is set
    // well past even the 4-channel capacity so every width measures its
    // plateau, not the arrival rate, and the stream is deep enough that
    // steady-state service dominates the drain tail of the last wave.
    // The admission queue is widened to hold the whole backlog: shedding
    // would truncate the drain and turn the makespan into an
    // arrival-window measurement instead of a capacity one.
    let cgap = Tick::from_ps((svc.as_ps() / 64).max(1));
    let cworkload = Workload::poisson(mix, cn, cgap, SEED).with_op_mix(&OP_MIX);
    let ccfg = ServeConfig {
        max_queue: cn,
        ..ServeConfig::default()
    };
    struct ChannelPoint {
        channels: usize,
        units: usize,
        offered: f64,
        tput: f64,
        service_rate: f64,
        completed: usize,
        shed: usize,
        p99: f64,
    }
    let mut channel_sweep: Vec<ChannelPoint> = Vec::new();
    for channels in [1usize, 2, 4] {
        let mut cluster = ServeCluster::new(
            config(),
            channels,
            jafar_common::obs::SharedTracer::disabled(),
        )
        .expect("power-of-two channel count");
        let units = cluster.pool().units();
        let run = cluster.serve(&values, &cworkload, SchedPolicy::RankAffinity, &ccfg);
        let report = &run.report;
        assert_eq!(report.completed() + report.shed(), cn);
        for rec in &report.records {
            if rec.done.is_some() {
                check_record(&format!("{channels}-channel sweep"), rec, &solo);
            }
        }
        assert_eq!(report.availability.units.len(), units);
        channel_sweep.push(ChannelPoint {
            channels,
            units,
            offered: report.offered_qps(),
            tput: report.throughput_qps(),
            service_rate: report.service_rate_qps(),
            completed: report.completed(),
            shed: report.shed(),
            p99: report.p99().map_or(f64::NAN, |t| t.as_ms_f64()),
        });
    }
    let knee_1ch = channel_sweep[0].service_rate;
    let knee_2ch = channel_sweep[1].service_rate;
    let knee_4ch = channel_sweep[2].service_rate;
    assert!(
        knee_2ch >= 1.7 * knee_1ch,
        "2-channel knee must move ~the pool multiple: {knee_2ch} q/s vs {knee_1ch} q/s single-channel"
    );
    assert!(
        knee_4ch >= 1.2 * knee_2ch,
        "4-channel knee must keep moving: {knee_4ch} q/s vs {knee_2ch} q/s 2-channel"
    );
    println!("# channel sweep (saturated, rank-affinity): knee moves with the pool");
    for p in &channel_sweep {
        println!(
            "#   C={} ({:2} units): {} q/s sustained, {} done / {} shed, p99 {} ms",
            p.channels,
            p.units,
            f1(p.service_rate),
            p.completed,
            p.shed,
            f2(p.p99),
        );
    }
    println!(
        "#   2-channel plateau {}x single-channel, 4-channel {}x — results bit-identical throughout.",
        f2(knee_2ch / knee_1ch),
        f2(knee_4ch / knee_1ch),
    );
    println!();

    // Fusion sweep: the same saturated load as a *pure select* stream —
    // maximal same-column contention, every queued query a candidate
    // lane for the shared scan. With the fuse window open the engine
    // folds waiting selects into the running pass as extra predicate
    // lanes, so the saturation knee (heavy-load service-rate plateau)
    // must move right: ≥ 1.3× the unfused plateau, while every
    // completed query stays bit-identical to its solo baseline.
    let fworkload = Workload::poisson(mix, cn, cgap, SEED);
    struct FusionPoint {
        fuse_window: usize,
        offered: f64,
        tput: f64,
        service_rate: f64,
        completed: usize,
        shed: usize,
        p99: f64,
    }
    let mut fusion_sweep: Vec<FusionPoint> = Vec::new();
    for fuse_window in [1usize, 4] {
        let fcfg = ServeConfig {
            max_queue: cn,
            fuse_window,
            ..ServeConfig::default()
        };
        let mut sys = System::new(config());
        let run = sys.serve(&values, &fworkload, SchedPolicy::RankAffinity, &fcfg);
        let report = &run.report;
        assert_eq!(report.completed() + report.shed(), cn);
        for rec in &report.records {
            if rec.done.is_some() {
                check_record(&format!("fusion sweep (window {fuse_window})"), rec, &solo);
            }
        }
        fusion_sweep.push(FusionPoint {
            fuse_window,
            offered: report.offered_qps(),
            tput: report.throughput_qps(),
            service_rate: report.service_rate_qps(),
            completed: report.completed(),
            shed: report.shed(),
            p99: report.p99().map_or(f64::NAN, |t| t.as_ms_f64()),
        });
    }
    let knee_unfused = fusion_sweep[0].service_rate;
    let knee_fused = fusion_sweep[1].service_rate;
    assert!(
        knee_fused >= 1.3 * knee_unfused,
        "shared-scan fusion must move the knee right: {knee_fused} q/s fused vs {knee_unfused} q/s unfused"
    );
    println!("# fusion sweep (saturated pure-select stream, same column):");
    for p in &fusion_sweep {
        println!(
            "#   fuse_window={}: {} q/s sustained, {} done / {} shed, p99 {} ms",
            p.fuse_window,
            f1(p.service_rate),
            p.completed,
            p.shed,
            f2(p.p99),
        );
    }
    println!(
        "#   fused knee {}x the unfused plateau — results bit-identical throughout.",
        f2(knee_fused / knee_unfused),
    );
    println!();

    // Rank-scoped fault + SLO: the full ladder under contention. Rank 0
    // stalls every burst; its breaker opens on the first query that
    // touches it and rank affinity steers later queries away. Load is set
    // well past the capacity of the surviving ranks so the queue actually
    // builds, and the SLO sits one solo-service-time above the host-scan
    // estimate — a queued query degrades to the CPU rung once it has
    // waited about one solo service time.
    let scfg = ServeConfig {
        resilience: ResilienceConfig {
            max_retries: 1,
            breaker_threshold: 1,
            ..ResilienceConfig::default()
        },
        ..ServeConfig::default()
    };
    // Per-operator host-scan estimate, anchored on the select shape
    // (bitset output: one bit per row). Projections estimate higher and
    // so degrade sooner; scalar aggregates estimate lower — the CPU
    // rung must return identical results on all of them.
    let est_cpu =
        scfg.cpu_fixed + scfg.cpu_per_row * rows + scfg.cpu_per_out_byte * rows.div_ceil(8);
    let slo = est_cpu + Tick::from_ps((svc.as_ps() / 2).max(1));
    let gap = Tick::from_ps((svc.as_ps() / 16).max(1));
    let workload = Workload::poisson(mix, n, gap, SEED)
        .with_slo(slo)
        .with_op_mix(&OP_MIX);
    let mut sys = System::new(config());
    sys.inject_faults(FaultPlan {
        stall_burst_range: Some((0, u64::MAX)),
        rank_scope: Some(0),
        ..FaultPlan::none(11)
    });
    let run = sys.serve(&values, &workload, SchedPolicy::RankAffinity, &scfg);
    let report = &run.report;
    assert_eq!(
        report.completed() + report.shed(),
        n,
        "fault run: every query completes or is shed"
    );
    let mut cpu_rung = 0usize;
    for rec in &report.records {
        if rec.done.is_none() {
            continue;
        }
        if rec.mode == ExecMode::Cpu {
            cpu_rung += 1;
        }
        check_record("fault run", rec, &solo);
    }
    assert!(
        run.recovery[0].recovery_total() >= 1,
        "rank 0 exercised its recovery ladder"
    );
    assert!(
        cpu_rung >= 1,
        "at least one SLO-threatened query degraded to the host CPU rung"
    );
    for (r, stats) in run.recovery.iter().enumerate().skip(1) {
        assert_eq!(
            stats.recovery_total(),
            0,
            "healthy rank {r} untouched by the rank-0 fault"
        );
    }
    println!(
        "# fault run (rank 0 stalled, SLO {} ms): {} completed ({} on the CPU rung), {} shed,",
        f2(slo.as_ms_f64()),
        report.completed(),
        cpu_rung,
        report.shed(),
    );
    println!(
        "#   p99 {} ms, {} deadline misses — all completed results bit-identical to solo runs.",
        f2(report.p99().map_or(f64::NAN, |t| t.as_ms_f64())),
        report.deadline_misses(),
    );
    println!("# per-operator breakdown (fault run):");
    for b in report.op_breakdown() {
        println!(
            "#   {:7} {:2} done ({} shed, {} on cpu), p99 {} ms, {} q/s",
            b.op,
            b.completed,
            b.shed,
            b.cpu,
            f2(b.p99.map_or(f64::NAN, |t| t.as_ms_f64())),
            f1(b.throughput_qps),
        );
    }

    // Persist the perf trajectory (ROADMAP open item 3): the load sweep,
    // the knee, and the fault run's availability accounting, as one
    // hand-rolled JSON artifact per run.
    let points: Vec<String> = sweep
        .iter()
        .map(|p| {
            format!(
                "    {{\"load\": {}, \"offered_qps\": {}, \"throughput_qps\": {}, \
                 \"service_rate_qps\": {}, \"completed\": {}, \"shed\": {}, \"p50_ms\": {}, \
                 \"p95_ms\": {}, \"p99_ms\": {}, \"mean_wait_ms\": {}, \"mean_service_ms\": {}}}",
                jnum(p.load),
                jnum(p.offered),
                jnum(p.tput),
                jnum(p.service_rate),
                p.completed,
                p.shed,
                jnum(p.p50),
                jnum(p.p95),
                jnum(p.p99),
                jnum(p.wait),
                jnum(p.svc),
            )
        })
        .collect();
    let channel_points: Vec<String> = channel_sweep
        .iter()
        .map(|p| {
            format!(
                "    {{\"channels\": {}, \"units\": {}, \"offered_qps\": {}, \
                 \"throughput_qps\": {}, \"service_rate_qps\": {}, \"completed\": {}, \
                 \"shed\": {}, \"p99_ms\": {}}}",
                p.channels,
                p.units,
                jnum(p.offered),
                jnum(p.tput),
                jnum(p.service_rate),
                p.completed,
                p.shed,
                jnum(p.p99),
            )
        })
        .collect();
    let fusion_points: Vec<String> = fusion_sweep
        .iter()
        .map(|p| {
            format!(
                "    {{\"fuse_window\": {}, \"offered_qps\": {}, \"throughput_qps\": {}, \
                 \"service_rate_qps\": {}, \"completed\": {}, \"shed\": {}, \"p99_ms\": {}}}",
                p.fuse_window,
                jnum(p.offered),
                jnum(p.tput),
                jnum(p.service_rate),
                p.completed,
                p.shed,
                jnum(p.p99),
            )
        })
        .collect();
    let a = &report.availability;
    let units_json: Vec<String> = a
        .units
        .iter()
        .map(|r| {
            format!(
                "      {{\"unit\": {}, \"channel\": {}, \"rank\": {}, \"downtime_us\": {}, \
                 \"quarantines\": {}, \"canary_ok\": {}, \"canary_fail\": {}}}",
                r.unit,
                r.channel,
                r.rank,
                jnum(r.downtime.as_us_f64()),
                r.quarantines,
                r.canary_ok,
                r.canary_fail,
            )
        })
        .collect();
    let body = format!(
        "{{\n  \"bench\": \"fig_serving\",\n  \"smoke\": {smoke},\n  \"queries\": {n},\n  \
         \"rows\": {rows},\n  \"load_sweep\": [\n{}\n  ],\n  \"knee\": {{\"p99_light_ms\": {}, \
         \"p99_heavy_ms\": {}, \"p99_ratio\": {}, \"heavy_offered_qps\": {}, \
         \"heavy_throughput_qps\": {}, \"heavy_service_rate_qps\": {}, \
         \"heavy_shed\": {shed_heavy}}},\n  \"channel_sweep\": [\n{}\n  ],\n  \
         \"knee_2ch_multiple\": {},\n  \"knee_4ch_multiple\": {},\n  \
         \"fusion_sweep\": [\n{}\n  ],\n  \"fused_knee_multiple\": {},\n  \"fault_run\": {{\n    \
         \"completed\": {}, \"shed\": {}, \"cpu_rung\": {cpu_rung}, \"p99_ms\": {}, \
         \"deadline_misses\": {},\n    \"availability\": {{\n      \"migrations\": {}, \
         \"requeues\": {}, \"sheds_tightened\": {}, \"total_downtime_us\": {},\n      \
         \"units\": [\n{}\n      ]\n    }}\n  }},\n  \"baseline\": {}\n}}\n",
        points.join(",\n"),
        jnum(p99_light),
        jnum(p99_heavy),
        jnum(p99_heavy / p99_light),
        jnum(offered_heavy),
        jnum(tput_heavy),
        jnum(rate_heavy),
        channel_points.join(",\n"),
        jnum(knee_2ch / knee_1ch),
        jnum(knee_4ch / knee_1ch),
        fusion_points.join(",\n"),
        jnum(knee_fused / knee_unfused),
        report.completed(),
        report.shed(),
        jnum(report.p99().map_or(f64::NAN, |t| t.as_ms_f64())),
        report.deadline_misses(),
        a.migrations,
        a.requeues,
        a.sheds_tightened,
        jnum(a.total_downtime().as_us_f64()),
        units_json.join(",\n"),
        carry_baseline("BENCH_serving.json"),
    );
    write_bench_json("BENCH_serving.json", &body);
}
