//! Per-layer counts of one run, read from outside the program: the public
//! reports, `System::metrics()` and the program's own obs events. Joined
//! with the probes they give each layer's estimated host time.

use crate::probes::{Probes, FUSED_LANES};
use crate::workloads::{Inputs, Kind, Machine, Output};
use jafar_common::obs::{Event, EventKind};
use jafar_common::time::Tick;
use jafar_core::DriverStats;
use jafar_serve::cluster::Tier;
use jafar_serve::{Availability, ExecMode, QueryOp, QueryRecord};

/// Counts of one run. Event-derived fields stay 0 on untraced runs.
#[derive(Default)]
pub struct Counts {
    pub rows: u64,
    pub sim_arena_bytes: u64,
    pub replica_words: u64,
    pub serve_events: u64,
    pub started_parallel: u64,
    pub started_single: u64,
    pub started_fused: u64,
    pub started_cpu: u64,
    pub fused_passes: u64,
    pub queue_wait_us: f64,
    pub service_us: f64,
    pub skew_splits: u64,
    pub quarantines: u64,
    pub canaries: u64,
    pub migrations: u64,
    pub requeues: u64,
    pub downtime_us: f64,
    pub net_messages: u64,
    pub net_bytes: u64,
    pub net_busy_us: f64,
    pub tier_remote_ndp: u64,
    pub tier_remote_cpu: u64,
    pub tier_local_pull: u64,
    pub req_hop_us: f64,
    pub resp_hop_us: f64,
    pub device_jobs: u64,
    pub device_words: u64,
    pub device_bursts_read: u64,
    pub device_bursts_written: u64,
    pub driver: DriverStats,
    pub aggregate_calls: u64,
    pub group_by_calls: u64,
    /// Whole-column device scans run solo, multi-lane passes (fused
    /// selects, multi-range semi-joins), and the lanes those passes carry
    /// beyond their first.
    pub solo_scans: u64,
    pub multi_lane_scans: u64,
    pub extra_lanes: u64,
    pub project_rows: u64,
    pub dram_read_bursts: u64,
    pub dram_write_bursts: u64,
    pub dram_row_hits: u64,
    pub dram_row_accesses: u64,
    pub dram_row_conflicts: u64,
    pub dram_resident_pages: u64,
    pub memctl_reads: u64,
    pub memctl_writes: u64,
    pub memctl_requeued: u64,
    pub memctl_rejected: u64,
    pub cpu_rows: u64,
    pub cpu_kernel_ns: f64,
    pub cpu_mispredicts: u64,
    pub cpu_stall_us: f64,
    pub cache_lines_from_dram: u64,
    pub trace_emitted: u64,
    pub trace_dropped: u64,
}

fn add_driver(sum: &mut DriverStats, d: &DriverStats) {
    sum.pages.add(d.pages.get());
    sum.pages_jafar.add(d.pages_jafar.get());
    sum.pages_cpu.add(d.pages_cpu.get());
    sum.retries.add(d.retries.get());
    sum.lease_grants.add(d.lease_grants.get());
    sum.lease_expiries.add(d.lease_expiries.get());
    sum.watchdog_fires.add(d.watchdog_fires.get());
    sum.uncorrectable.add(d.uncorrectable.get());
    sum.breaker_trips.add(d.breaker_trips.get());
    sum.kernel_fallbacks.add(d.kernel_fallbacks.get());
}

fn add_availability(c: &mut Counts, a: &Availability) {
    for u in &a.units {
        c.quarantines += u.quarantines;
        c.canaries += u.canary_ok + u.canary_fail;
    }
    c.migrations += a.migrations;
    c.requeues += a.requeues;
    c.downtime_us += a.total_downtime().as_us_f64();
}

fn mean_us(ticks: impl Iterator<Item = Tick>) -> f64 {
    let (mut n, mut sum) = (0u64, 0f64);
    for t in ticks {
        n += 1;
        sum += t.as_us_f64();
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

impl Counts {
    /// Record-derived counts: device work per served record.
    fn add_records<'a>(&mut self, records: impl Iterator<Item = &'a QueryRecord>) {
        for rec in records {
            let ExecMode::Device { ranks } = rec.mode else {
                continue;
            };
            match rec.op {
                QueryOp::SelectCount | QueryOp::SelectAgg(_) => {
                    self.aggregate_calls += u64::from(ranks)
                }
                QueryOp::GroupBy { .. } => self.group_by_calls += rec.groups.len() as u64,
                QueryOp::SemiJoin { ranges } if ranges.len() >= 2 => {
                    self.multi_lane_scans += 1;
                    self.extra_lanes += ranges.len() as u64 - 1;
                }
                QueryOp::Select | QueryOp::SemiJoin { .. } => self.solo_scans += 1,
                QueryOp::Project { k } => {
                    self.solo_scans += 1;
                    self.project_rows += u64::from(k) * self.rows;
                }
            }
        }
    }

    fn add_events(&mut self, events: &[Event], fuse_window: u64) {
        // A fused pass emits one `QueryStarted` per lane, back to back at
        // one instant.
        let mut run: Option<(Tick, u64)> = None;
        let close = |c: &mut Counts, run: &mut Option<(Tick, u64)>| {
            if let Some((_, lanes)) = run.take() {
                c.fused_passes += lanes.div_ceil(fuse_window.max(1));
            }
        };
        for e in events {
            match e.kind {
                EventKind::QueryStarted { mode, .. } => {
                    match mode {
                        "parallel" => self.started_parallel += 1,
                        "single" => self.started_single += 1,
                        "fused" => self.started_fused += 1,
                        _ => self.started_cpu += 1,
                    }
                    if mode == "fused" {
                        match &mut run {
                            Some((at, lanes)) if *at == e.at => *lanes += 1,
                            _ => {
                                close(self, &mut run);
                                run = Some((e.at, 1));
                            }
                        }
                        continue;
                    }
                }
                EventKind::SkewSplit { parts, .. } => {
                    self.skew_splits += 1;
                    // A split hot key folds on every part, not on one unit.
                    self.group_by_calls += u64::from(parts.saturating_sub(1));
                }
                _ => {}
            }
            close(self, &mut run);
        }
        close(self, &mut run);
        // Fused lanes were counted as solo scans by their records.
        self.solo_scans = self.solo_scans.saturating_sub(self.started_fused);
        self.multi_lane_scans += self.fused_passes;
        self.extra_lanes += self.started_fused - self.fused_passes;
    }

    pub fn collect(
        inputs: &Inputs,
        machine: &Machine,
        out: &Output,
        events: &[Event],
        arena_bytes: u64,
    ) -> Counts {
        let kind = inputs.kind;
        let cfg = kind.config();
        let units = (cfg.dram_geometry.ranks as u64 - 1).max(1);
        let mut c = Counts {
            rows: inputs.values.len() as u64,
            sim_arena_bytes: arena_bytes,
            ..Counts::default()
        };
        match out {
            Output::Serve(run) => {
                let r = &run.report;
                c.replica_words = units * c.rows;
                c.serve_events = r.events;
                c.queue_wait_us = mean_us(r.records.iter().filter_map(|r| r.queue_wait()));
                c.service_us = mean_us(r.records.iter().filter_map(|r| r.service()));
                add_availability(&mut c, &r.availability);
                for d in &run.recovery {
                    add_driver(&mut c.driver, d);
                }
                c.add_records(r.records.iter());
            }
            Output::Grid(run) => {
                let r = &run.report;
                c.replica_words = r.nodes.len() as u64 * units * c.rows;
                let recs = || r.queries.iter().map(|q| &q.record);
                c.queue_wait_us = mean_us(recs().filter_map(|r| r.queue_wait()));
                c.service_us = mean_us(recs().filter_map(|r| r.service()));
                for n in &r.nodes {
                    c.serve_events += n.events;
                    add_availability(&mut c, &n.availability);
                    c.net_busy_us += n.link.busy.as_us_f64();
                }
                c.net_busy_us += r.store_link.busy.as_us_f64();
                for bank in &run.recovery {
                    for d in bank {
                        add_driver(&mut c.driver, d);
                    }
                }
                c.net_messages = r.net_messages;
                c.net_bytes = r.net_bytes;
                c.tier_remote_ndp = r.tier_count(Tier::RemoteNdp) as u64;
                c.tier_remote_cpu = r.tier_count(Tier::RemoteCpu) as u64;
                c.tier_local_pull = r.tier_count(Tier::LocalPull) as u64;
                c.req_hop_us = r.mean_req_hop().map_or(0.0, Tick::as_us_f64);
                c.resp_hop_us = r.mean_resp_hop().map_or(0.0, Tick::as_us_f64);
                c.add_records(recs());
            }
            Output::Paper(calls) => {
                for call in calls {
                    c.cpu_rows += c.rows;
                    c.cpu_kernel_ns += call.cpu.kernel.as_ns_f64();
                    c.cpu_mispredicts += call.cpu.mispredicts;
                    c.cpu_stall_us += call.cpu.stall.as_us_f64();
                    c.cache_lines_from_dram += call.cpu.lines_from_dram;
                }
            }
        }
        c.add_events(
            events,
            crate::workloads::serve_config(kind).fuse_window as u64,
        );
        if let Machine::Sys { sys, .. } = machine {
            let m = sys.metrics();
            let get = |name: &str| m.get_counter(name).unwrap_or(0);
            c.device_jobs = get("device.jobs");
            c.device_words = get("device.words");
            c.device_bursts_read = get("device.bursts_read");
            c.device_bursts_written = get("device.bursts_written");
            c.dram_read_bursts = get("dram.read_bursts");
            c.dram_write_bursts = get("dram.write_bursts");
            c.dram_row_hits = get("dram.row_hits");
            c.dram_row_conflicts = get("dram.row_conflicts");
            c.dram_row_accesses = c.dram_row_hits + get("dram.row_misses") + c.dram_row_conflicts;
            c.dram_resident_pages = sys.mc().module().data().resident_pages() as u64;
            c.memctl_reads = get("memctl.reads");
            c.memctl_writes = get("memctl.writes");
            c.memctl_requeued = get("memctl.requeued");
            c.memctl_rejected = get("memctl.rejected");
            c.trace_emitted = get("trace.emitted");
            c.trace_dropped = get("trace.dropped");
        }
        if let Machine::Grid {
            ring: Some(ring), ..
        } = machine
        {
            c.trace_emitted = ring.borrow().emitted();
            c.trace_dropped = ring.borrow().dropped();
        }
        c
    }

    /// The layers each workload is predicted to bypass, and those it exists
    /// to exercise, as exact counts: one that starts (or stops) being
    /// exercised shows up here. Event-derived counts are checked only on a
    /// `traced` pass, the only one that has them.
    pub fn prediction_violations(&self, kind: Kind, traced: bool) -> Vec<String> {
        let mut bad = Vec::new();
        let mut expect = |name: &str, v: u64, exercised: bool| {
            if (v != 0) != exercised {
                let want = if exercised {
                    "predicted > 0"
                } else {
                    "predicted 0"
                };
                bad.push(format!("{name} = {v}, {want} on {}", kind.name()));
            }
        };
        let grid = kind == Kind::GridKeyed;
        expect("serve.health.quarantines", self.quarantines, grid);
        expect("serve.health.canaries", self.canaries, grid);
        expect("serve.health.requeues", self.requeues, grid);
        expect(
            "serve.health.downtime_ps",
            (self.downtime_us * 1e6) as u64,
            grid,
        );
        expect("core.driver.retries", self.driver.retries.get(), grid);
        expect("net.messages", self.net_messages, grid);
        expect("core.group_by_calls", self.group_by_calls, grid);
        // Whether a scan is in flight on the unit when it goes dark depends
        // on the seed, so grid-keyed may or may not migrate or fire a
        // watchdog; every other workload must do neither.
        if !grid {
            expect("serve.health.migrations", self.migrations, false);
            expect(
                "core.driver.watchdog_fires",
                self.driver.watchdog_fires.get(),
                false,
            );
            expect("core.driver.pages_cpu", self.driver.pages_cpu.get(), false);
            expect(
                "core.driver.kernel_fallbacks",
                self.driver.kernel_fallbacks.get(),
                false,
            );
        }
        match kind {
            Kind::MixedOps => expect("core.aggregate_calls", self.aggregate_calls, true),
            Kind::ScanFused => expect("core.aggregate_calls", self.aggregate_calls, false),
            _ => {}
        }
        let paper = kind == Kind::PaperSelect;
        expect("memctl.reads", self.memctl_reads, paper);
        expect("cache.lines_from_dram", self.cache_lines_from_dram, paper);
        if !paper {
            expect("memctl.writes", self.memctl_writes, false);
            expect("memctl.requeued", self.memctl_requeued, false);
            expect("memctl.rejected", self.memctl_rejected, false);
        }
        if traced {
            expect(
                "serve.started.fused",
                self.started_fused,
                kind == Kind::ScanFused,
            );
            expect("serve.skew_splits", self.skew_splits, grid);
        }
        bad
    }
}

/// A negative residual beyond this share of host time is flagged.
const RESIDUAL_NOISE: f64 = 0.10;

/// One line of the attribution: a share of the timed host time.
pub struct Item {
    pub layer: &'static str,
    pub what: &'static str,
    pub est_s: f64,
}

/// Host-time attribution of the timed calls: count × probe cost per item.
pub struct Attribution {
    pub host_s: f64,
    /// Items whose sum is subtracted from host time for the residual.
    pub items: Vec<Item>,
    /// Sub-layer estimates already inside an item above (not subtracted).
    pub nested: Vec<Item>,
}

impl Attribution {
    pub fn new(c: &Counts, p: &Probes, host_s: f64) -> Attribution {
        let scan_bursts = c.rows.div_ceil(8) as f64;
        let (select_bursts, fused_bursts) = if c.cpu_rows > 0 {
            (c.device_bursts_read as f64, 0.0)
        } else {
            (
                c.solo_scans as f64 * scan_bursts,
                c.multi_lane_scans as f64 * scan_bursts,
            )
        };
        // A multi-lane pass costs the solo select per burst plus, per lane
        // beyond the first, a share of what the fused probe adds over it.
        let lane_ns =
            (p.fused_ns_per_burst - p.select_ns_per_burst).max(0.0) / (FUSED_LANES - 1) as f64;
        let fused_ns =
            p.select_ns_per_burst * fused_bursts + lane_ns * c.extra_lanes as f64 * scan_bursts;
        let item = |layer, what, est_s| Item { layer, what, est_s };
        let items = vec![
            item(
                "sim",
                "write_column x replica words",
                p.place_ns_per_word * 1e-9 * c.replica_words as f64,
            ),
            item(
                "core",
                "select x solo bursts",
                p.select_ns_per_burst * 1e-9 * select_bursts,
            ),
            item(
                "core",
                "fused select x multi-lane bursts and lanes",
                fused_ns * 1e-9,
            ),
            item(
                "core",
                "aggregate x aggregate calls",
                p.aggregate_us_per_call * 1e-6 * c.aggregate_calls as f64,
            ),
            item(
                "core",
                "group-by fold x group-by calls",
                p.group_by_us_per_call * 1e-6 * c.group_by_calls as f64,
            ),
            item(
                "core",
                "project x projected rows",
                p.project_ns_per_row * 1e-9 * c.project_rows as f64,
            ),
            item(
                "net",
                "delay x messages",
                p.delay_ns_per_msg * 1e-9 * c.net_messages as f64,
            ),
            item(
                "cpu",
                "scan x scanned rows",
                p.scan_ns_per_row * 1e-9 * c.cpu_rows as f64,
            ),
        ];
        let nested = vec![
            item(
                "accel",
                "steady_state_ii x device folds (inside core)",
                (p.ii_us * c.aggregate_calls as f64 + p.fold_ii_us * c.group_by_calls as f64)
                    * 1e-6,
            ),
            item(
                "dram",
                "serve_addr x bursts (inside core/cpu)",
                p.serve_ns_per_burst * 1e-9 * (c.dram_read_bursts + c.dram_write_bursts) as f64,
            ),
            item(
                "dram",
                "write_i64 x replica words (inside sim)",
                p.write_ns_per_word * 1e-9 * c.replica_words as f64,
            ),
        ];
        Attribution {
            host_s,
            items,
            nested,
        }
    }

    pub fn layer_est(&self, layer: &str) -> f64 {
        self.items
            .iter()
            .chain(&self.nested)
            .filter(|i| i.layer == layer)
            .map(|i| i.est_s)
            .sum()
    }

    /// Host time no probed child accounts for.
    pub fn residual(&self) -> f64 {
        self.host_s - self.items.iter().map(|i| i.est_s).sum::<f64>()
    }

    pub fn share(&self, est_s: f64) -> f64 {
        est_s / self.host_s
    }

    /// The top-level item with the largest estimate.
    pub fn largest(&self) -> &Item {
        self.items
            .iter()
            .max_by(|a, b| a.est_s.total_cmp(&b.est_s))
            .expect("items are never empty")
    }

    /// Prints the attribution table: every item, the residual, and a
    /// `# FLAG:` line wherever the estimates disagree with host time.
    pub fn print(&self) {
        println!(
            "# host-time attribution of the timed calls ({:.6} s untraced)",
            self.host_s
        );
        println!("# {:<6} {:>12} {:>8}  item", "layer", "est_s", "share");
        for i in self.items.iter().chain(&self.nested) {
            println!(
                "# {:<6} {:>12.6} {:>8.4}  {}",
                i.layer,
                i.est_s,
                self.share(i.est_s),
                i.what
            );
            if i.est_s > self.host_s {
                println!(
                    "# FLAG: the {} estimate ({:.6} s) exceeds the measured host time",
                    i.layer, i.est_s
                );
            }
        }
        let r = self.residual();
        println!("# {:<6} {:>12.6} {:>8.4}  serve.self_s: host time - sum of the items above the nested ones", "serve", r, self.share(r));
        if r < -RESIDUAL_NOISE * self.host_s {
            println!("# FLAG: negative residual beyond {RESIDUAL_NOISE} of host time: the probes over-estimate");
        }
        let top = self.largest();
        println!(
            "# largest share: {} ({}), {:.4}",
            top.layer,
            top.what,
            self.share(top.est_s)
        );
    }
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
pub fn per_layer_metrics(
    c: &Counts,
    p: &Probes,
    a: &Attribution,
    traced_s: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let share = |layer: &str| a.share(a.layer_est(layer));
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let d = &c.driver;
    vec![
        ("sim.place_ns_per_word", p.place_ns_per_word, "ns"),
        (
            "sim.arena_bytes_per_serve",
            c.sim_arena_bytes as f64,
            "bytes",
        ),
        ("sim.est_s", a.layer_est("sim"), "s"),
        ("sim.share", share("sim"), "ratio"),
        ("serve.events", c.serve_events as f64, "count"),
        (
            "serve.host_ns_per_event",
            per(a.host_s * 1e9, c.serve_events),
            "ns",
        ),
        ("serve.started.parallel", c.started_parallel as f64, "count"),
        ("serve.started.single", c.started_single as f64, "count"),
        ("serve.started.fused", c.started_fused as f64, "count"),
        ("serve.started.cpu", c.started_cpu as f64, "count"),
        (
            "serve.fused_lanes_per_pass",
            per(c.started_fused as f64, c.fused_passes),
            "lanes",
        ),
        ("serve.sim_queue_wait_us", c.queue_wait_us, "us"),
        ("serve.sim_service_us", c.service_us, "us"),
        ("serve.skew_splits", c.skew_splits as f64, "count"),
        ("serve.health.quarantines", c.quarantines as f64, "count"),
        ("serve.health.canaries", c.canaries as f64, "count"),
        ("serve.health.migrations", c.migrations as f64, "count"),
        ("serve.health.requeues", c.requeues as f64, "count"),
        ("serve.health.downtime_us", c.downtime_us, "us"),
        ("serve.self_s", a.residual(), "s"),
        ("serve.self_share", a.share(a.residual()), "ratio"),
        ("net.messages", c.net_messages as f64, "count"),
        ("net.bytes", c.net_bytes as f64, "bytes"),
        ("net.sim_busy_us", c.net_busy_us, "us"),
        ("cluster.tier.remote_ndp", c.tier_remote_ndp as f64, "count"),
        ("cluster.tier.remote_cpu", c.tier_remote_cpu as f64, "count"),
        ("cluster.tier.local_pull", c.tier_local_pull as f64, "count"),
        ("cluster.sim_req_hop_us", c.req_hop_us, "us"),
        ("cluster.sim_resp_hop_us", c.resp_hop_us, "us"),
        ("net.delay_ns_per_msg", p.delay_ns_per_msg, "ns"),
        ("net.est_s", a.layer_est("net"), "s"),
        ("net.share", share("net"), "ratio"),
        ("core.device.jobs", c.device_jobs as f64, "count"),
        ("core.device.words", c.device_words as f64, "count"),
        (
            "core.device.bursts_read",
            c.device_bursts_read as f64,
            "count",
        ),
        (
            "core.device.bursts_written",
            c.device_bursts_written as f64,
            "count",
        ),
        ("core.driver.pages", d.pages.get() as f64, "count"),
        ("core.driver.pages_cpu", d.pages_cpu.get() as f64, "count"),
        ("core.driver.retries", d.retries.get() as f64, "count"),
        (
            "core.driver.lease_grants",
            d.lease_grants.get() as f64,
            "count",
        ),
        (
            "core.driver.watchdog_fires",
            d.watchdog_fires.get() as f64,
            "count",
        ),
        (
            "core.driver.kernel_fallbacks",
            d.kernel_fallbacks.get() as f64,
            "count",
        ),
        (
            "core.driver.device_page_ratio",
            per(d.pages_jafar.get() as f64, d.pages.get()),
            "ratio",
        ),
        ("core.aggregate_calls", c.aggregate_calls as f64, "count"),
        ("core.group_by_calls", c.group_by_calls as f64, "count"),
        ("core.select_ns_per_burst", p.select_ns_per_burst, "ns"),
        ("core.fused_ns_per_burst", p.fused_ns_per_burst, "ns"),
        ("core.aggregate_us_per_call", p.aggregate_us_per_call, "us"),
        ("core.group_by_us_per_call", p.group_by_us_per_call, "us"),
        ("core.project_ns_per_row", p.project_ns_per_row, "ns"),
        ("core.driver_ns_per_page", p.driver_ns_per_page, "ns"),
        ("core.est_s", a.layer_est("core"), "s"),
        ("core.share", share("core"), "ratio"),
        ("accel.ii_us", p.ii_us, "us"),
        ("accel.fold_ii_us", p.fold_ii_us, "us"),
        ("accel.est_s", a.layer_est("accel"), "s"),
        ("accel.share", share("accel"), "ratio"),
        ("dram.read_bursts", c.dram_read_bursts as f64, "count"),
        ("dram.write_bursts", c.dram_write_bursts as f64, "count"),
        ("dram.row_conflicts", c.dram_row_conflicts as f64, "count"),
        (
            "dram.row_hit_ratio",
            per(c.dram_row_hits as f64, c.dram_row_accesses),
            "ratio",
        ),
        ("dram.resident_pages", c.dram_resident_pages as f64, "count"),
        ("dram.serve_ns_per_burst", p.serve_ns_per_burst, "ns"),
        ("dram.write_ns_per_word", p.write_ns_per_word, "ns"),
        ("dram.read_ns_per_burst", p.read_ns_per_burst, "ns"),
        ("dram.est_s", a.layer_est("dram"), "s"),
        ("dram.share", share("dram"), "ratio"),
        ("memctl.reads", c.memctl_reads as f64, "count"),
        ("memctl.writes", c.memctl_writes as f64, "count"),
        ("memctl.requeued", c.memctl_requeued as f64, "count"),
        ("memctl.rejected", c.memctl_rejected as f64, "count"),
        ("cpu.sim_ns_per_row", per(c.cpu_kernel_ns, c.cpu_rows), "ns"),
        ("cpu.mispredicts", c.cpu_mispredicts as f64, "count"),
        ("cpu.stall_us", c.cpu_stall_us, "us"),
        (
            "cache.lines_from_dram",
            c.cache_lines_from_dram as f64,
            "count",
        ),
        ("cpu.scan_ns_per_row", p.scan_ns_per_row, "ns"),
        ("cpu.est_s", a.layer_est("cpu"), "s"),
        ("cpu.share", share("cpu"), "ratio"),
        ("trace.emitted", c.trace_emitted as f64, "count"),
        ("trace.dropped", c.trace_dropped as f64, "count"),
        ("trace.overhead", traced_s / a.host_s, "ratio"),
        ("host.timed_s", a.host_s, "s"),
        ("host.traced_s", traced_s, "s"),
    ]
}
