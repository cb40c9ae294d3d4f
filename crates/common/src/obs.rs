//! Unified observability: a cycle-stamped event tracer, a metrics registry,
//! and deterministic exporters.
//!
//! Every number the paper argues from — idle memory-controller periods,
//! rank-ownership windows, bitset write-back traffic — is an *event in
//! time*. This module gives the whole workspace one way to record them:
//!
//! - [`Event`] / [`EventKind`]: a tick-stamped record drawn from a fixed
//!   taxonomy (DRAM commands, scheduling decisions, ownership and lease
//!   transitions, driver recovery actions, fault injections, accelerator
//!   pipeline stages, bitset write-backs, surfaced errors).
//! - [`TraceSink`]: the sink trait events are emitted into. The library
//!   never depends on a concrete sink.
//! - [`RingTracer`]: the standard sink — a bounded ring buffer that drops
//!   the *oldest* events under pressure and counts what it dropped, so a
//!   long run keeps the interesting tail.
//! - [`SharedTracer`]: the cloneable handle components hold. A disabled
//!   handle (the default everywhere) costs one `Option` branch per
//!   would-be event and performs **no** allocation, formatting, or
//!   timestamp math — the zero-cost-when-disabled contract. Enabling the
//!   tracer must never change simulated timing; sinks only observe.
//! - [`MetricsRegistry`]: an ordered name → value registry of monotonic
//!   counters and power-of-two-bucket [`Histogram`]s that the per-crate
//!   stats structs register snapshots into for unified reporting.
//! - Exporters: [`chrome_trace_json`] emits Chrome `trace_event` JSON
//!   (load it at `chrome://tracing`), [`render_timeline`] a human-readable
//!   dump. Both are purely deterministic functions of the recorded events:
//!   same seed → byte-identical output.

use crate::stats::Histogram;
use crate::time::Tick;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

/// What happened. Variants carry only `Copy` payloads (small ints and
/// `&'static str`) so recording an event never allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A DRAM command left the command bus.
    DramCmd {
        /// Command mnemonic (`"ACT"`, `"RD"`, `"WR"`, `"PRE"`, `"PREA"`,
        /// `"REF"`, `"MRS"`).
        cmd: &'static str,
        /// Target rank.
        rank: u32,
        /// Target bank (the rank-wide commands report bank 0).
        bank: u32,
        /// `"host"` or `"ndp"`.
        requester: &'static str,
    },
    /// A block access resolved against the row buffer.
    RowAccess {
        /// `"hit"`, `"miss"`, or `"conflict"`.
        outcome: &'static str,
        /// Target rank.
        rank: u32,
        /// Target bank.
        bank: u32,
    },
    /// The memory controller picked a transaction to service.
    SchedDecision {
        /// `"read"` or `"write"` queue.
        queue: &'static str,
        /// The picked request id.
        picked: u64,
        /// Queue depth (both queues) at decision time.
        queued: u32,
    },
    /// Rank ownership flipped via the MR3/MPR handshake.
    OwnershipChange {
        /// The rank whose ownership changed.
        rank: u32,
        /// True when the NDP device now owns the rank.
        to_ndp: bool,
    },
    /// The resilient driver obtained a lease on a rank.
    LeaseGrant {
        /// Leased rank.
        rank: u32,
        /// Expiry tick.
        until: Tick,
    },
    /// The resilient driver renewed a lease mid-run.
    LeaseRenew {
        /// Leased rank.
        rank: u32,
        /// New expiry tick.
        until: Tick,
    },
    /// A lease expired before the device finished.
    LeaseExpire {
        /// The rank whose lease lapsed.
        rank: u32,
    },
    /// The driver retried a failed device operation.
    DriverRetry {
        /// Retry ordinal (1 = first retry).
        attempt: u32,
        /// The errno the failed attempt reported.
        errno: i32,
    },
    /// The driver's watchdog fired on a stuck page.
    WatchdogFire {
        /// Page index within the select run.
        page: u64,
    },
    /// The circuit breaker changed state.
    BreakerTransition {
        /// True = open (device bypassed), false = closed again.
        open: bool,
    },
    /// A page fell back to the CPU scan path.
    CpuFallback {
        /// Page index within the select run.
        page: u64,
    },
    /// The fault injector perturbed the run.
    FaultInjected {
        /// Fault mnemonic (`"bitflip"`, `"uncorrectable"`, `"stall"`,
        /// `"mrs-glitch"`, `"refresh-storm"`).
        kind: &'static str,
    },
    /// The accelerator pipeline entered a stage for a page.
    AccelStage {
        /// Stage mnemonic (`"select-start"`, `"select-done"`).
        stage: &'static str,
        /// Byte offset of the page within the column.
        page: u64,
    },
    /// The device wrote a bitset chunk back to DRAM.
    BitsetWriteback {
        /// Destination physical address.
        addr: u64,
        /// Chunk length in bytes.
        bytes: u32,
    },
    /// The parallel scheduler advanced one shard by one page.
    ShardStep {
        /// Index of the shard within the parallel select.
        shard: u32,
        /// DRAM rank the shard's device runs on.
        rank: u32,
        /// First row of the page the step processed.
        at_row: u64,
    },
    /// A shard of a parallel select finished its timeline.
    ShardDone {
        /// Index of the shard within the parallel select.
        shard: u32,
        /// DRAM rank the shard's device ran on.
        rank: u32,
        /// Number of rows the shard's predicate matched.
        matched: u64,
    },
    /// A library error path was taken (the former panic sites).
    ErrorSurfaced {
        /// Where (`"sim-backend"`, `"refresh"`, `"plan"`).
        site: &'static str,
        /// Short machine-readable detail.
        detail: &'static str,
    },
    /// The serving engine admitted a query into the bounded queue.
    QueryAdmitted {
        /// Submission index of the query within the served workload.
        query: u32,
        /// Queue depth the admission decision observed — the depth
        /// *before* this query was pushed, the same snapshot the
        /// shed/admit bound was tested against. (`QueryShed` reports
        /// the identical snapshot, so the two events are comparable.)
        depth: u32,
    },
    /// The serving engine dispatched a query onto an execution rung.
    QueryStarted {
        /// Submission index of the query within the served workload.
        query: u32,
        /// Rung mnemonic (`"parallel"`, `"single"`, `"cpu"`, or
        /// `"fused"` when the query shares a fused multi-predicate
        /// scan with other queued selects on the same column).
        mode: &'static str,
        /// Operator mnemonic (`"select"`, `"count"`, `"sum"`, `"min"`,
        /// `"max"`, `"project"`).
        op: &'static str,
        /// Device ranks granted to the query (0 on the CPU rung).
        ranks: u32,
    },
    /// A served query completed (all its shards finished).
    QueryDone {
        /// Submission index of the query within the served workload.
        query: u32,
        /// Rows the query's predicate matched.
        matched: u64,
    },
    /// Admission control shed a query (queue at its depth bound).
    QueryShed {
        /// Submission index of the query within the served workload.
        query: u32,
        /// Queue depth at the rejection.
        depth: u32,
    },
    /// A serving filter unit moved through its health state machine.
    RankHealth {
        /// Pool unit id of the unit whose health changed: the serving
        /// engine's channel-major `channel · ranks_per_channel + rank`,
        /// so on a one-channel pool it equals the rank index.
        rank: u32,
        /// New state (`"suspect"`, `"quarantined"`, `"probing"`,
        /// `"healthy"`).
        state: &'static str,
    },
    /// A parked shard resumed on a different filter unit from its
    /// checkpoint.
    ShardMigrated {
        /// Submission index of the query the shard belongs to.
        query: u32,
        /// Pool unit id the shard parked on (rank index on a
        /// single-DIMM pool).
        from: u32,
        /// Pool unit id it resumed on — possibly on another channel.
        to: u32,
        /// First row the resumed session processes (the checkpoint).
        row: u64,
    },
    /// A failed shard re-entered the dispatch ladder above host-degrade.
    QueryRequeued {
        /// Submission index of the query within the served workload.
        query: u32,
    },
    /// The group-by skew detector split a hot key's rows across units
    /// instead of hashing them onto one.
    SkewSplit {
        /// Submission index of the query within the served workload.
        query: u32,
        /// The hot key whose rows were split.
        key: i64,
        /// Units the key's rows were spread over.
        parts: u32,
    },
    /// A canary probe against a quarantined filter unit finished.
    CanaryProbe {
        /// Pool unit id of the probed unit (rank index on a single-DIMM
        /// pool).
        rank: u32,
        /// True when the canary completed on the device (unit repaired).
        ok: bool,
    },
    /// The cluster frontend routed a query to a memory node.
    QueryRouted {
        /// Submission index of the query within the served workload.
        query: u32,
        /// The memory node it was sent to.
        node: u32,
        /// Route mnemonic (`"round-robin"`, `"least-outstanding"`,
        /// `"replica-local"`) or `"failover"` when the preferred holder
        /// was routed around.
        via: &'static str,
    },
    /// A message crossed a fabric link (request, response, or column
    /// pull) — the data plane's per-hop ledger entry.
    NetHop {
        /// Fabric link id (node links first, extra links after).
        link: u32,
        /// Payload bytes carried.
        bytes: u64,
    },
    /// The cross-tier ladder's last rung: no healthy replica holder, so
    /// the frontend pulled the column over the network and scanned it
    /// locally.
    ColumnPulled {
        /// Submission index of the query within the served workload.
        query: u32,
        /// Column bytes pulled over the page-store link.
        bytes: u64,
    },
}

impl EventKind {
    /// Stable short name, used as the Chrome trace event name.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::DramCmd { .. } => "dram-cmd",
            EventKind::RowAccess { .. } => "row-access",
            EventKind::SchedDecision { .. } => "sched",
            EventKind::OwnershipChange { .. } => "ownership",
            EventKind::LeaseGrant { .. } => "lease-grant",
            EventKind::LeaseRenew { .. } => "lease-renew",
            EventKind::LeaseExpire { .. } => "lease-expire",
            EventKind::DriverRetry { .. } => "retry",
            EventKind::WatchdogFire { .. } => "watchdog",
            EventKind::BreakerTransition { .. } => "breaker",
            EventKind::CpuFallback { .. } => "cpu-fallback",
            EventKind::FaultInjected { .. } => "fault",
            EventKind::AccelStage { .. } => "accel",
            EventKind::BitsetWriteback { .. } => "bitset-wb",
            EventKind::ShardStep { .. } => "shard-step",
            EventKind::ShardDone { .. } => "shard-done",
            EventKind::ErrorSurfaced { .. } => "error",
            EventKind::QueryAdmitted { .. } => "query-admitted",
            EventKind::QueryStarted { .. } => "query-started",
            EventKind::QueryDone { .. } => "query-done",
            EventKind::QueryShed { .. } => "query-shed",
            EventKind::RankHealth { .. } => "rank-health",
            EventKind::ShardMigrated { .. } => "shard-migrated",
            EventKind::QueryRequeued { .. } => "query-requeued",
            EventKind::SkewSplit { .. } => "skew-split",
            EventKind::CanaryProbe { .. } => "canary-probe",
            EventKind::QueryRouted { .. } => "query-routed",
            EventKind::NetHop { .. } => "net-hop",
            EventKind::ColumnPulled { .. } => "column-pulled",
        }
    }

    /// The trace category ("track") the event belongs to.
    pub fn category(&self) -> &'static str {
        match self {
            EventKind::DramCmd { .. } | EventKind::RowAccess { .. } => "dram",
            EventKind::SchedDecision { .. } => "memctl",
            EventKind::OwnershipChange { .. }
            | EventKind::LeaseGrant { .. }
            | EventKind::LeaseRenew { .. }
            | EventKind::LeaseExpire { .. } => "ownership",
            EventKind::DriverRetry { .. }
            | EventKind::WatchdogFire { .. }
            | EventKind::BreakerTransition { .. }
            | EventKind::CpuFallback { .. } => "driver",
            EventKind::FaultInjected { .. } => "fault",
            EventKind::AccelStage { .. }
            | EventKind::BitsetWriteback { .. }
            | EventKind::ShardStep { .. }
            | EventKind::ShardDone { .. } => "accel",
            EventKind::ErrorSurfaced { .. } => "error",
            EventKind::QueryAdmitted { .. }
            | EventKind::QueryStarted { .. }
            | EventKind::QueryDone { .. }
            | EventKind::QueryShed { .. }
            | EventKind::RankHealth { .. }
            | EventKind::ShardMigrated { .. }
            | EventKind::QueryRequeued { .. }
            | EventKind::SkewSplit { .. }
            | EventKind::CanaryProbe { .. } => "serve",
            EventKind::QueryRouted { .. }
            | EventKind::NetHop { .. }
            | EventKind::ColumnPulled { .. } => "net",
        }
    }

    /// Renders the payload as deterministic `key=value` pairs.
    fn args(&self, out: &mut String) {
        use std::fmt::Write;
        match *self {
            EventKind::DramCmd {
                cmd,
                rank,
                bank,
                requester,
            } => {
                let _ = write!(out, "cmd={cmd} rank={rank} bank={bank} by={requester}");
            }
            EventKind::RowAccess {
                outcome,
                rank,
                bank,
            } => {
                let _ = write!(out, "outcome={outcome} rank={rank} bank={bank}");
            }
            EventKind::SchedDecision {
                queue,
                picked,
                queued,
            } => {
                let _ = write!(out, "queue={queue} picked={picked} queued={queued}");
            }
            EventKind::OwnershipChange { rank, to_ndp } => {
                let _ = write!(out, "rank={rank} to_ndp={to_ndp}");
            }
            EventKind::LeaseGrant { rank, until } => {
                let _ = write!(out, "rank={rank} until={}", until.as_ps());
            }
            EventKind::LeaseRenew { rank, until } => {
                let _ = write!(out, "rank={rank} until={}", until.as_ps());
            }
            EventKind::LeaseExpire { rank } => {
                let _ = write!(out, "rank={rank}");
            }
            EventKind::DriverRetry { attempt, errno } => {
                let _ = write!(out, "attempt={attempt} errno={errno}");
            }
            EventKind::WatchdogFire { page } => {
                let _ = write!(out, "page={page}");
            }
            EventKind::BreakerTransition { open } => {
                let _ = write!(out, "open={open}");
            }
            EventKind::CpuFallback { page } => {
                let _ = write!(out, "page={page}");
            }
            EventKind::FaultInjected { kind } => {
                let _ = write!(out, "kind={kind}");
            }
            EventKind::AccelStage { stage, page } => {
                let _ = write!(out, "stage={stage} page={page}");
            }
            EventKind::BitsetWriteback { addr, bytes } => {
                let _ = write!(out, "addr={addr} bytes={bytes}");
            }
            EventKind::ShardStep {
                shard,
                rank,
                at_row,
            } => {
                let _ = write!(out, "shard={shard} rank={rank} at_row={at_row}");
            }
            EventKind::ShardDone {
                shard,
                rank,
                matched,
            } => {
                let _ = write!(out, "shard={shard} rank={rank} matched={matched}");
            }
            EventKind::ErrorSurfaced { site, detail } => {
                let _ = write!(out, "site={site} detail={detail}");
            }
            EventKind::QueryAdmitted { query, depth } => {
                let _ = write!(out, "query={query} depth={depth}");
            }
            EventKind::QueryStarted {
                query,
                mode,
                op,
                ranks,
            } => {
                let _ = write!(out, "query={query} mode={mode} op={op} ranks={ranks}");
            }
            EventKind::QueryDone { query, matched } => {
                let _ = write!(out, "query={query} matched={matched}");
            }
            EventKind::QueryShed { query, depth } => {
                let _ = write!(out, "query={query} depth={depth}");
            }
            EventKind::RankHealth { rank, state } => {
                let _ = write!(out, "rank={rank} state={state}");
            }
            EventKind::ShardMigrated {
                query,
                from,
                to,
                row,
            } => {
                let _ = write!(out, "query={query} from={from} to={to} row={row}");
            }
            EventKind::QueryRequeued { query } => {
                let _ = write!(out, "query={query}");
            }
            EventKind::SkewSplit { query, key, parts } => {
                let _ = write!(out, "query={query} key={key} parts={parts}");
            }
            EventKind::CanaryProbe { rank, ok } => {
                let _ = write!(out, "rank={rank} ok={ok}");
            }
            EventKind::QueryRouted { query, node, via } => {
                let _ = write!(out, "query={query} node={node} via={via}");
            }
            EventKind::NetHop { link, bytes } => {
                let _ = write!(out, "link={link} bytes={bytes}");
            }
            EventKind::ColumnPulled { query, bytes } => {
                let _ = write!(out, "query={query} bytes={bytes}");
            }
        }
    }
}

/// One tick-stamped trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// When it happened, on the shared picosecond timeline.
    pub at: Tick,
    /// What happened.
    pub kind: EventKind,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut args = String::new();
        self.kind.args(&mut args);
        write!(
            f,
            "{:>14} ps  {:9} {:12} {}",
            self.at.as_ps(),
            self.kind.category(),
            self.kind.name(),
            args
        )
    }
}

/// Where emitted events go. Implementations must not feed anything back
/// into the simulation: a sink observes the timeline, it never bends it.
pub trait TraceSink {
    /// Accepts one event.
    fn emit(&mut self, ev: Event);
}

/// The standard sink: a bounded ring buffer. When full, the *oldest*
/// event is dropped (and counted), keeping the most recent history.
#[derive(Debug)]
pub struct RingTracer {
    buf: VecDeque<Event>,
    capacity: usize,
    emitted: u64,
    dropped: u64,
}

impl RingTracer {
    /// A ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        RingTracer {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
            emitted: 0,
            dropped: 0,
        }
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// Snapshot of held events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.buf.iter().copied().collect()
    }

    /// Events held right now.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing is held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever emitted into this ring.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clears held events (keeps the emitted/dropped totals).
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

impl TraceSink for RingTracer {
    fn emit(&mut self, ev: Event) {
        self.emitted += 1;
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }
}

/// The cloneable tracer handle every instrumented component holds.
///
/// The default ([`SharedTracer::disabled`]) handle is `None` inside: an
/// emit is a single branch and returns — no event is constructed beyond
/// its `Copy` payload, nothing allocates, and no simulated state is read
/// or written. Enabling tracing therefore cannot change any simulated
/// tick count (asserted by tests in `jafar-sim`).
#[derive(Clone, Default)]
pub struct SharedTracer(Option<Rc<RefCell<dyn TraceSink>>>);

impl SharedTracer {
    /// A disabled handle (the default for every component).
    pub fn disabled() -> Self {
        SharedTracer(None)
    }

    /// A handle backed by a fresh [`RingTracer`]; also returns the ring so
    /// the caller can read events back after the run.
    pub fn ring(capacity: usize) -> (Self, Rc<RefCell<RingTracer>>) {
        let ring = Rc::new(RefCell::new(RingTracer::new(capacity)));
        let sink: Rc<RefCell<dyn TraceSink>> = ring.clone();
        (SharedTracer(Some(sink)), ring)
    }

    /// A handle over an arbitrary sink.
    pub fn with_sink(sink: Rc<RefCell<dyn TraceSink>>) -> Self {
        SharedTracer(Some(sink))
    }

    /// True when events actually go anywhere.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Emits one event; a no-op (one branch) when disabled.
    #[inline]
    pub fn emit(&self, at: Tick, kind: EventKind) {
        if let Some(sink) = &self.0 {
            sink.borrow_mut().emit(Event { at, kind });
        }
    }
}

impl fmt::Debug for SharedTracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SharedTracer")
            .field(&self.is_enabled())
            .finish()
    }
}

/// One registered metric value.
#[derive(Clone, Debug)]
pub enum Metric {
    /// A monotonic counter snapshot.
    Counter(u64),
    /// A power-of-two-bucket histogram snapshot.
    Histogram(Histogram),
}

/// An ordered name → metric registry the per-crate stats structs register
/// snapshots into, so a run report can render every counter in the stack
/// in one place. Insertion order is preserved (stable reports); re-using
/// a name overwrites the previous value.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    entries: Vec<(String, Metric)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn set(&mut self, name: &str, m: Metric) {
        match self.entries.iter_mut().find(|(k, _)| k == name) {
            Some((_, v)) => *v = m,
            None => self.entries.push((name.to_string(), m)),
        }
    }

    /// Registers (or overwrites) a counter snapshot.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.set(name, Metric::Counter(value));
    }

    /// Registers (or overwrites) a histogram snapshot.
    pub fn histogram(&mut self, name: &str, h: &Histogram) {
        self.set(name, Metric::Histogram(h.clone()));
    }

    /// Looks a counter up by name.
    pub fn get_counter(&self, name: &str) -> Option<u64> {
        self.entries.iter().find_map(|(k, v)| match v {
            Metric::Counter(c) if k == name => Some(*c),
            _ => None,
        })
    }

    /// Iterates `(name, metric)` in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, m) in self.iter() {
            match m {
                Metric::Counter(v) => writeln!(f, "{name} = {v}")?,
                Metric::Histogram(h) => {
                    writeln!(
                        f,
                        "{name} = {} (p50<{} p99<{})",
                        h.summary(),
                        h.quantile(0.5),
                        h.quantile(0.99)
                    )?;
                }
            }
        }
        Ok(())
    }
}

/// Escapes a string for a JSON string literal (the event vocabulary is
/// ASCII mnemonics, but stay correct anyway).
fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Writes a tick as a Chrome `ts` value (microseconds) with exact
/// picosecond precision — pure integer formatting, so the output is
/// byte-identical for identical inputs.
fn write_ts_us(ps: u64, out: &mut String) {
    use std::fmt::Write;
    let _ = write!(out, "{}.{:06}", ps / 1_000_000, ps % 1_000_000);
}

/// Renders events as Chrome `trace_event` JSON (the "JSON Array Format"
/// wrapped in a `traceEvents` object), loadable at `chrome://tracing` or
/// Perfetto. Events become instant events (`"ph":"i"`) on one process,
/// with one thread per category. Deterministic: same events in, same
/// bytes out.
pub fn chrome_trace_json(events: &[Event]) -> String {
    // Stable category → tid mapping, in first-appearance order.
    let mut cats: Vec<&'static str> = Vec::new();
    for ev in events {
        let c = ev.kind.category();
        if !cats.contains(&c) {
            cats.push(c);
        }
    }
    let tid_of = |c: &str| cats.iter().position(|k| *k == c).unwrap_or(0) + 1;

    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    // Thread-name metadata so chrome://tracing labels the tracks.
    for (i, c) in cats.iter().enumerate() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            i + 1,
            c
        ));
    }
    for ev in events {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"name\":\"");
        json_escape(ev.kind.name(), &mut out);
        out.push_str("\",\"cat\":\"");
        json_escape(ev.kind.category(), &mut out);
        out.push_str("\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":");
        out.push_str(&tid_of(ev.kind.category()).to_string());
        out.push_str(",\"ts\":");
        write_ts_us(ev.at.as_ps(), &mut out);
        out.push_str(",\"args\":{\"detail\":\"");
        let mut args = String::new();
        ev.kind.args(&mut args);
        json_escape(&args, &mut out);
        out.push_str("\"}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

/// Renders events as a human-readable timeline, one line per event,
/// oldest first. Deterministic.
pub fn render_timeline(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 64);
    for ev in events {
        use std::fmt::Write;
        let _ = writeln!(out, "{ev}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ps: u64, kind: EventKind) -> Event {
        Event {
            at: Tick::from_ps(ps),
            kind,
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut ring = RingTracer::new(2);
        for i in 0..5u64 {
            ring.emit(ev(i, EventKind::WatchdogFire { page: i }));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.emitted(), 5);
        assert_eq!(ring.dropped(), 3);
        let kept: Vec<u64> = ring.events().map(|e| e.at.as_ps()).collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = SharedTracer::disabled();
        assert!(!t.is_enabled());
        // Must not panic or allocate a sink.
        t.emit(
            Tick::from_ns(1),
            EventKind::BreakerTransition { open: true },
        );
    }

    #[test]
    fn shared_tracer_feeds_ring() {
        let (t, ring) = SharedTracer::ring(16);
        assert!(t.is_enabled());
        let t2 = t.clone();
        t.emit(Tick::from_ns(1), EventKind::CpuFallback { page: 7 });
        t2.emit(Tick::from_ns(2), EventKind::LeaseExpire { rank: 0 });
        let snap = ring.borrow().snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].kind, EventKind::CpuFallback { page: 7 });
        assert_eq!(snap[1].at, Tick::from_ns(2));
    }

    #[test]
    fn chrome_export_is_deterministic_and_wellformed() {
        let events = vec![
            ev(
                1_000_000,
                EventKind::DramCmd {
                    cmd: "ACT",
                    rank: 0,
                    bank: 3,
                    requester: "host",
                },
            ),
            ev(
                2_500_000,
                EventKind::RowAccess {
                    outcome: "hit",
                    rank: 0,
                    bank: 3,
                },
            ),
            ev(3_000_001, EventKind::FaultInjected { kind: "bitflip" }),
        ];
        let a = chrome_trace_json(&events);
        let b = chrome_trace_json(&events);
        assert_eq!(a, b, "export must be deterministic");
        assert!(a.starts_with("{\"traceEvents\":["));
        assert!(a.ends_with("\"displayTimeUnit\":\"ns\"}"));
        // Exact ps → us conversion: 3_000_001 ps = 3.000001 us.
        assert!(a.contains("\"ts\":3.000001"), "{a}");
        assert!(a.contains("\"cat\":\"fault\""));
        // Balanced braces (crude well-formedness check; no JSON parser in
        // the dependency-free workspace).
        let opens = a.matches('{').count();
        let closes = a.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn timeline_renders_one_line_per_event() {
        let events = vec![
            ev(
                10,
                EventKind::LeaseGrant {
                    rank: 1,
                    until: Tick::from_ns(5),
                },
            ),
            ev(
                20,
                EventKind::ErrorSurfaced {
                    site: "plan",
                    detail: "unknown-table",
                },
            ),
        ];
        let text = render_timeline(&events);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("lease-grant"));
        assert!(text.contains("site=plan"));
    }

    #[test]
    fn registry_preserves_order_and_overwrites() {
        let mut reg = MetricsRegistry::new();
        reg.counter("dram.reads", 10);
        let mut h = Histogram::new();
        h.record(100);
        reg.histogram("mc.idle_period", &h);
        reg.counter("dram.reads", 12);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.get_counter("dram.reads"), Some(12));
        let names: Vec<&str> = reg.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["dram.reads", "mc.idle_period"]);
        let report = reg.to_string();
        assert!(report.contains("dram.reads = 12"));
        assert!(report.contains("mc.idle_period"));
    }

    #[test]
    fn json_escaping_handles_specials() {
        let mut out = String::new();
        json_escape("a\"b\\c\nd", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\nd");
    }
}
