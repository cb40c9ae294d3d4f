//! Micro-benchmarks of the JAFAR device simulation and the Aladdin-like
//! scheduler it derives its throughput from.

use jafar_accel::ir::{jafar_aggregate_kernel, jafar_filter_kernel};
use jafar_accel::{Dddg, Resources, Schedule};
use jafar_bench::micro;
use jafar_common::rng::SplitMix64;
use jafar_common::time::Tick;
use jafar_core::aggregate::{AggOp, AggregateJob};
use jafar_core::{grant_ownership, FusedSelectJob, JafarDevice, Predicate, SelectJob};
use jafar_dram::{AddressMapping, DramGeometry, DramModule, DramTiming, PhysAddr};

/// An owned gem5-like module holding a 64K-row column of seeded uniform
/// values in `0..1000` at address 0. Unlike `i % 1000`, the hits of a
/// range predicate over it come in no runs a host branch predictor could
/// learn.
fn random_column_module() -> (DramModule, Tick) {
    let mut module = DramModule::new(
        DramGeometry::gem5_2gb(),
        DramTiming::ddr3_paper().without_refresh(),
        AddressMapping::RankRowBankBlock,
    );
    let mut rng = SplitMix64::new(0x5E1E_C7ED);
    for i in 0..65_536u64 {
        module
            .data_mut()
            .write_i64(PhysAddr(i * 8), rng.next_range_inclusive(0, 999));
    }
    let lease = grant_ownership(&mut module, 0, Tick::ZERO).expect("fresh");
    (module, lease.acquired_at)
}

fn main() {
    micro::run_batched(
        "device/select_64k_rows",
        || {
            let mut module = DramModule::new(
                DramGeometry::gem5_2gb(),
                DramTiming::ddr3_paper().without_refresh(),
                AddressMapping::RankRowBankBlock,
            );
            for i in 0..65_536u64 {
                module
                    .data_mut()
                    .write_i64(PhysAddr(i * 8), (i % 1000) as i64);
            }
            let lease = grant_ownership(&mut module, 0, Tick::ZERO).expect("fresh");
            let t0 = lease.acquired_at;

            (module, JafarDevice::paper_default(), t0)
        },
        |(mut module, mut device, t0)| {
            device
                .run_select(
                    &mut module,
                    SelectJob {
                        col_addr: PhysAddr(0),
                        rows: 65_536,
                        predicate: Predicate::Between(100, 499),
                        out_addr: PhysAddr(1 << 20),
                    },
                    t0,
                )
                .expect("owned")
        },
    );

    micro::run_batched(
        "device/select_64k_rows_random",
        || (random_column_module(), JafarDevice::paper_default()),
        |((mut module, t0), mut device)| {
            device
                .run_select(
                    &mut module,
                    SelectJob {
                        col_addr: PhysAddr(0),
                        rows: 65_536,
                        predicate: Predicate::Between(100, 499),
                        out_addr: PhysAddr(1 << 20),
                    },
                    t0,
                )
                .expect("owned")
        },
    );

    // Four comparator lanes over one stream of the same random column: the
    // shape of a `fuse_window = 4` pass.
    micro::run_batched(
        "device/select_fused_4lanes_64k_rows",
        || (random_column_module(), JafarDevice::paper_default()),
        |((mut module, t0), mut device)| {
            let job = FusedSelectJob {
                col_addr: PhysAddr(0),
                rows: 65_536,
                predicates: vec![
                    Predicate::Between(100, 499),
                    Predicate::Between(0, 99),
                    Predicate::Between(250, 749),
                    Predicate::Between(900, 999),
                ],
                out_addrs: (0..4)
                    .map(|lane| PhysAddr((1 << 20) + lane * 8192))
                    .collect(),
            };
            device
                .run_select_fused(&mut module, &job, t0)
                .expect("owned")
        },
    );

    // One filtered aggregate call: the per-call cost the serving engine
    // pays for every SelectCount/SelectAgg page.
    micro::run_batched(
        "device/aggregate_512_rows",
        || {
            let mut module = DramModule::new(
                DramGeometry::tiny(),
                DramTiming::ddr3_paper().without_refresh(),
                AddressMapping::RankRowBankBlock,
            );
            for i in 0..512u64 {
                module
                    .data_mut()
                    .write_i64(PhysAddr(i * 8), (i % 1000) as i64);
            }
            let lease = grant_ownership(&mut module, 0, Tick::ZERO).expect("fresh");
            let t0 = lease.acquired_at;
            (module, JafarDevice::paper_default(), t0)
        },
        |(mut module, mut device, t0)| {
            device
                .run_aggregate(
                    &mut module,
                    AggregateJob {
                        col_addr: PhysAddr(0),
                        rows: 512,
                        op: AggOp::Sum,
                        filter: Some(Predicate::Between(100, 499)),
                    },
                    t0,
                )
                .expect("owned")
        },
    );

    let kernel = jafar_filter_kernel();
    micro::run("accel/schedule_1k_iterations", || {
        let graph = Dddg::expand(&kernel, 1024, 8);
        Schedule::compute(&graph, &Resources::jafar_default())
    });
    micro::run("accel/steady_state_ii", || {
        Schedule::steady_state_ii(&kernel, &Resources::jafar_default(), 8)
    });
    // The filtered fold: its four ALU ops per word keep the longest ready
    // backlog of the four device kernels.
    let filtered_agg = jafar_aggregate_kernel(true);
    micro::run("accel/steady_state_ii_filtered_agg", || {
        Schedule::steady_state_ii(&filtered_agg, &Resources::jafar_default(), 8)
    });
}
