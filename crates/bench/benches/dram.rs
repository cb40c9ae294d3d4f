//! Micro-benchmarks of the DDR3 model's hot paths: address decoding, the
//! bank state machine, and transaction-level streaming — the inner loops
//! every Figure-3/Figure-4 simulation spends its time in.

use jafar_bench::micro;
use jafar_common::time::Tick;
use jafar_dram::{
    AddressDecoder, AddressMapping, DramGeometry, DramModule, DramTiming, PhysAddr, Requester,
};
use std::hint::black_box;

fn module() -> DramModule {
    DramModule::new(
        DramGeometry::gem5_2gb(),
        DramTiming::ddr3_paper().without_refresh(),
        AddressMapping::RankRowBankBlock,
    )
}

fn main() {
    let decoder = AddressDecoder::new(DramGeometry::gem5_2gb(), AddressMapping::RankRowBankBlock);
    micro::run("dram/decode_encode_round_trip", || {
        let mut acc = 0u64;
        for i in 0..1024u64 {
            let coord = decoder.decode(black_box(PhysAddr(i * 64)));
            acc += decoder.encode(coord).0;
        }
        acc
    });

    micro::run_batched(
        "dram/serve_block_streaming_1k_bursts",
        module,
        |mut module| {
            let mut now = Tick::ZERO;
            for i in 0..1024u64 {
                let access = module
                    .serve_addr(PhysAddr(i * 64), false, Requester::Host, now, None)
                    .expect("in range");
                now = access.data_ready;
            }
            now
        },
    );

    // The functional store alone: 1024 reads of resident 64-byte bursts
    // spread over 256 pages, the page-map lookup every DRAM read pays.
    let mut resident = module();
    for page in 0..256u64 {
        resident
            .data_mut()
            .write_burst(PhysAddr(page * 4096), &[page as u8; 64]);
    }
    micro::run("dram/data_read_burst_resident", || {
        let data = resident.data();
        let mut acc = 0u64;
        for i in 0..1024u64 {
            let page = black_box(i.wrapping_mul(97) % 256);
            acc += u64::from(data.read_burst(PhysAddr(page * 4096 + (i % 64) * 64))[0]);
        }
        acc
    });

    micro::run_batched("dram/serve_block_random_1k_bursts", module, |mut module| {
        let mut now = Tick::ZERO;
        let mut addr = 0x9E3779B97F4A7C15u64;
        for _ in 0..1024 {
            addr = addr.wrapping_mul(0xD1342543DE82EF95).wrapping_add(1);
            let a = PhysAddr((addr % (1 << 30)) & !63);
            let access = module
                .serve_addr(a, false, Requester::Host, now, None)
                .expect("in range");
            now = access.data_ready;
        }
        now
    });
}
