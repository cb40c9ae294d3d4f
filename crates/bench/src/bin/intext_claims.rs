//! The paper's in-text quantitative claims, verified against the models.
//!
//! - **T1 (§2.2)**: "JAFAR operates at around 2GHz ... Each DRAM access
//!   retrieves up to eight 64-bit words, and JAFAR can process one per
//!   clock cycle (0.5ns) for a total of 4ns. As a result, JAFAR currently
//!   spends a total of 9 out of 13 nanoseconds waiting for data to
//!   arrive."
//! - **T2 (§3.3)**: "at most, JAFAR can process 500/4 = 125 32-byte data
//!   blocks, or a total of 4KB of data, per idle period" and "JAFAR would
//!   on average process half of a DRAM-activated row before an
//!   interruption" (8 KB rows).
//! - **T3 (§3.1)**: "93% of the total execution time is spent inside the
//!   accelerated region."

use jafar_bench::arg;
use jafar_common::rng::SplitMix64;
use jafar_common::time::Tick;
use jafar_core::JafarDevice;
use jafar_cpu::ScanVariant;
use jafar_dram::{DramGeometry, DramTiming};
use jafar_sim::{System, SystemConfig};

fn main() {
    let rows: u64 = arg("--rows", 4_000_000);

    println!("# In-text claims (paper value vs reproduction)");
    println!();

    // --- T1: per-access datapath arithmetic. -------------------------------
    let device = JafarDevice::paper_default();
    let timing = DramTiming::ddr3_paper();
    let ps_per_word = device.rates().filter;
    let process_8 = Tick::from_ps(8 * ps_per_word);
    let cas = timing.cl;
    let waiting = cas.saturating_sub(process_8);
    println!("## T1 (2.2): burst-processing headroom");
    println!(
        "  device clock period     : {} (paper: 0.5ns)",
        device.config().clock.period()
    );
    println!("  derived rate            : {ps_per_word} ps/word (paper: one word per cycle)");
    println!("  8-word burst processing : {process_8} (paper: 4ns)");
    println!("  CAS latency             : {cas} (paper: ~13ns)");
    println!("  waiting per access      : {waiting} of {cas} (paper: 9 of 13 ns)");
    assert_eq!(ps_per_word, 500);
    assert_eq!(process_8, Tick::from_ns(4));
    assert_eq!(waiting, Tick::from_ns(9));
    println!();

    // --- T2: idle-period work budget. ---------------------------------------
    println!("## T2 (3.3): work per 500-cycle mean idle period");
    let mean_idle_cycles = 500u64;
    let blocks = mean_idle_cycles / 4;
    let bytes = blocks * 32;
    let row_bytes = DramGeometry::gem5_2gb().row_bytes as u64;
    println!("  {mean_idle_cycles} cycles / 4 per request = {blocks} 32-byte blocks (paper: 125)");
    println!("  = {bytes} bytes per idle period (paper: 4KB)");
    println!(
        "  = {:.2} of an {row_bytes}-byte DRAM row (paper: half a row)",
        bytes as f64 / row_bytes as f64
    );
    assert_eq!(blocks, 125);
    assert_eq!(bytes, 4000);
    println!();

    // --- T3: accelerated-region fraction. -----------------------------------
    println!("## T3 (3.1): fraction of CPU-only time inside the accelerated region");
    println!("  workload: {rows} rows, 0% selectivity, gem5-like host");
    let mut rng = SplitMix64::new(0xC1A1);
    let values: Vec<i64> = (0..rows)
        .map(|_| rng.next_range_inclusive(0, 999_999))
        .collect();
    let mut sys = System::new(SystemConfig::gem5_like());
    let col = sys.write_column(&values);
    let cpu = sys
        .run_select_cpu(col, rows, 0, -1, ScanVariant::Branching, Tick::ZERO)
        .expect("column placed in range");
    let frac = cpu.kernel.as_ps() as f64 / cpu.end.as_ps() as f64;
    println!(
        "  kernel {} / total {} = {:.1}% (paper: 93%)",
        cpu.kernel,
        cpu.end,
        frac * 100.0
    );
    assert!(
        (0.88..0.98).contains(&frac),
        "kernel fraction {frac} out of the calibrated band"
    );
}
