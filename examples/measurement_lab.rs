//! The measurement lab of §5.2: observe the same ground truth through
//! each of the paper's instruments and compare their errors.
//!
//! The paper spends half its length on instrumentation because every
//! figure carries instrument error; this example makes that error visible
//! by viewing one run's VCA-IRQ and transfer-latency signals through:
//!
//! * the logic analyzer (exact),
//! * the PC/AT parallel-port timestamper (2 µs clock, 60 µs loop),
//! * the in-kernel pseudo driver (122 µs clock, interrupt interference),
//! * TAP (ring-wide frame capture and traffic classification).
//!
//! ```sh
//! cargo run --release --example measurement_lab
//! ```

use ctms_core::{Scenario, Testbed};
use ctms_measure::{analyze_period, PcAt, PcAtCfg, PseudoCfg, PseudoDriver};
use ctms_sim::{Dur, EdgeLog, Pcg32, SimTime};
use ctms_stats::Summary;

fn spread_us(log: &EdgeLog) -> (f64, f64, f64) {
    let xs: Vec<f64> = log
        .inter_occurrence()
        .iter()
        .map(|d| d.as_us_f64())
        .collect();
    let s = Summary::of(&xs);
    (s.min, s.mean, s.max)
}

fn main() {
    let secs = 60;
    let sc = Scenario::test_case_b(11);
    let mut bed = Testbed::ctms(&sc);
    bed.run_until(SimTime::from_secs(secs));
    let truth = bed.measurement_set();

    println!("== the VCA IRQ line through each instrument ==");
    let pa = analyze_period(truth.vca_irq, Dur::from_ms(12));
    println!(
        "logic analyzer : period mean {:.3} ms, max deviation {} ns \
         (§5.2.2: 'completely solid')",
        pa.mean_ns / 1e6,
        pa.max_deviation_ns
    );

    let mut pcat = PcAt::new(PcAtCfg::default(), Pcg32::new(5, 5));
    let cap = pcat.observe(&[truth.vca_irq], SimTime::from_secs(secs));
    let rec = cap.reconstruct();
    let (min, mean, max) = spread_us(&rec[0]);
    println!(
        "PC/AT tool     : intervals {min:.0}–{max:.0} µs around {mean:.0} µs \
         (§5.2.3: ±120 µs spread, 60 µs loop)"
    );

    let mut pseudo = PseudoDriver::new(PseudoCfg::default(), Pcg32::new(6, 6));
    let view = pseudo.observe(truth.vca_irq);
    let (min, mean, max) = spread_us(&view);
    println!(
        "pseudo driver  : intervals {min:.0}–{max:.0} µs around {mean:.0} µs \
         (§5.2.1: 122 µs clock, 'a poor method … extremely good at finding bugs')"
    );

    println!();
    println!("== the transfer latency (histogram 7) through the PC/AT tool ==");
    let exact: Vec<f64> = truth
        .pre_tx
        .deltas_to(truth.ctmsp_rx)
        .iter()
        .map(|d| d.as_us_f64())
        .collect();
    let s = Summary::of(&exact);
    println!(
        "ground truth   : min {:.0} µs, mean {:.0} µs, sd {:.0} µs",
        s.min, s.mean, s.std_dev
    );
    // The real setup probes the transmitter and receiver with one PC/AT:
    // channels 0 and 1.
    let mut pcat = PcAt::new(PcAtCfg::default(), Pcg32::new(7, 7));
    let cap = pcat.observe(&[truth.pre_tx, truth.ctmsp_rx], SimTime::from_secs(secs));
    let rec = cap.reconstruct();
    let measured: Vec<f64> = rec[0]
        .deltas_to(&rec[1])
        .iter()
        .map(|d| d.as_us_f64())
        .collect();
    let m = Summary::of(&measured);
    println!(
        "through PC/AT  : min {:.0} µs, mean {:.0} µs, sd {:.0} µs \
         (instrument widens the spread; the paper's figures contain this)",
        m.min, m.mean, m.std_dev
    );

    println!();
    println!("== TAP's view of the ring ==");
    let b = bed.tap().breakdown();
    println!(
        "captured {} frames: {} MAC (~20 B), {} small (60–300 B), \
         {} file-transfer (~1522 B), {} CTMSP (2021 B), {} other",
        bed.tap().records(),
        b.mac,
        b.small,
        b.file_transfer,
        b.ctmsp,
        b.other
    );
    let a = bed.tap().analyze_stream();
    println!(
        "CTMSP stream: {} captured, {} out-of-order, {} gaps ({} missing), \
         {} duplicates — §5: 'the problem of out of order packets completely \
         disappeared' once critical sections were fixed",
        a.captured, a.out_of_order, a.gaps, a.missing, a.duplicates
    );
    println!(
        "ring utilization {:.1} %, {} purges observed, {} frames missed by \
         the capture-rate limit",
        bed.tap().utilization() * 100.0,
        bed.tap().purges(),
        bed.tap().missed()
    );
}
