//! The experiment suite: one function per table/figure/quantitative claim
//! of the paper. Each returns a [`Report`] pairing the paper's number with
//! the reproduction's measurement; the `repro` binary prints them and
//! EXPERIMENTS.md records them.
//!
//! Experiment ids follow DESIGN.md's index (E1–E11).

use crate::scenario::Scenario;
use crate::testbed::Testbed;
use ctms_devices::{CtmsVcaSink, CtmsVcaSource, StockAudioSink, StockVcaSource};
use ctms_measure::{analyze_period, HistId, PcAt, PcAtCfg};
use ctms_sim::{Dur, EdgeLog, Pcg32, SimTime};
use ctms_stats::{fraction_in_range, fraction_within, Band, Claim, Histogram, Report, Summary};
use ctms_unixkern::SockProto;

/// How long to simulate per experiment.
#[derive(Clone, Copy, Debug)]
pub struct ExpCfg {
    /// Simulation seed.
    pub seed: u64,
    /// Seconds of simulated time for the short experiments.
    pub short_secs: u64,
    /// Seconds for the long Figure 5-4 run (paper: 117 minutes).
    pub long_secs: u64,
}

impl ExpCfg {
    /// Full-fidelity settings (the bench harness).
    pub fn full(seed: u64) -> Self {
        ExpCfg {
            seed,
            short_secs: 120,
            long_secs: 117 * 60,
        }
    }

    /// Quick settings for tests.
    pub fn quick(seed: u64) -> Self {
        ExpCfg {
            seed,
            short_secs: 20,
            long_secs: 60,
        }
    }
}

/// Loss fraction and audible-glitch rate of a stock-path run.
fn stock_failure_metrics(bed: &Testbed, secs: u64) -> (f64, f64) {
    let src = bed
        .host(bed.roles.tx_host)
        .kernel
        .driver_ref::<StockVcaSource>(bed.roles.vca_src)
        .expect("stock source");
    let sink = bed
        .host(bed.roles.rx_host)
        .kernel
        .driver_ref::<StockAudioSink>(bed.roles.vca_sink)
        .expect("stock sink");
    let produced = src.stats().produced.max(1) as f64;
    let lost = (src.stats().overrun_bytes + sink.stats().underrun_bytes) as f64;
    let glitches_per_min = sink.stats().underruns as f64 * 60.0 / secs as f64;
    ((lost / produced).min(1.0), glitches_per_min)
}

/// E1 (§1): 16 KB/s works under stock UNIX; 150 KB/s "failed completely";
/// the modified CTMS path sustains 150 KB/s.
pub fn e1_stock_unix(cfg: ExpCfg) -> Report {
    let mut r = Report::new("E1 (§1): stock UNIX vs CTMS at 16 and 150 KB/s");
    let horizon = SimTime::from_secs(cfg.short_secs);

    // The paper's initial tests ran on the development setup, before the
    // loaded public-ring experiments: standalone hosts, private ring.
    let sc = Scenario::test_case_a(cfg.seed);

    // Stock path, 16 KB/s audio.
    let mut bed = Testbed::stock(&sc, 16_000, SockProto::UdpLite);
    bed.run_until(horizon);
    let (loss16, glitches16) = stock_failure_metrics(&bed, cfg.short_secs);
    r.claim(Claim::new(
        "stock.16k.loss",
        "16 KB/s 'worked extremely well' (loss fraction)",
        0.0,
        loss16,
        "",
        Band::Absolute(0.01),
    ));
    r.claim(Claim::new(
        "stock.16k.glitches",
        "16 KB/s audible glitches per minute",
        0.0,
        glitches16,
        "/min",
        Band::Absolute(3.0),
    ));

    // Stock path, 150 KB/s.
    let mut bed = Testbed::stock(&sc, 150_000, SockProto::UdpLite);
    bed.run_until(horizon);
    let (loss150, glitches150) = stock_failure_metrics(&bed, cfg.short_secs);
    r.claim(Claim::new(
        "stock.150k.fails",
        "150 KB/s 'failed completely' (sustained data loss and glitching)",
        1.0,
        if loss150 > 0.02 && glitches150 > 30.0 {
            1.0
        } else {
            0.0
        },
        "",
        Band::Absolute(0.0),
    ));
    r.note(format!(
        "stock 150 KB/s: loss fraction {loss150:.3}, {glitches150:.0} glitches/min \
         (VCA overruns + audio underruns; the receiver spends ~95 % of its \
         CPU in the copy/protocol path)"
    ));

    // Modified CTMS path, ~167 KB/s, on the loaded public network.
    let sc = Scenario::test_case_b(cfg.seed);
    let mut bed = Testbed::ctms(&sc);
    bed.run_until(horizon);
    let src = bed
        .host(0)
        .kernel
        .driver_ref::<CtmsVcaSource>(bed.roles.vca_src)
        .expect("ctms source");
    let sink = bed
        .host(1)
        .kernel
        .driver_ref::<CtmsVcaSink>(bed.roles.vca_sink)
        .expect("ctms sink");
    let sent = src.stats().pkts_sent.max(1) as f64;
    let received = sink.stats().received as f64;
    r.claim(Claim::new(
        "ctms.150k.delivery",
        "modified path sustains the CTMS stream (delivered fraction)",
        1.0,
        received / sent,
        "",
        Band::Absolute(0.01),
    ));
    r
}

/// Copy census for the §2 accounting (Figures 2-1/2-2): CPU copies per
/// packet on each path variant.
pub fn copy_census(stock: bool, tx_copy_full: bool, rx_copy_to_mbufs: bool) -> u32 {
    if stock {
        // Device→kernel (PIO/driver), kernel→user (read), user→kernel
        // (write/send), mbufs→fixed DMA buffer: four CPU copies (§2:
        // "There will always be four copies made by the CPU").
        4
    } else {
        // Direct driver-to-driver: source builds the packet in mbufs
        // (header only; data appended), then mbufs→DMA buffer if copying
        // fully, plus DMA-buffer→mbufs on receive if configured.
        u32::from(tx_copy_full) + u32::from(rx_copy_to_mbufs)
    }
}

/// E2 (§2): the copy-count arithmetic and its measured CPU cost.
pub fn e2_copy_count(cfg: ExpCfg) -> Report {
    let mut r = Report::new("E2 (§2): data copies per device-to-device transfer");
    r.claim(Claim::new(
        "stock.cpu_copies",
        "stock UNIX: 'always four copies made by the CPU'",
        4.0,
        f64::from(copy_census(true, true, true)),
        "copies",
        Band::Absolute(0.0),
    ));
    r.claim(Claim::new(
        "ctms.copies_eliminated",
        "direct driver-to-driver 'completely eliminates two of the data copies'",
        2.0,
        f64::from(copy_census(true, true, true) - copy_census(false, true, true)),
        "copies",
        Band::Absolute(0.0),
    ));
    r.claim(Claim::new(
        "ctms.pointer_transfer",
        "with pointer transfer (header-only, in-place rx) all bulk CPU copies go",
        0.0,
        f64::from(copy_census(false, false, false)),
        "copies",
        Band::Absolute(0.0),
    ));

    // Measured: per-packet CPU copy time on the modified path vs the
    // header-only ablation, from the H6 interval (which contains the one
    // remaining transmit-side bulk copy).
    let horizon = SimTime::from_secs(cfg.short_secs);
    let sc = Scenario::test_case_a(cfg.seed);
    let mut bed = Testbed::ctms(&sc);
    bed.run_until(horizon);
    let full = Summary::of(&bed.measurement_set().samples_us(HistId::H6)).mean;
    let mut sc2 = Scenario::test_case_a(cfg.seed);
    sc2.tx_copy_full = false;
    let mut bed = Testbed::ctms(&sc2);
    bed.run_until(horizon);
    let header_only = Summary::of(&bed.measurement_set().samples_us(HistId::H6)).mean;
    r.claim(Claim::new(
        "tx_copy.cpu_us",
        "eliminating the 2000-byte transmit copy saves ~2000 µs of CPU (§5.3 rate)",
        2000.0,
        full - header_only,
        "us",
        Band::RelativeFrac(0.05),
    ));
    r
}

/// E3 (§5.2.2): logic-analyzer checks of the VCA interrupt source and the
/// IRQ→handler-entry variation.
pub fn e3_logic_analyzer(cfg: ExpCfg) -> Report {
    let mut r = Report::new("E3 (§5.2.2): VCA IRQ solidity and handler-entry variation");
    let sc = Scenario::test_case_b(cfg.seed);
    let mut bed = Testbed::ctms(&sc);
    bed.run_until(SimTime::from_secs(cfg.short_secs));
    let set = bed.measurement_set();
    let pa = analyze_period(set.vca_irq, Dur::from_ms(12));
    r.claim(Claim::new(
        "vca.period_dev_ns",
        "VCA IRQ period deviation ≤ 500 ns ('completely solid')",
        0.0,
        pa.max_deviation_ns as f64,
        "ns",
        Band::Absolute(500.0),
    ));
    let h5 = set.samples_us(HistId::H5);
    let max_var = h5.iter().copied().fold(0.0f64, f64::max);
    r.claim(Claim::new(
        "irq_to_handler.max_us",
        "largest IRQ→handler variation 440 µs under load",
        440.0,
        max_var,
        "us",
        Band::Absolute(300.0),
    ));
    let min_var = h5.iter().copied().fold(f64::INFINITY, f64::min);
    r.claim(Claim::new(
        "irq_to_handler.min_us",
        "baseline dispatch latency (vector fetch + register save)",
        25.0,
        min_var,
        "us",
        Band::RelativeFrac(0.2),
    ));
    r
}

/// E4 (§5.2.3): the PC/AT measurement tool's own error.
pub fn e4_pcat_tool(cfg: ExpCfg) -> Report {
    let mut r = Report::new("E4 (§5.2.3): PC/AT timestamper error on a solid 12 ms source");
    // A perfectly solid source (as the logic analyzer established).
    let mut src = EdgeLog::new("vca-irq");
    let n = cfg.short_secs * 1000 / 12;
    for k in 0..n {
        src.record(SimTime::from_ms(12 * k), k + 1);
    }
    let mut tool = PcAt::new(PcAtCfg::default(), Pcg32::new(cfg.seed, 0x9C));
    let cap = tool.observe(&[&src], SimTime::from_secs(cfg.short_secs));
    let rec = cap.reconstruct();
    let intervals: Vec<f64> = rec[0]
        .inter_occurrence()
        .iter()
        .map(|d| d.as_us_f64())
        .collect();
    let s = Summary::of(&intervals);
    let spread = (s.max - 12_000.0).max(12_000.0 - s.min);
    r.claim(Claim::new(
        "pcat.spread_us",
        "spread around the 12 ms mean (paper observed 120 µs; our model's \
         per-edge service error is bounded by the 60 µs loop)",
        120.0,
        spread,
        "us",
        Band::Informational,
    ));
    r.claim(Claim::new(
        "pcat.loop_worst_us",
        "worst-case service loop execution time",
        60.0,
        PcAtCfg::default().loop_worst.as_us_f64(),
        "us",
        Band::Absolute(0.0),
    ));
    r.claim(Claim::new(
        "pcat.mean_us",
        "the tool does not bias the mean",
        12_000.0,
        s.mean,
        "us",
        Band::RelativeFrac(0.001),
    ));
    r
}

/// E5 (Figure 5-2): test case B, histogram 6 — VCA handler entry to just
/// prior to transmission.
pub fn e5_fig5_2(cfg: ExpCfg) -> Report {
    let mut r = Report::new("E5 (Figure 5-2): case B, handler entry → pre-transmit");
    let sc = Scenario::test_case_b(cfg.seed);
    let mut bed = Testbed::ctms(&sc);
    bed.run_until(SimTime::from_secs(cfg.short_secs));
    let xs = bed.measurement_set().samples_us(HistId::H6);
    let hist = Histogram::of(&xs, 0.0, 500.0);
    let peaks = hist.peaks(0.01);
    r.claim(Claim::new(
        "h6.multimodal",
        "'This particular histogram is interesting because of the bi-model curve'",
        2.0,
        (peaks.len() as f64).min(2.0),
        "modes",
        Band::Absolute(0.0),
    ));
    r.claim(Claim::new(
        "h6.peak1_center",
        "first-peak mean ≈ 2600 µs (2000 µs copy + 600 µs code)",
        2600.0,
        peaks.first().map(|&(c, _)| c).unwrap_or(0.0),
        "us",
        Band::RelativeFrac(0.1),
    ));
    r.claim(Claim::new(
        "h6.frac_peak1",
        "68 % within 500 µs of 2600 µs",
        0.68,
        fraction_within(&xs, 2600.0, 500.0),
        "",
        Band::Absolute(0.08),
    ));
    r.claim(Claim::new(
        "h6.frac_peak2",
        "15 % within 500 µs of 9400 µs (our queueing model concentrates the \
         delayed mass at ~7.2 ms instead — see EXPERIMENTS.md)",
        0.15,
        fraction_within(&xs, 9400.0, 500.0),
        "",
        Band::Informational,
    ));
    r.claim(Claim::new(
        "h6.frac_delayed",
        "fraction delayed beyond the first peak (paper: 15 % + 16.5 % + tails ≈ 0.32)",
        0.32,
        fraction_in_range(&xs, 3100.0, f64::INFINITY),
        "",
        Band::Absolute(0.10),
    ));
    r.claim(Claim::new(
        "h6.copy_cost",
        "'2000 microseconds of latency specifically attributable to copying'",
        2000.0,
        sc.calib
            .kern
            .copy
            .copy(
                2000,
                ctms_rtpc::MemRegion::System,
                ctms_rtpc::MemRegion::IoChannel,
            )
            .as_us_f64(),
        "us",
        Band::Absolute(0.0),
    ));
    r.note(hist.render_ascii("Figure 5-2 (reproduced): case B histogram 6", "us", 60));
    r
}

/// E6 (Figure 5-3): test case A, histogram 7 — transmitter to receiver.
pub fn e6_fig5_3(cfg: ExpCfg) -> Report {
    let mut r = Report::new("E6 (Figure 5-3): case A, pre-transmit → CTMSP identified");
    let sc = Scenario::test_case_a(cfg.seed);
    let mut bed = Testbed::ctms(&sc);
    bed.run_until(SimTime::from_secs(cfg.short_secs));
    let xs = bed.measurement_set().samples_us(HistId::H7);
    let s = Summary::of(&xs);
    r.claim(Claim::new(
        "h7a.min",
        "minimum latency of a 2000-byte packet is 10 740 µs",
        10_740.0,
        s.min,
        "us",
        Band::RelativeFrac(0.01),
    ));
    r.claim(Claim::new(
        "h7a.mean",
        "10 894 µs mean",
        10_894.0,
        s.mean,
        "us",
        Band::RelativeFrac(0.01),
    ));
    r.claim(Claim::new(
        "h7a.frac_core",
        "98 % of data points within 160 µs of the mean",
        0.98,
        fraction_within(&xs, s.mean, 160.0),
        "",
        Band::Absolute(0.03),
    ));
    r.claim(Claim::new(
        "h7a.tail_max",
        "right tail extends to ~14 600 µs",
        14_600.0,
        s.max,
        "us",
        Band::RelativeFrac(0.25),
    ));
    let hist = Histogram::of(&xs, 10_000.0, 160.0);
    r.note(hist.render_ascii("Figure 5-3 (reproduced): case A histogram 7", "us", 60));
    r
}

/// E7 (Figure 5-4): test case B, histogram 7, over the paper's 117-minute
/// run (or `cfg.long_secs`).
pub fn e7_fig5_4(cfg: ExpCfg) -> Report {
    let mut r = Report::new("E7 (Figure 5-4): case B, pre-transmit → CTMSP identified");
    let sc = Scenario::test_case_b(cfg.seed);
    let mut bed = Testbed::ctms(&sc);
    bed.run_until(SimTime::from_secs(cfg.long_secs));
    let xs = bed.measurement_set().samples_us(HistId::H7);
    let s = Summary::of(&xs);
    r.claim(Claim::new(
        "h7b.min",
        "minimum latency 10 750 µs",
        10_750.0,
        s.min,
        "us",
        Band::RelativeFrac(0.01),
    ));
    r.claim(Claim::new(
        "h7b.frac_core",
        "76 % within 160 µs of the 10 900 µs peak",
        0.76,
        fraction_within(&xs, 10_900.0, 160.0),
        "",
        Band::Absolute(0.08),
    ));
    r.claim(Claim::new(
        "h7b.frac_mid",
        "21.5 % in 11 060–15 000 µs",
        0.215,
        fraction_in_range(&xs, 11_060.0, 15_000.0),
        "",
        Band::Absolute(0.08),
    ));
    r.claim(Claim::new(
        "h7b.frac_heavy",
        "2.49 % in 15 000–40 050 µs",
        0.0249,
        fraction_in_range(&xs, 15_000.0, 40_050.0),
        "",
        Band::Absolute(0.02),
    ));
    // The two exceptional points: insertion events that delayed packets
    // into the 100+ ms range.
    let outlier_samples = xs.iter().filter(|&&x| x >= 100_000.0).count();
    let insertions = bed.purge_starts().len();
    r.claim(Claim::new(
        "h7b.outlier_events",
        "ring insertions during the run produce the 120–130 ms exceptional \
         points (paper: 2 over 117 min)",
        (cfg.long_secs as f64 / 3600.0 * 0.8 + 0.2).round(),
        insertions as f64,
        "events",
        Band::Informational,
    ));
    r.note(format!(
        "samples ≥ 100 ms: {outlier_samples} from {insertions} purge sequences \
         (the paper singles out the two extreme points; our model also \
         retains the drained backlog behind each insertion)"
    ));
    let hist = Histogram::of(&xs, 10_000.0, 500.0);
    r.note(hist.render_ascii("Figure 5-4 (reproduced): case B histogram 7", "us", 60));
    r
}

/// E8 (§5.3): histograms 1–5, "values which could easily be explained".
pub fn e8_hist1_5(cfg: ExpCfg) -> Report {
    let mut r = Report::new("E8 (§5.3): histograms 1–5 for both test cases");
    for (name, sc) in [
        ("A", Scenario::test_case_a(cfg.seed)),
        ("B", Scenario::test_case_b(cfg.seed)),
    ] {
        let mut bed = Testbed::ctms(&sc);
        bed.run_until(SimTime::from_secs(cfg.short_secs));
        let set = bed.measurement_set();
        let h1 = Summary::of(&set.samples_us(HistId::H1));
        r.claim(Claim::new(
            format!("{name}.h1_mean"),
            "VCA IRQ inter-occurrence is the solid 12 ms period",
            12_000.0,
            h1.mean,
            "us",
            Band::RelativeFrac(0.001),
        ));
        r.claim(Claim::new(
            format!("{name}.h1_sd"),
            "…with no detectable variation",
            0.0,
            h1.std_dev,
            "us",
            Band::Absolute(1.0),
        ));
        let h2 = Summary::of(&set.samples_us(HistId::H2));
        r.claim(Claim::new(
            format!("{name}.h2_mean"),
            "handler-entry inter-occurrence centred on the period",
            12_000.0,
            h2.mean,
            "us",
            Band::RelativeFrac(0.001),
        ));
        let h5 = Summary::of(&set.samples_us(HistId::H5));
        r.claim(Claim::new(
            format!("{name}.h5_min"),
            "IRQ→handler delta bounded below by the dispatch cost",
            25.0,
            h5.min,
            "us",
            Band::RelativeFrac(0.05),
        ));
        let h3 = Summary::of(&set.samples_us(HistId::H3));
        r.claim(Claim::new(
            format!("{name}.h3_mean"),
            "pre-transmit inter-occurrence centred on the period",
            12_000.0,
            h3.mean,
            "us",
            Band::RelativeFrac(0.01),
        ));
        let h4 = Summary::of(&set.samples_us(HistId::H4));
        r.claim(Claim::new(
            format!("{name}.h4_mean"),
            "receive-point inter-occurrence centred on the period",
            12_000.0,
            h4.mean,
            "us",
            Band::RelativeFrac(0.01),
        ));
    }
    r
}

/// E9 (§4/§5): Ring Purge and MAC-frame rates.
pub fn e9_ring_purges(cfg: ExpCfg) -> Report {
    let mut r = Report::new("E9 (§4/§5): Ring Purge frequency and MAC traffic");
    // Insertion frequency over a simulated day, generator-level (cheap:
    // traffic classes are zeroed, only the churn process runs).
    use ctms_sim::drain_component;
    let mut pc = ctms_workloads::PhantomCfg::public(vec![]);
    pc.small_rate = 0.0;
    pc.arp_rate = 0.0;
    pc.burst_rate = 0.0;
    let mut gen = ctms_workloads::PhantomTraffic::new(pc, Pcg32::new(cfg.seed, 0xE9));
    let _ = drain_component(&mut gen, SimTime::from_secs(24 * 3600));
    r.claim(Claim::new(
        "insertions_per_day",
        "'The number was under 20, approximately one an hour'",
        19.2,
        gen.stats().insertions as f64,
        "/day",
        Band::RelativeFrac(0.45),
    ));

    // Purges per insertion and MAC rate, from a short full-testbed run.
    let sc = Scenario::test_case_b(cfg.seed);
    let mut bed = Testbed::ctms(&sc);
    // Force one insertion immediately so short runs observe a sequence.
    bed.disturb(ctms_tokenring::Disturb::StationInsertion);
    bed.run_until(SimTime::from_secs(cfg.short_secs));
    let stats = bed.ring().stats();
    r.claim(Claim::new(
        "purges_per_insertion",
        "'we have seen on the order of 10 Ring Purges back to back'",
        10.0,
        stats.purges as f64 / stats.purge_sequences.max(1) as f64,
        "",
        Band::RelativeFrac(0.3),
    ));
    let mac_rate = stats.mac_frames as f64 / cfg.short_secs as f64;
    r.claim(Claim::new(
        "mac_per_sec",
        "'between 50 and 250 interrupts to handle MAC frames per second' \
         (at 0.2–1.0 % ring load; the testbed runs at the quiet 0.2 % end)",
        50.0,
        mac_rate,
        "/s",
        Band::RelativeFrac(0.25),
    ));
    let mac_util = stats.mac_frames as f64 * 25.0 * 8.0 * 250e-9 / cfg.short_secs as f64;
    r.claim(Claim::new(
        "mac_util",
        "MAC traffic uses 0.2–1.0 % of the ring",
        0.002,
        mac_util,
        "",
        Band::RelativeFrac(0.5),
    ));
    // TAP sees the purge sequence.
    r.claim(Claim::new(
        "tap.purges",
        "TAP records the Ring Purge MAC frames",
        stats.purges as f64,
        bed.tap().purges() as f64,
        "",
        Band::Absolute(0.0),
    ));
    r
}

/// E10 (§6): worst-case latency and buffer-space conclusion.
pub fn e10_conclusions(cfg: ExpCfg) -> Report {
    let mut r = Report::new("E10 (§6): worst-case latency and buffer requirement");
    let sc = Scenario::test_case_b(cfg.seed);
    let mut bed = Testbed::ctms(&sc);
    bed.run_until(SimTime::from_secs(cfg.long_secs));
    let set = bed.measurement_set();
    let xs = set.samples_us(HistId::H7);
    // The paper attributes its exceptional points to the ring "timing out
    // and resetting" (purges); a regular sample is one whose transfer
    // window overlaps no purge sequence.
    let rx_by_tag: std::collections::HashMap<u64, SimTime> =
        set.ctmsp_rx.edges().map(|e| (e.tag, e.at)).collect();
    let purges: Vec<SimTime> = bed.purge_starts().iter().collect();
    let overlaps_purge = |t0: SimTime, t1: SimTime| {
        purges
            .iter()
            .any(|&p| p + Dur::from_ms(200) >= t0 && p <= t1)
    };
    let worst_regular = set
        .pre_tx
        .edges()
        .filter_map(|e| {
            let rx = *rx_by_tag.get(&e.tag)?;
            let d = rx.checked_since(e.at)?;
            if overlaps_purge(e.at, rx) {
                None
            } else {
                Some(d.as_us_f64())
            }
        })
        .fold(0.0f64, f64::max);
    r.claim(Claim::new(
        "worst_regular_ms",
        "'the worst case times between transmission and reception of a \
         single packet is 40 milliseconds' (excluding insertion outliers)",
        40.0,
        worst_regular / 1000.0,
        "ms",
        Band::RelativeFrac(0.5),
    ));
    let outliers: Vec<f64> = xs.iter().copied().filter(|&x| x >= 100_000.0).collect();
    if !outliers.is_empty() {
        let max_out = outliers.iter().copied().fold(0.0f64, f64::max);
        r.claim(Claim::new(
            "outlier_ms",
            "'two exceptional data points within the 120 to 130 millisecond range'",
            125.0,
            max_out / 1000.0,
            "ms",
            Band::RelativeFrac(0.2),
        ));
    }
    let buf = bed.buffer_requirement_bytes(sc.data_rate(), sc.pkt_len);
    r.claim(Claim::new(
        "buffer_bytes",
        "'the buffer space needed for 150KBytes/sec CTMSP data transfer is \
         under 25KBytes'",
        25_600.0,
        buf,
        "B",
        Band::Informational,
    ));
    r.claim(Claim::new(
        "buffer_under_25k",
        "buffer requirement is under 25 KB",
        1.0,
        if buf < 25_600.0 { 1.0 } else { 0.0 },
        "",
        Band::Absolute(0.0),
    ));
    // Recovery accounting: every loss anywhere on the path (purge, queue
    // overflow, receive overrun, mbuf exhaustion) appears to the receiver
    // as a tolerated sequence gap — and nothing else does.
    let src = bed
        .host(0)
        .kernel
        .driver_ref::<CtmsVcaSource>(bed.roles.vca_src)
        .expect("source");
    let sink = bed
        .host(1)
        .kernel
        .driver_ref::<CtmsVcaSink>(bed.roles.vca_sink)
        .expect("sink");
    let produced = src.stats().pkts_sent + src.stats().mbuf_drops;
    let received = sink.stats().received;
    let expected_gaps = produced.saturating_sub(received) as f64;
    r.claim(Claim::new(
        "recovery.gaps",
        "receiver recovery tolerates exactly the lost packets (± in-flight)",
        expected_gaps,
        sink.stats().missed_pkts as f64,
        "pkts",
        Band::Absolute(3.0),
    ));
    r.note(format!(
        "losses: purge={} other_drops={} (of {} produced)",
        bed.lost_to_purge(),
        bed.drops(),
        produced
    ));
    r
}

/// One ablation row: scenario label + H6/H7 means + delivery.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Variant label.
    pub label: String,
    /// Mean handler-entry→pre-transmit latency (µs).
    pub h6_mean: f64,
    /// Mean pre-transmit→identified latency (µs).
    pub h7_mean: f64,
    /// 99th-percentile H7 (µs).
    pub h7_p99: f64,
    /// Delivered fraction.
    pub delivered: f64,
}

/// Runs one scenario and summarizes it for the ablation table.
pub fn ablation_row(label: &str, sc: &Scenario, secs: u64) -> AblationRow {
    let mut bed = Testbed::ctms(sc);
    bed.run_until(SimTime::from_secs(secs));
    let set = bed.measurement_set();
    let h6 = set.samples_us(HistId::H6);
    let h7 = set.samples_us(HistId::H7);
    let src = bed
        .host(0)
        .kernel
        .driver_ref::<CtmsVcaSource>(bed.roles.vca_src)
        .map(|s| s.stats().pkts_sent)
        .unwrap_or(0)
        .max(1);
    let sink = bed
        .host(1)
        .kernel
        .driver_ref::<CtmsVcaSink>(bed.roles.vca_sink)
        .map(|s| s.stats().received)
        .unwrap_or(0);
    AblationRow {
        label: label.to_string(),
        h6_mean: Summary::of(&h6).mean,
        h7_mean: Summary::of(&h7).mean,
        h7_p99: ctms_stats::quantile(&h7, 0.99),
        delivered: sink as f64 / src as f64,
    }
}

/// E11 (§5.3): the design-variant ablation grid.
pub fn e11_ablation(cfg: ExpCfg) -> Report {
    let mut r = Report::new("E11 (§5.3): design-variant ablations");
    let secs = cfg.short_secs;
    let base = Scenario::test_case_b(cfg.seed);
    let rows = e11_rows(&base, secs);
    let find =
        |label: &str| -> &AblationRow { rows.iter().find(|r| r.label == label).expect("row") };
    let b = find("baseline (case B)");

    // Header precomputation saves its per-packet cost in H6; measured on
    // the unloaded case A so queueing does not amplify the difference.
    let base_a = Scenario::test_case_a(cfg.seed);
    let a_row = ablation_row("case A baseline", &base_a, secs);
    let mut sc = base_a.clone();
    sc.precomputed_header = false;
    let a_nh = ablation_row("case A, header recomputed", &sc, secs);
    r.claim(Claim::new(
        "ablate.header",
        "precomputed header removes a per-packet cost (§3)",
        135.0,
        a_nh.h6_mean - a_row.h6_mean,
        "us",
        Band::RelativeFrac(0.3),
    ));

    // Header-only copy removes the 2000-byte copy; measured on the
    // unloaded case A (under load the shorter service time also changes
    // queueing, amplifying the difference).
    let mut sc = base_a.clone();
    sc.tx_copy_full = false;
    let a_hc = ablation_row("case A, header-only copy", &sc, secs);
    r.claim(Claim::new(
        "ablate.tx_copy",
        "header-only transmit copy saves ~2000 µs (§2 pointer-transfer direction)",
        -2000.0,
        a_hc.h6_mean - a_row.h6_mean,
        "us",
        Band::RelativeFrac(0.1),
    ));

    // Ring priority bounds the tail. Measured with standalone hosts on
    // the public ring so token contention is the only variable (case B's
    // kernel-noise tail otherwise swamps the p99).
    let mut iso = Scenario::test_case_b(cfg.seed);
    iso.host_load = crate::scenario::HostLoad::Standalone;
    let with_prio = ablation_row("iso ring-priority on", &iso, secs);
    let mut iso_off = iso.clone();
    iso_off.ring_priority = false;
    let without = ablation_row("iso ring-priority off", &iso_off, secs);
    r.claim(Claim::new(
        "ablate.ring_priority",
        "removing ring priority lengthens the transfer tail (p99 grows)",
        1.0,
        if without.h7_p99 > with_prio.h7_p99 + 100.0 {
            1.0
        } else {
            0.0
        },
        "",
        Band::Absolute(0.0),
    ));
    r.note(format!(
        "isolated p99 H7: ring-priority on {:.0} µs vs off {:.0} µs",
        with_prio.h7_p99, without.h7_p99
    ));

    // §4's third modification, measured directly: with system-memory DMA
    // buffers the transmitter's CPU loses cycles to bus arbitration on
    // every transfer; IO Channel Memory buffers lose none.
    let stall = |io_channel: bool| -> u64 {
        let mut sc = Scenario::test_case_a(cfg.seed);
        sc.io_channel_memory = io_channel;
        let mut bed = Testbed::ctms(&sc);
        bed.run_until(SimTime::from_secs(secs.min(30)));
        bed.host(0).machine.bus_stats().cpu_stall_ns + bed.host(1).machine.bus_stats().cpu_stall_ns
    };
    let stall_sys = stall(false);
    let stall_io = stall(true);
    r.claim(Claim::new(
        "ablate.io_channel_memory",
        "IO Channel Memory removes all DMA-induced CPU stalls (§4)",
        0.0,
        stall_io as f64 / 1e6,
        "ms",
        Band::Absolute(0.001),
    ));
    r.note(format!(
        "CPU stall from adapter DMA: system-memory buffers {:.1} ms vs          IO Channel Memory {:.1} ms (over the run, both hosts)",
        stall_sys as f64 / 1e6,
        stall_io as f64 / 1e6
    ));

    // Driver priority protects H6 under load.
    let ndp = find("no driver priority");
    r.claim(Claim::new(
        "ablate.driver_priority",
        "removing driver priority worsens handler→transmit latency under load",
        1.0,
        if ndp.h6_mean > b.h6_mean { 1.0 } else { 0.0 },
        "",
        Band::Absolute(0.0),
    ));

    for row in &rows {
        r.note(format!(
            "{:<34} h6={:>8.0}us h7={:>8.0}us p99={:>8.0}us delivered={:.4}",
            row.label, row.h6_mean, row.h7_mean, row.h7_p99, row.delivered
        ));
    }
    r
}

/// The ablation grid rows (shared by the report and the ablation bench).
/// Each variant is an independent simulation, so the grid fans out over
/// worker threads; results come back in grid order, byte-identical to a
/// sequential run.
pub fn e11_rows(base: &Scenario, secs: u64) -> Vec<AblationRow> {
    let variant = |label: &str, tweak: fn(&mut Scenario)| {
        let mut sc = base.clone();
        tweak(&mut sc);
        (label.to_string(), sc)
    };
    let grid = vec![
        variant("baseline (case B)", |_| {}),
        variant("header recomputed per packet", |sc| {
            sc.precomputed_header = false;
        }),
        variant("header-only transmit copy", |sc| sc.tx_copy_full = false),
        variant("in-place receive (no rx copy)", |sc| {
            sc.rx_copy_to_mbufs = false;
        }),
        variant("no ring priority", |sc| sc.ring_priority = false),
        variant("no driver priority", |sc| sc.driver_priority = false),
        variant("system-memory DMA buffers", |sc| {
            sc.io_channel_memory = false;
        }),
        variant("hypothetical purge interrupt", |sc| {
            sc.purge_interrupt = true;
        }),
    ];
    let threads = ctms_sim::default_threads(grid.len());
    ctms_sim::parallel_map(grid, threads, move |(label, sc)| {
        ablation_row(&label, &sc, secs)
    })
}

/// E12 (extension, §1 footnote 5): a CTMS stream crossing two rings
/// through a router — "possible but has not been implemented", now
/// implemented and measured.
pub fn e12_router(cfg: ExpCfg) -> Report {
    use crate::chain::DualRingTestbed;
    use ctms_router::BridgeKind;
    let mut r = Report::new("E12 (ext, §1 note 5): inter-ring CTMS through a router");
    let horizon = SimTime::from_secs(cfg.short_secs);
    let sc = Scenario::test_case_a(cfg.seed);

    let run = |kind: BridgeKind, sc: &Scenario| {
        let mut bed = DualRingTestbed::new(sc, kind);
        bed.run_until(horizon);
        let (sent, received, drops) = bed.counters();
        let h7 = bed.measurement_set().samples_us(HistId::H7);
        (sent, received, drops, Summary::of(&h7))
    };

    // Cut-through bridge at full rate.
    let (sent, received, drops, s) = run(BridgeKind::cut_through_bridge(), &sc);
    r.claim(Claim::new(
        "bridge.delivery",
        "a cut-through bridge carries the full-rate stream across two rings",
        1.0,
        received as f64 / sent.max(1) as f64,
        "",
        Band::Absolute(0.01),
    ));
    r.note(format!(
        "cut-through: {received}/{sent} delivered, {drops} dropped,          end-to-end mean {:.1} ms (single-ring: ~10.9 ms)",
        s.mean / 1000.0
    ));
    let single_ring_mean = 10_900.0;
    r.claim(Claim::new(
        "bridge.extra_latency_ms",
        "the second ring + bridge cost one extra hop (~+5–7 ms)",
        6.0,
        (s.mean - single_ring_mean) / 1000.0,
        "ms",
        Band::RelativeFrac(0.4),
    ));

    // A 1991 forwarding host at full rate: saturates.
    let (sent, received, drops, _) = run(BridgeKind::host_router_1991(), &sc);
    r.claim(Claim::new(
        "host_router.full_rate_fails",
        "a 1991 store-and-forward host cannot keep up with the 12 ms stream          (service ≈ 12.6 ms per packet)",
        1.0,
        if (received as f64) < sent as f64 * 0.97 && drops > 0 {
            1.0
        } else {
            0.0
        },
        "",
        Band::Absolute(0.0),
    ));
    r.note(format!(
        "host router at full rate: {received}/{sent} delivered, {drops} dropped"
    ));

    // …and keeps up at half rate: the crossover.
    let mut half = sc.clone();
    half.period = Dur::from_ms(24);
    let (sent, received, _, _) = run(BridgeKind::host_router_1991(), &half);
    r.claim(Claim::new(
        "host_router.half_rate_ok",
        "the same host keeps up at half rate — the crossover lies between          ~83 and ~167 KB/s",
        1.0,
        received as f64 / sent.max(1) as f64,
        "",
        Band::Absolute(0.01),
    ));
    r
}

/// E13 (extension): stream capacity of a 4 Mbit ring — how many
/// concurrent CTMS streams (the title's "necessary data rates") fit?
///
/// Arithmetic: each stream needs a 2021-byte frame (plus token overhead)
/// every 12 ms ≈ 4.1 ms of ring time, so the medium saturates just
/// below three streams. The experiment measures the cliff.
pub fn e13_capacity(cfg: ExpCfg) -> Report {
    let mut r = Report::new("E13 (ext): concurrent CTMS streams on one 4 Mbit ring");
    let horizon = SimTime::from_secs(cfg.short_secs);
    // Each stream count is an independent simulation: sweep them across
    // worker threads, results in stream-count order.
    let counts: Vec<usize> = (1..=3).collect();
    let seed = cfg.seed;
    let rows = ctms_sim::parallel_map(counts, ctms_sim::default_threads(3), move |n| {
        let sc = Scenario::test_case_a(seed + n as u64);
        let mut bed = Testbed::multi_stream(&sc, n);
        bed.run_until(horizon);
        let mut sent_total = 0u64;
        let mut recv_total = 0u64;
        for k in 0..n {
            let (s, rx) = bed.stream_counters(k);
            sent_total += s;
            recv_total += rx;
        }
        let frac = recv_total as f64 / sent_total.max(1) as f64;
        let util = bed.ring().stats().busy_ns as f64 / horizon.as_ns() as f64;
        (n, frac, util)
    });
    let mut deliveries = Vec::new();
    let mut utils = Vec::new();
    for (n, frac, util) in rows {
        deliveries.push(frac);
        utils.push(util);
        r.note(format!(
            "{n} stream(s): delivered {frac:.4}, ring utilization {util:.2}"
        ));
    }
    r.claim(Claim::new(
        "capacity.two_streams",
        "two ~167 KB/s streams fit on a 4 Mbit ring",
        1.0,
        deliveries[1],
        "",
        Band::Absolute(0.01),
    ));
    r.claim(Claim::new(
        "capacity.three_streams_overload",
        "three streams exceed the medium (~12.3 ms of ring time per 12 ms): \
         the ring saturates and deliveries start falling behind",
        1.0,
        if deliveries[2] < 0.99 && utils[2] > 0.98 {
            1.0
        } else {
            0.0
        },
        "",
        Band::Absolute(0.0),
    ));
    r.claim(Claim::new(
        "capacity.one_stream_latency",
        "a single stream behaves exactly as the single-stream testbed",
        1.0,
        deliveries[0],
        "",
        Band::Absolute(0.01),
    ));
    r
}

/// E14 (extension): the same stream on a 16 Mbit ring (the TAP manual's
/// "16/4" adapter supports both speeds). Wire time quarters; the host
/// path (copies, DMA, interrupts) is untouched, so the latency floor
/// drops by exactly the transmission-time difference, and the medium's
/// stream capacity roughly quadruples.
pub fn e14_ring_speed(cfg: ExpCfg) -> Report {
    let mut r = Report::new("E14 (ext): 4 Mbit vs 16 Mbit ring");
    let horizon = SimTime::from_secs(cfg.short_secs);
    // The four (ring speed, stream count) points are independent
    // simulations; run the grid across worker threads.
    let seed = cfg.seed;
    let grid: Vec<(u64, usize)> = vec![
        (4_000_000, 1),
        (16_000_000, 1),
        (16_000_000, 8),
        (4_000_000, 3),
    ];
    let points = ctms_sim::parallel_map(
        grid,
        ctms_sim::default_threads(4),
        move |(bps, n_streams)| {
            let mut sc = Scenario::test_case_a(seed);
            sc.calib.ring.bit_rate_bps = bps;
            let mut bed = Testbed::multi_stream(&sc, n_streams);
            bed.run_until(horizon);
            let mut sent = 0u64;
            let mut recv = 0u64;
            for k in 0..n_streams {
                let (s, x) = bed.stream_counters(k);
                sent += s;
                recv += x;
            }
            let h7 = bed.measurement_set().samples_us(HistId::H7);
            (recv as f64 / sent.max(1) as f64, Summary::of(&h7).min)
        },
    );

    let (_, min4) = points[0];
    let (_, min16) = points[1];
    // 2021 bytes: 4042 µs at 4 Mbit vs 1010.5 µs at 16 Mbit.
    r.claim(Claim::new(
        "ring16.latency_cut_us",
        "the latency floor drops by the wire-time difference (~3032 µs)",
        3031.0,
        min4 - min16,
        "us",
        Band::RelativeFrac(0.05),
    ));
    let (d8, _) = points[2];
    r.claim(Claim::new(
        "ring16.eight_streams",
        "eight ~167 KB/s streams fit on a 16 Mbit ring (vs two on 4 Mbit)",
        1.0,
        d8,
        "",
        Band::Absolute(0.01),
    ));
    let (d3_4, _) = points[3];
    r.note(format!(
        "for contrast, three streams on 4 Mbit deliver only {d3_4:.4}"
    ));
    r
}

/// E15 (§5): the spl audit. "In the first case, out of order packets
/// were a direct result of the Token Ring device driver implementation.
/// Once the critical sections of code were more carefully protected, the
/// problem of out of order packets completely disappeared." The racy
/// driver is reproduced behind a flag; TAP and the watchdog catch it,
/// and the protected driver is verifiably clean.
pub fn e15_spl_audit(cfg: ExpCfg) -> Report {
    use ctms_measure::{Anomaly, WatchEvent, Watchdog, WatchdogCfg};
    let mut r = Report::new("E15 (§5): out-of-order packets from unprotected critical sections");
    let horizon = SimTime::from_secs(cfg.short_secs);

    let run = |racy: bool| {
        let mut sc = Scenario::test_case_b(cfg.seed);
        sc.racy_driver = racy;
        let mut bed = Testbed::ctms(&sc);
        bed.run_until(horizon);
        let tap_ooo = bed.tap().analyze_stream().out_of_order;
        // The §5.2.1 watchdog watches the pre-transmit point online.
        let mut dog = Watchdog::new(WatchdogCfg {
            max_interval: Dur::from_secs(1),
            snapshot_len: 32,
            tolerate_gaps: true,
        });
        let set = bed.measurement_set();
        let mut halt = None;
        for edge in set.pre_tx.edges() {
            if let Some(a) = dog.feed(WatchEvent {
                point: 2,
                at: edge.at,
                tag: edge.tag,
            }) {
                halt = Some(a);
                break;
            }
        }
        (tap_ooo, halt, dog.snapshot().len())
    };

    let (ooo_racy, halt_racy, snapshot) = run(true);
    r.claim(Claim::new(
        "racy.tap_sees_ooo",
        "TAP detects out-of-order CTMSP packets from the racy driver",
        1.0,
        if ooo_racy > 0 { 1.0 } else { 0.0 },
        "",
        Band::Absolute(0.0),
    ));
    r.claim(Claim::new(
        "racy.watchdog_halts",
        "the §5.2.1 watchdog halts the run and keeps a snapshot",
        1.0,
        if matches!(halt_racy, Some(Anomaly::OutOfOrder { .. })) && snapshot > 0 {
            1.0
        } else {
            0.0
        },
        "",
        Band::Absolute(0.0),
    ));
    r.note(format!(
        "racy driver: {ooo_racy} out-of-order frames on the wire; watchdog          halted with {halt_racy:?} and a {snapshot}-event snapshot"
    ));

    let (ooo_fixed, halt_fixed, _) = run(false);
    r.claim(Claim::new(
        "protected.no_ooo",
        "with protected critical sections the problem 'completely disappeared'",
        0.0,
        ooo_fixed as f64,
        "frames",
        Band::Absolute(0.0),
    ));
    r.claim(Claim::new(
        "protected.watchdog_quiet",
        "the watchdog never halts a protected run",
        0.0,
        if halt_fixed.is_some() { 1.0 } else { 0.0 },
        "",
        Band::Absolute(0.0),
    ));
    r
}

/// Runs every experiment at the given fidelity.
pub fn all(cfg: ExpCfg) -> Vec<Report> {
    vec![
        e1_stock_unix(cfg),
        e2_copy_count(cfg),
        e3_logic_analyzer(cfg),
        e4_pcat_tool(cfg),
        e5_fig5_2(cfg),
        e6_fig5_3(cfg),
        e7_fig5_4(cfg),
        e8_hist1_5(cfg),
        e9_ring_purges(cfg),
        e10_conclusions(cfg),
        e11_ablation(cfg),
        e12_router(cfg),
        e13_capacity(cfg),
        e14_ring_speed(cfg),
        e15_spl_audit(cfg),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: ExpCfg = ExpCfg {
        seed: 42,
        short_secs: 15,
        long_secs: 40,
    };

    #[test]
    fn copy_census_matches_section_2() {
        assert_eq!(copy_census(true, true, true), 4);
        assert_eq!(copy_census(false, true, true), 2);
        assert_eq!(copy_census(false, false, false), 0);
    }

    #[test]
    fn e2_copy_savings() {
        let r = e2_copy_count(QUICK);
        assert!(r.all_hold(), "{}", r.render());
    }

    #[test]
    fn e3_holds() {
        let r = e3_logic_analyzer(QUICK);
        // The 440 µs max-variation claim is load-dependent on short runs;
        // check the other claims strictly.
        for c in &r.claims {
            if c.id != "irq_to_handler.max_us" {
                assert!(c.holds(), "{}: {}", c.id, r.render());
            }
        }
    }

    #[test]
    fn e4_holds() {
        let r = e4_pcat_tool(QUICK);
        assert!(r.all_hold(), "{}", r.render());
    }

    #[test]
    fn e6_case_a_core_claims() {
        let r = e6_fig5_3(QUICK);
        for c in &r.claims {
            if c.id == "h7a.tail_max" {
                continue; // tail needs long runs to fill
            }
            assert!(c.holds(), "{}: {}", c.id, r.render());
        }
    }

    #[test]
    fn e9_purge_machinery() {
        let r = e9_ring_purges(QUICK);
        for c in &r.claims {
            if c.id == "purges_per_insertion" || c.id == "tap.purges" {
                assert!(c.holds(), "{}: {}", c.id, r.render());
            }
        }
    }
}
