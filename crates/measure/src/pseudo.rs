//! The in-kernel pseudo-device-driver timestamper (§5.2.1).
//!
//! The paper's first attempt: event-recording procedure calls inside the
//! Token Ring driver, read out through a pseudo device. Its documented
//! flaws, reproduced here:
//!
//! * clock granularity of only 122 µs,
//! * interaction error — with interrupts enabled during the recording
//!   procedure, "the time stamp could be significantly in error due to
//!   the possibility that another interrupt occurred while executing the
//!   recording procedure";
//! * with interrupts disabled, the procedure itself delays other
//!   measurement points (not modelled per-point; the enabled mode is the
//!   one the paper describes as used).
//!
//! "All in all, this was a poor method of recording data … but was
//! extremely good at helping to find bugs."

use ctms_sim::{Dur, EdgeLog, Pcg32};

/// Pseudo-driver configuration.
#[derive(Clone, Copy, Debug)]
pub struct PseudoCfg {
    /// Clock granularity (§5.2.1: 122 µs).
    pub granularity: Dur,
    /// Probability an interrupt perturbs a recording.
    pub interference_prob: f64,
    /// Maximum perturbation when interfered with.
    pub interference_max: Dur,
}

impl Default for PseudoCfg {
    fn default() -> Self {
        PseudoCfg {
            granularity: Dur::from_us(122),
            interference_prob: 0.05,
            interference_max: Dur::from_us(400),
        }
    }
}

/// The pseudo-driver instrument.
#[derive(Debug)]
pub struct PseudoDriver {
    cfg: PseudoCfg,
    rng: Pcg32,
}

impl PseudoDriver {
    /// Creates the instrument.
    pub fn new(cfg: PseudoCfg, rng: Pcg32) -> Self {
        PseudoDriver { cfg, rng }
    }

    /// Views a ground-truth log through the instrument's error model.
    pub fn observe(&mut self, log: &EdgeLog) -> EdgeLog {
        let mut out = EdgeLog::new(format!("pseudo-{}", log.name()));
        let mut last = ctms_sim::SimTime::ZERO;
        for e in log.edges() {
            let mut at = e.at;
            if self.rng.chance(self.cfg.interference_prob) {
                at += self.rng.uniform_dur(Dur::ZERO, self.cfg.interference_max);
            }
            let at = at.quantize(self.cfg.granularity).max(last);
            last = at;
            out.record(at, e.tag);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctms_sim::SimTime;

    #[test]
    fn quantizes_to_122us() {
        let mut log = EdgeLog::new("x");
        log.record(SimTime::from_us(100), 1);
        log.record(SimTime::from_us(12_100), 2);
        let cfg = PseudoCfg {
            interference_prob: 0.0,
            ..PseudoCfg::default()
        };
        let mut p = PseudoDriver::new(cfg, Pcg32::new(1, 1));
        let got = p.observe(&log);
        for e in got.edges() {
            assert_eq!(e.at.as_ns() % 122_000, 0, "quantized: {}", e.at);
        }
        let at: Vec<SimTime> = got.edges().map(|e| e.at).collect();
        assert_eq!(at[0], SimTime::ZERO);
        assert_eq!(at[1], SimTime::from_us(12_078)); // 99×122
    }

    #[test]
    fn interference_widens_the_spread() {
        let mut log = EdgeLog::new("x");
        for k in 0..5_000u64 {
            log.record(SimTime::from_us(12_000 * k), k);
        }
        let cfg = PseudoCfg {
            interference_prob: 0.5,
            ..PseudoCfg::default()
        };
        let mut p = PseudoDriver::new(cfg, Pcg32::new(9, 9));
        let got = p.observe(&log);
        let spread: Vec<u64> = got.inter_occurrence().iter().map(|d| d.as_us()).collect();
        let min = *spread.iter().min().expect("samples");
        let max = *spread.iter().max().expect("samples");
        // Quantization alone gives ±122; interference adds up to 400.
        assert!(min < 12_000 && max > 12_000, "min={min} max={max}");
        assert!(max - 12_000 >= 122, "interference visible, max={max}");
    }

    #[test]
    fn monotonicity_preserved() {
        let mut log = EdgeLog::new("x");
        log.record(SimTime::from_us(100), 1);
        log.record(SimTime::from_us(130), 2); // 30 µs apart, same quantum
        let mut p = PseudoDriver::new(PseudoCfg::default(), Pcg32::new(4, 4));
        let got = p.observe(&log);
        let at: Vec<SimTime> = got.edges().map(|e| e.at).collect();
        assert!(at[1] >= at[0]);
    }
}
