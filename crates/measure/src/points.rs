//! The paper's seven histograms (§5.3).
//!
//! Both test cases examine:
//!
//! 1. inter-occurrence of VCA IRQ pulses,
//! 2. inter-occurrence of VCA handler entries,
//! 3. inter-occurrence of the pre-transmit point,
//! 4. inter-occurrence of the CTMSP-identified point,
//! 5. differences between like occurrences of (1) and (2),
//! 6. differences between like occurrences of (2) and (3)  — Figure 5-2,
//! 7. differences between like occurrences of (3) and (4)  — Figures 5-3/5-4.

use ctms_sim::EdgeLog;

/// Histogram selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HistId {
    /// Inter-occurrence, VCA IRQ.
    H1,
    /// Inter-occurrence, VCA handler entry.
    H2,
    /// Inter-occurrence, pre-transmit.
    H3,
    /// Inter-occurrence, CTMSP identified.
    H4,
    /// IRQ → handler entry deltas.
    H5,
    /// Handler entry → pre-transmit deltas (Figure 5-2).
    H6,
    /// Pre-transmit → CTMSP-identified deltas (Figures 5-3 and 5-4).
    H7,
}

impl HistId {
    /// All seven in paper order.
    pub const ALL: [HistId; 7] = [
        HistId::H1,
        HistId::H2,
        HistId::H3,
        HistId::H4,
        HistId::H5,
        HistId::H6,
        HistId::H7,
    ];

    /// The paper's description of this histogram.
    pub fn description(self) -> &'static str {
        match self {
            HistId::H1 => "inter-occurrence of VCA IRQ pulses",
            HistId::H2 => "inter-occurrence of VCA handler entries",
            HistId::H3 => "inter-occurrence of pre-transmit points",
            HistId::H4 => "inter-occurrence of CTMSP-identified points",
            HistId::H5 => "VCA IRQ to handler-entry deltas",
            HistId::H6 => "handler entry to pre-transmit deltas (Fig 5-2)",
            HistId::H7 => "pre-transmit to CTMSP-identified deltas (Fig 5-3/5-4)",
        }
    }
}

/// The four measurement-point logs of one run (source side 1–3, receive
/// side 4), as captured by some instrument. The set borrows the logs
/// from whoever keeps them, so handing one out copies no edge.
#[derive(Clone, Copy, Debug)]
pub struct MeasurementSet<'a> {
    /// Point 1: VCA IRQ line.
    pub vca_irq: &'a EdgeLog,
    /// Point 2: VCA handler entry.
    pub handler: &'a EdgeLog,
    /// Point 3: pre-transmit.
    pub pre_tx: &'a EdgeLog,
    /// Point 4: CTMSP identified at the receiver.
    pub ctmsp_rx: &'a EdgeLog,
}

impl MeasurementSet<'_> {
    /// Sample values (microseconds) for the selected histogram.
    pub fn samples_us(&self, which: HistId) -> Vec<f64> {
        let durs = match which {
            HistId::H1 => self.vca_irq.inter_occurrence(),
            HistId::H2 => self.handler.inter_occurrence(),
            HistId::H3 => self.pre_tx.inter_occurrence(),
            HistId::H4 => self.ctmsp_rx.inter_occurrence(),
            HistId::H5 => self.vca_irq.deltas_to(self.handler),
            HistId::H6 => self.handler.deltas_to(self.pre_tx),
            HistId::H7 => self.pre_tx.deltas_to(self.ctmsp_rx),
        };
        durs.into_iter().map(|d| d.as_us_f64()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctms_sim::SimTime;

    fn t(us: u64) -> SimTime {
        SimTime::from_us(us)
    }

    #[test]
    fn histogram_definitions() {
        let mut logs: [EdgeLog; 4] = Default::default();
        for k in 0..3u64 {
            let base = 12_000 * k;
            for (log, offset) in logs.iter_mut().zip([0, 25, 2_625, 13_400]) {
                log.record(t(base + offset), k + 1);
            }
        }
        let [vca_irq, handler, pre_tx, ctmsp_rx] = &logs;
        let m = MeasurementSet {
            vca_irq,
            handler,
            pre_tx,
            ctmsp_rx,
        };
        assert_eq!(m.samples_us(HistId::H1), vec![12_000.0, 12_000.0]);
        assert_eq!(m.samples_us(HistId::H2), vec![12_000.0, 12_000.0]);
        assert_eq!(m.samples_us(HistId::H5), vec![25.0, 25.0, 25.0]);
        assert_eq!(m.samples_us(HistId::H6), vec![2_600.0, 2_600.0, 2_600.0]);
        assert_eq!(m.samples_us(HistId::H7), vec![10_775.0, 10_775.0, 10_775.0]);
    }

    #[test]
    fn lost_packet_skipped_in_deltas() {
        let [vca_irq, handler, mut pre_tx, mut ctmsp_rx]: [EdgeLog; 4] = Default::default();
        pre_tx.record(t(0), 1);
        pre_tx.record(t(12_000), 2);
        ctmsp_rx.record(t(10_740), 1);
        let m = MeasurementSet {
            vca_irq: &vca_irq,
            handler: &handler,
            pre_tx: &pre_tx,
            ctmsp_rx: &ctmsp_rx,
        };
        // Packet 2 lost to a purge: H7 has one sample.
        assert_eq!(m.samples_us(HistId::H7).len(), 1);
    }

    #[test]
    fn all_ids_have_descriptions() {
        for id in HistId::ALL {
            assert!(!id.description().is_empty());
        }
    }
}
