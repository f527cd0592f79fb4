//! # ctms-measure — the measurement toolchain of §5
//!
//! The paper devotes half its length to *how* the prototype was measured;
//! each instrument is reproduced with its documented error model:
//!
//! * [`tap`] — IBM's Trace and Analysis Program: ring-wide capture with
//!   AC/FC/length records, capture-rate limitations, ordering/loss and
//!   traffic-class analyses,
//! * [`pcat`] — the PC/AT parallel-port timestamper: 2 µs clock, 16-bit
//!   roll-over with a 50 Hz marker, 60 µs worst-case service loop,
//! * [`logic`] — logic analyzer / oscilloscope: exact, but no histograms,
//! * [`pseudo`] — the in-kernel pseudo-driver: 122 µs granularity and
//!   interrupt-interaction error,
//! * [`points`] — the seven histogram definitions of §5.3,
//! * [`watchdog`] — the §5.2.1 halt-and-snapshot anomaly detector.

pub mod logic;
pub mod pcat;
pub mod points;
pub mod pseudo;
pub mod tap;
pub mod watchdog;

pub use logic::{analyze_period, irq_to_handler_variation, PeriodAnalysis};
pub use pcat::{PcAt, PcAtCapture, PcAtCfg, PcAtRecord, MARKER_CHANNEL};
pub use points::{HistId, MeasurementSet};
pub use pseudo::{PseudoCfg, PseudoDriver};
pub use tap::{StreamAnalysis, Tap, TapCfg, TrafficBreakdown};
pub use watchdog::{Anomaly, WatchEvent, Watchdog, WatchdogCfg};
