//! Kernel protected-section load.
//!
//! §5.3 attributes the latency spread of Figure 5-3 to "other interrupt
//! sources and the execution of protected code segments throughout the
//! kernel", and §5.2.2 measured IRQ→handler-entry variation up to 440 µs
//! "even while loading the Token Ring and the local disk" — i.e. even a
//! standalone AOS kernel periodically holds elevated spl. This driver
//! generates those sections: Poisson-arriving CPU jobs at configurable spl
//! levels and durations.

use ctms_rtpc::ExecLevel;
use ctms_sim::Dur;
use ctms_unixkern::{Ctx, Driver};
use std::any::Any;

/// One class of protected sections.
#[derive(Clone, Copy, Debug)]
pub struct SplClass {
    /// Poisson arrivals per second.
    pub rate_per_sec: f64,
    /// Mean section duration.
    pub mean: Dur,
    /// Duration standard deviation (truncated normal).
    pub sd: Dur,
    /// The spl the section holds (1–7).
    pub spl: u8,
}

/// Default classes for an AOS 4.3 host:
///
/// * splimp-level (5) network/buffer housekeeping, occasionally
///   millisecond-long — the source of Figure 5-3's right tail,
/// * splhigh-level (7) short sections (callout wheel, profiling) — the
///   source of the ≤440 µs IRQ→handler variation of §5.2.2.
pub fn default_classes() -> Vec<SplClass> {
    vec![
        SplClass {
            rate_per_sec: 6.0,
            mean: Dur::from_us(1200),
            sd: Dur::from_us(700),
            spl: 5,
        },
        SplClass {
            rate_per_sec: 2.0,
            mean: Dur::from_us(200),
            sd: Dur::from_us(60),
            spl: 7,
        },
    ]
}

/// Counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct SplLoadStats {
    /// Sections executed.
    pub sections: u64,
    /// Total protected nanoseconds.
    pub busy_ns: u64,
}

impl ctms_sim::Instrument for SplLoadStats {
    fn publish(&self, scope: &mut ctms_sim::telemetry::Scope<'_>) {
        scope.counter("sections", self.sections);
        scope.counter("busy_ns", self.busy_ns);
    }
}

/// The generator driver. See module docs.
#[derive(Debug)]
pub struct SplLoad {
    classes: Vec<SplClass>,
    stats: SplLoadStats,
}

impl SplLoad {
    /// Creates the driver.
    pub fn new(classes: Vec<SplClass>) -> Self {
        SplLoad {
            classes,
            stats: SplLoadStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> SplLoadStats {
        self.stats
    }

    fn arm(&self, ctx: &mut Ctx, class: usize) {
        let c = self.classes[class];
        if c.rate_per_sec > 0.0 {
            let gap = ctx.rng.exp_dur(Dur::from_secs_f64(1.0 / c.rate_per_sec));
            ctx.set_timer(class as u64, ctx.now + gap);
        }
    }
}

impl Driver for SplLoad {
    fn name(&self) -> &'static str {
        "spl-load"
    }

    fn persist_state(&self, enc: &mut ctms_sim::Enc) {
        enc.u64(self.stats.sections);
        enc.u64(self.stats.busy_ns);
    }

    fn restore_state(&mut self, dec: &mut ctms_sim::Dec<'_>) -> Result<(), ctms_sim::PersistError> {
        self.stats.sections = dec.u64()?;
        self.stats.busy_ns = dec.u64()?;
        Ok(())
    }

    fn publish_telemetry(&self, scope: &mut ctms_sim::telemetry::Scope<'_>) {
        use ctms_sim::Instrument as _;
        self.stats.publish(scope);
    }

    fn on_boot(&mut self, ctx: &mut Ctx) {
        for k in 0..self.classes.len() {
            self.arm(ctx, k);
        }
    }

    /// A timer token is a class index.
    fn accepts_timer(&self, token: u64) -> bool {
        token < self.classes.len() as u64
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        let class = token as usize;
        let c = self.classes[class];
        let dur = ctx.rng.normal_dur(c.mean, c.sd);
        self.stats.sections += 1;
        self.stats.busy_ns += dur.as_ns();
        ctx.push_job(token, dur, ExecLevel::KernelSpl(c.spl));
        self.arm(ctx, class);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctms_rtpc::{Machine, MachineConfig};
    use ctms_sim::{drain_component, Pcg32, SimTime};
    use ctms_unixkern::{Host, KernConfig, Kernel};

    #[test]
    fn sections_arrive_at_configured_rate() {
        let kcfg = KernConfig {
            clock_enabled: false,
            ..KernConfig::default()
        };
        let mut kernel = Kernel::new(kcfg, Pcg32::new(17, 3));
        let id = kernel.add_driver(Box::new(SplLoad::new(default_classes())), None);
        let mut host = Host::new(Machine::new(MachineConfig::default()), kernel);
        let _ = drain_component(&mut host, SimTime::from_secs(30));
        let s = host
            .kernel
            .driver_ref::<SplLoad>(id)
            .expect("spl-load")
            .stats();
        // 8/s combined over 30 s.
        assert!((160..320).contains(&s.sections), "{}", s.sections);
        assert!(s.busy_ns > 0);
    }

    #[test]
    fn timer_tokens_are_class_indices() {
        let classes = default_classes();
        let n = classes.len() as u64;
        let d = SplLoad::new(classes);
        assert!((0..n).all(|k| d.accepts_timer(k)));
        assert!(!d.accepts_timer(n) && !d.accepts_timer(u64::MAX));
    }

    #[test]
    fn empty_classes_are_silent() {
        let kcfg = KernConfig {
            clock_enabled: false,
            ..KernConfig::default()
        };
        let mut kernel = Kernel::new(kcfg, Pcg32::new(1, 1));
        kernel.add_driver(Box::new(SplLoad::new(Vec::new())), None);
        let mut host = Host::new(Machine::new(MachineConfig::default()), kernel);
        let evs = drain_component(&mut host, SimTime::from_secs(5));
        assert!(evs.is_empty());
    }
}
