//! The machine layer: CPU plus DMA engines plus the IOCC bus-contention
//! coupling.
//!
//! §4: "If the adapter is capable of DMA and the DMA is done into system
//! memory, this DMA can interfere with the CPU's access to system memory."
//! The machine slows the CPU by a configurable factor while any DMA
//! touching system memory is active; DMA to/from IO Channel Memory runs
//! entirely on the I/O Channel bus and leaves the CPU at full speed — the
//! paper's motivation for its third modification.

use crate::cpu::{Cpu, CpuCmd, CpuConfig, CpuOut, CpuStats, Job};
use crate::memory::MemRegion;
use ctms_sim::{Component, Dur, SimTime, Sink};

/// Machine configuration.
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// CPU configuration.
    pub cpu: CpuConfig,
    /// CPU speed multiplier while ≥1 system-memory DMA is active
    /// (arbitration loss on the memory bus).
    pub sysdma_cpu_factor: f64,
    /// Additional multiplicative slowdown per extra concurrent
    /// system-memory DMA beyond the first.
    pub sysdma_extra_factor: f64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cpu: CpuConfig::default(),
            sysdma_cpu_factor: 0.85,
            sysdma_extra_factor: 0.95,
        }
    }
}

/// Commands into the machine.
#[derive(Clone, Copy, Debug)]
pub enum MachCmd<T> {
    /// Raise an interrupt line.
    RaiseIrq {
        /// Line number.
        line: u8,
    },
    /// Enqueue CPU work.
    Push(Job<T>),
    /// Start a DMA transfer of `bytes` at `per_byte`, touching `region`.
    /// Completion emits [`MachOut::DmaDone`] with `tag`.
    StartDma {
        /// Transfer size.
        bytes: u32,
        /// Transfer rate as time per byte.
        per_byte: Dur,
        /// The memory region on the host side of the transfer.
        region: MemRegion,
        /// Continuation tag.
        tag: T,
    },
}

/// Events out of the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MachOut<T> {
    /// Interrupt handler entry (dispatch complete) for `line`.
    IrqEntered {
        /// The line.
        line: u8,
    },
    /// A pushed CPU job completed.
    JobDone {
        /// Its tag.
        tag: T,
    },
    /// A DMA transfer completed.
    DmaDone {
        /// Its tag.
        tag: T,
    },
    /// An IRQ was raised while already pending.
    IrqOverrun {
        /// The line.
        line: u8,
    },
}

#[derive(Clone, Copy, Debug)]
struct ActiveDma<T> {
    done_at: SimTime,
    region: MemRegion,
    tag: T,
}

/// Bus-contention accounting (§4's "this DMA can interfere with the
/// CPU's access to system memory", made measurable).
#[derive(Clone, Copy, Debug, Default)]
pub struct BusStats {
    /// Nanoseconds of CPU capacity lost to system-memory DMA arbitration
    /// (elapsed × (1 − speed), integrated over the run).
    pub cpu_stall_ns: u64,
    /// Nanoseconds during which ≥1 system-memory DMA was active.
    pub sysdma_active_ns: u64,
    /// DMA transfers completed, by region: (system, io-channel/device).
    pub dmas_system: u64,
    /// DMA transfers that stayed off the CPU bus.
    pub dmas_io_channel: u64,
}

impl ctms_sim::Instrument for BusStats {
    fn publish(&self, scope: &mut ctms_sim::telemetry::Scope<'_>) {
        scope.counter("cpu_stall_ns", self.cpu_stall_ns);
        scope.counter("sysdma_active_ns", self.sysdma_active_ns);
        scope.counter("dmas_system", self.dmas_system);
        scope.counter("dmas_io_channel", self.dmas_io_channel);
    }
}

/// CPU + DMA engines + bus coupling. See module docs.
#[derive(Debug)]
pub struct Machine<T> {
    cfg: MachineConfig,
    cpu: Cpu<T>,
    dmas: Vec<ActiveDma<T>>,
    bus: BusStats,
    speed_since: SimTime,
    cur_speed: f64,
}

impl<T: Copy + core::fmt::Debug> Machine<T> {
    /// Creates an idle machine.
    pub fn new(cfg: MachineConfig) -> Self {
        Machine {
            cpu: Cpu::new(cfg.cpu),
            cfg,
            dmas: Vec::new(),
            bus: BusStats::default(),
            speed_since: SimTime::ZERO,
            cur_speed: 1.0,
        }
    }

    /// Bus-contention counters.
    pub fn bus_stats(&self) -> BusStats {
        self.bus
    }

    /// Integrates stall accounting up to `now` at the current speed.
    fn settle_bus(&mut self, now: SimTime) {
        let elapsed = now.since(self.speed_since).as_ns();
        if self.cur_speed < 1.0 {
            self.bus.cpu_stall_ns += (elapsed as f64 * (1.0 - self.cur_speed)) as u64;
            self.bus.sysdma_active_ns += elapsed;
        }
        self.speed_since = now;
    }

    /// CPU counters.
    pub fn cpu_stats(&self) -> CpuStats {
        self.cpu.stats()
    }

    /// True if the CPU and all DMA engines are idle.
    pub fn is_idle(&self) -> bool {
        self.cpu.is_idle() && self.dmas.is_empty()
    }

    /// Number of DMA transfers currently in flight.
    pub fn active_dmas(&self) -> usize {
        self.dmas.len()
    }

    /// The tags of the DMA transfers in flight.
    pub fn dma_tags(&self) -> impl Iterator<Item = T> + '_ {
        self.dmas.iter().map(|d| d.tag)
    }

    /// The tag of every job the CPU holds: queued, preempted or running.
    pub fn job_tags(&self) -> impl Iterator<Item = T> + '_ {
        self.cpu.job_tags()
    }

    /// Current CPU execution level.
    pub fn current_level(&self) -> u8 {
        self.cpu.current_level()
    }

    /// Pushes every in-flight DMA completion `extra` later, as if the
    /// bus arbiter had stalled the engines. A checkpoint-restore
    /// mutation hook: callers apply it at a restore point to explore how
    /// a transient DMA stall perturbs the continued run. CPU slowdown
    /// accounting is unchanged (the transfer occupies the bus longer at
    /// the same arbitration factor).
    pub fn delay_active_dmas(&mut self, extra: ctms_sim::Dur) {
        for d in &mut self.dmas {
            d.done_at += extra;
        }
    }

    fn cpu_speed(&self) -> f64 {
        let sys = self
            .dmas
            .iter()
            .filter(|d| d.region == MemRegion::System)
            .count();
        if sys == 0 {
            1.0
        } else {
            self.cfg.sysdma_cpu_factor * self.cfg.sysdma_extra_factor.powi(sys as i32 - 1)
        }
    }

    fn apply_speed(&mut self, now: SimTime, sink: &mut impl Sink<MachOut<T>>) {
        self.settle_bus(now);
        let s = self.cpu_speed();
        self.cur_speed = s;
        self.cpu
            .handle(now, CpuCmd::SetSpeed(s), &mut via_cpu(sink));
    }
}

/// A sink for the CPU's outputs that maps each into the machine's own
/// output on its way to `sink`.
fn via_cpu<T>(sink: &mut impl Sink<MachOut<T>>) -> impl FnMut(CpuOut<T>) + '_ {
    move |o| {
        sink.push(match o {
            CpuOut::IrqEntered { line } => MachOut::IrqEntered { line },
            CpuOut::JobDone { tag } => MachOut::JobDone { tag },
            CpuOut::IrqOverrun { line } => MachOut::IrqOverrun { line },
        })
    }
}

impl<T: Copy + ctms_sim::Persist + Default> ctms_sim::Persist for Machine<T> {
    /// Dynamic machine state: the CPU, the in-flight DMA set, bus
    /// counters and the speed integrator. `cfg` is structural.
    fn persist(&self, enc: &mut ctms_sim::Enc) {
        self.cpu.persist(enc);
        enc.seq_len(self.dmas.len());
        for d in &self.dmas {
            enc.time(d.done_at);
            d.region.persist(enc);
            d.tag.persist(enc);
        }
        enc.u64(self.bus.cpu_stall_ns);
        enc.u64(self.bus.sysdma_active_ns);
        enc.u64(self.bus.dmas_system);
        enc.u64(self.bus.dmas_io_channel);
        enc.time(self.speed_since);
        enc.f64(self.cur_speed);
    }

    fn restore(&mut self, dec: &mut ctms_sim::Dec<'_>) -> Result<(), ctms_sim::PersistError> {
        self.cpu.restore(dec)?;
        self.dmas = dec.seq(|d| {
            let done_at = d.time()?;
            let mut region = MemRegion::System;
            region.restore(d)?;
            let tag = ctms_sim::decode_new(d)?;
            Ok(ActiveDma {
                done_at,
                region,
                tag,
            })
        })?;
        self.bus = BusStats {
            cpu_stall_ns: dec.u64()?,
            sysdma_active_ns: dec.u64()?,
            dmas_system: dec.u64()?,
            dmas_io_channel: dec.u64()?,
        };
        self.speed_since = dec.time()?;
        self.cur_speed = dec.f64()?;
        Ok(())
    }
}

impl<T: Copy + core::fmt::Debug> Component for Machine<T> {
    type Cmd = MachCmd<T>;
    type Out = MachOut<T>;

    fn next_deadline(&self) -> Option<SimTime> {
        // Hand-rolled min over the 0–2 live DMAs plus the CPU: this is
        // on the per-event reschedule path, where the iterator-chain
        // form showed up in profiles.
        let mut best = self.cpu.next_deadline();
        for d in &self.dmas {
            match best {
                Some(b) if b <= d.done_at => {}
                _ => best = Some(d.done_at),
            }
        }
        best
    }

    fn advance(&mut self, now: SimTime, sink: &mut impl Sink<MachOut<T>>) {
        // Complete due DMAs first: their bus release may speed the CPU up
        // for the remainder of this instant.
        let mut completed = Vec::new();
        self.dmas.retain(|d| {
            if d.done_at <= now {
                completed.push(*d);
                false
            } else {
                true
            }
        });
        if !completed.is_empty() {
            self.apply_speed(now, sink);
            for d in completed {
                sink.push(MachOut::DmaDone { tag: d.tag });
            }
        }
        self.cpu.advance(now, &mut via_cpu(sink));
    }

    fn handle(&mut self, now: SimTime, cmd: MachCmd<T>, sink: &mut impl Sink<MachOut<T>>) {
        match cmd {
            MachCmd::RaiseIrq { line } => {
                self.cpu
                    .handle(now, CpuCmd::RaiseIrq { line }, &mut via_cpu(sink));
            }
            MachCmd::Push(job) => self.cpu.handle(now, CpuCmd::Push(job), &mut via_cpu(sink)),
            MachCmd::StartDma {
                bytes,
                per_byte,
                region,
                tag,
            } => {
                let done_at = now + per_byte * u64::from(bytes);
                if region == MemRegion::System {
                    self.bus.dmas_system += 1;
                } else {
                    self.bus.dmas_io_channel += 1;
                }
                self.dmas.push(ActiveDma {
                    done_at,
                    region,
                    tag,
                });
                self.apply_speed(now, sink);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::ExecLevel;
    use ctms_sim::drain_component;

    type M = Machine<u64>;

    fn machine() -> M {
        Machine::new(MachineConfig::default())
    }

    #[test]
    fn dma_completes_at_rate() {
        let mut m = machine();
        let mut sink = Vec::new();
        m.handle(
            SimTime::ZERO,
            MachCmd::StartDma {
                bytes: 2000,
                per_byte: Dur::from_ns(500),
                region: MemRegion::IoChannel,
                tag: 7,
            },
            &mut sink,
        );
        let evs = drain_component(&mut m, SimTime::from_ms(10));
        assert_eq!(
            evs,
            vec![(SimTime::from_us(1000), MachOut::DmaDone { tag: 7 })]
        );
        assert!(m.is_idle());
    }

    #[test]
    fn system_dma_slows_cpu_io_channel_does_not() {
        // The paper's §4 argument, as a differential experiment.
        let run = |region: MemRegion| -> SimTime {
            let mut m = machine();
            let mut sink = Vec::new();
            m.handle(
                SimTime::ZERO,
                MachCmd::Push(Job {
                    tag: 1,
                    cost: Dur::from_us(1000),
                    level: ExecLevel::User,
                }),
                &mut sink,
            );
            m.handle(
                SimTime::ZERO,
                MachCmd::StartDma {
                    bytes: 4000,
                    per_byte: Dur::from_ns(500),
                    region,
                    tag: 2,
                },
                &mut sink,
            );
            let evs = drain_component(&mut m, SimTime::from_ms(100));
            evs.iter()
                .find_map(|(t, e)| matches!(e, MachOut::JobDone { tag: 1 }).then_some(*t))
                .expect("job done")
        };
        let with_io = run(MemRegion::IoChannel);
        let with_sys = run(MemRegion::System);
        assert_eq!(with_io, SimTime::from_us(1000), "no interference");
        assert!(
            with_sys > SimTime::from_us(1100),
            "system-memory DMA must slow the CPU, got {with_sys}"
        );
    }

    #[test]
    fn cpu_recovers_full_speed_after_dma() {
        let mut m = machine();
        let mut sink = Vec::new();
        // 100 µs DMA on system memory; 1000 µs CPU job.
        m.handle(
            SimTime::ZERO,
            MachCmd::Push(Job {
                tag: 1,
                cost: Dur::from_us(1000),
                level: ExecLevel::User,
            }),
            &mut sink,
        );
        m.handle(
            SimTime::ZERO,
            MachCmd::StartDma {
                bytes: 100,
                per_byte: Dur::from_us(1),
                region: MemRegion::System,
                tag: 2,
            },
            &mut sink,
        );
        let evs = drain_component(&mut m, SimTime::from_ms(100));
        let done = evs
            .iter()
            .find_map(|(t, e)| matches!(e, MachOut::JobDone { tag: 1 }).then_some(*t))
            .expect("done");
        // During 100 µs at factor 0.85, 85 µs of work retired; the
        // remaining 915 µs at full speed: 1015 µs total (±1 ns rounding).
        let expected = SimTime::from_ns(1_015_000_000 / 1000);
        let delta = done.as_ns().abs_diff(expected.as_ns());
        assert!(delta <= 10, "done={done} expected≈{expected}");
    }

    #[test]
    fn concurrent_system_dmas_compound() {
        let mut m = machine();
        let mut sink = Vec::new();
        for tag in [10, 11] {
            m.handle(
                SimTime::ZERO,
                MachCmd::StartDma {
                    bytes: 1000,
                    per_byte: Dur::from_us(1),
                    region: MemRegion::System,
                    tag,
                },
                &mut sink,
            );
        }
        m.handle(
            SimTime::ZERO,
            MachCmd::Push(Job {
                tag: 1,
                cost: Dur::from_us(100),
                level: ExecLevel::User,
            }),
            &mut sink,
        );
        assert_eq!(m.active_dmas(), 2);
        let evs = drain_component(&mut m, SimTime::from_ms(100));
        let done = evs
            .iter()
            .find_map(|(t, e)| matches!(e, MachOut::JobDone { tag: 1 }).then_some(*t))
            .expect("done");
        // Speed = 0.85 * 0.95 = 0.8075 ⇒ ~123.8 µs.
        assert!(
            done > SimTime::from_us(123) && done < SimTime::from_us(125),
            "got {done}"
        );
    }

    #[test]
    fn bus_stats_account_for_contention() {
        let mut m = machine();
        let mut sink = Vec::new();
        // 1 ms of system-memory DMA at factor 0.85: 150 µs of stall.
        m.handle(
            SimTime::ZERO,
            MachCmd::StartDma {
                bytes: 1000,
                per_byte: Dur::from_us(1),
                region: MemRegion::System,
                tag: 1,
            },
            &mut sink,
        );
        let _ = drain_component(&mut m, SimTime::from_ms(10));
        let bus = m.bus_stats();
        assert_eq!(bus.dmas_system, 1);
        assert_eq!(bus.sysdma_active_ns, 1_000_000);
        let expected = (1_000_000.0f64 * 0.15) as u64;
        assert!(bus.cpu_stall_ns.abs_diff(expected) < 1_000, "{bus:?}");
        // IO-channel DMA adds no stall.
        m.handle(
            SimTime::from_ms(10),
            MachCmd::StartDma {
                bytes: 1000,
                per_byte: Dur::from_us(1),
                region: MemRegion::IoChannel,
                tag: 2,
            },
            &mut sink,
        );
        let _ = drain_component(&mut m, SimTime::from_ms(20));
        let bus2 = m.bus_stats();
        assert_eq!(bus2.dmas_io_channel, 1);
        assert_eq!(bus2.cpu_stall_ns, bus.cpu_stall_ns, "no extra stall");
    }

    #[test]
    fn irq_flows_through_machine() {
        let mut m = machine();
        let mut sink = Vec::new();
        m.handle(SimTime::ZERO, MachCmd::RaiseIrq { line: 2 }, &mut sink);
        let evs = drain_component(&mut m, SimTime::from_ms(1));
        assert_eq!(
            evs,
            vec![(SimTime::from_us(25), MachOut::IrqEntered { line: 2 })]
        );
    }
}
