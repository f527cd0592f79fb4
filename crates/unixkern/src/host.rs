//! A host: one RT/PC machine running one kernel.
//!
//! Couples [`Machine`] and [`Kernel`] and routes between them (CPU/DMA
//! completions into the kernel; job pushes, DMA starts and IRQ raises into
//! the machine), exposing only ring traffic and observable events to the
//! outside. The testbed connects several hosts to one token ring.

use crate::driver::KernOut;
use crate::ids::{DropSite, KTag, MeasurePoint, Pid, Port};
use crate::kernel::{KernCmd, Kernel};
use ctms_rtpc::{MachOut, Machine};
use ctms_sim::{CascadeGuard, Component, SimTime, Sink};
use ctms_tokenring::Frame;

/// Commands into a host (ring events, plus direct kernel injection for
/// tests and workload glue).
#[derive(Clone, Debug)]
pub enum HostCmd {
    /// A frame addressed to this host's station arrived.
    RingDelivered(Frame),
    /// This host's adapter finished transmitting.
    RingStripped {
        /// Frame tag.
        tag: u64,
        /// Copied-bit ground truth.
        delivered: bool,
    },
    /// Inject a kernel command directly.
    Kern(KernCmd),
}

/// Observable events out of a host.
#[derive(Debug)]
pub enum HostOut {
    /// Submit a frame to the ring.
    RingSubmit(Frame),
    /// A measurement point was crossed.
    Trace {
        /// Which point.
        point: MeasurePoint,
        /// Packet tag.
        tag: u64,
    },
    /// Data lost.
    Drop {
        /// Where.
        site: DropSite,
        /// Packet tag.
        tag: u64,
        /// Bytes.
        bytes: u32,
    },
    /// CTMS payload presented at the sink device.
    Presented {
        /// Packet tag.
        tag: u64,
        /// Bytes.
        bytes: u32,
    },
    /// A socket delivered payload to a local reader.
    SockDelivered {
        /// Port.
        port: Port,
        /// Bytes.
        bytes: u32,
    },
    /// A process finished its program.
    ProcExited {
        /// Which.
        pid: Pid,
    },
}

/// One machine + kernel pair. See module docs.
///
/// The kernel↔machine ping-pong runs on two persistent buffers (`kouts`,
/// `mouts`) that are drained each exchange and retain their capacity, so
/// a steady-state advance or command delivery allocates nothing.
pub struct Host {
    /// The hardware.
    pub machine: Machine<KTag>,
    /// The software.
    pub kernel: Kernel,
    guard: CascadeGuard,
    kouts: Vec<KernOut>,
    mouts: Vec<MachOut<KTag>>,
}

impl Host {
    /// Creates a host from its parts.
    pub fn new(machine: Machine<KTag>, kernel: Kernel) -> Self {
        Host {
            machine,
            kernel,
            guard: CascadeGuard::default(),
            kouts: Vec::new(),
            mouts: Vec::new(),
        }
    }

    /// Routes the pending kernel outputs (`self.kouts`): machine commands
    /// inward (producing into `self.mouts`), the rest translated to
    /// [`HostOut`].
    fn route_kern_outs(&mut self, now: SimTime, sink: &mut impl Sink<HostOut>) {
        // Lend the buffer out so `self.machine` stays borrowable.
        let mut kouts = std::mem::take(&mut self.kouts);
        for o in kouts.drain(..) {
            match o {
                KernOut::Mach(cmd) => self.machine.handle(now, cmd, &mut self.mouts),
                KernOut::RingSubmit(frame) => sink.push(HostOut::RingSubmit(frame)),
                KernOut::Trace { point, tag } => sink.push(HostOut::Trace { point, tag }),
                KernOut::Drop { site, tag, bytes } => sink.push(HostOut::Drop { site, tag, bytes }),
                KernOut::Presented { tag, bytes } => sink.push(HostOut::Presented { tag, bytes }),
                KernOut::SockDelivered { port, bytes } => {
                    sink.push(HostOut::SockDelivered { port, bytes })
                }
                KernOut::ProcExited { pid } => sink.push(HostOut::ProcExited { pid }),
            }
        }
        self.kouts = kouts;
    }

    /// Feeds the pending machine outputs (`self.mouts`) into the kernel,
    /// producing into `self.kouts`.
    fn route_mach_outs(&mut self, now: SimTime) {
        let mut mouts = std::mem::take(&mut self.mouts);
        for o in mouts.drain(..) {
            match o {
                MachOut::IrqEntered { line } => {
                    self.kernel
                        .handle(now, KernCmd::IrqEntered { line }, &mut self.kouts)
                }
                MachOut::JobDone { tag } => {
                    self.kernel
                        .handle(now, KernCmd::JobDone { tag }, &mut self.kouts)
                }
                MachOut::DmaDone { tag } => {
                    self.kernel
                        .handle(now, KernCmd::DmaDone { tag }, &mut self.kouts)
                }
                MachOut::IrqOverrun { .. } => {
                    // Lost edge: real hardware would have collapsed the two
                    // raises; nothing to deliver.
                }
            }
        }
        self.mouts = mouts;
    }

    /// Ping-pongs between kernel and machine until the instant is
    /// settled, starting from whatever is pending in `self.kouts`. Both
    /// buffers are empty on return.
    fn settle(&mut self, now: SimTime, sink: &mut impl Sink<HostOut>) {
        loop {
            if self.kouts.is_empty() {
                break;
            }
            self.guard.step(now);
            self.route_kern_outs(now, sink);
            if self.mouts.is_empty() {
                break;
            }
            self.guard.step(now);
            self.route_mach_outs(now);
        }
    }
}

impl ctms_sim::Persist for Host {
    /// Machine state then kernel state. The exchange buffers and cascade
    /// guard are empty/reset at every settled instant, so they carry no
    /// bytes; restore re-arms a fresh guard.
    fn persist(&self, enc: &mut ctms_sim::Enc) {
        debug_assert!(self.kouts.is_empty() && self.mouts.is_empty());
        self.machine.persist(enc);
        self.kernel.persist(enc);
    }

    /// Restores both halves, then checks every tag the machine holds
    /// against the kernel's tables: only here are both in view.
    fn restore(&mut self, dec: &mut ctms_sim::Dec<'_>) -> Result<(), ctms_sim::PersistError> {
        self.machine.restore(dec)?;
        self.kernel.restore(dec)?;
        self.kernel
            .check_machine_tags(self.machine.dma_tags(), self.machine.job_tags())?;
        self.guard = CascadeGuard::default();
        self.kouts.clear();
        self.mouts.clear();
        Ok(())
    }
}

impl Component for Host {
    type Cmd = HostCmd;
    type Out = HostOut;

    fn next_deadline(&self) -> Option<SimTime> {
        ctms_sim::earliest([self.machine.next_deadline(), self.kernel.next_deadline()])
    }

    fn advance(&mut self, now: SimTime, sink: &mut impl Sink<HostOut>) {
        debug_assert!(self.kouts.is_empty() && self.mouts.is_empty());
        self.machine.advance(now, &mut self.mouts);
        self.route_mach_outs(now);
        // Kernel deadline work lands after the machine's fallout, exactly
        // as in the pre-buffer implementation.
        self.kernel.advance(now, &mut self.kouts);
        self.settle(now, sink);
    }

    fn handle(&mut self, now: SimTime, cmd: HostCmd, sink: &mut impl Sink<HostOut>) {
        debug_assert!(self.kouts.is_empty() && self.mouts.is_empty());
        match cmd {
            HostCmd::RingDelivered(frame) => {
                self.kernel
                    .handle(now, KernCmd::RingDelivered { frame }, &mut self.kouts)
            }
            HostCmd::RingStripped { tag, delivered } => self.kernel.handle(
                now,
                KernCmd::RingStripped { tag, delivered },
                &mut self.kouts,
            ),
            HostCmd::Kern(cmd) => self.kernel.handle(now, cmd, &mut self.kouts),
        }
        self.settle(now, sink);
    }

    /// Kernel tree at the root of the host's scope; hardware under
    /// `bus`/`cpu`.
    fn publish_telemetry(&self, scope: &mut ctms_sim::telemetry::Scope<'_>) {
        use ctms_sim::Instrument as _;
        self.kernel.publish_telemetry(scope);
        self.machine.bus_stats().publish(&mut scope.scope("bus"));
        self.machine.cpu_stats().publish(&mut scope.scope("cpu"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Ctx, Driver, OpResult, WakeKind};
    use crate::ids::DriverId;
    use crate::kernel::{KernConfig, LINE_VCA};
    use crate::proc::{Program, Step};
    use ctms_rtpc::{ExecLevel, MachineConfig};
    use ctms_sim::{drain_component, Dur, Pcg32};

    /// A toy periodic device: an ioctl arms a 12 ms timer chain; each
    /// firing raises the IRQ, the handler body produces a 2000-byte chunk
    /// and wakes a blocked reader.
    struct ToyDev {
        period: Dur,
        chunk: u32,
        available: u32,
        waiting: Option<crate::ids::Pid>,
        interrupts: u32,
    }

    impl Driver for ToyDev {
        fn name(&self) -> &'static str {
            "toy"
        }
        fn ioctl(&mut self, ctx: &mut Ctx, _pid: crate::ids::Pid, _req: u32) {
            ctx.set_timer(0, ctx.now + self.period);
        }
        fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
            ctx.raise_irq(LINE_VCA);
            ctx.set_timer(0, ctx.now + self.period);
        }
        fn on_interrupt(&mut self, ctx: &mut Ctx) {
            self.interrupts += 1;
            // Handler body: 100 us of device service at interrupt level.
            ctx.push_job(1, Dur::from_us(100), ExecLevel::Irq(LINE_VCA));
        }
        fn on_job(&mut self, ctx: &mut Ctx, token: u64) {
            assert_eq!(token, 1);
            self.available += self.chunk;
            if let Some(pid) = self.waiting.take() {
                let bytes = self.available.min(self.chunk);
                self.available -= bytes;
                ctx.wake(pid, WakeKind::DevRead { bytes });
            }
        }
        fn read(&mut self, _ctx: &mut Ctx, pid: crate::ids::Pid, bytes: u32) -> OpResult {
            if self.available >= bytes {
                self.available -= bytes;
                OpResult::Done
            } else {
                self.waiting = Some(pid);
                OpResult::Blocked
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn build_host(clock: bool) -> (Host, DriverId) {
        let cfg = KernConfig {
            clock_enabled: clock,
            ..Default::default()
        };
        let mut kernel = Kernel::new(cfg, Pcg32::new(5, 5));
        let dev = kernel.add_driver(
            Box::new(ToyDev {
                period: Dur::from_ms(12),
                chunk: 2000,
                available: 0,
                waiting: None,
                interrupts: 0,
            }),
            Some(LINE_VCA),
        );
        let machine = Machine::new(MachineConfig::default());
        (Host::new(machine, kernel), dev)
    }

    #[test]
    fn reader_process_consumes_periodic_data() {
        let (mut host, dev) = build_host(true);
        // Arm the device, then read five 2000-byte chunks and exit.
        let prog = Program::once(vec![
            Step::Ioctl { dev, req: 1 },
            Step::ReadDev { dev, bytes: 2000 },
            Step::ReadDev { dev, bytes: 2000 },
            Step::ReadDev { dev, bytes: 2000 },
            Step::ReadDev { dev, bytes: 2000 },
            Step::ReadDev { dev, bytes: 2000 },
        ]);
        let pid = host.kernel.add_proc(prog);
        let evs = drain_component(&mut host, SimTime::from_ms(200));
        assert!(
            evs.iter()
                .any(|(_, e)| matches!(e, HostOut::ProcExited { pid: p } if *p == pid)),
            "reader finished 5 reads: {evs:?}"
        );
        assert!(host.kernel.proc_exited(pid));
        // The device free-runs after the reader exits; it must have fired
        // at least the five interrupts the reads consumed.
        let toy = host.kernel.driver_ref::<ToyDev>(dev).expect("toy");
        assert!(toy.interrupts >= 5, "got {}", toy.interrupts);
        // The reader's exit lands just after the fifth chunk (5 × 12 ms).
        let exit = evs
            .iter()
            .find_map(|(t, e)| {
                matches!(e, HostOut::ProcExited { pid: p } if *p == pid).then_some(*t)
            })
            .expect("exit time");
        assert!(
            exit >= SimTime::from_ms(60) && exit < SimTime::from_ms(64),
            "exit at {exit}"
        );
    }

    #[test]
    fn compute_processes_timeshare_fifo() {
        let (mut host, _dev) = build_host(false);
        let a = host
            .kernel
            .add_proc(Program::once(vec![Step::Compute(Dur::from_ms(25))]));
        let b = host
            .kernel
            .add_proc(Program::once(vec![Step::Compute(Dur::from_ms(5))]));
        let evs = drain_component(&mut host, SimTime::from_secs(1));
        let exits: Vec<(SimTime, Pid)> = evs
            .iter()
            .filter_map(|(t, e)| match e {
                HostOut::ProcExited { pid } => Some((*t, *pid)),
                _ => None,
            })
            .collect();
        assert_eq!(exits.len(), 2);
        // A runs 10 ms (quantum), B runs 5 and exits at 15 ms, A finishes
        // its remaining 15 ms at 30 ms.
        assert_eq!(exits[0], (SimTime::from_ms(15), b));
        assert_eq!(exits[1], (SimTime::from_ms(30), a));
    }

    #[test]
    fn restore_refuses_a_machine_tag_the_kernel_does_not_hold() {
        use ctms_rtpc::{Job, MachCmd, MemRegion};
        use ctms_sim::{Dec, Enc, Persist, PersistError};
        let dma = |tag| MachCmd::StartDma {
            bytes: 100,
            per_byte: Dur::from_us(1),
            region: MemRegion::IoChannel,
            tag,
        };
        let job = |tag| {
            MachCmd::Push(Job {
                tag,
                cost: Dur::from_us(50),
                level: ExecLevel::User,
            })
        };
        let driver = |id| KTag::Driver {
            id: DriverId(id),
            token: 0,
        };
        let proc = |pid| KTag::Proc {
            pid: Pid(pid),
            token: 0,
        };
        // Each case starts from a host whose CPU runs the first hardclock
        // body, kernel job 1 (the clock's IRQ at 10 ms, 25 µs of dispatch).
        let start = SimTime::from_us(10_050);
        let ticking = || {
            let (mut host, dev) = build_host(true);
            let _ = drain_component(&mut host, start);
            assert!(host
                .machine
                .job_tags()
                .any(|t| t == KTag::Kern { token: 1 }));
            (host, dev)
        };
        let dev = ticking().1;
        for (cmd, held) in [
            (dma(driver(dev.0)), true),
            (dma(driver(255)), false),
            (dma(proc(0)), false),
            (job(driver(1)), false),
            (job(proc(3)), false),
            (job(KTag::Kern { token: 7 }), false),
            (job(KTag::Kern { token: 1 }), false),
        ] {
            let (mut host, _) = ticking();
            host.machine.handle(start, cmd, &mut Vec::new());
            let mut enc = Enc::new();
            host.persist(&mut enc);
            let bytes = enc.into_bytes();
            let (mut back, _) = build_host(true);
            let got = back.restore(&mut Dec::new(&bytes));
            if held {
                got.expect("a pending kernel job and a DMA its driver started restore");
                let _ = drain_component(&mut back, SimTime::from_ms(11));
                assert_eq!(back.machine.active_dmas(), 0, "the restored DMA completed");
                assert_eq!(back.kernel.stats().ticks, 1, "the restored hardclock ran");
            } else {
                assert!(
                    matches!(got, Err(PersistError::Mismatch(_))),
                    "{cmd:?}: {got:?}"
                );
            }
        }
    }

    #[test]
    fn sleep_wakes_after_duration() {
        let (mut host, _dev) = build_host(false);
        let p = host.kernel.add_proc(Program::once(vec![
            Step::Sleep(Dur::from_ms(7)),
            Step::Compute(Dur::from_us(100)),
        ]));
        let evs = drain_component(&mut host, SimTime::from_secs(1));
        let exit = evs
            .iter()
            .find_map(|(t, e)| matches!(e, HostOut::ProcExited { pid } if *pid == p).then_some(*t))
            .expect("exited");
        // 7 ms sleep + 400 µs wakeup/context switch + 100 µs compute.
        assert_eq!(exit, SimTime::from_us(7_500));
    }
}
