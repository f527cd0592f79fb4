//! The kernel: driver host, process scheduler, socket/protocol engine,
//! clock, and timers.
//!
//! The kernel is a passive state machine with a component's shape
//! ([`Kernel::next_deadline`], [`Kernel::advance`], [`Kernel::handle`]),
//! driven only by its [`crate::Host`]. Its commands are the machine's
//! outputs (interrupt entries, job/DMA completions) and ring events; its
//! outputs drive the machine (CPU jobs, DMA starts, IRQ raises) and the
//! ring (frame submissions), and report measurement-point crossings,
//! drops, and deliveries to the testbed.

use crate::driver::{Ctx, Driver, DriverCall, KernOut, OpResult, Pkt, WakeKind};
use crate::ids::{DriverId, DropSite, KTag, Pid, Port};
use crate::mbuf::{AllocResult, MbufChain, MbufPool, MbufStats};
use crate::proc::{PState, Proc, Program, Stage, Step, Wait};
use crate::socket::{MetaKind, Sock, SockMeta, SockProto, ACK_LEN, TCP_OVERHEAD, UDP_OVERHEAD};
use ctms_rtpc::{CopyCost, ExecLevel, MachCmd, MemRegion};
use ctms_sim::{Dur, Pcg32, SimTime};
use ctms_tokenring::{Frame, Proto, StationId};
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// IRQ line assignments for the testbed hosts.
pub const LINE_DISK: u8 = 1;
/// The VCA adapter's line (level 6 with the default CPU config).
pub const LINE_VCA: u8 = 2;
/// The Token Ring adapter's line (level 5).
pub const LINE_TR: u8 = 3;
/// The system clock's line (level 7).
pub const LINE_CLOCK: u8 = 4;

/// Sentinel driver id for kernel-originated inter-driver calls.
pub const KERNEL_ID: DriverId = DriverId(255);

/// Calibrated kernel path costs. Each default cites its origin.
#[derive(Clone, Copy, Debug)]
pub struct KernCalib {
    /// CPU copy costs (§5.3's 1 µs/byte to IO Channel Memory).
    pub copy: CopyCost,
    /// Trap + syscall dispatch.
    pub syscall_entry: Dur,
    /// Process context switch / wakeup path.
    pub context_switch: Dur,
    /// Scheduling quantum for compute bursts.
    pub quantum: Dur,
    /// Per-packet transmit protocol cost (udp_output + ip_output +
    /// per-packet Token Ring header recomputation the paper's §3 calls
    /// out: "IP requests the Token Ring header be recomputed for each
    /// packet transmitted").
    pub proto_tx_pkt: Dur,
    /// Per-packet receive protocol cost (softnet dispatch + ip_input +
    /// udp_input).
    pub proto_rx_pkt: Dur,
    /// Checksum cost per payload byte (paid on both sides).
    pub checksum_per_byte: Dur,
    /// TCP-lite ack generation/processing cost.
    pub tcp_ack_cost: Dur,
    /// hardclock() period (100 Hz).
    pub hardclock_period: Dur,
    /// hardclock() handler body cost at clock level.
    pub hardclock_cost: Dur,
    /// Run softclock() every N ticks.
    pub softclock_every: u64,
    /// softclock() callout-processing cost at spl1.
    pub softclock_cost: Dur,
    /// TCP-lite retransmission timeout.
    pub retx_timeout: Dur,
}

impl Default for KernCalib {
    fn default() -> Self {
        KernCalib {
            copy: CopyCost::default(),
            syscall_entry: Dur::from_us(100),
            context_switch: Dur::from_us(400),
            quantum: Dur::from_ms(10),
            proto_tx_pkt: Dur::from_us(250),
            proto_rx_pkt: Dur::from_us(200),
            checksum_per_byte: Dur::from_ns(250),
            tcp_ack_cost: Dur::from_us(80),
            hardclock_period: Dur::from_ms(10),
            hardclock_cost: Dur::from_us(120),
            softclock_every: 4,
            softclock_cost: Dur::from_us(300),
            retx_timeout: Dur::from_secs(1),
        }
    }
}

/// Kernel configuration.
#[derive(Clone, Copy, Debug)]
pub struct KernConfig {
    /// Path cost calibration.
    pub calib: KernCalib,
    /// mbuf pool size (4.3BSD-era pools were small; exhaustion is a real
    /// failure mode of E1).
    pub mbuf_capacity: u32,
    /// Run the 100 Hz clock (off only for instrument-calibration tests).
    pub clock_enabled: bool,
}

impl Default for KernConfig {
    fn default() -> Self {
        KernConfig {
            calib: KernCalib::default(),
            mbuf_capacity: 2048,
            clock_enabled: true,
        }
    }
}

/// Commands into the kernel (machine outputs + ring events).
#[derive(Clone, Debug)]
pub enum KernCmd {
    /// Interrupt dispatch completed on `line`.
    IrqEntered {
        /// The line.
        line: u8,
    },
    /// A CPU job completed.
    JobDone {
        /// Its tag.
        tag: KTag,
    },
    /// A DMA completed.
    DmaDone {
        /// Its tag.
        tag: KTag,
    },
    /// A frame addressed to this host arrived.
    RingDelivered {
        /// The frame.
        frame: Frame,
    },
    /// The adapter finished transmitting a frame.
    RingStripped {
        /// Frame tag.
        tag: u64,
        /// Copied-bit ground truth.
        delivered: bool,
    },
    /// Inject an inter-driver call (tests, workload glue).
    Call {
        /// Target driver.
        driver: DriverId,
        /// The call.
        call: DriverCall,
    },
}

#[derive(Debug)]
enum TimerTarget {
    Driver(DriverId, u64),
    Hardclock,
    ProcSleep(Pid),
    TcpRetx(Port),
}

/// One armed timer. The kernel only ever arms timers and pops the
/// earliest (nothing cancels by handle), so they live in a binary
/// min-heap: `next_deadline` — called by the harness scheduler on every
/// reschedule of the host — is then a single array read instead of a
/// tree descent, and the per-tick hardclock re-arm is a cheap sift.
/// `(at, seq)` is unique (`seq` increments per arm), so pop order is
/// exactly the old `BTreeMap`'s iteration order.
#[derive(Debug)]
struct Timer {
    at: SimTime,
    seq: u64,
    target: TimerTarget,
}

impl PartialEq for Timer {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Timer {}
impl PartialOrd for Timer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timer {
    /// Reversed on `(at, seq)`, so `BinaryHeap` (a max-heap) pops the
    /// earliest timer first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

#[derive(Debug)]
enum KernJob {
    SoftnetRx(Pkt),
    HardclockBody,
    SoftclockBody,
}

#[derive(Debug)]
enum Work {
    Call {
        from: DriverId,
        to: DriverId,
        call: DriverCall,
    },
    Wake {
        pid: Pid,
        kind: WakeKind,
    },
    IpIn(Pkt),
    MbufReady {
        ticket: u64,
        chain: MbufChain,
    },
}

/// Kernel counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernStats {
    /// Packets through the softnet input path.
    pub softnet_pkts: u64,
    /// Received packets matching no socket (background traffic).
    pub unmatched_pkts: u64,
    /// TCP-lite out-of-order segments dropped (go-back-N).
    pub tcp_ooo_drops: u64,
    /// Clock ticks handled.
    pub ticks: u64,
    /// Acks transmitted.
    pub acks_tx: u64,
    /// Retransmissions sent.
    pub retx: u64,
}

impl ctms_sim::Instrument for KernStats {
    fn publish(&self, scope: &mut ctms_sim::telemetry::Scope<'_>) {
        scope.counter("softnet_pkts", self.softnet_pkts);
        scope.counter("unmatched_pkts", self.unmatched_pkts);
        scope.counter("tcp_ooo_drops", self.tcp_ooo_drops);
        scope.counter("ticks", self.ticks);
        scope.counter("acks_tx", self.acks_tx);
        scope.counter("retx", self.retx);
    }
}

/// The kernel. See module docs.
pub struct Kernel {
    cfg: KernConfig,
    drivers: Vec<Option<Box<dyn Driver>>>,
    line_map: [Option<DriverId>; ctms_rtpc::IRQ_LINES],
    net_if: Option<DriverId>,
    mbufs: MbufPool,
    rng: Pcg32,
    timers: BinaryHeap<Timer>,
    timer_seq: u64,
    procs: Vec<Proc>,
    socks: HashMap<u16, Sock>,
    /// In-flight kernel jobs keyed by token, sorted ascending. Tokens
    /// are handed out monotonically and few jobs are live at once, so a
    /// sorted vec beats a hash map on this per-job path.
    kern_jobs: Vec<(u64, KernJob)>,
    kern_job_seq: u64,
    mbuf_waiters: HashMap<u64, Pid>,
    work: VecDeque<Work>,
    stats: KernStats,
    booted: bool,
    /// Reusable dispatch buffers (see [`Kernel::with_driver`]): drained
    /// after every dispatch, capacity retained, so servicing a driver in
    /// steady state allocates nothing.
    scratch: DispatchScratch,
}

/// The side-effect buffers one driver dispatch fills (via `Ctx`) and the
/// kernel merges into its work queue afterwards. Held by the kernel and
/// reused across dispatches.
#[derive(Default)]
struct DispatchScratch {
    calls: Vec<(DriverId, DriverCall)>,
    wakes: Vec<(Pid, WakeKind)>,
    timers: Vec<(SimTime, DriverId, u64)>,
    ip_in: Vec<Pkt>,
    mbuf_ready: Vec<(u64, MbufChain)>,
}

impl Kernel {
    /// Creates a kernel.
    pub fn new(cfg: KernConfig, rng: Pcg32) -> Self {
        Kernel {
            mbufs: MbufPool::new(cfg.mbuf_capacity),
            cfg,
            drivers: Vec::new(),
            line_map: [None; ctms_rtpc::IRQ_LINES],
            net_if: None,
            rng,
            timers: BinaryHeap::new(),
            timer_seq: 0,
            procs: Vec::new(),
            socks: HashMap::new(),
            kern_jobs: Vec::new(),
            kern_job_seq: 0,
            mbuf_waiters: HashMap::new(),
            work: VecDeque::new(),
            stats: KernStats::default(),
            booted: false,
            scratch: DispatchScratch::default(),
        }
    }

    /// Registers a driver, optionally attaching it to an interrupt line.
    pub fn add_driver(&mut self, driver: Box<dyn Driver>, line: Option<u8>) -> DriverId {
        let id = DriverId(self.drivers.len() as u8);
        self.drivers.push(Some(driver));
        if let Some(l) = line {
            assert!(
                self.line_map[l as usize].is_none(),
                "line {l} already attached"
            );
            self.line_map[l as usize] = Some(id);
        }
        id
    }

    /// Declares which driver is the network interface (receives ring
    /// events and `NetOutput` calls).
    pub fn set_net_if(&mut self, id: DriverId) {
        self.net_if = Some(id);
    }

    /// Creates a socket endpoint.
    pub fn add_sock(&mut self, sock: Sock) {
        let port = sock.port.0;
        assert!(
            self.socks.insert(port, sock).is_none(),
            "port {port} already bound"
        );
    }

    /// Creates a process; it starts running at boot.
    pub fn add_proc(&mut self, program: Program) -> Pid {
        let pid = Pid(self.procs.len() as u32);
        assert!(!program.steps.is_empty(), "empty program");
        self.procs.push(Proc {
            pid,
            program,
            pc: 0,
            state: PState::Ready,
            seq: 0,
            pending_chain: None,
        });
        pid
    }

    /// Immutable driver downcast (post-run statistics extraction).
    pub fn driver_ref<T: 'static>(&self, id: DriverId) -> Option<&T> {
        self.drivers[id.0 as usize]
            .as_deref()
            .and_then(|d| d.as_any().downcast_ref::<T>())
    }

    /// Mutable driver downcast.
    pub fn driver_mut<T: 'static>(&mut self, id: DriverId) -> Option<&mut T> {
        self.drivers[id.0 as usize]
            .as_deref_mut()
            .and_then(|d| d.as_any_mut().downcast_mut::<T>())
    }

    /// Socket state (stats, buffer level).
    pub fn sock(&self, port: Port) -> Option<&Sock> {
        self.socks.get(&port.0)
    }

    /// Kernel counters.
    pub fn stats(&self) -> KernStats {
        self.stats
    }

    /// mbuf pool counters.
    pub fn mbuf_stats(&self) -> MbufStats {
        self.mbufs.stats()
    }

    /// Publishes the kernel's whole metric tree into `scope`: its own
    /// counters at the root, the mbuf pool under `mbuf`, sockets under
    /// `sock{port}` (ascending port order), and drivers under
    /// `drv{id}.{name}` (registration order). Ordering is fixed so the
    /// registry walk is deterministic.
    pub fn publish_telemetry(&self, scope: &mut ctms_sim::telemetry::Scope<'_>) {
        use ctms_sim::Instrument as _;
        self.stats.publish(scope);
        {
            let mut mbuf = scope.scope("mbuf");
            self.mbufs.stats().publish(&mut mbuf);
            mbuf.gauge("in_use", i64::from(self.mbufs.in_use()));
        }
        let mut ports: Vec<u16> = self.socks.keys().copied().collect();
        ports.sort_unstable();
        for port in ports {
            let sock = &self.socks[&port];
            let mut s = scope.scope(&format!("sock{port}"));
            sock.stats.publish(&mut s);
            s.gauge("rcv_bytes", i64::from(sock.rcv_bytes));
        }
        for (k, slot) in self.drivers.iter().enumerate() {
            if let Some(d) = slot.as_deref() {
                let mut s = scope.scope(&format!("drv{k}.{}", d.name()));
                d.publish_telemetry(&mut s);
            }
        }
    }

    /// Whether a process has exited.
    pub fn proc_exited(&self, pid: Pid) -> bool {
        self.procs[pid.0 as usize].state == PState::Exited
    }

    fn calib(&self) -> KernCalib {
        self.cfg.calib
    }

    fn arm(&mut self, at: SimTime, target: TimerTarget) {
        self.timer_seq += 1;
        self.timers.push(Timer {
            at,
            seq: self.timer_seq,
            target,
        });
    }

    /// Checks the tags a restored machine holds, its in-flight DMAs'
    /// and its CPU jobs', against this kernel's tables: a DMA completes
    /// only into a driver, and each tag must name a driver in the table,
    /// a process in the process table, or a pending kernel job (each
    /// held once), or its completion would index past a table.
    pub(crate) fn check_machine_tags(
        &self,
        dmas: impl Iterator<Item = KTag>,
        jobs: impl Iterator<Item = KTag>,
    ) -> Result<(), ctms_sim::PersistError> {
        let refuse = |what: String| {
            Err(ctms_sim::PersistError::mismatch(format!(
                "host checkpoint has {what}, which the rebuilt kernel does not hold"
            )))
        };
        let mut kern = Vec::new();
        for (tag, dma) in dmas.map(|t| (t, true)).chain(jobs.map(|t| (t, false))) {
            match tag {
                KTag::Driver { id, .. } => {
                    if usize::from(id.0) >= self.drivers.len() {
                        return refuse(format!("work for driver {}", id.0));
                    }
                }
                _ if dma => return refuse(format!("a DMA tagged {tag:?}")),
                KTag::Proc { pid, .. } => {
                    if pid.0 as usize >= self.procs.len() {
                        return refuse(format!("a job for process {}", pid.0));
                    }
                }
                KTag::Kern { token } => kern.push(token),
            }
        }
        kern.sort_unstable();
        for (k, &token) in kern.iter().enumerate() {
            let pending = self.kern_jobs.binary_search_by_key(&token, |e| e.0).is_ok();
            if !pending || kern.get(k + 1) == Some(&token) {
                return refuse(format!("a kernel job with token {token}"));
            }
        }
        Ok(())
    }

    fn alloc_kern_job(&mut self, job: KernJob) -> u64 {
        self.kern_job_seq += 1;
        // Monotonic token, so pushing keeps the vec sorted.
        self.kern_jobs.push((self.kern_job_seq, job));
        self.kern_job_seq
    }

    /// Runs `f` against driver `id` with a service context; merges queued
    /// side effects into the kernel work queue.
    ///
    /// The side-effect buffers live in `self.scratch` and are drained
    /// (not dropped) after the merge: a steady-state dispatch performs
    /// no heap allocation. Dispatches never nest — `f` has no path back
    /// into the kernel — so one set of buffers suffices.
    fn with_driver<R>(
        &mut self,
        id: DriverId,
        now: SimTime,
        out: &mut Vec<KernOut>,
        f: impl FnOnce(&mut dyn Driver, &mut Ctx) -> R,
    ) -> R {
        let mut driver = self.drivers[id.0 as usize]
            .take()
            .unwrap_or_else(|| panic!("driver {id:?} reentered or missing"));
        debug_assert!(
            self.scratch.calls.is_empty()
                && self.scratch.wakes.is_empty()
                && self.scratch.timers.is_empty()
                && self.scratch.ip_in.is_empty()
                && self.scratch.mbuf_ready.is_empty(),
            "dispatch scratch not drained"
        );
        let r = {
            let mut ctx = Ctx {
                now,
                mbufs: &mut self.mbufs,
                rng: &mut self.rng,
                copy: self.cfg.calib.copy,
                self_id: id,
                out,
                calls: &mut self.scratch.calls,
                wakes: &mut self.scratch.wakes,
                timers: &mut self.scratch.timers,
                ip_in: &mut self.scratch.ip_in,
                mbuf_ready: &mut self.scratch.mbuf_ready,
            };
            f(&mut *driver, &mut ctx)
        };
        self.drivers[id.0 as usize] = Some(driver);
        // `arm` needs `&mut self`; lend the timer buffer out for the loop.
        let mut timers = std::mem::take(&mut self.scratch.timers);
        for (at, did, token) in timers.drain(..) {
            self.arm(at, TimerTarget::Driver(did, token));
        }
        self.scratch.timers = timers;
        self.work
            .extend(self.scratch.calls.drain(..).map(|(to, call)| Work::Call {
                from: id,
                to,
                call,
            }));
        self.work.extend(
            self.scratch
                .wakes
                .drain(..)
                .map(|(pid, kind)| Work::Wake { pid, kind }),
        );
        self.work
            .extend(self.scratch.ip_in.drain(..).map(Work::IpIn));
        self.work.extend(
            self.scratch
                .mbuf_ready
                .drain(..)
                .map(|(ticket, chain)| Work::MbufReady { ticket, chain }),
        );
        r
    }

    /// Frees a chain from kernel context.
    fn free_chain(&mut self, chain: MbufChain) {
        self.mbufs.free_into(chain, &mut self.scratch.mbuf_ready);
        self.work.extend(
            self.scratch
                .mbuf_ready
                .drain(..)
                .map(|(ticket, chain)| Work::MbufReady { ticket, chain }),
        );
    }

    fn drain_work(&mut self, now: SimTime, out: &mut Vec<KernOut>) {
        let mut steps = 0u32;
        while let Some(w) = self.work.pop_front() {
            steps += 1;
            assert!(steps < 100_000, "kernel work cascade at {now}");
            match w {
                Work::Call { from, to, call } => {
                    self.with_driver(to, now, out, |d, ctx| d.on_call(ctx, from, call));
                }
                Work::Wake { pid, kind } => self.proc_wake(pid, kind, now, out),
                Work::IpIn(pkt) => {
                    self.stats.softnet_pkts += 1;
                    let cost = self.calib().proto_rx_pkt
                        + self.calib().checksum_per_byte * u64::from(pkt.len);
                    let token = self.alloc_kern_job(KernJob::SoftnetRx(pkt));
                    out.push(KernOut::Mach(MachCmd::Push(ctms_rtpc::Job {
                        tag: KTag::Kern { token },
                        cost,
                        level: ExecLevel::KernelSpl(1),
                    })));
                }
                Work::MbufReady { ticket, chain } => {
                    let Some(pid) = self.mbuf_waiters.remove(&ticket) else {
                        // Waiter vanished (exited process): return buffers.
                        self.free_chain(chain);
                        continue;
                    };
                    let p = &mut self.procs[pid.0 as usize];
                    if p.state == PState::Blocked(Wait::Mbuf(ticket)) {
                        p.pending_chain = Some(chain);
                        self.work.push_back(Work::Wake {
                            pid,
                            kind: WakeKind::Mbuf,
                        });
                    } else {
                        self.free_chain(chain);
                    }
                }
            }
        }
    }

    // ----- process machinery -------------------------------------------

    fn push_proc_job(
        &mut self,
        out: &mut Vec<KernOut>,
        pid: Pid,
        stage: Stage,
        cost: Dur,
        level: ExecLevel,
    ) {
        let p = &mut self.procs[pid.0 as usize];
        p.seq += 1;
        p.state = PState::OnCpu(stage);
        out.push(KernOut::Mach(MachCmd::Push(ctms_rtpc::Job {
            tag: KTag::Proc { pid, token: p.seq },
            cost,
            level,
        })));
    }

    fn start_step(&mut self, pid: Pid, now: SimTime, out: &mut Vec<KernOut>) {
        let p = &self.procs[pid.0 as usize];
        if p.state == PState::Exited {
            return;
        }
        let step = p.step();
        let calib = self.calib();
        match step {
            Step::Compute(d) => {
                let chunk = if d > calib.quantum { calib.quantum } else { d };
                self.push_proc_job(
                    out,
                    pid,
                    Stage::Compute {
                        remaining: d - chunk,
                    },
                    chunk,
                    ExecLevel::User,
                );
            }
            Step::Sleep(d) => {
                let p = &mut self.procs[pid.0 as usize];
                p.state = PState::Blocked(Wait::Sleeping);
                self.arm(now + d, TimerTarget::ProcSleep(pid));
            }
            _ => {
                self.push_proc_job(
                    out,
                    pid,
                    Stage::SyscallEntry,
                    calib.syscall_entry,
                    ExecLevel::User,
                );
            }
        }
    }

    fn step_complete(&mut self, pid: Pid, now: SimTime, out: &mut Vec<KernOut>) {
        let p = &mut self.procs[pid.0 as usize];
        p.pc += 1;
        if p.pc >= p.program.steps.len() {
            if p.program.looping {
                p.pc = 0;
            } else {
                p.state = PState::Exited;
                out.push(KernOut::ProcExited { pid });
                return;
            }
        }
        p.state = PState::Ready;
        self.start_step(pid, now, out);
    }

    fn proc_job_done(&mut self, pid: Pid, token: u64, now: SimTime, out: &mut Vec<KernOut>) {
        let p = &self.procs[pid.0 as usize];
        if p.seq != token {
            return; // stale completion after a state change
        }
        let PState::OnCpu(stage) = p.state else {
            return;
        };
        let step = p.step();
        let calib = self.calib();
        match stage {
            Stage::Compute { remaining } => {
                if remaining.is_zero() {
                    self.step_complete(pid, now, out);
                } else {
                    let chunk = if remaining > calib.quantum {
                        calib.quantum
                    } else {
                        remaining
                    };
                    self.push_proc_job(
                        out,
                        pid,
                        Stage::Compute {
                            remaining: remaining - chunk,
                        },
                        chunk,
                        ExecLevel::User,
                    );
                }
            }
            Stage::SyscallEntry => self.syscall_dispatch(pid, step, now, out),
            Stage::Copyout => self.step_complete(pid, now, out),
            Stage::CopyinDev => {
                let Step::WriteDev { dev, bytes } = step else {
                    unreachable!("CopyinDev outside WriteDev");
                };
                let r = self.with_driver(dev, now, out, |d, ctx| d.write(ctx, pid, bytes));
                match r {
                    OpResult::Done => self.step_complete(pid, now, out),
                    OpResult::Blocked => {
                        self.procs[pid.0 as usize].state = PState::Blocked(Wait::DevWrite(dev));
                    }
                }
            }
            Stage::CopyinSock => self.sock_send_continue(pid, now, out),
            Stage::Proto => self.sock_send_finish(pid, now, out),
            Stage::AfterWake(kind) => self.after_wake(pid, kind, now, out),
        }
    }

    fn syscall_dispatch(&mut self, pid: Pid, step: Step, now: SimTime, out: &mut Vec<KernOut>) {
        let calib = self.calib();
        match step {
            Step::ReadDev { dev, bytes } => {
                let r = self.with_driver(dev, now, out, |d, ctx| d.read(ctx, pid, bytes));
                match r {
                    OpResult::Done => {
                        let cost = calib.copy.copy(bytes, MemRegion::System, MemRegion::System);
                        self.push_proc_job(out, pid, Stage::Copyout, cost, ExecLevel::User);
                    }
                    OpResult::Blocked => {
                        self.procs[pid.0 as usize].state = PState::Blocked(Wait::DevRead(dev));
                    }
                }
            }
            Step::WriteDev { bytes, .. } => {
                let cost = calib.copy.copy(bytes, MemRegion::System, MemRegion::System);
                self.push_proc_job(out, pid, Stage::CopyinDev, cost, ExecLevel::User);
            }
            Step::SockSend { bytes, .. } => {
                let cost = calib.copy.copy(bytes, MemRegion::System, MemRegion::System);
                self.push_proc_job(out, pid, Stage::CopyinSock, cost, ExecLevel::User);
            }
            Step::SockRecv { port } => self.try_sock_recv(pid, port, now, out),
            Step::Ioctl { dev, req } => {
                self.with_driver(dev, now, out, |d, ctx| d.ioctl(ctx, pid, req));
                self.step_complete(pid, now, out);
            }
            Step::Compute(_) | Step::Sleep(_) => unreachable!("not syscalls"),
        }
    }

    fn try_sock_recv(&mut self, pid: Pid, port: Port, _now: SimTime, out: &mut Vec<KernOut>) {
        let calib = self.calib();
        let sock = self
            .socks
            .get_mut(&port.0)
            .unwrap_or_else(|| panic!("recv on unbound port {port:?}"));
        if let Some((bytes, _seq)) = sock.pop_rcv() {
            out.push(KernOut::SockDelivered { port, bytes });
            let cost = calib.copy.copy(bytes, MemRegion::System, MemRegion::System);
            // Free the buffers the packet occupied.
            let chain = MbufChain {
                len: bytes,
                count: MbufChain::mbufs_for(bytes),
            };
            self.free_chain(chain);
            self.push_proc_job(out, pid, Stage::Copyout, cost, ExecLevel::User);
        } else {
            sock.reader = Some(pid);
            self.procs[pid.0 as usize].state = PState::Blocked(Wait::SockData(port));
        }
    }

    fn sock_send_continue(&mut self, pid: Pid, now: SimTime, out: &mut Vec<KernOut>) {
        let Step::SockSend { port, bytes } = self.procs[pid.0 as usize].step() else {
            unreachable!("sock send continue outside SockSend");
        };
        let calib = self.calib();
        let sock = self
            .socks
            .get_mut(&port.0)
            .unwrap_or_else(|| panic!("send on unbound port {port:?}"));
        if sock.tcp_send_blocked(bytes) {
            sock.sender = Some((pid, bytes));
            self.procs[pid.0 as usize].state = PState::Blocked(Wait::SockSpace(port));
            return;
        }
        let overhead = match sock.proto {
            SockProto::UdpLite => UDP_OVERHEAD,
            SockProto::TcpLite => TCP_OVERHEAD,
        };
        match self.mbufs.alloc_wait(bytes + overhead) {
            AllocResult::Ok(chain) => {
                self.procs[pid.0 as usize].pending_chain = Some(chain);
                let cost = calib.proto_tx_pkt + calib.checksum_per_byte * u64::from(bytes);
                self.push_proc_job(out, pid, Stage::Proto, cost, ExecLevel::User);
            }
            AllocResult::Wait(ticket) => {
                self.mbuf_waiters.insert(ticket, pid);
                self.procs[pid.0 as usize].state = PState::Blocked(Wait::Mbuf(ticket));
            }
        }
        let _ = now;
    }

    fn sock_send_finish(&mut self, pid: Pid, now: SimTime, out: &mut Vec<KernOut>) {
        let Step::SockSend { port, bytes } = self.procs[pid.0 as usize].step() else {
            unreachable!("sock send finish outside SockSend");
        };
        let chain = self.procs[pid.0 as usize]
            .pending_chain
            .take()
            .expect("proto stage without chain");
        let calib = self.calib();
        let Some(net_if) = self.net_if else {
            // No interface: data vanishes (loopback-less host).
            self.free_chain(chain);
            self.step_complete(pid, now, out);
            return;
        };
        let sock = self.socks.get_mut(&port.0).expect("bound");
        let seq = sock.note_sent(bytes);
        let (kind, overhead) = match sock.proto {
            SockProto::UdpLite => (MetaKind::UdpData, UDP_OVERHEAD),
            SockProto::TcpLite => (MetaKind::TcpData, TCP_OVERHEAD),
        };
        let meta = SockMeta { port, kind, seq };
        let pkt = Pkt {
            proto: Proto::Ip,
            dst: sock.peer,
            len: bytes + overhead,
            tag: meta.encode(),
            priority: 0,
            chain: Some(chain),
        };
        if sock.proto == SockProto::TcpLite {
            if sock.retx_from_ns.is_none() {
                sock.retx_from_ns = Some(now.as_ns());
            }
            if !sock.tcp.retx_armed {
                sock.tcp.retx_armed = true;
                self.arm(now + calib.retx_timeout, TimerTarget::TcpRetx(port));
            }
        }
        self.work.push_back(Work::Call {
            from: KERNEL_ID,
            to: net_if,
            call: DriverCall::NetOutput(pkt),
        });
        self.step_complete(pid, now, out);
    }

    fn after_wake(&mut self, pid: Pid, kind: WakeKind, now: SimTime, out: &mut Vec<KernOut>) {
        let calib = self.calib();
        let step = self.procs[pid.0 as usize].step();
        match (kind, step) {
            (WakeKind::DevRead { bytes }, Step::ReadDev { .. }) => {
                let cost = calib.copy.copy(bytes, MemRegion::System, MemRegion::System);
                self.push_proc_job(out, pid, Stage::Copyout, cost, ExecLevel::User);
            }
            (WakeKind::DevWrite, Step::WriteDev { dev, bytes }) => {
                let r = self.with_driver(dev, now, out, |d, ctx| d.write(ctx, pid, bytes));
                match r {
                    OpResult::Done => self.step_complete(pid, now, out),
                    OpResult::Blocked => {
                        self.procs[pid.0 as usize].state = PState::Blocked(Wait::DevWrite(dev));
                    }
                }
            }
            (WakeKind::SockData, Step::SockRecv { port }) => {
                self.try_sock_recv(pid, port, now, out);
            }
            (WakeKind::SockSpace, Step::SockSend { .. }) => {
                self.sock_send_continue(pid, now, out);
            }
            (WakeKind::Mbuf, Step::SockSend { bytes, .. }) => {
                let cost = calib.proto_tx_pkt + calib.checksum_per_byte * u64::from(bytes);
                self.push_proc_job(out, pid, Stage::Proto, cost, ExecLevel::User);
            }
            (WakeKind::Timer, Step::Sleep(_)) => self.step_complete(pid, now, out),
            (k, s) => panic!("wake {k:?} does not match step {s:?} for {pid:?}"),
        }
    }

    fn proc_wake(&mut self, pid: Pid, kind: WakeKind, now: SimTime, out: &mut Vec<KernOut>) {
        let p = &self.procs[pid.0 as usize];
        let matches = matches!(
            (&p.state, kind),
            (PState::Blocked(Wait::DevRead(_)), WakeKind::DevRead { .. })
                | (PState::Blocked(Wait::DevWrite(_)), WakeKind::DevWrite)
                | (PState::Blocked(Wait::SockData(_)), WakeKind::SockData)
                | (PState::Blocked(Wait::SockSpace(_)), WakeKind::SockSpace)
                | (PState::Blocked(Wait::Mbuf(_)), WakeKind::Mbuf)
                | (PState::Blocked(Wait::Sleeping), WakeKind::Timer)
        );
        if !matches {
            return; // spurious wakeup
        }
        let cs = self.calib().context_switch;
        self.push_proc_job(out, pid, Stage::AfterWake(kind), cs, ExecLevel::User);
        let _ = now;
    }

    // ----- kernel jobs ---------------------------------------------------

    fn kern_job_done(&mut self, token: u64, now: SimTime, out: &mut Vec<KernOut>) {
        let Ok(slot) = self.kern_jobs.binary_search_by_key(&token, |e| e.0) else {
            panic!("unknown kernel job token {token}");
        };
        let (_, job) = self.kern_jobs.remove(slot);
        match job {
            KernJob::SoftnetRx(pkt) => self.softnet_rx(pkt, now, out),
            KernJob::HardclockBody => {
                self.stats.ticks += 1;
                if self.cfg.calib.softclock_every > 0
                    && self
                        .stats
                        .ticks
                        .is_multiple_of(self.cfg.calib.softclock_every)
                {
                    let token = self.alloc_kern_job(KernJob::SoftclockBody);
                    out.push(KernOut::Mach(MachCmd::Push(ctms_rtpc::Job {
                        tag: KTag::Kern { token },
                        cost: self.cfg.calib.softclock_cost,
                        level: ExecLevel::KernelSpl(1),
                    })));
                }
            }
            KernJob::SoftclockBody => {}
        }
    }

    /// Queues `payload` bytes on `port`'s receive buffer, waking a blocked
    /// reader. Returns false (with a drop record) on buffer or pool
    /// exhaustion. Buffer occupancy is held as a live pool allocation and
    /// released when the reader pops the datagram.
    fn sock_append(
        &mut self,
        port: Port,
        payload: u32,
        seq: u32,
        tag: u64,
        out: &mut Vec<KernOut>,
    ) -> bool {
        let sock = self.socks.get_mut(&port.0).expect("bound");
        if sock.rcv_bytes + payload > sock.rcv_cap {
            sock.stats.rx_drops += 1;
            out.push(KernOut::Drop {
                site: DropSite::SockbufFull,
                tag,
                bytes: payload,
            });
            return false;
        }
        if self.mbufs.alloc_nowait(payload).is_none() {
            sock.stats.rx_drops += 1;
            out.push(KernOut::Drop {
                site: DropSite::MbufExhausted,
                tag,
                bytes: payload,
            });
            return false;
        }
        let ok = sock.append_rcv(payload, seq);
        debug_assert!(ok, "capacity checked above");
        if let Some(pid) = sock.reader.take() {
            self.work.push_back(Work::Wake {
                pid,
                kind: WakeKind::SockData,
            });
        }
        true
    }

    fn softnet_rx(&mut self, pkt: Pkt, now: SimTime, out: &mut Vec<KernOut>) {
        if let Some(chain) = pkt.chain {
            // The driver's receive buffers are recycled once the protocol
            // layer has taken the packet; queued socket data is accounted
            // separately in `sock_append`.
            self.free_chain(chain);
        }
        let meta = SockMeta::decode(pkt.tag);
        let sock_exists = meta
            .map(|m| self.socks.contains_key(&m.port.0))
            .unwrap_or(false);
        let Some(meta) = meta.filter(|_| sock_exists) else {
            self.stats.unmatched_pkts += 1;
            return;
        };
        let port = meta.port;
        match meta.kind {
            MetaKind::UdpData => {
                let payload = pkt.len.saturating_sub(UDP_OVERHEAD);
                let _ = self.sock_append(port, payload, meta.seq, pkt.tag, out);
            }
            MetaKind::TcpData => {
                let payload = pkt.len.saturating_sub(TCP_OVERHEAD);
                let sock = self.socks.get_mut(&port.0).expect("bound");
                let peer = sock.peer;
                if meta.seq == sock.tcp.rcv_next {
                    if self.sock_append(port, payload, meta.seq, pkt.tag, out) {
                        let sock = self.socks.get_mut(&port.0).expect("bound");
                        sock.tcp.rcv_next = sock.tcp.rcv_next.wrapping_add(payload);
                    }
                } else {
                    self.stats.tcp_ooo_drops += 1;
                }
                // Cumulative ack either way (dup-ack on gaps).
                let ack_seq = self.socks.get(&port.0).expect("bound").tcp.rcv_next;
                self.send_ack(port, peer, ack_seq, now, out);
            }
            MetaKind::TcpAck => {
                let sock = self.socks.get_mut(&port.0).expect("bound");
                let freed = sock.apply_ack(meta.seq);
                if freed > 0 {
                    if let Some((pid, pending)) = sock.sender {
                        if !sock.tcp_send_blocked(pending) {
                            sock.sender = None;
                            self.work.push_back(Work::Wake {
                                pid,
                                kind: WakeKind::SockSpace,
                            });
                        }
                    }
                }
            }
        }
    }

    fn send_ack(
        &mut self,
        port: Port,
        peer: StationId,
        ack_seq: u32,
        _now: SimTime,
        out: &mut Vec<KernOut>,
    ) {
        let Some(net_if) = self.net_if else { return };
        let Some(chain) = self.mbufs.alloc_nowait(ACK_LEN) else {
            out.push(KernOut::Drop {
                site: DropSite::MbufExhausted,
                tag: 0,
                bytes: ACK_LEN,
            });
            return;
        };
        self.stats.acks_tx += 1;
        if let Some(sock) = self.socks.get_mut(&port.0) {
            sock.stats.acks_tx += 1;
        }
        let meta = SockMeta {
            port,
            kind: MetaKind::TcpAck,
            seq: ack_seq,
        };
        // Ack processing cost rides on a small spl1 job.
        let token = self.alloc_kern_job(KernJob::SoftclockBody);
        out.push(KernOut::Mach(MachCmd::Push(ctms_rtpc::Job {
            tag: KTag::Kern { token },
            cost: self.cfg.calib.tcp_ack_cost,
            level: ExecLevel::KernelSpl(1),
        })));
        self.work.push_back(Work::Call {
            from: KERNEL_ID,
            to: net_if,
            call: DriverCall::NetOutput(Pkt {
                proto: Proto::Ip,
                dst: peer,
                len: ACK_LEN,
                tag: meta.encode(),
                priority: 0,
                chain: Some(chain),
            }),
        });
    }

    fn tcp_retx(&mut self, port: Port, now: SimTime, _out: &mut Vec<KernOut>) {
        let calib = self.calib();
        let Some(sock) = self.socks.get_mut(&port.0) else {
            return;
        };
        let Some(&(seq, bytes)) = sock.unacked.front() else {
            sock.tcp.retx_armed = false;
            return;
        };
        // Only retransmit when the oldest unacked segment has actually
        // aged past the timeout; otherwise just re-arm for the residual.
        let aged = sock
            .retx_from_ns
            .map(|t0| now.as_ns().saturating_sub(t0) >= calib.retx_timeout.as_ns())
            .unwrap_or(false);
        if !aged {
            self.arm(now + calib.retx_timeout, TimerTarget::TcpRetx(port));
            return;
        }
        sock.retx_from_ns = Some(now.as_ns());
        let peer = sock.peer;
        sock.stats.retx += 1;
        self.stats.retx += 1;
        let Some(chain) = self.mbufs.alloc_nowait(bytes + TCP_OVERHEAD) else {
            self.arm(now + calib.retx_timeout, TimerTarget::TcpRetx(port));
            return;
        };
        let meta = SockMeta {
            port,
            kind: MetaKind::TcpData,
            seq,
        };
        if let Some(net_if) = self.net_if {
            self.work.push_back(Work::Call {
                from: KERNEL_ID,
                to: net_if,
                call: DriverCall::NetOutput(Pkt {
                    proto: Proto::Ip,
                    dst: peer,
                    len: bytes + TCP_OVERHEAD,
                    tag: meta.encode(),
                    priority: 0,
                    chain: Some(chain),
                }),
            });
        }
        self.arm(now + calib.retx_timeout, TimerTarget::TcpRetx(port));
    }

    fn boot(&mut self, now: SimTime, out: &mut Vec<KernOut>) {
        self.booted = true;
        if self.cfg.clock_enabled {
            self.arm(
                now + self.cfg.calib.hardclock_period,
                TimerTarget::Hardclock,
            );
        }
        for id in 0..self.drivers.len() as u8 {
            self.with_driver(DriverId(id), now, out, |d, ctx| d.on_boot(ctx));
        }
        for pid in 0..self.procs.len() as u32 {
            if self.procs[pid as usize].state == PState::Ready {
                self.start_step(Pid(pid), now, out);
            }
        }
    }
}

fn persist_timer_target(enc: &mut ctms_sim::Enc, t: &TimerTarget) {
    match t {
        TimerTarget::Driver(id, token) => {
            enc.u8(0);
            enc.u8(id.0);
            enc.u64(*token);
        }
        TimerTarget::Hardclock => enc.u8(1),
        TimerTarget::ProcSleep(pid) => {
            enc.u8(2);
            enc.u32(pid.0);
        }
        TimerTarget::TcpRetx(port) => {
            enc.u8(3);
            enc.u16(port.0);
        }
    }
}

fn restore_timer_target(
    dec: &mut ctms_sim::Dec<'_>,
) -> Result<TimerTarget, ctms_sim::PersistError> {
    Ok(match dec.u8()? {
        0 => TimerTarget::Driver(DriverId(dec.u8()?), dec.u64()?),
        1 => TimerTarget::Hardclock,
        2 => TimerTarget::ProcSleep(Pid(dec.u32()?)),
        3 => TimerTarget::TcpRetx(Port(dec.u16()?)),
        tag => {
            return Err(ctms_sim::PersistError::BadTag {
                what: "timer target",
                tag,
            })
        }
    })
}

fn persist_kern_job(enc: &mut ctms_sim::Enc, j: &KernJob) {
    match j {
        KernJob::SoftnetRx(pkt) => {
            enc.u8(0);
            pkt.persist(enc);
        }
        KernJob::HardclockBody => enc.u8(1),
        KernJob::SoftclockBody => enc.u8(2),
    }
}

fn restore_kern_job(dec: &mut ctms_sim::Dec<'_>) -> Result<KernJob, ctms_sim::PersistError> {
    Ok(match dec.u8()? {
        0 => KernJob::SoftnetRx(Pkt::decode(dec)?),
        1 => KernJob::HardclockBody,
        2 => KernJob::SoftclockBody,
        tag => {
            return Err(ctms_sim::PersistError::BadTag {
                what: "kernel job",
                tag,
            })
        }
    })
}

impl ctms_sim::Persist for Kernel {
    /// Dynamic kernel state: the mbuf pool, the rng, the timer wheel,
    /// process/socket/kernel-job tables, waiter maps, counters, the boot
    /// latch, and each driver's own state (framed by driver name so a
    /// topology mismatch is caught by name, not by silent misparse).
    /// `cfg`, programs, bindings and the driver set are structural. The
    /// `work` queue and dispatch scratch are always drained between
    /// events, so a sync-instant checkpoint never contains them.
    fn persist(&self, enc: &mut ctms_sim::Enc) {
        debug_assert!(
            self.work.is_empty(),
            "checkpoint with undrained kernel work"
        );
        self.mbufs.persist(enc);
        self.rng.persist(enc);
        // The heap iterates in arbitrary order; encode sorted by
        // `(at, seq)` so the byte stream matches the old `BTreeMap`
        // encoding exactly (persist is cold, the sort is fine here).
        let mut timers: Vec<&Timer> = self.timers.iter().collect();
        timers.sort_unstable_by_key(|t| (t.at, t.seq));
        enc.seq_len(timers.len());
        for t in timers {
            enc.time(t.at);
            enc.u64(t.seq);
            persist_timer_target(enc, &t.target);
        }
        enc.u64(self.timer_seq);
        enc.seq_len(self.procs.len());
        for p in &self.procs {
            crate::proc::persist_proc(enc, p);
        }
        let mut ports: Vec<u16> = self.socks.keys().copied().collect();
        ports.sort_unstable();
        enc.seq_len(ports.len());
        for port in ports {
            self.socks[&port].persist(enc);
        }
        // Already sorted by token — encodes byte-identically to the
        // sorted-HashMap layout this replaced.
        enc.seq_len(self.kern_jobs.len());
        for (token, job) in &self.kern_jobs {
            enc.u64(*token);
            persist_kern_job(enc, job);
        }
        enc.u64(self.kern_job_seq);
        let mut waiters: Vec<u64> = self.mbuf_waiters.keys().copied().collect();
        waiters.sort_unstable();
        enc.seq_len(waiters.len());
        for ticket in waiters {
            enc.u64(ticket);
            enc.u32(self.mbuf_waiters[&ticket].0);
        }
        enc.u64(self.stats.softnet_pkts);
        enc.u64(self.stats.unmatched_pkts);
        enc.u64(self.stats.tcp_ooo_drops);
        enc.u64(self.stats.ticks);
        enc.u64(self.stats.acks_tx);
        enc.u64(self.stats.retx);
        enc.bool(self.booted);
        enc.seq_len(self.drivers.len());
        for slot in &self.drivers {
            let d = slot.as_deref().expect("checkpoint during driver dispatch");
            enc.str(d.name());
            let mut sub = ctms_sim::Enc::new();
            d.persist_state(&mut sub);
            enc.bytes(&sub.into_bytes());
        }
    }

    fn restore(&mut self, dec: &mut ctms_sim::Dec<'_>) -> Result<(), ctms_sim::PersistError> {
        self.mbufs.restore(dec)?;
        self.rng.restore(dec)?;
        self.timers = dec
            .seq(|d| {
                let at = d.time()?;
                let seq = d.u64()?;
                let target = restore_timer_target(d)?;
                Ok(Timer { at, seq, target })
            })?
            .into_iter()
            .collect();
        self.timer_seq = dec.u64()?;
        let n = dec.seq_len()?;
        if n != self.procs.len() {
            return Err(ctms_sim::PersistError::mismatch(format!(
                "kernel checkpoint has {n} processes, rebuilt kernel has {}",
                self.procs.len()
            )));
        }
        for p in &mut self.procs {
            crate::proc::restore_proc(dec, p)?;
        }
        let n = dec.seq_len()?;
        if n != self.socks.len() {
            return Err(ctms_sim::PersistError::mismatch(format!(
                "kernel checkpoint has {n} sockets, rebuilt kernel has {}",
                self.socks.len()
            )));
        }
        let mut ports: Vec<u16> = self.socks.keys().copied().collect();
        ports.sort_unstable();
        for port in ports {
            self.socks.get_mut(&port).expect("present").restore(dec)?;
        }
        self.kern_jobs = dec.seq(|d| Ok((d.u64()?, restore_kern_job(d)?)))?;
        self.kern_jobs.sort_unstable_by_key(|e| e.0);
        self.kern_job_seq = dec.u64()?;
        self.mbuf_waiters = dec
            .seq(|d| Ok((d.u64()?, Pid(d.u32()?))))?
            .into_iter()
            .collect();
        self.stats = KernStats {
            softnet_pkts: dec.u64()?,
            unmatched_pkts: dec.u64()?,
            tcp_ooo_drops: dec.u64()?,
            ticks: dec.u64()?,
            acks_tx: dec.u64()?,
            retx: dec.u64()?,
        };
        self.booted = dec.bool()?;
        let n = dec.seq_len()?;
        if n != self.drivers.len() {
            return Err(ctms_sim::PersistError::mismatch(format!(
                "kernel checkpoint has {n} drivers, rebuilt kernel has {}",
                self.drivers.len()
            )));
        }
        for (k, slot) in self.drivers.iter_mut().enumerate() {
            let d = slot.as_deref_mut().expect("driver present");
            let name = dec.str()?;
            if name != d.name() {
                return Err(ctms_sim::PersistError::mismatch(format!(
                    "driver {k} checkpoint is for '{name}', rebuilt kernel has '{}'",
                    d.name()
                )));
            }
            let bytes = dec.bytes()?;
            let mut sub = ctms_sim::Dec::new(&bytes);
            d.restore_state(&mut sub)?;
            sub.finish()?;
        }
        for timer in &self.timers {
            if let TimerTarget::Driver(id, token) = timer.target {
                let accepted = self
                    .drivers
                    .get(id.0 as usize)
                    .and_then(Option::as_deref)
                    .is_some_and(|d| d.accepts_timer(token));
                if !accepted {
                    return Err(ctms_sim::PersistError::mismatch(format!(
                        "kernel checkpoint has a timer for driver {} with token {token}, which \
                         the rebuilt kernel's {} drivers do not take",
                        id.0,
                        self.drivers.len()
                    )));
                }
            }
        }
        self.work.clear();
        Ok(())
    }
}

/// The kernel's event interface. Only [`crate::Host`] calls it: the
/// host feeds in the machine's outputs and ring events and collects
/// what comes out in one retained `Vec` (the buffer every device
/// driver's [`Ctx`] writes too), so these take that `Vec` rather than
/// a generic sink.
impl Kernel {
    /// The next instant the kernel needs control: boot, then its
    /// earliest timer.
    pub fn next_deadline(&self) -> Option<SimTime> {
        if !self.booted {
            return Some(SimTime::ZERO);
        }
        self.timers.peek().map(|t| t.at)
    }

    /// Boots if it has not, fires every timer due at or before `now`,
    /// and runs the work that follows, appending outputs to `sink`.
    pub fn advance(&mut self, now: SimTime, sink: &mut Vec<KernOut>) {
        if !self.booted {
            self.boot(now, sink);
        }
        while let Some(head) = self.timers.peek() {
            if head.at > now {
                break;
            }
            let Timer { target, .. } = self.timers.pop().expect("peeked entry");
            match target {
                TimerTarget::Driver(id, token) => {
                    self.with_driver(id, now, sink, |d, ctx| d.on_timer(ctx, token));
                }
                TimerTarget::Hardclock => {
                    sink.push(KernOut::Mach(MachCmd::RaiseIrq { line: LINE_CLOCK }));
                    self.arm(
                        now + self.cfg.calib.hardclock_period,
                        TimerTarget::Hardclock,
                    );
                }
                TimerTarget::ProcSleep(pid) => {
                    self.work.push_back(Work::Wake {
                        pid,
                        kind: WakeKind::Timer,
                    });
                }
                TimerTarget::TcpRetx(port) => self.tcp_retx(port, now, sink),
            }
        }
        self.drain_work(now, sink);
    }

    /// Delivers `cmd` at `now` and runs the work that follows,
    /// appending outputs to `sink`.
    pub fn handle(&mut self, now: SimTime, cmd: KernCmd, sink: &mut Vec<KernOut>) {
        match cmd {
            KernCmd::IrqEntered { line } => {
                if line == LINE_CLOCK {
                    let token = self.alloc_kern_job(KernJob::HardclockBody);
                    sink.push(KernOut::Mach(MachCmd::Push(ctms_rtpc::Job {
                        tag: KTag::Kern { token },
                        cost: self.cfg.calib.hardclock_cost,
                        level: ExecLevel::Irq(LINE_CLOCK),
                    })));
                } else if let Some(id) = self.line_map[line as usize] {
                    self.with_driver(id, now, sink, |d, ctx| d.on_interrupt(ctx));
                }
            }
            KernCmd::JobDone { tag } => match tag {
                KTag::Driver { id, token } => {
                    self.with_driver(id, now, sink, |d, ctx| d.on_job(ctx, token));
                }
                KTag::Proc { pid, token } => self.proc_job_done(pid, token, now, sink),
                KTag::Kern { token } => self.kern_job_done(token, now, sink),
            },
            KernCmd::DmaDone { tag } => match tag {
                KTag::Driver { id, token } => {
                    self.with_driver(id, now, sink, |d, ctx| d.on_dma(ctx, token));
                }
                other => panic!("DMA completion with non-driver tag {other:?}"),
            },
            KernCmd::RingDelivered { frame } => {
                let id = self.net_if.expect("ring delivery without net_if");
                self.with_driver(id, now, sink, |d, ctx| d.on_ring_delivered(ctx, frame));
            }
            KernCmd::RingStripped { tag, delivered } => {
                let id = self.net_if.expect("ring strip without net_if");
                self.with_driver(id, now, sink, |d, ctx| {
                    d.on_ring_stripped(ctx, tag, delivered)
                });
            }
            KernCmd::Call { driver, call } => {
                self.with_driver(driver, now, sink, |d, ctx| d.on_call(ctx, KERNEL_ID, call));
            }
        }
        self.drain_work(now, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{Host, HostCmd, HostOut};
    use ctms_rtpc::{Machine, MachineConfig};
    use ctms_sim::{drain_component, Component};

    fn quiet_host(cfg: KernConfig) -> Host {
        Host::new(
            Machine::new(MachineConfig::default()),
            Kernel::new(cfg, Pcg32::new(3, 9)),
        )
    }

    #[test]
    fn hardclock_ticks_at_100hz() {
        let mut host = quiet_host(KernConfig::default());
        let _ = drain_component(&mut host, SimTime::from_secs(1));
        let ticks = host.kernel.stats().ticks;
        assert!((98..=100).contains(&ticks), "{ticks}");
    }

    #[test]
    fn clock_disabled_means_no_ticks() {
        let cfg = KernConfig {
            clock_enabled: false,
            ..Default::default()
        };
        let mut host = quiet_host(cfg);
        let evs = drain_component(&mut host, SimTime::from_secs(1));
        assert!(evs.is_empty());
        assert_eq!(host.kernel.stats().ticks, 0);
    }

    #[test]
    fn exhausted_pool_blocks_sender_until_free() {
        // Two processes each sending a 2000-byte datagram through a pool
        // that can hold only one packet's worth of mbufs: the second
        // waits on the pool and resumes when the first send's buffers
        // free (no net_if: the kernel frees the chain at send-finish).
        let cfg = KernConfig {
            clock_enabled: false,
            mbuf_capacity: 20, // 2028 bytes -> 19 mbufs
            ..Default::default()
        };
        let mut kernel = Kernel::new(cfg, Pcg32::new(5, 2));
        let port = Port(4);
        kernel.add_sock(Sock::new(port, SockProto::UdpLite, StationId(1), 16 * 1024));
        let a = kernel.add_proc(Program::once(vec![Step::SockSend { port, bytes: 2000 }]));
        let b = kernel.add_proc(Program::once(vec![Step::SockSend { port, bytes: 2000 }]));
        let mut host = Host::new(Machine::new(MachineConfig::default()), kernel);
        let evs = drain_component(&mut host, SimTime::from_secs(5));
        let exits = evs
            .iter()
            .filter(|(_, e)| matches!(e, HostOut::ProcExited { .. }))
            .count();
        assert_eq!(exits, 2, "both senders completed: {evs:?}");
        assert!(host.kernel.proc_exited(a) && host.kernel.proc_exited(b));
        let stats = host.kernel.mbuf_stats();
        assert!(stats.waits >= 1, "second sender waited: {stats:?}");
        assert_eq!(host.kernel.mbuf_stats().peak_in_use, 19);
    }

    #[test]
    fn unmatched_ip_packets_cost_softnet_only() {
        let cfg = KernConfig {
            clock_enabled: false,
            ..Default::default()
        };
        let mut kernel = Kernel::new(cfg, Pcg32::new(7, 7));
        // A net_if-less kernel still runs protocol input when a driver
        // feeds it; emulate via a driver that calls ip_input.
        struct FeedOnce;
        impl crate::driver::Driver for FeedOnce {
            fn name(&self) -> &'static str {
                "feed"
            }
            fn on_call(
                &mut self,
                ctx: &mut crate::driver::Ctx,
                _from: DriverId,
                _call: DriverCall,
            ) {
                let chain = ctx.mbufs.alloc_nowait(300).expect("space");
                ctx.ip_input(Pkt {
                    proto: Proto::Ip,
                    dst: StationId(0),
                    len: 300,
                    tag: 0xFFFF_FF00_0000_0000, // invalid socket meta
                    priority: 0,
                    chain: Some(chain),
                });
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let feed = kernel.add_driver(Box::new(FeedOnce), None);
        let mut host = Host::new(Machine::new(MachineConfig::default()), kernel);
        let mut sink = Vec::new();
        host.handle(
            SimTime::ZERO,
            HostCmd::Kern(KernCmd::Call {
                driver: feed,
                call: DriverCall::Custom { code: 0, arg: 0 },
            }),
            &mut sink,
        );
        let _ = drain_component(&mut host, SimTime::from_ms(10));
        assert_eq!(host.kernel.stats().softnet_pkts, 1);
        assert_eq!(host.kernel.stats().unmatched_pkts, 1);
        // The arriving chain was freed.
        assert_eq!(host.kernel.mbuf_stats().allocs, 1);
        assert_eq!(
            host.kernel.mbuf_stats().peak_in_use,
            crate::mbuf::MbufChain::mbufs_for(300)
        );
    }

    #[test]
    fn restore_refuses_a_timer_its_driver_does_not_take() {
        // A driver that arms timers 0 and 1 only, as the kernel's one
        // driver (id 0).
        struct TwoTimers;
        impl crate::driver::Driver for TwoTimers {
            fn name(&self) -> &'static str {
                "two-timers"
            }
            fn accepts_timer(&self, token: u64) -> bool {
                token < 2
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        use ctms_sim::{Dec, Enc, Persist, PersistError};
        let build = || {
            let cfg = KernConfig {
                clock_enabled: false,
                ..Default::default()
            };
            let mut kernel = Kernel::new(cfg, Pcg32::new(2, 2));
            kernel.add_driver(Box::new(TwoTimers), None);
            kernel
        };
        for (id, token, taken) in [(0, 1, true), (0, 2, false), (1, 0, false), (255, 0, false)] {
            let mut kernel = build();
            kernel.arm(
                SimTime::from_ms(5),
                TimerTarget::Driver(DriverId(id), token),
            );
            let mut enc = Enc::new();
            kernel.persist(&mut enc);
            let bytes = enc.into_bytes();
            let mut back = build();
            let got = back.restore(&mut Dec::new(&bytes));
            if taken {
                got.expect("a timer its driver takes restores");
                back.advance(SimTime::from_ms(10), &mut Vec::new());
                assert!(back.timers.is_empty(), "the restored timer fired");
            } else {
                assert!(
                    matches!(got, Err(PersistError::Mismatch(_))),
                    "driver {id} token {token}: {got:?}"
                );
            }
        }
    }

    #[test]
    fn sleep_timers_fire_in_order() {
        let cfg = KernConfig {
            clock_enabled: false,
            ..Default::default()
        };
        let mut kernel = Kernel::new(cfg, Pcg32::new(9, 1));
        let p1 = kernel.add_proc(Program::once(vec![Step::Sleep(Dur::from_ms(30))]));
        let p2 = kernel.add_proc(Program::once(vec![Step::Sleep(Dur::from_ms(10))]));
        let mut host = Host::new(Machine::new(MachineConfig::default()), kernel);
        let evs = drain_component(&mut host, SimTime::from_secs(1));
        let exits: Vec<Pid> = evs
            .iter()
            .filter_map(|(_, e)| match e {
                HostOut::ProcExited { pid } => Some(*pid),
                _ => None,
            })
            .collect();
        assert_eq!(exits, vec![p2, p1], "shorter sleep exits first");
    }
}
