//! The device-driver framework.
//!
//! Drivers are kernel-resident state machines invoked by the kernel on
//! interrupt entry, job/DMA completion, timers, ring events, user I/O and
//! inter-driver calls. The inter-driver call mechanism is the paper's §2
//! modification: "direct driver to driver data transfers … requires that
//! the source device be given a function which when executed will effect
//! the transfer of data between the two devices", with handles exchanged
//! via new `ioctl` calls.

use crate::ids::{DriverId, DropSite, MeasurePoint, Pid};
use crate::mbuf::MbufChain;
use ctms_rtpc::{ExecLevel, MemRegion};
use ctms_sim::{Dur, Pcg32, SimTime};
use ctms_tokenring::{Proto, StationId};
use std::any::Any;

/// A network packet travelling through the kernel (an mbuf chain plus the
/// metadata a real packet would carry in its headers).
#[derive(Clone, Debug)]
pub struct Pkt {
    /// Link protocol.
    pub proto: Proto,
    /// Destination station.
    pub dst: StationId,
    /// Information-field length in bytes (headers + payload).
    pub len: u32,
    /// Metadata tag (CTMSP packet number, or encoded socket meta).
    pub tag: u64,
    /// Ring access priority requested.
    pub priority: u8,
    /// The buffers (None when the data never left a fixed DMA buffer —
    /// the paper's no-copy receive variant).
    pub chain: Option<MbufChain>,
}

impl Pkt {
    /// Appends this packet's canonical checkpoint bytes.
    pub fn persist(&self, enc: &mut ctms_sim::Enc) {
        enc.u8(match self.proto {
            Proto::Arp => 0,
            Proto::Ip => 1,
            Proto::Ctmsp => 2,
            Proto::Other => 3,
        });
        enc.u32(self.dst.0);
        enc.u32(self.len);
        enc.u64(self.tag);
        enc.u8(self.priority);
        enc.opt(self.chain.as_ref(), |e, c| {
            e.u32(c.len);
            e.u32(c.count);
        });
    }

    /// Decodes a packet persisted by [`Pkt::persist`].
    pub fn decode(dec: &mut ctms_sim::Dec<'_>) -> Result<Pkt, ctms_sim::PersistError> {
        let proto = match dec.u8()? {
            0 => Proto::Arp,
            1 => Proto::Ip,
            2 => Proto::Ctmsp,
            3 => Proto::Other,
            tag => {
                return Err(ctms_sim::PersistError::BadTag {
                    what: "packet proto",
                    tag,
                })
            }
        };
        Ok(Pkt {
            proto,
            dst: StationId(dec.u32()?),
            len: dec.u32()?,
            tag: dec.u64()?,
            priority: dec.u8()?,
            chain: dec.opt(|d| {
                Ok(MbufChain {
                    len: d.u32()?,
                    count: d.u32()?,
                })
            })?,
        })
    }
}

/// Result of a user `read`/`write` entering a driver.
#[derive(Debug, PartialEq, Eq)]
pub enum OpResult {
    /// Completed: proceed (copy costs are the kernel's to pay).
    Done,
    /// The process must block; the driver will wake it later.
    Blocked,
}

/// Inter-driver calls (including the paper's direct-transfer handles).
#[derive(Clone, Debug)]
pub enum DriverCall {
    /// Stock path: enqueue a packet on the interface output queue.
    NetOutput(Pkt),
    /// §2 send handle: a CTMS source device hands a finished packet
    /// directly to the Token Ring driver at interrupt level.
    CtmspSend(Pkt),
    /// §2 receive handle: the Token Ring driver hands a received CTMSP
    /// packet directly to the destination presentation device.
    CtmspDeliver(Pkt),
    /// Free-form call for extensions.
    Custom {
        /// Call code.
        code: u32,
        /// Argument.
        arg: u64,
    },
}

/// How a process wakeup should resume its pending operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WakeKind {
    /// Device read data is ready (`bytes` available).
    DevRead {
        /// Bytes now available.
        bytes: u32,
    },
    /// Device write space is available.
    DevWrite,
    /// Socket data arrived.
    SockData,
    /// Socket send space (TCP window / buffer) opened.
    SockSpace,
    /// A waited-on mbuf allocation was satisfied.
    Mbuf,
    /// Sleep expired.
    Timer,
}

/// Events the kernel emits for the testbed router.
#[derive(Debug)]
pub enum KernOut {
    /// Drive the machine (CPU/DMA).
    Mach(ctms_rtpc::MachCmd<crate::ids::KTag>),
    /// Submit a frame to the ring.
    RingSubmit(ctms_tokenring::Frame),
    /// A measurement point was crossed (ground truth for the edge logs).
    Trace {
        /// Which point.
        point: MeasurePoint,
        /// Packet number or 0.
        tag: u64,
    },
    /// Data was lost.
    Drop {
        /// Where.
        site: DropSite,
        /// Packet tag or 0.
        tag: u64,
        /// Bytes lost.
        bytes: u32,
    },
    /// CTMS payload reached the presentation device (sink-side ground
    /// truth for throughput/buffer accounting).
    Presented {
        /// Packet number.
        tag: u64,
        /// Payload bytes.
        bytes: u32,
    },
    /// A socket delivered payload to a local reader.
    SockDelivered {
        /// Socket port.
        port: crate::ids::Port,
        /// Payload bytes.
        bytes: u32,
    },
    /// A process exited (program complete).
    ProcExited {
        /// Which process.
        pid: Pid,
    },
}

/// Services a driver may use during a kernel dispatch.
pub struct Ctx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The mbuf pool.
    pub mbufs: &'a mut crate::mbuf::MbufPool,
    /// Deterministic randomness (stream-split per host).
    pub rng: &'a mut Pcg32,
    /// CPU copy-cost calibration.
    pub copy: ctms_rtpc::CopyCost,
    pub(crate) self_id: DriverId,
    pub(crate) out: &'a mut Vec<KernOut>,
    pub(crate) calls: &'a mut Vec<(DriverId, DriverCall)>,
    pub(crate) wakes: &'a mut Vec<(Pid, WakeKind)>,
    pub(crate) timers: &'a mut Vec<(SimTime, DriverId, u64)>,
    pub(crate) ip_in: &'a mut Vec<Pkt>,
    pub(crate) mbuf_ready: &'a mut Vec<(u64, MbufChain)>,
}

impl Ctx<'_> {
    /// This driver's id.
    pub fn self_id(&self) -> DriverId {
        self.self_id
    }

    /// Pushes a CPU job owned by this driver; completion calls
    /// [`Driver::on_job`] with `token`.
    pub fn push_job(&mut self, token: u64, cost: Dur, level: ExecLevel) {
        self.out
            .push(KernOut::Mach(ctms_rtpc::MachCmd::Push(ctms_rtpc::Job {
                tag: crate::ids::KTag::Driver {
                    id: self.self_id,
                    token,
                },
                cost,
                level,
            })));
    }

    /// Starts a DMA transfer owned by this driver; completion calls
    /// [`Driver::on_dma`] with `token`.
    pub fn start_dma(&mut self, token: u64, bytes: u32, per_byte: Dur, region: MemRegion) {
        self.out.push(KernOut::Mach(ctms_rtpc::MachCmd::StartDma {
            bytes,
            per_byte,
            region,
            tag: crate::ids::KTag::Driver {
                id: self.self_id,
                token,
            },
        }));
    }

    /// Raises a machine interrupt line (device hardware behaviour).
    pub fn raise_irq(&mut self, line: u8) {
        self.out
            .push(KernOut::Mach(ctms_rtpc::MachCmd::RaiseIrq { line }));
    }

    /// Arms a timer; at `at` the kernel calls [`Driver::on_timer`].
    pub fn set_timer(&mut self, token: u64, at: SimTime) {
        self.timers.push((at, self.self_id, token));
    }

    /// Records a measurement-point crossing.
    pub fn trace(&mut self, point: MeasurePoint, tag: u64) {
        self.out.push(KernOut::Trace { point, tag });
    }

    /// Submits a frame to the ring (the adapter's transmit command has
    /// completed its DMA).
    pub fn ring_submit(&mut self, frame: ctms_tokenring::Frame) {
        self.out.push(KernOut::RingSubmit(frame));
    }

    /// Queues an inter-driver call, dispatched after the current driver
    /// returns.
    pub fn call(&mut self, dst: DriverId, call: DriverCall) {
        self.calls.push((dst, call));
    }

    /// Wakes a blocked process.
    pub fn wake(&mut self, pid: Pid, kind: WakeKind) {
        self.wakes.push((pid, kind));
    }

    /// Hands a received IP packet to the protocol input path (softnet).
    pub fn ip_input(&mut self, pkt: Pkt) {
        self.ip_in.push(pkt);
    }

    /// Records a data/packet loss.
    pub fn drop_data(&mut self, site: DropSite, tag: u64, bytes: u32) {
        self.out.push(KernOut::Drop { site, tag, bytes });
    }

    /// Reports CTMS payload presented at the sink device.
    pub fn presented(&mut self, tag: u64, bytes: u32) {
        self.out.push(KernOut::Presented { tag, bytes });
    }

    /// Emits a raw kernel output (escape hatch for extensions).
    pub fn emit(&mut self, out: KernOut) {
        self.out.push(out);
    }

    /// Frees an mbuf chain; any process-level allocations the free
    /// satisfies are resumed by the kernel after this dispatch returns.
    pub fn free_chain(&mut self, chain: MbufChain) {
        self.mbufs.free_into(chain, self.mbuf_ready);
    }
}

/// A kernel-resident device driver.
///
/// All methods have do-nothing defaults so drivers implement only what
/// their hardware uses. Drivers are `Send` so a kernel (and the nodes
/// built from it) can move to another thread; driver state is plain
/// data, never thread-affine.
pub trait Driver: Any + Send {
    /// Short name for diagnostics.
    fn name(&self) -> &'static str;

    /// Called once when the kernel boots; the place to arm initial timers
    /// (hardware that free-runs from power-on).
    fn on_boot(&mut self, ctx: &mut Ctx) {
        let _ = ctx;
    }

    /// Hardware interrupt handler entry (dispatch completed on this
    /// driver's line). This is the instant of the paper's measurement
    /// point 2 for the VCA.
    fn on_interrupt(&mut self, ctx: &mut Ctx) {
        let _ = ctx;
    }

    /// A CPU job pushed via [`Ctx::push_job`] completed.
    fn on_job(&mut self, ctx: &mut Ctx, token: u64) {
        let _ = (ctx, token);
    }

    /// A DMA started via [`Ctx::start_dma`] completed.
    fn on_dma(&mut self, ctx: &mut Ctx, token: u64) {
        let _ = (ctx, token);
    }

    /// A timer armed via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        let _ = (ctx, token);
    }

    /// Whether [`on_timer`](Driver::on_timer) can take `token`. A
    /// restored kernel refuses a checkpoint holding a timer whose token
    /// its driver refuses; drivers that take any token inherit this
    /// default.
    fn accepts_timer(&self, token: u64) -> bool {
        let _ = token;
        true
    }

    /// A frame addressed to this host arrived from the ring (only routed
    /// to the network-interface driver).
    fn on_ring_delivered(&mut self, ctx: &mut Ctx, frame: ctms_tokenring::Frame) {
        let _ = (ctx, frame);
    }

    /// The adapter finished transmitting (strip seen). `delivered` is
    /// ground truth the real adapter reports via the frame-status bits.
    fn on_ring_stripped(&mut self, ctx: &mut Ctx, tag: u64, delivered: bool) {
        let _ = (ctx, tag, delivered);
    }

    /// An inter-driver call arrived.
    fn on_call(&mut self, ctx: &mut Ctx, from: DriverId, call: DriverCall) {
        let _ = (ctx, from, call);
    }

    /// A user process issued `read(dev, bytes)`. Return [`OpResult::Done`]
    /// if data is available now (the kernel pays the copyout), or
    /// [`OpResult::Blocked`] and wake the process later.
    fn read(&mut self, ctx: &mut Ctx, pid: Pid, bytes: u32) -> OpResult {
        let _ = (ctx, pid, bytes);
        OpResult::Done
    }

    /// A user process issued `write(dev, bytes)` (copyin already paid).
    fn write(&mut self, ctx: &mut Ctx, pid: Pid, bytes: u32) -> OpResult {
        let _ = (ctx, pid, bytes);
        OpResult::Done
    }

    /// A user process issued an `ioctl`.
    fn ioctl(&mut self, ctx: &mut Ctx, pid: Pid, req: u32) {
        let _ = (ctx, pid, req);
    }

    /// Publishes the driver's counters into the host's telemetry scope.
    /// The kernel mounts each driver under `drv{id}.{name}`; drivers that
    /// keep no statistics inherit this no-op.
    fn publish_telemetry(&self, scope: &mut ctms_sim::telemetry::Scope<'_>) {
        let _ = scope;
    }

    /// Appends this driver's dynamic state for a checkpoint. The kernel
    /// frames each driver's bytes with its [`name`](Driver::name) and a
    /// length prefix, so stateless drivers inherit this write-nothing
    /// default and pay only the frame.
    fn persist_state(&self, enc: &mut ctms_sim::Enc) {
        let _ = enc;
    }

    /// Restores state written by [`persist_state`](Driver::persist_state).
    /// The kernel hands each driver exactly its own byte span and verifies
    /// full consumption, so the default accepts only an empty span.
    fn restore_state(&mut self, dec: &mut ctms_sim::Dec<'_>) -> Result<(), ctms_sim::PersistError> {
        let _ = dec;
        Ok(())
    }

    /// Downcast support for post-run statistics extraction.
    fn as_any(&self) -> &dyn Any;
    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Null;
    impl Driver for Null {
        fn name(&self) -> &'static str {
            "null"
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn defaults_are_noops() {
        let mut d = Null;
        assert_eq!(d.name(), "null");
        // Default read/write complete immediately.
        let mut mbufs = crate::mbuf::MbufPool::new(10);
        let mut rng = Pcg32::new(1, 1);
        let mut out = Vec::new();
        let mut calls = Vec::new();
        let mut wakes = Vec::new();
        let mut timers = Vec::new();
        let mut ip_in = Vec::new();
        let mut mbuf_ready = Vec::new();
        let mut ctx = Ctx {
            now: SimTime::ZERO,
            mbufs: &mut mbufs,
            rng: &mut rng,
            copy: ctms_rtpc::CopyCost::default(),
            self_id: DriverId(0),
            out: &mut out,
            calls: &mut calls,
            wakes: &mut wakes,
            timers: &mut timers,
            ip_in: &mut ip_in,
            mbuf_ready: &mut mbuf_ready,
        };
        assert_eq!(d.read(&mut ctx, Pid(1), 100), OpResult::Done);
        assert_eq!(d.write(&mut ctx, Pid(1), 100), OpResult::Done);
        d.on_interrupt(&mut ctx);
        assert!(out.is_empty());
    }

    #[test]
    fn ctx_queues_outputs() {
        let mut mbufs = crate::mbuf::MbufPool::new(10);
        let mut rng = Pcg32::new(1, 1);
        let mut out = Vec::new();
        let mut calls = Vec::new();
        let mut wakes = Vec::new();
        let mut timers = Vec::new();
        let mut ip_in = Vec::new();
        let mut mbuf_ready = Vec::new();
        let mut ctx = Ctx {
            now: SimTime::from_ms(5),
            mbufs: &mut mbufs,
            rng: &mut rng,
            copy: ctms_rtpc::CopyCost::default(),
            self_id: DriverId(3),
            out: &mut out,
            calls: &mut calls,
            wakes: &mut wakes,
            timers: &mut timers,
            ip_in: &mut ip_in,
            mbuf_ready: &mut mbuf_ready,
        };
        ctx.push_job(9, Dur::from_us(10), ExecLevel::KernelSpl(5));
        ctx.raise_irq(2);
        ctx.trace(MeasurePoint::PreTransmit, 42);
        ctx.set_timer(7, SimTime::from_ms(17));
        ctx.wake(Pid(1), WakeKind::SockData);
        assert_eq!(out.len(), 3);
        assert_eq!(timers, vec![(SimTime::from_ms(17), DriverId(3), 7)]);
        assert_eq!(wakes, vec![(Pid(1), WakeKind::SockData)]);
        assert!(matches!(
            out[2],
            KernOut::Trace {
                point: MeasurePoint::PreTransmit,
                tag: 42
            }
        ));
    }
}
