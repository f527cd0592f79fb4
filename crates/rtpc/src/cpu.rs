//! The RT/PC processor: a priority-preemptive single server with BSD-style
//! spl interrupt masking.
//!
//! §4 of the paper identifies the CPU-loading mechanisms the model must
//! capture: interrupt dispatch overhead, long protected (spl) code
//! sections delaying interrupt entry (the source of the 440 µs worst-case
//! IRQ→handler variation of §5.2.2), and DMA into system memory slowing
//! the processor.
//!
//! Execution levels, low to high:
//!
//! * level 0 — user code and unprotected kernel code,
//! * levels 1–7 — kernel code holding `splN`, and interrupt handlers whose
//!   line is configured at level N.
//!
//! A pending interrupt dispatches only when the current execution level is
//! strictly below its line's level; arriving work preempts strictly
//! lower-level work and queues FIFO behind equal-level work. This is the
//! mechanism behind §5's observation that "critical sections of code"
//! cause out-of-order packets and latency spread.

use ctms_sim::{Component, Dec, Dur, Enc, Persist, PersistError, SimTime, Sink};
use std::collections::VecDeque;

/// Number of interrupt request lines on the machine.
pub const IRQ_LINES: usize = 8;

/// Execution level of a piece of work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecLevel {
    /// User code or unprotected kernel code (preempted by everything).
    User,
    /// Kernel code holding the given spl (1–7); blocks interrupts at or
    /// below that level.
    KernelSpl(u8),
    /// An interrupt handler on the given line (runs at the line's level).
    Irq(u8),
}

/// One schedulable piece of work. `T` is the owner's continuation tag,
/// returned verbatim in [`CpuOut::JobDone`].
#[derive(Clone, Copy, Debug)]
pub struct Job<T> {
    /// Continuation tag for the owner.
    pub tag: T,
    /// CPU time the job consumes at full speed.
    pub cost: Dur,
    /// Execution level.
    pub level: ExecLevel,
}

/// Commands into the CPU.
#[derive(Clone, Copy, Debug)]
pub enum CpuCmd<T> {
    /// A device raised its interrupt line.
    RaiseIrq {
        /// Line number, `0..IRQ_LINES`.
        line: u8,
    },
    /// Enqueue work.
    Push(Job<T>),
    /// Scale execution speed (1.0 = nominal); used by the machine layer to
    /// model DMA contention on the system-memory bus.
    SetSpeed(f64),
}

/// Events out of the CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpuOut<T> {
    /// Interrupt dispatch for `line` completed: the handler body may now be
    /// pushed. This instant is the paper's "entry into the interrupt
    /// handler" measurement point.
    IrqEntered {
        /// The dispatched line.
        line: u8,
    },
    /// A pushed job ran to completion.
    JobDone {
        /// The tag it was pushed with.
        tag: T,
    },
    /// An interrupt was raised while already pending (a real latch would
    /// have lost it). Counted, surfaced for diagnostics.
    IrqOverrun {
        /// The overrun line.
        line: u8,
    },
}

/// CPU configuration.
#[derive(Clone, Copy, Debug)]
pub struct CpuConfig {
    /// Interrupt level of each line (1–7).
    pub line_levels: [u8; IRQ_LINES],
    /// Fixed cost from IRQ acceptance to handler entry (vector fetch,
    /// register save, dispatch).
    pub irq_dispatch_cost: Dur,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            // Line assignments for the testbed: 0 unused, 1 disk, 2 VCA,
            // 3 token ring, 4 clock, rest spare. Levels follow BSD custom:
            // network/disk mid, clock highest.
            line_levels: [1, 4, 6, 5, 7, 3, 2, 1],
            irq_dispatch_cost: Dur::from_us(25),
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Body<T> {
    /// Dispatch stub for an IRQ line; completion emits `IrqEntered`.
    IrqDispatch(u8),
    /// Ordinary job; completion emits `JobDone`.
    Work(T),
}

#[derive(Clone, Copy, Debug)]
struct Running<T> {
    body: Body<T>,
    level: u8,
    /// Work remaining at nominal speed.
    remaining: Dur,
    /// Instant `remaining` was last settled.
    as_of: SimTime,
}

/// Counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuStats {
    /// Total nanoseconds of executed work (nominal-speed equivalent).
    pub busy_work_ns: u64,
    /// Completed jobs.
    pub jobs_done: u64,
    /// Interrupts dispatched.
    pub irqs_dispatched: u64,
    /// Raise-while-pending events.
    pub irq_overruns: u64,
}

impl ctms_sim::Instrument for CpuStats {
    fn publish(&self, scope: &mut ctms_sim::telemetry::Scope<'_>) {
        scope.counter("busy_work_ns", self.busy_work_ns);
        scope.counter("jobs_done", self.jobs_done);
        scope.counter("irqs_dispatched", self.irqs_dispatched);
        scope.counter("irq_overruns", self.irq_overruns);
    }
}

/// The processor model. See module docs.
#[derive(Debug)]
pub struct Cpu<T> {
    cfg: CpuConfig,
    ready: [VecDeque<(Body<T>, Dur)>; 8],
    stack: Vec<Running<T>>,
    running: Option<Running<T>>,
    irq_pending: [bool; IRQ_LINES],
    speed: f64,
    stats: CpuStats,
    /// Memo of the last [`Cpu::finish_time`] result, keyed by the exact
    /// inputs `(as_of, remaining, speed bits)`. The harness queries
    /// `next_deadline` far more often than the running job changes, and
    /// the float divide in `finish_time` is the single hottest piece of
    /// that query; the memo returns the identical value (same inputs,
    /// same computation) without re-dividing. Not persisted — a stale
    /// entry after restore can only hit on matching inputs, which yield
    /// the same result anyway.
    finish_memo: std::cell::Cell<Option<FinishMemo>>,
}

/// One memoized [`Cpu::finish_time`] entry: the `(as_of, remaining,
/// speed bits)` key plus the finish instant it produced.
type FinishMemo = ((u64, u64, u64), SimTime);

impl<T: Copy> Cpu<T> {
    /// Creates an idle CPU.
    pub fn new(cfg: CpuConfig) -> Self {
        Cpu {
            cfg,
            ready: Default::default(),
            stack: Vec::new(),
            running: None,
            irq_pending: [false; IRQ_LINES],
            speed: 1.0,
            stats: CpuStats::default(),
            finish_memo: std::cell::Cell::new(None),
        }
    }

    /// The configured level of an IRQ line.
    pub fn line_level(&self, line: u8) -> u8 {
        self.cfg.line_levels[line as usize]
    }

    /// Counters so far.
    pub fn stats(&self) -> CpuStats {
        self.stats
    }

    /// Current execution level (0 when idle or running user work).
    pub fn current_level(&self) -> u8 {
        self.running.map(|r| r.level).unwrap_or(0)
    }

    /// True if nothing is running, queued or pending.
    pub fn is_idle(&self) -> bool {
        self.running.is_none()
            && self.stack.is_empty()
            && self.ready.iter().all(VecDeque::is_empty)
            && self.irq_pending.iter().all(|p| !p)
    }

    /// The tag of every job the CPU holds: queued, preempted or running.
    pub fn job_tags(&self) -> impl Iterator<Item = T> + '_ {
        let queued = self.ready.iter().flatten().map(|(body, _)| body);
        let held = self.stack.iter().chain(&self.running).map(|r| &r.body);
        queued.chain(held).filter_map(|body| match *body {
            Body::Work(tag) => Some(tag),
            Body::IrqDispatch(_) => None,
        })
    }

    fn level_num(&self, l: ExecLevel) -> u8 {
        match l {
            ExecLevel::User => 0,
            ExecLevel::KernelSpl(k) => {
                assert!(k <= 7, "spl out of range");
                k
            }
            ExecLevel::Irq(line) => self.line_level(line),
        }
    }

    /// Wall-clock instant the running job will finish, given current
    /// speed. Memoized on the exact inputs (see `finish_memo`).
    fn finish_time(&self, r: &Running<T>) -> SimTime {
        let key = (r.as_of.as_ns(), r.remaining.as_ns(), self.speed.to_bits());
        if let Some((k, at)) = self.finish_memo.get() {
            if k == key {
                return at;
            }
        }
        let ns = (r.remaining.as_ns() as f64 / self.speed).ceil() as u64;
        let at = r.as_of + Dur::from_ns(ns);
        self.finish_memo.set(Some((key, at)));
        at
    }

    /// Settles the running job's progress up to `now`.
    fn settle(&mut self, now: SimTime) {
        if let Some(r) = &mut self.running {
            let elapsed = now.since(r.as_of);
            let done = Dur::from_ns((elapsed.as_ns() as f64 * self.speed).floor() as u64);
            let done = if done > r.remaining {
                r.remaining
            } else {
                done
            };
            r.remaining -= done;
            r.as_of = now;
            self.stats.busy_work_ns += done.as_ns();
        }
    }

    /// Highest-level pending IRQ strictly above `level`, if any.
    fn dispatchable_irq(&self, level: u8) -> Option<u8> {
        (0..IRQ_LINES as u8)
            .filter(|&l| self.irq_pending[l as usize])
            .max_by_key(|&l| (self.line_level(l), core::cmp::Reverse(l)))
            .filter(|&l| self.line_level(l) > level)
    }

    /// Highest non-empty ready level, if any.
    fn top_ready_level(&self) -> Option<u8> {
        (0..8u8).rev().find(|&l| !self.ready[l as usize].is_empty())
    }

    /// Starts whatever should run next, assuming nothing is running.
    fn pick_next(&mut self, now: SimTime) {
        debug_assert!(self.running.is_none());
        let stack_level = self.stack.last().map(|r| r.level);
        let ready_level = self.top_ready_level();
        let irq = self.dispatchable_irq(stack_level.unwrap_or(0));
        // Choose the highest of: dispatchable IRQ, ready job, stack top.
        let irq_level = irq.map(|l| self.line_level(l));
        let best = [
            irq_level.map(|l| (l, 0u8)),
            ready_level.map(|l| (l, 1u8)),
            stack_level.map(|l| (l, 2u8)),
        ]
        .into_iter()
        .flatten()
        // Prefer IRQ over ready over stack at equal level? No: a
        // pending IRQ at a level equal to the preempted context must
        // wait (spl semantics: strictly-greater dispatches). The
        // filter above already enforces that for the stack; among
        // ready vs stack at the same level the stack resumes first.
        .max_by_key(|&(l, pref)| (l, core::cmp::Reverse(pref)));
        let Some((_, which)) = best else {
            return;
        };
        match which {
            0 => {
                let line = irq.expect("irq candidate");
                self.irq_pending[line as usize] = false;
                self.stats.irqs_dispatched += 1;
                self.running = Some(Running {
                    body: Body::IrqDispatch(line),
                    level: self.line_level(line),
                    remaining: self.cfg.irq_dispatch_cost,
                    as_of: now,
                });
            }
            1 => {
                let l = ready_level.expect("ready candidate");
                let (body, cost) = self.ready[l as usize].pop_front().expect("non-empty");
                self.running = Some(Running {
                    body,
                    level: l,
                    remaining: cost,
                    as_of: now,
                });
            }
            _ => {
                let mut r = self.stack.pop().expect("stack candidate");
                r.as_of = now;
                self.running = Some(r);
            }
        }
    }

    /// Preempts the running job (if any) and starts `r`.
    fn preempt_with(&mut self, now: SimTime, body: Body<T>, level: u8, cost: Dur) {
        self.settle(now);
        if let Some(cur) = self.running.take() {
            debug_assert!(cur.level < level, "preempt requires strictly higher level");
            self.stack.push(cur);
        }
        self.running = Some(Running {
            body,
            level,
            remaining: cost,
            as_of: now,
        });
    }
}

fn persist_body<T: Persist>(enc: &mut Enc, body: &Body<T>) {
    match body {
        Body::IrqDispatch(line) => {
            enc.u8(0);
            enc.u8(*line);
        }
        Body::Work(tag) => {
            enc.u8(1);
            tag.persist(enc);
        }
    }
}

fn restore_body<T: Persist + Default>(dec: &mut Dec<'_>) -> Result<Body<T>, PersistError> {
    match dec.u8()? {
        0 => Ok(Body::IrqDispatch(dec.u8()?)),
        1 => Ok(Body::Work(ctms_sim::decode_new(dec)?)),
        tag => Err(PersistError::BadTag {
            what: "cpu job body",
            tag,
        }),
    }
}

fn persist_running<T: Persist>(enc: &mut Enc, r: &Running<T>) {
    persist_body(enc, &r.body);
    enc.u8(r.level);
    enc.dur(r.remaining);
    enc.time(r.as_of);
}

fn restore_running<T: Persist + Default>(dec: &mut Dec<'_>) -> Result<Running<T>, PersistError> {
    Ok(Running {
        body: restore_body(dec)?,
        level: dec.u8()?,
        remaining: dec.dur()?,
        as_of: dec.time()?,
    })
}

impl<T: Copy + Persist + Default> Persist for Cpu<T> {
    /// Dynamic processor state: the eight ready queues, the preemption
    /// stack, the running job, pending IRQ latches, the current speed
    /// multiplier and counters. `cfg` (line levels, dispatch cost) is
    /// structural.
    fn persist(&self, enc: &mut Enc) {
        for q in &self.ready {
            enc.seq_len(q.len());
            for (body, cost) in q {
                persist_body(enc, body);
                enc.dur(*cost);
            }
        }
        enc.seq_len(self.stack.len());
        for r in &self.stack {
            persist_running(enc, r);
        }
        enc.opt(self.running.as_ref(), |e, r| persist_running(e, r));
        for p in &self.irq_pending {
            enc.bool(*p);
        }
        enc.f64(self.speed);
        let s = &self.stats;
        enc.u64(s.busy_work_ns);
        enc.u64(s.jobs_done);
        enc.u64(s.irqs_dispatched);
        enc.u64(s.irq_overruns);
    }

    fn restore(&mut self, dec: &mut Dec<'_>) -> Result<(), PersistError> {
        for q in &mut self.ready {
            *q = dec
                .seq(|d| Ok((restore_body(d)?, d.dur()?)))?
                .into_iter()
                .collect();
        }
        self.stack = dec.seq(restore_running)?;
        self.running = dec.opt(restore_running)?;
        for p in &mut self.irq_pending {
            *p = dec.bool()?;
        }
        self.speed = dec.f64()?;
        self.stats = CpuStats {
            busy_work_ns: dec.u64()?,
            jobs_done: dec.u64()?,
            irqs_dispatched: dec.u64()?,
            irq_overruns: dec.u64()?,
        };
        Ok(())
    }
}

impl<T: Copy + core::fmt::Debug> Component for Cpu<T> {
    type Cmd = CpuCmd<T>;
    type Out = CpuOut<T>;

    fn next_deadline(&self) -> Option<SimTime> {
        self.running.as_ref().map(|r| self.finish_time(r))
    }

    fn advance(&mut self, now: SimTime, sink: &mut impl Sink<CpuOut<T>>) {
        loop {
            let Some(r) = &self.running else { return };
            if self.finish_time(r) > now {
                return;
            }
            let r = *r;
            self.settle(now);
            self.running = None;
            match r.body {
                Body::IrqDispatch(line) => sink.push(CpuOut::IrqEntered { line }),
                Body::Work(tag) => {
                    self.stats.jobs_done += 1;
                    sink.push(CpuOut::JobDone { tag });
                }
            }
            self.pick_next(now);
        }
    }

    fn handle(&mut self, now: SimTime, cmd: CpuCmd<T>, sink: &mut impl Sink<CpuOut<T>>) {
        // Bring progress up to date before changing anything.
        self.settle(now);
        match cmd {
            CpuCmd::RaiseIrq { line } => {
                let idx = line as usize;
                assert!(idx < IRQ_LINES, "bad IRQ line {line}");
                if self.irq_pending[idx] {
                    self.stats.irq_overruns += 1;
                    sink.push(CpuOut::IrqOverrun { line });
                    return;
                }
                self.irq_pending[idx] = true;
                let lvl = self.line_level(line);
                if self.current_level() < lvl {
                    // Dispatch immediately, preempting current work.
                    self.irq_pending[idx] = false;
                    self.stats.irqs_dispatched += 1;
                    self.preempt_with(
                        now,
                        Body::IrqDispatch(line),
                        lvl,
                        self.cfg.irq_dispatch_cost,
                    );
                }
            }
            CpuCmd::Push(job) => {
                let lvl = self.level_num(job.level);
                if job.cost.is_zero() {
                    // Zero-cost jobs complete immediately (used for pure
                    // sequencing); they still respect nothing — they are a
                    // modelling convenience.
                    self.stats.jobs_done += 1;
                    sink.push(CpuOut::JobDone { tag: job.tag });
                    return;
                }
                if self.current_level() < lvl && self.running.is_some() {
                    self.preempt_with(now, Body::Work(job.tag), lvl, job.cost);
                } else if self.running.is_none() {
                    self.ready[lvl as usize].push_back((Body::Work(job.tag), job.cost));
                    self.pick_next(now);
                } else {
                    self.ready[lvl as usize].push_back((Body::Work(job.tag), job.cost));
                }
            }
            CpuCmd::SetSpeed(s) => {
                assert!(s.is_finite() && s > 0.0, "bad CPU speed {s}");
                self.speed = s;
                if let Some(r) = &mut self.running {
                    r.as_of = now;
                }
            }
        }
        let _ = sink;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctms_sim::drain_component;

    type C = Cpu<u64>;

    fn cpu() -> C {
        Cpu::new(CpuConfig::default())
    }

    fn push(c: &mut C, now: SimTime, tag: u64, cost: Dur, level: ExecLevel) -> Vec<CpuOut<u64>> {
        let mut sink = Vec::new();
        c.handle(now, CpuCmd::Push(Job { tag, cost, level }), &mut sink);
        sink
    }

    #[test]
    fn single_job_runs_to_completion() {
        let mut c = cpu();
        push(&mut c, SimTime::ZERO, 1, Dur::from_us(100), ExecLevel::User);
        let evs = drain_component(&mut c, SimTime::from_ms(1));
        assert_eq!(
            evs,
            vec![(SimTime::from_us(100), CpuOut::JobDone { tag: 1 })]
        );
        assert!(c.is_idle());
        assert_eq!(c.stats().jobs_done, 1);
    }

    #[test]
    fn fifo_within_level() {
        let mut c = cpu();
        push(&mut c, SimTime::ZERO, 1, Dur::from_us(10), ExecLevel::User);
        push(&mut c, SimTime::ZERO, 2, Dur::from_us(10), ExecLevel::User);
        let evs = drain_component(&mut c, SimTime::from_ms(1));
        let tags: Vec<u64> = evs
            .iter()
            .filter_map(|(_, e)| match e {
                CpuOut::JobDone { tag } => Some(*tag),
                _ => None,
            })
            .collect();
        assert_eq!(tags, vec![1, 2]);
        assert_eq!(evs[1].0, SimTime::from_us(20));
    }

    #[test]
    fn higher_level_preempts_and_lower_resumes() {
        let mut c = cpu();
        push(&mut c, SimTime::ZERO, 1, Dur::from_us(100), ExecLevel::User);
        // At t=30 a kernel spl5 job arrives and preempts.
        push(
            &mut c,
            SimTime::from_us(30),
            2,
            Dur::from_us(50),
            ExecLevel::KernelSpl(5),
        );
        let evs = drain_component(&mut c, SimTime::from_ms(1));
        assert_eq!(
            evs,
            vec![
                (SimTime::from_us(80), CpuOut::JobDone { tag: 2 }),
                (SimTime::from_us(150), CpuOut::JobDone { tag: 1 }),
            ]
        );
    }

    #[test]
    fn irq_dispatch_emits_entry_after_dispatch_cost() {
        let mut c = cpu();
        let mut sink = Vec::new();
        c.handle(SimTime::ZERO, CpuCmd::RaiseIrq { line: 2 }, &mut sink);
        assert!(sink.is_empty());
        let evs = drain_component(&mut c, SimTime::from_ms(1));
        assert_eq!(
            evs,
            vec![(SimTime::from_us(25), CpuOut::IrqEntered { line: 2 })]
        );
        assert_eq!(c.stats().irqs_dispatched, 1);
    }

    #[test]
    fn spl_blocks_lower_irq_until_section_ends() {
        let mut c = cpu();
        // VCA is line 2 at level 6. Hold spl6 for 400 µs.
        push(
            &mut c,
            SimTime::ZERO,
            9,
            Dur::from_us(400),
            ExecLevel::KernelSpl(6),
        );
        let mut sink = Vec::new();
        c.handle(
            SimTime::from_us(10),
            CpuCmd::RaiseIrq { line: 2 },
            &mut sink,
        );
        let evs = drain_component(&mut c, SimTime::from_ms(2));
        // Handler entry = 400 (section end) + 25 dispatch = 425 µs.
        assert!(evs.contains(&(SimTime::from_us(400), CpuOut::JobDone { tag: 9 })));
        assert!(evs.contains(&(SimTime::from_us(425), CpuOut::IrqEntered { line: 2 })));
    }

    #[test]
    fn irq_preempts_user_immediately() {
        let mut c = cpu();
        push(
            &mut c,
            SimTime::ZERO,
            1,
            Dur::from_us(1000),
            ExecLevel::User,
        );
        let mut sink = Vec::new();
        c.handle(
            SimTime::from_us(100),
            CpuCmd::RaiseIrq { line: 3 },
            &mut sink,
        );
        let evs = drain_component(&mut c, SimTime::from_ms(2));
        assert!(evs.contains(&(SimTime::from_us(125), CpuOut::IrqEntered { line: 3 })));
        // User job finishes 25 µs late (the dispatch cost; handler body not
        // pushed in this test).
        assert!(evs.contains(&(SimTime::from_us(1025), CpuOut::JobDone { tag: 1 })));
    }

    #[test]
    fn nested_interrupts_by_level() {
        let mut c = cpu();
        let mut sink = Vec::new();
        // Line 3 (level 5) dispatches; mid-handler the clock line 4
        // (level 7) preempts it.
        c.handle(SimTime::ZERO, CpuCmd::RaiseIrq { line: 3 }, &mut sink);
        let evs = drain_component(&mut c, SimTime::from_us(25));
        assert_eq!(evs.len(), 1);
        // Push the line-3 handler body.
        push(
            &mut c,
            SimTime::from_us(25),
            33,
            Dur::from_us(200),
            ExecLevel::Irq(3),
        );
        c.handle(
            SimTime::from_us(50),
            CpuCmd::RaiseIrq { line: 4 },
            &mut sink,
        );
        let evs = drain_component(&mut c, SimTime::from_ms(1));
        assert!(evs.contains(&(SimTime::from_us(75), CpuOut::IrqEntered { line: 4 })));
        // Body completes 25 µs late due to the nested dispatch.
        assert!(evs.contains(&(SimTime::from_us(250), CpuOut::JobDone { tag: 33 })));
    }

    #[test]
    fn equal_level_irq_does_not_nest() {
        let mut c = cpu();
        let mut sink = Vec::new();
        c.handle(SimTime::ZERO, CpuCmd::RaiseIrq { line: 3 }, &mut sink);
        let _ = drain_component(&mut c, SimTime::from_us(25));
        push(
            &mut c,
            SimTime::from_us(25),
            33,
            Dur::from_us(100),
            ExecLevel::Irq(3),
        );
        // Same line raises again while its handler body runs.
        c.handle(
            SimTime::from_us(30),
            CpuCmd::RaiseIrq { line: 3 },
            &mut sink,
        );
        let evs = drain_component(&mut c, SimTime::from_ms(1));
        // Body finishes first, then the second dispatch happens.
        assert_eq!(
            evs,
            vec![
                (SimTime::from_us(125), CpuOut::JobDone { tag: 33 }),
                (SimTime::from_us(150), CpuOut::IrqEntered { line: 3 }),
            ]
        );
    }

    #[test]
    fn overrun_counted_when_raised_while_pending() {
        let mut c = cpu();
        // Block everything with spl7.
        push(
            &mut c,
            SimTime::ZERO,
            1,
            Dur::from_ms(1),
            ExecLevel::KernelSpl(7),
        );
        let mut sink = Vec::new();
        c.handle(SimTime::from_us(1), CpuCmd::RaiseIrq { line: 2 }, &mut sink);
        c.handle(SimTime::from_us(2), CpuCmd::RaiseIrq { line: 2 }, &mut sink);
        assert!(sink.contains(&CpuOut::IrqOverrun { line: 2 }));
        assert_eq!(c.stats().irq_overruns, 1);
    }

    #[test]
    fn speed_changes_stretch_execution() {
        let mut c = cpu();
        push(&mut c, SimTime::ZERO, 1, Dur::from_us(100), ExecLevel::User);
        let mut sink = Vec::new();
        // Halve speed at t=50: 50 µs of work remain, now taking 100 µs.
        c.handle(SimTime::from_us(50), CpuCmd::SetSpeed(0.5), &mut sink);
        let evs = drain_component(&mut c, SimTime::from_ms(1));
        assert_eq!(
            evs,
            vec![(SimTime::from_us(150), CpuOut::JobDone { tag: 1 })]
        );
        // Restore speed; later jobs run at full rate again.
        c.handle(SimTime::from_us(150), CpuCmd::SetSpeed(1.0), &mut sink);
        push(
            &mut c,
            SimTime::from_us(150),
            2,
            Dur::from_us(10),
            ExecLevel::User,
        );
        let evs = drain_component(&mut c, SimTime::from_ms(1));
        assert_eq!(
            evs,
            vec![(SimTime::from_us(160), CpuOut::JobDone { tag: 2 })]
        );
    }

    #[test]
    fn zero_cost_job_completes_inline() {
        let mut c = cpu();
        let evs = push(&mut c, SimTime::ZERO, 5, Dur::ZERO, ExecLevel::User);
        assert_eq!(evs, vec![CpuOut::JobDone { tag: 5 }]);
        assert!(c.is_idle());
    }

    #[test]
    fn deep_preemption_stack_unwinds_in_order() {
        let mut c = cpu();
        push(
            &mut c,
            SimTime::ZERO,
            0,
            Dur::from_us(1000),
            ExecLevel::User,
        );
        push(
            &mut c,
            SimTime::from_us(10),
            1,
            Dur::from_us(1000),
            ExecLevel::KernelSpl(2),
        );
        push(
            &mut c,
            SimTime::from_us(20),
            2,
            Dur::from_us(1000),
            ExecLevel::KernelSpl(5),
        );
        push(
            &mut c,
            SimTime::from_us(30),
            3,
            Dur::from_us(1000),
            ExecLevel::KernelSpl(7),
        );
        let evs = drain_component(&mut c, SimTime::from_secs(1));
        let tags: Vec<u64> = evs
            .iter()
            .filter_map(|(_, e)| match e {
                CpuOut::JobDone { tag } => Some(*tag),
                _ => None,
            })
            .collect();
        assert_eq!(tags, vec![3, 2, 1, 0]);
    }
}
