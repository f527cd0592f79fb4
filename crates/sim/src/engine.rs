//! The discrete-event execution model.
//!
//! Substrate crates (token ring, RT/PC machine, kernel, devices) model their
//! domain as a *passive state machine* implementing [`Component`]: it never
//! schedules global events itself, it only reports the next instant at which
//! it wants control ([`Component::next_deadline`]) and emits typed outputs
//! into a [`Sink`] when advanced or commanded. The top-level testbed (in
//! `ctms-core`) owns the clock, advances whichever component is due next,
//! and routes outputs between components — the "motherboard" pattern. This
//! keeps every substrate unit-testable in isolation.

use crate::time::SimTime;

/// Where a component's outputs go: one `push` per output, in emission
/// order.
///
/// A `Vec` collects them (what substrate unit tests pass); a closure
/// forwards each one as it is emitted, which is how the scheduler tags
/// a node's outputs with its id straight into the routing wave, and how
/// a composite maps an inner component's outputs into its own.
pub trait Sink<T> {
    /// Takes one output.
    fn push(&mut self, item: T);
}

impl<T> Sink<T> for Vec<T> {
    #[inline(always)]
    fn push(&mut self, item: T) {
        Vec::push(self, item);
    }
}

impl<T, F: FnMut(T)> Sink<T> for F {
    #[inline(always)]
    fn push(&mut self, item: T) {
        self(item);
    }
}

/// A passive, deterministic discrete-event state machine.
///
/// Invariants a correct component must uphold:
///
/// * `advance(now)` and `handle(now, ..)` are only called with
///   monotonically non-decreasing `now`, and never earlier than the last
///   reported deadline that has already fired.
/// * After `advance(now)` returns, `next_deadline()` is either `None` or
///   strictly in the future **unless** the component produced new outputs at
///   `now` that legitimately cascade (the executor bounds same-instant
///   cascades).
pub trait Component {
    /// Commands routed *into* the component.
    type Cmd;
    /// Events the component emits for the router.
    type Out;

    /// The next instant at which the component needs control, if any.
    fn next_deadline(&self) -> Option<SimTime>;

    /// Advances internal state to `now`, pushing any outputs into `sink`.
    fn advance(&mut self, now: SimTime, sink: &mut impl Sink<Self::Out>);

    /// Delivers a command at `now`, pushing any outputs into `sink`.
    fn handle(&mut self, now: SimTime, cmd: Self::Cmd, sink: &mut impl Sink<Self::Out>);

    /// Registers the component's current statistics into the telemetry
    /// tree under `scope` (the collector mounts each node under its
    /// dotted namespace). The default publishes nothing, so passive
    /// components and test doubles need no boilerplate.
    fn publish_telemetry(&self, scope: &mut crate::telemetry::Scope<'_>) {
        let _ = scope;
    }
}

/// Returns the earliest of a set of optional deadlines.
pub fn earliest<I>(deadlines: I) -> Option<SimTime>
where
    I: IntoIterator<Item = Option<SimTime>>,
{
    deadlines.into_iter().flatten().min()
}

/// Guard against livelock: bounds the number of same-instant routing
/// cascades the executor will perform before declaring a bug.
#[derive(Debug)]
pub struct CascadeGuard {
    at: SimTime,
    steps: u32,
    limit: u32,
}

impl CascadeGuard {
    /// Creates a guard with the given same-instant step limit.
    pub fn new(limit: u32) -> Self {
        CascadeGuard {
            at: SimTime::ZERO,
            steps: 0,
            limit,
        }
    }

    /// Records one routing step at `now`.
    ///
    /// # Panics
    ///
    /// Panics if more than `limit` steps occur without simulated time
    /// advancing — this always indicates a component scheduling itself at
    /// the current instant forever.
    pub fn step(&mut self, now: SimTime) {
        if now != self.at {
            self.at = now;
            self.steps = 0;
        }
        self.steps += 1;
        assert!(
            self.steps <= self.limit,
            "cascade guard tripped: {} same-instant routing steps at {now}",
            self.steps
        );
    }
}

impl Default for CascadeGuard {
    fn default() -> Self {
        CascadeGuard::new(100_000)
    }
}

/// Drives a single [`Component`] in isolation: advances it through its own
/// deadlines up to `until`, collecting every output with the time it was
/// emitted. The workhorse of substrate unit tests.
pub fn drain_component<C: Component>(c: &mut C, until: SimTime) -> Vec<(SimTime, C::Out)> {
    let mut out = Vec::new();
    let mut guard = CascadeGuard::default();
    while let Some(t) = c.next_deadline() {
        if t > until {
            break;
        }
        guard.step(t);
        c.advance(t, &mut |o| out.push((t, o)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    #[test]
    fn earliest_of_deadlines() {
        assert_eq!(earliest([None, None]), None);
        assert_eq!(
            earliest([None, Some(SimTime::from_us(5)), Some(SimTime::from_us(3))]),
            Some(SimTime::from_us(3))
        );
    }

    #[test]
    #[should_panic(expected = "cascade guard tripped")]
    fn cascade_guard_trips() {
        let mut g = CascadeGuard::new(10);
        for _ in 0..20 {
            g.step(SimTime::from_us(1));
        }
    }

    #[test]
    fn cascade_guard_resets_when_time_moves() {
        let mut g = CascadeGuard::new(2);
        for i in 0..100u64 {
            g.step(SimTime::from_us(i));
            g.step(SimTime::from_us(i));
        }
    }

    struct Ticker {
        period: Dur,
        next: Option<SimTime>,
        count: u32,
        max: u32,
    }

    impl Component for Ticker {
        type Cmd = ();
        type Out = u32;
        fn next_deadline(&self) -> Option<SimTime> {
            self.next
        }
        fn advance(&mut self, now: SimTime, sink: &mut impl Sink<u32>) {
            if Some(now) == self.next {
                self.count += 1;
                sink.push(self.count);
                self.next = if self.count < self.max {
                    Some(now + self.period)
                } else {
                    None
                };
            }
        }
        fn handle(&mut self, _now: SimTime, _cmd: (), _sink: &mut impl Sink<u32>) {}
    }

    #[test]
    fn drain_component_walks_deadlines() {
        let mut t = Ticker {
            period: Dur::from_ms(12),
            next: Some(SimTime::from_ms(12)),
            count: 0,
            max: 3,
        };
        let got = drain_component(&mut t, SimTime::from_secs(1));
        assert_eq!(
            got,
            vec![
                (SimTime::from_ms(12), 1),
                (SimTime::from_ms(24), 2),
                (SimTime::from_ms(36), 3)
            ]
        );
    }
}
