//! Span recorder for the traced run. Spans wrap the benchmark's calls
//! into each layer's public functions; they are kept in memory and
//! written out once, when the run ends. A layer's self time is its
//! span's duration minus the time its child spans cover.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.run_until`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Repetition (batch) or session (serve) the span belongs to.
    pub rep: u32,
    /// Steering cycle within the session; 0 outside cycles.
    pub cycle: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    enabled: Cell<bool>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled: Cell::new(enabled),
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Turns recording on or off between repetitions.
    pub fn set_enabled(&self, on: bool) {
        assert!(self.open.borrow().is_empty(), "toggled inside a span");
        self.enabled.set(on);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `body`, recording it as span `name` when tracing is on.
    pub fn span<R>(&self, name: &'static str, rep: u32, cycle: u32, body: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return body();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                rep,
                cycle,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let start = self.now_ns();
        let out = body();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[idx].start_ns = start;
        spans[idx].end_ns = end;
        out
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self time in seconds of the spans called `name`, summed per
    /// repetition, one entry per repetition that has such a span.
    pub fn self_secs_per_rep(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.borrow();
        let mut child = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut per_rep: std::collections::BTreeMap<u32, u64> = Default::default();
        for (i, s) in spans.iter().enumerate() {
            if s.name == name {
                *per_rep.entry(s.rep).or_default() += (s.end_ns - s.start_ns) - child[i];
            }
        }
        per_rep.values().map(|&ns| ns as f64 * 1e-9).collect()
    }

    /// All recorded spans as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
        for (i, s) in self.spans.borrow().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"rep\":{},\"cycle\":{}}}",
                s.name, s.start_ns, s.end_ns, s.rep, s.cycle
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_groups_by_rep() {
        let tr = Tracer::new(true);
        for rep in 0..2 {
            tr.span("outer", rep, 0, || {
                tr.span("inner", rep, 0, || {
                    std::thread::sleep(std::time::Duration::from_millis(5))
                });
            });
        }
        let outer = tr.durations("outer");
        let inner = tr.durations("inner");
        assert_eq!((outer.len(), inner.len()), (2, 2));
        let self_outer = tr.self_secs_per_rep("outer");
        assert_eq!(self_outer.len(), 2);
        for rep in 0..2 {
            assert!(inner[rep] >= 0.005);
            let expect = outer[rep] - inner[rep];
            assert!((self_outer[rep] - expect).abs() < 1e-9);
        }
        assert!(tr.to_json("w", 1).contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span("x", 0, 0, || 7), 7);
        assert!(tr.durations("x").is_empty());
    }
}
