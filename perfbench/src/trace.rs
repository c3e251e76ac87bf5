//! In-memory spans recorded around the benchmark's own calls into each
//! layer.  Spans live in a mutex-guarded vector for the whole run and are
//! written out once, at exit ([`Tracer::to_json`]).
//!
//! Workload code receives a [`Scope`]: with tracing off it carries no
//! tracer and [`Scope::child`] just calls its closure, so the untraced run
//! executes the same calls without recording anything.

use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`core.step1`, `routing.table_build`, ...).
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span store of one benchmark run.
pub struct Tracer {
    t0: Instant,
    run_id: u64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer; `run_id` tags every span it writes out.
    pub fn new(run_id: u64) -> Self {
        Tracer {
            t0: Instant::now(),
            run_id,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: 0,
        });
        spans.len() - 1
    }

    fn close(&self, id: usize) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span store poisoned")[id].end_ns = end_ns;
    }

    /// Snapshot of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// All spans as one JSON document (name, start, end, parent, run id).
    pub fn to_json(&self) -> String {
        let spans = self.spans();
        let mut out = format!("{{\"run_id\":\"{:016x}\",\"spans\":[", self.run_id);
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run_id\":\"{:016x}\"}}",
                s.name, s.start_ns, s.end_ns, self.run_id
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Where new spans attach: the tracer (if tracing is on) and the span
/// that encloses the current call.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    tracer: Option<&'a Tracer>,
    parent: Option<usize>,
}

impl<'a> Scope<'a> {
    /// The untraced scope: [`Scope::child`] records nothing.
    pub fn off() -> Scope<'static> {
        Scope {
            tracer: None,
            parent: None,
        }
    }

    /// The root scope of `tracer`.
    pub fn root(tracer: &'a Tracer) -> Self {
        Scope {
            tracer: Some(tracer),
            parent: None,
        }
    }

    /// Runs `f` inside a span called `name`; `f` receives the scope of the
    /// new span for its own children.
    pub fn child<R>(&self, name: &'static str, f: impl FnOnce(Scope<'a>) -> R) -> R {
        match self.tracer {
            None => f(*self),
            Some(t) => {
                let id = t.open(name, self.parent);
                let out = f(Scope {
                    tracer: Some(t),
                    parent: Some(id),
                });
                t.close(id);
                out
            }
        }
    }
}

/// Span arithmetic over a finished trace.
pub struct SpanTree {
    spans: Vec<Span>,
    children: Vec<Vec<usize>>,
}

impl SpanTree {
    /// Indexes `spans` by parent.
    pub fn new(spans: Vec<Span>) -> Self {
        let mut children = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        SpanTree { spans, children }
    }

    /// Self time of span `id` in nanoseconds: its duration minus the part
    /// of its interval that its child spans cover.  Children running in
    /// parallel on other threads overlap; their union is subtracted once.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let mut iv: Vec<(u64, u64)> = self.children[id]
            .iter()
            .map(|&c| {
                let c = &self.spans[c];
                (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
            })
            .filter(|(a, b)| b > a)
            .collect();
        iv.sort_unstable();
        let mut covered = 0;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in iv {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        s.dur_ns().saturating_sub(covered)
    }

    /// Durations (seconds) of the spans called `name`, in recording order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    }

    /// Summed duration (seconds) of the spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().fold(0.0, |a, b| a + b)
    }

    /// Summed self time (seconds) of the spans whose name starts with
    /// `prefix`.
    pub fn self_s(&self, prefix: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name.starts_with(prefix))
            .map(|i| self.self_ns(i))
            .sum::<u64>() as f64
            / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let tree = SpanTree::new(vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 30, 60), // overlaps a (parallel worker)
            span("c", Some(0), 80, 90),
        ]);
        assert_eq!(tree.self_ns(0), 100 - 50 - 10);
        assert_eq!(tree.self_ns(1), 40);
        assert!((tree.self_s("") - 1.2e-7).abs() < 1e-15);
    }

    #[test]
    fn scopes_nest_and_untraced_scopes_record_nothing() {
        let t = Tracer::new(1);
        let root = Scope::root(&t);
        root.child("outer", |s| s.child("inner", |_| ()));
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        Scope::off().child("ignored", |_| ());
        assert!(t.to_json().contains("\"name\":\"inner\""));
    }
}
