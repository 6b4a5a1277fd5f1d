//! In-memory spans recorded around calls into the library, and the
//! timing [`HostApp`] wrapper that marks every application run.
//!
//! The traced pass keeps all work on one thread at a time (speculation
//! off, one serving worker), so spans nest strictly: one stack serves
//! every thread, and a span's self time is its duration minus its
//! children's.

use prescaler_ir::Program;
use prescaler_ocl::{HostApp, OclError, Outputs, Session};
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// One closed span, as written to `trace-<workload>.jsonl`.
#[derive(Clone, Debug, Serialize)]
pub struct Span {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    pub name: String,
    pub workload: String,
    pub app: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Default)]
struct State {
    closed: Vec<Span>,
    /// Open spans, innermost last.
    open: Vec<Span>,
    next_id: u64,
}

pub struct Tracer {
    workload: String,
    epoch: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            workload: workload.to_owned(),
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("a traced call panicked")
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("trace shorter than 584 years")
    }

    /// Opens a span that closes when the guard drops. `app` defaults to
    /// the enclosing span's.
    pub fn span(&self, name: &str, app: Option<&str>) -> SpanGuard<'_> {
        let start_ns = self.now_ns();
        let mut st = self.state();
        st.next_id += 1;
        let parent = st.open.last();
        let span = Span {
            id: st.next_id,
            parent: parent.map_or(0, |p| p.id),
            name: name.to_owned(),
            workload: self.workload.clone(),
            app: app
                .map(str::to_owned)
                .or_else(|| parent.map(|p| p.app.clone()))
                .unwrap_or_default(),
            start_ns,
            end_ns: start_ns,
        };
        st.open.push(span);
        SpanGuard { tracer: self }
    }

    /// Every closed span, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.state().closed.clone()
    }
}

pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        // Never panic in drop: a poisoned lock only loses this span.
        if let Ok(mut st) = self.tracer.state.lock() {
            if let Some(mut span) = st.open.pop() {
                span.end_ns = end_ns;
                st.closed.push(span);
            }
        }
    }
}

/// Runs `f` inside a span when tracing, or bare otherwise.
pub fn traced<R>(
    tracer: Option<&Tracer>,
    name: &str,
    app: Option<&str>,
    f: impl FnOnce() -> R,
) -> R {
    let _guard = tracer.map(|t| t.span(name, app));
    f()
}

/// A [`HostApp`] whose `program` and `run` calls open `ocl.program` and
/// `ocl.run` spans.
pub struct Timed<'t, A> {
    pub app: A,
    pub tracer: &'t Tracer,
}

impl<A: HostApp> HostApp for Timed<'_, A> {
    fn name(&self) -> &str {
        self.app.name()
    }

    fn program(&self) -> Program {
        let _s = self.tracer.span("ocl.program", None);
        self.app.program()
    }

    fn run(&self, session: &mut Session) -> Result<Outputs, OclError> {
        let _s = self.tracer.span("ocl.run", None);
        self.app.run(session)
    }
}

/// Spans indexed by id, with each span's self time.
pub struct Tree {
    pub spans: Vec<Span>,
    /// Self time in ms, parallel to `spans`.
    pub self_ms: Vec<f64>,
    index: BTreeMap<u64, usize>,
}

impl Tree {
    pub fn new(mut spans: Vec<Span>) -> Tree {
        spans.sort_by_key(|s| s.id);
        let index: BTreeMap<u64, usize> =
            spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut self_ms: Vec<f64> = spans.iter().map(Span::ms).collect();
        for s in &spans {
            if let Some(&p) = index.get(&s.parent) {
                self_ms[p] -= s.ms();
            }
        }
        Tree {
            spans,
            self_ms,
            index,
        }
    }

    /// Whether `span` lies (strictly) below a span named `ancestor`.
    pub fn under(&self, span: &Span, ancestor: &str) -> bool {
        let mut parent = span.parent;
        while let Some(&i) = self.index.get(&parent) {
            if self.spans[i].name == ancestor {
                return true;
            }
            parent = self.spans[i].parent;
        }
        false
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (usize, &'a Span)> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
    }

    /// Total duration of the spans called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.named(name).map(|(_, s)| s.ms()).sum()
    }

    /// Total self time of the spans called `name`.
    pub fn self_total_ms(&self, name: &str) -> f64 {
        self.named(name).map(|(i, _)| self.self_ms[i]).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let tracer = Tracer::new("w");
        {
            let _root = tracer.span("round", Some("X"));
            let _a = tracer.span("a", None);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let tree = Tree::new(tracer.spans());
        assert_eq!(tree.spans.len(), 2);
        let (ia, a) = tree.named("a").next().unwrap();
        assert_eq!(a.app, "X", "app is inherited");
        assert!(tree.under(a, "round"));
        let (ir, root) = tree.named("round").next().unwrap();
        let sum = tree.self_ms[ia] + tree.self_ms[ir];
        assert!((sum - root.ms()).abs() < 1e-9);
        assert!(tree.self_ms.iter().all(|&s| s >= 0.0));
    }
}
