//! An in-memory span recorder for the traced runs.
//!
//! A span has a static name, a start and an end on one monotonic clock,
//! and the span that was open when it began (its parent). Spans are kept
//! until the run ends and only then summarised, so recording costs two
//! clock reads and a push.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end - self.start) as f64 / 1e9
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) -> f64 {
        let end = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = end;
        self.spans[id].seconds()
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One `span` line per name: count, total and self seconds.
    pub fn print_summary(&self) {
        let own = self.self_totals();
        for (name, self_s) in &own {
            let d = self.durations(name);
            println!(
                "span {name} count={} total_s={:.6} self_s={self_s:.6}",
                d.len(),
                d.iter().sum::<f64>()
            );
        }
    }

    /// Durations of every closed span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Total seconds of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Per-name total self time (see [`self_times`]).
    pub fn self_totals(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_times(&self.spans)) {
            *out.entry(span.name).or_insert(0.0) += own;
        }
        out
    }
}

/// Each span's self time in seconds: its duration minus its direct
/// children's. Spans close innermost first, so children never overlap
/// each other or outlast their parent.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += s.end - s.start;
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end - s.start - kids) as f64 / 1e9)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,80).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 80, Some(0)),
        ];
        let own: Vec<u64> = self_times(&spans)
            .iter()
            .map(|s| (s * 1e9).round() as u64)
            .collect();
        assert_eq!(own, vec![40, 20, 10, 30]);
        // Self times partition the root's wall clock.
        assert_eq!(own.iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_and_totals_by_name() {
        let mut t = Tracer::default();
        let root = t.begin("root");
        for _ in 0..3 {
            t.span("leaf", || std::hint::black_box((0..1000).sum::<u64>()));
        }
        t.end(root);
        assert_eq!(t.spans().len(), 4);
        assert!(t.spans()[1..].iter().all(|s| s.parent == Some(0)));
        assert_eq!(t.durations("leaf").len(), 3);
        let totals = t.self_totals();
        let wall = t.total("root");
        let sum: f64 = totals.values().sum();
        assert!((sum - wall).abs() < 1e-9, "self times sum to the root");
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::default();
        let a = t.begin("a");
        let _b = t.begin("b");
        t.end(a);
    }
}
