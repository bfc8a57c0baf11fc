//! Bench-side spans around the replay's calls into each layer.
//!
//! Every replayed operation opens a root span (`op`); each public layer
//! call inside it is a child span named after the layer (`csv.read`,
//! `mech.tds`, `store.publish`, …). Spans are kept in memory and written
//! out once the run ends. Layer spans never nest, so a layer's time in an
//! operation is the summed duration of its spans there.
//!
//! A disarmed recorder runs the same calls and records nothing. The
//! tracing overhead is the measured cost of recording one span (armed
//! minus disarmed) times the spans per operation, over the mean
//! operation time: comparing two whole replays instead would measure
//! the host's drift between them, which on a shared machine is far
//! larger than the spans' cost.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The root span's name.
pub const OP: &str = "op";

/// One recorded span. Ids are per operation: the root is 0.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub op: u32,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records the spans of one replay thread.
pub struct Recorder {
    armed: bool,
    epoch: Instant,
    spans: Vec<Span>,
    current: Option<(u32, u32)>,
    notes: Vec<(u32, &'static str, f64)>,
    ops: usize,
    op_ns: u64,
}

impl Recorder {
    pub fn new(armed: bool, epoch: Instant) -> Recorder {
        Recorder {
            armed,
            epoch,
            spans: Vec::new(),
            current: None,
            notes: Vec::new(),
            ops: 0,
            op_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs one operation under its root span.
    pub fn op<R>(&mut self, op: u32, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let start = self.now_ns();
        self.current = Some((op, 1));
        let out = f(self);
        let end = self.now_ns();
        self.current = None;
        self.ops += 1;
        self.op_ns += end - start;
        if self.armed {
            self.spans.push(Span {
                op,
                id: 0,
                parent: None,
                name: OP,
                start_ns: start,
                end_ns: end,
            });
        }
        out
    }

    /// Times one layer call as a child of the current operation.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.armed {
            return f();
        }
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let (op, id) = self.current.expect("layer span outside an operation");
        self.current = Some((op, id + 1));
        self.spans.push(Span {
            op,
            id,
            parent: Some(0),
            name,
            start_ns: start,
            end_ns: end,
        });
        out
    }

    /// Attaches a per-operation value (rows parsed, body sizes, …).
    pub fn note(&mut self, key: &'static str, value: f64) {
        if let (true, Some((op, _))) = (self.armed, self.current) {
            self.notes.push((op, key, value));
        }
    }

    /// Operations run, armed or not.
    pub fn ops(&self) -> usize {
        self.ops
    }

    /// Total time inside operation roots, armed or not.
    pub fn op_ns(&self) -> u64 {
        self.op_ns
    }
}

/// Everything the armed replay recorded, merged across threads.
#[derive(Default)]
pub struct Profile {
    pub spans: Vec<Span>,
    notes: Vec<(u32, &'static str, f64)>,
}

impl Profile {
    pub fn absorb(&mut self, rec: Recorder) {
        self.spans.extend(rec.spans);
        self.notes.extend(rec.notes);
    }

    /// Time per (operation, span name), summed over same-named spans of
    /// one operation.
    pub fn durations_ns(&self) -> BTreeMap<(u32, &'static str), u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry((s.op, s.name)).or_default() += s.end_ns - s.start_ns;
        }
        out
    }

    /// Per-operation values of one note key.
    pub fn notes(&self, key: &str) -> BTreeMap<u32, f64> {
        self.notes
            .iter()
            .filter(|(_, k, _)| *k == key)
            .map(|&(op, _, v)| (op, v))
            .collect()
    }

    /// Writes every span as tab-separated text, in operation order.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.op, s.id));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tid\tparent\tname\tstart_ns\tend_ns")?;
        for s in spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.op, s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Median over operations of a span's time, in milliseconds; 0 when no
/// operation made the call.
pub fn median_ms(durations_ns: &BTreeMap<(u32, &'static str), u64>, name: &str) -> f64 {
    let values: Vec<f64> = durations_ns
        .iter()
        .filter(|((_, n), _)| *n == name)
        .map(|(_, &ns)| ns as f64 / 1e6)
        .collect();
    median(&values)
}

/// Sum over operations of a span's time, in nanoseconds.
pub fn total_ns(durations_ns: &BTreeMap<(u32, &'static str), u64>, name: &str) -> u64 {
    durations_ns
        .iter()
        .filter(|((_, n), _)| *n == name)
        .map(|(_, &ns)| ns)
        .sum()
}

/// The cost of recording one span, in nanoseconds: an armed recorder's
/// time per empty span minus a disarmed one's (median of five rounds).
pub fn span_cost_ns() -> f64 {
    const SPANS: u32 = 100_000;
    let per_span = |armed| {
        let mut rec = Recorder::new(armed, Instant::now());
        let start = Instant::now();
        rec.op(0, |rec| {
            for i in 0..SPANS {
                rec.span("calibrate", || black_box(i));
            }
        });
        start.elapsed().as_nanos() as f64 / f64::from(SPANS)
    };
    let rounds: Vec<f64> = (0..5).map(|_| per_span(true) - per_span(false)).collect();
    median(&rounds).max(0.0)
}

/// Median of unsorted values (mean of the middle two for an even count);
/// 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_sum_repeated_spans_of_an_operation() {
        let span = |id, parent, name, start_ns, end_ns| Span {
            op: 7,
            id,
            parent,
            name,
            start_ns,
            end_ns,
        };
        let profile = Profile {
            spans: vec![
                span(0, None, OP, 0, 100),
                span(1, Some(0), "http.parse", 0, 10),
                span(2, Some(0), "server.handle", 10, 60),
                span(3, Some(0), "http.parse", 60, 75),
            ],
            notes: Vec::new(),
        };
        let took = profile.durations_ns();
        assert_eq!(took[&(7, "http.parse")], 25);
        assert_eq!(took[&(7, "server.handle")], 50);
        assert_eq!(total_ns(&took, "http.parse"), 25);
        assert_eq!(median_ms(&took, "absent"), 0.0);
    }

    #[test]
    fn disarmed_recorder_times_ops_but_keeps_nothing() {
        let mut rec = Recorder::new(false, Instant::now());
        let v = rec.op(1, |r| r.span("csv.read", || 41) + 1);
        assert_eq!(v, 42);
        rec.note("rows", 3.0);
        let mut profile = Profile::default();
        profile.absorb(rec);
        assert!(profile.spans.is_empty() && profile.notes("rows").is_empty());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
