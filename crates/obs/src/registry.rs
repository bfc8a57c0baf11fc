//! The metrics registry: the counters and latency histograms a server
//! owns, the [`Sample`] list both `/stats` (JSON) and `/metrics`
//! (Prometheus text) render, plus a strict line-grammar validator for
//! scrape output. A value is listed once, by its `/stats` path and its
//! kind; [`Sample::name`] derives its `/metrics` name from those two, so
//! the two surfaces cannot drift.

use crate::hist::{seconds_text, Histogram, BUCKET_BOUNDS_NS};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter handle. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<std::sync::atomic::AtomicU64>,
}

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// The Prometheus type of a [`Sample`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A value that only grows.
    Counter,
    /// A value read as it stands.
    Gauge,
}

/// One reported value, read at scrape time. A scrape builds one list of
/// these; `/stats` nests it by path and `/metrics` writes it series by
/// series under [`Sample::name`], so the two surfaces enumerate the same
/// values in the same order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Dotted `/stats` path (`cache.hits`): each dot nests one object.
    pub path: &'static str,
    /// Help text.
    pub help: &'static str,
    /// Counter or gauge.
    pub kind: Kind,
    /// Value at scrape time.
    pub value: u64,
}

impl Sample {
    /// A counter sample; see the field docs.
    pub fn counter(path: &'static str, help: &'static str, value: u64) -> Self {
        Sample {
            path,
            help,
            kind: Kind::Counter,
            value,
        }
    }

    /// A gauge sample; see the field docs.
    pub fn gauge(path: &'static str, help: &'static str, value: u64) -> Self {
        Sample {
            path,
            help,
            kind: Kind::Gauge,
            value,
        }
    }

    /// The `/metrics` name, the one place the naming rule lives: `ldiv_`,
    /// then the path with dots as underscores, then `_total` for a
    /// counter (`cache.hits` → `ldiv_cache_hits_total`).
    pub fn name(&self) -> String {
        let suffix = match self.kind {
            Kind::Counter => "_total",
            Kind::Gauge => "",
        };
        format!("ldiv_{}{suffix}", self.path.replace('.', "_"))
    }
}

struct CounterEntry {
    path: &'static str,
    help: &'static str,
    counter: Counter,
}

/// A labeled family of log2 latency histograms rendered as Prometheus
/// `_bucket`/`_sum`/`_count` series.
pub struct HistogramFamily {
    prom: &'static str,
    help: &'static str,
    label: &'static str,
    series: Mutex<Vec<(String, Arc<Histogram>)>>,
}

impl HistogramFamily {
    /// The histogram for one label value, created on first use.
    pub fn with_label(&self, value: &str) -> Arc<Histogram> {
        let mut series = self.series.lock().unwrap();
        if let Some((_, h)) = series.iter().find(|(v, _)| v == value) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        series.push((value.to_string(), Arc::clone(&h)));
        h
    }

    /// Records one observation under `value`.
    pub fn observe(&self, value: &str, d: std::time::Duration) {
        self.with_label(value).observe(d);
    }

    /// All series, sorted by label value (deterministic render order).
    pub fn series(&self) -> Vec<(String, Arc<Histogram>)> {
        let mut out = self.series.lock().unwrap().clone();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    fn render_into(&self, out: &mut String) {
        let series = self.series();
        if series.is_empty() {
            return;
        }
        out.push_str(&format!("# HELP {} {}\n", self.prom, self.help));
        out.push_str(&format!("# TYPE {} histogram\n", self.prom));
        for (value, hist) in &series {
            let escaped = escape_label_value(value);
            let counts = hist.bucket_counts();
            let mut cumulative = 0u64;
            for (k, &c) in counts.iter().enumerate() {
                cumulative += c;
                let le = if k < BUCKET_BOUNDS_NS.len() {
                    seconds_text(BUCKET_BOUNDS_NS[k])
                } else {
                    "+Inf".to_string()
                };
                out.push_str(&format!(
                    "{}_bucket{{{}=\"{}\",le=\"{}\"}} {}\n",
                    self.prom, self.label, escaped, le, cumulative
                ));
            }
            out.push_str(&format!(
                "{}_sum{{{}=\"{}\"}} {}\n",
                self.prom,
                self.label,
                escaped,
                seconds_text(hist.sum_ns())
            ));
            out.push_str(&format!(
                "{}_count{{{}=\"{}\"}} {}\n",
                self.prom,
                self.label,
                escaped,
                hist.count()
            ));
        }
    }
}

fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// The registry: ordered counters plus histogram families. One instance
/// per server. A scrape starts its [`Sample`] list with
/// [`Registry::counter_samples`] and appends the values other owners
/// hold (cache, pool, store, config); `/metrics` then follows the list
/// with [`Registry::render_histograms_into`].
#[derive(Default)]
pub struct Registry {
    counters: Mutex<Vec<CounterEntry>>,
    families: Mutex<Vec<Arc<HistogramFamily>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or fetches) a counter by `/stats` path. The `help` of
    /// an existing path is kept from first registration.
    pub fn counter(&self, path: &'static str, help: &'static str) -> Counter {
        let mut counters = self.counters.lock().unwrap();
        if let Some(entry) = counters.iter().find(|e| e.path == path) {
            return entry.counter.clone();
        }
        let counter = Counter::default();
        counters.push(CounterEntry {
            path,
            help,
            counter: counter.clone(),
        });
        counter
    }

    /// Registers (or fetches) a histogram family by Prometheus name.
    pub fn histogram(
        &self,
        prom: &'static str,
        help: &'static str,
        label: &'static str,
    ) -> Arc<HistogramFamily> {
        let mut families = self.families.lock().unwrap();
        if let Some(family) = families.iter().find(|f| f.prom == prom) {
            return Arc::clone(family);
        }
        let family = Arc::new(HistogramFamily {
            prom,
            help,
            label,
            series: Mutex::new(Vec::new()),
        });
        families.push(Arc::clone(&family));
        family
    }

    /// Every counter as a [`Sample`], in registration order.
    pub fn counter_samples(&self) -> Vec<Sample> {
        self.counters
            .lock()
            .unwrap()
            .iter()
            .map(|e| Sample::counter(e.path, e.help, e.counter.get()))
            .collect()
    }

    /// Renders the histogram families as Prometheus text, in
    /// registration order.
    pub fn render_histograms_into(&self, out: &mut String) {
        for family in self.families.lock().unwrap().iter() {
            family.render_into(out);
        }
    }
}

/// Writes one sample as a `# HELP`/`# TYPE`/sample triple under its
/// [`Sample::name`].
pub fn write_metric(out: &mut String, sample: &Sample) {
    let name = sample.name();
    let kind = match sample.kind {
        Kind::Counter => "counter",
        Kind::Gauge => "gauge",
    };
    out.push_str(&format!("# HELP {name} {}\n", sample.help));
    out.push_str(&format!("# TYPE {name} {kind}\n"));
    out.push_str(&format!("{name} {}\n", sample.value));
}

fn is_name_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == ':'
}

fn is_name_char(c: char) -> bool {
    is_name_start(c) || c.is_ascii_digit()
}

fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if is_name_start(c)) && chars.all(is_name_char)
}

fn base_family(name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stripped) = name.strip_suffix(suffix) {
            return stripped;
        }
    }
    name
}

/// Parses the label block `name="value",...` (input without braces).
fn valid_labels(body: &str) -> bool {
    let mut rest = body;
    loop {
        let Some(eq) = rest.find('=') else {
            return false;
        };
        if !valid_name(&rest[..eq]) || rest[..eq].contains(':') {
            return false;
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return false;
        }
        let mut chars = rest[1..].char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => {
                    let Some((_, esc)) = chars.next() else {
                        return false;
                    };
                    if !matches!(esc, '\\' | '"' | 'n') {
                        return false;
                    }
                }
                '"' => {
                    end = Some(i);
                    break;
                }
                _ => {}
            }
        }
        let Some(end) = end else {
            return false;
        };
        rest = &rest[1 + end + 1..];
        match rest.strip_prefix(',') {
            Some(tail) => rest = tail,
            None => return rest.is_empty(),
        }
    }
}

fn valid_value(s: &str) -> bool {
    !s.is_empty() && (s == "+Inf" || s == "-Inf" || s == "NaN" || s.parse::<f64>().is_ok())
}

/// Strict structural check of Prometheus text exposition format.
///
/// Enforced grammar, line by line:
/// * `# HELP <name> <text>` / `# TYPE <name> <counter|gauge|histogram>`
///   with a valid metric name; at most one of each per family, HELP
///   before TYPE, TYPE before any sample of that family.
/// * samples: `<name>[{label="value",...}] <value>` where the name is
///   valid, label values use only `\\`, `\"`, `\n` escapes, and the
///   value parses as f64 (or ±Inf/NaN).
/// * every sample's family (name minus `_bucket`/`_sum`/`_count`) must
///   have a preceding TYPE line; text must be newline-terminated.
///
/// Returns the first offense as `Err((line_number, message))`.
pub fn validate_prometheus(text: &str) -> Result<(), (usize, String)> {
    if text.is_empty() {
        return Err((0, "empty exposition".to_string()));
    }
    if !text.ends_with('\n') {
        return Err((0, "missing trailing newline".to_string()));
    }
    let mut helped: Vec<&str> = Vec::new();
    let mut typed: Vec<(&str, &str)> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let err = |msg: &str| Err((lineno, format!("{msg}: {line:?}")));
        if line.is_empty() {
            return err("blank line");
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let (keyword, rest) = match rest.split_once(' ') {
                Some(pair) => pair,
                None => return err("malformed comment"),
            };
            match keyword {
                "HELP" => {
                    let (name, help) = match rest.split_once(' ') {
                        Some(pair) => pair,
                        None => return err("HELP without text"),
                    };
                    if !valid_name(name) {
                        return err("bad metric name in HELP");
                    }
                    if help.trim().is_empty() {
                        return err("empty HELP text");
                    }
                    if helped.contains(&name) {
                        return err("duplicate HELP");
                    }
                    if typed.iter().any(|(n, _)| *n == name) {
                        return err("HELP after TYPE");
                    }
                    helped.push(name);
                }
                "TYPE" => {
                    let (name, kind) = match rest.split_once(' ') {
                        Some(pair) => pair,
                        None => return err("TYPE without kind"),
                    };
                    if !valid_name(name) {
                        return err("bad metric name in TYPE");
                    }
                    if !matches!(kind, "counter" | "gauge" | "histogram") {
                        return err("unknown metric type");
                    }
                    if typed.iter().any(|(n, _)| *n == name) {
                        return err("duplicate TYPE");
                    }
                    typed.push((name, kind));
                }
                _ => return err("unknown comment keyword"),
            }
            continue;
        }
        if line.starts_with('#') {
            return err("comment without space");
        }
        // Sample line: name[{labels}] value
        let (series, value) = match line.rsplit_once(' ') {
            Some(pair) => pair,
            None => return err("sample without value"),
        };
        if !valid_value(value) {
            return err("bad sample value");
        }
        let name = match series.split_once('{') {
            Some((name, labels)) => {
                let Some(body) = labels.strip_suffix('}') else {
                    return err("unterminated label block");
                };
                if !valid_labels(body) {
                    return err("bad label block");
                }
                name
            }
            None => series,
        };
        if !valid_name(name) {
            return err("bad metric name in sample");
        }
        let family = base_family(name);
        let declared = typed
            .iter()
            .find(|(n, _)| *n == family || *n == name)
            .map(|(_, kind)| *kind);
        match declared {
            Some("histogram") => {}
            Some(_) if name != family => {
                // `_bucket` etc. only belong to histograms; a counter
                // legitimately named e.g. `..._count` matches `name`.
                if !typed.iter().any(|(n, _)| *n == name) {
                    return err("histogram suffix on non-histogram family");
                }
            }
            Some(_) => {}
            None => return err("sample without preceding TYPE"),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counters_register_once_and_share_cells() {
        let registry = Registry::new();
        let a = registry.counter("requests", "Total requests.");
        let b = registry.counter("requests", "Total requests.");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(
            registry.counter_samples(),
            vec![Sample::counter("requests", "Total requests.", 3)]
        );
    }

    #[test]
    fn samples_preserve_registration_order() {
        let registry = Registry::new();
        registry.counter("b_second", "B.");
        registry.counter("a_first", "A.");
        let paths: Vec<_> = registry.counter_samples().iter().map(|s| s.path).collect();
        assert_eq!(paths, vec!["b_second", "a_first"]);
    }

    #[test]
    fn samples_and_histograms_render_valid_text() {
        let registry = Registry::new();
        registry.counter("cache.hits", "Cache hits.").inc();
        let family =
            registry.histogram("ldiv_request_duration_seconds", "Request latency.", "route");
        family.observe("/anonymize", Duration::from_micros(150));
        family.observe("/anonymize", Duration::from_millis(3));
        family.observe("/stats", Duration::from_micros(2));
        let mut out = String::new();
        let gauge = Sample::gauge("workers", "Worker threads.", 4);
        for s in registry.counter_samples().iter().chain([&gauge]) {
            write_metric(&mut out, s);
        }
        registry.render_histograms_into(&mut out);
        validate_prometheus(&out).expect("registry output is valid exposition text");
        // Names derive from the path and the kind.
        assert!(out.contains("# TYPE ldiv_cache_hits_total counter\nldiv_cache_hits_total 1\n"));
        assert!(out.contains("# TYPE ldiv_workers gauge\nldiv_workers 4\n"));
        assert!(out.contains("# TYPE ldiv_request_duration_seconds histogram\n"));
        assert!(out.contains(
            "ldiv_request_duration_seconds_bucket{route=\"/anonymize\",le=\"+Inf\"} 2\n"
        ));
        assert!(out.contains("ldiv_request_duration_seconds_count{route=\"/anonymize\"} 2\n"));
        assert!(out.contains("ldiv_request_duration_seconds_count{route=\"/stats\"} 1\n"));
        // Cumulative buckets: the 256µs bucket holds the 150µs sample.
        assert!(out.contains(
            "ldiv_request_duration_seconds_bucket{route=\"/anonymize\",le=\"0.000256\"} 1\n"
        ));
        // Deterministic label order (sorted).
        let anon = out.find("route=\"/anonymize\"").unwrap();
        let stats = out.find("route=\"/stats\"").unwrap();
        assert!(anon < stats);
    }

    #[test]
    fn label_values_are_escaped() {
        let registry = Registry::new();
        let family = registry.histogram("ldiv_x_seconds", "X.", "route");
        family.observe("a\"b\\c\nd", Duration::from_micros(1));
        let mut out = String::new();
        registry.render_histograms_into(&mut out);
        assert!(out.contains("route=\"a\\\"b\\\\c\\nd\""));
        validate_prometheus(&out).expect("escaped labels validate");
    }

    #[test]
    fn validator_rejects_malformed_text() {
        let cases: &[(&str, &str)] = &[
            ("", "empty"),
            ("ldiv_x 1", "missing trailing newline"),
            ("ldiv_x 1\n", "sample without preceding TYPE"),
            ("# TYPE ldiv_x counter\nldiv_x notanumber\n", "bad value"),
            (
                "# TYPE ldiv_x counter\n# TYPE ldiv_x counter\nldiv_x 1\n",
                "duplicate TYPE",
            ),
            ("# TYPE ldiv_x widget\nldiv_x 1\n", "unknown type"),
            (
                "# TYPE ldiv_x counter\nldiv_x{bad-label=\"v\"} 1\n",
                "bad label name",
            ),
            (
                "# TYPE ldiv_x counter\nldiv_x{l=\"v} 1\n",
                "unterminated label value",
            ),
            (
                "# TYPE ldiv_x counter\nldiv_x_bucket{le=\"1\"} 1\n",
                "suffix on counter",
            ),
            ("# TYPE ldiv_x counter\n\nldiv_x 1\n", "blank line"),
            ("#TYPE ldiv_x counter\nldiv_x 1\n", "comment without space"),
            (
                "# TYPE ldiv_x counter\n# HELP ldiv_x late help\nldiv_x 1\n",
                "HELP after TYPE",
            ),
        ];
        for (text, why) in cases {
            assert!(
                validate_prometheus(text).is_err(),
                "expected rejection: {why}"
            );
        }
    }

    #[test]
    fn validator_accepts_gauges_counters_and_inf() {
        let text = "# HELP ldiv_workers Worker count.\n# TYPE ldiv_workers gauge\nldiv_workers 4\n# TYPE ldiv_x histogram\nldiv_x_bucket{m=\"tp\",le=\"+Inf\"} 3\nldiv_x_sum{m=\"tp\"} 0.5\nldiv_x_count{m=\"tp\"} 3\n";
        validate_prometheus(text).expect("valid text");
    }
}
