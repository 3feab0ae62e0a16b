//! Text exposition of a [`RegistrySnapshot`]: the Prometheus format, and
//! the [`ToJson`] impls that write it through the workspace's one JSON
//! writer ([`crate::json`]).
//!
//! Both emit metrics in name order, so output is stable across runs.

use crate::json::{self, ToJson};
use crate::{HistogramSnapshot, RegistrySnapshot};

/// Quantiles reported for every histogram, everywhere:
/// `(quantile, Prometheus label, JSON key)`.
pub(crate) const QUANTILES: [(f64, &str, &str); 3] = [
    (0.5, "0.5", "p50"),
    (0.95, "0.95", "p95"),
    (0.99, "0.99", "p99"),
];

/// Map a dot-separated metric name onto the Prometheus grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Render the snapshot in the Prometheus text exposition format.
/// Histograms are exposed as summaries with `quantile` labels.
pub(crate) fn prometheus(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let name = sanitize(name);
        out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
    }
    for (name, value) in &snap.gauges {
        let name = sanitize(name);
        out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
    }
    for (name, hist) in &snap.histograms {
        let name = sanitize(name);
        out.push_str(&format!("# TYPE {name} summary\n"));
        for (q, label, _) in QUANTILES {
            out.push_str(&format!(
                "{name}{{quantile=\"{label}\"}} {}\n",
                hist.quantile(q)
            ));
        }
        out.push_str(&format!("{name}_sum {}\n", hist.sum));
        out.push_str(&format!("{name}_count {}\n", hist.count));
    }
    out
}

impl ToJson for HistogramSnapshot {
    /// `{"count", "sum", "min", "max", "mean", "p50", "p95", "p99"}`, the
    /// mean rounded to three decimals.
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("count", self.count)
                .field("sum", self.sum)
                .field("min", self.min)
                .field("max", self.max)
                .field("mean", json::round3(self.mean()));
            for (q, _, key) in QUANTILES {
                o.field(key, self.quantile(q));
            }
        });
    }
}

impl ToJson for RegistrySnapshot {
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`, each
    /// section keyed by metric name.
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.object("counters", |c| {
                for (name, value) in &self.counters {
                    c.field(name, value);
                }
            })
            .object("gauges", |g| {
                for (name, value) in &self.gauges {
                    g.field(name, value);
                }
            })
            .object("histograms", |h| {
                for (name, hist) in &self.histograms {
                    h.field(name, hist);
                }
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    #[test]
    fn prometheus_output_is_sanitised_and_typed() {
        let reg = Registry::new();
        reg.counter("serve.requests.partition").add(7);
        reg.gauge("serve.active_connections").set(2);
        let h = reg.histogram("serve.request.partition_us");
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE serve_requests_partition counter"));
        assert!(text.contains("serve_requests_partition 7"));
        assert!(text.contains("# TYPE serve_active_connections gauge"));
        assert!(text.contains("serve_active_connections 2"));
        assert!(text.contains("# TYPE serve_request_partition_us summary"));
        assert!(text.contains("serve_request_partition_us{quantile=\"0.5\"}"));
        assert!(text.contains("serve_request_partition_us_count 3"));
        for line in text.lines() {
            let metric = line.strip_prefix("# TYPE ").unwrap_or(line);
            let name = metric.split([' ', '{']).next().unwrap();
            assert!(!name.contains('.'), "unsanitised metric name: {line}");
        }
    }

    #[test]
    fn json_output_parses_shapewise() {
        let reg = Registry::new();
        reg.counter("a.b").inc();
        reg.gauge("g").set(-3);
        reg.histogram("h_us").record(1234);
        let text = reg.render_json();
        assert!(text.starts_with('{') && text.ends_with('}'));
        assert!(text.contains("\"a.b\": 1"));
        assert!(text.contains("\"g\": -3"));
        assert!(text.contains("\"p50\": "));
        assert!(text.contains("\"p95\": "));
        assert!(text.contains("\"p99\": "));
        assert!(text.contains("\"count\": 1"));
    }

    #[test]
    fn empty_registry_renders_empty_documents() {
        assert_eq!(
            Registry::disabled().render_json(),
            "{\"counters\": {}, \"gauges\": {}, \"histograms\": {}}"
        );
        assert_eq!(Registry::disabled().render_prometheus(), "");
    }
}
