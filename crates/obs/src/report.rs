//! Structured metric snapshots and their JSON-lines export
//! (`SL2_METRICS_JSON`), following the same shape discipline as the
//! corpus and recorder reports.

use sl2_primitives::labeled::json_escape;

use crate::hist::Histogram;

/// A merged, point-in-time view of every registered metric: counters
/// summed across thread shards, gauges folded by max (high-watermark
/// semantics), histograms bucket-wise merged. Entries are sorted by
/// label so serialized reports diff cleanly.
///
/// With the `obs` feature off, `sl2_obs::snapshot()` returns an empty
/// snapshot, so report-emitting call sites need no feature gate of
/// their own.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(label, total)` for each registered counter.
    pub counters: Vec<(String, u64)>,
    /// `(label, high-watermark)` for each registered gauge.
    pub gauges: Vec<(String, u64)>,
    /// `(label, merged histogram)` for each registered distribution.
    pub histograms: Vec<(String, Histogram)>,
}

impl MetricsSnapshot {
    /// True if no metric carries any data.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The value of a counter, if registered.
    pub fn counter(&self, label: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(l, _)| l == label)
            .map(|&(_, v)| v)
    }

    /// The merged histogram under `label`, if registered.
    pub fn histogram(&self, label: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, h)| h)
    }

    /// Serializes the snapshot as JSON lines: one object per metric.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (label, v) in &self.counters {
            out.push_str(&format!(
                "{{\"metric\":\"{}\",\"kind\":\"counter\",\"value\":{v}}}\n",
                json_escape(label),
            ));
        }
        for (label, v) in &self.gauges {
            out.push_str(&format!(
                "{{\"metric\":\"{}\",\"kind\":\"gauge\",\"value\":{v}}}\n",
                json_escape(label),
            ));
        }
        for (label, h) in &self.histograms {
            out.push_str(&format!(
                "{{\"metric\":\"{}\",\"kind\":\"histogram\",\"count\":{},\
                 \"p50\":{},\"p99\":{},\"p999\":{},\"max\":{}}}\n",
                json_escape(label),
                h.count(),
                h.p50(),
                h.p99(),
                h.p999(),
                h.max(),
            ));
        }
        out
    }

    /// Writes the JSON-lines report to the path named by the
    /// `SL2_METRICS_JSON` environment variable, if set (the CI
    /// artifact hook, mirroring `SL2_CORPUS_JSON` /
    /// `SL2_RECORDER_JSON`).
    pub fn write_env(&self) {
        if let Ok(path) = std::env::var("SL2_METRICS_JSON") {
            std::fs::write(&path, self.to_json_lines())
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_are_one_object_per_metric() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(2000);
        let snap = MetricsSnapshot {
            counters: vec![("a.ctr".into(), 7)],
            gauges: vec![("b.gauge".into(), 9)],
            histograms: vec![("c.hist".into(), h)],
        };
        let text = snap.to_json_lines();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"metric\":\"a.ctr\",\"kind\":\"counter\",\"value\":7}"
        );
        assert!(lines[1].contains("\"kind\":\"gauge\""));
        assert!(lines[2].contains("\"count\":2") && lines[2].contains("\"max\":2000"));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn lookup_helpers_find_labels() {
        let snap = MetricsSnapshot {
            counters: vec![("x".into(), 3)],
            gauges: vec![],
            histograms: vec![("y".into(), Histogram::new())],
        };
        assert_eq!(snap.counter("x"), Some(3));
        assert_eq!(snap.counter("missing"), None);
        assert!(snap.histogram("y").is_some());
        assert!(!snap.is_empty());
        assert!(MetricsSnapshot::default().is_empty());
    }
}
