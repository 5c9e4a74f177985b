//! Spans recorded by the benchmark's own code around its calls into
//! each layer, kept in a pre-allocated buffer and written as JSON lines
//! when the run ends. Probes inside the crates are a later issue.

use std::io::Write;
use std::time::Instant;

use crate::gen::Kind;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One request as the generator sees it (root; `parent == 0`).
    Request,
    /// `Registry::get_or_insert` for the request's key.
    RegistryLookup,
    /// The `KeyObject` method the request runs.
    ObjectOp,
    /// One phase of the `checker` workload (root).
    Phase,
    /// One scenario or history verdict inside a phase.
    Verdict,
}

impl Name {
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Request => "request",
            Name::RegistryLookup => "registry.lookup",
            Name::ObjectOp => "object.op",
            Name::Phase => "checker.phase",
            Name::Verdict => "checker.verdict",
        }
    }
}

/// Backend crate that served an `object.op` span (`key % 3`).
pub const BACKENDS: [&str; 3] = ["core", "sharded", "combine"];

/// One span: ids are 1-based, `parent == 0` marks a root, times are ns
/// since the buffer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: Name,
    pub start: u64,
    pub end: u64,
    /// `object.op`: `backend * 8 + kind`. `registry.lookup`: 1 on a
    /// key's first touch. Checker spans: index of the phase/scenario.
    pub tag: u32,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub fn op_tag(key: u32, kind: Kind) -> u32 {
    (key % 3) * 8 + kind as u32
}

/// The pre-allocated span buffer of one run.
#[derive(Debug)]
pub struct SpanBuf {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u64,
}

impl SpanBuf {
    pub fn with_capacity(capacity: usize) -> Self {
        SpanBuf {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            next_id: 1,
        }
    }

    /// Nanoseconds since the buffer's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span and returns its id.
    pub fn push(&mut self, parent: u64, name: Name, start: u64, end: u64, tag: u32) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start,
            end,
            tag,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the buffer as JSON lines, then `trailer` (one more JSON
    /// object per line) so the file carries the numbers it reproduces.
    pub fn write_jsonl(&self, out: &mut impl Write, trailer: &[String]) -> std::io::Result<()> {
        for s in &self.spans {
            write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.id,
                s.parent,
                s.name.as_str(),
                s.start,
                s.end
            )?;
            match s.name {
                Name::ObjectOp => write!(
                    out,
                    ",\"backend\":\"{}\",\"op\":\"{}\"",
                    BACKENDS[(s.tag / 8) as usize % 3],
                    Kind::ALL[(s.tag % 8) as usize].name()
                )?,
                Name::RegistryLookup => write!(out, ",\"first_touch\":{}", s.tag == 1)?,
                Name::Request => {}
                Name::Phase | Name::Verdict => write!(out, ",\"index\":{}", s.tag)?,
            }
            writeln!(out, "}}")?;
        }
        for line in trailer {
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Self time of every root span: its duration minus the summed
/// durations of the spans naming it as parent (saturating at 0).
/// Children here are replayed, not nested in wall time, so "the part of
/// the interval the children cover" is their total duration.
/// Relies on ids being dense and 1-based, as `SpanBuf::push` makes them.
pub fn root_self_times(spans: &[Span]) -> Vec<u64> {
    let base = spans.first().map_or(1, |s| s.id);
    let mut child_sum = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| s.parent != 0) {
        child_sum[(s.parent - base) as usize] += s.duration();
    }
    spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| {
            s.duration()
                .saturating_sub(child_sum[(s.id - base) as usize])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut buf = SpanBuf::with_capacity(8);
        let a = buf.push(0, Name::Request, 100, 1_100, 0);
        buf.push(a, Name::RegistryLookup, 5_000, 5_030, 1);
        buf.push(a, Name::ObjectOp, 5_030, 5_100, op_tag(4, Kind::Inc));
        let b = buf.push(0, Name::Request, 2_000, 2_050, 0);
        // Children longer than the root saturate at zero, never wrap.
        buf.push(b, Name::ObjectOp, 9_000, 9_400, op_tag(0, Kind::ReadMax));
        buf.push(0, Name::Request, 3_000, 3_007, 0);
        assert_eq!(root_self_times(buf.spans()), vec![900, 0, 7]);
    }

    #[test]
    fn jsonl_names_every_span_and_carries_the_trailer() {
        let mut buf = SpanBuf::with_capacity(4);
        let root = buf.push(0, Name::Request, 1, 9, 0);
        buf.push(root, Name::RegistryLookup, 10, 12, 1);
        buf.push(root, Name::ObjectOp, 12, 20, op_tag(5, Kind::WriteMax));
        let mut out = Vec::new();
        buf.write_jsonl(&mut out, &["{\"summary\":true}".to_string()])
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            "{\"id\":1,\"parent\":0,\"name\":\"request\",\"start_ns\":1,\"end_ns\":9}"
        );
        assert!(lines[1].ends_with("\"first_touch\":true}"));
        assert!(lines[2].ends_with("\"backend\":\"combine\",\"op\":\"write_max\"}"));
        assert_eq!(lines[3], "{\"summary\":true}");
    }
}
