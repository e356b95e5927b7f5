//! In-memory spans recorded from outside the crates, around the public
//! calls into each layer. Kept in memory during the run, written as
//! JSONL when it ends; a span's self time is its duration minus the
//! part its child spans cover.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Handle to an open span.
pub type SpanId = u32;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Position in the recorder (ids are dense from 0).
    pub id: SpanId,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
    /// Layer-boundary name (`slot`, `stage.settle`, `durable.wal_append`…).
    pub name: &'static str,
    /// The market slot (or replay op) the span belongs to — the shared
    /// identifier of one request's spans.
    pub slot: u64,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans against one monotonic origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, slot: u64) -> SpanId {
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            slot,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes a span opened by [`Recorder::open`].
    pub fn close(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
    }

    /// The spans recorded so far, in open order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span (same indexing as `spans`): duration minus the
/// durations of its direct children. Children run sequentially inside
/// their parent here, so their durations do not overlap.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &mut own[parent as usize];
            *p = p.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Writes `spans` as one JSON object per line.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        writeln!(
            file,
            "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"slot\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.name, s.slot, s.start_ns, s.end_ns
        )?;
    }
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            slot: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // slot [0,100) ─ stage a [10,40) ─ inner [15,25)
        //              └ stage b [50,90)
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25),
            span(3, Some(0), 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), [30, 20, 10, 40]);
        // Self times partition the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_and_orders_spans() {
        let mut rec = Recorder::new();
        let slot = rec.open("slot", None, 7);
        let stage = rec.open("stage.sense", Some(slot), 7);
        rec.close(stage);
        rec.close(slot);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[1].parent, spans[1].slot), (Some(slot), 7));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let dir = crate::host::OutDir::create("spans-test").expect("out dir");
        let path = dir.path().join("t.jsonl");
        write_jsonl(&path, &[span(0, None, 1, 9), span(1, Some(0), 2, 3)]).expect("write");
        let body = std::fs::read_to_string(&path).expect("read");
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        let second = crate::json::Json::parse(lines[1]).expect("json");
        assert_eq!(
            second.get("parent").and_then(crate::json::Json::as_f64),
            Some(0.0)
        );
        assert_eq!(
            second.get("end_ns").and_then(crate::json::Json::as_f64),
            Some(3.0)
        );
        let first = crate::json::Json::parse(lines[0]).expect("json");
        assert_eq!(first.get("parent"), Some(&crate::json::Json::Null));
    }
}
