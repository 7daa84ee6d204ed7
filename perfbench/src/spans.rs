//! The traced run's span recorder: spans opened and closed by the
//! benchmark's own code around each call into a layer's public API,
//! kept in memory and written out as JSONL when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. Spans of one batch share its `batch` id; `parent`
/// is the index of the enclosing span, if any.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub batch: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans in opening order; an id is an index into [`Recorder::spans`].
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, batch: u64, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            batch,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        batch: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, batch, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span as one JSON object per line, with its self time.
    pub fn to_jsonl(&self) -> String {
        let self_ns = self_times(&self.spans, 0);
        let mut out = String::new();
        for (id, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"batch\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.name, s.batch, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// Self time of every span in `spans`, a run of the recorder's spans
/// starting at id `base`: its duration minus the part of its interval
/// that its direct children cover. Children are merged as intervals, so
/// back-to-back children count once and a grandchild (inside its own
/// parent) is never subtracted twice.
pub fn self_times(spans: &[Span], base: usize) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(base)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            batch: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        let spans = [
            span("batch", None, 0, 100),
            span("owner", Some(0), 10, 60),
            span("decode", Some(1), 20, 30),
            span("engine", Some(1), 30, 50),
        ];
        // batch: 100 − owner's 50; owner: 50 − (10 + 20); leaves: all own.
        assert_eq!(self_times(&spans, 0), vec![50, 20, 10, 20]);
    }

    #[test]
    fn back_to_back_children_cover_their_union() {
        let spans = [
            span("blocking", None, 0, 100),
            span("encode", Some(0), 0, 40),
            span("engine", Some(0), 40, 70),
            span("decode", Some(0), 70, 100),
        ];
        assert_eq!(self_times(&spans, 0)[0], 0);
        let spans = [
            span("blocking", None, 0, 100),
            span("encode", Some(0), 5, 40),
            span("decode", Some(0), 40, 90),
        ];
        assert_eq!(self_times(&spans, 0)[0], 15);
    }

    #[test]
    fn overlapping_children_are_merged() {
        let spans = [
            span("router", None, 0, 100),
            span("forward-0", Some(0), 10, 60),
            span("forward-1", Some(0), 20, 80),
        ];
        assert_eq!(self_times(&spans, 0)[0], 30);
    }

    #[test]
    fn recorder_nests_and_serializes() {
        let mut rec = Recorder::new();
        let root = rec.open("batch", 7, None);
        let x = rec.time("engine.submit", 7, Some(root), || 41 + 1);
        rec.close(root);
        assert_eq!(x, 42);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let jsonl = rec.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"name\":\"engine.submit\",\"batch\":7,\"parent\":0"));
    }
}
