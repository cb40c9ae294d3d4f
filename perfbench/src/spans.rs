//! The benchmark's own spans: input generation, façade construction,
//! each timed call and each probe. Kept in memory, written out at the end.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct Span {
    name: String,
    start: Duration,
    end: Option<Duration>,
    parent: Option<usize>,
    run: u32,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &str, run: u32) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start: self.origin.elapsed(),
            end: None,
            parent: self.open.last().copied(),
            run,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span still open inside it) and returns
    /// its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.origin.elapsed();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = Some(now);
            if top == id {
                break;
            }
        }
        (now - self.spans[id].start).as_secs_f64()
    }

    /// The spans as a JSON array: name, start and end in ns from the
    /// benchmark's start, parent index and run id.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let end = s.end.unwrap_or(s.start);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"run\": {}}}{}",
                s.name,
                s.start.as_nanos(),
                end.as_nanos(),
                s.run,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]\n");
        out
    }
}
