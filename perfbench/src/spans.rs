//! In-memory span recorder for the traced run.
//!
//! Spans come only from the benchmark's own code, one per call into a
//! layer (generate, relabel, fingerprint, partition, kernel run,
//! verify, HTTP exchange). Each has a name, start, end, parent and run
//! id; HTTP exchanges also carry the server's `x-ecl-req` id. A
//! disabled recorder keeps nothing, so the untraced run pays one
//! branch per call.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's
/// origin; `parent` indexes the same recorder's span list.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call name, e.g. `gen.generate`.
    pub name: &'static str,
    /// Run id shared by every span of one benchmark run.
    pub run: u64,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin (0 while open).
    pub end_ns: u64,
    /// Server correlation id of an HTTP exchange (0 otherwise).
    pub req: u64,
}

/// Span recorder for one thread of a run.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    run: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when recording is off).
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

impl Spans {
    /// A recorder for run `run`; keeps nothing unless `enabled`.
    pub fn new(enabled: bool, run: u64, origin: Instant) -> Spans {
        Spans { enabled, run, origin, spans: Vec::new(), open: Vec::new() }
    }

    /// An empty recorder for another thread of the same run, sharing
    /// this one's origin so the two can be merged with [`Spans::absorb`].
    pub fn fork(&self) -> Spans {
        Spans::new(self.enabled, self.run, self.origin)
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let parent = self.open.last().copied();
        self.spans.push(Span { name, run: self.run, parent, start_ns, end_ns: 0, req: 0 });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes `span`, tagging it with a request id.
    pub fn close_req(&mut self, span: Open, req: u64) {
        let Open(Some(id)) = span else { return };
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans[id].req = req;
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.truncate(pos);
        }
    }

    /// Closes `span`.
    pub fn close(&mut self, span: Open) {
        self.close_req(span, 0);
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.open(name);
        let r = f();
        self.close(s);
        r
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans (re-indexing their parents).
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in seconds of every closed span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns && s.end_ns > 0)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Self time of span `i`: its duration minus the time its direct
    /// children cover (children of one thread never overlap).
    pub fn self_ns(&self, i: usize) -> u64 {
        let s = &self.spans[i];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(i))
            .map(|c| c.end_ns.saturating_sub(c.start_ns))
            .sum();
        s.end_ns.saturating_sub(s.start_ns).saturating_sub(children)
    }

    /// Per-name totals `(name, count, total_ns, self_ns)` in first-seen
    /// order.
    pub fn summary(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let own = self.self_ns(i);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += dur;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, dur, own)),
            }
        }
        rows
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"run\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"req\": {}}}",
                s.name,
                s.run,
                s.start_ns,
                s.end_ns,
                self.self_ns(i),
                s.req
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut t = Spans::new(true, 7, Instant::now());
        let outer = t.open("outer");
        t.time("inner", || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.close(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        let inner = t.spans()[1].end_ns - t.spans()[1].start_ns;
        let whole = t.spans()[0].end_ns - t.spans()[0].start_ns;
        assert_eq!(t.self_ns(0), whole - inner);
        assert!(t.to_jsonl().lines().all(|l| l.contains("\"run\": 7")));

        let mut off = Spans::new(false, 7, Instant::now());
        off.time("x", || ());
        assert!(off.spans().is_empty());
    }
}
