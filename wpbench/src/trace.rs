//! Dependency-free span recorder for the traced run.
//!
//! Spans live in memory until [`Recorder::write_jsonl`] dumps them as
//! JSON lines. Each span carries its name, start and end (ns since the
//! recorder's epoch), parent span, request id and recording thread.
//!
//! A span's *self time* is its duration minus the time its direct
//! children account for. Children on one thread are summed; when the
//! children ran on several threads (a parallel section), the busiest
//! thread's sum is subtracted, which leaves the section's own overhead.
//! Self time is signed: children that took longer than their parent
//! (a replay slower than the call it explains) give a negative value
//! rather than hiding behind zero.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub rid: u64,
    pub thread: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store shared by every thread of a run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A stable tag of the calling thread, as spans record it.
pub fn thread_tag() -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    h.finish()
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch` (which must not be
    /// later than any interval it will record).
    pub fn since(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent's interval is known.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records an already-measured interval under a reserved id.
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        rid: u64,
        start: Instant,
        end: Instant,
    ) {
        self.record_on(thread_tag(), id, name, parent, rid, start, end);
    }

    /// [`Recorder::record_as`] for an interval that ran on another
    /// thread (tagged by [`thread_tag`] there).
    #[allow(clippy::too_many_arguments)]
    pub fn record_on(
        &self,
        thread: u64,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        rid: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            rid,
            thread,
        };
        self.spans.lock().expect("recorder lock").push(span);
    }

    /// Records an already-measured interval under a fresh id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        rid: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, rid, start, end);
        id
    }

    /// Times `f` as one span; `f` receives the span's id for its
    /// children.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        rid: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.reserve();
        let start = Instant::now();
        let out = f(id);
        self.record_as(id, name, parent, rid, start, Instant::now());
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("recorder lock").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"rid\":{},\"thread\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, parent, s.rid, s.thread
            )?;
        }
        out.flush()
    }
}

/// Self time (ns, signed) of every span, keyed by span id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, i64> {
    // parent -> thread -> summed child duration
    let mut child_sums: HashMap<u64, HashMap<u64, u64>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_sums
                .entry(p)
                .or_default()
                .entry(s.thread)
                .or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = child_sums.get(&s.id).map_or(0, |per_thread| {
                per_thread.values().copied().max().unwrap_or(0)
            });
            (s.id, s.dur_ns() as i64 - covered as i64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let rec = Recorder::since(t0);
        let root = rec.record("root", None, 1, t0, t0 + Duration::from_millis(10));
        rec.record("a", Some(root), 1, t0, t0 + Duration::from_millis(3));
        rec.record("b", Some(root), 1, t0, t0 + Duration::from_millis(4));
        let st = self_times(&rec.spans());
        assert_eq!(st[&root], 3_000_000);
    }

    #[test]
    fn parallel_children_count_the_busiest_thread() {
        let t0 = Instant::now();
        let rec = Recorder::since(t0);
        let ms = Duration::from_millis;
        let root = rec.record("root", None, 1, t0, t0 + ms(10));
        for (thread, len) in [(7, 4), (7, 4), (8, 5)] {
            let id = rec.reserve();
            rec.record_on(thread, id, "cell", Some(root), 1, t0, t0 + ms(len));
        }
        assert_eq!(self_times(&rec.spans())[&root], 2_000_000);
    }

    #[test]
    fn overlong_children_give_negative_self_time() {
        let t0 = Instant::now();
        let rec = Recorder::since(t0);
        let root = rec.record("root", None, 1, t0, t0 + Duration::from_millis(2));
        rec.record("a", Some(root), 1, t0, t0 + Duration::from_millis(3));
        assert_eq!(self_times(&rec.spans())[&root], -1_000_000);
    }
}
