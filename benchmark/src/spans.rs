//! In-memory span recorder for the traced run.
//!
//! The harness records a span around each call it makes into a layer — the
//! library itself is not instrumented. Totals are kept for every span; the
//! stored list is bounded and counts what it drops. Spans are written out
//! once, when the run ends.
//!
//! Recording must not disturb what it records: the span store is allocated
//! up front and child-interval buffers are reused, so that — once every span
//! name has been seen — opening and closing spans allocates nothing. (An
//! allocation in the middle of a traced step changes which of the step's own
//! buffers the allocator can hand back to the system, and with that the
//! step's page-fault count.)

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept in memory for the trace file.
pub const STORED_SPANS: usize = 1 << 16;

/// One closed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// 1-based id; 0 is "no span".
    pub id: u32,
    /// Id of the span that caused this one (0 for a root).
    pub parent: u32,
    /// Spans of one slot share this identifier.
    pub call: u32,
    /// Layer boundary the span was recorded at.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Library calls (or replays) the span covers.
    pub count: u64,
}

/// Accumulated over every span of one name, stored or not.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Total {
    /// Spans closed.
    pub spans: u64,
    /// Σ duration.
    pub ns: u64,
    /// Σ self time (duration minus the part child spans cover).
    pub self_ns: u64,
    /// Σ count.
    pub count: u64,
}

struct Open {
    id: u32,
    parent: u32,
    call: u32,
    name: &'static str,
    start_ns: u64,
    children: Vec<(u64, u64)>,
}

/// Handle returned by [`Recorder::open`]; spans close in LIFO order.
#[must_use]
pub struct Token(u32);

/// The recorder.
pub struct Recorder {
    origin: Instant,
    stack: Vec<Open>,
    stored: Vec<Span>,
    dropped: u64,
    next_id: u32,
    totals: BTreeMap<&'static str, Total>,
    /// Child-interval buffers of closed spans, kept for reuse.
    spare: Vec<Vec<(u64, u64)>>,
}

/// The part of `parent` not covered by any of `children`, in the parent's
/// units. Children may nest, overlap each other, or stick out of the
/// parent; covered time is the union clipped to the parent. Sorts `children`.
pub fn self_time(parent: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = ps;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(pe));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    pe.saturating_sub(ps).saturating_sub(covered)
}

impl Recorder {
    /// An empty recorder; span times count from now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            stack: Vec::with_capacity(8),
            stored: Vec::with_capacity(STORED_SPANS),
            dropped: 0,
            next_id: 1,
            totals: BTreeMap::new(),
            spare: (0..8).map(|_| Vec::with_capacity(16)).collect(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &'static str, call: u32) -> Token {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        let parent = self.stack.last().map_or(0, |o| o.id);
        let start_ns = self.now();
        self.stack.push(Open {
            id,
            parent,
            call,
            name,
            start_ns,
            children: self.spare.pop().unwrap_or_default(),
        });
        Token(id)
    }

    /// Closes the innermost span, which must be `token`'s, and returns its
    /// duration in nanoseconds.
    pub fn close(&mut self, token: Token, count: u64) -> u64 {
        let end_ns = self.now();
        let mut open = self.stack.pop().expect("close without an open span");
        assert_eq!(open.id, token.0, "spans must close innermost first");
        let dur = end_ns - open.start_ns;
        let total = self.totals.entry(open.name).or_default();
        total.spans += 1;
        total.ns += dur;
        total.self_ns += self_time((open.start_ns, end_ns), &mut open.children);
        total.count += count;
        open.children.clear();
        self.spare.push(open.children);
        if let Some(parent) = self.stack.last_mut() {
            parent.children.push((open.start_ns, end_ns));
        }
        if self.stored.len() < STORED_SPANS {
            self.stored.push(Span {
                id: open.id,
                parent: open.parent,
                call: open.call,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                count,
            });
        } else {
            self.dropped += 1;
        }
        dur
    }

    /// Totals for one span name (zero if it was never recorded).
    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Spans closed so far, stored or not.
    pub fn spans(&self) -> u64 {
        self.totals.values().map(|t| t.spans).sum()
    }

    /// Spans not stored because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The trace document: stored spans plus the per-name totals.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = String::with_capacity(64 + self.stored.len() * 96);
        let _ = write!(
            s,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans_dropped\":{},\"totals\":{{",
            self.dropped
        );
        for (i, (name, t)) in self.totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\"{name}\":{{\"spans\":{},\"ns\":{},\"self_ns\":{},\"count\":{}}}",
                t.spans, t.ns, t.self_ns, t.count
            );
        }
        s.push_str("},\"spans\":[\n");
        for (i, sp) in self.stored.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                s,
                "{sep}{{\"id\":{},\"parent\":{},\"call\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"count\":{}}}",
                sp.id, sp.parent, sp.call, sp.name, sp.start_ns, sp.end_ns, sp.count
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time((0, 100), &mut [(10, 20), (50, 80)]), 60);
        assert_eq!(self_time((0, 100), &mut []), 100);
    }

    #[test]
    fn overlapping_and_nested_children_count_once() {
        // (10,40) and (30,60) overlap; (35,38) nests inside both
        assert_eq!(self_time((0, 100), &mut [(30, 60), (10, 40), (35, 38)]), 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time((50, 100), &mut [(0, 60), (90, 200)]), 30);
        assert_eq!(self_time((50, 100), &mut [(0, 500)]), 0);
        assert_eq!(self_time((50, 100), &mut [(0, 10), (200, 300)]), 50);
    }

    #[test]
    fn recorder_links_parents_and_accumulates_totals() {
        let mut rec = Recorder::new();
        let root = rec.open("slot", 7);
        let root_id = root.0;
        let a = rec.open("core.cache", 7);
        rec.close(a, 3);
        let b = rec.open("core.plan", 7);
        rec.close(b, 3);
        rec.close(root, 3);
        let slot = rec.total("slot");
        let kids = rec.total("core.cache").ns + rec.total("core.plan").ns;
        assert_eq!(slot.spans, 1);
        assert_eq!(slot.self_ns, slot.ns - kids);
        assert_eq!(rec.total("core.cache").count, 3);
        assert_eq!(rec.total("nothing"), Total::default());
        let doc = rec.to_json("w", 1);
        assert!(doc.contains(&format!(
            "\"parent\":{root_id},\"call\":7,\"name\":\"core.plan\""
        )));
        assert!(doc.contains("\"spans_dropped\":0"));
    }

    #[test]
    fn a_full_buffer_counts_what_it_drops() {
        let mut rec = Recorder::new();
        for i in 0..STORED_SPANS + 5 {
            let t = rec.open("x", i as u32);
            rec.close(t, 1);
        }
        assert_eq!(rec.dropped(), 5);
        assert_eq!(rec.total("x").spans, (STORED_SPANS + 5) as u64);
    }
}
