//! Spans: what the traced repetition records at each layer boundary.
//!
//! A span is one call into a layer: which layer, which call, the epoch it
//! belongs to (the identifier every layer shares), when it started and
//! ended on one process-wide clock, and how many items it carried. Spans
//! stay in memory during the run; [`resolve_parents`] links them into a
//! tree afterwards and [`write_trace_file`] writes them out at exit.
//!
//! A layer's self time is its span minus the part of that interval its
//! child spans cover ([`covered_ns`]) — a union, not a sum, so children
//! that ran in parallel on worker threads are not counted twice.

use std::fmt::Write as _;
use std::time::Instant;

/// One call into one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer (module) name: `serve`, `packet_buffer`, `fabric`, `controller`.
    pub layer: &'static str,
    /// The call: `epoch`, `ingress_wait`, `slots_of_batch`, `issue_batch`, …
    pub name: &'static str,
    /// Epoch index — the identifier spans of one epoch share.
    pub epoch: u64,
    /// Index of the enclosing span, filled in by [`resolve_parents`].
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Items the call carried (cycles, packets, events or requests).
    pub items: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The clock every span of a run is measured against. `Instant` is
/// monotonic across threads, so spans recorded on fabric worker threads
/// order correctly against the server thread's.
#[derive(Debug, Clone, Copy)]
pub struct Origin(Instant);

impl Origin {
    /// Starts the clock.
    pub fn start() -> Self {
        Origin(Instant::now())
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Span storage for one thread of control.
#[derive(Debug)]
pub struct Recorder {
    origin: Origin,
    /// The spans recorded so far, in end order.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder on `origin`'s clock.
    pub fn new(origin: Origin) -> Self {
        Recorder { origin, spans: Vec::new() }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.now_ns()
    }

    /// Records a span that started at `start_ns` and ends now.
    pub fn close(
        &mut self,
        layer: &'static str,
        name: &'static str,
        epoch: u64,
        start_ns: u64,
        items: u64,
    ) {
        let end_ns = self.now_ns();
        self.push(layer, name, epoch, start_ns, end_ns, items);
    }

    /// Records a span with explicit bounds.
    pub fn push(
        &mut self,
        layer: &'static str,
        name: &'static str,
        epoch: u64,
        start_ns: u64,
        end_ns: u64,
        items: u64,
    ) {
        self.spans.push(Span { layer, name, epoch, parent: None, start_ns, end_ns, items });
    }
}

/// Sorts `spans` by `(epoch, start)` and sets each span's `parent` to the
/// shortest span of another layer, in the same epoch, that contains it.
/// Worker-thread spans find the server-thread span that was waiting on
/// them the same way: by containment on the shared clock.
pub fn resolve_parents(spans: &mut [Span]) {
    spans.sort_by_key(|s| (s.epoch, s.start_ns, std::cmp::Reverse(s.end_ns)));
    let mut group_start = 0;
    for i in 0..spans.len() {
        if spans[i].epoch != spans[group_start].epoch {
            group_start = i;
        }
        let me = spans[i];
        let group_end =
            spans[i..].iter().position(|s| s.epoch != me.epoch).map_or(spans.len(), |n| i + n);
        spans[i].parent = (group_start..group_end)
            .filter(|&o| {
                let s = &spans[o];
                s.layer != me.layer && s.start_ns <= me.start_ns && me.end_ns <= s.end_ns
            })
            .min_by_key(|&o| spans[o].ns());
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`
/// (given as `(start, end)` pairs in any order; sorted in place).
pub fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut covered, mut cursor) = (0u64, start);
    for &(s, e) in children.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Total duration and items of the spans matching `layer` (and `name`,
/// when given).
pub fn total(spans: &[Span], layer: &str, name: Option<&str>) -> (u64, u64, u64) {
    let mut t = (0u64, 0u64, 0u64);
    for s in spans.iter().filter(|s| s.layer == layer && name.is_none_or(|n| s.name == n)) {
        t.0 += s.ns();
        t.1 += s.items;
        t.2 += 1;
    }
    t
}

/// Sum over the `layer` spans of (duration − the part covered by their
/// direct children).
pub fn self_ns(spans: &[Span], layer: &str) -> u64 {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.layer == layer)
        .map(|(i, s)| s.ns() - covered_ns(s.start_ns, s.end_ns, &mut kids[i]))
        .sum()
}

/// Writes the spans as one JSON document: a header naming the workload
/// and seed, then one object per span with the fields of [`Span`].
///
/// # Errors
///
/// Returns the I/O error message.
pub fn write_trace_file(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> Result<(), String> {
    let mut s = String::with_capacity(64 + spans.len() * 120);
    let _ = write!(s, "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"clock\": \"ns since run origin\", \"spans\": [");
    for (i, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "{}\n{{\"id\": {i}, \"layer\": \"{}\", \"name\": \"{}\", \"epoch\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"items\": {}}}",
            if i == 0 { "" } else { "," },
            sp.layer,
            sp.name,
            sp.epoch,
            sp.start_ns,
            sp.end_ns,
            sp.items
        );
    }
    s.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, s).map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { layer, name: "x", epoch: 0, parent: None, start_ns, end_ns, items: 1 }
    }

    #[test]
    fn union_counts_overlap_once() {
        let mut kids = vec![(10, 30), (20, 40), (60, 70)];
        assert_eq!(covered_ns(0, 100, &mut kids), 40);
        let mut clipped = vec![(0, 50)];
        assert_eq!(covered_ns(10, 20, &mut clipped), 10);
    }

    #[test]
    fn parents_resolve_by_containment_and_self_time_uses_the_union() {
        // serve [0,100) > packet_buffer [10,90) > fabric [20,80) >
        // two controller spans that overlap in time (worker threads).
        let mut spans = vec![
            span("controller", 30, 60),
            span("serve", 0, 100),
            span("fabric", 20, 80),
            span("controller", 40, 70),
            span("packet_buffer", 10, 90),
        ];
        resolve_parents(&mut spans);
        let by = |l: &str| -> Vec<usize> {
            spans.iter().enumerate().filter(|(_, s)| s.layer == l).map(|(i, _)| i).collect()
        };
        let (serve, pb, fab) = (by("serve")[0], by("packet_buffer")[0], by("fabric")[0]);
        assert_eq!(spans[serve].parent, None);
        assert_eq!(spans[pb].parent, Some(serve));
        assert_eq!(spans[fab].parent, Some(pb));
        for c in by("controller") {
            assert_eq!(spans[c].parent, Some(fab));
        }
        assert_eq!(self_ns(&spans, "fabric"), 60 - 40, "children cover [30,70) once");
        assert_eq!(self_ns(&spans, "packet_buffer"), 80 - 60);
        assert_eq!(self_ns(&spans, "controller"), 60);
        assert_eq!(total(&spans, "controller", None), (60, 2, 2));
    }
}
