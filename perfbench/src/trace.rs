//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing is written until [`Tracer::write_jsonl`] runs at the end
//! of a traced run, so recording costs one `Instant` read and one push.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name (`exec`, `frontend`, `request`, ...).
    pub name: &'static str,
    /// The operation every span of one request or cell shares.
    pub op: u64,
    /// This span's own id.
    pub id: u64,
    /// The span that caused this one, `None` for an operation's root.
    pub parent: Option<u64>,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

/// A span recorder. When disabled every call is a no-op returning id 0,
/// so the untraced and traced runs execute the same code.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (the traced run alternates both, so its
    /// overhead is measured in the same process).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Nanoseconds since the epoch for an instant.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh id for an operation or a span.
    pub fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a finished span and returns its id (0 when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.fresh_id();
        self.record_with_id(id, name, op, parent, start, end);
        id
    }

    /// Records a finished span under an id taken earlier from
    /// [`Tracer::fresh_id`], so children can name a parent that closes
    /// after them.
    pub fn record_with_id(
        &mut self,
        id: u64,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            op,
            id,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(name, op, parent, t0, Instant::now());
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Mean self time in ms per span of each name: a span's duration
    /// minus the part of its interval its children cover.
    pub fn mean_self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut sums: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for s in &self.spans {
            let kids = children.get(&s.id).map_or(&[][..], |v| v.as_slice());
            let own = s.end_ns.saturating_sub(s.start_ns) - covered(s, kids);
            let e = sums.entry(s.name).or_default();
            e.0 += own as f64 / 1e6;
            e.1 += 1;
        }
        sums.into_iter()
            .map(|(k, (sum, n))| (k, sum / n as f64))
            .collect()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Nanoseconds of `span`'s interval covered by the union of `kids`
/// (clipped to the span).
fn covered(span: &Span, kids: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = kids
        .iter()
        .map(|&(a, b)| (a.max(span.start_ns), b.min(span.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let e = t.epoch;
        let at = |ms: u64| e + Duration::from_millis(ms);
        let op = t.fresh_id();
        let root = t.record("op", op, None, at(0), at(10));
        // Two overlapping children cover 2..6; one spills past the end.
        t.record("exec", op, Some(root), at(2), at(5));
        t.record("exec", op, Some(root), at(4), at(6));
        t.record("validate", op, Some(root), at(9), at(12));
        let own = t.mean_self_ms();
        assert!((own["op"] - 5.0).abs() < 1e-9, "{own:?}");
        assert!((own["exec"] - 2.5).abs() < 1e-9);
        assert!((own["validate"] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("exec", 1, None, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
