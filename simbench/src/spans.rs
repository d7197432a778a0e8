//! In-memory spans recorded by the benchmark around its calls into each
//! workspace crate. Nothing inside the simulator is instrumented: a span
//! times one public call from outside, and a layer's self time is its
//! spans' duration minus the part covered by their child spans.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;
use vt_json::Json;

/// The crate (or the benchmark itself) a span's call lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Core,
    Sim,
    Par,
    Workloads,
    Analysis,
    Trace,
    Bench,
    Json,
    Harness,
}

impl Layer {
    /// All layers in table order.
    pub const ALL: [Layer; 9] = [
        Layer::Core,
        Layer::Sim,
        Layer::Par,
        Layer::Workloads,
        Layer::Analysis,
        Layer::Trace,
        Layer::Bench,
        Layer::Json,
        Layer::Harness,
    ];

    /// The crate name, as in the workspace manifest.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Core => "vt-core",
            Layer::Sim => "vt-sim",
            Layer::Par => "vt-par",
            Layer::Workloads => "vt-workloads",
            Layer::Analysis => "vt-analysis",
            Layer::Trace => "vt-trace",
            Layer::Bench => "vt-bench",
            Layer::Json => "vt-json",
            Layer::Harness => "harness",
        }
    }
}

/// Span id used for spans that belong to no cell (set-up, passes).
pub const NO_CELL: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Index of the cell this span ran for, or [`NO_CELL`].
    pub cell: u32,
    /// Recording thread: 0 for the main thread, 1 for a sweep worker.
    pub thread: u32,
    pub layer: Layer,
    pub name: &'static str,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

static NEXT_ID: AtomicU32 = AtomicU32::new(0);

/// Records spans when on; when off every method is a plain call-through.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u32,
    stack: Vec<u32>,
    /// Cell that spans opened from now on belong to.
    pub cell: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            thread: 0,
            stack: Vec::new(),
            cell: NO_CELL,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A tracer for work handed to another thread: its spans nest under
    /// this tracer's innermost open span and share its epoch and cell.
    pub fn fork(&self, cell: u32) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            thread: 1,
            stack: self.stack.last().copied().into_iter().collect(),
            cell,
            spans: Vec::new(),
        }
    }

    /// Takes over the spans a forked tracer recorded.
    pub fn join(&mut self, child: Tracer) {
        self.spans.extend(child.spans);
    }

    /// Runs `f` inside a span named `name` on `layer`.
    pub fn span<T>(
        &mut self,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = self.stack.last().copied();
        let start = self.epoch.elapsed().as_secs_f64();
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            id,
            parent,
            cell: self.cell,
            thread: self.thread,
            layer,
            name,
            start,
            end,
        });
        out
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (children on two sweep workers may overlap).
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, f64> {
    let mut children: BTreeMap<u32, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv = children.remove(&s.id).unwrap_or_default();
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in iv {
                let (a, b) = (a.max(s.start), b.min(s.end));
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, (s.dur() - covered).max(0.0))
        })
        .collect()
}

/// Every child span must lie inside its parent's interval. Returns one
/// message per violation.
pub fn check_nesting(spans: &[Span]) -> Vec<String> {
    let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    spans
        .iter()
        .filter_map(|s| {
            let p = by_id.get(&s.parent?)?;
            (s.start < p.start || s.end > p.end).then(|| {
                format!(
                    "span {} [{:.9}, {:.9}] escapes parent {} [{:.9}, {:.9}]",
                    s.name, s.start, s.end, p.name, p.start, p.end
                )
            })
        })
        .collect()
}

/// Spans as a Chrome/Perfetto trace (`ph: "X"` complete events).
pub fn to_chrome_json(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = vec![("id".to_string(), Json::UInt(u64::from(s.id)))];
            if let Some(p) = s.parent {
                args.push(("parent".into(), Json::UInt(u64::from(p))));
            }
            if s.cell != NO_CELL {
                args.push(("cell".into(), Json::UInt(u64::from(s.cell))));
            }
            Json::object(vec![
                ("name".into(), Json::Str(s.name.to_string())),
                ("cat".into(), Json::Str(s.layer.name().to_string())),
                ("ph".into(), Json::Str("X".into())),
                ("ts".into(), Json::Float(s.start * 1e6)),
                ("dur".into(), Json::Float(s.dur() * 1e6)),
                ("pid".into(), Json::UInt(1)),
                ("tid".into(), Json::UInt(u64::from(s.thread))),
                ("args".into(), Json::object(args)),
            ])
        })
        .collect();
    Json::object(vec![("traceEvents".into(), Json::Array(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            cell: NO_CELL,
            thread: 0,
            layer: Layer::Sim,
            name: "t",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let spans = [
            span(1, None, 0.0, 10.0),
            span(2, Some(1), 1.0, 4.0),
            span(3, Some(1), 3.0, 6.0), // overlaps span 2: union is [1, 6]
            span(4, Some(1), 8.0, 9.0),
        ];
        let st = self_times(&spans);
        assert!((st[&1] - 4.0).abs() < 1e-12);
        assert!((st[&2] - 3.0).abs() < 1e-12);
        assert!(check_nesting(&spans).is_empty());
    }

    #[test]
    fn nesting_check_flags_escaping_child() {
        let spans = [span(1, None, 0.0, 1.0), span(2, Some(1), 0.5, 1.5)];
        assert_eq!(check_nesting(&spans).len(), 1);
    }

    #[test]
    fn recorded_children_stay_inside_parents() {
        let mut t = Tracer::new(true);
        t.span(Layer::Core, "outer", |t| {
            t.span(Layer::Sim, "inner", |_| std::hint::black_box(1 + 1));
            let mut w = t.fork(0);
            w.span(Layer::Sim, "worker", |_| ());
            t.join(w);
        });
        assert_eq!(t.spans.len(), 3);
        assert!(check_nesting(&t.spans).is_empty());
        let outer = t.spans.iter().find(|s| s.name == "outer").unwrap();
        assert!(t
            .spans
            .iter()
            .filter(|s| s.name != "outer")
            .all(|s| s.parent == Some(outer.id)));
    }
}
