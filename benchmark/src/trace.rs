//! In-memory spans around the calls into each layer.
//!
//! The probe records one span per call (name, start, end, parent, round)
//! while it runs and writes them out when it is done; nothing is written
//! or formatted on the timed path. A layer's cost is its spans' *self*
//! time: the span minus the part of it its children cover.

use netscatter::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer and function, e.g. `receiver.decode_round`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The round (packet index) the call worked on, when it had one: the
    /// identifier the spans of one frame share.
    pub round: Option<usize>,
}

/// Collects spans. Switched off it records nothing and reads no clock, so
/// the same pass measures the tracing overhead.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// The clock reading a span starts with (0 when switched off).
    pub fn begin(&self) -> u64 {
        if self.enabled {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Closes the span opened at `start_ns` and returns its index. The
    /// name is given here because some calls are only classified by what
    /// they turned out to do (gate or sync).
    pub fn end(
        &mut self,
        name: &'static str,
        start_ns: u64,
        parent: Option<usize>,
        round: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            round,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span whose children need its index before it ends.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        let start = self.begin();
        let id = self.end(name, start, None, None)?;
        self.spans[id].end_ns = start;
        Some(id)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Everything recorded.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Calls and self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCost {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Their summed self time in nanoseconds.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the span (so children that
/// overlap each other, or stick out, are not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Self time and call count per span name.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerCost> {
    let mut layers: BTreeMap<&'static str, LayerCost> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let cost = layers.entry(s.name).or_default();
        cost.calls += 1;
        cost.self_ns += self_ns;
    }
    layers
}

/// The trace file: one object per span, in recording order, so `parent`
/// indexes the same array.
pub fn to_json(spans: &[Span]) -> Json {
    let opt = |v: Option<usize>| v.map_or(Json::Null, |v| Json::Num(v as f64));
    Json::Array(
        spans
            .iter()
            .map(|s| {
                Json::object(vec![
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", opt(s.parent)),
                    ("round", opt(s.round)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("a.inner", 20, 30, Some(1)),
            span("b", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        let layers = by_layer(&spans);
        assert_eq!(
            layers["a"],
            LayerCost {
                calls: 1,
                self_ns: 40
            }
        );
        // Self times partition the root exactly.
        assert_eq!(layers.values().map(|c| c.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_subtracted_twice() {
        let spans = [
            span("root", 0, 100, None),
            span("x", 10, 50, Some(0)),
            span("y", 40, 70, Some(0)),  // overlaps x on 40..50
            span("z", 90, 130, Some(0)), // sticks out past the root
            span("w", 45, 48, Some(0)),  // wholly inside x and y
        ];
        // Children cover 10..70 and 90..100 of the root.
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn a_tracer_switched_off_records_nothing() {
        let mut off = Tracer::new(false);
        let root = off.open("root");
        let t = off.begin();
        assert_eq!(off.end("x", t, root, None), None);
        off.close(root);
        assert!(off.into_spans().is_empty());

        let mut on = Tracer::new(true);
        let root = on.open("root");
        let t = on.begin();
        let x = on.end("x", t, root, Some(7));
        on.close(root);
        assert_eq!((root, x), (Some(0), Some(1)));
        let spans = on.into_spans();
        assert_eq!(spans[1].round, Some(7));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
