//! Per-layer self time from recorded spans.
//!
//! The traced run wraps each operation the benchmark issues in a span of
//! its own (`bench.op`) and turns on the program's tracing, so one
//! operation becomes one span tree: the benchmark's span, the object's
//! `invoke`, the kernel's `door_call`, the network's `net.*` spans, and the
//! subcontracts' own. A span's self time is its duration minus the part of
//! it that its children cover; each span key belongs to one layer, and a
//! layer's self time in a tree is the sum over its spans.

use spring_trace::{Event, SpanNode};

use crate::metrics::LatHist;

/// Layers, in call order from the benchmark inward.
pub const LAYERS: [&str; 5] = ["idl", "core", "subcontracts", "kernel", "net"];

/// Key of the span the benchmark opens around each operation.
pub const OP_SPAN: &str = "bench.op";

/// The layer a span key belongs to. `root_layer` names the layer whose
/// entry point the benchmark's own span wraps.
pub fn layer_of(key: &str, root_layer: usize) -> usize {
    match key {
        OP_SPAN => root_layer,
        "invoke" | "marshal" | "unmarshal" | "ship" | "copy" | "consume" => 1,
        "door_call" => 3,
        k if k.starts_with("net.") => 4,
        _ => 2,
    }
}

/// Duration of `node` not covered by its children (clipped to the span and
/// with overlapping children counted once).
pub fn self_ns(node: &SpanNode) -> u64 {
    let start = node.event.start_ns;
    let end = start + node.event.dur_ns;
    let mut kids: Vec<(u64, u64)> = node
        .children
        .iter()
        .map(|c| {
            let s = c.event.start_ns.clamp(start, end);
            (s, (c.event.start_ns + c.event.dur_ns).clamp(s, end))
        })
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in kids {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    node.event.dur_ns - covered
}

/// Self time per layer, accumulated over span trees.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// Per layer, one sample per tree in which the layer has a span.
    pub per_tree: [Vec<u64>; LAYERS.len()],
    /// Per layer, total self time over every tree.
    pub total_ns: [u64; LAYERS.len()],
    /// Trees rooted at the benchmark's own span, and their total duration.
    pub ops: u64,
    pub op_total_ns: u64,
}

impl LayerTimes {
    /// Folds in a batch of recorded events. With `ops_only`, trees not
    /// rooted at the benchmark's own span (fragments whose root a ring
    /// overwrote) are skipped.
    pub fn add(&mut self, events: Vec<Event>, root_layer: usize, ops_only: bool) {
        for (_, roots) in spring_trace::export::forest_of(events) {
            for root in roots {
                if ops_only && root.event.key != OP_SPAN {
                    continue;
                }
                if root.event.key == OP_SPAN {
                    self.ops += 1;
                    self.op_total_ns += root.event.dur_ns;
                }
                let mut tree = [None::<u64>; LAYERS.len()];
                walk(&root, root_layer, &mut tree);
                for (layer, t) in tree.iter().enumerate() {
                    if let Some(ns) = t {
                        self.per_tree[layer].push(*ns);
                        self.total_ns[layer] += ns;
                    }
                }
            }
        }
    }
}

/// Runs `op` with tracing on for `seconds`, draining the span rings every
/// 100 operations so none wraps. `op` opens the benchmark's span around
/// its entry point and returns the operation's latency in ns. Returns the
/// layer times and the latencies.
pub fn run(seconds: f64, root_layer: usize, mut op: impl FnMut() -> u64) -> (LayerTimes, LatHist) {
    let mut lt = LayerTimes::default();
    let mut latency = LatHist::default();
    spring_trace::ring::clear();
    let end = spring_trace::now_ns() + (seconds * 1e9) as u64;
    while spring_trace::now_ns() < end {
        spring_trace::set_enabled(true);
        for _ in 0..100 {
            latency.record(op());
        }
        spring_trace::set_enabled(false);
        lt.add(spring_trace::ring::events(), root_layer, true);
        spring_trace::ring::clear();
    }
    (lt, latency)
}

fn walk(node: &SpanNode, root_layer: usize, acc: &mut [Option<u64>; LAYERS.len()]) {
    let layer = layer_of(node.event.key, root_layer);
    *acc[layer].get_or_insert(0) += self_ns(node);
    for c in &node.children {
        walk(c, root_layer, acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(span: u64, parent: u64, key: &'static str, start: u64, dur: u64) -> Event {
        Event {
            trace: 1,
            span,
            parent,
            scope: 1,
            scid: 0,
            key,
            start_ns: start,
            dur_ns: dur,
            failed: false,
        }
    }

    #[test]
    fn self_time_per_layer() {
        // bench.op [0,100) > invoke [10,90) > door_call [20,80) >
        // net.forward [30,70) > net.batch [50,65).
        let events = vec![
            ev(1, 0, OP_SPAN, 0, 100),
            ev(2, 1, "invoke", 10, 80),
            ev(3, 2, "door_call", 20, 60),
            ev(4, 3, "net.forward", 30, 40),
            ev(5, 4, "net.batch", 50, 15),
        ];
        let mut lt = LayerTimes::default();
        lt.add(events, 0, true);
        assert_eq!(lt.ops, 1);
        assert_eq!(lt.op_total_ns, 100);
        assert_eq!(lt.total_ns, [20, 20, 0, 20, 40]);
        assert!(lt.per_tree[2].is_empty());
        assert_eq!(lt.per_tree[4], vec![40]);
        // Self times add up to the operation's duration.
        assert_eq!(lt.total_ns.iter().sum::<u64>(), lt.op_total_ns);
    }

    #[test]
    fn overlapping_children_count_once_and_clip() {
        // door_call [20,80) with children [30,70) and [60,90): covered
        // [30,80) once, clipped at the parent's end.
        let events = vec![
            ev(1, 0, OP_SPAN, 20, 60),
            ev(2, 1, "net.forward", 30, 40),
            ev(3, 1, "net.batch", 60, 30),
        ];
        let forest = spring_trace::export::forest_of(events);
        assert_eq!(self_ns(&forest[0].1[0]), 10);
        // A fragment whose root was overwritten is skipped with ops_only.
        let mut lt = LayerTimes::default();
        lt.add(vec![ev(9, 8, "invoke", 0, 5)], 0, true);
        assert_eq!(lt.per_tree[1].len(), 0);
        lt.add(vec![ev(9, 8, "invoke", 0, 5)], 0, false);
        assert_eq!(lt.per_tree[1], vec![5]);
    }

    #[test]
    fn keys_map_to_layers() {
        assert_eq!(layer_of(OP_SPAN, 2), 2);
        assert_eq!(layer_of("invoke", 0), 1);
        assert_eq!(layer_of("caching.hit", 0), 2);
        assert_eq!(layer_of("door_call", 0), 3);
        assert_eq!(layer_of("net.hop", 0), 4);
    }
}
