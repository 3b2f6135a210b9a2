//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! runs one workload against the workspace's public entry points, checks
//! every result, and prints each metric by name with its unit, then one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with tracing
//! off; with `--trace 1` they are the per-layer ones, from a run that
//! measures the same workload untraced, traced, and as a ladder of entry
//! points at successive depths. The exit code is nonzero when a check
//! fails or the system cannot be set up.
//!
//! `perfbench serve --uds PATH` is the serving process the socket
//! workloads spawn; it exits when its standard input closes.

mod cache;
mod metrics;
mod procstat;
mod pubsub;
mod traced;
mod uds;

use metrics::{result_json, LatHist, LatencyLog, MetricSet};

/// One workload: its shape, why it is in the benchmark, and the function
/// that runs it. Every workload is a closed loop: each load thread issues
/// its next operation when the previous one returns.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub load_threads: u32,
    pub connections: u32,
    pub run: fn(&Args) -> Result<Outcome, String>,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "uds_rpc",
        why: "Closed loop, 1 thread, 1 UDS connection to a serving process, both on one CPU: the \
              per-message floor of socket send, read, dispatch and reply wakeup; stubs are ~2% of it",
        load_threads: 1,
        connections: 1,
        run: uds::rpc,
    },
    Workload {
        name: "uds_mixed",
        why: "Closed loop, 2 threads on 2 UDS connections to a serving process, all on one CPU, 1 in \
              10 calls echoes 16 KiB: concurrent senders, large frames, writev coalescing, dispatch pool",
        load_threads: 2,
        connections: 2,
        run: uds::mixed,
    },
    Workload {
        name: "sim_cache_rw",
        why: "Closed loop, 2 threads on 2 sim client machines with coherent caching proxies: 95% \
              1 KiB reads stay local, 5% 8 B writes cross the net and fan out invalidations",
        load_threads: 2,
        connections: 0,
        run: cache::run,
    },
    Workload {
        name: "sim_pubsub_fanout",
        why: "Closed loop, 1 thread, 8 publishes in flight, 64 B to 2000 subscribers on 4 sim \
              links (2 best-effort, 2 monitored): pub/sub fan-out, per-link coalescing, callbacks",
        load_threads: 1,
        connections: 0,
        run: pubsub::run,
    },
];

/// End-to-end metrics, printed by every `--trace 0` run: name, unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("ops_per_s", "1/s"),
    ("success_frac", "ratio"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// A per-layer metric: name, unit, and the end-to-end metric and workload
/// it is expected to move. A workload that does not exercise the layer
/// reports 0.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
}

macro_rules! per_layer {
    ($( $name:literal, $unit:literal, $moves:literal; )+) => {
        &[$( PerLayer { name: $name, unit: $unit, moves: $moves }, )+]
    };
}

pub const PER_LAYER: &[PerLayer] = per_layer! {
    "idl.stub_self_us", "us", "p50_us on sim_cache_rw; no change predicted on uds_rpc";
    "core.invoke_self_us", "us", "p50_us on sim_cache_rw";
    "net.socket.roundtrip_us", "us", "p50_us on uds_rpc";
    "proc.server.handler_us", "us", "splits peer work from wire and OS time on uds_rpc";
    "net.socket.frames_per_op", "frames/op", "cpu_us_per_op on uds_*";
    "net.socket.bytes_per_op", "B/op", "cpu_us_per_op on uds_*";
    "kernel.fastpath_share", "ratio", "p50_us on uds_mixed";
    "kernel.writev_frames_per_wakeup", "frames", "p99_us on uds_mixed";
    "kernel.dispatch_pool_spawned.client", "count", "p99_us on uds_mixed";
    "kernel.dispatch_pool_spawned.server", "count", "p99_us on uds_mixed";
    "kernel.bytes_copied_per_op", "B/op", "cpu_us_per_op and p50_us on uds_mixed";
    "kernel.pool_hit_rate", "ratio", "ops_per_s on sim_cache_rw";
    "kernel.lock_waits_per_kop", "count", "ops_per_s on sim_cache_rw";
    "kernel.door_calls_per_op", "count", "ops_per_s on sim_cache_rw";
    "proc.client.cpu_us_per_op", "us", "cpu_us_per_op on all workloads";
    "proc.server.cpu_us_per_op", "us", "cpu_us_per_op on uds_*";
    "proc.client.ctx_switches_per_op", "count", "p50_us on uds_rpc";
    "proc.server.ctx_switches_per_op", "count", "p50_us on uds_rpc";
    "subcontracts.caching.hit_ratio", "ratio", "p50_us and p99_us on sim_cache_rw";
    "subcontracts.caching.read_us", "us", "p50_us and p99_us on sim_cache_rw";
    "subcontracts.caching.write_us", "us", "p50_us and p99_us on sim_cache_rw";
    "subcontracts.caching.invalidations_per_write", "count", "p99_us on sim_cache_rw";
    "net.messages_per_op", "count", "cpu_us_per_op on sim_*";
    "net.bytes_per_op", "B/op", "cpu_us_per_op on sim_*";
    "subcontracts.pubsub.publish_us", "us", "p50_us and ops_per_s on sim_pubsub_fanout";
    "subcontracts.pubsub.frames_per_publish_per_link", "frames", "cpu_us_per_op on sim_pubsub_fanout";
    "subcontracts.pubsub.oneway_share", "ratio", "cpu_us_per_op on sim_pubsub_fanout";
    "subcontracts.pubsub.frames_dropped", "count", "success_frac on sim_pubsub_fanout";
    "subcontracts.pubsub.evictions", "count", "success_frac on sim_pubsub_fanout";
    "net.batch.calls_batched_share", "ratio", "p99_us on sim_pubsub_fanout";
    "trace.overhead_pct", "%", "cost of tracing, traced vs untraced median op latency";
    "trace.unattributed_share", "ratio", "time in no layer's code: wire, OS, peer dispatch on uds_rpc";
    "trace.layer_sum_us", "us", "mean per op of the layer self times, against trace.e2e_untraced_us";
    "trace.e2e_untraced_us", "us", "mean op latency of the untraced phase of the traced run";
    "trace.idl.self_p50_us", "us", "p50_us where stubs run";
    "trace.idl.self_p99_us", "us", "p99_us where stubs run";
    "trace.core.self_p50_us", "us", "p50_us on sim_cache_rw";
    "trace.core.self_p99_us", "us", "p99_us on sim_cache_rw";
    "trace.subcontracts.self_p50_us", "us", "p50_us on sim_*";
    "trace.subcontracts.self_p99_us", "us", "p99_us on sim_*";
    "trace.kernel.self_p50_us", "us", "p50_us on all workloads";
    "trace.kernel.self_p99_us", "us", "p99_us on all workloads";
    "trace.net.self_p50_us", "us", "p50_us on uds_* and sim_pubsub_fanout";
    "trace.net.self_p99_us", "us", "p99_us on uds_* and sim_pubsub_fanout";
};

/// Parsed command line of a measuring run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub metrics: MetricSet,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// A timed run builds the system under test this many times and measures
/// an equal share of the run on each build. Each end-to-end figure is the
/// median over the builds of that build's figure, so a build that lands in
/// an unusual state (thread placement, a serving process's warm-up) or
/// meets a stretch of stolen CPU on a shared host moves one sample, not the
/// result; set-up time is likewise the median over the builds.
pub const SETUPS: usize = 25;

/// Latency windows for the windowed 99th percentile.
pub const WINDOW_NS: u64 = 100_000_000;

/// The end-to-end measurements of one timed phase.
pub struct EndToEnd {
    pub log: LatencyLog,
    pub elapsed_ns: u64,
    /// Operations that completed successfully.
    pub completed: u64,
    pub attempted: u64,
    /// CPU time of every process of the workload during the phase.
    pub cpu_us: f64,
    /// Sum of the processes' peak resident sets.
    pub hwm_kb: u64,
}

impl EndToEnd {
    /// An empty phase whose latency windows start at `start_ns`.
    pub fn starting(start_ns: u64) -> EndToEnd {
        EndToEnd {
            log: LatencyLog::new(start_ns, WINDOW_NS),
            elapsed_ns: 0,
            completed: 0,
            attempted: 0,
            cpu_us: 0.0,
            hwm_kb: 0,
        }
    }
}

/// A whole timed run: one sample per phase of each per-phase figure, and
/// the counts summed over the phases.
#[derive(Default)]
struct RunTotals {
    p50_ns: Vec<f64>,
    p99_ns: Vec<f64>,
    ops_per_s: Vec<f64>,
    cpu_us_per_op: Vec<f64>,
    completed: u64,
    attempted: u64,
    hwm_kb: u64,
    setup_s: Vec<f64>,
}

impl RunTotals {
    fn absorb(&mut self, phase: EndToEnd) {
        self.p50_ns.push(phase.log.total.percentile_ns(0.5));
        self.p99_ns
            .push(metrics::median_f64(&phase.log.window_p99s()));
        self.ops_per_s.push(metrics::ratio(
            phase.completed as f64 * 1e9,
            phase.elapsed_ns as f64,
        ));
        self.cpu_us_per_op
            .push(metrics::ratio(phase.cpu_us, phase.completed as f64));
        self.completed += phase.completed;
        self.attempted += phase.attempted;
        self.hwm_kb = self.hwm_kb.max(phase.hwm_kb);
    }

    fn put(&self, out: &mut Outcome) {
        let m = &mut out.metrics;
        m.put("p50_us", "us", metrics::median_f64(&self.p50_ns) / 1e3);
        m.put("p99_us", "us", metrics::median_f64(&self.p99_ns) / 1e3);
        m.put("ops_per_s", "1/s", metrics::median_f64(&self.ops_per_s));
        m.put(
            "success_frac",
            "ratio",
            metrics::ratio(self.completed as f64, self.attempted as f64),
        );
        m.put(
            "cpu_us_per_op",
            "us",
            metrics::median_f64(&self.cpu_us_per_op),
        );
        m.put("peak_rss_mb", "MB", self.hwm_kb as f64 / 1024.0);
        m.put("setup_s", "s", metrics::median_f64(&self.setup_s));
        out.attempted = self.attempted;
        out.failed = self.attempted - self.completed;
    }
}

/// The timed (`--trace 0`) run shared by every workload: `SETUPS` times,
/// build the system (timed), measure it for an equal share of `seconds`,
/// check it and tear it down; then report the end-to-end metrics.
pub fn timed_run<R>(
    seconds: f64,
    mut build: impl FnMut(usize, &mut Outcome) -> Result<R, String>,
    mut measure: impl FnMut(&mut R, usize, f64, &mut Outcome) -> Result<EndToEnd, String>,
    mut finish: impl FnMut(R, &mut Outcome) -> Result<(), String>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut run = RunTotals::default();
    for i in 0..SETUPS {
        let t0 = std::time::Instant::now();
        let mut rig = build(i, &mut out)?;
        run.setup_s.push(t0.elapsed().as_secs_f64());
        let phase = measure(&mut rig, i, seconds / SETUPS as f64, &mut out)?;
        run.absorb(phase);
        finish(rig, &mut out)?;
    }
    run.put(&mut out);
    Ok(out)
}

/// Reports the traced-run figures shared by every workload: per-layer self
/// time percentiles, the layer sum against the untraced mean (both means,
/// so they add up), and the tracing overhead as the change in median op
/// latency (a median, so a few stalled operations do not swing it).
pub fn put_trace_layers(
    out: &mut Outcome,
    lt: &mut traced::LayerTimes,
    untraced: &LatHist,
    traced: &LatHist,
) {
    let m = &mut out.metrics;
    for (i, layer) in traced::LAYERS.iter().enumerate() {
        let v = &mut lt.per_tree[i];
        m.put(
            format!("trace.{layer}.self_p50_us"),
            "us",
            metrics::percentile(v, 0.50) as f64 / 1e3,
        );
        m.put(
            format!("trace.{layer}.self_p99_us"),
            "us",
            metrics::percentile(v, 0.99) as f64 / 1e3,
        );
    }
    let sum: u64 = lt.total_ns.iter().sum();
    m.put(
        "trace.layer_sum_us",
        "us",
        metrics::ratio(sum as f64, lt.ops as f64) / 1e3,
    );
    m.put("trace.e2e_untraced_us", "us", untraced.mean_ns() / 1e3);
    let (before, after) = (untraced.percentile_ns(0.5), traced.percentile_ns(0.5));
    m.put(
        "trace.overhead_pct",
        "%",
        metrics::ratio(after - before, before) * 100.0,
    );
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n       \
         perfbench serve --uds PATH\nworkloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let flag = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let workload = flag("--workload").unwrap_or_else(|| usage());
    let seed = flag("--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage());
    let seconds: f64 = flag("--seconds")
        .and_then(|v| v.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or_else(|| usage());
    let trace = match flag("--trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => usage(),
    };
    Args {
        workload,
        seed,
        seconds,
        trace,
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("serve") {
        uds::serve(&argv);
    }
    let args = parse_args(&argv);
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        usage()
    };
    let outcome = match (workload.run)(&args) {
        Ok(o) => o,
        Err(invalid) => {
            eprintln!("perfbench: {}: run invalid: {invalid}", workload.name);
            std::process::exit(3);
        }
    };

    // Print exactly the metric set this mode promises, in its order.
    let mut metrics = MetricSet::default();
    if args.trace {
        for pl in PER_LAYER {
            metrics.put(
                pl.name,
                pl.unit,
                outcome.metrics.get(pl.name).unwrap_or(0.0),
            );
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = outcome
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("{} did not measure {name}", workload.name));
            metrics.put(name, unit, value);
        }
    }
    for m in outcome.metrics.iter() {
        assert!(
            metrics.get(&m.name).is_some(),
            "{} reported {} outside this mode's metric list",
            workload.name,
            m.name
        );
    }
    for m in metrics.iter() {
        println!("{:<48} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for e in &outcome.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = outcome.errors.is_empty();
    println!(
        "{}",
        result_json(correct, outcome.attempted.max(1), outcome.failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's declared metric lists, as the repository-root
    /// `BENCHMARK.json` holds them.
    const DECLARED: &str = include_str!("../../BENCHMARK.json");

    /// The values of `key` in one section's entries (values hold no quotes).
    fn declared(section: &str, key: &str) -> Vec<String> {
        let start = DECLARED.find(&format!("\"{section}\"")).expect("section");
        let body = &DECLARED[start..];
        let body = &body[..body.find(']').expect("section end")];
        body.split(&format!("\"{key}\""))
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("value").to_owned())
            .collect()
    }

    fn declared_names(section: &str) -> Vec<String> {
        declared(section, "name")
    }

    #[test]
    fn declared_metrics_match_the_code() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared_names("end_to_end"), e2e);
        let per_layer: Vec<String> = PER_LAYER.iter().map(|p| p.name.to_owned()).collect();
        assert_eq!(declared_names("per_layer"), per_layer);
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_owned()).collect();
        assert_eq!(declared_names("workloads"), workloads);
        let whys: Vec<String> = WORKLOADS.iter().map(|w| w.why.to_owned()).collect();
        assert_eq!(declared("workloads", "why"), whys);
    }

    #[test]
    fn metric_names_and_units_obey_the_rule() {
        for (name, unit) in END_TO_END {
            assert!(
                metrics::valid_name(name) && metrics::valid_unit(unit),
                "{name}"
            );
        }
        for p in PER_LAYER {
            assert!(
                metrics::valid_name(p.name) && metrics::valid_unit(p.unit),
                "{}",
                p.name
            );
            assert!(!p.moves.is_empty());
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(w.load_threads <= 2 && w.connections <= 2, "{}", w.name);
        }
    }
}
