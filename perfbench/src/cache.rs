//! `sim_cache_rw`: coherent caching on the in-process simulated network.
//!
//! One file-server machine exports a 4 KiB file as a coherent
//! `cacheable_file`; two client machines each attach a caching proxy to it
//! through their own cache manager. Two load threads, one per client
//! machine, run a closed loop of 95 % 1 KiB reads and 5 % 8 B writes. Each
//! thread owns one half of the file, so it can check every read exactly
//! against its own model of that half, and the read after each write
//! covers the bytes just written. Writes on either machine still
//! invalidate both caches, which is the fan-out the workload measures.
//! Reads start at one of five 256-byte-aligned offsets, so they repeat
//! between invalidations and the caches answer some of them.

use std::sync::Arc;
use std::time::Duration;

use spring_bench::fixtures::ctx_on;
use spring_kernel::StatsSnapshot;
use spring_net::{NetConfig, NetStatsSnapshot, Network, Node};
use spring_services::fs::{self, CacheableFile};
use spring_services::{file_cache_manager, register_fs_types, FileServer};
use spring_subcontracts::CacheManager;
use spring_trace::now_ns;
use subcontract::{
    decode_reply_status, ship_object_copy, DomainCtx, ReplyStatus, Resolver, SpringError,
    SpringObj, TypeInfo,
};

use crate::metrics::{self, ratio, LatHist, LatencyLog, Rng};
use crate::procstat::{self, ProcSample};
use crate::traced::{self, LayerTimes};
use crate::{put_trace_layers, timed_run, Args, EndToEnd, Outcome};

const FILE_SIZE: usize = 4096;
const HALF: usize = FILE_SIZE / 2;
const READ_LEN: usize = 1024;
const WRITE_LEN: usize = 8;
/// Reads start on this grid; the memo caches each distinct read.
const READ_ALIGN: usize = 256;
/// Percentage of operations that are writes.
const WRITE_PCT: u64 = 5;
/// How long a cache may serve without revalidating its epoch.
const LEASE: Duration = Duration::from_millis(10);

/// Hands out copies of the machine's cache manager under `cache_manager`.
struct ManagerResolver {
    net: Arc<Network>,
    manager: SpringObj,
    ctx: Arc<DomainCtx>,
}

impl Resolver for ManagerResolver {
    fn resolve(&self, name: &str, expected: &'static TypeInfo) -> subcontract::Result<SpringObj> {
        if name == "cache_manager" {
            ship_object_copy(&*self.net, &self.manager, &self.ctx, expected)
        } else {
            Err(SpringError::ResolveFailed(name.to_owned()))
        }
    }
}

struct Machine {
    ctx: Arc<DomainCtx>,
    manager: Arc<CacheManager>,
    file: CacheableFile,
}

struct Rig {
    net: Arc<Network>,
    nodes: Vec<Node>,
    machines: Vec<Machine>,
    /// Each thread's model of its half of the file.
    models: Vec<Vec<u8>>,
    base_ids: Vec<u64>,
}

fn live_ids(node: &Node) -> u64 {
    let s = node.kernel().stats();
    s.ids_issued - s.ids_deleted
}

impl Rig {
    fn build(seed: u64, out: &mut Outcome) -> Result<Rig, String> {
        fn err(what: &'static str) -> impl Fn(SpringError) -> String {
            move |e| format!("{what}: {e}")
        }
        let net = Network::new(NetConfig::default());
        let server_node = net.add_node("fileserver");
        let server_ctx = ctx_on(server_node.kernel(), "fileserver");
        let mut rng = Rng::new(seed, 20);
        let content: Vec<u8> = (0..FILE_SIZE).map(|_| rng.next_u64() as u8).collect();
        let fileserver = FileServer::new(&server_ctx, "cache_manager");
        fileserver.put("data", &content);
        let (obj, _coherence) = fileserver
            .export_coherent("data", LEASE)
            .map_err(err("export_coherent"))?;
        let mut nodes = vec![server_node];
        let mut machines = Vec::new();
        for i in 0..2 {
            let node = net.add_node(format!("client-{i}"));
            let ctx = ctx_on(node.kernel(), "client");
            register_fs_types(&ctx);
            let mgr_ctx = ctx_on(node.kernel(), "manager");
            let manager = file_cache_manager(&mgr_ctx);
            ctx.set_resolver(Arc::new(ManagerResolver {
                net: net.clone(),
                manager: manager.export().map_err(err("export manager"))?,
                ctx: ctx.clone(),
            }));
            let file = ship_object_copy(&*net, &obj, &ctx, &fs::CACHEABLE_FILE_TYPE)
                .and_then(CacheableFile::from_obj)
                .map_err(err("attach"))?;
            nodes.push(node);
            machines.push(Machine { ctx, manager, file });
        }
        drop(obj);
        let models = (0..2)
            .map(|i| content[i * HALF..(i + 1) * HALF].to_vec())
            .collect();
        let mut rig = Rig {
            net,
            nodes,
            machines,
            models,
            base_ids: Vec::new(),
        };
        // Warm-up: every machine has read and written through its cache.
        for i in 0..2 {
            let mut rng = Rng::new(seed, 30 + i as u64);
            let mut model = std::mem::take(&mut rig.models[i]);
            let mut pending = None;
            for _ in 0..500 {
                let _ = one_op(
                    &rig.machines[i].file,
                    i,
                    &mut model,
                    &mut rng,
                    &mut pending,
                    out,
                );
            }
            rig.models[i] = model;
        }
        rig.base_ids = rig.nodes.iter().map(live_ids).collect();
        Ok(rig)
    }

    fn finish(self, out: &mut Outcome) {
        for (node, base) in self.nodes.iter().zip(&self.base_ids) {
            let now = live_ids(node);
            out.check(now == *base, || {
                format!(
                    "door leak on {}: {now} live ids vs {base}",
                    node.kernel().name()
                )
            });
        }
    }
}

/// One operation on thread `t`'s half. Returns `(is_write, latency)` when
/// it succeeded; checks every read against the model.
fn one_op(
    file: &CacheableFile,
    t: usize,
    model: &mut [u8],
    rng: &mut Rng,
    pending_write: &mut Option<usize>,
    out: &mut Outcome,
) -> Option<(bool, u64)> {
    let base = t * HALF;
    if pending_write.is_none() && rng.below(100) < WRITE_PCT {
        let off = rng.below((HALF / WRITE_LEN) as u64) as usize * WRITE_LEN;
        let data = rng.next_u64().to_le_bytes();
        let t0 = now_ns();
        let r = file.write((base + off) as i64, &data);
        let ns = now_ns() - t0;
        r.ok()?;
        model[off..off + WRITE_LEN].copy_from_slice(&data);
        *pending_write = Some(off);
        return Some((true, ns));
    }
    // The read after a write covers the written bytes.
    let off = match pending_write.take() {
        Some(w) => (w / READ_ALIGN * READ_ALIGN).min(HALF - READ_LEN),
        None => rng.below(((HALF - READ_LEN) / READ_ALIGN + 1) as u64) as usize * READ_ALIGN,
    };
    let t0 = now_ns();
    let r = file.read((base + off) as i64, READ_LEN as i64);
    let ns = now_ns() - t0;
    let bytes = r.ok()?;
    out.check(bytes == model[off..off + READ_LEN], || {
        format!("thread {t}: read at {off} returned stale or wrong bytes")
    });
    Some((false, ns))
}

/// Per-thread record of a closed-loop phase.
struct Log {
    log: LatencyLog,
    reads: LatHist,
    writes: LatHist,
    attempted: u64,
    completed: u64,
    errors: Vec<String>,
}

fn run_thread(
    file: &CacheableFile,
    t: usize,
    model: &mut [u8],
    seed: u64,
    start_ns: u64,
    end_ns: u64,
) -> Log {
    let mut rng = Rng::new(seed, 40 + t as u64);
    let mut log = Log {
        log: LatencyLog::new(start_ns, crate::WINDOW_NS),
        reads: LatHist::default(),
        writes: LatHist::default(),
        attempted: 0,
        completed: 0,
        errors: Vec::new(),
    };
    let mut out = Outcome::default();
    let mut pending = None;
    while now_ns() < end_ns {
        log.attempted += 1;
        if let Some((write, ns)) = one_op(file, t, model, &mut rng, &mut pending, &mut out) {
            log.completed += 1;
            log.log.record(now_ns(), ns);
            if write {
                &mut log.writes
            } else {
                &mut log.reads
            }
            .record(ns);
        }
    }
    log.errors = out.errors;
    log
}

struct Counters {
    proc: ProcSample,
    kernels: Vec<StatsSnapshot>,
    net: NetStatsSnapshot,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

fn counters(rig: &Rig) -> Counters {
    let stats = |f: fn(&spring_subcontracts::CacheStats) -> u64| {
        rig.machines.iter().map(|m| f(m.manager.stats())).sum()
    };
    Counters {
        proc: procstat::sample_self(),
        kernels: rig.nodes.iter().map(|n| n.kernel().stats()).collect(),
        net: rig.net.stats(),
        hits: stats(|s| s.hits()),
        misses: stats(|s| s.misses()),
        invalidations: stats(|s| s.invalidations()),
    }
}

/// Both threads in a closed loop for `seconds`.
fn phase(
    rig: &mut Rig,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> (EndToEnd, LatHist, LatHist) {
    let start = now_ns();
    let end = start + (seconds * 1e9) as u64;
    let mut models = std::mem::take(&mut rig.models);
    let logs: Vec<Log> = std::thread::scope(|s| {
        let handles: Vec<_> = models
            .iter_mut()
            .enumerate()
            .map(|(t, model)| {
                let file = &rig.machines[t].file;
                s.spawn(move || run_thread(file, t, model, seed, start, end))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("cache load thread"))
            .collect()
    });
    rig.models = models;
    let mut e = EndToEnd::starting(start);
    e.elapsed_ns = now_ns() - start;
    let (mut reads, mut writes) = (LatHist::default(), LatHist::default());
    for mut log in logs {
        e.log.merge(&log.log);
        reads.merge(&log.reads);
        writes.merge(&log.writes);
        e.attempted += log.attempted;
        e.completed += log.completed;
        out.errors.append(&mut log.errors);
    }
    (e, reads, writes)
}

fn put_counters(out: &mut Outcome, a: &Counters, b: &Counters, ops: u64, writes: u64) {
    let ops = ops as f64;
    let (mut door_calls, mut copied, mut waits) = (0, 0, 0);
    for (x, y) in a.kernels.iter().zip(&b.kernels) {
        let d = y.since(x);
        door_calls += d.door_calls;
        copied += d.bytes_copied;
        waits += d.table_lock_waits + d.shard_lock_waits;
    }
    // Pool counters are process-wide: every kernel reports the same ones.
    let k = b.kernels[0].since(&a.kernels[0]);
    let n = b.net.since(&a.net);
    let p = b.proc.since(&a.proc);
    let (hits, misses) = (b.hits - a.hits, b.misses - a.misses);
    let m = &mut out.metrics;
    m.put(
        "kernel.door_calls_per_op",
        "count",
        ratio(door_calls as f64, ops),
    );
    m.put(
        "kernel.bytes_copied_per_op",
        "B/op",
        ratio(copied as f64, ops),
    );
    m.put(
        "kernel.lock_waits_per_kop",
        "count",
        ratio(waits as f64 * 1e3, ops),
    );
    m.put(
        "kernel.pool_hit_rate",
        "ratio",
        ratio(k.pool_hits as f64, (k.pool_hits + k.pool_misses) as f64),
    );
    m.put(
        "net.messages_per_op",
        "count",
        ratio(n.messages as f64, ops),
    );
    m.put("net.bytes_per_op", "B/op", ratio(n.bytes as f64, ops));
    m.put("proc.client.cpu_us_per_op", "us", ratio(p.cpu_us, ops));
    m.put(
        "proc.client.ctx_switches_per_op",
        "count",
        ratio(p.ctx_switches as f64, ops),
    );
    m.put(
        "subcontracts.caching.hit_ratio",
        "ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    m.put(
        "subcontracts.caching.invalidations_per_write",
        "count",
        ratio((b.invalidations - a.invalidations) as f64, writes as f64),
    );
}

/// Ladder rungs on machine 0: the same 1 KiB read through the generated
/// stub and through `SpringObj::invoke` with the call pre-marshalled.
fn ladder(rig: &Rig, seed: u64, end_ns: u64, out: &mut Outcome) -> [f64; 2] {
    let mut rungs: [Vec<u64>; 2] = Default::default();
    let file = &rig.machines[0].file;
    let obj = file.obj();
    let model = &rig.models[0];
    let mut rng = Rng::new(seed, 50);
    let mut round = 0;
    while now_ns() < end_ns {
        for k in 0..2 {
            let rung = (round + k) % 2;
            let off = rng.below(((HALF - READ_LEN) / READ_ALIGN + 1) as u64) as usize * READ_ALIGN;
            let (ns, bytes) = if rung == 0 {
                let t0 = now_ns();
                let r = file.read(off as i64, READ_LEN as i64);
                (now_ns() - t0, r.ok())
            } else {
                let mut call = obj
                    .start_call(fs::cacheable_file_ops::READ)
                    .expect("start_call");
                call.align8();
                call.put_i64(off as i64);
                call.put_i64(READ_LEN as i64);
                let t0 = now_ns();
                let r = obj.invoke(call);
                let ns = now_ns() - t0;
                let bytes =
                    r.ok()
                        .and_then(|mut reply| match decode_reply_status(&mut reply).ok()? {
                            ReplyStatus::Ok => reply.get_bytes().ok(),
                            ReplyStatus::UserException(_) => None,
                        });
                (ns, bytes)
            };
            out.check(
                bytes.as_deref() == Some(&model[off..off + READ_LEN]),
                || format!("ladder rung {rung}: wrong bytes"),
            );
            rungs[rung].push(ns);
        }
        round += 1;
    }
    rungs.map(|mut v| metrics::percentile(&mut v, 0.5) as f64)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if !args.trace {
        return timed_run(
            args.seconds,
            |_, out| Rig::build(args.seed, out),
            |rig, i, secs, out| {
                let a = procstat::sample_self();
                let (mut e, _, _) = phase(rig, args.seed ^ (i as u64) << 32, secs, out);
                let b = procstat::sample_self();
                e.cpu_us = b.since(&a).cpu_us;
                e.hwm_kb = b.hwm_kb;
                Ok(e)
            },
            |rig, out| {
                rig.finish(out);
                Ok(())
            },
        );
    }
    let mut out = Outcome::default();
    let mut rig = Rig::build(args.seed, &mut out)?;
    let secs = args.seconds;
    let a = counters(&rig);
    let (e, reads, writes) = phase(&mut rig, args.seed, secs * 0.4, &mut out);
    let b = counters(&rig);
    put_counters(&mut out, &a, &b, e.completed, writes.count());
    out.metrics.put(
        "subcontracts.caching.read_us",
        "us",
        reads.percentile_ns(0.5) / 1e3,
    );
    out.metrics.put(
        "subcontracts.caching.write_us",
        "us",
        writes.percentile_ns(0.5) / 1e3,
    );
    out.attempted = e.attempted;
    out.failed = e.attempted - e.completed;

    // Single-thread reference and traced phases on machine 0, so the
    // overhead compares like with like.
    let mut model = std::mem::take(&mut rig.models[0]);
    let file = &rig.machines[0].file;
    let now = now_ns();
    let reference = run_thread(
        file,
        0,
        &mut model,
        args.seed ^ 1,
        now,
        now + (secs * 0.1 * 1e9) as u64,
    );
    out.errors.extend(reference.errors);
    let scope = rig.machines[0].ctx.domain().trace_scope();
    let mut rng = Rng::new(args.seed, 60);
    let mut pending = None;
    let mut traced_out = Outcome::default();
    let (mut lt, traced_lat): (LayerTimes, LatHist) = traced::run(secs * 0.25, 0, || {
        let t0 = now_ns();
        let span = spring_trace::span_start(traced::OP_SPAN, scope, 0);
        let _ = one_op(file, 0, &mut model, &mut rng, &mut pending, &mut traced_out);
        drop(span);
        now_ns() - t0
    });
    rig.models[0] = model;
    out.errors.append(&mut traced_out.errors);
    put_trace_layers(&mut out, &mut lt, &reference.log.total, &traced_lat);
    let core_self = out.metrics.get("trace.core.self_p50_us").unwrap_or(0.0);
    out.metrics.put("core.invoke_self_us", "us", core_self);

    let medians = ladder(
        &rig,
        args.seed,
        now_ns() + (secs * 0.25 * 1e9) as u64,
        &mut out,
    );
    out.metrics.put(
        "idl.stub_self_us",
        "us",
        metrics::ladder_self(&medians)[0] / 1e3,
    );
    rig.finish(&mut out);
    Ok(out)
}
