//! `wire-tenants`: an open loop of pipelined RQNW requests over one
//! loopback connection to a `PlanServer` configured as `repro --serve`
//! deploys it. Most of the time goes to the event loop, the planning
//! service and cache-bank writes; planning itself is cheap.
//!
//! One sender thread sends each request at its seeded Poisson due time
//! and one receiver thread decodes replies; latency runs from the due
//! time, so a stalled generator or server shows up in it. Every reply's
//! plan is decoded and checked after the window.

use crate::check::{decode_plan, rung_metric, validate, RUNG_METRICS};
use crate::layers::{KernelClocks, TracedModel};
use crate::report::{Metrics, Outcome};
use crate::stats::{
    cache_since, geomean, mean, percentile, poisson_schedule, process_cpu_ms, windowed_percentile,
};
use crate::{repeat_setup, Args};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use raqo_catalog::tpch::TpchSchema;
use raqo_catalog::QuerySpec;
use raqo_core::{
    PlannerKind, PlanningService, Priority, RaqoOptimizer, ResourceStrategy, ServiceConfig,
    ShardedCacheBank, Telemetry,
};
use raqo_cost::{JoinCostModel, OperatorCost};
use raqo_net::frame::{FLAG_DEADLINE_EXPIRED, FLAG_SHED};
use raqo_net::{decode, Decoded, Frame, NetConfig, PlanServer, RequestFrame, DEFAULT_MAX_BODY};
use raqo_resource::{CacheLookup, ClusterConditions};
use raqo_sim::Engine;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Offered load; about what two cores serve without a growing backlog.
const RATE_PER_SEC: f64 = 1000.0;
/// Steady tenants (cache namespaces 0..16).
const TENANTS: u32 = 16;
/// One request in `FRESH_EVERY` comes from a never-seen namespace, so it
/// misses the cache and inserts.
const FRESH_EVERY: usize = 8;
/// Service checkpoint cadence in completed plans, and the entry count
/// compaction trims the bank to at each checkpoint.
const CHECKPOINT_EVERY: u64 = 500;
const COMPACT_HIGH_WATER: usize = 8192;
/// Interactive requests carry a deadline; the other classes do not.
const INTERACTIVE_DEADLINE_MS: u32 = 250;
/// The traced run alternates untraced and traced blocks of this many
/// requests, to price the tracing on the same server.
const TRACE_BLOCK: usize = 256;
/// Requests in flight per warm-up batch, well under the dispatch queue.
const WARM_BATCH: usize = 32;
/// The client retries a retryable error frame (e.g. `Overloaded` after a
/// burst) as `PlanClient` does: up to 3 times under the same request id,
/// after 10 ms · 2^k. Latency still runs from the first due time.
const RETRIES: u32 = 3;
const BACKOFF_BASE: Duration = Duration::from_millis(10);
/// Longest the sender sleeps at once, so due retries go out promptly.
const SENDER_TICK: Duration = Duration::from_millis(1);

/// The 20 multi-relation TPC-H join cores.
fn queries() -> Vec<QuerySpec> {
    QuerySpec::tpch_full_suite()
        .into_iter()
        .filter(|q| q.relations.len() > 1)
        .collect()
}

/// One scheduled request; request ids are the index plus one.
struct Req {
    due_s: f64,
    query: usize,
    namespace: u32,
    priority: Priority,
}

impl Req {
    fn frame(&self, index: usize, queries: &[QuerySpec]) -> RequestFrame {
        RequestFrame {
            request_id: index as u64 + 1,
            priority: self.priority,
            namespace: self.namespace,
            deadline_ms: if self.priority == Priority::Interactive {
                INTERACTIVE_DEADLINE_MS
            } else {
                0
            },
            query: queries[self.query].clone(),
        }
    }
}

fn schedule(seed: u64, seconds: f64, n_queries: usize) -> Vec<Req> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7769_7265);
    let mut fresh = TENANTS;
    poisson_schedule(seed, RATE_PER_SEC, seconds)
        .into_iter()
        .enumerate()
        .map(|(i, due_s)| Req {
            due_s,
            query: rng.gen_range(0..n_queries),
            namespace: if i % FRESH_EVERY == FRESH_EVERY - 1 {
                fresh += 1;
                fresh
            } else {
                rng.gen_range(0..TENANTS)
            },
            priority: Priority::ALL[i % Priority::ALL.len()],
        })
        .collect()
}

/// A running server and the client connection to it.
struct Served {
    service: Arc<PlanningService>,
    server: PlanServer,
    stream: TcpStream,
    /// Present when the optimizers were built over the wrapped model.
    clocks: Option<Arc<KernelClocks>>,
    fingerprint: u64,
}

fn start_service<M: OperatorCost + Send + Sync + 'static>(
    model: Arc<M>,
    fingerprint: u64,
    checkpoint: PathBuf,
    tel: Telemetry,
) -> PlanningService {
    let schema = TpchSchema::new(1.0);
    let (catalog, graph) = (Arc::new(schema.catalog), Arc::new(schema.graph));
    PlanningService::start(
        ServiceConfig {
            workers: 4,
            checkpoint_every: CHECKPOINT_EVERY,
            checkpoint_path: Some(checkpoint),
            model_fingerprint: Some(fingerprint),
            compact_high_water: Some(COMPACT_HIGH_WATER),
            ..ServiceConfig::default()
        },
        ShardedCacheBank::with_shards(8),
        tel,
        move |_| {
            RaqoOptimizer::new(
                catalog.clone(),
                graph.clone(),
                model.clone(),
                ClusterConditions::paper_default(),
                PlannerKind::Selinger,
                ResourceStrategy::HillClimbCached(CacheLookup::NearestNeighbor { threshold: 0.05 }),
            )
        },
    )
}

fn serve(trace: bool, run_dir: &Path, tag: usize) -> std::io::Result<Served> {
    let plain = JoinCostModel::trained_hive();
    let fingerprint = plain.fingerprint();
    let checkpoint = run_dir.join(format!("service-{tag}.json"));
    // One telemetry sink for the service and the server, as `repro --serve`.
    let tel = Telemetry::enabled();
    let (service, clocks) = if trace {
        let wrapped = Arc::new(TracedModel::new(plain));
        let clocks = wrapped.clocks.clone();
        (
            start_service(wrapped, fingerprint, checkpoint, tel.clone()),
            Some(clocks),
        )
    } else {
        (
            start_service(Arc::new(plain), fingerprint, checkpoint, tel.clone()),
            None,
        )
    };
    let service = Arc::new(service);
    let server = PlanServer::bind("127.0.0.1:0", NetConfig::default(), service.clone(), tel)?;
    let stream = TcpStream::connect(server.local_addr())?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    Ok(Served {
        service,
        server,
        stream,
        clocks,
        fingerprint,
    })
}

/// Warm-up: every tenant plans every query once, in small pipelined
/// batches, so steady tenants start the window with warm caches.
fn warm(served: &mut Served, queries: &[QuerySpec]) -> std::io::Result<()> {
    let stream = &mut served.stream;
    let mut id = 1u64 << 40;
    let mut reader = FrameReader::default();
    let all: Vec<(u32, usize)> = (0..TENANTS)
        .flat_map(|ns| (0..queries.len()).map(move |q| (ns, q)))
        .collect();
    for batch in all.chunks(WARM_BATCH) {
        for &(namespace, q) in batch {
            id += 1;
            let frame = RequestFrame {
                request_id: id,
                priority: Priority::Standard,
                namespace,
                deadline_ms: 0,
                query: queries[q].clone(),
            };
            stream.write_all(&frame.encode())?;
        }
        for _ in batch {
            match reader.next(stream)? {
                Frame::Reply(r) if decode_plan(&r.plan_json).ok().flatten().is_some() => {}
                other => {
                    return Err(std::io::Error::other(format!("warm-up reply: {other:?}")));
                }
            }
        }
    }
    Ok(())
}

impl Served {
    fn stop(self) {
        drop(self.stream);
        self.server.shutdown();
        match Arc::try_unwrap(self.service) {
            Ok(service) => service.shutdown(),
            Err(_) => panic!("the server kept a handle on the planning service"),
        }
    }
}

/// Buffered frame decoding over a blocking stream.
#[derive(Default)]
struct FrameReader {
    buf: Vec<u8>,
    /// Nanoseconds spent in `frame::decode` for the last frame.
    last_decode_ns: u64,
    last_len: usize,
}

impl FrameReader {
    fn next(&mut self, stream: &mut TcpStream) -> std::io::Result<Frame> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            let t = Instant::now();
            let decoded = decode(&self.buf, DEFAULT_MAX_BODY);
            let ns = t.elapsed().as_nanos() as u64;
            match decoded {
                Decoded::Frame(frame, used) => {
                    self.buf.drain(..used);
                    self.last_decode_ns = ns;
                    self.last_len = used;
                    return Ok(frame);
                }
                Decoded::Corrupt(e) => {
                    return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e));
                }
                Decoded::Incomplete { .. } => {
                    let n = stream.read(&mut chunk)?;
                    if n == 0 {
                        return Err(std::io::ErrorKind::UnexpectedEof.into());
                    }
                    self.buf.extend_from_slice(&chunk[..n]);
                }
            }
        }
    }
}

/// What came back for one request.
#[derive(Clone, Copy)]
struct Answer {
    rtt_ms: f64,
    queue_wait_us: u64,
    service_us: u64,
    flags: u8,
    bytes: usize,
    decode_ns: u64,
    /// Index into [`Received::plans`].
    plan: usize,
    /// The request drew a retryable error frame before this reply.
    retried: bool,
}

struct Received {
    answers: Vec<Option<Answer>>,
    /// Distinct (query, plan JSON) replies, in order of first arrival.
    plans: Vec<(usize, String)>,
    plan_index: HashMap<(usize, String), usize>,
    /// Every error frame, retried or not.
    error_frames: u64,
    /// Requests that failed, and anything else wrong with the stream.
    errors: Vec<String>,
    last_reply_s: f64,
}

/// Requests the receiver hands back to the sender for another attempt.
#[derive(Default)]
struct Retries {
    /// (resend at, from the window start; request index)
    due: Mutex<Vec<(Duration, usize)>>,
    /// Set by the receiver once every request is answered or failed.
    done: AtomicBool,
}

impl Retries {
    fn push(&self, at: Duration, req: usize) {
        self.due.lock().expect("retry queue lock").push((at, req));
    }

    fn take_due(&self, now: Duration) -> Vec<usize> {
        let mut due = self.due.lock().expect("retry queue lock");
        let (ready, later): (Vec<_>, Vec<_>) = due.drain(..).partition(|(at, _)| *at <= now);
        *due = later;
        ready.into_iter().map(|(_, req)| req).collect()
    }
}

fn receive(mut stream: TcpStream, reqs: &[Req], start: Instant, retries: &Retries) -> Received {
    let mut out = Received {
        answers: vec![None; reqs.len()],
        plans: Vec::new(),
        plan_index: HashMap::new(),
        error_frames: 0,
        errors: Vec::new(),
        last_reply_s: 0.0,
    };
    let mut reader = FrameReader::default();
    let mut attempts = vec![0u32; reqs.len()];
    let mut outstanding = reqs.len();
    while outstanding > 0 {
        let frame = match reader.next(&mut stream) {
            Ok(frame) => frame,
            Err(e) => {
                out.errors.push(format!(
                    "connection: {e} with {outstanding} request(s) unanswered"
                ));
                break;
            }
        };
        let now = start.elapsed().as_secs_f64();
        let (id, answer) = match frame {
            Frame::Reply(r) => {
                let Some((req_index, req)) = (r.request_id as usize)
                    .checked_sub(1)
                    .and_then(|i| reqs.get(i).map(|req| (i, req)))
                else {
                    out.errors
                        .push(format!("reply to unknown request {}", r.request_id));
                    continue;
                };
                let key = (req.query, r.plan_json);
                let plan = match out.plan_index.get(&key) {
                    Some(&i) => i,
                    None => {
                        out.plans.push(key.clone());
                        out.plan_index.insert(key, out.plans.len() - 1);
                        out.plans.len() - 1
                    }
                };
                let answer = Answer {
                    rtt_ms: (now - req.due_s) * 1e3,
                    queue_wait_us: r.queue_wait_us,
                    service_us: r.service_us,
                    flags: r.flags,
                    bytes: reader.last_len,
                    decode_ns: reader.last_decode_ns,
                    plan,
                    retried: attempts[req_index] > 0,
                };
                (r.request_id, answer)
            }
            Frame::Error(e) => {
                out.error_frames += 1;
                let index = (e.request_id as usize)
                    .checked_sub(1)
                    .filter(|&i| i < reqs.len());
                if let Some(i) = index.filter(|&i| e.code.retryable() && attempts[i] < RETRIES) {
                    let backoff = BACKOFF_BASE * 2u32.pow(attempts[i]);
                    attempts[i] += 1;
                    retries.push(start.elapsed() + backoff, i);
                    continue;
                }
                out.errors.push(format!(
                    "error frame for request {}: {} {}",
                    e.request_id,
                    e.code.name(),
                    e.message
                ));
                if index.is_none() {
                    break;
                }
                outstanding -= 1;
                continue;
            }
            Frame::Request(_) => {
                out.errors.push("server sent a request frame".into());
                continue;
            }
        };
        let slot = &mut out.answers[id as usize - 1];
        if slot.is_some() {
            out.errors.push(format!("second reply to request {id}"));
            continue;
        }
        *slot = Some(answer);
        out.last_reply_s = now;
        outstanding -= 1;
    }
    retries.done.store(true, Ordering::Release);
    out
}

/// Per request: how late it was sent and how long encoding took.
struct Sent {
    late_ms: Vec<f64>,
    encode_ns: Vec<u64>,
}

/// Send every request at its due time, and retries when they come due,
/// until the receiver has settled every request.
fn send(
    mut stream: TcpStream,
    reqs: &[Req],
    queries: &[QuerySpec],
    start: Instant,
    clocks: Option<&KernelClocks>,
    retries: &Retries,
) -> std::io::Result<Sent> {
    let mut sent = Sent {
        late_ms: Vec::with_capacity(reqs.len()),
        encode_ns: Vec::with_capacity(reqs.len()),
    };
    let mut next = 0;
    while !retries.done.load(Ordering::Acquire) {
        let now = start.elapsed();
        for i in retries.take_due(now) {
            stream.write_all(&reqs[i].frame(i, queries).encode())?;
        }
        let Some(req) = reqs.get(next) else {
            std::thread::sleep(SENDER_TICK);
            continue;
        };
        let due = Duration::from_secs_f64(req.due_s);
        if due > now {
            std::thread::sleep((due - now).min(SENDER_TICK));
            continue;
        }
        if let Some(clocks) = clocks {
            if next % TRACE_BLOCK == 0 {
                clocks.set_on(traced_block(next));
            }
        }
        sent.late_ms
            .push((start.elapsed().as_secs_f64() - req.due_s) * 1e3);
        let frame = req.frame(next, queries);
        let t = Instant::now();
        let bytes = frame.encode();
        sent.encode_ns.push(t.elapsed().as_nanos() as u64);
        stream.write_all(&bytes)?;
        next += 1;
    }
    Ok(sent)
}

/// In the traced run, odd blocks of requests are the traced ones.
fn traced_block(i: usize) -> bool {
    (i / TRACE_BLOCK) % 2 == 1
}

pub fn run(args: &Args, metrics: &mut Metrics, outcome: &mut Outcome) {
    let run_dir = crate::run_dir();
    let queries = queries();
    // The last set-up is the one measured. The warm-up pass is planning
    // over the wire, which the window's metrics already time, so it runs
    // once, untimed.
    let mut setup_s = Vec::new();
    let set_up = |i| serve(args.trace, &run_dir, i).expect("wire set-up");
    let mut served = repeat_setup(&mut setup_s, set_up, Served::stop);
    warm(&mut served, &queries).expect("wire warm-up");
    let reqs = schedule(args.seed, args.seconds as f64, queries.len());
    let bank = served.service.bank();
    let cache0 = bank.aggregate_stats();
    let completed0 = served.service.completed();
    let kernel0 = served
        .clocks
        .as_ref()
        .map(|c| (c.scalar.tally(), c.batch.tally()));

    let cpu0 = process_cpu_ms();
    let start = Instant::now();
    let write_half = served.stream.try_clone().expect("clone the client socket");
    let read_half = served.stream.try_clone().expect("clone the client socket");
    let retries = Retries::default();
    let (sent, received) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| receive(read_half, &reqs, start, &retries));
        let sent = send(
            write_half,
            &reqs,
            &queries,
            start,
            served.clocks.as_deref(),
            &retries,
        );
        (sent, receiver.join().expect("receiver thread"))
    });
    let cpu_ms = process_cpu_ms() - cpu0;
    let completed = served.service.completed() - completed0;
    let cache1 = bank.aggregate_stats();
    let entries = bank.total_entries();
    if let Some(clocks) = &served.clocks {
        clocks.set_on(false);
    }
    let kernel = served
        .clocks
        .as_ref()
        .zip(kernel0)
        .map(|(c, (s0, b0))| (c.scalar.tally().since(s0), c.batch.tally().since(b0)));

    // Checkpoint and reload the final bank, timed, as a restart would.
    let path = run_dir.join("final.json");
    let t = Instant::now();
    let checkpoint = bank.checkpoint_with_fingerprint(&path, served.fingerprint);
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    let checkpoint_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let t = Instant::now();
    let loaded = ShardedCacheBank::load_checked(&path, served.fingerprint);
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    match (checkpoint, loaded) {
        (Ok(_), Ok((back, false))) if back.total_entries() == bank.total_entries() => {}
        (c, l) => outcome.problems.push(format!(
            "final bank checkpoint/load round trip failed: {:?} / {:?}",
            c.err(),
            l.map(|(b, invalidated)| (b.total_entries(), invalidated))
                .err()
        )),
    }
    drop(bank);
    Served::stop(served);
    Served::stop(repeat_setup(&mut setup_s, set_up, Served::stop));
    std::fs::remove_dir_all(&run_dir).ok();
    // Succeeds only when no other run is using the parent.
    if let Some(parent) = run_dir.parent() {
        std::fs::remove_dir(parent).ok();
    }

    let sent = match sent {
        Ok(sent) => sent,
        Err(e) => {
            outcome.problems.push(format!("sender: {e}"));
            Sent {
                late_ms: Vec::new(),
                encode_ns: Vec::new(),
            }
        }
    };

    // ---- output checks, after the window ------------------------------
    let answers: Vec<(usize, Answer)> = received
        .answers
        .iter()
        .enumerate()
        .filter_map(|(i, a)| a.map(|a| (i, a)))
        .collect();
    let mut copies = vec![0u64; received.plans.len()];
    for (_, a) in &answers {
        copies[a.plan] += 1;
    }
    let engine = Engine::hive();
    let cluster = ClusterConditions::paper_default();
    let mut failed = (reqs.len() - answers.len()) as u64;
    let (mut times, mut moneys, mut qerrors) = (Vec::new(), Vec::new(), Vec::new());
    let mut plan_stats = raqo_core::RaqoStats::default();
    let mut decoded_plans = 0u64;
    // Per distinct reply: its degradation rung, when it decoded to a plan.
    let mut rung_of: Vec<Option<&str>> = vec![None; received.plans.len()];
    for (i, (query, json)) in received.plans.iter().enumerate() {
        let (n, name) = (copies[i], &queries[*query].name);
        let plan = match decode_plan(json) {
            Ok(Some(plan)) => plan,
            Ok(None) => {
                failed += n;
                outcome
                    .problems
                    .push(format!("{name}: no plan ({n} replies)"));
                continue;
            }
            Err(reason) => {
                failed += n;
                outcome
                    .problems
                    .push(format!("{name}: {reason} ({n} replies)"));
                continue;
            }
        };
        decoded_plans += n;
        plan_stats.resource_iterations += plan.stats.resource_iterations * n;
        plan_stats.plan_cost_calls += plan.stats.plan_cost_calls * n;
        plan_stats.cache_hits += plan.stats.cache_hits * n;
        plan_stats.memo_hits += plan.stats.memo_hits * n;
        rung_of[i] = rung_metric(&plan);
        match validate(&plan, &queries[*query], &cluster, &engine) {
            Ok(sim) => {
                times.push((sim.time_s, n));
                moneys.push((sim.money_tbs, n));
                for q in sim.qerrors {
                    qerrors.extend(std::iter::repeat_n(q, n as usize));
                }
            }
            Err(reason) => {
                failed += n;
                outcome
                    .problems
                    .push(format!("{name}: {reason} ({n} replies)"));
            }
        }
    }
    let mut rungs: HashMap<&str, u64> = HashMap::new();
    let mut degraded = 0u64;
    for (_, a) in &answers {
        let rung = rung_of[a.plan];
        if let Some(rung) = rung {
            *rungs.entry(rung).or_default() += 1;
        }
        // A reply that only came after a retried error frame (such as
        // `Overloaded` from a full dispatch queue) was shed once, so it
        // counts as degraded even though the retry recovered it.
        if rung.is_some() || a.retried || a.flags & (FLAG_SHED | FLAG_DEADLINE_EXPIRED) != 0 {
            degraded += 1;
        }
    }
    outcome.problems.extend(received.errors.iter().cloned());
    outcome.attempted = reqs.len() as u64;
    outcome.failed = failed;
    let attempted = reqs.len() as f64;
    println!(
        "window {:.3} s, {} requests at {RATE_PER_SEC}/s, {} answered, {} distinct replies, \
         {} error frame(s), {} unrecovered",
        received.last_reply_s,
        reqs.len(),
        answers.len(),
        received.plans.len(),
        received.error_frames,
        received.errors.len()
    );

    let ms = |f: fn(&Answer) -> f64, which: &dyn Fn(usize) -> bool| -> Vec<f64> {
        answers
            .iter()
            .filter(|(i, _)| which(*i))
            .map(|(_, a)| f(a))
            .collect()
    };
    let everyone = |_: usize| true;
    let mut rtt = ms(|a| a.rtt_ms, &everyone);
    let mut svc = ms(|a| a.service_us as f64 / 1e3, &everyone);
    // (due time, value) pairs for the one-second windowed percentiles.
    let by_due = |f: fn(&Answer) -> f64| -> Vec<(f64, f64)> {
        answers
            .iter()
            .map(|(i, a)| (reqs[*i].due_s, f(a)))
            .collect()
    };
    let rtt_by_due = by_due(|a| a.rtt_ms);
    let svc_by_due = by_due(|a| a.service_us as f64 / 1e3);
    // The round-trip tail moves with the host's CPU steal far more than
    // the benchmark's bounds allow, so it is printed, not bounded.
    let p90 = windowed_percentile(&rtt_by_due, 1.0, 90.0);
    let (p99, p999) = (percentile(&mut rtt, 99.0), percentile(&mut rtt, 99.9));
    println!(
        "tail rtt: windowed p90 {:.3} ms, whole-window p99 {:.3} ms (beyond={}), \
         p99.9 {:.3} ms (beyond={})",
        p90.value, p99.value, p99.beyond, p999.value, p999.beyond
    );

    if !args.trace {
        metrics.pct("setup_s", percentile(&mut setup_s, 50.0));
        // Over the wire, planning time is the service time each reply
        // reports; the round trip is what the client sees. Percentiles are
        // taken per one-second window and summarised by their median, so
        // a few seconds of host CPU steal on a shared machine do not move
        // them; the whole-window tail is printed above.
        metrics.windowed("plan_ms_p50", windowed_percentile(&svc_by_due, 1.0, 50.0));
        metrics.windowed("plan_ms_p95", windowed_percentile(&svc_by_due, 1.0, 95.0));
        metrics.set("plans_per_s", answers.len() as f64 / received.last_reply_s);
        metrics.windowed("rtt_ms_p50", windowed_percentile(&rtt_by_due, 1.0, 50.0));
        metrics.set("cpu_ms_per_plan", cpu_ms / answers.len() as f64);
        metrics.set("peak_rss_mb", crate::stats::peak_rss_mb());
        metrics.set("sim_time_s_gm", geomean(times));
        metrics.set("sim_money_tbs_gm", geomean(moneys));
        metrics.set("ok_frac", 1.0 - failed as f64 / attempted);
        metrics.set("undegraded_frac", 1.0 - degraded as f64 / attempted);
        return;
    }

    // ---- per-layer metrics --------------------------------------------
    let mut overhead = ms(
        |a| a.rtt_ms - (a.queue_wait_us + a.service_us) as f64 / 1e3,
        &everyone,
    );
    metrics.pct("net.overhead_ms_p50", percentile(&mut overhead, 50.0));
    metrics.pct("net.overhead_ms_p99", percentile(&mut overhead, 99.0));
    let mut codec_us: Vec<f64> = answers
        .iter()
        .filter_map(|(i, a)| {
            sent.encode_ns
                .get(*i)
                .map(|e| (e + a.decode_ns) as f64 / 1e3)
        })
        .collect();
    metrics.pct("net.client_codec_us_p50", percentile(&mut codec_us, 50.0));
    let bytes: Vec<f64> = answers.iter().map(|(_, a)| a.bytes as f64).collect();
    metrics.set("net.reply_bytes_mean", mean(&bytes));
    metrics.set("net.error_frames", received.error_frames as f64);
    let mut late = sent.late_ms;
    metrics.pct("net.gen_late_ms_p99", percentile(&mut late, 99.0));
    let mut wait = ms(|a| a.queue_wait_us as f64 / 1e3, &everyone);
    metrics.pct("service.queue_wait_ms_p50", percentile(&mut wait, 50.0));
    metrics.pct("service.queue_wait_ms_p99", percentile(&mut wait, 99.0));
    metrics.pct("service.plan_ms_p50", percentile(&mut svc, 50.0));
    metrics.pct("service.plan_ms_p99", percentile(&mut svc, 99.0));
    let flagged = |flag: u8| answers.iter().filter(|(_, a)| a.flags & flag != 0).count() as f64;
    metrics.set("service.shed", flagged(FLAG_SHED));
    metrics.set("service.deadline_expired", flagged(FLAG_DEADLINE_EXPIRED));
    for name in RUNG_METRICS {
        metrics.set(name, rungs.get(name).copied().unwrap_or(0) as f64);
    }
    let per_plan = |x: u64| x as f64 / decoded_plans.max(1) as f64;
    metrics.set(
        "coster.calls_per_plan",
        per_plan(plan_stats.plan_cost_calls),
    );
    metrics.set(
        "coster.cache_hit_ratio",
        plan_stats.cache_hits as f64 / plan_stats.plan_cost_calls.max(1) as f64,
    );
    metrics.set("coster.memo_hits_per_plan", per_plan(plan_stats.memo_hits));
    metrics.set(
        "resource.iterations_per_plan",
        per_plan(plan_stats.resource_iterations),
    );
    let cache = cache_since(cache1, cache0);
    metrics.set("resource.cache_hit_rate", cache.hit_rate());
    metrics.set("resource.cache_insertions", cache.insertions as f64);
    metrics.set("resource.cache_entries", entries as f64);
    metrics.set(
        "resource.checkpoints",
        ((completed0 + completed) / CHECKPOINT_EVERY - completed0 / CHECKPOINT_EVERY) as f64,
    );
    metrics.set("resource.checkpoint_ms", checkpoint_ms);
    metrics.set("resource.checkpoint_bytes", checkpoint_bytes as f64);
    metrics.set("resource.load_ms", load_ms);
    // Kernel spans were recorded only during traced blocks.
    let traced_plans = answers
        .iter()
        .filter(|(i, _)| traced_block(*i))
        .count()
        .max(1) as f64;
    let (scalar, batch) = kernel.expect("traced run");
    let kernel_ms = (scalar.ns + batch.ns) as f64 / 1e6;
    let configs = scalar.items + batch.items;
    metrics.set("cost.kernel_ms_per_plan", kernel_ms / traced_plans);
    metrics.set("cost.configs_per_plan", configs as f64 / traced_plans);
    metrics.set(
        "cost.ns_per_config",
        (scalar.ns + batch.ns) as f64 / configs.max(1) as f64,
    );
    metrics.set(
        "cost.batch_calls_per_plan",
        batch.calls as f64 / traced_plans,
    );
    metrics.set(
        "cost.scalar_calls_per_plan",
        scalar.calls as f64 / traced_plans,
    );
    metrics.pct("cost.qerror_p50", percentile(&mut qerrors, 50.0));
    let mut plain = ms(|a| a.service_us as f64 / 1e3, &|i| !traced_block(i));
    let mut traced = ms(|a| a.service_us as f64 / 1e3, &|i| traced_block(i));
    let (plain, traced) = (
        percentile(&mut plain, 50.0).value,
        percentile(&mut traced, 50.0).value,
    );
    metrics.set("trace.overhead_pct", (traced / plain - 1.0) * 100.0);
    // The planner and coster run inside the service's optimizers, where
    // the benchmark has no seam to time them.
    for name in [
        "coster.ms_per_plan",
        "coster.batch_width_mean",
        "planner.ms_per_plan",
        "planner.self_ms_per_plan",
        "resource.self_ms_per_plan",
    ] {
        metrics.note(name, 0.0, "not timed over the wire".into());
    }
}

/// Wire-only layers, zero on the in-process workloads, which have no
/// network, service or checkpoint.
pub fn zero_wire_layers(metrics: &mut Metrics) {
    for name in [
        "net.overhead_ms_p50",
        "net.overhead_ms_p99",
        "net.client_codec_us_p50",
        "net.reply_bytes_mean",
        "net.error_frames",
        "net.gen_late_ms_p99",
        "service.queue_wait_ms_p50",
        "service.queue_wait_ms_p99",
        "service.plan_ms_p50",
        "service.plan_ms_p99",
        "service.shed",
        "service.deadline_expired",
        "resource.checkpoints",
        "resource.checkpoint_ms",
        "resource.checkpoint_bytes",
        "resource.load_ms",
    ] {
        metrics.note(name, 0.0, "no such layer in process".into());
    }
}
