//! The simulator workloads `sim_ring` and `sim_store`: one run loop for both.
//!
//! One run: set the system up several times (landmark selection,
//! mapping the base, `SearchSystem::build`), publishing the held-out
//! objects at runtime after each set-up; check that every held-out
//! object is stored once and found by a query centred on it; then run
//! distinct range queries closed loop, one in flight (map the query to
//! the landmarks, inject at `now()`, run to quiescence), checking every
//! answer against brute force. The first block of queries is a
//! warm-up; the others are timed.

use crate::measure::{
    mean, median, percentile, ratio, search_layer, Counts, Outcome, PerQuery, SearchState, COUNTERS,
};
use crate::trace::Tracer;
use crate::truth::{check_contains, check_top_k, Truth};
use chord::OracleRing;
use landmark::{boundary_from_sample, Mapper};
use metric::{Metric, ObjectId};
use simnet::{AgentId, SimRng, Topology};
use simsearch::{IndexSpec, QueryDistance, QueryId, QuerySpec, SearchSystem, SystemConfig};
use std::borrow::Borrow;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Boundary margin around the landmark sample's mapped extent.
const MARGIN: f64 = 0.05;

/// Seed of the system itself: the landmark sample and
/// `SystemConfig::seed` (ring identifiers, latency topology). The same
/// in every run, so every run indexes the same corpus the same way.
const SYSTEM_SEED: u64 = crate::worlds::CORPUS_SEED;

/// Queries per block; the first block warms up.
pub const BLOCK: usize = 25;

/// Sizes of one simulator workload.
pub struct Plan {
    /// Overlay size.
    pub n_nodes: usize,
    /// Landmarks (index-space dimensions).
    pub landmarks: usize,
    /// Objects in the landmark-selection sample.
    pub sample: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Publishes per timed ingest chunk.
    pub ingest_chunk: usize,
    /// Relative tolerance when comparing distances.
    pub tol: f64,
}

/// Inputs of one simulator workload, made from the seed.
pub struct World<T, M> {
    /// Objects: the bulk-published base, then the held-out tail.
    pub objects: Arc<Vec<T>>,
    /// Size of the base.
    pub base: usize,
    /// Query objects, all distinct, in the order they run.
    pub queries: Arc<Vec<T>>,
    /// Issuing node of each query.
    pub origins: Vec<usize>,
    /// Brute-force answer and radius of each query over every object.
    pub truth: Vec<Truth>,
    /// The benchmark's own distance, for re-checking answers.
    pub own: fn(&T, &T) -> f64,
    /// Landmark selection: `(metric, sample, landmarks, rng)`.
    pub select: fn(&M, &[T], usize, &mut SimRng) -> Vec<T>,
}

/// The distance oracle handed to the system. Query ids below `heldout`
/// are the radius-0 checks centred on held-out object `base + qid`;
/// the rest are the queries in order. In the traced run it
/// counts and times every call.
struct Oracle<T, Q: ?Sized, M> {
    metric: M,
    objects: Arc<Vec<T>>,
    queries: Arc<Vec<T>>,
    base: usize,
    heldout: usize,
    timed: AtomicBool,
    calls: AtomicU64,
    ns: AtomicU64,
    _q: PhantomData<fn(&Q)>,
}

impl<T, Q: ?Sized, M> Oracle<T, Q, M> {
    fn source(&self, qid: QueryId) -> &T {
        let q = qid as usize;
        if q < self.heldout {
            &self.objects[self.base + q]
        } else {
            &self.queries[(q - self.heldout) % self.queries.len()]
        }
    }

    fn totals(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.ns.load(Ordering::Relaxed),
        )
    }
}

impl<T, Q, M> QueryDistance for Oracle<T, Q, M>
where
    T: Borrow<Q> + Send + Sync,
    Q: ?Sized,
    M: Metric<Q>,
{
    fn distance(&self, qid: QueryId, obj: ObjectId) -> f64 {
        let q = self.source(qid).borrow();
        let o = self.objects[obj.0 as usize].borrow();
        if !self.timed.load(Ordering::Relaxed) {
            return self.metric.distance(q, o);
        }
        let t = Instant::now();
        let d = self.metric.distance(q, o);
        let ns = t.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        d
    }
}

fn counters(sys: &SearchSystem) -> Counts {
    let st = sys.telemetry().lock();
    COUNTERS.map(|c| st.registry.counter(c))
}

fn publish_hops(sys: &SearchSystem) -> (u64, u64) {
    let st = sys.telemetry().lock();
    st.registry
        .histogram("publish.hops")
        .map_or((0, 0), |h| (h.count(), h.sum()))
}

/// What one set-up produced.
struct Built<T, Q: ?Sized, M> {
    sys: SearchSystem,
    mapper: Mapper<T, M>,
    oracle: Arc<Oracle<T, Q, M>>,
    /// Index points of the held-out objects, as the ingest maps them.
    heldout: Vec<Vec<f64>>,
    /// Publishes of the ingest and the hops they took.
    publishes: (u64, u64),
}

/// Landmark selection, mapping the base and `SearchSystem::build` —
/// everything `setup_s` covers. The traced run also times the topology
/// and the routing tables by calling the same constructors `build`
/// uses.
fn set_up<T, Q, M>(plan: &Plan, world: &World<T, M>, metric: &M, tr: &mut Tracer) -> Built<T, Q, M>
where
    T: Borrow<Q> + Clone + Send + Sync + 'static,
    Q: ?Sized + Sync + 'static,
    M: Metric<Q> + Clone + Sync + Send + 'static,
{
    let span = tr.begin("landmark.select", 0);
    let mut rng = SimRng::new(SYSTEM_SEED).fork(0x1A4D);
    let sample: Vec<T> = rng
        .sample_indices(world.base, plan.sample)
        .into_iter()
        .map(|i| world.objects[i].clone())
        .collect();
    let landmarks = (world.select)(metric, &sample, plan.landmarks, &mut rng);
    tr.end(span);

    let span = tr.begin("landmark.map", 0);
    let mapper = Mapper::new(metric.clone(), landmarks);
    let points = mapper.map_all::<Q, T>(&world.objects[..world.base]);
    let boundary = boundary_from_sample::<T, Q, M>(&mapper, &sample, MARGIN).dims;
    tr.end(span);

    let cfg = SystemConfig {
        n_nodes: plan.n_nodes,
        seed: SYSTEM_SEED,
        threads: 1,
        force_parallel: false,
        ..SystemConfig::default()
    };
    if tr.on() {
        // The same constructors, with the same arguments, that
        // `SearchSystem::build` calls for the topology and the tables.
        let span = tr.begin("simnet.topology", 0);
        let topo_seed = cfg.seed ^ 0x7070_7070;
        let topo = if cfg.n_nodes <= 2048 {
            Topology::king_like(cfg.n_nodes, topo_seed, cfg.mean_rtt_ms)
        } else {
            Topology::king_like_scalable(cfg.n_nodes, topo_seed, cfg.mean_rtt_ms)
        };
        tr.end(span);
        let span = tr.begin("chord.tables", 0);
        let ring =
            OracleRing::with_random_ids(cfg.n_nodes, &mut SimRng::new(cfg.seed).fork(0x0126));
        let tables = ring.build_all_tables(cfg.n_successors, Some(&topo), cfg.pns_candidates);
        tr.end(span);
        drop((topo, ring, tables));
    }

    let oracle = Arc::new(Oracle {
        metric: metric.clone(),
        objects: Arc::clone(&world.objects),
        queries: Arc::clone(&world.queries),
        base: world.base,
        heldout: world.objects.len() - world.base,
        timed: AtomicBool::new(false),
        calls: AtomicU64::new(0),
        ns: AtomicU64::new(0),
        _q: PhantomData,
    });
    let spec = IndexSpec {
        name: "bench".to_string(),
        boundary,
        points,
        rotate: false,
        rotation: None,
    };
    let span = tr.begin("simsearch.build", 0);
    let dyn_oracle: Arc<dyn QueryDistance> = oracle.clone();
    let sys = SearchSystem::build(cfg, &[spec], dyn_oracle);
    tr.end(span);
    Built {
        sys,
        mapper,
        oracle,
        heldout: Vec::new(),
        publishes: (0, 0),
    }
}

/// Timings of every set-up and ingest of a run.
#[derive(Default)]
struct Samples {
    /// Seconds per set-up.
    setup_s: Vec<f64>,
    /// Publishes per second of each ingest chunk but the first.
    ingest: Vec<f64>,
}

/// One timed set-up, then the held-out objects published at runtime,
/// timed in chunks; checks that the stores grow by the batch. A
/// publish maps its object to the landmarks inside the timed chunk.
fn build_and_ingest<T, Q, M>(
    plan: &Plan,
    world: &World<T, M>,
    metric: &M,
    seed: u64,
    tr: &mut Tracer,
    out: &mut Outcome,
    samples: &mut Samples,
) -> Built<T, Q, M>
where
    T: Borrow<Q> + Clone + Send + Sync + 'static,
    Q: ?Sized + Sync + 'static,
    M: Metric<Q> + Clone + Sync + Send + 'static,
{
    let rep = samples.setup_s.len();
    let heldout = world.objects.len() - world.base;
    let span = tr.begin("setup", rep as u64);
    let t = Instant::now();
    let mut b = set_up(plan, world, metric, tr);
    samples.setup_s.push(t.elapsed().as_secs_f64());
    tr.end(span);

    let before = b.sys.total_entries(0);
    let hops_before = publish_hops(&b.sys);
    let ids: Vec<usize> = (world.base..world.objects.len()).collect();
    for (c, chunk) in ids.chunks(plan.ingest_chunk).enumerate() {
        let span = tr.begin("simsearch.publish_chunk", c as u64);
        let t = Instant::now();
        for &obj in chunk {
            let point = b.mapper.map(world.objects[obj].borrow()).into_vec();
            let origin = heldout_origin(seed, obj - world.base, plan.n_nodes);
            let now = b.sys.now();
            b.sys
                .inject_publish(now, origin, 0, ObjectId(obj as u32), &point);
            b.sys.run_to_quiescence();
            b.heldout.push(point);
        }
        let dt = t.elapsed().as_secs_f64();
        tr.end(span);
        // The first chunk of every ingest warms the stores up.
        if c > 0 {
            samples.ingest.push(chunk.len() as f64 / dt);
        }
    }
    let after = b.sys.total_entries(0);
    if after != before + heldout {
        out.problem(format!(
            "set-up {rep}: ingest of {heldout} objects grew the stores from {before} to {after}"
        ));
    }
    let hops_after = publish_hops(&b.sys);
    b.publishes = (hops_after.0 - hops_before.0, hops_after.1 - hops_before.1);
    b
}

/// `SearchSystem::inject_query`, with a panic inside it turned into an
/// error. The panic fires before the simulator is touched, so the
/// system stays usable.
fn inject(
    sys: &mut SearchSystem,
    at: simnet::SimTime,
    origin: AgentId,
    qid: QueryId,
    q: &QuerySpec,
) -> Result<(), String> {
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sys.inject_query(at, origin, qid, q)
    }));
    std::panic::set_hook(quiet);
    r.map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        format!("inject_query panicked: {msg}")
    })
}

/// Seeded issuing node for held-out object `i`'s publish and check.
fn heldout_origin(seed: u64, i: usize, n_nodes: usize) -> AgentId {
    let mut rng = SimRng::new(seed).fork(0x0B0B ^ i as u64);
    AgentId(rng.index(n_nodes))
}

/// Run one simulator workload and add its metrics to `out`.
pub fn run<T, Q, M>(
    plan: &Plan,
    world: World<T, M>,
    metric: M,
    seed: u64,
    tr: &mut Tracer,
    out: &mut Outcome,
) where
    T: Borrow<Q> + Clone + Send + Sync + 'static,
    Q: ?Sized + Sync + 'static,
    M: Metric<Q> + Clone + Sync + Send + 'static,
{
    let heldout = world.objects.len() - world.base;
    let n_queries = world.queries.len();
    for (i, t) in world.truth.iter().enumerate() {
        if t.within < t.top.len() || t.top.is_empty() {
            out.problem(format!(
                "query {i}: radius {} admits {} objects, fewer than k",
                t.radius, t.within
            ));
        }
    }

    // Set-ups: the first builds the system the checks and the queries
    // run on; each of the others builds a system of its own between
    // query blocks, publishes the held-out objects into it and drops
    // it. Set-up and ingest samples so span the run as the query
    // blocks do, and a slow stretch of the host weighs on every metric
    // alike.
    let mut samples = Samples::default();
    let Built {
        mut sys,
        mapper,
        oracle,
        heldout: heldout_points,
        publishes,
    } = build_and_ingest(plan, &world, &metric, seed, tr, out, &mut samples);
    let load_max = sys.load_per_node(0).into_iter().max().unwrap_or(0);

    // Each held-out object must come back from a query centred on it.
    let own = world.own;
    for (h, point) in heldout_points.into_iter().enumerate() {
        let obj = world.base + h;
        let origin = heldout_origin(seed, h, plan.n_nodes);
        let q = QuerySpec {
            index: 0,
            point,
            radius: 0.0,
            truth: Vec::new(),
        };
        let now = sys.now();
        let verdict = match inject(&mut sys, now, origin, h as QueryId, &q) {
            Err(e) => Err(format!("check query for object {obj}: {e}")),
            Ok(()) => {
                sys.run_to_quiescence();
                match sys.issued_query(origin, h as QueryId) {
                    None => Err(format!("check query for object {obj} was never issued")),
                    Some(iq) => {
                        let got: Vec<(u32, f64)> =
                            iq.merged.iter().map(|&(o, d)| (o.0, d)).collect();
                        let center = &world.objects[obj];
                        check_contains(
                            &got,
                            obj as u32,
                            |id| own(center, &world.objects[id as usize]),
                            plan.tol,
                        )
                    }
                }
            }
        };
        out.op(verdict);
    }

    // Queries run in blocks: block 0 warms up; the others are timed,
    // and the traced run alternates traced and untraced blocks. Counts
    // cover every query.
    let mut lat_ms = Vec::new();
    let mut traced_lat_ms = Vec::new();
    let mut block_rates = Vec::new();
    let mut hops = Vec::new();
    let mut response_ms = Vec::new();
    let (mut run_ns, mut traced_queries, mut events_traced) = (0u64, 0u64, 0u64);
    let before = counters(&sys);
    let events_before = sys.net_stats().events;
    let (calls0, ns0) = oracle.totals();
    let ids: Vec<usize> = (0..n_queries).collect();
    let gap = (n_queries / BLOCK / plan.setup_reps).max(1);
    for (b, block) in ids.chunks(BLOCK).enumerate() {
        if b % gap == 0 && b > 0 && samples.setup_s.len() < plan.setup_reps {
            drop(build_and_ingest(
                plan,
                &world,
                &metric,
                seed,
                tr,
                out,
                &mut samples,
            ));
        }
        let traced = tr.on() && b % 2 == 1;
        oracle.timed.store(traced, Ordering::Relaxed);
        let block_events = sys.net_stats().events;
        let t_block = Instant::now();
        for &i in block {
            let qid = (heldout + i) as QueryId;
            let origin = AgentId(world.origins[i]);
            let span = tr.begin_if(traced, "query", u64::from(qid));
            let t = Instant::now();
            let inner = tr.begin_if(traced, "landmark.map_query", u64::from(qid));
            let spec = QuerySpec {
                index: 0,
                point: mapper.map(world.queries[i].borrow()).into_vec(),
                radius: world.truth[i].radius,
                truth: Vec::new(),
            };
            tr.end(inner);
            let inner = tr.begin_if(traced, "simsearch.run", u64::from(qid));
            let now = sys.now();
            let injected = inject(&mut sys, now, origin, qid, &spec);
            if injected.is_ok() {
                sys.run_to_quiescence();
            }
            let ms = t.elapsed().as_secs_f64() * 1e3;
            run_ns += tr.end(inner);
            let verdict = match (injected, sys.issued_query(origin, qid)) {
                (Err(e), _) => Err(format!("query {qid}: {e}")),
                (Ok(()), None) => Err(format!("query {qid} was never issued")),
                (Ok(()), Some(iq)) => {
                    hops.push(f64::from(iq.max_hops));
                    if let Some(last) = iq.last_result {
                        response_ms.push(last.since(iq.issued_at).as_millis_f64());
                    }
                    match (b, traced) {
                        (0, _) => {}
                        (_, true) => traced_lat_ms.push(ms),
                        (_, false) => lat_ms.push(ms),
                    }
                    let got: Vec<(u32, f64)> = iq.merged.iter().map(|&(o, d)| (o.0, d)).collect();
                    let center = &world.queries[i];
                    check_top_k(
                        &got,
                        &world.truth[i],
                        |id| own(center, &world.objects[id as usize]),
                        plan.tol,
                    )
                }
            };
            tr.end(span);
            out.op(verdict);
        }
        if b > 0 && !traced {
            block_rates.push(block.len() as f64 / t_block.elapsed().as_secs_f64());
        }
        if traced {
            traced_queries += block.len() as u64;
            events_traced += sys.net_stats().events - block_events;
        }
    }
    oracle.timed.store(false, Ordering::Relaxed);
    if lat_ms.is_empty() || hops.is_empty() || response_ms.is_empty() {
        out.problem("no query completed in the timed blocks".into());
        return;
    }
    let (calls1, ns1) = oracle.totals();
    let (dist_calls, dist_ns) = (calls1 - calls0, ns1 - ns0);
    tr.count("metric.distance", dist_calls, dist_ns);
    let per_q = PerQuery::new(&counters(&sys), &before, n_queries);
    let events_all = sys.net_stats().events - events_before;
    let Samples {
        setup_s,
        ingest: ingest_rates,
    } = samples;
    let setup_med = median(&setup_s);

    if !tr.on() {
        out.metric("setup_s", setup_med, "s");
        out.metric("query_per_s", median(&block_rates), "1/s");
        out.metric("query_p50_ms", median(&lat_ms), "ms");
        out.metric("query_p90_ms", percentile(&lat_ms, 90.0), "ms");
        out.metric("ingest_per_s", median(&ingest_rates), "1/s");
        out.metric("msgs_per_query", per_q.msgs(), "count");
        out.metric("bytes_per_query", per_q.bytes(), "bytes");
        out.metric("hops_per_query", mean(&hops), "count");
        out.metric("response_sim_p50_ms", median(&response_ms), "ms");
        return;
    }

    // Per-layer metrics of the traced run.
    let tq = traced_queries.max(1) as f64;
    let t_snap = Instant::now();
    let span = tr.begin("simsearch.telemetry_snapshot", 0);
    let snapshot = sys.telemetry_snapshot();
    tr.end(span);
    let snapshot_s = t_snap.elapsed().as_secs_f64();
    drop(snapshot);
    let med_span = |name: &str| -> f64 {
        let d: Vec<f64> = tr
            .durations(name)
            .iter()
            .map(|&ns| ns as f64 / 1e9)
            .collect();
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    };
    let traces = sys.telemetry().lock().traces.len() as u64;
    let overhead = median(&traced_lat_ms) / median(&lat_ms) - 1.0;

    out.metric("landmark.select_s", med_span("landmark.select"), "s");
    out.metric("landmark.map_s", med_span("landmark.map"), "s");
    out.metric("simnet.topology_s", med_span("simnet.topology"), "s");
    out.metric(
        "simnet.events_per_query",
        events_all as f64 / n_queries as f64,
        "count",
    );
    out.metric(
        "simnet.events_per_s",
        events_traced as f64 / (run_ns as f64 / 1e9),
        "1/s",
    );
    out.metric(
        "simnet.peak_queue",
        sys.net_stats().peak_queue as f64,
        "count",
    );
    out.metric("chord.tables_s", med_span("chord.tables"), "s");
    out.metric("simsearch.build_s", med_span("simsearch.build"), "s");
    out.metric(
        "simsearch.engine_ms_per_query",
        (run_ns.saturating_sub(dist_ns)) as f64 / 1e6 / tq,
        "ms",
    );
    search_layer(
        out,
        &per_q,
        &SearchState {
            load_max: load_max as u64,
            publishes,
            traces,
            snapshot_s,
        },
    );
    out.metric(
        "metric.dist_calls_per_query",
        dist_calls as f64 / tq,
        "count",
    );
    out.metric("metric.dist_ms_per_query", dist_ns as f64 / 1e6 / tq, "ms");
    out.metric(
        "metric.dist_ns_per_call",
        ratio(dist_ns as f64, dist_calls as f64),
        "ns",
    );
    crate::absent(out, crate::NODE_LAYER);
    out.metric("trace.overhead_pct", overhead * 100.0, "%");
    out.note("setup_s", setup_med);
    out.note("ingest_per_s", median(&ingest_rates));
    out.note("query_p50_ms.untraced_blocks", median(&lat_ms));
    out.note("query_p50_ms.traced_blocks", median(&traced_lat_ms));
    out.note("query_p90_ms.untraced_blocks", percentile(&lat_ms, 90.0));
    out.note(
        "query_p90_ms.traced_blocks",
        percentile(&traced_lat_ms, 90.0),
    );
}
