//! `node_loopback`: a small cluster of real `node` runtimes on loopback
//! TCP, driven through the client plane.
//!
//! The runtimes run in this process, one `runtime::run_server` thread
//! each, so the cluster lives and dies with the run. Every wait has a
//! deadline; readiness and completion are polled with `Client::status`
//! and `Client::stats` directly, never through the 50 ms-sleep helpers.
//! Traffic crosses the loopback device, not a real link.

use crate::measure::{
    mean, median, nproc, percentile, ratio, search_layer, Counts, Outcome, PerQuery, SearchState,
    COUNTERS,
};
use crate::trace::Tracer;
use crate::truth::{brute_force, check_contains, check_top_k, l2_f64, par_map, Truth};
use crate::worlds::CORPUS_SEED;
use node::client::{Client, Report};
use node::runtime::{run_server, ServerOpts};
use node::scenario::{Scenario, KNN_K};
use node::wire::{self, Frame, Role, StatsReport};
use simnet::SimRng;
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cluster size.
const NODES: usize = 4;
/// Index-space dimensions of the L2 corpus.
const DIMS: usize = 3;
/// Objects stored at set-up.
const BASE: usize = 2_000;
/// Objects published at runtime after each set-up.
const HELDOUT: usize = 1_000;
/// Publishes per timed ingest chunk.
const INGEST_CHUNK: usize = 50;
/// Queries per round; the first round warms up.
const BLOCK: usize = 500;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Longest a query may take to show its complete answer.
const QUERY_DEADLINE: Duration = Duration::from_secs(2);
/// Longest the cluster may take to form, or to store a batch.
const CLUSTER_DEADLINE: Duration = Duration::from_secs(20);

/// Queries per ten seconds of `--seconds`.
const QUERIES_PER_10S: usize = 25_000;

/// Summed counters, publish-hop histogram `(count, sum)`, largest load
/// and retained traces of a set of stats reports.
struct Totals {
    counters: Counts,
    publish_hops: (u64, u64),
    load_max: u64,
    traces: u64,
}

impl Totals {
    fn of(reports: &[StatsReport]) -> Totals {
        let mut t = Totals {
            counters: [0; 11],
            publish_hops: (0, 0),
            load_max: 0,
            traces: 0,
        };
        for r in reports {
            for (name, v) in &r.counters {
                if let Some(i) = COUNTERS.iter().position(|c| c == name) {
                    t.counters[i] += v;
                }
            }
            for h in &r.histograms {
                if h.name == "publish.hops" {
                    t.publish_hops.0 += h.count;
                    t.publish_hops.1 += h.sum;
                }
            }
            t.load_max = t.load_max.max(r.load);
            t.traces += r.queries.len() as u64;
        }
        t
    }
}

/// A running cluster. Dropping it shuts every member down and waits,
/// with a deadline, for their server threads to end.
struct Cluster {
    addrs: Vec<String>,
    servers: Vec<JoinHandle<Result<(), String>>>,
}

/// Free loopback addresses, reserved by binding them all at once.
fn free_addrs(n: usize) -> Result<Vec<String>, String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("cannot reserve a loopback port: {e}"))?;
    listeners
        .iter()
        .map(|l| {
            l.local_addr()
                .map(|a| a.to_string())
                .map_err(|e| format!("reserved port has no address: {e}"))
        })
        .collect()
}

/// Is the member at `addr` past bootstrap and serving clients? The
/// handshake a `Client` makes, with timeouts, so it can be retried
/// without the client's 100 ms back-off.
fn serves_clients(addr: &str, deadline: Instant) -> bool {
    let Ok(mut conn) = TcpStream::connect(addr) else {
        return false;
    };
    let wait = deadline
        .saturating_duration_since(Instant::now())
        .max(Duration::from_millis(1));
    if conn.set_read_timeout(Some(wait)).is_err() || conn.set_write_timeout(Some(wait)).is_err() {
        return false;
    }
    let hello = Frame::Hello {
        role: Role::Client,
        index: 0,
    };
    if wire::write_frame(&mut conn, &hello).is_err()
        || wire::write_frame(&mut conn, &Frame::MembersRequest).is_err()
    {
        return false;
    }
    matches!(wire::read_frame(&mut conn), Ok(Some(Frame::Members { members })) if members.len() == NODES)
}

impl Cluster {
    /// Start the members and wait until every one serves clients.
    fn start(sc: Scenario) -> Result<Cluster, String> {
        let deadline = Instant::now() + CLUSTER_DEADLINE;
        let addrs = free_addrs(NODES)?;
        let mut cluster = Cluster {
            addrs: addrs.clone(),
            servers: Vec::new(),
        };
        let spawn = |listen: &str, join: Option<String>| {
            let opts = ServerOpts {
                listen: listen.to_string(),
                join,
                expect: NODES,
                scenario: sc,
            };
            std::thread::spawn(move || run_server(&opts))
        };
        cluster.servers.push(spawn(&addrs[0], None));
        // Joiners wait 100 ms between failed connects; start them only
        // once the seed accepts. A connection closed without a frame is
        // ignored by the seed's bootstrap.
        while TcpStream::connect(&addrs[0]).is_err() {
            if Instant::now() > deadline {
                return Err("the seed never started listening".into());
            }
            if cluster.servers[0].is_finished() {
                return Err("the seed exited during start-up".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        for a in &addrs[1..] {
            cluster.servers.push(spawn(a, Some(addrs[0].clone())));
        }
        for a in &addrs {
            while !serves_clients(a, deadline) {
                if Instant::now() > deadline {
                    return Err(format!("member {a} did not serve clients in time"));
                }
                if cluster.servers.iter().any(JoinHandle::is_finished) {
                    return Err("a member exited during bootstrap".into());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(cluster)
    }

    /// One client per member, in `addrs` order.
    fn clients(&self) -> Result<Vec<Client>, String> {
        self.addrs.iter().map(|a| Client::connect(a)).collect()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for a in &self.addrs {
            let Ok(mut conn) = TcpStream::connect(a) else {
                continue;
            };
            let limit = Some(Duration::from_secs(2));
            let _ = conn.set_read_timeout(limit);
            let _ = conn.set_write_timeout(limit);
            let hello = Frame::Hello {
                role: Role::Client,
                index: 0,
            };
            if wire::write_frame(&mut conn, &hello).is_ok()
                && wire::write_frame(&mut conn, &Frame::Shutdown).is_ok()
            {
                let _ = wire::read_frame(&mut conn);
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        for h in self.servers.drain(..) {
            while !h.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            if h.is_finished() {
                match h.join() {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => eprintln!("perfbench: member ended with an error: {e}"),
                    Err(_) => eprintln!("perfbench: member panicked"),
                }
            } else {
                eprintln!("perfbench: member did not stop within the deadline");
            }
        }
    }
}

/// Stats of every member.
fn stats(clients: &mut [Client]) -> Result<Vec<StatsReport>, String> {
    clients.iter_mut().map(Client::stats).collect()
}

/// Wait until the members together store `want` entries.
fn await_load(clients: &mut [Client], want: u64) -> Result<(), String> {
    let deadline = Instant::now() + CLUSTER_DEADLINE;
    loop {
        let load: u64 = clients
            .iter_mut()
            .map(|c| c.stats().map(|s| s.load))
            .sum::<Result<u64, String>>()?;
        if load == want {
            return Ok(());
        }
        if load > want {
            return Err(format!("members store {load} entries, expected {want}"));
        }
        if Instant::now() > deadline {
            return Err(format!(
                "members store {load} of {want} entries after the deadline"
            ));
        }
        // A short pause, so the poll does not take a core from the
        // members it waits for.
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// The inputs: corpus (base then held-out), queries and their truth.
struct World {
    points: Vec<Vec<f64>>,
    queries: Vec<Vec<f64>>,
    truth: Vec<Truth>,
}

/// The corpus is the same in every run; `seed` draws the queries.
fn world(seed: u64, n_queries: usize) -> World {
    let mut rng = SimRng::new(CORPUS_SEED).fork(0x10_0BAC);
    let points: Vec<Vec<f64>> = (0..BASE + HELDOUT)
        .map(|_| (0..DIMS).map(|_| 0.001 + 0.998 * rng.f64()).collect())
        .collect();
    let mut rng = SimRng::new(seed).fork(0x0419);
    let queries: Vec<Vec<f64>> = (0..n_queries)
        .map(|_| (0..DIMS).map(|_| 0.1 + 0.8 * rng.f64()).collect())
        .collect();
    let truth = par_map(&queries, |q| {
        brute_force(
            points.len(),
            KNN_K,
            |top| top[KNN_K - 1].1 * 1.05,
            |i| l2_f64(q, &points[i]),
        )
    });
    World {
        points,
        queries,
        truth,
    }
}

/// Per-worker results of one query round.
#[derive(Default)]
struct RoundLog {
    lat_ms: Vec<f64>,
    verdicts: Vec<Result<(), String>>,
    hops: Vec<f64>,
    polls: u64,
    rtt_us: Vec<f64>,
    frame_bytes: u64,
}

/// One request frame and its reply, run through the codec the way the
/// client does, to time encoding and decoding.
fn time_codec(tr: &mut Tracer, frames: [&Frame; 2], log: &mut RoundLog) {
    for f in frames {
        let t = Instant::now();
        let bytes = wire::encode_frame(f);
        let enc = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let decoded = wire::decode_frame(&bytes);
        let dec = t.elapsed().as_nanos() as u64;
        debug_assert!(matches!(decoded, Ok(Some(_))));
        tr.count("node.wire.encode", 1, enc);
        tr.count("node.wire.decode", 1, dec);
        log.frame_bytes += bytes.len() as u64;
    }
}

fn report_frame(qid: u32, r: &Report) -> Frame {
    Frame::QueryReport {
        qid,
        responses: r.responses,
        max_hops: r.max_hops,
        degraded: r.degraded,
        merged: r.merged.clone(),
    }
}

/// Send query `i` of the round as `qid` and poll its origin until the
/// answer is complete or the deadline passes.
fn one_query(
    w: &World,
    client: &mut Client,
    qid: u32,
    i: usize,
    tr: &mut Tracer,
    log: &mut RoundLog,
) -> Result<(f64, Report), String> {
    let center = &w.queries[i];
    let radius = w.truth[i].radius;
    let span = tr.begin("query", u64::from(qid));
    let t0 = Instant::now();
    let inner = tr.begin("node.client.query", u64::from(qid));
    let mut report = client.query(qid, 0, center, radius)?;
    tr.end(inner);
    if tr.on() {
        let req = Frame::ClientQuery {
            qid,
            index: 0,
            center: center.clone(),
            radius,
        };
        time_codec(tr, [&req, &report_frame(qid, &report)], log);
    }
    let check = |r: &Report| {
        check_top_k(
            &r.merged,
            &w.truth[i],
            |id| l2_f64(center, &w.points[id as usize]),
            1e-9,
        )
    };
    let verdict = loop {
        let v = check(&report);
        if v.is_ok() || t0.elapsed() > QUERY_DEADLINE {
            break v;
        }
        let t = Instant::now();
        let inner = tr.begin("node.client.poll", u64::from(qid));
        report = client.status(qid)?;
        tr.end(inner);
        log.polls += 1;
        if tr.on() {
            log.rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
            time_codec(
                tr,
                [&Frame::QueryStatus { qid }, &report_frame(qid, &report)],
                log,
            );
        }
    };
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    tr.end(span);
    verdict.map(|()| (ms, report))
}

/// Run queries `first..first + BLOCK`: `workers` closed-loop clients
/// split them.
fn round(
    w: &World,
    clients: &mut [Vec<Client>],
    first: usize,
    traced: bool,
    tr: &mut Tracer,
) -> (f64, RoundLog) {
    let workers = clients.len();
    let t = Instant::now();
    let logs: Vec<(RoundLog, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(wi, conns)| {
                let mut wtr = tr.fork(traced);
                s.spawn(move || {
                    let mut log = RoundLog::default();
                    for i in (first + wi..first + BLOCK).step_by(workers) {
                        let qid = (HELDOUT + i) as u32;
                        let origin = &mut conns[i % NODES];
                        match one_query(w, origin, qid, i, &mut wtr, &mut log) {
                            Ok((ms, report)) => {
                                log.lat_ms.push(ms);
                                log.hops.push(f64::from(report.max_hops));
                                log.verdicts.push(Ok(()));
                            }
                            Err(e) => log.verdicts.push(Err(format!("query {qid}: {e}"))),
                        }
                    }
                    (log, wtr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query worker panicked"))
            .collect()
    });
    let wall = t.elapsed().as_secs_f64();
    let mut all = RoundLog::default();
    for (log, wtr) in logs {
        tr.absorb(wtr);
        all.lat_ms.extend(log.lat_ms);
        all.verdicts.extend(log.verdicts);
        all.hops.extend(log.hops);
        all.polls += log.polls;
        all.rtt_us.extend(log.rtt_us);
        all.frame_bytes += log.frame_bytes;
    }
    (wall, all)
}

/// Timings of every set-up and ingest of a run.
#[derive(Default)]
struct Samples {
    /// Seconds per set-up: bootstrap plus load.
    setup_s: Vec<f64>,
    /// Seconds until every member served clients.
    bootstrap_s: Vec<f64>,
    /// Seconds to store the initial corpus.
    load_s: Vec<f64>,
    /// Publishes per second of each ingest chunk but the first.
    ingest: Vec<f64>,
}

/// A cluster that has been set up and ingested into. Fields drop in
/// order: the clients close before the cluster shuts down.
struct Formed {
    control: Vec<Client>,
    conns: Vec<Vec<Client>>,
    /// Publish-hop histogram `(count, sum)` before the ingest.
    hops_before: (u64, u64),
    cluster: Cluster,
}

/// One timed set-up (bootstrap plus the initial corpus stored), then
/// the held-out objects published through the client plane, timed in
/// chunks until the members store them.
fn form_and_ingest(
    sc: Scenario,
    w: &World,
    workers: usize,
    tr: &mut Tracer,
    samples: &mut Samples,
) -> Result<Formed, String> {
    let rep = samples.setup_s.len() as u64;
    if tr.on() {
        // The routing tables every member builds for itself.
        let span = tr.begin("chord.tables", rep);
        let tables = sc.ring().build_all_tables(16, None, 16);
        tr.end(span);
        drop(tables);
    }
    let setup = tr.begin("setup", rep);
    let t = Instant::now();
    let span = tr.begin("node.bootstrap", rep);
    let cluster = Cluster::start(sc)?;
    let mut control = cluster.clients()?;
    let conns = (0..workers)
        .map(|_| cluster.clients())
        .collect::<Result<Vec<_>, _>>()?;
    tr.end(span);
    let t_boot = t.elapsed().as_secs_f64();
    let span = tr.begin("node.load", rep);
    for (i, p) in w.points[..BASE].iter().enumerate() {
        control[i % NODES].publish(0, i as u32, p)?;
    }
    await_load(&mut control, BASE as u64)?;
    tr.end(span);
    let total = t.elapsed().as_secs_f64();
    tr.end(setup);
    samples.setup_s.push(total);
    samples.bootstrap_s.push(t_boot);
    samples.load_s.push(total - t_boot);

    let hops_before = Totals::of(&stats(&mut control)?).publish_hops;
    for (c, chunk) in (BASE..BASE + HELDOUT)
        .collect::<Vec<_>>()
        .chunks(INGEST_CHUNK)
        .enumerate()
    {
        let span = tr.begin("node.publish_chunk", c as u64);
        let t = Instant::now();
        for &obj in chunk {
            control[obj % NODES].publish(0, obj as u32, &w.points[obj])?;
        }
        await_load(&mut control, (chunk[chunk.len() - 1] + 1) as u64)?;
        let dt = t.elapsed().as_secs_f64();
        tr.end(span);
        if c > 0 {
            samples.ingest.push(chunk.len() as f64 / dt);
        }
    }
    Ok(Formed {
        control,
        conns,
        hops_before,
        cluster,
    })
}

/// Run the workload and add its metrics to `out`.
pub fn run(seed: u64, seconds: u64, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let n_queries = crate::worlds::queries_for(seconds, QUERIES_PER_10S, BLOCK) / BLOCK * BLOCK;
    let w = world(seed, n_queries);
    for (i, t) in w.truth.iter().enumerate() {
        if t.within < KNN_K {
            out.problem(format!(
                "query {i}: radius admits {} objects, fewer than k",
                t.within
            ));
        }
    }
    let sc = Scenario {
        n_nodes: NODES,
        dims: DIMS,
        depth: 12,
        n_objects: BASE,
        seed: CORPUS_SEED,
    };
    let workers = nproc().clamp(1, 2);

    // Set-ups: the first forms the cluster the checks and the queries
    // run on; each of the others forms a cluster of its own between
    // query rounds, publishes the held-out objects into it and shuts
    // it down. Set-up and ingest samples so span the run as the query
    // rounds do.
    let mut samples = Samples::default();
    let Formed {
        mut control,
        mut conns,
        hops_before,
        cluster,
    } = form_and_ingest(sc, &w, workers, tr, &mut samples)?;

    // Each held-out object must come back from a query centred on it.
    for h in 0..HELDOUT {
        let obj = BASE + h;
        let qid = h as u32;
        let client = &mut control[h % NODES];
        let center = &w.points[obj];
        let deadline = Instant::now() + QUERY_DEADLINE;
        let mut report = client.query(qid, 0, center, 0.0)?;
        let verdict = loop {
            let v = check_contains(
                &report.merged,
                obj as u32,
                |id| l2_f64(center, &w.points[id as usize]),
                1e-9,
            );
            if v.is_ok() || Instant::now() > deadline {
                break v;
            }
            report = client.status(qid)?;
        };
        out.op(verdict);
    }

    // Rounds of `BLOCK` distinct queries: round 0 warms up, the traced
    // run alternates traced and untraced rounds, counts cover them all.
    let before = Totals::of(&stats(&mut control)?);
    let mut hops = Vec::new();
    let mut lat_ms = Vec::new();
    let mut traced_lat_ms = Vec::new();
    let mut round_rates = Vec::new();
    let mut polls = 0u64;
    let mut timed_queries = 0u64;
    let mut rtt_us = Vec::new();
    let mut frame_bytes = 0u64;
    let mut traced_queries = 0u64;
    let rounds = n_queries / BLOCK;
    let gap = (rounds / SETUP_REPS).max(1);
    for r in 0..rounds {
        if r % gap == 0 && r > 0 && samples.setup_s.len() < SETUP_REPS {
            drop(form_and_ingest(sc, &w, workers, tr, &mut samples)?);
        }
        let traced = tr.on() && r % 2 == 1;
        let (wall, log) = round(&w, &mut conns, r * BLOCK, traced, tr);
        for v in log.verdicts {
            out.op(v);
        }
        hops.extend(log.hops);
        if r == 0 {
            continue;
        }
        round_rates.push(BLOCK as f64 / wall);
        polls += log.polls;
        timed_queries += BLOCK as u64;
        if traced {
            traced_lat_ms.extend(log.lat_ms);
            rtt_us.extend(log.rtt_us);
            frame_bytes += log.frame_bytes;
            traced_queries += BLOCK as u64;
        } else {
            lat_ms.extend(log.lat_ms);
        }
    }
    let t_snap = Instant::now();
    let span = tr.begin("node.stats", 0);
    let end = Totals::of(&stats(&mut control)?);
    tr.end(span);
    let snapshot_s = t_snap.elapsed().as_secs_f64();
    drop(conns);
    drop(control);
    drop(cluster);

    let Samples {
        setup_s,
        bootstrap_s,
        load_s,
        ingest: ingest_rates,
    } = samples;
    let per_q = PerQuery::new(&end.counters, &before.counters, n_queries);
    if lat_ms.is_empty() {
        return Err("no query completed in the timed rounds".into());
    }
    if !tr.on() {
        out.metric("setup_s", median(&setup_s), "s");
        out.metric("query_per_s", median(&round_rates), "1/s");
        out.metric("query_p50_ms", median(&lat_ms), "ms");
        out.metric("query_p90_ms", percentile(&lat_ms, 90.0), "ms");
        out.metric("ingest_per_s", median(&ingest_rates), "1/s");
        out.metric("msgs_per_query", per_q.msgs(), "count");
        out.metric("bytes_per_query", per_q.bytes(), "bytes");
        out.metric("hops_per_query", mean(&hops), "count");
        // No simulated clock here: the time to the complete answer as
        // the client sees it, the same sample as `query_p50_ms`.
        out.metric("response_sim_p50_ms", median(&lat_ms), "ms");
        return Ok(());
    }

    let tq = traced_queries.max(1) as f64;
    let (enc_n, enc_ns) = tr.counter("node.wire.encode");
    let (dec_n, dec_ns) = tr.counter("node.wire.decode");
    let overhead = median(&traced_lat_ms) / median(&lat_ms) - 1.0;
    crate::absent(
        out,
        &[
            ("landmark.select_s", "s"),
            ("landmark.map_s", "s"),
            ("simnet.topology_s", "s"),
            ("simnet.events_per_query", "count"),
            ("simnet.events_per_s", "1/s"),
            ("simnet.peak_queue", "count"),
        ],
    );
    let tables: Vec<f64> = tr
        .durations("chord.tables")
        .iter()
        .map(|&ns| ns as f64 / 1e9)
        .collect();
    out.metric("chord.tables_s", median(&tables), "s");
    crate::absent(
        out,
        &[
            ("simsearch.build_s", "s"),
            ("simsearch.engine_ms_per_query", "ms"),
        ],
    );
    search_layer(
        out,
        &per_q,
        &SearchState {
            load_max: end.load_max,
            publishes: (
                end.publish_hops.0 - hops_before.0,
                end.publish_hops.1 - hops_before.1,
            ),
            traces: end.traces,
            snapshot_s,
        },
    );
    out.metric(
        "metric.dist_calls_per_query",
        per_q.get("search.refine.dist_calls"),
        "count",
    );
    crate::absent(
        out,
        &[
            ("metric.dist_ms_per_query", "ms"),
            ("metric.dist_ns_per_call", "ns"),
        ],
    );
    out.metric("node.bootstrap_s", median(&bootstrap_s), "s");
    out.metric("node.load_s", median(&load_s), "s");
    out.metric(
        "node.client.rtt_p50_us",
        if rtt_us.is_empty() {
            0.0
        } else {
            median(&rtt_us)
        },
        "us",
    );
    out.metric(
        "node.client.polls_per_query",
        polls as f64 / timed_queries.max(1) as f64,
        "count",
    );
    out.metric(
        "node.client.bytes_per_query",
        frame_bytes as f64 / tq,
        "bytes",
    );
    out.metric(
        "node.wire.encode_ns_per_frame",
        ratio(enc_ns as f64, enc_n as f64),
        "ns",
    );
    out.metric(
        "node.wire.decode_ns_per_frame",
        ratio(dec_ns as f64, dec_n as f64),
        "ns",
    );
    out.metric("node.traces_retained", end.traces as f64, "count");
    out.metric("trace.overhead_pct", overhead * 100.0, "%");
    out.note("setup_s", median(&setup_s));
    out.note("ingest_per_s", median(&ingest_rates));
    out.note("query_p50_ms.untraced_blocks", median(&lat_ms));
    out.note("query_p50_ms.traced_blocks", median(&traced_lat_ms));
    out.note("query_p90_ms.untraced_blocks", percentile(&lat_ms, 90.0));
    out.note(
        "query_p90_ms.traced_blocks",
        percentile(&traced_lat_ms, 90.0),
    );
    Ok(())
}
