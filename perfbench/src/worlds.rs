//! Inputs of the two simulator workloads, made from the seed.

use crate::measure::Outcome;
use crate::sim::{self, Plan, World, BLOCK};
use crate::trace::Tracer;
use crate::truth::{brute_force, l2_f32, levenshtein, par_map};
use landmark::{greedy, kmeans};
use metric::{EditDistance, L2};
use simnet::SimRng;
use std::sync::Arc;
use workloads::{ClusteredParams, ClusteredVectors, StringWorkload, StringWorkloadParams};

/// Result-list length: the system's default `knn_k`.
const K: usize = 10;

/// Seed of the corpora and of the systems that index them. The run's
/// `--seed` draws the queries and where operations enter the overlay;
/// the corpus, the landmarks and the overlay stay the same, so runs
/// with different seeds measure the same system on different samples
/// of its query stream.
pub const CORPUS_SEED: u64 = 0x00C0_4B05;

/// Queries of a run of `seconds`: `per_10s` per ten seconds, at least
/// ten blocks. The work of a run is fixed by its arguments, never by
/// how fast it goes, so memory and every count are the same on any
/// machine and in every run with the same seed.
pub fn queries_for(seconds: u64, per_10s: usize, block: usize) -> usize {
    (per_10s * seconds as usize / 10).max(10 * block)
}

/// `sim_ring`: 4096 simulated nodes (above the 2048-node dense-topology
/// threshold) holding ~5 clustered 12-d vectors each, answering range
/// queries wide enough to fan out to hundreds of nodes.
pub fn sim_ring(seed: u64, seconds: u64, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    const BASE: usize = 20_000;
    const HELDOUT: usize = 2_000;
    /// Radius as a share of the data box's diameter.
    const WIDE: f64 = 0.035;
    let n_queries = queries_for(seconds, 750, BLOCK);
    let data = ClusteredVectors::generate(
        ClusteredParams {
            dims: 12,
            clusters: 20,
            deviation: 6.0,
            n_objects: BASE + HELDOUT,
            ..ClusteredParams::default()
        },
        CORPUS_SEED,
    );
    // Query `i` comes from cluster `i mod 20`: every run draws from the
    // clusters in the same proportions, and the seed picks the points.
    let mut rng = SimRng::new(seed).fork(0x51);
    let queries: Vec<Vec<f32>> = (0..n_queries)
        .map(|i| {
            let c = &data.centers[i % data.centers.len()];
            c.iter()
                .map(|&x| (f64::from(x) + 6.0 * normal(&mut rng)).clamp(0.0, 100.0) as f32)
                .collect()
        })
        .collect();
    let wide = WIDE * data.max_distance();
    let objects = Arc::new(data.objects);
    let truth = par_map(&queries, |q| {
        brute_force(
            objects.len(),
            K,
            |top| wide.max(top[K - 1].1 * 1.05),
            |i| l2_f32(q, &objects[i]),
        )
    });
    let plan = Plan {
        n_nodes: 4096,
        landmarks: 5,
        sample: 250,
        setup_reps: 15,
        ingest_chunk: 200,
        tol: 1e-6,
    };
    let world = World {
        objects,
        base: BASE,
        queries: Arc::new(queries),
        origins: origins(seed, n_queries, plan.n_nodes),
        truth,
        own: |a: &Vec<f32>, b: &Vec<f32>| l2_f32(a, b),
        select: |m, sample, k, rng| kmeans::<_, [f32], _>(m, sample, k, 10, rng),
    };
    sim::run::<Vec<f32>, [f32], L2>(&plan, world, L2::bounded(12, 0.0, 100.0), seed, tr, out);
    Ok(())
}

/// `sim_store`: 64 simulated nodes holding DNA-like sequences in
/// mutation families under the edit distance, a metric whose calls
/// cost microseconds. A query is a mutated family member with a radius
/// at its tenth-nearest sequence.
pub fn sim_store(
    seed: u64,
    seconds: u64,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    const FAMILIES: usize = 1_000;
    const MEMBERS: usize = 9;
    const HELDOUT: usize = 1_000;
    let n_queries = queries_for(seconds, 125, BLOCK);
    let population = StringWorkload::generate(
        StringWorkloadParams {
            families: FAMILIES,
            members_per_family: MEMBERS,
            length: (40, 60),
            mutations: (1, 4),
            ..StringWorkloadParams::default()
        },
        CORPUS_SEED,
    );
    // Query `i` is a member of family `i × FAMILIES / n_queries`, further
    // mutated: every run covers the families evenly, and the seed picks
    // the members and the mutations.
    let mut rng = SimRng::new(seed).fork(0x51);
    let queries: Vec<Vec<u8>> = (0..n_queries)
        .map(|i| {
            let family = i * FAMILIES / n_queries;
            let member = family * (1 + MEMBERS) + rng.index(1 + MEMBERS);
            let mut q = population.sequences[member].as_bytes().to_vec();
            for _ in 0..1 + rng.index(3) {
                mutate(&mut q, &mut rng);
            }
            q
        })
        .collect();
    // Families are generated one after another; a seeded shuffle makes
    // the held-out tail a sample of every family.
    let mut objects: Vec<Vec<u8>> = population
        .sequences
        .into_iter()
        .map(String::into_bytes)
        .collect();
    let mut rng = SimRng::new(CORPUS_SEED).fork(0x5AFF);
    for i in (1..objects.len()).rev() {
        objects.swap(i, rng.index(i + 1));
    }
    let objects = Arc::new(objects);
    let truth = par_map(&queries, |q| {
        brute_force(
            objects.len(),
            K,
            |top| top[K - 1].1,
            |i| levenshtein(q, &objects[i]),
        )
    });
    let plan = Plan {
        n_nodes: 64,
        landmarks: 8,
        sample: 300,
        setup_reps: 9,
        ingest_chunk: 100,
        tol: 0.0,
    };
    let world = World {
        base: objects.len() - HELDOUT,
        objects,
        queries: Arc::new(queries),
        origins: origins(seed, n_queries, plan.n_nodes),
        truth,
        own: |a: &Vec<u8>, b: &Vec<u8>| levenshtein(a, b),
        select: |m, sample, k, rng| greedy::<_, [u8], _>(m, sample, k, rng),
    };
    sim::run::<Vec<u8>, [u8], EditDistance>(&plan, world, EditDistance, seed, tr, out);
    Ok(())
}

/// Standard normal deviate (Box–Muller).
fn normal(rng: &mut SimRng) -> f64 {
    let u1 = 1.0 - rng.f64();
    let u2 = rng.f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// One random substitution, insertion or deletion over `ACGT`.
fn mutate(s: &mut Vec<u8>, rng: &mut SimRng) {
    const ALPHABET: &[u8] = b"ACGT";
    match rng.index(3) {
        0 => {
            let i = rng.index(s.len());
            s[i] = ALPHABET[rng.index(4)];
        }
        1 => {
            let i = rng.index(s.len() + 1);
            s.insert(i, ALPHABET[rng.index(4)]);
        }
        _ => {
            let i = rng.index(s.len());
            s.remove(i);
        }
    }
}

/// Seeded issuing node of each query.
fn origins(seed: u64, n: usize, n_nodes: usize) -> Vec<usize> {
    let mut rng = SimRng::new(seed).fork(0x0419);
    (0..n).map(|_| rng.index(n_nodes)).collect()
}
