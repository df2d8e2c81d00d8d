//! The three workloads: what each stands up, the traffic it sends, and
//! which layers of the serving stack that traffic exercises or bypasses.
//!
//! A later claim about one layer points at the workload that exercises
//! it for the gain, and at a workload that bypasses it to predict no
//! change there.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smgcn_bench::harness::{
    generate_corpus, synthetic_frozen, synthetic_vocab, zipf_index, BenchScale,
};
use smgcn_core::prelude::{train, Recommender};
use smgcn_data::{Corpus, Prescription};
use smgcn_graph::GraphOperators;
use smgcn_online::{FineTuneConfig, OnlineConfig, OnlinePipeline};
use smgcn_serve::{FrozenModel, ServingVocab};

/// Ranking depth every request asks for.
pub const K: usize = 10;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// **hot-direct** — one replica serving a paper-scale synthetic
    /// model ([`PAPER`]: 360 symptoms × 753 herbs, d = 64). Queries are
    /// `zipf_index` draws (20 hot of 64, p = 0.8) from a pool the warm-up
    /// has already cached, so at least 99% are cache hits. Fixed rate
    /// 10k/s.
    ///
    /// Why: almost all time goes to the reactor, the thread handoffs,
    /// JSON and the cache, and none to the batcher or the GEMM. Fewer
    /// thread hops and a faster parser show here.
    ///
    /// | layer | exercised |
    /// |---|---|
    /// | reactor read/frame/write, waker | yes |
    /// | worker handoff | yes |
    /// | `json::parse`, response render | yes |
    /// | generational cache | yes, ≥ 99% hits |
    /// | batcher queue/linger | bypassed (hits) |
    /// | frozen GEMM, top-k | bypassed (hits) |
    /// | router hop | bypassed (no router) |
    /// | online refresh | bypassed (no write lane) |
    HotDirect,
    /// **miss-large** — one replica at the large tier ([`LARGE`]: 10k
    /// herbs × d = 256). Every request is a fresh set of 3–7 symptoms, so
    /// nothing is served from the cache. Fixed rate 75/s, an eighth of its
    /// ~600/s capacity on a two-core machine, so nearly every request is
    /// a lone one: the case an adaptive batcher linger targets. At 150/s
    /// and 300/s whether a request overlapped another, and found the herb
    /// matrix still cached, varied with the machine's speed, and p50's
    /// quartile spread over ten runs reached 0.25 of the median.
    ///
    /// Why: GEMM plus top-k take about 80% of each request and the
    /// 200 µs batcher linger about 12%; the reactor takes under 5%.
    /// Faster scoring kernels and an adaptive linger show here.
    ///
    /// | layer | exercised |
    /// |---|---|
    /// | reactor read/frame/write, waker | yes (< 5%) |
    /// | worker handoff | yes |
    /// | `json::parse`, response render | yes |
    /// | generational cache | lookup only, 0% hits |
    /// | batcher queue/linger | yes |
    /// | frozen GEMM, top-k | yes, dominant |
    /// | router hop | bypassed (no router) |
    /// | online refresh | bypassed (no write lane) |
    MissLarge,
    /// **refresh-routed** — a router in front of two replicas plus the
    /// online pipeline, in one process, serving an SMGCN trained on
    /// `BenchScale::Mid`'s first 2,700 records. Queries are `zipf_index`
    /// draws (hot 25, p = 0.95) over the corpus's symptom sets at a fixed
    /// rate of 2k/s. A write lane ingests 30 held-out prescriptions every
    /// second, refreshes, and rolls the artifact out with the router's
    /// `{"op":"publish"}`.
    ///
    /// Why: it measures the router hop and puts writes beside reads.
    /// Each publish empties the generational cache; each hot set is asked
    /// for about 76 times a second and is cached again within tens of
    /// milliseconds, so about 93% of requests hit and p50 is a routed
    /// cache hit. With 50 or 200 hot sets at p = 0.8 the hit share was
    /// 0.45–0.74 and p50 sat in the upper tail of the hits, just below
    /// the misses: at 500/s it read 0.23–0.35 ms across seeds. At 2k/s
    /// the stack is busy often enough that p50 is not dominated by waking
    /// idle CPUs: at 1k/s the p50 of one two-second round moved between
    /// 0.13 and 0.26 ms within a run, at 2k/s between 0.16 and 0.22 ms.
    ///
    /// | layer | exercised |
    /// |---|---|
    /// | router parse/forward/relay | yes |
    /// | reactor, handoff, JSON (router and replica) | yes |
    /// | generational cache | yes, emptied by each publish |
    /// | batcher, GEMM, top-k | yes, on misses (small model) |
    /// | online ingest/delta/fine-tune/freeze | yes, once a second |
    /// | artifact encode, rolling publish | yes, once a second |
    RefreshRouted,
}

/// Symptoms, herbs and embedding width of a synthetic model.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Symptom vocabulary size.
    pub symptoms: usize,
    /// Herb vocabulary size.
    pub herbs: usize,
    /// Embedding width.
    pub dim: usize,
}

/// The paper's vocabulary sizes at the paper's embedding width.
pub const PAPER: Shape = Shape {
    symptoms: 360,
    herbs: 753,
    dim: 64,
};

/// The large tier: 10k herbs at d = 256.
pub const LARGE: Shape = Shape {
    symptoms: 360,
    herbs: 10_000,
    dim: 256,
};

/// Epochs the refresh-routed base model trains for.
pub const BASE_EPOCHS: usize = 8;

/// Prescriptions per write-lane refresh.
pub const WRITE_BATCH: usize = 30;

/// Hot symptom sets of the refresh-routed query draws, and the share of
/// draws that go to them; the rest are uniform over the corpus's sets.
const ROUTED_HOT: usize = 25;
const ROUTED_HOT_P: f64 = 0.95;

/// Records the refresh-routed base model is trained on.
const BASE_RECORDS: usize = 2_700;

/// Write-lane batches the held-out tail holds: one a second for a minute,
/// the longest window a run measures.
const LANE_BATCHES: usize = 64;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Self::HotDirect, Self::MissLarge, Self::RefreshRouted];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Self::HotDirect => "hot-direct",
            Self::MissLarge => "miss-large",
            Self::RefreshRouted => "refresh-routed",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Times a measured run sets the stack up; `setup_s` is the median.
    /// A synthetic model starts in 4–40 ms, and with five starts
    /// miss-large's median spread 0.26 of itself over ten runs; a trained
    /// one takes ~0.4 s, and five keep the run short.
    pub fn setups(self) -> usize {
        match self {
            Self::HotDirect | Self::MissLarge => 25,
            Self::RefreshRouted => 5,
        }
    }

    /// Arrival rate of the fixed-rate step, per second.
    pub fn fixed_rate(self) -> f64 {
        match self {
            Self::HotDirect => 10_000.0,
            Self::MissLarge => 75.0,
            Self::RefreshRouted => 2_000.0,
        }
    }

    /// Distinct requests the capacity step may use per second: three
    /// times the highest rate seen on a two-core machine, so the closed
    /// loop never runs dry. Only miss-large needs them distinct.
    fn capacity_budget(self) -> f64 {
        match self {
            Self::HotDirect => 180_000.0,
            Self::MissLarge => 3_000.0,
            Self::RefreshRouted => 60_000.0,
        }
    }

    /// Whether the write lane runs during the measured window.
    pub fn writes_during_window(self) -> bool {
        self == Self::RefreshRouted
    }

    /// The synthetic model shape, for the workloads that serve one.
    pub fn shape(self) -> Option<Shape> {
        match self {
            Self::HotDirect => Some(PAPER),
            Self::MissLarge => Some(LARGE),
            Self::RefreshRouted => None,
        }
    }
}

/// A synthetic model and vocabulary; deterministic, so the benchmark
/// rebuilds the served model to check responses against.
pub fn synthetic(shape: Shape) -> (FrozenModel, ServingVocab) {
    (
        synthetic_frozen(shape.symptoms, shape.herbs, shape.dim, 0),
        synthetic_vocab(shape.symptoms, shape.herbs, 0),
    )
}

/// The refresh-routed online configuration: the Mid scale's model and
/// training settings, refreshed with one fine-tune epoch and no early
/// stop, so every refresh does the same work whatever the seed.
pub fn online_config(seed: u64) -> OnlineConfig {
    let scale = BenchScale::Mid;
    OnlineConfig {
        thresholds: scale.thresholds(),
        model: scale.online_model_config(),
        train: scale.train_config(BASE_EPOCHS, seed),
        finetune: FineTuneConfig {
            max_epochs: 1,
            target_loss: None,
            learning_rate: None,
        },
        seed,
    }
}

/// The refresh-routed model before any write: the first 2,700 records
/// of a Mid-scale corpus, an SMGCN trained on them, and the held-out tail
/// the write lane ingests. Bit-reproducible from `seed`, which is how the benchmark
/// rebuilds every generation the stack served.
pub struct Routed {
    /// The live pipeline; its slot holds the latest generation.
    pub pipeline: OnlinePipeline,
    /// The whole Mid corpus: `n_base` base records, then the held-out
    /// tail.
    pub grown: Corpus,
    /// Records the base model was trained on.
    pub n_base: usize,
}

impl Routed {
    /// The Mid corpus for `seed`, grown by the write lane's held-out
    /// tail, and how many of its records form the base.
    pub fn corpus(seed: u64) -> (Corpus, usize) {
        let mut generator = BenchScale::Mid.generator();
        generator.n_prescriptions = BASE_RECORDS + WRITE_BATCH * LANE_BATCHES;
        (generate_corpus(generator, seed), BASE_RECORDS)
    }

    /// Generates the corpus, trains the base model and assembles the
    /// online pipeline.
    pub fn build(seed: u64) -> Self {
        let (grown, n_base) = Self::corpus(seed);
        let base = grown.subset(&(0..n_base).collect::<Vec<_>>());
        let config = online_config(seed);
        let ops = GraphOperators::from_records(
            base.records(),
            base.n_symptoms(),
            base.n_herbs(),
            config.thresholds,
        );
        let mut model = Recommender::smgcn(&ops, &config.model, seed);
        train(&mut model, &base, &config.train);
        Self {
            pipeline: OnlinePipeline::new(base, model, config),
            grown,
            n_base,
        }
    }

    /// The write lane's `i`-th batch, if the held-out tail has one.
    pub fn batch(&self, i: usize) -> Option<&[Prescription]> {
        self.grown.prescriptions()[self.n_base..]
            .chunks_exact(WRITE_BATCH)
            .nth(i)
    }

    /// Ingests and refreshes batch `i`, returning the new generation.
    pub fn apply(&mut self, i: usize) -> u64 {
        let batch = self
            .batch(i)
            .expect("write lane ran past the held-out tail")
            .to_vec();
        for p in batch {
            self.pipeline
                .ingest_ids(p.symptoms().to_vec(), p.herbs().to_vec())
                .expect("held-out prescriptions are valid");
        }
        self.pipeline.refresh().expect("refresh").generation
    }
}

/// The requests a run sends: distinct ranking lines, and per step the
/// order they are sent in.
pub struct Traffic {
    /// Symptom-id set of each distinct request.
    pub sets: Vec<Vec<u32>>,
    /// Wire line of each distinct request, newline included.
    pub lines: Vec<Vec<u8>>,
    /// Warm-up stream (not measured).
    pub warm: Vec<u32>,
    /// Fixed-rate stream, one entry per scheduled arrival or more.
    pub fixed: Vec<u32>,
    /// Capacity stream; the closed loop stops early if it runs dry.
    pub capacity: Vec<u32>,
}

/// The ranking request line for `set`.
fn request_line(set: &[u32]) -> Vec<u8> {
    let ids: Vec<String> = set.iter().map(u32::to_string).collect();
    format!("{{\"symptom_ids\":[{}],\"k\":{K}}}\n", ids.join(",")).into_bytes()
}

/// `count` distinct sorted sets of 3–7 symptoms out of `n_symptoms`.
fn distinct_sets(rng: &mut StdRng, n_symptoms: usize, count: usize) -> Vec<Vec<u32>> {
    let mut seen = HashSet::new();
    let mut sets = Vec::with_capacity(count);
    while sets.len() < count {
        let size = rng.gen_range(3..=7usize);
        let mut set: Vec<u32> = Vec::with_capacity(size);
        while set.len() < size {
            let s = rng.gen_range(0..n_symptoms) as u32;
            if !set.contains(&s) {
                set.push(s);
            }
        }
        set.sort_unstable();
        if seen.insert(set.clone()) {
            sets.push(set);
        }
    }
    sets
}

/// Distinct symptom sets of `corpus`, in corpus order.
fn corpus_sets(corpus: &Corpus) -> Vec<Vec<u32>> {
    let mut seen = HashSet::new();
    let mut sets = Vec::new();
    for p in corpus.prescriptions() {
        let mut set = p.symptoms().to_vec();
        set.sort_unstable();
        if seen.insert(set.clone()) {
            sets.push(set);
        }
    }
    sets
}

impl Traffic {
    /// Builds the traffic of `workload` from `seed` for a fixed-rate step
    /// of `fixed_len` arrivals and a capacity step of `capacity_s`
    /// seconds. `corpus` is the refresh-routed base corpus.
    pub fn build(
        workload: Workload,
        seed: u64,
        fixed_len: usize,
        capacity_s: f64,
        corpus: Option<&Corpus>,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7261_6666_6963);
        let capacity_len = (workload.capacity_budget() * capacity_s) as usize + 1;
        let (sets, warm, fixed, capacity) = match workload {
            Workload::HotDirect => {
                let sets = distinct_sets(&mut rng, PAPER.symptoms, 64);
                let mut draw = |n: usize| -> Vec<u32> {
                    (0..n)
                        .map(|_| zipf_index(&mut rng, 64, 20, 0.8) as u32)
                        .collect()
                };
                let fixed = draw(fixed_len);
                let capacity = draw(capacity_len);
                // The warm-up caches the whole pool.
                let warm = (0..64u32).chain(0..64).collect();
                (sets, warm, fixed, capacity)
            }
            Workload::MissLarge => {
                let warm_len = 256;
                let sets = distinct_sets(
                    &mut rng,
                    LARGE.symptoms,
                    warm_len + fixed_len + capacity_len,
                );
                let ids = |a: usize, b: usize| (a as u32..b as u32).collect::<Vec<_>>();
                let warm = ids(0, warm_len);
                let fixed = ids(warm_len, warm_len + fixed_len);
                let capacity = ids(warm_len + fixed_len, sets.len());
                (sets, warm, fixed, capacity)
            }
            Workload::RefreshRouted => {
                let sets = corpus_sets(corpus.expect("refresh-routed needs its corpus"));
                let n = sets.len();
                let mut draw = |len: usize| -> Vec<u32> {
                    (0..len)
                        .map(|_| zipf_index(&mut rng, n, ROUTED_HOT, ROUTED_HOT_P) as u32)
                        .collect()
                };
                let warm = draw(2_000);
                let fixed = draw(fixed_len);
                let capacity = draw(capacity_len);
                (sets, warm, fixed, capacity)
            }
        };
        let lines = sets.iter().map(|s| request_line(s)).collect();
        Self {
            sets,
            lines,
            warm,
            fixed,
            capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_is_seeded() {
        let a = Traffic::build(Workload::MissLarge, 3, 500, 0.1, None);
        let b = Traffic::build(Workload::MissLarge, 3, 500, 0.1, None);
        let c = Traffic::build(Workload::MissLarge, 4, 500, 0.1, None);
        assert_eq!(a.lines, b.lines);
        assert_ne!(a.lines, c.lines);
        assert_eq!(a.fixed, b.fixed);
    }

    #[test]
    fn miss_large_never_repeats_a_request() {
        let t = Traffic::build(Workload::MissLarge, 9, 2_000, 0.5, None);
        let mut all: Vec<u32> = t
            .warm
            .iter()
            .chain(&t.fixed)
            .chain(&t.capacity)
            .copied()
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
        let distinct: HashSet<&Vec<u32>> = t.sets.iter().collect();
        assert_eq!(distinct.len(), t.sets.len());
        assert!(t.sets.iter().all(|s| (3..=7).contains(&s.len())));
    }

    #[test]
    fn hot_direct_draws_only_from_its_warmed_pool() {
        let t = Traffic::build(Workload::HotDirect, 5, 10_000, 0.01, None);
        let warmed: HashSet<u32> = t.warm.iter().copied().collect();
        assert!(t.fixed.iter().all(|i| warmed.contains(i)));
        let hot = t.fixed.iter().filter(|&&i| i < 20).count();
        assert!(hot > 8_000, "{hot} of 10000 draws hit the 20 hot sets");
    }

    #[test]
    fn request_lines_are_framed_json() {
        assert_eq!(
            request_line(&[3, 12]),
            b"{\"symptom_ids\":[3,12],\"k\":10}\n".to_vec()
        );
    }
}
