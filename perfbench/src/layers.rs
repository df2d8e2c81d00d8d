//! Per-layer timings for the traced run. Each one times calls into the
//! serving stack's public functions from here, on the workload's own
//! inputs; nothing inside the program is instrumented.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use smgcn_core::prelude::Recommender;
use smgcn_data::Prescription;
use smgcn_online::{fine_tune, IncrementalGraphs, OnlineConfig};
use smgcn_serve::cache::QueryKey;
use smgcn_serve::json::{self, Json};
use smgcn_serve::{
    artifact, partial_top_k, Batcher, BatcherConfig, FrozenModel, GenerationalCache, ModelSlot,
    ServingVocab,
};

use crate::gen::median;
use crate::workload::K;

/// Median over batches of the mean time per call, in µs: `f` is called
/// on `items` in turn, `batch` calls per timed batch, for at least
/// `min_batches` batches and `budget` of wall time.
pub fn per_call_us<T>(
    items: &[T],
    batch: usize,
    min_batches: usize,
    budget: Duration,
    mut f: impl FnMut(&T),
) -> f64 {
    assert!(!items.is_empty() && batch > 0, "nothing to time");
    let started = Instant::now();
    let mut means = Vec::new();
    let mut next = 0;
    while means.len() < min_batches || started.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            f(&items[next % items.len()]);
            next += 1;
        }
        means.push(t.elapsed().as_secs_f64() * 1e6 / batch as f64);
    }
    median(&means)
}

/// `json::parse` on the workload's request lines, µs per line.
pub fn parse_us(lines: &[&str]) -> f64 {
    per_call_us(lines, 256, 20, Duration::from_millis(150), |l| {
        black_box(json::parse(black_box(l)).expect("request lines parse"));
    })
}

/// Rendering the workload's responses (rebuilt with `json::obj`) to
/// text, µs per response.
pub fn render_us(responses: &[Json]) -> f64 {
    let objects: Vec<Json> = responses
        .iter()
        .map(|r| {
            json::obj(
                ["herb_ids", "cached", "generation", "micros", "herbs"]
                    .into_iter()
                    .filter_map(|k| r.get(k).map(|v| (k, v.clone()))),
            )
        })
        .collect();
    per_call_us(&objects, 256, 20, Duration::from_millis(150), |o| {
        black_box(black_box(o).to_string());
    })
}

/// `QueryKey::new` plus `GenerationalCache::get`, and `insert` on a
/// miss, over the key stream `sets`; the generation advances every
/// `publish_every` keys (0: never), as a publish would. Returns µs per
/// key.
pub fn cache_lookup_us(sets: &[&[u32]], capacity: usize, publish_every: usize) -> f64 {
    let mut cache: GenerationalCache<QueryKey, Vec<u32>> = GenerationalCache::new(capacity);
    let ranking: Vec<u32> = (0..K as u32).collect();
    let mut seen = 0usize;
    per_call_us(sets, 1024, 20, Duration::from_millis(150), |set| {
        seen += 1;
        let generation = seen.checked_div(publish_every).unwrap_or(0) as u64;
        let key = QueryKey::new(set, K);
        if cache.get(&key, generation).is_none() {
            cache.insert(key, generation, ranking.clone());
        }
    })
}

/// What callers of `Batcher::recommend_pinned_timed` saw.
pub struct BatcherFigures {
    /// Median wall time of one call, µs.
    pub call_us: f64,
    /// Median queue wait (including linger), µs.
    pub queue_us: f64,
    /// Mean jobs per scoring GEMM.
    pub batch_size: f64,
}

/// `threads` callers submit `sets` to a batcher over `model` (default
/// configuration) back to back for about `budget`.
pub fn batcher(
    model: Arc<FrozenModel>,
    sets: &[&[u32]],
    threads: usize,
    budget: Duration,
) -> BatcherFigures {
    let slot = Arc::new(ModelSlot::with_arc(model, ServingVocab::default()));
    let batcher = Batcher::start_slot(Arc::clone(&slot), BatcherConfig::default());
    let per_thread: Vec<Vec<(f64, f64, f64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (batcher, slot) = (&batcher, &slot);
                scope.spawn(move || {
                    let started = Instant::now();
                    let mut out = Vec::new();
                    let mut i = t;
                    while started.elapsed() < budget || out.len() < 20 {
                        let set = sets[i % sets.len()];
                        i += threads;
                        let t0 = Instant::now();
                        let (_, _, timings) = batcher
                            .recommend_pinned_timed(set, K, slot.load())
                            .expect("batcher scores valid sets");
                        out.push((
                            t0.elapsed().as_secs_f64() * 1e6,
                            timings.queue_us as f64,
                            timings.batch_size as f64,
                        ));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("batcher client panicked"))
            .collect()
    });
    let all: Vec<(f64, f64, f64)> = per_thread.into_iter().flatten().collect();
    let pick = |f: fn(&(f64, f64, f64)) -> f64| all.iter().map(f).collect::<Vec<_>>();
    let sizes = pick(|s| s.2);
    BatcherFigures {
        call_us: median(&pick(|s| s.0)),
        queue_us: median(&pick(|s| s.1)),
        batch_size: sizes.iter().sum::<f64>() / sizes.len() as f64,
    }
}

/// `FrozenModel::score_batch` on batches of `batch` sets, µs per call.
pub fn score_us(model: &FrozenModel, sets: &[&[u32]], batch: usize) -> f64 {
    let batches: Vec<Vec<&[u32]>> = sets
        .chunks(batch)
        .filter(|c| c.len() == batch)
        .map(<[_]>::to_vec)
        .collect();
    let batches = if batches.is_empty() {
        vec![sets[..batch.min(sets.len())].to_vec()]
    } else {
        batches
    };
    per_call_us(&batches, 8, 20, Duration::from_millis(200), |b| {
        black_box(model.score_batch(black_box(b)).expect("valid sets score"));
    })
}

/// Work one query does in the scoring GEMM at batch size `batch`:
/// floating-point operations, and bytes read or written, computed from
/// the model's shapes. The herb matrix is read once per batch, so its
/// bytes are shared by the batch.
pub fn score_counts(model: &FrozenModel, mean_set: f64, batch: f64) -> (f64, f64) {
    let (h, d) = (model.n_herbs() as f64, model.dim() as f64);
    let mlp = if model.has_si_mlp() { 2.0 * d * d } else { 0.0 };
    let flop = 2.0 * d * h + mean_set * d + mlp;
    let mlp_bytes = if model.has_si_mlp() {
        (d * d + d) * 4.0 / batch
    } else {
        0.0
    };
    let bytes = h * d * 4.0 / batch + mean_set * d * 4.0 + mlp_bytes + h * 4.0;
    (flop, bytes)
}

/// `partial_top_k` over the model's herb scores for `sets`, µs per call.
pub fn topk_us(model: &FrozenModel, sets: &[&[u32]]) -> f64 {
    let scores: Vec<Vec<f32>> = sets
        .iter()
        .take(64)
        .map(|s| model.score_one(s).expect("valid sets score"))
        .collect();
    per_call_us(&scores, 64, 20, Duration::from_millis(150), |s| {
        black_box(partial_top_k(black_box(s), K));
    })
}

/// `artifact::encode` plus `to_base64`, and `ModelSlot::publish_bytes`
/// of the result, each in ms (median of five).
pub fn artifact_ms(model: &FrozenModel, vocab: &ServingVocab) -> (f64, f64) {
    let mut encode = Vec::new();
    let mut publish = Vec::new();
    let slot = ModelSlot::new(model.clone(), vocab.clone());
    for _ in 0..5 {
        let t = Instant::now();
        let bytes = artifact::encode(model, vocab);
        black_box(artifact::to_base64(&bytes));
        encode.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        slot.publish_bytes(&bytes).expect("fresh artifacts decode");
        publish.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (median(&encode), median(&publish))
}

/// Stage timings of the online refresh, each a median over the batches.
pub struct OnlineFigures {
    /// `OnlinePipeline::ingest_ids`, µs per prescription.
    pub append_us: f64,
    /// `IncrementalGraphs::apply_batch` + `operators`, ms.
    pub delta_ms: f64,
    /// `Recommender::warm_start_smgcn` + `fine_tune`, ms.
    pub finetune_ms: f64,
    /// `FrozenModel::from_recommender`, ms.
    pub freeze_ms: f64,
}

/// Replays the refresh stages by hand over `batches`, starting from the
/// trained `base` model over the `n_base`-record prefix of `grown`.
pub fn online(
    routed: &mut crate::workload::Routed,
    batches: usize,
    config: &OnlineConfig,
) -> OnlineFigures {
    let grown = routed.grown.clone();
    let n_base = routed.n_base;
    let base = grown.subset(&(0..n_base).collect::<Vec<_>>());
    let mut graphs = IncrementalGraphs::from_corpus(&base, config.thresholds);
    let mut store = routed.pipeline.model().store().clone();
    let (mut delta, mut finetune, mut freeze, mut append) = (vec![], vec![], vec![], vec![]);
    for i in 0..batches {
        let batch: Vec<Prescription> = routed.batch(i).expect("held-out batch").to_vec();
        // Ingest into the pipeline itself: the append path under test.
        let t = Instant::now();
        for p in &batch {
            routed
                .pipeline
                .ingest_ids(p.symptoms().to_vec(), p.herbs().to_vec())
                .expect("held-out prescriptions are valid");
        }
        append.push(t.elapsed().as_secs_f64() * 1e6 / batch.len() as f64);
        let corpus = grown.subset(&(0..n_base + (i + 1) * batch.len()).collect::<Vec<_>>());
        let t = Instant::now();
        graphs.apply_batch(&batch, corpus.n_symptoms(), corpus.n_herbs());
        let ops = graphs.operators();
        delta.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let mut model = Recommender::warm_start_smgcn(ops, &config.model, config.seed, &store)
            .expect("same architecture");
        fine_tune(&mut model, &corpus, &config.train, &config.finetune);
        finetune.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        black_box(FrozenModel::from_recommender(&model));
        freeze.push(t.elapsed().as_secs_f64() * 1e3);
        store = model.store().clone();
    }
    OnlineFigures {
        append_us: median(&append),
        delta_ms: median(&delta),
        finetune_ms: median(&finetune),
        freeze_ms: median(&freeze),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_call_time_grows_with_the_work() {
        let items: Vec<u64> = (0..64).collect();
        let spin = |n: u64| {
            move |x: &u64| {
                let mut acc = *x;
                for i in 0..n {
                    acc = black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(i));
                }
                black_box(acc);
            }
        };
        let small = per_call_us(&items, 64, 5, Duration::ZERO, spin(100));
        let large = per_call_us(&items, 64, 5, Duration::ZERO, spin(10_000));
        assert!(large > small * 10.0, "{small} µs vs {large} µs");
    }

    #[test]
    fn score_counts_follow_the_shapes() {
        let model = smgcn_bench::harness::synthetic_frozen(4, 100, 8, 0);
        let (flop, bytes) = score_counts(&model, 2.0, 2.0);
        assert_eq!(flop, 2.0 * 8.0 * 100.0 + 2.0 * 8.0);
        assert_eq!(
            bytes,
            100.0 * 8.0 * 4.0 / 2.0 + 2.0 * 8.0 * 4.0 + 100.0 * 4.0
        );
    }
}
