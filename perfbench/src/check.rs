//! The correctness check, run after the measured window so that it never
//! competes with the stack for the two cores: every recorded response is
//! compared with `FrozenModel::recommend` for the generation the response
//! reports.

use std::collections::HashMap;
use std::sync::Arc;

use smgcn_serve::json;
use smgcn_serve::FrozenModel;

use crate::gen::Step;
use crate::workload::K;

/// The models a stack served, by generation.
pub enum Reference {
    /// One model, re-published unchanged under every generation.
    Fixed(Arc<FrozenModel>),
    /// Generation `g` is entry `g`.
    Generations(Vec<Arc<FrozenModel>>),
}

impl Reference {
    fn model(&self, generation: u64) -> Option<&Arc<FrozenModel>> {
        match self {
            Self::Fixed(m) => Some(m),
            Self::Generations(gens) => gens.get(generation as usize),
        }
    }
}

/// What a response claims.
#[derive(Debug, PartialEq)]
pub struct Ranking {
    /// The generation that scored it.
    pub generation: u64,
    /// Herb ids, best first.
    pub herb_ids: Vec<u32>,
}

/// Reads a ranking response; `None` for an error response or anything
/// malformed.
pub fn parse_ranking(line: &[u8]) -> Option<Ranking> {
    let text = std::str::from_utf8(line).ok()?;
    let j = json::parse(text).ok()?;
    if j.get("error").is_some() {
        return None;
    }
    let herb_ids = j
        .get("herb_ids")?
        .as_arr()?
        .iter()
        .map(|v| v.as_num().map(|n| n as u32))
        .collect::<Option<Vec<_>>>()?;
    Some(Ranking {
        generation: j.get("generation")?.as_num()? as u64,
        herb_ids,
    })
}

/// Checks every sample of `step`, sent from `stream` over the request
/// `sets`, and returns one verdict per sample: `true` when the response
/// arrived, is a ranking, and equals the reference ranking of the
/// generation it reports. A transport error, an error response and a
/// mismatch all fail.
pub fn check(step: &Step, stream: &[u32], sets: &[Vec<u32>], reference: &Reference) -> Vec<bool> {
    let claims: Vec<Option<(u32, Ranking)>> = step
        .samples
        .iter()
        .map(|s| {
            let ranking = parse_ranking(step.response(s)?)?;
            Some((stream[s.index], ranking))
        })
        .collect();
    // One reference ranking per distinct (request, generation).
    let mut wanted: HashMap<(u32, u64), Option<Vec<u32>>> = HashMap::new();
    for (set, r) in claims.iter().flatten() {
        wanted.entry((*set, r.generation)).or_insert(None);
    }
    let keys: Vec<(u32, u64)> = wanted.keys().copied().collect();
    let expected = reference_rankings(&keys, sets, reference);
    for (key, ranking) in keys.into_iter().zip(expected) {
        wanted.insert(key, ranking);
    }
    claims
        .iter()
        .map(|claim| match claim {
            Some((set, r)) => wanted[&(*set, r.generation)].as_deref() == Some(&r.herb_ids[..]),
            None => false,
        })
        .collect()
}

/// Reference rankings for `keys`, batched per generation and split over
/// two threads; `None` for a generation the reference does not know.
fn reference_rankings(
    keys: &[(u32, u64)],
    sets: &[Vec<u32>],
    reference: &Reference,
) -> Vec<Option<Vec<u32>>> {
    const CHUNK: usize = 32;
    // One scoring GEMM per run of keys that share a generation.
    let rank_chunk = |chunk: &[(u32, u64)]| -> Vec<Option<Vec<u32>>> {
        let mut out = Vec::with_capacity(chunk.len());
        for run in chunk.chunk_by(|a, b| a.1 == b.1) {
            let batch: Vec<&[u32]> = run
                .iter()
                .map(|&(set, _)| &sets[set as usize][..])
                .collect();
            match reference
                .model(run[0].1)
                .map(|m| m.recommend_batch(&batch, K))
            {
                Some(Ok(rankings)) => out.extend(rankings.into_iter().map(Some)),
                _ => out.extend(run.iter().map(|_| None)),
            }
        }
        out
    };
    let mut order: Vec<usize> = (0..keys.len()).collect();
    // Group by generation so neighbouring keys share a model.
    order.sort_by_key(|&i| keys[i].1);
    let sorted: Vec<(u32, u64)> = order.iter().map(|&i| keys[i]).collect();
    let half = sorted.len().div_ceil(2);
    let (a, b) = sorted.split_at(half);
    let mut ranked: Vec<Option<Vec<u32>>> = std::thread::scope(|scope| {
        let hb = scope.spawn(|| b.chunks(CHUNK).flat_map(rank_chunk).collect::<Vec<_>>());
        let mut ra: Vec<_> = a.chunks(CHUNK).flat_map(rank_chunk).collect();
        ra.extend(hb.join().expect("checker thread panicked"));
        ra
    });
    let mut out = vec![None; keys.len()];
    for (slot, r) in order.into_iter().zip(ranked.drain(..)) {
        out[slot] = r;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Sample;

    #[test]
    fn parses_rankings_and_rejects_errors() {
        let r = parse_ranking(br#"{"herb_ids":[4,1],"cached":true,"generation":2,"micros":9}"#);
        assert_eq!(
            r,
            Some(Ranking {
                generation: 2,
                herb_ids: vec![4, 1],
            })
        );
        assert_eq!(
            parse_ranking(br#"{"error":{"code":"queue_full","message":"x"}}"#),
            None
        );
        assert_eq!(parse_ranking(b"not json"), None);
    }

    #[test]
    fn a_wrong_ranking_or_unknown_generation_fails() {
        let model = Arc::new(smgcn_bench::harness::synthetic_frozen(6, 30, 4, 0));
        let sets = vec![vec![0, 1], vec![2, 3, 4]];
        let good = model.recommend(&sets[1], K).unwrap();
        let ids = |v: &[u32]| v.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
        let lines = [
            format!(r#"{{"herb_ids":[{}],"generation":0}}"#, ids(&good)),
            format!(r#"{{"herb_ids":[{}],"generation":0}}"#, ids(&good)),
            format!(r#"{{"herb_ids":[{}],"generation":1}}"#, ids(&good)),
        ];
        let mut responses = Vec::new();
        let mut samples = Vec::new();
        for (index, line) in lines.iter().enumerate() {
            let at = responses.len();
            responses.extend_from_slice(line.as_bytes());
            samples.push(Sample {
                index,
                due_ns: 0,
                done_ns: 1,
                late_ns: 0,
                response: Some((at, responses.len())),
            });
        }
        samples.push(Sample {
            index: 3,
            due_ns: 0,
            done_ns: 1,
            late_ns: 0,
            response: None,
        });
        let step = Step {
            samples,
            responses,
            elapsed: std::time::Duration::ZERO,
        };
        // Sample 0 asked for set 0 but got set 1's ranking.
        let stream = [0, 1, 1, 1];
        let verdicts = check(
            &step,
            &stream,
            &sets,
            &Reference::Generations(vec![Arc::clone(&model)]),
        );
        assert_eq!(verdicts, vec![false, true, false, false]);
        let fixed = check(&step, &stream, &sets, &Reference::Fixed(model));
        assert_eq!(fixed, vec![false, true, true, false]);
    }
}
