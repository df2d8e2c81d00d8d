//! Wire benchmark for the SMGCN serving stack.
//!
//! ```text
//! perfbench --workload <hot-direct|miss-large|refresh-routed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: the stack runs in a
//! child process and one generator process drives it over loopback TCP
//! with two connections. `--trace 1` is a separate run that times the
//! layers one by one. Either way the last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. See
//! `README.md` next to this package for the workloads and metrics.

mod check;
mod gen;
mod layers;
mod stack;
mod workload;

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use smgcn_cluster::{key_of_ids, HashRing, RouterConfig};
use smgcn_serve::json::{self, Json};
use smgcn_serve::server::flatten_metrics_json;
use smgcn_serve::{artifact, FrozenModel, ServerConfig, ServingVocab};

use check::{check, Reference};
use gen::{
    drive, interquartile_mean, median, poisson_schedule, quantile, tail, Client, Pacing, Step,
    CONNECTIONS,
};
use stack::{cpu_ns, host_steal_ms, peak_rss_mib, Rollout, Stack};
use workload::{online_config, synthetic, Routed, Traffic, Workload};

/// The workloads without a write lane re-publish the served model this
/// many times after the window. A 10k-herb publish takes 280–450 ms in
/// two modes, so it needs about twenty for a repeatable figure.
const REPUBLISHES: usize = 20;

/// Share of the measured window given to the fixed-rate step; the
/// capacity step takes the rest.
const FIXED_SHARE: f64 = 0.6;

/// Length of one round of the measured window: a fixed-rate segment then
/// a capacity segment. Refresh-routed's write lane starts with the window
/// and refreshes on whole seconds, so every round sees the same two
/// refreshes, both in its fixed-rate segment (the first 1.2 s).
const ROUND_S: f64 = 2.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <hot-direct|miss-large|refresh-routed> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2)
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Args {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).unwrap_or_else(|| usage())),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    match workload {
        Some(workload) if seconds > 0.0 => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

fn main() {
    // Training and refreshes run on one thread (`smgcn-tensor`'s
    // `SMGCN_THREADS`, inherited by the stack's process). On a two-core
    // machine a two-thread parallel section waits for the slower core,
    // which made set-up and refresh times the least repeatable figures,
    // and the serving threads want the other core anyway. Scoring at the
    // batch sizes two connections produce is single-threaded either way.
    std::env::set_var("SMGCN_THREADS", "1");
    let mut argv = std::env::args().skip(1);
    let first = argv.next();
    if first.as_deref() == Some("__child") {
        let workload = argv.next().and_then(|w| Workload::parse(&w));
        let seed = argv.next().and_then(|s| s.parse().ok());
        let (Some(workload), Some(seed)) = (workload, seed) else {
            usage()
        };
        if let Err(e) = stack::child_main(workload, seed) {
            eprintln!("perfbench child: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = parse_args(first.into_iter().chain(argv));
    if !gen::set_timer_slack_1ns() {
        eprintln!("warning: could not set the generator's timer slack to 1 ns");
    }
    let result = if args.trace {
        traced(&args)
    } else {
        measured(&args)
    };
    match result {
        Ok(report) => println!("{}", report.to_json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The result line.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: BTreeMap<String, Json> = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                // Keep the JSON valid if a step failed outright.
                let value = if value.is_finite() { value } else { 1e9 };
                (
                    name.to_string(),
                    json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string()
    }
}

/// What a workload's stack serves, rebuilt in this process to check
/// responses against and to time layers on.
struct Served {
    traffic: Traffic,
    /// Generation 0's model and vocabulary.
    model: Arc<FrozenModel>,
    vocab: ServingVocab,
    /// The refresh-routed base, replayed for later generations.
    routed: Option<Routed>,
}

impl Served {
    fn build(workload: Workload, seed: u64, fixed_len: usize, capacity_s: f64) -> Self {
        match workload.shape() {
            Some(shape) => {
                let (model, vocab) = synthetic(shape);
                Self {
                    traffic: Traffic::build(workload, seed, fixed_len, capacity_s, None),
                    model: Arc::new(model),
                    vocab,
                    routed: None,
                }
            }
            None => {
                let routed = Routed::build(seed);
                let base = routed.grown.subset(&(0..routed.n_base).collect::<Vec<_>>());
                let (model, vocab) = artifact::decode(&routed.pipeline.publish_artifact())
                    .expect("a fresh artifact decodes");
                Self {
                    traffic: Traffic::build(workload, seed, fixed_len, capacity_s, Some(&base)),
                    model: Arc::new(model),
                    vocab,
                    routed: Some(routed),
                }
            }
        }
    }

    fn probe(&self) -> String {
        let line = &self.traffic.lines[self.traffic.warm[0] as usize];
        String::from_utf8_lossy(&line[..line.len() - 1]).into_owned()
    }
}

/// The models of generations `0..=last`: `model` for every generation,
/// or for refresh-routed generation 0 followed by a replay of the write
/// lane on `routed`.
fn reference(model: &Arc<FrozenModel>, routed: Option<Routed>, last: u64) -> Reference {
    match routed {
        None => Reference::Fixed(Arc::clone(model)),
        Some(mut routed) => {
            let mut gens = vec![Arc::clone(model)];
            for i in 0..last as usize {
                let g = routed.apply(i);
                assert_eq!(g as usize, i + 1, "replay generations are consecutive");
                gens.push(Arc::clone(&routed.pipeline.slot().load().model));
            }
            Reference::Generations(gens)
        }
    }
}

/// Highest generation any response of `steps` reports.
fn last_generation(steps: &[&Step]) -> u64 {
    steps
        .iter()
        .flat_map(|s| s.samples.iter().filter_map(|x| s.response(x)))
        .filter_map(check::parse_ranking)
        .map(|r| r.generation)
        .max()
        .unwrap_or(0)
}

/// Latencies (ms) of a step with failed requests counted as infinitely
/// late, sorted.
fn latencies(step: &Step, ok: &[bool]) -> Vec<f64> {
    let mut v: Vec<f64> = step
        .samples
        .iter()
        .zip(ok)
        .map(|(s, &ok)| if ok { s.latency_ms() } else { f64::INFINITY })
        .collect();
    v.sort_unstable_by(f64::total_cmp);
    v
}

/// The `q`-quantile of how late the generator sent the step's requests,
/// ms.
fn late_ms(step: &Step, q: f64) -> f64 {
    let mut late: Vec<f64> = step
        .samples
        .iter()
        .map(|s| s.late_ns as f64 / 1e6)
        .collect();
    late.sort_unstable_by(f64::total_cmp);
    if late.is_empty() {
        0.0
    } else {
        quantile(&late, q)
    }
}

/// A step whose median generator-side lateness exceeds this share of its
/// p50 is flagged: its p50 partly measures the generator.
const LATE_SHARE: f64 = 0.25;

/// Prints one step's diagnostics and returns its failure count and
/// whether the generator ran late (see [`LATE_SHARE`]).
fn report_step(name: &str, step: &Step, ok: &[bool]) -> (usize, bool) {
    let failed = ok.iter().filter(|&&ok| !ok).count();
    let lat = latencies(step, ok);
    let (p, tail_ms, beyond) = if lat.is_empty() {
        (0.0, 0.0, 0)
    } else {
        tail(&lat)
    };
    let p50 = if lat.is_empty() {
        0.0
    } else {
        quantile(&lat, 0.5)
    };
    let late = late_ms(step, 0.99);
    let late_flag = late_ms(step, 0.5) > LATE_SHARE * p50;
    println!(
        "step {name}: attempted={} failed={failed} p50_ms={p50:.4} p{p}_ms={tail_ms:.4} \
         ({beyond} samples beyond, diagnostic) gen.late_p99_ms={late:.4}{} elapsed_s={:.3}",
        step.samples.len(),
        if late_flag { " LATE" } else { "" },
        step.elapsed.as_secs_f64(),
    );
    (failed, late_flag)
}

/// Warns when any step ran late; the run's figures stand, but a reader
/// should not trust them without a look.
fn warn_late(late_steps: usize, steps: usize) {
    if late_steps > 0 {
        eprintln!(
            "warning: the generator ran late in {late_steps} of {steps} steps \
             (median generator lateness above {LATE_SHARE} of the step's p50)"
        );
    }
}

/// Starts `count` stacks one after another, keeps the last running and
/// returns it with the median set-up time.
fn set_up(workload: Workload, seed: u64, probe: &str, count: usize) -> io::Result<(Stack, f64)> {
    let mut times = Vec::new();
    loop {
        let stack = Stack::start(workload, seed, probe)?;
        times.push(stack.setup_s);
        if times.len() >= count {
            println!(
                "setup_s: {} starts, min {:.6} max {:.6}",
                times.len(),
                times.iter().copied().fold(f64::INFINITY, f64::min),
                times.iter().copied().fold(0.0, f64::max)
            );
            return Ok((stack, median(&times)));
        }
        stack.stop()?;
    }
}

/// Rolls the served model out again [`REPUBLISHES`] times, one publish
/// at a time.
fn republish(stack: &mut Stack) -> io::Result<Vec<Rollout>> {
    let mut rollouts = Vec::new();
    while rollouts.len() < REPUBLISHES {
        stack.start_writes(1, Duration::ZERO)?;
        rollouts.extend(stack.finish_writes()?);
    }
    Ok(rollouts)
}

fn warm_up(stack: &Stack, traffic: &Traffic) -> io::Result<()> {
    drive(
        stack.front,
        &traffic.lines,
        &traffic.warm,
        Pacing::Closed(Duration::from_secs(60)),
        CONNECTIONS,
    )?;
    Ok(())
}

fn measured(args: &Args) -> io::Result<Report> {
    let w = args.workload;
    let fixed_s = args.seconds * FIXED_SHARE;
    let capacity_s = args.seconds - fixed_s;
    let due = poisson_schedule(args.seed, w.fixed_rate(), fixed_s);
    let mut served = Served::build(w, args.seed, due.len(), capacity_s);
    let routed = served.routed.take();
    let (mut stack, setup_s) = set_up(w, args.seed, &served.probe(), w.setups())?;
    warm_up(&stack, &served.traffic)?;
    let t = &served.traffic;

    let lane = w
        .writes_during_window()
        .then(|| args.seconds.ceil() as usize);
    if let Some(n) = lane {
        stack.start_writes(n, Duration::from_secs(1))?;
    }
    // The two steps alternate in rounds, so each samples the whole
    // window rather than one stretch of it.
    let rounds = (args.seconds / ROUND_S).round().max(1.0) as usize;
    let period = args.seconds / rounds as f64;
    // The capacity segment leaves a twentieth of itself free, for
    // connecting and for its last responses, so a round ends before the
    // next tick.
    let (fixed_seg, capacity_seg) = (fixed_s / rounds as f64, capacity_s / rounds as f64 * 0.95);
    let mut fixed = Vec::new();
    let mut capacity = Vec::new();
    let mut used = 0;
    let mut cpu = Vec::new();
    let steal0 = host_steal_ms();
    let window = Instant::now();
    for k in 0..rounds {
        // Each round starts on its own tick, so the rounds do not drift
        // against the write lane's once-a-second refreshes.
        let tick = window + Duration::from_secs_f64(k as f64 * period);
        std::thread::sleep(tick.saturating_duration_since(Instant::now()));
        let start = (k as f64 * fixed_seg * 1e9) as u64;
        let end = ((k + 1) as f64 * fixed_seg * 1e9) as u64;
        let (a, b) = (
            due.partition_point(|&d| d < start),
            due.partition_point(|&d| d < end),
        );
        let rebased: Vec<u64> = due[a..b].iter().map(|d| d - start).collect();
        let stream = &t.fixed[a..b];
        let step = drive(
            stack.front,
            &t.lines,
            stream,
            Pacing::Open(&rebased),
            CONNECTIONS,
        )?;
        fixed.push((stream, step));

        let stream = &t.capacity[used..];
        let limit = Duration::from_secs_f64(capacity_seg);
        let cpu0 = cpu_ns(stack.pid())?;
        let step = drive(
            stack.front,
            &t.lines,
            stream,
            Pacing::Closed(limit),
            CONNECTIONS,
        )?;
        cpu.push(cpu_ns(stack.pid())? - cpu0);
        used += step.samples.len();
        capacity.push((&stream[..step.samples.len()], step));
    }
    if let (Some(a), Some(b)) = (steal0, host_steal_ms()) {
        // Diagnostic: a window the host stole from reads slow.
        println!("host steal during the window: {:.0} ms", b - a);
    }
    let lane_rollouts = match lane {
        Some(_) => stack.finish_writes()?,
        None => Vec::new(),
    };
    // Read before any re-publish: repeated publishes of the large model
    // ratchet the peak up by an amount that varies from run to run.
    let rss_mb = peak_rss_mib(stack.pid())?;
    let rollouts = match lane {
        Some(_) => lane_rollouts,
        None => republish(&mut stack)?,
    };
    stack.stop()?;

    let steps: Vec<&Step> = fixed
        .iter()
        .chain(&capacity)
        .map(|(_, step)| step)
        .collect();
    let last = last_generation(&steps);
    let reference = reference(&served.model, routed, last);
    // Each figure is the median over rounds, so that a stall of the
    // host in fewer than half of them does not move it.
    let (mut failed, mut late_steps) = (0, 0);
    let mut round_p50 = Vec::new();
    for (k, (stream, step)) in fixed.iter().enumerate() {
        let ok = check(step, stream, &t.sets, &reference);
        let name = format!("fixed-rate round {k} (cached {:.3})", cached_share(step));
        let (f, late) = report_step(&name, step, &ok);
        (failed, late_steps) = (failed + f, late_steps + late as usize);
        let latency = latencies(step, &ok);
        if !latency.is_empty() {
            round_p50.push(quantile(&latency, 0.5));
        }
    }
    let (mut round_qps, mut round_cpu) = (Vec::new(), Vec::new());
    for (k, ((stream, step), cpu_ns)) in capacity.iter().zip(&cpu).enumerate() {
        let ok = check(step, stream, &t.sets, &reference);
        let (f, late) = report_step(&format!("capacity round {k}"), step, &ok);
        (failed, late_steps) = (failed + f, late_steps + late as usize);
        let completed = ok.iter().filter(|&&ok| ok).count();
        round_qps.push(completed as f64 / step.elapsed.as_secs_f64());
        round_cpu.push(*cpu_ns as f64 / 1e3 / completed.max(1) as f64);
    }
    warn_late(late_steps, steps.len());
    let p50_ms = median(&round_p50);
    let capacity_qps = median(&round_qps);
    let cpu_us_per_req = median(&round_cpu);
    let refresh_ms = interquartile_mean(&rollouts.iter().map(|r| r.total_ms).collect::<Vec<_>>());
    println!(
        "rollouts: {} (responses up to generation {last}), (generation, refresh_ms) each: {:?}",
        rollouts.len(),
        rollouts
            .iter()
            .map(|r| (r.generation, (r.total_ms * 100.0).round() / 100.0))
            .collect::<Vec<_>>()
    );
    let attempted: usize = steps.iter().map(|s| s.samples.len()).sum();
    let correct = failed == 0 && !rollouts.is_empty() && attempted > 0;
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics: vec![
            ("capacity_qps", capacity_qps, "1/s"),
            ("p50_ms", p50_ms, "ms"),
            ("cpu_us_per_req", cpu_us_per_req, "us"),
            ("rss_mb", rss_mb, "MiB"),
            ("setup_s", setup_s, "s"),
            ("refresh_ms", refresh_ms, "ms"),
        ],
    })
}

/// Counters from `{"op":"metrics"}` (fleet-merged behind a router).
fn counters(client: &mut Client) -> io::Result<BTreeMap<String, f64>> {
    let response = client.request(r#"{"op":"metrics"}"#)?;
    let j = json::parse(&response).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let metrics = j.get("metrics").or_else(|| j.get("merged"));
    Ok(metrics
        .map(flatten_metrics_json)
        .unwrap_or_default()
        .into_iter()
        .collect())
}

/// Share of cache lookups that hit between two counter snapshots.
fn hit_share(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) -> f64 {
    let hits = delta(before, after, "serve_cache_hits_total");
    let misses = delta(before, after, "serve_cache_misses_total");
    hits / (hits + misses).max(1.0)
}

fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, key: &str) -> f64 {
    after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
}

/// Whether a response says it was served from the cache.
fn cached(step: &Step, sample: &gen::Sample) -> bool {
    step.response(sample)
        .and_then(|r| json::parse(std::str::from_utf8(r).ok()?).ok())
        .is_some_and(|j| j.get("cached") == Some(&Json::Bool(true)))
}

/// Share of a step's responses served from the cache.
fn cached_share(step: &Step) -> f64 {
    let hits = step.samples.iter().filter(|s| cached(step, s)).count();
    hits as f64 / step.samples.len().max(1) as f64
}

/// Median latency, µs, of the samples of `step` whose stream position
/// `keep` accepts.
fn median_us_where(step: &Step, keep: impl Fn(usize) -> bool) -> f64 {
    let v: Vec<f64> = step
        .samples
        .iter()
        .filter(|s| keep(s.index))
        .map(|s| s.latency_ms() * 1e3)
        .collect();
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

/// Round trips on one connection, no queueing: `stream` in blocks, each
/// block sent to every address of `addrs` in turn so that all see the
/// same conditions, until `budget` has passed. With `warm`, each block is
/// first sent there once, unmeasured, so that every address meets the
/// same cache state. Returns one step per address, with the stream
/// positions each sent.
fn round_trips(
    addrs: &[SocketAddr],
    warm: Option<SocketAddr>,
    lines: &[Vec<u8>],
    stream: &[u32],
    budget: Duration,
) -> io::Result<Vec<(Vec<u32>, Step)>> {
    const BLOCK: usize = 256;
    let closed = Pacing::Closed(Duration::from_secs(60));
    let started = Instant::now();
    let mut out: Vec<(Vec<u32>, Step)> = addrs
        .iter()
        .map(|_| {
            let empty = Step {
                samples: Vec::new(),
                responses: Vec::new(),
                elapsed: Duration::ZERO,
            };
            (Vec::new(), empty)
        })
        .collect();
    for block in stream.chunks(BLOCK) {
        if let Some(addr) = warm {
            drive(addr, lines, block, closed, 1)?;
        }
        for (addr, (sent, step)) in addrs.iter().zip(&mut out) {
            let part = drive(*addr, lines, block, closed, 1)?;
            let base = step.responses.len();
            step.responses.extend_from_slice(&part.responses);
            step.samples.extend(part.samples.into_iter().map(|mut x| {
                x.index += sent.len();
                x.response = x.response.map(|(a, b)| (a + base, b + base));
                x
            }));
            step.elapsed += part.elapsed;
            sent.extend_from_slice(block);
        }
        if started.elapsed() >= budget {
            break;
        }
    }
    Ok(out)
}

fn traced(args: &Args) -> io::Result<Report> {
    let w = args.workload;
    // A third of the window for round trips, a third for a fixed-rate
    // step, a third for the in-process layers.
    let phase = Duration::from_secs_f64(args.seconds / 3.0);
    let due = poisson_schedule(args.seed, w.fixed_rate(), phase.as_secs_f64());
    let mut served = Served::build(w, args.seed, due.len(), phase.as_secs_f64());
    let routed = served.routed.take();
    let (mut stack, _) = set_up(w, args.seed, &served.probe(), 1)?;
    warm_up(&stack, &served.traffic)?;
    let t = &served.traffic;
    let mut admin = Client::connect(stack.front)?;

    // Round trips, on the capacity stream so that the fixed-rate step
    // below still meets fresh requests. Behind the router, the same
    // requests also go straight to the replica the ring sends them to,
    // each block warmed on that replica first so both paths meet the
    // same cache; the hop is the difference over requests that hit on
    // both.
    let (rtt_stream, addrs, warm) = if stack.replicas.is_empty() {
        (t.capacity.clone(), vec![stack.front], None)
    } else {
        let ring = HashRing::with_replicas(stack.replicas.len(), RouterConfig::default().vnodes);
        let owned: Vec<u32> = t
            .capacity
            .iter()
            .copied()
            .filter(|&i| ring.route(key_of_ids(&t.sets[i as usize])) == Some(0))
            .collect();
        (
            owned,
            vec![stack.front, stack.replicas[0]],
            Some(stack.replicas[0]),
        )
    };
    let rtt = round_trips(&addrs, warm, &t.lines, &rtt_stream, phase)?;
    let rtt_hit_share = cached_share(&rtt[0].1);
    let rtt_us = median_us_where(&rtt[0].1, |_| true);
    let hop_us = rtt.get(1).map_or(0.0, |(_, direct)| {
        let routed = &rtt[0].1;
        let hit = |step: &Step| -> Vec<bool> {
            let mut hit = vec![false; step.samples.len()];
            for s in &step.samples {
                if let Some(h) = hit.get_mut(s.index) {
                    *h = cached(step, s);
                }
            }
            hit
        };
        let (a, b) = (hit(routed), hit(direct));
        let both = |i: usize| a.get(i) == Some(&true) && b.get(i) == Some(&true);
        median_us_where(routed, both) - median_us_where(direct, both)
    });

    // A fixed-rate step, with the write lane running on refresh-routed.
    let lane = w
        .writes_during_window()
        .then(|| phase.as_secs_f64().ceil() as usize);
    if let Some(n) = lane {
        stack.start_writes(n, Duration::from_secs(1))?;
    }
    let before = counters(&mut admin)?;
    let fixed = drive(
        stack.front,
        &t.lines,
        &t.fixed,
        Pacing::Open(&due),
        CONNECTIONS,
    )?;
    let after = counters(&mut admin)?;
    let rollouts = match lane {
        Some(_) => stack.finish_writes()?,
        None => {
            stack.start_writes(3, Duration::ZERO)?;
            stack.finish_writes()?
        }
    };
    let hit_rate = hit_share(&before, &after);
    let wakeups_per_req =
        delta(&before, &after, "reactor_wakeups_total") / fixed.samples.len().max(1) as f64;
    drop(admin);
    stack.stop()?;

    // Correctness of everything sent.
    let mut steps: Vec<(&[u32], &Step)> = rtt.iter().map(|(s, st)| (&s[..], st)).collect();
    steps.push((&t.fixed[..], &fixed));
    let last = last_generation(&steps.iter().map(|(_, s)| *s).collect::<Vec<_>>());
    let mut attempted = 0;
    let mut failed = 0;
    let reference = reference(&served.model, routed, last);
    let verdicts: Vec<Vec<bool>> = steps
        .iter()
        .map(|(stream, step)| check(step, stream, &t.sets, &reference))
        .collect();
    let mut late_steps = 0;
    for ((_, step), ok) in steps.iter().zip(&verdicts) {
        attempted += step.samples.len();
        let (f, late) = report_step("traced", step, ok);
        (failed, late_steps) = (failed + f, late_steps + late as usize);
    }
    warn_late(late_steps, steps.len());

    // In-process layers, on this workload's inputs.
    let fixed_sets: Vec<&[u32]> = t.fixed.iter().map(|&i| &t.sets[i as usize][..]).collect();
    let lines: Vec<&str> = t
        .fixed
        .iter()
        .map(|&i| {
            std::str::from_utf8(&t.lines[i as usize])
                .expect("ASCII lines")
                .trim_end()
        })
        .collect();
    let responses: Vec<Json> = fixed
        .samples
        .iter()
        .filter_map(|s| fixed.response(s))
        .filter_map(|r| json::parse(std::str::from_utf8(r).ok()?).ok())
        .collect();
    let parse_us = layers::parse_us(&lines);
    let render_us = layers::render_us(&responses);
    let publish_every = if lane.is_some() {
        w.fixed_rate() as usize
    } else {
        0
    };
    let lookup_us = layers::cache_lookup_us(
        &fixed_sets,
        ServerConfig::default().cache_capacity,
        publish_every,
    );
    // Distinct sets, so the batcher scores every call.
    let distinct: Vec<&[u32]> = t.sets.iter().map(|s| &s[..]).collect();
    let batcher = layers::batcher(Arc::clone(&served.model), &distinct, 2, phase / 8);
    // A lone caller, as on the one-connection round trips.
    let lone = layers::batcher(Arc::clone(&served.model), &distinct, 1, phase / 8);
    let batch = batcher.batch_size.round().max(1.0) as usize;
    let score_us = layers::score_us(&served.model, &distinct, batch);
    let mean_set = distinct.iter().map(|s| s.len()).sum::<usize>() as f64 / distinct.len() as f64;
    let (flop, bytes) = layers::score_counts(&served.model, mean_set, batcher.batch_size);
    let topk_us = layers::topk_us(&served.model, &distinct);
    let (encode_ms, slot_publish_ms) = layers::artifact_ms(&served.model, &served.vocab);
    let online =
        lane.map(|_| layers::online(&mut Routed::build(args.seed), 3, &online_config(args.seed)));
    let rollout_ms = median(&rollouts.iter().map(|r| r.publish_ms).collect::<Vec<_>>());
    // The in-process share of one round trip: parse, cache, render, and
    // the batcher call for the share of round trips that missed.
    let attributed = parse_us + lookup_us + render_us + (1.0 - rtt_hit_share) * lone.call_us;
    let coverage = attributed / rtt_us;
    println!(
        "ledger {}: rtt_us={rtt_us:.2} parse_us={parse_us:.3} cache_us={lookup_us:.3} \
         render_us={render_us:.3} rtt_hit_share={rtt_hit_share:.3} lone_batcher_call_us={:.1} \
         coverage={coverage:.3} unattributed_us={:.2} | two callers: batcher_call_us={:.1} \
         queue_us={:.1} gemm_us={score_us:.1} at batch {batch} topk_us={topk_us:.2}",
        w.name(),
        lone.call_us,
        rtt_us - attributed,
        batcher.call_us,
        batcher.queue_us,
    );
    let o = |f: fn(&layers::OnlineFigures) -> f64| online.as_ref().map_or(0.0, f);
    Ok(Report {
        correct: failed == 0 && !rollouts.is_empty(),
        attempted,
        failed,
        metrics: vec![
            ("wire.rtt_us", rtt_us, "us"),
            ("serve.json.parse_us", parse_us, "us"),
            ("serve.json.render_us", render_us, "us"),
            ("serve.cache.lookup_us", lookup_us, "us"),
            ("serve.cache.hit_rate", hit_rate, "ratio"),
            ("serve.batcher.call_us", batcher.call_us, "us"),
            ("serve.batcher.queue_us", batcher.queue_us, "us"),
            ("serve.batcher.batch_size", batcher.batch_size, "count"),
            ("serve.frozen.score_us", score_us, "us"),
            ("serve.frozen.flop_per_query", flop, "flop"),
            ("serve.frozen.bytes_per_query", bytes, "bytes"),
            ("serve.topk.select_us", topk_us, "us"),
            ("serve.wire.unattributed_us", rtt_us - attributed, "us"),
            ("serve.wire.coverage", coverage, "ratio"),
            ("serve.reactor.wakeups_per_req", wakeups_per_req, "count"),
            ("cluster.router.hop_us", hop_us, "us"),
            ("online.ingest.append_us", o(|f| f.append_us), "us"),
            ("online.refresh.delta_ms", o(|f| f.delta_ms), "ms"),
            ("online.refresh.finetune_ms", o(|f| f.finetune_ms), "ms"),
            ("online.refresh.freeze_ms", o(|f| f.freeze_ms), "ms"),
            ("serve.artifact.encode_ms", encode_ms, "ms"),
            ("serve.slot.publish_ms", slot_publish_ms, "ms"),
            ("cluster.publish.rollout_ms", rollout_ms, "ms"),
            ("gen.late_p99_ms", late_ms(&fixed, 0.99), "ms"),
        ],
    })
}
