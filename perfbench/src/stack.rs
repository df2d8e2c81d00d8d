//! The serving stack under test, run in a child process of its own so
//! that CPU time and memory are the stack's and not the generator's.
//!
//! The child is this executable started as `perfbench __child <workload>
//! <seed>`. It builds its model, binds its servers on ephemeral ports and
//! prints `ready <front> [<replica>...]`. On `writes <n> <interval_ms>`
//! from its stdin it runs the write lane, printing one `refresh` line per
//! rollout and then `writes-done`. It shuts down when its stdin closes.

use std::io::{self, BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smgcn_bench::harness::{spawn_server, SpawnedServer};
use smgcn_cluster::{Router, RouterConfig};
use smgcn_serve::artifact;
use smgcn_serve::json::{self, Json};
use smgcn_serve::ServerConfig;

use crate::gen::Client;
use crate::workload::{synthetic, Routed, Workload};

/// How long the child may take to print `ready`.
const READY_TIMEOUT: Duration = Duration::from_secs(120);

/// One write-lane rollout, as the child reports it.
#[derive(Clone, Copy, Debug)]
pub struct Rollout {
    /// Generation every replica acknowledged.
    pub generation: u64,
    /// Ingest (refresh-routed) or encode (the others) to the last
    /// acknowledgement.
    pub total_ms: f64,
    /// The publish verb's round trip alone.
    pub publish_ms: f64,
}

/// A running child stack.
pub struct Stack {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
    /// Where clients connect: the replica, or the router.
    pub front: SocketAddr,
    /// The replicas behind the router (refresh-routed only).
    pub replicas: Vec<SocketAddr>,
    /// Spawn to first successful response, seconds.
    pub setup_s: f64,
}

impl Stack {
    /// Spawns the stack for `workload` and waits until it has answered
    /// `probe` (a ranking request) successfully; that wait is the
    /// set-up time.
    pub fn start(workload: Workload, seed: u64, probe: &str) -> io::Result<Self> {
        let started = Instant::now();
        let mut child = Command::new(std::env::current_exe()?)
            .args(["__child", workload.name(), &seed.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut stack = Self {
            child,
            stdin,
            lines,
            reader: Some(reader),
            front: "127.0.0.1:0".parse().expect("literal address"),
            replicas: Vec::new(),
            setup_s: 0.0,
        };
        let ready = stack.next_line(READY_TIMEOUT)?;
        let mut addrs = ready
            .strip_prefix("ready ")
            .ok_or_else(|| protocol(format!("expected ready, got {ready:?}")))?
            .split(' ')
            .map(|a| {
                a.parse()
                    .map_err(|_| protocol(format!("bad address {a:?}")))
            });
        stack.front = addrs
            .next()
            .ok_or_else(|| protocol("no address".into()))??;
        stack.replicas = addrs.collect::<io::Result<_>>()?;
        let mut client = Client::connect(stack.front)?;
        let response = client.request(probe)?;
        if crate::check::parse_ranking(response.as_bytes()).is_none() {
            return Err(protocol(format!("probe failed: {response}")));
        }
        stack.setup_s = started.elapsed().as_secs_f64();
        Ok(stack)
    }

    fn next_line(&self, timeout: Duration) -> io::Result<String> {
        self.lines
            .recv_timeout(timeout)
            .map_err(|_| protocol("the stack stopped talking".into()))
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Starts the write lane: `n` rollouts, one every `interval`.
    pub fn start_writes(&mut self, n: usize, interval: Duration) -> io::Result<()> {
        let stdin = self.stdin.as_mut().expect("stdin open while running");
        writeln!(stdin, "writes {n} {}", interval.as_millis())?;
        stdin.flush()
    }

    /// Waits for the write lane to finish and returns its rollouts.
    pub fn finish_writes(&mut self) -> io::Result<Vec<Rollout>> {
        let mut rollouts = Vec::new();
        loop {
            let line = self.next_line(READY_TIMEOUT)?;
            if line == "writes-done" {
                return Ok(rollouts);
            }
            let fields: Vec<&str> = line.split(' ').collect();
            let num = |i: usize| -> io::Result<f64> {
                fields
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| protocol(format!("bad rollout line {line:?}")))
            };
            if fields[0] != "refresh" {
                return Err(protocol(format!("write lane failed: {line}")));
            }
            rollouts.push(Rollout {
                generation: num(1)? as u64,
                total_ms: num(2)?,
                publish_ms: num(3)?,
            });
        }
    }

    /// Closes the child's stdin and waits for it to exit.
    pub fn stop(mut self) -> io::Result<()> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> io::Result<()> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            if let Some(status) = self.child.try_wait()? {
                break status;
            }
            if Instant::now() > deadline {
                self.child.kill()?;
                break self.child.wait()?;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(protocol(format!("stack exited with {status}")))
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        if self.reader.is_some() {
            let _ = self.child.kill();
            let _ = self.shutdown();
        }
    }
}

fn protocol(message: String) -> io::Error {
    io::Error::other(message)
}

/// Sums the first field (time on CPU, ns) of each thread's schedstat.
pub fn sum_schedstat<S: AsRef<str>>(stats: impl IntoIterator<Item = S>) -> u64 {
    stats
        .into_iter()
        .filter_map(|s| s.as_ref().split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// CPU time of every live thread of `pid`, in nanoseconds, from
/// `/proc/<pid>/task/*/schedstat`. Threads that exited are not counted.
pub fn cpu_ns(pid: u32) -> io::Result<u64> {
    let mut stats = Vec::new();
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        // A thread can exit between listing and reading; skip it.
        if let Ok(s) = std::fs::read_to_string(task?.path().join("schedstat")) {
            stats.push(s);
        }
    }
    Ok(sum_schedstat(stats))
}

/// Time the hypervisor has stolen from this machine's CPUs since boot,
/// summed over CPUs, in ms: the `steal` field of `/proc/stat`'s `cpu`
/// line (in `USER_HZ` ticks, taken as 100 per second). `None` where the
/// kernel does not report it.
pub fn host_steal_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    let steal: f64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal * 10.0)
}

/// Peak resident set (`VmHWM`) of `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| protocol("no VmHWM in /proc status".into()))
}

// ---------------------------------------------------------------------
// The child side.

fn replica_config() -> ServerConfig {
    // The `smgcn serve` defaults, with room for the router's pool.
    ServerConfig {
        max_connections: 256,
        ..ServerConfig::default()
    }
}

/// Entry point of `perfbench __child <workload> <seed>`.
pub fn child_main(workload: Workload, seed: u64) -> io::Result<()> {
    let mut out = io::stdout().lock();
    let stdin = io::stdin();
    match workload.shape() {
        Some(shape) => {
            let (model, vocab) = synthetic(shape);
            let server = spawn_server(model.clone(), vocab.clone(), replica_config());
            writeln!(out, "ready {}", server.addr)?;
            out.flush()?;
            let mut admin = None;
            for line in stdin.lock().lines() {
                let (n, interval) = parse_writes(&line?)?;
                let admin = match &mut admin {
                    Some(c) => c,
                    None => admin.insert(Client::connect(server.addr)?),
                };
                // No write lane: roll the served model out again.
                run_lane(&mut out, n, interval, || {
                    let b64 = artifact::to_base64(&artifact::encode(&model, &vocab));
                    let (publish_ms, acked) = publish(admin, &b64)?;
                    let generation =
                        acked.ok_or_else(|| protocol("the replica refused the publish".into()))?;
                    Ok(Some((generation, publish_ms)))
                })?;
            }
            server.shutdown();
        }
        None => {
            let mut routed = Routed::build(seed);
            let (model, vocab) = artifact::decode(&routed.pipeline.publish_artifact())
                .map_err(|e| protocol(e.to_string()))?;
            let replicas: Vec<SpawnedServer> = (0..2)
                .map(|_| spawn_server(model.clone(), vocab.clone(), replica_config()))
                .collect();
            let router = Router::bind(
                "127.0.0.1:0",
                replicas.iter().map(|r| r.addr).collect(),
                RouterConfig::default(),
            )?;
            let front = router.local_addr()?;
            let stop = router.stop_handle();
            let router_thread = std::thread::spawn(move || router.run());
            write!(out, "ready {front}")?;
            for r in &replicas {
                write!(out, " {}", r.addr)?;
            }
            writeln!(out)?;
            out.flush()?;
            let mut admin = Client::connect(front)?;
            let mut next_batch = 0;
            for line in stdin.lock().lines() {
                let (n, interval) = parse_writes(&line?)?;
                run_lane(&mut out, n, interval, || {
                    if routed.batch(next_batch).is_none() {
                        return Ok(None);
                    }
                    let generation = routed.apply(next_batch);
                    next_batch += 1;
                    let b64 = artifact::to_base64(&routed.pipeline.publish_artifact());
                    let (publish_ms, acked) = publish(&mut admin, &b64)?;
                    if acked != Some(generation) {
                        return Err(protocol(format!(
                            "replicas acknowledged {acked:?}, pipeline is at {generation}"
                        )));
                    }
                    Ok(Some((generation, publish_ms)))
                })?;
            }
            stop.stop();
            router_thread
                .join()
                .map_err(|_| protocol("router thread panicked".into()))??;
            for r in replicas {
                r.shutdown();
            }
        }
    }
    Ok(())
}

fn parse_writes(line: &str) -> io::Result<(usize, Duration)> {
    let mut f = line.split(' ');
    match (f.next(), f.next(), f.next()) {
        (Some("writes"), Some(n), Some(ms)) => Ok((
            n.parse()
                .map_err(|_| protocol(format!("bad count in {line:?}")))?,
            Duration::from_millis(
                ms.parse()
                    .map_err(|_| protocol(format!("bad interval in {line:?}")))?,
            ),
        )),
        _ => Err(protocol(format!("unknown command {line:?}"))),
    }
}

/// Runs `n` rollouts one `interval` apart, printing a `refresh` line
/// each; `rollout` returns `None` when it has nothing left to publish.
fn run_lane(
    out: &mut impl Write,
    n: usize,
    interval: Duration,
    mut rollout: impl FnMut() -> io::Result<Option<(u64, f64)>>,
) -> io::Result<()> {
    let lane = Instant::now();
    for i in 0..n {
        let due = lane + interval * i as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let started = Instant::now();
        let result = rollout();
        let total_ms = started.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(Some((generation, publish_ms))) => {
                writeln!(out, "refresh {generation} {total_ms:.4} {publish_ms:.4}")?
            }
            Ok(None) => break,
            Err(e) => writeln!(out, "error {e}")?,
        }
        out.flush()?;
    }
    writeln!(out, "writes-done")?;
    out.flush()
}

/// Sends `{"op":"publish"}` with `b64` and returns the round trip in ms
/// and the generation every replica acknowledged (`None` if any
/// replica failed or they disagree).
fn publish(admin: &mut Client, b64: &str) -> io::Result<(f64, Option<u64>)> {
    let line = format!("{{\"op\":\"publish\",\"artifact\":\"{b64}\"}}");
    let started = Instant::now();
    let response = admin.request(&line)?;
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let ack = json::parse(&response).map_err(protocol)?;
    let generation = match ack.get("outcomes").and_then(Json::as_arr) {
        // A router: every replica must be ok and at one generation.
        Some(outcomes) => {
            let gens: Vec<Option<u64>> = outcomes
                .iter()
                .map(|o| match o.get("ok") {
                    Some(Json::Bool(true)) => {
                        o.get("generation").and_then(Json::as_num).map(|g| g as u64)
                    }
                    _ => None,
                })
                .collect();
            match gens.first() {
                Some(&Some(g)) if gens.iter().all(|&x| x == Some(g)) => Some(g),
                _ => None,
            }
        }
        // A replica.
        None => ack
            .get("generation")
            .and_then(Json::as_num)
            .map(|g| g as u64),
    };
    Ok((ms, generation))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_sums_the_first_field_of_every_thread() {
        let stats = ["1000 20 3\n", "2500 7 1\n", "not a number\n", ""];
        assert_eq!(sum_schedstat(stats), 3500);
    }

    #[test]
    fn process_cpu_counts_a_busy_thread_while_it_lives() {
        let pid = std::process::id();
        let before = cpu_ns(pid).unwrap();
        let (spun, spun_rx) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let busy = std::thread::spawn(move || {
            let t = Instant::now();
            let mut x = 0u64;
            while t.elapsed() < Duration::from_millis(60) {
                x = std::hint::black_box(x.wrapping_add(1));
            }
            spun.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        spun_rx.recv().unwrap();
        let after = cpu_ns(pid).unwrap();
        release.send(()).unwrap();
        busy.join().unwrap();
        assert!(
            after - before >= 50_000_000,
            "a 60 ms busy loop added only {} ns",
            after - before
        );
        assert!(peak_rss_mib(pid).unwrap() > 0.0);
    }
}
