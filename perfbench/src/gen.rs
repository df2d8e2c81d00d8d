//! The load generator: seeded open-loop arrival schedules, the
//! two-connection client that drives them, and the latency statistics
//! taken from what it records.
//!
//! Each connection keeps one request in flight, because the server
//! dispatches one request per connection and the repository's own
//! clients (loadgen workers, the router's replica pool) work the same
//! way. Requests that fall due while both connections are busy wait in
//! the generator, and their latency is timed from when they were due, so
//! a stall is charged to every request queued behind it.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Connections (and threads) the generator uses: one per core of the
/// two-core machine the figures in `README.md` were taken on.
pub const CONNECTIONS: usize = 2;

/// A response slower than this counts as a transport failure.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Sets this thread's timer slack to 1 ns, so a sleep until a request's
/// due time wakes when asked rather than up to 50 µs later. Threads
/// spawned afterwards inherit it. Returns false where unsupported.
pub fn set_timer_slack_1ns() -> bool {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: i32, ...) -> i32;
        }
        const PR_SET_TIMERSLACK: i32 = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
        // only changes the calling thread's timer slack.
        unsafe { prctl(PR_SET_TIMERSLACK, 1u64) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// Due times, in nanoseconds from the start of a step, of a Poisson
/// arrival process at `rate` per second lasting `seconds`.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let end = seconds * 1e9;
    let mut t = 0.0f64;
    let mut due = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    loop {
        // Inverse-CDF draw of an exponential gap; 1 - u lies in (0, 1].
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate * 1e9;
        if t >= end {
            return due;
        }
        due.push(t as u64);
    }
}

/// How a step paces its requests.
#[derive(Clone, Copy)]
pub enum Pacing<'a> {
    /// Open loop: request `i` falls due at `due[i]` ns after the start.
    Open(&'a [u64]),
    /// Closed loop: every connection sends its next request as soon as
    /// the previous response arrives, until the duration has passed.
    Closed(Duration),
}

/// One request the generator issued.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Position in the request stream.
    pub index: usize,
    /// When it fell due (open loop) or was sent (closed loop), ns from
    /// the start of the step.
    pub due_ns: u64,
    /// When its response arrived (or the transport failed).
    pub done_ns: u64,
    /// How late the generator sent it: the time between the request
    /// being both due and holding a free connection, and its send.
    pub late_ns: u64,
    /// Byte range of the response line in [`Step::responses`]; `None`
    /// when the transport failed.
    pub response: Option<(usize, usize)>,
}

impl Sample {
    /// Latency from due time to response, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e6
    }
}

/// Everything one step recorded.
pub struct Step {
    /// Samples in stream order.
    pub samples: Vec<Sample>,
    /// Response lines, back to back, without their newlines.
    pub responses: Vec<u8>,
    /// Wall time from the start of the step to the last response.
    pub elapsed: Duration,
}

impl Step {
    /// The response line of `sample`, if one arrived.
    pub fn response(&self, sample: &Sample) -> Option<&[u8]> {
        sample.response.map(|(a, b)| &self.responses[a..b])
    }
}

/// A line-oriented client connection with one request in flight.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
}

impl Client {
    /// Connects with Nagle disabled on the client side.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(4096),
            start: 0,
        })
    }

    /// Sends `line` (which ends in a newline) and appends the response
    /// line, without its newline, to `out`.
    pub fn call(&mut self, line: &[u8], out: &mut Vec<u8>) -> io::Result<()> {
        self.stream.write_all(line)?;
        loop {
            if let Some(pos) = self.buf[self.start..].iter().position(|&b| b == b'\n') {
                out.extend_from_slice(&self.buf[self.start..self.start + pos]);
                self.start += pos + 1;
                if self.start == self.buf.len() {
                    self.buf.clear();
                    self.start = 0;
                }
                return Ok(());
            }
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            let len = self.buf.len();
            self.buf.resize(len.max(2048) * 2, 0);
            let n = self.stream.read(&mut self.buf[len..])?;
            self.buf.truncate(len + n);
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
        }
    }

    /// One request/response round trip returning the response text.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        let mut out = Vec::new();
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.call(&framed, &mut out)?;
        String::from_utf8(out).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// Drives `stream` (indices into `lines`) against `addr` over
/// `connections` connections, one thread each, paced by `pacing`.
///
/// # Errors
/// Fails only when no connection can be opened at the start; later
/// transport errors are recorded as failed samples.
pub fn drive(
    addr: SocketAddr,
    lines: &[Vec<u8>],
    stream: &[u32],
    pacing: Pacing<'_>,
    connections: usize,
) -> io::Result<Step> {
    let n = match pacing {
        Pacing::Open(due) => due.len().min(stream.len()),
        Pacing::Closed(_) => stream.len(),
    };
    let clients = (0..connections)
        .map(|_| Client::connect(addr))
        .collect::<io::Result<Vec<_>>>()?;
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let since = |t: Instant| t.duration_since(start).as_nanos() as u64;
    let per_thread: Vec<(Vec<Sample>, Vec<u8>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let next = &next;
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut responses = Vec::new();
                    let mut broken = false;
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= n {
                            break;
                        }
                        let ready = since(Instant::now());
                        let due = match pacing {
                            Pacing::Open(due) => {
                                let due = due[index];
                                if due > ready {
                                    std::thread::sleep(Duration::from_nanos(due - ready));
                                }
                                due
                            }
                            Pacing::Closed(limit) => {
                                if ready >= limit.as_nanos() as u64 {
                                    break;
                                }
                                ready
                            }
                        };
                        let sent = since(Instant::now());
                        let late_ns = sent - due.max(ready);
                        if broken {
                            // Reconnect once per request after a transport
                            // failure; a refused reconnect fails the request.
                            match Client::connect(addr) {
                                Ok(c) => {
                                    client = c;
                                    broken = false;
                                }
                                Err(_) => {
                                    samples.push(Sample {
                                        index,
                                        due_ns: due,
                                        done_ns: since(Instant::now()),
                                        late_ns,
                                        response: None,
                                    });
                                    continue;
                                }
                            }
                        }
                        let at = responses.len();
                        let line = &lines[stream[index] as usize];
                        let response = match client.call(line, &mut responses) {
                            Ok(()) => Some((at, responses.len())),
                            Err(_) => {
                                responses.truncate(at);
                                broken = true;
                                None
                            }
                        };
                        samples.push(Sample {
                            index,
                            due_ns: due,
                            done_ns: since(Instant::now()),
                            late_ns,
                            response,
                        });
                    }
                    (samples, responses)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut samples = Vec::new();
    let mut responses = Vec::new();
    for (thread_samples, thread_responses) in per_thread {
        let base = responses.len();
        responses.extend_from_slice(&thread_responses);
        samples.extend(thread_samples.into_iter().map(|mut s| {
            s.response = s.response.map(|(a, b)| (a + base, b + base));
            s
        }));
    }
    samples.sort_unstable_by_key(|s| s.index);
    Ok(Step {
        samples,
        responses,
        elapsed,
    })
}

/// The `q`-quantile (0..=1) of ascending `sorted` by nearest rank.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of unsorted `values`.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    if v.len() % 2 == 1 {
        v[v.len() / 2]
    } else {
        (v[v.len() / 2 - 1] + v[v.len() / 2]) / 2.0
    }
}

/// The mean of the middle half of `values` (the interquartile mean):
/// steadier than the median when the values fall in two modes, and
/// unmoved by a few outliers.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Percentiles a tail is reported at, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// The highest of [`TAIL_PERCENTILES`] that has at least ten samples
/// beyond it in ascending `sorted`, with its value and how many samples
/// lie beyond it. Falls back to the median when even p50 is not
/// supported.
pub fn tail(sorted: &[f64]) -> (f64, f64, usize) {
    for &p in &TAIL_PERCENTILES {
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        let beyond = sorted.len().saturating_sub(rank.max(1));
        if beyond >= 10 {
            return (p, quantile(sorted, p / 100.0), beyond);
        }
    }
    let beyond = sorted.len() / 2;
    (50.0, quantile(sorted, 0.5), beyond)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;

    #[test]
    fn seeded_schedule_reproduces_byte_for_byte() {
        let bytes = |seed| -> Vec<u8> {
            poisson_schedule(seed, 10_000.0, 0.5)
                .iter()
                .flat_map(|t| t.to_le_bytes())
                .collect()
        };
        assert_eq!(bytes(7), bytes(7));
        assert_ne!(bytes(7), bytes(8));
        let due = poisson_schedule(7, 10_000.0, 0.5);
        assert!(due.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        assert!(
            (4_500..5_500).contains(&due.len()),
            "about rate x seconds arrivals, got {}",
            due.len()
        );
    }

    #[test]
    fn tail_falls_back_when_p99_has_too_few_samples_beyond() {
        // 1000 samples: 10 lie beyond p99, so p99 is supported.
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&many), (99.0, 990.0, 10));
        // 500 samples: p99 has 5 beyond, p95 has 25.
        let fewer: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(tail(&fewer), (95.0, 475.0, 25));
        // 20000 samples support p99.9.
        let lots: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(tail(&lots).0, 99.9);
        // Too few for anything but the median.
        let tiny = [1.0, 2.0, 3.0];
        assert_eq!(tail(&tiny).0, 50.0);
    }

    #[test]
    fn quantile_and_median_pick_nearest_ranks() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // Eight values: the lowest two and highest two are dropped.
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 4.0, 5.0, 6.0, 7.0, 0.0, 50.0]),
            5.5
        );
        assert_eq!(interquartile_mean(&[3.0]), 3.0);
    }

    /// A line server that holds the responses to its first two requests
    /// for `stall` and answers the rest at once.
    fn stalling_server(stall: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let seen = std::sync::Arc::new(AtomicUsize::new(0));
        std::thread::spawn(move || {
            for conn in listener.incoming().take(CONNECTIONS) {
                let mut conn = conn.unwrap();
                let seen = std::sync::Arc::clone(&seen);
                std::thread::spawn(move || {
                    let mut reader = io::BufReader::new(conn.try_clone().unwrap());
                    let mut line = String::new();
                    while reader.read_line(&mut line).unwrap_or(0) > 0 {
                        if seen.fetch_add(1, Ordering::SeqCst) < 2 {
                            std::thread::sleep(stall);
                        }
                        conn.write_all(b"{\"ok\":true}\n").unwrap();
                        line.clear();
                    }
                });
            }
        });
        addr
    }

    #[test]
    fn due_time_latency_includes_the_wait_behind_stalled_connections() {
        let stall = Duration::from_millis(60);
        let addr = stalling_server(stall);
        let lines = vec![b"{}\n".to_vec()];
        let stream = vec![0u32; 4];
        // Requests 0 and 1 occupy both connections for 60 ms; 2 and 3
        // fall due at 1 and 2 ms and must queue in the generator.
        let due = [0, 0, 1_000_000, 2_000_000];
        let step = drive(addr, &lines, &stream, Pacing::Open(&due), CONNECTIONS).unwrap();
        assert_eq!(step.samples.len(), 4);
        for s in &step.samples {
            assert_eq!(step.response(s), Some(&b"{\"ok\":true}"[..]));
        }
        let queued = &step.samples[2..];
        for s in queued {
            assert!(
                s.latency_ms() >= 55.0,
                "request {} waited behind a stall but reads {:.2} ms",
                s.index,
                s.latency_ms()
            );
            // The wait is queueing, not generator lateness.
            assert!(s.late_ns < 20_000_000, "late {} ns", s.late_ns);
        }
    }

    #[test]
    fn closed_loop_stops_after_its_duration() {
        let addr = stalling_server(Duration::ZERO);
        let lines = vec![b"{}\n".to_vec()];
        let stream = vec![0u32; 1_000_000];
        let step = drive(
            addr,
            &lines,
            &stream,
            Pacing::Closed(Duration::from_millis(100)),
            CONNECTIONS,
        )
        .unwrap();
        assert!(!step.samples.is_empty());
        assert!(step.samples.len() < stream.len());
        assert!(step.elapsed < Duration::from_secs(2));
    }
}
