//! `serve-mixed`: a `sunmap serve` child process on loopback: closed
//! bursts of the request catalogue on one connection, then an open loop
//! at a fixed ladder of request rates: the reference rate on one
//! connection, the others over two (one per daemon worker on a 2-CPU
//! host).
//!
//! The request mix is the four seed applications plus small `synth:`
//! applications (8–14 cores) at three link capacities, so the daemon's
//! `(cores, capacity)` library cache both hits and misses; a quarter of
//! the requests carry a simulation probe. Every open-loop request is
//! timed from its scheduled send, so a stall delays the requests behind
//! it, and every response is compared byte for byte with what the
//! in-process `RequestRunner::run` returns for the same request.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sunmap::request::{ExploreRequest, RequestRunner, SimProbe};
use sunmap::serve::{read_frame, report_slice, write_frame};
use sunmap::traffic::patterns::TrafficPattern;
use sunmap::Objective;

use crate::expected::Checker;
use crate::trace::Tracer;
use crate::util::{
    cpu_ticks, digest, geometric_mean, median, metric, ms, peak_rss_mb, percentile, since_ms,
    unstolen_share, Outcome, Rng,
};

/// Client connections, and so daemon workers kept busy.
const CONNECTIONS: usize = 2;
const SEED_APPS: [&str; 4] = ["vopd", "mpeg4", "dsp", "netproc"];
/// Synthetic applications in the mix, of 8 to 14 cores.
const SYNTH_APPS: usize = 4;
const CAPACITIES: [f64; 3] = [500.0, 750.0, 1000.0];
/// Timed closed bursts of the catalogue, after one untimed burst.
const BURSTS: usize = 12;
/// Open-loop ladder (requests per second). The reference rate is where
/// `latency_ms` and `serve.latency_p90_ms` are measured, over one
/// connection.
const LADDER: [f64; 5] = [10.0, 20.0, 40.0, 80.0, 160.0];
const REFERENCE_RATE: f64 = 10.0;
const MIN_REFERENCE_PASSES: f64 = 4.0;
/// A ladder step counts toward `max_rate_rps` only if its p95 latency
/// stays within this limit, nothing failed, the latency did not keep
/// growing, and the generator sent on time.
const P95_LIMIT_MS: f64 = 250.0;
const LAG_LIMIT_MS: f64 = 25.0;
/// How long a step may take to drain before its open requests time out.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);
const SETUP_REPEATS: usize = 9;
const PINGS: usize = 16;

/// The request catalogue: every seed application at every capacity under
/// both objectives, and each synthetic application at one capacity, with a
/// probe on every fourth request. The shape is fixed so that the load's
/// cost varies little between seeds: the seed picks only the synthetic
/// applications (and the order of the requests in the ladder steps above
/// the reference rate), and the fixed seed-application requests outnumber
/// them six to one.
fn catalogue(rng: &mut Rng) -> Vec<ExploreRequest> {
    let objectives = [Objective::MinDelay, Objective::MinPower];
    let mut cells: Vec<(String, f64, Objective)> = Vec::new();
    for app in SEED_APPS {
        for capacity in CAPACITIES {
            for objective in objectives {
                cells.push((app.to_string(), capacity, objective));
            }
        }
    }
    for k in 0..SYNTH_APPS {
        let spec = format!("synth:seed={},cores={}", rng.app_seed(), 8 + 2 * (k % 4));
        cells.push((spec, CAPACITIES[k % CAPACITIES.len()], objectives[k % 2]));
    }
    cells
        .into_iter()
        .enumerate()
        .map(|(i, (app, capacity, objective))| {
            let mut req = ExploreRequest::new(app.parse().expect("generated specs parse"));
            req.capacity = capacity;
            req.objective = objective;
            if i % 4 == 3 {
                req.probe = Some(SimProbe {
                    pattern: TrafficPattern::UniformRandom,
                    rate: 0.05,
                    top_k: 1,
                });
            }
            req
        })
        .collect()
}

fn explore_frame(req: &ExploreRequest) -> String {
    format!("{{\"op\":\"explore\",\"request\":{}}}", req.to_json())
}

/// The daemon child process; killed and reaped if still running when
/// dropped.
struct Daemon {
    child: Child,
    addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    fn spawn(sunmap: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(sunmap)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", sunmap.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let mut reader = BufReader::new(stdout);
        let read = reader.read_line(&mut line);
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            drain: None,
        };
        match read {
            Ok(n) if n > 0 => {}
            _ => return Err("the daemon exited before announcing its address".to_string()),
        }
        daemon.addr = line
            .trim()
            .rsplit(' ')
            .next()
            .unwrap_or_default()
            .to_string();
        // The daemon prints its final metrics on exit; keep draining
        // stdout so that write can never block.
        daemon.drain = Some(std::thread::spawn(move || {
            let _ = io::copy(&mut reader, &mut io::sink());
        }));
        Ok(daemon)
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let stream = TcpStream::connect(&self.addr)
            .map_err(|e| format!("cannot connect to {}: {e}", self.addr))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(stream)
    }

    /// Sends `shutdown` and waits for the process to exit.
    fn shutdown(mut self, stream: &mut TcpStream) -> Result<(), String> {
        roundtrip(stream, "{\"op\":\"shutdown\"}")?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("the daemon did not exit after shutdown".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

fn roundtrip(stream: &mut TcpStream, frame: &str) -> Result<String, String> {
    write_frame(stream, frame).map_err(|e| format!("send failed: {e}"))?;
    read_frame(stream)
        .map_err(|e| format!("receive failed: {e}"))?
        .ok_or_else(|| "the daemon closed the connection".to_string())
}

/// Reads length-prefixed frames from a socket without blocking past a
/// deadline, so one thread can both send on schedule and collect
/// responses. (`read_frame` blocks until a whole frame arrives, and a
/// read timeout part-way through it would lose the bytes already read.)
struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    fn take_frame(&mut self) -> Option<Result<String, String>> {
        if self.buf.len() < 4 {
            return None;
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if self.buf.len() < 4 + len {
            return None;
        }
        let payload: Vec<u8> = self.buf.drain(..4 + len).skip(4).collect();
        Some(String::from_utf8(payload).map_err(|_| "response is not UTF-8".to_string()))
    }

    /// The next frame, or `None` if none arrived by `until`.
    fn poll(&mut self, stream: &mut TcpStream, until: Instant) -> Result<Option<String>, String> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(frame) = self.take_frame() {
                return frame.map(Some);
            }
            let now = Instant::now();
            if now >= until {
                return Ok(None);
            }
            let wait = (until - now).max(Duration::from_micros(100));
            stream
                .set_read_timeout(Some(wait))
                .map_err(|e| e.to_string())?;
            quick_ack(stream);
            match stream.read(&mut chunk) {
                Ok(0) => return Err("the daemon closed the connection".to_string()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(e) => return Err(format!("receive failed: {e}")),
            }
        }
    }
}

/// Asks the kernel to acknowledge the next data on `stream` at once. The
/// daemon writes each response as a 4-byte length and then the payload,
/// without `TCP_NODELAY`, so with the default delayed ACK the payload can
/// wait ~40 ms for the length's acknowledgement. The load generator
/// acknowledges at once, like a latency-sensitive client, so its latencies
/// measure the daemon rather than that stall; the pings, which read
/// without it, still show the stall (`serve.ping_rtt_ms`).
#[cfg(target_os = "linux")]
fn quick_ack(stream: &TcpStream) {
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::AsRawFd;
    const IPPROTO_TCP: c_int = 6;
    const TCP_QUICKACK: c_int = 12;
    extern "C" {
        // `setsockopt(2)` from the platform C library.
        fn setsockopt(
            socket: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
    }
    let on: c_int = 1;
    // SAFETY: the descriptor belongs to `stream`, which is open for the
    // whole call; `value` points to a live `c_int` whose size is passed as
    // the length. A failure only leaves the default ACK behaviour.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            (&on as *const c_int).cast(),
            std::mem::size_of::<c_int>() as u32,
        );
    }
}

#[cfg(not(target_os = "linux"))]
fn quick_ack(_stream: &TcpStream) {}

/// One request's fate in a load phase.
struct Sample {
    /// Catalogue index.
    request: usize,
    /// Offset of the scheduled send from the phase start.
    scheduled_ms: f64,
    /// From scheduled send to response.
    latency_ms: f64,
    /// From actual send to response.
    service_ms: f64,
    /// How late the generator sent.
    lag_ms: f64,
    /// Digest of the response's report, or `None` if refused.
    report: Option<String>,
}

/// What one connection's share of a load phase produced.
#[derive(Default)]
struct ConnResult {
    samples: Vec<Sample>,
    timed_out: u64,
    error: Option<String>,
    spans: Option<Tracer>,
}

/// Drives one connection through `schedule` (scheduled offset,
/// catalogue index): sends each request when due, reads responses in
/// between, and waits for the rest once every request is sent.
fn drive(
    stream: &mut TcpStream,
    schedule: &[(Duration, usize)],
    frames: &[String],
    start: Instant,
    traced: bool,
) -> ConnResult {
    let mut result = ConnResult {
        spans: traced.then(Tracer::new),
        ..ConnResult::default()
    };
    let mut reader = FrameReader { buf: Vec::new() };
    let mut pending: VecDeque<(usize, Instant, Instant)> = VecDeque::new();
    let mut next = 0;
    let end = start + schedule.last().map_or(Duration::ZERO, |s| s.0) + DRAIN_TIMEOUT;
    loop {
        let now = Instant::now();
        while next < schedule.len() && start + schedule[next].0 <= now {
            let (offset, request) = schedule[next];
            if let Err(e) = write_frame(stream, &frames[request]) {
                result.error = Some(format!("send failed: {e}"));
                return result;
            }
            pending.push_back((request, start + offset, Instant::now()));
            next += 1;
        }
        if next == schedule.len() && pending.is_empty() {
            return result;
        }
        let until = if next < schedule.len() {
            start + schedule[next].0
        } else {
            end
        };
        if pending.is_empty() {
            std::thread::sleep(until.saturating_duration_since(Instant::now()));
            continue;
        }
        match reader.poll(stream, until) {
            Ok(Some(response)) => {
                let done = Instant::now();
                let (request, due, sent) = pending.pop_front().expect("a request is pending");
                if let Some(tr) = result.spans.as_mut() {
                    tr.record("serve.request", request as u64, sent, done);
                }
                let ok = response.starts_with("{\"schema\":\"sunmap-serve/1\",\"ok\":true");
                result.samples.push(Sample {
                    request,
                    scheduled_ms: ms(due - start),
                    latency_ms: ms(done - due),
                    service_ms: ms(done - sent),
                    lag_ms: ms(sent.saturating_duration_since(due)),
                    report: ok.then(|| {
                        report_slice(&response).map_or_else(String::new, |r| digest(r.as_bytes()))
                    }),
                });
            }
            Ok(None) if Instant::now() >= end => {
                result.timed_out = (pending.len() + schedule.len() - next) as u64;
                result.error = Some("requests timed out".to_string());
                return result;
            }
            Ok(None) => {}
            Err(e) => {
                result.error = Some(e);
                return result;
            }
        }
    }
}

/// Runs one load phase: `schedule` is split round-robin over `streams`,
/// one thread each.
fn phase(
    streams: &mut [TcpStream],
    schedule: &[(Duration, usize)],
    frames: &[String],
    traced: bool,
) -> (Vec<Sample>, u64, Vec<String>, Vec<Tracer>) {
    let start = Instant::now() + Duration::from_millis(20);
    let connections = streams.len();
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(c, stream)| {
                let share: Vec<(Duration, usize)> = schedule
                    .iter()
                    .skip(c)
                    .step_by(connections)
                    .copied()
                    .collect();
                scope.spawn(move || drive(stream, &share, frames, start, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a connection thread panicked"))
            .collect()
    });
    let mut samples = Vec::new();
    let mut timed_out = 0;
    let mut errors = Vec::new();
    let mut tracers = Vec::new();
    for r in results {
        samples.extend(r.samples);
        timed_out += r.timed_out;
        errors.extend(r.error);
        tracers.extend(r.spans);
    }
    samples.sort_by(|a, b| a.scheduled_ms.total_cmp(&b.scheduled_ms));
    (samples, timed_out, errors, tracers)
}

/// Sends `order` (catalogue indices) on one connection, each request
/// after the previous response.
fn sequential(
    stream: &mut TcpStream,
    order: &[usize],
    frames: &[String],
    traced: bool,
) -> (Vec<Sample>, u64, Vec<String>, Vec<Tracer>) {
    let mut samples = Vec::new();
    let mut tracers = Vec::new();
    for &request in order {
        let r = drive(
            stream,
            &[(Duration::ZERO, request)],
            frames,
            Instant::now(),
            traced,
        );
        samples.extend(r.samples);
        tracers.extend(r.spans);
        if r.error.is_some() {
            return (samples, r.timed_out, r.error.into_iter().collect(), tracers);
        }
    }
    (samples, 0, Vec::new(), tracers)
}

/// The order requests are sent in: the catalogue in a fresh seeded
/// order each pass, so every request is equally frequent in any phase.
struct Deck {
    order: Vec<usize>,
    next: usize,
}

impl Deck {
    fn new(len: usize) -> Deck {
        Deck {
            order: (0..len).collect(),
            next: len,
        }
    }

    fn draw(&mut self, rng: &mut Rng) -> usize {
        if self.next == self.order.len() {
            for i in (1..self.order.len()).rev() {
                self.order.swap(i, rng.below(i + 1));
            }
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

/// An open-loop schedule at `rate` requests/s for `seconds`, evenly
/// spaced.
fn open_schedule(
    rng: &mut Rng,
    deck: &mut Deck,
    rate: f64,
    seconds: f64,
) -> Vec<(Duration, usize)> {
    let count = (rate * seconds).round() as usize;
    (0..count)
        .map(|i| (Duration::from_secs_f64(i as f64 / rate), deck.draw(rng)))
        .collect()
}

/// One ladder step's verdict.
struct Step {
    rate: f64,
    p95_ms: f64,
    lag_p99_ms: f64,
    backlog: bool,
    failed: u64,
}

impl Step {
    fn sustained(&self) -> bool {
        self.p95_ms <= P95_LIMIT_MS
            && self.lag_p99_ms <= LAG_LIMIT_MS
            && !self.backlog
            && self.failed == 0
    }
}

/// A growing backlog: the last third of a step waits longer than the
/// first third by half the latency limit.
fn growing_backlog(samples: &[Sample]) -> bool {
    let third = samples.len() / 3;
    if third == 0 {
        return false;
    }
    let lat = |s: &[Sample]| median(&s.iter().map(|x| x.latency_ms).collect::<Vec<_>>());
    lat(&samples[samples.len() - third..]) > lat(&samples[..third]) + P95_LIMIT_MS / 2.0
}

/// Extracts the number after `"<key>":` following `anchor` in a metrics
/// snapshot.
fn stat(metrics: &str, anchor: &str, key: &str) -> f64 {
    let Some(at) = metrics.find(anchor) else {
        return 0.0;
    };
    let rest = &metrics[at..];
    let Some(k) = rest.find(&format!("\"{key}\":")) else {
        return 0.0;
    };
    let value = &rest[k + key.len() + 3..];
    let end = value
        .find(|c: char| c != '.' && c != '-' && c != 'e' && c != '+' && !c.is_ascii_digit())
        .unwrap_or(value.len());
    value[..end].parse().unwrap_or(0.0)
}

pub fn run(sunmap: &Path, seed: u64, seconds: f64, traced: bool, checker: &mut Checker) -> Outcome {
    let mut out = Outcome::default();
    match run_checked(sunmap, seed, seconds, traced, checker, &mut out) {
        Ok(()) => {}
        Err(e) => out.mismatch(e),
    }
    out
}

fn run_checked(
    sunmap: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
    checker: &mut Checker,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut rng = Rng::new(seed);
    let requests = catalogue(&mut rng);
    let frames: Vec<String> = requests.iter().map(explore_frame).collect();

    // Set-up: spawn until the daemon announces its address, several
    // times; each daemon must then answer a ping, and the last one serves
    // the load. The ping is not timed: the daemon polls its listener every
    // 10 ms, and whether the first connection lands before or after the
    // first poll flipped the median set-up between 2 and 12 ms from run to
    // run.
    let mut setup = Vec::new();
    let mut daemon = None;
    for i in 0..SETUP_REPEATS {
        let start = Instant::now();
        let d = Daemon::spawn(sunmap)?;
        setup.push(start.elapsed().as_secs_f64());
        let mut stream = d.connect()?;
        let pong = roundtrip(&mut stream, "{\"op\":\"ping\"}")?;
        if !pong.contains("\"ok\":true") {
            return Err(format!("ping refused: {pong}"));
        }
        if i + 1 < SETUP_REPEATS {
            d.shutdown(&mut stream)?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("set up at least once");
    let mut streams: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| daemon.connect())
        .collect::<Result<_, _>>()?;

    // The time budget: bursts and pings are short; each ladder step gets
    // 5%, the reference step about 75% in whole passes over the
    // catalogue, so that every request is equally frequent in it, and at
    // least four passes (112 requests), so that eleven lie beyond its p90.
    let budget = seconds.max(1.0);
    let step_s = budget * 0.05;
    let passes = (budget * 0.75 * REFERENCE_RATE / requests.len() as f64)
        .round()
        .max(MIN_REFERENCE_PASSES);

    let mut all: Vec<Sample> = Vec::new();
    let mut tracers = Vec::new();
    let mut record =
        |out: &mut Outcome,
         all: &mut Vec<Sample>,
         (samples, timed_out, errors, tr): (Vec<Sample>, u64, Vec<String>, Vec<Tracer>)|
         -> Result<(Vec<f64>, u64), String> {
            out.attempted += samples.len() as u64 + timed_out;
            out.failed += timed_out + samples.iter().filter(|s| s.report.is_none()).count() as u64;
            if let Some(e) = errors.first() {
                return Err(e.clone());
            }
            let lat = samples.iter().map(|s| s.latency_ms).collect();
            let failed = timed_out + samples.iter().filter(|s| s.report.is_none()).count() as u64;
            all.extend(samples);
            tracers.extend(tr);
            Ok((lat, failed))
        };

    // Closed bursts: the catalogue once, one request at a time on one
    // connection, grouped by library-cache key, so that every burst does
    // the same work and meets the same cache misses (each key misses once
    // per burst: there are more keys than cache entries). The first burst
    // fills the cache and is not timed. `wall_s` sums each request's
    // median round trip over the bursts, so that a burst slowed or sped up
    // by other work on the host moves no request's figure.
    let mut keys = Vec::new();
    for req in &requests {
        keys.push((req.app.resolve()?.core_count(), req.capacity));
    }
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by(|&a, &b| {
        keys[a]
            .0
            .cmp(&keys[b].0)
            .then(keys[a].1.total_cmp(&keys[b].1))
    });
    let mut round_trips = vec![Vec::new(); order.len()];
    let mut raw_bursts = Vec::new();
    let mut traced_bursts = Vec::new();
    for burst in 0..=BURSTS {
        let first = all.len();
        let t = Instant::now();
        record(
            out,
            &mut all,
            sequential(&mut streams[0], &order, &frames, false),
        )?;
        let wall = t.elapsed().as_secs_f64();
        if burst == 0 {
            continue;
        }
        raw_bursts.push(wall);
        for (times, s) in round_trips.iter_mut().zip(&all[first..]) {
            times.push(s.service_ms);
        }
        if traced {
            let t = Instant::now();
            record(
                out,
                &mut all,
                sequential(&mut streams[0], &order, &frames, true),
            )?;
            traced_bursts.push(t.elapsed().as_secs_f64());
        }
    }
    let daemon_pid = daemon.child.id().to_string();
    let mut deck = Deck::new(requests.len());

    let mut pings = Vec::new();
    let ping = |streams: &mut [TcpStream], pings: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..PINGS {
            let t = Instant::now();
            let pong = roundtrip(&mut streams[0], "{\"op\":\"ping\"}")?;
            pings.push(since_ms(t));
            if !pong.contains("\"ok\":true") {
                return Err(format!("ping refused: {pong}"));
            }
        }
        Ok(())
    };

    let mut steps = Vec::new();
    let mut lags = Vec::new();
    let mut reference = Vec::new();
    // The reference latencies of each catalogue request.
    let mut reference_by_request = vec![Vec::new(); requests.len()];
    let mut reference_service = Vec::new();
    for &rate in &LADDER {
        // The reference step uses one connection, so requests never
        // overlap in the daemon and its latency does not swing with how
        // often they would, and sends the catalogue in the bursts' order,
        // so that each request meets the same cache state in every pass.
        // The other steps send it in a fresh seeded order each pass.
        let (schedule, used) = if rate == REFERENCE_RATE {
            let schedule: Vec<(Duration, usize)> = (0..passes as usize * order.len())
                .map(|i| {
                    (
                        Duration::from_secs_f64(i as f64 / rate),
                        order[i % order.len()],
                    )
                })
                .collect();
            (schedule, 1)
        } else {
            (
                open_schedule(&mut rng, &mut deck, rate, step_s),
                CONNECTIONS,
            )
        };
        let first = all.len();
        let ticks = cpu_ticks();
        let (lat, failed) = record(
            out,
            &mut all,
            phase(&mut streams[..used], &schedule, &frames, traced),
        )?;
        let step_samples = &all[first..];
        let step_lags: Vec<f64> = step_samples.iter().map(|s| s.lag_ms).collect();
        steps.push(Step {
            rate,
            p95_ms: percentile(&lat, 0.95),
            lag_p99_ms: percentile(&step_lags, 0.99),
            backlog: growing_backlog(step_samples),
            failed,
        });
        lags.extend(step_lags);
        if rate == REFERENCE_RATE {
            let share = unstolen_share(ticks);
            reference = lat.iter().map(|l| l * share).collect();
            for (s, l) in step_samples.iter().zip(&reference) {
                reference_by_request[s.request].push(*l);
            }
            reference_service = step_samples.iter().map(|s| s.service_ms).collect();
        }
        ping(&mut streams, &mut pings)?;
    }

    let stats = roundtrip(&mut streams[0], "{\"op\":\"stats\"}")?;
    let daemon_rss = peak_rss_mb(&daemon_pid);
    daemon.shutdown(&mut streams[0])?;
    drop(streams);

    // Every response against the in-process runner, and the catalogue
    // against the captured digests.
    let mut runner = RequestRunner::new(8);
    let mut expected = Vec::new();
    for (i, req) in requests.iter().enumerate() {
        let line = runner
            .run(req)
            .map_err(|e| format!("req{i}: in-process run failed: {e}"))?
            .line;
        let d = digest(line.as_bytes());
        checker.observe(out, &format!("req{i}"), &d);
        expected.push(d);
    }
    for s in &all {
        if let Some(report) = &s.report {
            if *report != expected[s.request] {
                out.mismatch(format!(
                    "req{}: the daemon's report differs from RequestRunner::run",
                    s.request
                ));
            }
        }
    }
    for step in &steps {
        eprintln!(
            "  step {:>5.0} rps: p95 {:>8.1} ms, lag p99 {:>6.2} ms, backlog {}, failed {} -> {}",
            step.rate,
            step.p95_ms,
            step.lag_p99_ms,
            step.backlog,
            step.failed,
            if step.sustained() {
                "sustained"
            } else {
                "not sustained"
            }
        );
    }
    let q: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9]
        .iter()
        .map(|&p| format!("{:.1}", percentile(&reference, p)))
        .collect();
    eprintln!(
        "  reference {REFERENCE_RATE} rps: {} samples, latency p10/p25/p50/p75/p90 {} ms",
        reference.len(),
        q.join("/")
    );
    let max_rate = steps
        .iter()
        .filter(|s| s.sustained())
        .map(|s| s.rate)
        .fold(0.0, f64::max);

    if !traced {
        let wall = round_trips.iter().map(|t| median(t)).sum::<f64>() / 1e3;
        // Each request's median over the reference step's passes, then
        // the geometric mean over the catalogue: the requests' costs
        // spread from 2 to 40 ms with a gap in the middle, so the plain
        // median of the step jumps across it from seed to seed.
        let typical: Vec<f64> = reference_by_request
            .iter()
            .filter(|l| !l.is_empty())
            .map(|l| median(l))
            .collect();
        let latency = geometric_mean(&typical);
        out.metrics = vec![
            metric("setup_s", median(&setup), "s"),
            metric("wall_s", wall, "s"),
            metric("latency_ms", latency, "ms"),
            metric("peak_rss_mb", daemon_rss, "MiB"),
        ];
        return Ok(());
    }

    let hits = stat(&stats, "\"cache\":", "hits");
    let misses = stat(&stats, "\"cache\":", "misses");
    let explores = stat(&stats, "\"requests\":", "explore").max(1.0);
    let histogram = |phase: &str, key: &str| stat(&stats, &format!("\"{phase}\":{{\"count\""), key);
    // Daemon phase time per explore request (a phase histogram only
    // records the requests that ran the phase).
    let per_request_ms =
        |phase: &str| histogram(phase, "mean_us") * histogram(phase, "count") / explores / 1e3;
    // Queueing and transport at the reference rate: latency from the
    // actual send, minus the daemon's own time per request.
    let wait_ms = reference_service.iter().sum::<f64>() / reference_service.len().max(1) as f64
        - per_request_ms("request");
    let untraced = median(&raw_bursts);
    let overhead = (median(&traced_bursts) - untraced) / untraced;
    out.metrics = vec![
        metric(
            "table.build_ms",
            histogram("route_table_build", "mean_us") / 1e3,
            "ms",
        ),
        metric("request.execute_ms", per_request_ms("request"), "ms"),
        metric(
            "request.route_table_ms",
            per_request_ms("route_table_build"),
            "ms",
        ),
        metric(
            "request.cache_hit_ratio",
            hits / (hits + misses).max(1.0),
            "ratio",
        ),
        metric("mapping.search_ms", per_request_ms("swap_search"), "ms"),
        metric("floorplan.ms", per_request_ms("floorplan"), "ms"),
        metric("serve.ping_rtt_ms", median(&pings), "ms"),
        metric("serve.wait_ms", wait_ms, "ms"),
        metric("serve.latency_p90_ms", percentile(&reference, 0.9), "ms"),
        metric("serve.max_rate_rps", max_rate, "1/s"),
        metric("serve.cache_hits", hits, "count"),
        metric("serve.cache_misses", misses, "count"),
        metric(
            "serve.errors",
            stat(&stats, "\"requests\":", "errors"),
            "count",
        ),
        metric(
            "serve.write_timeouts",
            stat(&stats, "\"requests\":", "write_timeouts"),
            "count",
        ),
        metric("loadgen.lag_p99_ms", percentile(&lags, 0.99), "ms"),
        metric("trace.overhead_frac", overhead, "ratio"),
    ];
    let daemon_ms = per_request_ms("request");
    let rows = [
        ("route-table builds", per_request_ms("route_table_build")),
        (
            "swap search (floorplan inside)",
            per_request_ms("swap_search"),
        ),
        ("  floorplan", per_request_ms("floorplan")),
        ("probe simulation", per_request_ms("probe")),
        (
            "other daemon work (frames, JSON, cache)",
            daemon_ms
                - per_request_ms("route_table_build")
                - per_request_ms("swap_search")
                - per_request_ms("probe"),
        ),
        ("wait + transport (reference rate)", wait_ms),
    ];
    let mut summary = format!(
        "serve-mixed: {explores} explore request(s), {} ping(s); from the daemon's phase \
         histograms (exact means)\n{:<40} {:>10}\n",
        pings.len(),
        "layer",
        "ms/request"
    );
    for (name, value) in rows {
        summary.push_str(&format!("{name:<40} {value:>10.3}\n"));
    }
    summary.push_str(&format!(
        "idle ping round trip {:.2} ms; reference {REFERENCE_RATE} rps: {} samples, \
         p50 {:.2} ms, p90 {:.2} ms; trace.overhead_frac {overhead:+.3}\n",
        median(&pings),
        reference.len(),
        median(&reference),
        percentile(&reference, 0.9)
    ));
    out.summary = summary;
    out.spans = tracers.iter().map(Tracer::to_jsonl).collect();
    Ok(())
}
