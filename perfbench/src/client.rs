//! The load generator: a single-threaded client that holds one loopback
//! connection at a time and drives a `smoothop serve` child process.
//!
//! Every exchange is logged verbatim so the in-process replay can feed
//! the same request stream through `route_daemon` and compare bodies.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::stats::{self, Rng, Samples};

/// Lines per `POST /ingest` body.
pub const INGEST_LINES: usize = 4096;
/// Period of a scrape round.
pub const SCRAPE_PERIOD: Duration = Duration::from_millis(250);
/// Samples per resident window (the daemon's default grid).
pub const WINDOW: usize = 168;

/// The daemon routes the benchmark drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Route {
    Ingest,
    Metrics,
    Fleet,
    Headroom,
    Asynchrony,
    Arrive,
    Retire,
    Whatif,
    Admit,
    Repair,
    Shutdown,
}

impl Route {
    /// Every route that carries per-layer metrics.
    pub const MEASURED: [Route; 10] = [
        Route::Ingest,
        Route::Metrics,
        Route::Fleet,
        Route::Headroom,
        Route::Asynchrony,
        Route::Arrive,
        Route::Retire,
        Route::Whatif,
        Route::Admit,
        Route::Repair,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Route::Ingest => "ingest",
            Route::Metrics => "metrics",
            Route::Fleet => "fleet",
            Route::Headroom => "headroom",
            Route::Asynchrony => "asynchrony",
            Route::Arrive => "arrive",
            Route::Retire => "retire",
            Route::Whatif => "whatif",
            Route::Admit => "admit",
            Route::Repair => "repair",
            Route::Shutdown => "shutdown",
        }
    }

    pub fn method(self) -> &'static str {
        match self {
            Route::Ingest | Route::Arrive | Route::Retire | Route::Repair | Route::Shutdown => {
                "POST"
            }
            _ => "GET",
        }
    }
}

/// Which part of the session sent a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Stream,
    Capacity,
    Warmup,
    Churn,
    Final,
}

/// One logged request and its reply.
#[derive(Debug)]
pub struct Exchange {
    pub route: Route,
    pub phase: Phase,
    /// Path plus query string.
    pub target: String,
    pub body: String,
    /// HTTP status; 0 for a transport error.
    pub status: u16,
    pub response: String,
    /// Connect to last response byte, microseconds.
    pub rtt_us: f64,
    /// CPU time the daemon's HTTP thread spent on the request,
    /// microseconds (`NaN` where it cannot be read).
    pub cpu_us: f64,
}

/// Sends one request on a fresh connection and reads the reply to EOF
/// (the daemon closes every connection). Returns status 0 and the error
/// text on a transport failure.
fn roundtrip(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
    let attempt = || -> std::io::Result<(u16, String)> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let mut message = format!(
            "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        message.extend_from_slice(body.as_bytes());
        stream.write_all(&message)?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        let text = String::from_utf8_lossy(&raw);
        let (head, reply) = text
            .split_once("\r\n\r\n")
            .ok_or_else(|| std::io::Error::other("reply without a header block"))?;
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other("reply without a status"))?;
        Ok((status, reply.to_string()))
    };
    attempt().unwrap_or_else(|e| (0, format!("transport error: {e}")))
}

/// A `smoothop serve` child process. Killed and reaped on drop if it is
/// still running.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    /// Spawn to announce line, seconds.
    pub setup_s: f64,
    /// `schedstat` of the thread that serves every request.
    pub http_thread: Option<PathBuf>,
}

impl Daemon {
    pub fn spawn(smoothop: &Path, instances: usize, seed: u64) -> Result<Self, String> {
        let started = Instant::now();
        let mut child = Command::new(smoothop)
            .args(["serve", "--listen", "127.0.0.1:0", "--ttl-ms", "170000"])
            // One lane: all of a request's work then runs on the HTTP
            // thread, whose CPU time is the request's cost.
            .args(["--threads", "1"])
            .args([
                "--instances",
                &instances.to_string(),
                "--seed",
                &seed.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", smoothop.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut line = String::new();
            let _ = BufReader::new(stdout).read_line(&mut line);
            let _ = tx.send(line);
        });
        let line = rx.recv_timeout(Duration::from_secs(150));
        let setup_s = started.elapsed().as_secs_f64();
        let mut daemon = Self {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup_s,
            http_thread: None,
        };
        let line = match line {
            Ok(line) => line,
            Err(_) => {
                daemon.kill();
                let _ = reader.join();
                return Err("daemon did not announce within 150 s".into());
            }
        };
        let _ = reader.join();
        let addr = line
            .split("\"addr\":\"http://")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected announce line {line:?}"))?;
        daemon.addr = addr;
        daemon.http_thread = stats::named_thread(daemon.pid(), "smoothopd-http");
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Waits for the process to exit after `POST /shutdown`.
    pub fn wait(mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    self.kill();
                    return Err("daemon did not exit after /shutdown".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill();
        }
    }
}

/// How long each part of a session runs.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Open-loop ingest + scrape phase, seconds.
    pub stream_s: f64,
    /// Back-to-back ingest phase, seconds.
    pub capacity_s: f64,
    /// Closed-loop churn phase: a step budget ...
    pub churn_steps: usize,
    /// ... or, when `churn_steps` is 0, a time budget in seconds.
    pub churn_s: f64,
}

/// The single-threaded client and everything it measured.
pub struct Generator {
    addr: SocketAddr,
    seed: u64,
    /// Fleet size the stream rate is derived from (samples per second).
    instances: usize,
    pub log: Vec<Exchange>,
    pub samples: Samples,
    /// Per route: (attempts, errors against the expected status 200).
    pub failures: BTreeMap<&'static str, (u64, u64)>,
    rng: Rng,
    /// Live slots (unordered) and a by-slot liveness map.
    live: Vec<usize>,
    alive: Vec<bool>,
    /// Rack named by the most recent admitting `/admit`.
    admit_rack: Option<usize>,
    /// Open-loop schedule: origin, next ingest and scrape indices.
    t0: Instant,
    next_ingest: u64,
    next_scrape: u64,
    /// Next slot id the ingest sweep visits, and the sweep's minute.
    cursor: usize,
    minute: u64,
    /// Completion time of the previous request.
    free_at: Instant,
    /// The next stream body, encoded ahead of its due time.
    pending: Option<(String, String)>,
    /// Client CPU time over wall time while the session ran.
    pub cpu_share: f64,
    /// Daemon process id, for its CPU counters.
    pid: u32,
    /// Daemon CPU time of each scrape round, µs, in order.
    pub scrape_rounds: Vec<f64>,
    /// `schedstat` of the daemon's HTTP thread.
    http_thread: Option<PathBuf>,
    /// Per phase: name, wall s, daemon CPU s, machine steal s.
    pub phase_costs: Vec<(&'static str, f64, f64, f64)>,
    /// Share of the machine's CPU time the hypervisor withheld (steal)
    /// while the session ran.
    pub steal_share: f64,
}

impl Generator {
    pub fn new(daemon: &Daemon, seed: u64, instances: usize) -> Self {
        let (addr, pid, http_thread) = (daemon.addr, daemon.pid(), daemon.http_thread.clone());
        let now = Instant::now();
        Self {
            addr,
            seed,
            instances,
            log: Vec::new(),
            samples: Samples::default(),
            failures: BTreeMap::new(),
            rng: Rng::new(seed, 0xC0FFEE),
            live: Vec::new(),
            alive: Vec::new(),
            admit_rack: None,
            t0: now,
            next_ingest: 0,
            next_scrape: 0,
            cursor: 0,
            minute: 0,
            free_at: now,
            pending: None,
            cpu_share: 0.0,
            pid,
            scrape_rounds: Vec::new(),
            http_thread,
            phase_costs: Vec::new(),
            steal_share: 0.0,
        }
    }

    /// Sends one request, logs it, and returns its status and body.
    pub fn send(
        &mut self,
        route: Route,
        phase: Phase,
        target: String,
        body: String,
    ) -> (u16, String) {
        let cpu0 = self.http_thread.as_deref().and_then(stats::thread_cpu_ns);
        let started = Instant::now();
        let (status, response) = roundtrip(self.addr, route.method(), &target, &body);
        let rtt_us = stats::us_since(started);
        self.free_at = Instant::now();
        let cpu1 = self.http_thread.as_deref().and_then(stats::thread_cpu_ns);
        let cpu_us = match (cpu0, cpu1) {
            (Some(a), Some(b)) => b.saturating_sub(a) as f64 / 1e3,
            _ => f64::NAN,
        };
        let entry = self.failures.entry(route.name()).or_insert((0, 0));
        entry.0 += 1;
        if status != 200 {
            entry.1 += 1;
        }
        self.log.push(Exchange {
            route,
            phase,
            target,
            body,
            status,
            response: response.clone(),
            rtt_us,
            cpu_us,
        });
        (status, response)
    }

    /// Runs the whole session against the daemon: the live set is read
    /// from `/fleet`, then the plan's phases run in order.
    pub fn run(&mut self, plan: Plan) {
        let cpu0 = stats::self_cpu_ns();
        let steal0 = stats::steal_ticks();
        let wall0 = Instant::now();
        let (_, fleet) = self.send(Route::Fleet, Phase::Stream, "/fleet".into(), String::new());
        let live = json_field(&fleet, "live_instances").unwrap_or(0.0) as usize;
        // The seed fleet commits into dense slots 0..live.
        self.live = (0..live).collect();
        self.alive = vec![true; live];

        let mut mark = PhaseMark::new(self.pid);
        self.t0 = Instant::now();
        let end = self.t0 + Duration::from_secs_f64(plan.stream_s);
        loop {
            let due = self.next_due();
            if due >= end {
                break;
            }
            // Encode the next body while idle, not after it falls due.
            if self.pending.is_none() {
                self.pending = Some(self.ingest_body());
            }
            self.wait_until(due);
            self.send_due(due);
        }
        self.phase_costs.push(mark.next("stream", self.pid));
        self.capacity(plan.capacity_s);
        self.phase_costs.push(mark.next("capacity", self.pid));
        self.warmup();
        mark = PhaseMark::new(self.pid);
        let churn_end = Instant::now() + Duration::from_secs_f64(plan.churn_s);
        let mut step = 0usize;
        loop {
            let more = if plan.churn_steps > 0 {
                step < plan.churn_steps
            } else {
                Instant::now() < churn_end
            };
            if !more {
                break;
            }
            self.churn_step(step);
            step += 1;
        }
        self.phase_costs.push(mark.next("churn", self.pid));
        let wall = wall0.elapsed().as_secs_f64();
        if let (Some(c0), Some(c1)) = (cpu0, stats::self_cpu_ns()) {
            self.cpu_share = (c1 - c0) as f64 / 1e9 / wall;
        }
        if let (Some((t0, cpus)), Some((t1, _))) = (steal0, stats::steal_ticks()) {
            self.steal_share = (t1 - t0) as f64 / 100.0 / (wall * cpus as f64);
        }
    }

    fn ingest_due(&self) -> Instant {
        let period = INGEST_LINES as f64 / self.instances as f64;
        self.t0 + Duration::from_secs_f64(self.next_ingest as f64 * period)
    }

    fn scrape_due(&self) -> Instant {
        self.t0 + SCRAPE_PERIOD * self.next_scrape as u32
    }

    fn next_due(&self) -> Instant {
        self.ingest_due().min(self.scrape_due())
    }

    /// Sleeps to within 200 µs of `due`, then spins.
    fn wait_until(&self, due: Instant) {
        loop {
            let now = Instant::now();
            if now >= due {
                return;
            }
            let left = due - now;
            if left > Duration::from_micros(300) {
                std::thread::sleep(left - Duration::from_micros(200));
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Sends whichever open-loop item fell due at `due`, timing it from
    /// `due` and recording how late the generator itself sent it.
    fn send_due(&mut self, due: Instant) {
        let lag = Instant::now().saturating_duration_since(due.max(self.free_at));
        self.samples.push("loadgen.lag_ms", lag.as_secs_f64() * 1e3);
        if self.ingest_due() <= self.scrape_due() {
            self.next_ingest += 1;
            let (target, body) = self.pending.take().unwrap_or_else(|| self.ingest_body());
            self.send(Route::Ingest, Phase::Stream, target, body);
            let ms = self.free_at.saturating_duration_since(due).as_secs_f64() * 1e3;
            self.samples.push("lat.ingest", ms);
        } else {
            self.next_scrape += 1;
            let mut cpu_us = 0.0;
            for route in [
                Route::Metrics,
                Route::Fleet,
                Route::Headroom,
                Route::Asynchrony,
            ] {
                self.send(
                    route,
                    Phase::Stream,
                    format!("/{}", route.name()),
                    String::new(),
                );
                cpu_us += self.log.last().map_or(f64::NAN, |e| e.cpu_us);
            }
            self.scrape_rounds.push(cpu_us);
            let ms = self.free_at.saturating_duration_since(due).as_secs_f64() * 1e3;
            self.samples.push("lat.scrape", ms);
        }
    }

    /// Encodes the next 4096 readings of the sweep over live slots, in
    /// slot order. Each reading follows a per-slot diurnal profile.
    fn ingest_body(&mut self) -> (String, String) {
        let started = Instant::now();
        let mut body = String::with_capacity(INGEST_LINES * 13);
        let mut lines = 0;
        let slots = self.alive.len();
        while lines < INGEST_LINES && !self.live.is_empty() {
            if self.cursor >= slots {
                self.cursor = 0;
                self.minute += 1;
            }
            let slot = self.cursor;
            self.cursor += 1;
            if !self.alive[slot] {
                continue;
            }
            let mut h = Rng::new(self.seed, slot as u64);
            let (base, amp, phase) = (h.range(120.0, 200.0), h.range(20.0, 60.0), h.unit());
            let day = (self.minute as f64 / 1440.0 + phase) * std::f64::consts::TAU;
            let _ = writeln!(body, "{slot} {:.1}", base + amp * day.sin());
            lines += 1;
        }
        self.samples
            .push("loadgen.encode_us", stats::us_since(started));
        ("/ingest".to_string(), body)
    }

    /// Back-to-back ingest batches for `seconds`.
    fn capacity(&mut self, seconds: f64) {
        let end = Instant::now() + Duration::from_secs_f64(seconds);
        while Instant::now() < end {
            let (target, body) = self.ingest_body();
            self.send(Route::Ingest, Phase::Capacity, target, body);
        }
    }

    /// Untimed warm-up: retires 10% of the live slots at random so racks
    /// have free slots for the churn phase.
    fn warmup(&mut self) {
        for _ in 0..self.live.len() / 10 {
            self.retire_random(Phase::Warmup);
        }
    }

    fn retire_random(&mut self, phase: Phase) {
        if self.live.is_empty() {
            return;
        }
        let pick = self.rng.below(self.live.len());
        let slot = self.live.swap_remove(pick);
        self.alive[slot] = false;
        self.send(
            Route::Retire,
            phase,
            format!("/retire?slot={slot}"),
            String::new(),
        );
    }

    /// One closed-loop scheduler step: retire, arrive, and the periodic
    /// admission queries and repair pass.
    fn churn_step(&mut self, step: usize) {
        self.retire_random(Phase::Churn);
        let candidate = self.candidate();
        let (status, reply) = self.send(Route::Arrive, Phase::Churn, "/arrive".into(), candidate);
        if let (200, Some(slot)) = (status, committed_slot(&reply)) {
            if slot >= self.alive.len() {
                self.alive.resize(slot + 1, false);
            }
            self.alive[slot] = true;
            self.live.push(slot);
        }

        let watts = (self.rng.range(100.0, 250.0) * 10.0).round() / 10.0;
        if step % 8 == 0 {
            let (status, reply) = self.send(
                Route::Admit,
                Phase::Churn,
                format!("/admit?watts={watts}"),
                String::new(),
            );
            if status == 200 {
                if let Some(rack) = json_field(&reply, "rack") {
                    self.admit_rack = Some(rack as usize);
                }
            }
        }
        if step % 2 == 0 {
            if let Some(rack) = self.admit_rack {
                let target = format!("/whatif?rack={rack}&watts={watts}");
                self.send(Route::Whatif, Phase::Churn, target, String::new());
            }
        }
        if (step + 1) % 1000 == 0 {
            self.send(Route::Repair, Phase::Churn, "/repair".into(), String::new());
        }
    }

    /// A diurnal candidate: baseline 120–200 W, amplitude 40–100 W, a 24 h
    /// period over hourly samples and a random phase.
    fn candidate(&mut self) -> String {
        let base = self.rng.range(120.0, 200.0);
        let amp = self.rng.range(40.0, 100.0);
        let phase = self.rng.range(0.0, std::f64::consts::TAU);
        let mut line = String::with_capacity(WINDOW * 8);
        for t in 0..WINDOW {
            let angle = std::f64::consts::TAU * t as f64 / 24.0 + phase;
            let watts = ((base + amp * angle.sin()) * 100.0).round() / 100.0;
            if t > 0 {
                line.push(',');
            }
            let _ = write!(line, "{watts}");
        }
        line.push('\n');
        line
    }
}

/// Wall, daemon CPU and machine steal at a phase boundary.
struct PhaseMark(Instant, f64, f64);

impl PhaseMark {
    fn new(pid: u32) -> Self {
        let steal = stats::steal_ticks().map_or(0.0, |(t, _)| t as f64 / 100.0);
        Self(Instant::now(), stats::proc_cpu_s(pid).unwrap_or(0.0), steal)
    }

    /// Costs since the previous mark, which this one replaces.
    fn next(&mut self, name: &'static str, pid: u32) -> (&'static str, f64, f64, f64) {
        let now = Self::new(pid);
        let cost = (
            name,
            (now.0 - self.0).as_secs_f64(),
            now.1 - self.1,
            now.2 - self.2,
        );
        *self = now;
        cost
    }
}

/// Extracts `"key":<number>` from a flat JSON body.
pub fn json_field(body: &str, key: &str) -> Option<f64> {
    let pattern = format!("\"{key}\":");
    let rest = &body[body.find(&pattern)? + pattern.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The slot in an `/arrive` reply `{"committed":[N]}`; `None` for
/// `[null]`.
pub fn committed_slot(body: &str) -> Option<usize> {
    let rest = body.split("\"committed\":[").nth(1)?;
    rest.split(']').next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_replies() {
        assert_eq!(committed_slot("{\"committed\":[42]}\n"), Some(42));
        assert_eq!(committed_slot("{\"committed\":[null]}\n"), None);
        let admit = "{\"admits\":true,\"rack\":17,\"headroom_watts\":1.5}";
        assert_eq!(json_field(admit, "rack"), Some(17.0));
        assert_eq!(json_field("{\"admits\":false,\"rack\":null}", "rack"), None);
    }
}
