//! The closed-loop served client shared by `lookup-served` and
//! `scatter-served`: one connection sends single requests, a second sends
//! homogeneous `Request::Batch` frames, both drawing from one seeded
//! Zipf-skewed pool over the cheap families.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use td_serve::{Client, Reply, Request, RequestEnvelope, ResponseEnvelope};

use crate::checks::{self, Verdict};
use crate::inputs::{Entry, Stream};
use crate::trace::SpanLog;

/// Sub-requests per batch frame.
pub const BATCH: usize = 8;

/// One answered frame, kept for the checks after the timed phase.
pub struct Observed {
    /// Family row in the pool.
    pub family: usize,
    /// Pool indices the frame asked for (one for a single request).
    pub idx: Vec<usize>,
    /// Whether the frame was a `Request::Batch`.
    pub batch: bool,
    /// The response.
    pub resp: ResponseEnvelope,
}

/// What one timed phase saw.
#[derive(Default)]
pub struct Phase {
    /// Client latency per query, ms; a query inside a batch counts its
    /// frame's latency.
    pub latencies_ms: Vec<f64>,
    /// Queries sent.
    pub attempted: u64,
    /// Queries that failed (transport error or non-`Ok` status).
    pub failed: u64,
    /// Queries answered divided by the wall time of the phase, summed
    /// over concurrent connections.
    pub rate: f64,
    /// Every answered frame.
    pub observed: Vec<Observed>,
}

impl Phase {
    /// Fold another connection's phase into this one.
    pub fn merge(&mut self, other: Phase) {
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.rate += other.rate;
        self.observed.extend(other.observed);
    }

    /// Queries answered `Ok`.
    #[must_use]
    pub fn answered(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// Frames of at most [`BATCH`] consecutive same-endpoint requests.
#[must_use]
pub fn batches(requests: &[Request]) -> Vec<Vec<Request>> {
    let mut out: Vec<Vec<Request>> = Vec::new();
    for r in requests {
        match out.last_mut() {
            Some(b) if b.len() < BATCH && b[0].endpoint() == r.endpoint() => b.push(r.clone()),
            _ => out.push(vec![r.clone()]),
        }
    }
    out
}

/// Send one envelope, timing it as a span of `log`.
pub fn timed_call(
    client: &mut Client,
    log: &mut SpanLog,
    span: &str,
    req: Request,
) -> (Result<ResponseEnvelope, String>, f64) {
    let id = client.next_id();
    let env = RequestEnvelope {
        id,
        deadline_ms: 0,
        req,
    };
    let t = Instant::now();
    let resp = log.span(span, id, || client.call(&env).map_err(|e| e.to_string()));
    (resp, t.elapsed().as_secs_f64() * 1e3)
}

/// Run one connection for `seconds` in whole rounds: per round and
/// family, one frame of each size in `frames` (size 1 is a single
/// request, larger sizes are `Request::Batch` frames).
pub fn connection(
    addr: SocketAddr,
    pool: &[Vec<Entry>],
    seed: u64,
    frames: &[usize],
    seconds: f64,
    log: &mut SpanLog,
) -> Phase {
    let traced = log.enabled();
    let mut phases = connection_windows(addr, pool, seed, frames, &[(seconds, traced)], log);
    phases.pop().unwrap_or_default()
}

/// [`connection`] over consecutive time windows on one connection: one
/// [`Phase`] per `(seconds, traced)` window, with `log` recording only in
/// the traced ones.
pub fn connection_windows(
    addr: SocketAddr,
    pool: &[Vec<Entry>],
    seed: u64,
    frames: &[usize],
    windows: &[(f64, bool)],
    log: &mut SpanLog,
) -> Vec<Phase> {
    let mut phases: Vec<Phase> = windows.iter().map(|_| Phase::default()).collect();
    let mut stream = Stream::new(pool, seed);
    let Ok(mut client) = Client::connect(addr) else {
        phases[0].failed = 1;
        phases[0].attempted = 1;
        return phases;
    };
    'windows: for (phase, &(seconds, traced)) in phases.iter_mut().zip(windows) {
        log.set_enabled(traced);
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline {
            for (family, entries) in pool.iter().enumerate() {
                for &size in frames {
                    let idx: Vec<usize> = (0..size).map(|_| stream.next(family)).collect();
                    let (name, req) = if size == 1 {
                        ("serve.client.single", entries[idx[0]].req.clone())
                    } else {
                        let requests = idx.iter().map(|&i| entries[i].req.clone()).collect();
                        ("serve.client.batch", Request::Batch { requests })
                    };
                    let n = size as u64;
                    phase.attempted += n;
                    let (resp, lat) = timed_call(&mut client, log, name, req);
                    let Ok(resp) = resp else {
                        phase.failed += n;
                        phase.rate = phase.answered() as f64 / start.elapsed().as_secs_f64();
                        break 'windows;
                    };
                    if checks::ok_reply(&resp).is_err() {
                        phase.failed += n;
                    }
                    phase.latencies_ms.extend(std::iter::repeat_n(lat, size));
                    phase.observed.push(Observed {
                        family,
                        idx,
                        batch: size > 1,
                        resp,
                    });
                }
            }
        }
        phase.rate = phase.answered() as f64 / start.elapsed().as_secs_f64();
    }
    log.set_enabled(false);
    phases
}

/// Drive `addr` with a singles connection and a batch connection for
/// `seconds`, both closed loops.
pub fn drive(
    addr: SocketAddr,
    pool: &[Vec<Entry>],
    seed: u64,
    seconds: f64,
    log: &mut SpanLog,
) -> Phase {
    let (mut single_log, mut batch_log) = (log.fork(), log.fork());
    let (mut a, b) = std::thread::scope(|s| {
        let single =
            s.spawn(|| connection(addr, pool, seed ^ 0x51, &[1], seconds, &mut single_log));
        let batch =
            s.spawn(|| connection(addr, pool, seed ^ 0xBA, &[BATCH], seconds, &mut batch_log));
        (
            single.join().expect("singles connection thread"),
            batch.join().expect("batch connection thread"),
        )
    });
    log.absorb(single_log);
    log.absorb(batch_log);
    a.merge(b);
    a
}

/// Check every observed frame against the expected in-process answers
/// (`expected[family][idx]`): each reply equal to its expected answer and
/// no shard named as degraded (always empty from a single server).
pub fn check_observed(observed: &[Observed], expected: &[Vec<Reply>], verdict: &mut Verdict) {
    for o in observed {
        let want = &expected[o.family];
        // A failed frame is counted in `failed`; the checks speak of the
        // answered ones.
        let Ok(got) = checks::ok_reply(&o.resp) else {
            continue;
        };
        if !o.batch {
            verdict.record(
                "served single",
                checks::coordinator_reply(&o.resp, &want[o.idx[0]]),
            );
            continue;
        }
        let Reply::Batch(subs) = got else {
            verdict.record("served batch", Err("not a batch reply".into()));
            continue;
        };
        if subs.len() != o.idx.len() {
            verdict.record(
                "served batch",
                Err(format!("{} sub-replies for {}", subs.len(), o.idx.len())),
            );
            continue;
        }
        verdict.record(
            "served batch degraded",
            checks::not_degraded(&o.resp.degraded),
        );
        for (sub, &i) in subs.iter().zip(&o.idx) {
            verdict.record("served batch item", checks::same_reply(sub, &want[i]));
        }
    }
}
