//! The closed loop: each client is one thread that sends a request
//! through `Router::handle`, waits for the page, checks it, and only then
//! sends the next. Each request is timed from its own send.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::speed;
use crate::sys::{thread_cpu_ns, Sched};
use crate::trace::{Span, Tracer};
use crate::workload::{check, Deployment, Expect, PageRef, Req, Tally, Txn};

/// Interpreter and query-store counters summed over a client's requests
/// (each request has its own session, so these never double count).
#[derive(Debug, Clone, Default)]
pub struct Sums {
    /// Interpreter operations (standard plus lazy).
    pub ops: u64,
    /// Thunks allocated.
    pub thunks: u64,
    /// Thunks forced.
    pub forces: u64,
    /// Batches the request's query store shipped.
    pub batches: u64,
    /// Statements in those batches.
    pub batched_stmts: u64,
    /// Registrations answered by an already pending statement.
    pub dedup_hits: u64,
    /// Silent transactions deferred whole.
    pub deferred_txns: u64,
    /// Reads answered from pending writes' post-images.
    pub ryw_rewrites: u64,
    /// Flushes forced by a conflict with a deferred write.
    pub conflict_drains: u64,
}

impl Sums {
    fn add(&mut self, o: &Sums) {
        self.ops += o.ops;
        self.thunks += o.thunks;
        self.forces += o.forces;
        self.batches += o.batches;
        self.batched_stmts += o.batched_stmts;
        self.dedup_hits += o.dedup_hits;
        self.deferred_txns += o.deferred_txns;
        self.ryw_rewrites += o.ryw_rewrites;
        self.conflict_drains += o.conflict_drains;
    }
}

/// Scheduler accounting summed over traced requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedSums {
    /// Traced requests with both schedstat readings.
    pub n: u64,
    /// Their wall time.
    pub wall_ns: u64,
    /// Their on-CPU time.
    pub oncpu_ns: u64,
    /// Their run-queue wait.
    pub runqueue_ns: u64,
    /// Time their instrumentation added to their latency: spans and
    /// schedstat readings around the call.
    pub instrument_ns: u64,
}

/// One request's latency, from its send to its answer.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Milliseconds.
    pub ms: f64,
    /// The client thread's CPU time in `Router::handle`, in milliseconds
    /// (`None` where the thread CPU clock cannot be read).
    pub cpu_ms: Option<f64>,
    /// CPU time of the reference loop the client ran right after it
    /// ([`crate::speed`]), in milliseconds.
    pub ref_ms: Option<f64>,
    /// Whether the request was traced (its latency then includes the
    /// instrumentation).
    pub traced: bool,
    /// The TPC-C transaction, if it was one.
    pub txn: Option<Txn>,
    /// The page (index into the references), if it was one.
    pub page: Option<usize>,
}

/// What one or more clients observed.
#[derive(Debug, Default)]
pub struct Observed {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that errored or answered wrongly.
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    /// Latency of every request.
    pub samples: Vec<Sample>,
    /// Layer counters carried in the responses.
    pub sums: Sums,
    /// Per-request scheduler accounting (traced requests only).
    pub sched: SchedSums,
    /// Whether schedstat could not be read on a traced request.
    pub sched_missing: bool,
    /// Committed TPC-C work.
    pub tally: Tally,
}

impl Observed {
    fn merge(&mut self, o: Observed) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        for f in o.failures {
            if self.failures.len() < 5 {
                self.failures.push(f);
            }
        }
        self.samples.extend(o.samples);
        self.sums.add(&o.sums);
        self.sched.n += o.sched.n;
        self.sched.wall_ns += o.sched.wall_ns;
        self.sched.oncpu_ns += o.sched.oncpu_ns;
        self.sched.runqueue_ns += o.sched.runqueue_ns;
        self.sched.instrument_ns += o.sched.instrument_ns;
        self.sched_missing |= o.sched_missing;
        self.tally.add(&o.tally);
    }

    /// Requests answered correctly.
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// Tracing for one phase: the tracer, the phase's span, and a counter
/// handing out request ids.
pub struct Tracing<'a> {
    /// Where spans go.
    pub tracer: &'a Tracer,
    /// The enclosing phase span.
    pub parent: u64,
    /// Next request id.
    pub next_req: &'a AtomicU64,
}

/// Runs one client per request source until every source is exhausted,
/// while `watch` runs on the calling thread.
///
/// With `tracing`, every other request of each client is traced: it gets
/// a `request` span around `Router::handle` and a `check` span around the
/// oracle, and schedstat is read around the call. The untraced requests in
/// between give the same run's untraced latency, so the difference is the
/// tracing overhead.
pub fn run_clients<F>(
    dep: &Deployment,
    refs: &[PageRef],
    sources: Vec<F>,
    tracing: Option<&Tracing<'_>>,
    watch: impl FnOnce(),
) -> Observed
where
    F: FnMut() -> Option<Req> + Send,
{
    let outs: Vec<Observed> = std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .into_iter()
            .map(|source| scope.spawn(move || client(dep, refs, source, tracing)))
            .collect();
        watch();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Observed::default();
    for o in outs {
        all.merge(o);
    }
    all
}

fn client<F>(
    dep: &Deployment,
    refs: &[PageRef],
    mut source: F,
    tracing: Option<&Tracing<'_>>,
) -> Observed
where
    F: FnMut() -> Option<Req>,
{
    let mut out = Observed::default();
    let mut spans: Vec<Span> = Vec::new();
    let client_span = tracing.map(|t| t.tracer.open("client", Some(t.parent), None));
    let mut k = 0u64;
    while let Some(req) = source() {
        let traced = tracing.filter(|_| k.is_multiple_of(2));
        k += 1;
        let req_id = traced.map(|t| t.next_req.fetch_add(1, Ordering::Relaxed));
        // A traced request's latency includes its instrumentation, so the
        // traced-minus-untraced difference is the tracing overhead; the
        // layer attribution uses the inner interval between the readings.
        let t0 = Instant::now();
        let span = traced.map(|t| {
            t.tracer
                .open("request", client_span.as_ref().map(|s| s.id()), req_id)
        });
        let sched_before = traced.and_then(|_| Sched::now());
        let t_inner = Instant::now();
        let cpu_before = thread_cpu_ns();
        let rsp = dep.sites[req.site].router.handle(&req.http);
        let cpu_after = thread_cpu_ns();
        let inner = t_inner.elapsed();
        let sched_after = traced.and_then(|_| Sched::now());
        if let (Some(t), Some(span)) = (traced, span) {
            spans.push(t.tracer.close(span));
            match (sched_before, sched_after) {
                (Some(a), Some(b)) => {
                    let d = b.since(a);
                    out.sched.n += 1;
                    out.sched.wall_ns += inner.as_nanos() as u64;
                    // The thread CPU clock is exact; schedstat's on-CPU sum
                    // of a running thread lags by up to a scheduler tick.
                    out.sched.oncpu_ns += cpu_before
                        .zip(cpu_after)
                        .map_or(d.oncpu_ns, |(a, b)| b.saturating_sub(a));
                    out.sched.runqueue_ns += d.runqueue_ns;
                }
                _ => out.sched_missing = true,
            }
        }
        let wall = t0.elapsed();
        let ref_ms = speed::reference_ms();
        if traced.is_some() {
            out.sched.instrument_ns += (wall - inner).as_nanos() as u64;
        }
        out.samples.push(Sample {
            ms: wall.as_secs_f64() * 1e3,
            cpu_ms: cpu_before
                .zip(cpu_after)
                .map(|(a, b)| b.saturating_sub(a) as f64 / 1e6),
            ref_ms,
            traced: traced.is_some(),
            txn: match req.expect {
                Expect::Txn(txn, _) => Some(txn),
                Expect::Page(_) => None,
            },
            page: match req.expect {
                Expect::Page(i) => Some(i),
                Expect::Txn(..) => None,
            },
        });

        let check_span = traced.map(|t| {
            t.tracer
                .open("check", client_span.as_ref().map(|s| s.id()), req_id)
        });
        out.attempted += 1;
        if let Err(e) = check(refs, req.expect, &rsp, &mut out.tally) {
            out.failed += 1;
            if out.failures.len() < 5 {
                out.failures.push(e);
            }
        }
        if let Some(run) = &rsp.result {
            let s = &mut out.sums;
            s.ops += run.counters.std_ops + run.counters.lazy_ops;
            s.thunks += run.counters.thunk_allocs;
            s.forces += run.counters.forces;
            if let Some(st) = &run.store {
                s.batches += st.batches;
                s.batched_stmts += st.batch_sizes.iter().sum::<usize>() as u64;
                s.dedup_hits += st.dedup_hits;
                s.deferred_txns += st.deferred_txns;
                s.ryw_rewrites += st.ryw_rewrites;
                s.conflict_drains += st.conflict_drains;
            }
        }
        if let (Some(t), Some(span)) = (traced, check_span) {
            spans.push(t.tracer.close(span));
        }
    }
    if let (Some(t), Some(span)) = (tracing, client_span) {
        spans.push(t.tracer.close(span));
        t.tracer.absorb(spans);
    }
    out
}
