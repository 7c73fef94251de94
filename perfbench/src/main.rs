//! `perfbench` — end-to-end and per-layer benchmark of the served Sloth
//! stack.
//!
//! ```text
//! perfbench --workload <pages|pages_cached|tpcc> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Two closed-loop clients, one thread each, send seeded requests through
//! `sloth_web::Router::handle` on dispatched routers (Sloth, all
//! optimizations) over a real-time wire at the default 0.5 ms RTT. Every
//! answer is checked. The report goes to standard output; its last line
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. A traced run also writes its spans to
//! `traces/` next to this package's manifest.

mod drive;
mod layers;
mod speed;
mod sys;
mod trace;
mod workload;

use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use drive::{run_clients, Observed, Sample, Tracing};
use layers::{probe, ratio, Deploy};
use trace::Tracer;
use workload::{
    page_references, page_request, setup, tpcc_violations, PageRef, Stream, TpccState, Txn,
    Workload, CLIENTS, REALTIME_SCALE, TPCC_MIX,
};

/// Times the deployment is set up from nothing; `setup_s` is the median.
const SETUPS: usize = 5;
/// Entries the shared result cache holds (`sloth_net`'s fixed bound, not
/// public).
const RESULT_CACHE_ENTRIES: usize = 512;
/// Reference-loop runs before each set-up.
const SETUP_REFS: usize = 5;
/// How often resident memory is sampled during the timed phase.
const RSS_EVERY: Duration = Duration::from_secs(1);
/// TPC-C requests each client sends before timing starts.
const TPCC_WARMUP_PER_CLIENT: usize = 40;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if s == 0 || s > 600 {
                    return Err(format!("seconds must be 1..=600, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Median of `xs` (0 for none).
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs`, interpolating linearly between order
/// statistics (0 for none).
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Whether a request counts in the per-request percentiles. TPC-C states
/// its response times per transaction type, so on `tpcc` they are
/// new_order's, the transaction its throughput counts; the mix's own
/// median falls in the gap between the fast payments and the slow new
/// orders, where it jumps from run to run.
fn headline(w: Workload, txn: Option<Txn>) -> bool {
    w != Workload::Tpcc || txn == Some(Txn::NewOrder)
}

/// Latencies in ms of the traced or untraced samples whose transaction
/// passes `keep`.
fn latencies(samples: &[Sample], traced: bool, keep: impl Fn(Option<Txn>) -> bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.traced == traced && keep(s.txn))
        .map(|s| s.ms)
        .collect()
}

/// Share of the machine's CPU time the host gave elsewhere between two
/// `(steal, total)` readings.
fn steal_share(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (a?, b?);
    Some(ratio(s1.saturating_sub(s0), t1.saturating_sub(t0)))
}

/// On-CPU milliseconds of the untraced samples whose transaction passes
/// `keep` (`None` if the thread CPU clock could not be read).
fn cpu_times(samples: &[Sample], keep: impl Fn(Option<Txn>) -> bool) -> Option<Vec<f64>> {
    samples
        .iter()
        .filter(|s| !s.traced && keep(s.txn))
        .map(|s| s.cpu_ms)
        .collect()
}

/// The values `cpu_p50_ms` and `cpu_p90_ms` are read over. On `tpcc`
/// they are the new orders' on-CPU times. On the page workloads there is
/// one value per visited page: the median of its on-CPU times over its
/// visits. Every page then weighs the same, however many of its visits
/// the end of the run cut off. Pooled over all visits, the median falls
/// between groups of pages, and it moved more from run to run.
fn cpu_population(w: Workload, samples: &[Sample], pages: usize) -> Option<Vec<f64>> {
    if w == Workload::Tpcc {
        return cpu_times(samples, |t| headline(w, t));
    }
    let mut visits: Vec<Vec<f64>> = vec![Vec::new(); pages];
    for s in samples.iter().filter(|s| !s.traced) {
        visits[s.page?].push(s.cpu_ms?);
    }
    Some(
        visits
            .iter_mut()
            .filter(|v| !v.is_empty())
            .map(|v| median(v))
            .collect(),
    )
}

/// One reported metric: name, value (`None` = could not be measured),
/// unit.
type Metric = (&'static str, Option<f64>, &'static str);

fn json_num(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => "null".to_string(),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <pages|pages_cached|tpcc> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    println!(
        "perfbench workload={} seed={} seconds={} trace={} clients={CLIENTS} rtt_ms={} realtime_scale={REALTIME_SCALE} threads_available={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sloth_net::CostModel::default().rtt_ns as f64 / 1e6,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    let tracer = Tracer::new();
    let run_span = tracer.open("run", None, None);
    let run_id = run_span.id();

    // Set-up, several times from nothing; the last deployment serves.
    // `setup_s` is the process CPU time of a set-up (it runs on this thread
    // alone and never sleeps), scaled by the reference loop run just
    // before each; the wall time is printed beside it.
    let mut setup_s = Vec::new();
    let mut setup_wall_s = Vec::new();
    let mut setup_refs = Vec::new();
    let mut compile_ms = Vec::new();
    let mut dep = None;
    for _ in 0..SETUPS {
        drop(dep.take());
        setup_refs.extend((0..SETUP_REFS).filter_map(|_| speed::reference_ms()));
        let span = tracer.open("setup", Some(run_id), None);
        let t = Instant::now();
        let cpu = sys::process_cpu_ns();
        let d = setup(w);
        if let Some((a, b)) = cpu.zip(sys::process_cpu_ns()) {
            setup_s.push(b.saturating_sub(a) as f64 / 1e9);
        }
        setup_wall_s.push(t.elapsed().as_secs_f64());
        tracer.close_into(span);
        compile_ms.push(d.compile_ms);
        dep = Some(d);
    }
    let dep = dep.expect("at least one set-up");

    let span = tracer.open("reference", Some(run_id), None);
    let refs: Vec<PageRef> = match w {
        Workload::Tpcc => Vec::new(),
        Workload::Pages | Workload::PagesCached => page_references(&dep),
    };
    tracer.close_into(span);
    let tpcc_before = (w == Workload::Tpcc).then(|| TpccState::read(&dep.sites[0].env));

    let mut streams: Vec<Stream> = (0..CLIENTS)
        .map(|c| Stream::new(w, args.seed, c, refs.len()))
        .collect();

    // Warm-up: every page once (split over the clients), or a few
    // transactions per client. Checked, not timed.
    let span = tracer.open("warmup", Some(run_id), None);
    let warm: Observed = {
        let refs = &refs;
        let n = refs.len();
        let sources: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(c, stream)| {
                let mut i = c * n / CLIENTS;
                let end = (c + 1) * n / CLIENTS;
                let mut left = TPCC_WARMUP_PER_CLIENT;
                move || match w {
                    Workload::Tpcc => (left > 0).then(|| {
                        left -= 1;
                        stream.next(refs)
                    }),
                    Workload::Pages | Workload::PagesCached => (i < end).then(|| {
                        i += 1;
                        page_request(refs, i - 1)
                    }),
                }
            })
            .collect();
        run_clients(&dep, refs, sources, None, || {})
    };
    tracer.close_into(span);

    // The timed phase.
    let counters_before = Deploy::read(&dep);
    let cpu_before = sys::process_cpu_ns();
    let timed_span = tracer.open("timed", Some(run_id), None);
    let next_req = AtomicU64::new(0);
    let tracing = Tracing {
        tracer: &tracer,
        parent: timed_span.id(),
        next_req: &next_req,
    };
    // Resident memory is sampled every second while the clients run.
    let mut rss_mb: Vec<f64> = Vec::new();
    let mut rss_missing = false;
    let steal_before = sys::host_steal_ticks();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let timed: Observed = {
        let refs = &refs;
        let sources: Vec<_> = streams
            .iter_mut()
            .map(|stream| move || (Instant::now() < deadline).then(|| stream.next(refs)))
            .collect();
        let watch = || {
            let mut at = start;
            loop {
                at += RSS_EVERY;
                if at > deadline {
                    break;
                }
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                match sys::rss_mb() {
                    Some(mb) => rss_mb.push(mb),
                    None => rss_missing = true,
                }
            }
        };
        run_clients(&dep, refs, sources, args.trace.then_some(&tracing), watch)
    };
    let elapsed_s = start.elapsed().as_secs_f64();
    tracer.close_into(timed_span);
    let cpu_after = sys::process_cpu_ns();
    let steal = steal_share(steal_before, sys::host_steal_ticks());
    let counters = Deploy::read(&dep).since(&counters_before);
    let (fills, evictions) = dep.sites.iter().fold((0, 0), |(f, e), site| {
        let c = site.env.result_cache_stats();
        (f + c.fills, e + c.evictions)
    });
    println!(
        "result cache since set-up: fills={fills} evictions={evictions} (capacity {RESULT_CACHE_ENTRIES} entries per site)"
    );

    // Correctness: every answer checked by its oracle, plus the TPC-C
    // consistency conditions over everything committed.
    let mut violations = Vec::new();
    if let Some(before) = &tpcc_before {
        let after = TpccState::read(&dep.sites[0].env);
        let mut tally = warm.tally;
        tally.add(&timed.tally);
        violations = tpcc_violations(before, &after, &tally);
        println!(
            "tpcc: order_lines at start={} at end={} growth_frac={} new_orders={} payments={}",
            before.order_lines,
            after.order_lines,
            (after.order_lines - before.order_lines) / before.order_lines,
            tally.new_orders,
            tally.payments,
        );
    }
    let attempted = warm.attempted + timed.attempted;
    let failed = warm.failed + timed.failed;
    for f in warm.failures.iter().chain(&timed.failures) {
        println!("failure: {f}");
    }
    for v in &violations {
        println!("consistency violation: {v}");
    }
    let correct = failed == 0 && violations.is_empty() && timed.completed() > 0;
    println!(
        "checked: attempted={attempted} failed={failed} failed_frac={} (warmup {} + timed {}) consistency_violations={}",
        ratio(failed, attempted),
        warm.attempted,
        timed.attempted,
        violations.len()
    );

    let reqs = timed.attempted.max(1) as f64;
    let completed = timed.completed();
    // Resident memory: the median of the per-second samples. A per-layer
    // figure, not an end-to-end metric: on `tpcc` it moves from run to run
    // with the timing of copy-on-write table copies and with what the
    // allocator keeps of them.
    let rss = (!rss_missing && !rss_mb.is_empty()).then(|| median(&mut rss_mb));
    println!(
        "memory: rss_mb median={} min={} max={} over {} samples; peak_rss_mb={} (process lifetime, set-ups included)",
        json_num(rss),
        json_num(rss_mb.first().copied()),
        json_num(rss_mb.last().copied()),
        rss_mb.len(),
        json_num(sys::peak_rss_mb())
    );
    let metrics: Vec<Metric> = if !args.trace {
        // Wall-clock figures, printed for reading. They are not metrics: on
        // a shared host they move with the CPU other tenants take.
        for (txn, _) in TPCC_MIX.iter().filter(|_| w == Workload::Tpcc) {
            let mut lat = latencies(&timed.samples, false, |t| t == Some(*txn));
            println!(
                "latency {}: samples={} p50_ms={} p90_ms={} p99_ms={}",
                txn.name(),
                lat.len(),
                quantile(&mut lat, 0.50),
                quantile(&mut lat, 0.90),
                quantile(&mut lat, 0.99)
            );
        }
        let mut lat = latencies(&timed.samples, false, |t| headline(w, t));
        println!(
            "wall clock: throughput_rps={} over {elapsed_s} s; latency samples={} p50_ms={} p90_ms={} p99_ms={}; host steal {}",
            completed as f64 / elapsed_s,
            lat.len(),
            quantile(&mut lat, 0.50),
            quantile(&mut lat, 0.90),
            quantile(&mut lat, 0.99),
            json_num(steal),
        );
        println!("set-up: cpu_s={:?} wall_s={:?}", setup_s, setup_wall_s);

        // The metrics: CPU times on the kernel's clocks, scaled to the
        // reference loop's nominal speed, plus the modeled wire.
        let refs_ms: Option<Vec<f64>> = timed
            .samples
            .iter()
            .filter(|s| !s.traced)
            .map(|s| s.ref_ms)
            .collect();
        let scale = |mut r: Vec<f64>| (!r.is_empty()).then(|| speed::NOMINAL_MS / median(&mut r));
        let run_scale = refs_ms.and_then(scale);
        let setup_scale = (setup_refs.len() == SETUPS * SETUP_REFS)
            .then_some(setup_refs)
            .and_then(scale);
        let wire_ms = counters.network_ns as f64 * REALTIME_SCALE / 1e6 / reqs;
        let cpu_mean = cpu_times(&timed.samples, |_| true)
            .filter(|cpu| !cpu.is_empty())
            .map(|cpu| cpu.iter().sum::<f64>() / cpu.len() as f64);
        let mut head = cpu_population(w, &timed.samples, refs.len()).filter(|c| !c.is_empty());
        let cpu_p50 = head.as_mut().map(|c| quantile(c, 0.50));
        let cpu_p90 = head.as_mut().map(|c| quantile(c, 0.90));
        let scaled = |x: Option<f64>| x.zip(run_scale).map(|(x, k)| x * k);
        let cpu_per_req = scaled(cpu_mean);
        let service_ms = cpu_per_req.map(|c| c + wire_ms);
        let setup = (setup_s.len() == SETUPS)
            .then(|| median(&mut setup_s))
            .zip(setup_scale)
            .map(|(s, k)| s * k);
        println!(
            "cpu unscaled: request mean_ms={} p50_ms={} p90_ms={} (over {} {}); process ms per request={}; set-up median_s={}",
            json_num(cpu_mean),
            json_num(cpu_p50),
            json_num(cpu_p90),
            head.as_ref().map_or(0, Vec::len),
            if w == Workload::Tpcc { "new orders" } else { "page medians" },
            json_num(
                cpu_before
                    .zip(cpu_after)
                    .filter(|_| completed > 0)
                    .map(|(a, b)| b.saturating_sub(a) as f64 / 1e6 / completed as f64)
            ),
            json_num(Some(median(&mut setup_s))),
        );
        println!(
            "speed: scale={} during the timed phase and {} during set-up (reference loop nominal {} ms)",
            json_num(run_scale),
            json_num(setup_scale),
            speed::NOMINAL_MS,
        );
        println!(
            "service: wire_ms_per_req={wire_ms} service_ms={}",
            json_num(service_ms)
        );
        vec![
            ("service_ms", service_ms, "ms"),
            ("cpu_ms_per_req", cpu_per_req, "ms"),
            ("cpu_p50_ms", scaled(cpu_p50), "ms"),
            ("cpu_p90_ms", scaled(cpu_p90), "ms"),
            ("setup_s", setup, "s"),
        ]
    } else {
        let probes_span = tracer.open("probes", Some(run_id), None);
        let batch_size = ratio(timed.sums.batched_stmts, timed.sums.batches).round() as usize;
        let probes = probe(w, &dep, batch_size, &tracer, probes_span.id());
        tracer.close_into(probes_span);
        let mut m = layer_report(w, &timed, &counters, &probes, reqs, median(&mut compile_ms));
        m.push(("mem.rss_mb", rss, "MiB"));
        m
    };

    tracer.close_into(run_span);
    if args.trace {
        let spans = tracer.spans();
        println!("spans: {} recorded", spans.len());
        println!(
            "  {:<18} {:>8} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, t) in trace::self_times(&spans) {
            println!(
                "  {:<18} {:>8} {:>12.3} {:>12.3}",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.json", w.name(), args.seed));
        match trace::write_json(&path, &spans) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("spans not written: {e}"),
        }
    }

    for (name, value, unit) in &metrics {
        println!("metric {name} = {} {unit}", json_num(*value));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// The per-layer metrics of a traced run, and the table that attributes
/// a request's wall time to layers.
fn layer_report(
    w: Workload,
    timed: &Observed,
    c: &Deploy,
    probes: &layers::Probes,
    reqs: f64,
    compile_ms: f64,
) -> Vec<Metric> {
    let s = &timed.sums;
    let per_req = |x: u64| x as f64 / reqs;
    let sched = timed.sched;
    let have_sched = sched.n > 0 && !timed.sched_missing;
    let per_traced = |ns: u64| have_sched.then(|| ns as f64 / 1e6 / sched.n as f64);
    let wall_ms = per_traced(sched.wall_ns);
    let oncpu_ms = per_traced(sched.oncpu_ns);
    let runqueue_ms = per_traced(sched.runqueue_ns);
    let wire_ms = c.network_ns as f64 * REALTIME_SCALE / 1e6 / reqs;
    let blocked_ms = match (wall_ms, oncpu_ms, runqueue_ms) {
        (Some(w), Some(c), Some(r)) => Some(w - c - r),
        _ => None,
    };

    // Probe-estimated data path of one request: its round trips at the
    // probed batch cost, plus one copy-on-write write to the largest table
    // per write batch (every round trip not served from a snapshot).
    let write_batches = per_req(c.round_trips.saturating_sub(c.snapshot_batches));
    let write_ms = write_batches * probes.write_us / 1e3;
    let data_path_ms = per_req(c.round_trips) * probes.batch_us / 1e3 + write_ms;
    let sql_ms = per_req(c.queries) * probes.read_us / 1e3 + write_ms;
    let net_ms = (data_path_ms - sql_ms).max(0.0);
    let lang_self_ms = oncpu_ms.map(|c| c - data_path_ms);
    let unattributed_ms = blocked_ms.map(|b| b - wire_ms);

    let mut traced = latencies(&timed.samples, true, |t| headline(w, t));
    let mut untraced = latencies(&timed.samples, false, |t| headline(w, t));
    let (traced_p50, untraced_p50) = (median(&mut traced), median(&mut untraced));
    let overhead_ms = traced_p50 - untraced_p50;
    let instrument_us = ratio(sched.instrument_ns, sched.n) / 1e3;

    println!(
        "probes: batch_us={} (batch of {}) read_us={} write_us={}",
        probes.batch_us, probes.batch_size, probes.read_us, probes.write_us
    );
    println!(
        "layer self time per traced request (ms; {} traced of {} requests; \
         'on-cpu, not probed' is lang, core and dispatch plus engine work the probes miss):",
        sched.n, timed.attempted
    );
    if let (Some(wall), Some(oncpu), Some(rq), Some(lang), Some(un)) = (
        wall_ms,
        oncpu_ms,
        runqueue_ms,
        lang_self_ms,
        unattributed_ms,
    ) {
        let rows = [
            ("on-cpu, not probed", lang),
            ("net batch path (probe)", net_ms),
            ("sql engine (probe)", sql_ms),
            ("wire (modeled sleep)", wire_ms),
            ("sched run queue", rq),
            ("unattributed", un),
        ];
        for (name, ms) in rows {
            println!("  {name:<24} {ms:>10.4} {:>7.1}%", 100.0 * ms / wall);
        }
        println!("  {:<24} {wall:>10.4} (on-cpu {oncpu:.4})", "request wall");
    } else {
        println!("  schedstat unavailable: per-request layer times missing");
    }
    println!(
        "tracing overhead: p50 traced {traced_p50} ms - untraced {untraced_p50} ms = {overhead_ms} ms \
         ({} traced, {} untraced; instrumentation itself {instrument_us} us per traced request)",
        traced.len(),
        untraced.len()
    );

    vec![
        ("lang.compile_ms", Some(compile_ms), "ms"),
        ("lang.ops_per_req", Some(per_req(s.ops)), "count"),
        ("lang.thunks_per_req", Some(per_req(s.thunks)), "count"),
        ("lang.forces_per_req", Some(per_req(s.forces)), "count"),
        ("lang.self_ms_per_req", lang_self_ms, "ms"),
        ("core.batches_per_req", Some(per_req(s.batches)), "count"),
        (
            "core.batch_size_mean",
            Some(ratio(s.batched_stmts, s.batches)),
            "count",
        ),
        (
            "core.dedup_hits_per_req",
            Some(per_req(s.dedup_hits)),
            "count",
        ),
        (
            "core.deferred_txns_per_req",
            Some(per_req(s.deferred_txns)),
            "count",
        ),
        (
            "core.ryw_rewrites_per_req",
            Some(per_req(s.ryw_rewrites)),
            "count",
        ),
        (
            "core.conflict_drains_per_req",
            Some(per_req(s.conflict_drains)),
            "count",
        ),
        (
            "dispatch.coalesce_ratio",
            Some(1.0 - ratio(c.dispatches, c.flushes).min(1.0)),
            "ratio",
        ),
        (
            "dispatch.conflict_deferrals",
            Some(c.conflict_deferrals as f64),
            "count",
        ),
        (
            "dispatch.fallback_splits",
            Some(c.fallback_splits as f64),
            "count",
        ),
        (
            "net.round_trips_per_req",
            Some(per_req(c.round_trips)),
            "count",
        ),
        ("net.queries_per_req", Some(per_req(c.queries)), "count"),
        (
            "net.fused_frac",
            Some(ratio(c.fused_queries, c.queries)),
            "ratio",
        ),
        ("net.bytes_per_req", Some(per_req(c.bytes)), "B"),
        (
            "net.snapshot_batch_frac",
            Some(ratio(c.snapshot_batches, c.round_trips)),
            "ratio",
        ),
        ("net.batch_us", Some(probes.batch_us), "us"),
        (
            "cache.hit_ratio",
            Some(ratio(c.cache_hits, c.cache_hits + c.cache_misses)),
            "ratio",
        ),
        ("cache.evictions", Some(c.cache_evictions as f64), "count"),
        (
            "cache.invalidations_per_req",
            Some(per_req(c.cache_invalidations)),
            "count",
        ),
        (
            "sql.plan_hit_ratio",
            Some(ratio(c.plan_hits, c.plan_hits + c.plan_misses)),
            "ratio",
        ),
        (
            "sql.footprint_hit_ratio",
            Some(ratio(
                c.footprint_hits,
                c.footprint_hits + c.footprint_misses,
            )),
            "ratio",
        ),
        ("sql.read_us", Some(probes.read_us), "us"),
        ("sql.write_us", Some(probes.write_us), "us"),
        ("wire.modeled_ms_per_req", Some(wire_ms), "ms"),
        ("req.oncpu_ms", oncpu_ms, "ms"),
        ("req.blocked_ms", blocked_ms, "ms"),
        ("sched.runqueue_ms", runqueue_ms, "ms"),
        ("trace.unattributed_ms", unattributed_ms, "ms"),
        ("trace.overhead_ms", Some(overhead_ms), "ms"),
        ("trace.instrument_us", Some(instrument_us), "us"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut xs, 0.0), 1.0);
        assert_eq!(quantile(&mut xs, 0.5), 2.5);
        assert_eq!(quantile(&mut xs, 1.0), 4.0);
        assert_eq!(median(&mut []), 0.0);
    }
}
