//! Per-layer numbers read from outside: each layer's public stats, summed
//! over the deployment's sites and taken as deltas over the timed phase,
//! and the layer probes, which time single public calls on inputs shaped
//! like the workload.

use std::time::{Duration, Instant};

use sloth_net::{CostModel, SimEnv};

use crate::trace::Tracer;
use crate::workload::{Deployment, ProbeTarget, Workload};

/// Deployment-wide counters of the `net`, `dispatch`, `cache` and `sql`
/// layers, summed over sites.
#[derive(Debug, Clone, Copy, Default)]
pub struct Deploy {
    /// Round trips (`NetStats`).
    pub round_trips: u64,
    /// Statements executed.
    pub queries: u64,
    /// Modeled network nanoseconds.
    pub network_ns: u64,
    /// Bytes over the wire.
    pub bytes: u64,
    /// Statements answered by fused groups.
    pub fused_queries: u64,
    /// Read batches served from a published snapshot.
    pub snapshot_batches: u64,
    /// Session flushes the dispatchers accepted.
    pub flushes: u64,
    /// Backend dispatches they made.
    pub dispatches: u64,
    /// Batches left for a later dispatch on a footprint conflict.
    pub conflict_deferrals: u64,
    /// Failed combined dispatches split back per session.
    pub fallback_splits: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Result-cache entries killed by writes.
    pub cache_invalidations: u64,
    /// Result-cache entries dropped by the capacity bound.
    pub cache_evictions: u64,
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses.
    pub plan_misses: u64,
    /// Footprint-cache hits.
    pub footprint_hits: u64,
    /// Footprint-cache misses.
    pub footprint_misses: u64,
}

impl Deploy {
    /// The counters now.
    pub fn read(dep: &Deployment) -> Deploy {
        let mut d = Deploy::default();
        for site in &dep.sites {
            let net = site.env.stats();
            let disp = site.dispatcher.stats();
            let cache = site.env.result_cache_stats();
            let plan = site.env.plan_cache_stats();
            let fp = site.env.footprint_cache_stats();
            d.round_trips += net.round_trips;
            d.queries += net.queries;
            d.network_ns += net.network_ns;
            d.bytes += net.bytes;
            d.fused_queries += net.fused_queries;
            d.snapshot_batches += net.snapshot_batches;
            d.flushes += disp.flushes;
            d.dispatches += disp.dispatches;
            d.conflict_deferrals += disp.conflict_deferrals;
            d.fallback_splits += disp.fallback_splits;
            d.cache_hits += cache.hits;
            d.cache_misses += cache.misses;
            d.cache_invalidations += cache.invalidations;
            d.cache_evictions += cache.evictions;
            d.plan_hits += plan.hits;
            d.plan_misses += plan.misses;
            d.footprint_hits += fp.hits;
            d.footprint_misses += fp.misses;
        }
        d
    }

    /// Counts accrued since `before`.
    pub fn since(&self, before: &Deploy) -> Deploy {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Deploy {
            round_trips: d(self.round_trips, before.round_trips),
            queries: d(self.queries, before.queries),
            network_ns: d(self.network_ns, before.network_ns),
            bytes: d(self.bytes, before.bytes),
            fused_queries: d(self.fused_queries, before.fused_queries),
            snapshot_batches: d(self.snapshot_batches, before.snapshot_batches),
            flushes: d(self.flushes, before.flushes),
            dispatches: d(self.dispatches, before.dispatches),
            conflict_deferrals: d(self.conflict_deferrals, before.conflict_deferrals),
            fallback_splits: d(self.fallback_splits, before.fallback_splits),
            cache_hits: d(self.cache_hits, before.cache_hits),
            cache_misses: d(self.cache_misses, before.cache_misses),
            cache_invalidations: d(self.cache_invalidations, before.cache_invalidations),
            cache_evictions: d(self.cache_evictions, before.cache_evictions),
            plan_hits: d(self.plan_hits, before.plan_hits),
            plan_misses: d(self.plan_misses, before.plan_misses),
            footprint_hits: d(self.footprint_hits, before.footprint_hits),
            footprint_misses: d(self.footprint_misses, before.footprint_misses),
        }
    }
}

/// `num / den`, or 0 when the layer saw nothing to divide.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median of single-call times from the layer probes, in µs.
#[derive(Debug, Clone, Copy)]
pub struct Probes {
    /// `SimEnv::query_batch_outcome` on a read batch of the workload's
    /// mean batch size (planning, fusion and execution; virtual-time wire).
    pub batch_us: f64,
    /// Statements in that batch.
    pub batch_size: usize,
    /// `Database::execute_readonly` on a point read.
    pub read_us: f64,
    /// One write to the workload's largest table while a snapshot is
    /// outstanding: the copy-on-write cost a write batch pays.
    pub write_us: f64,
}

/// Calls `f(i)` for `i = 0, 1, …` until `budget` or `max` calls are spent
/// (at least `min`), timing only the part `f` returns, and gives the
/// median in µs.
fn median_us(min: usize, max: usize, budget: Duration, mut f: impl FnMut(u64) -> Duration) -> f64 {
    let start = Instant::now();
    let mut us = Vec::new();
    while us.len() < min || (us.len() < max && start.elapsed() < budget) {
        us.push(f(us.len() as u64).as_secs_f64() * 1e6);
    }
    crate::median(&mut us)
}

/// Runs the three probes on private copies of the workload's data, each
/// inside its own span.
pub fn probe(
    w: Workload,
    dep: &Deployment,
    batch_size: usize,
    tracer: &Tracer,
    parent: u64,
) -> Probes {
    let budget = Duration::from_millis(400);
    let batch_size = batch_size.max(1);

    let span = tracer.open("probe.net.batch", Some(parent), None);
    let target = ProbeTarget::new(w, dep);
    let env = SimEnv::from_database(target.db.clone(), CostModel::default());
    let batches: Vec<Vec<String>> = (0..64).map(|i| target.reads(batch_size, i)).collect();
    let batch_us = median_us(20, 2_000, budget, |i| {
        let sqls = &batches[i as usize % batches.len()];
        let t = Instant::now();
        let out = env.query_batch_outcome(sqls).expect("probe batch runs");
        let el = t.elapsed();
        std::hint::black_box(out);
        el
    });
    tracer.close_into(span);

    let span = tracer.open("probe.sql.read", Some(parent), None);
    let reads = target.reads(256, 7);
    let read_us = median_us(100, 20_000, budget, |i| {
        let sql = &reads[i as usize % reads.len()];
        let t = Instant::now();
        let out = target.db.execute_readonly(sql).expect("probe read runs");
        let el = t.elapsed();
        std::hint::black_box(out);
        el
    });
    tracer.close_into(span);

    let span = tracer.open("probe.sql.write", Some(parent), None);
    let mut db = target.db.clone();
    let write_us = median_us(9, 200, budget, |i| {
        let sql = target.write(i);
        let snapshot = db.snapshot();
        let t = Instant::now();
        let out = db.execute(&sql).expect("probe write runs");
        let el = t.elapsed();
        std::hint::black_box((out, snapshot));
        el
    });
    tracer.close_into(span);

    Probes {
        batch_us,
        batch_size,
        read_us,
        write_us,
    }
}
