//! Micro-benchmarks of the runtime primitives: thunk machinery, query
//! store operations, and SQL engine throughput. These ground the simulated
//! cost model in real wall-clock numbers. (Plain `harness = false` timing
//! loops — no third-party bench framework is available in this build.)

use sloth_bench::microbench::bench;
use sloth_core::{query_thunk, QueryStore, Thunk};
use sloth_net::SimEnv;
use sloth_sql::Database;
use std::hint::black_box;

fn bench_thunks() {
    bench("thunk/alloc_force", || {
        let t = Thunk::new(|| black_box(21) * 2);
        t.force()
    });
    {
        let t = Thunk::new(|| 42);
        t.force();
        bench("thunk/memoized_force", move || t.force());
    }
    bench("thunk/map_chain_depth16", || {
        let mut t = Thunk::new(|| 0i64);
        for _ in 0..16 {
            t = t.map(|x| x + 1);
        }
        t.force()
    });
}

fn store_env() -> SimEnv {
    let env = SimEnv::default_env();
    env.seed_sql("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    for i in 0..64 {
        env.seed_sql(&format!("INSERT INTO t VALUES ({i}, {i})"))
            .unwrap();
    }
    env
}

fn bench_query_store() {
    // Ablation: write-flush behaviour (§3.3).
    {
        let env = store_env();
        bench("query_store/register_64_flush", move || {
            let store = QueryStore::new(env.clone());
            for i in 0..64 {
                store
                    .register(format!("SELECT v FROM t WHERE id = {i}"))
                    .unwrap();
            }
            store.flush().unwrap();
            store.stats().max_batch()
        });
    }
    // Ablation: in-batch dedup (§3.3).
    {
        let env = store_env();
        let store = QueryStore::new(env);
        store.register("SELECT v FROM t WHERE id = 1").unwrap();
        bench("query_store/dedup_hit", move || {
            store.register("SELECT v FROM t WHERE id = 1").unwrap()
        });
    }
    {
        let env = store_env();
        bench("query_store/query_thunk_roundtrip", move || {
            let store = QueryStore::new(env.clone());
            let t = query_thunk(&store, "SELECT v FROM t WHERE id = 5", |rs| rs.len());
            t.force()
        });
    }
}

fn bench_sql() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT, v TEXT)")
        .unwrap();
    db.execute("CREATE INDEX ON t (grp)").unwrap();
    for i in 0..1000 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, {}, 'val{i}')", i % 10))
            .unwrap();
    }
    bench("sql_engine/pk_probe", || {
        db.execute("SELECT v FROM t WHERE id = 500")
            .unwrap()
            .result
            .len()
    });
    bench("sql_engine/secondary_probe", || {
        db.execute("SELECT v FROM t WHERE grp = 3")
            .unwrap()
            .result
            .len()
    });
    bench("sql_engine/in_list_probe", || {
        db.execute("SELECT v FROM t WHERE id IN (5, 250, 500, 750, 999)")
            .unwrap()
            .result
            .len()
    });
    bench("sql_engine/full_scan_filter", || {
        db.execute("SELECT v FROM t WHERE v = 'val42'")
            .unwrap()
            .result
            .len()
    });
    bench("sql_engine/count_aggregate", || {
        db.execute("SELECT COUNT(*) FROM t WHERE grp = 7")
            .unwrap()
            .result
            .len()
    });
}

/// One write while a snapshot of the database is outstanding — what
/// every write batch pays on a server that publishes a snapshot at each
/// commit. The UPDATE changes an indexed column; it also pays the engine's
/// full-scan predicate evaluation, which grows with the table. The INSERT
/// pays only the copy-on-write of what it touches, which should not.
fn bench_write_under_snapshot(rows: usize, label: &str) {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT, v TEXT)")
        .unwrap();
    db.execute("CREATE INDEX ON t (grp)").unwrap();
    for i in 0..rows {
        db.execute(&format!("INSERT INTO t VALUES ({i}, {}, 'val{i}')", i % 10))
            .unwrap();
    }
    let updates = [
        "UPDATE t SET grp = 11 WHERE id = 500",
        "UPDATE t SET grp = 12 WHERE id = 500",
    ];
    let mut n = 0;
    bench(&format!("sql_engine/write_under_snapshot_{label}"), || {
        let snapshot = db.snapshot();
        n += 1;
        let out = db.execute(updates[n % 2]).unwrap();
        drop(snapshot);
        out.stats.rows_returned
    });
    let mut next_id = rows;
    bench(&format!("sql_engine/insert_under_snapshot_{label}"), || {
        let snapshot = db.snapshot();
        next_id += 1;
        let out = db
            .execute(&format!("INSERT INTO t VALUES ({next_id}, 3, 'new')"))
            .unwrap();
        drop(snapshot);
        out.stats.rows_returned
    });
}

fn main() {
    bench_thunks();
    bench_query_store();
    bench_sql();
    bench_write_under_snapshot(1_000, "1k");
    bench_write_under_snapshot(40_000, "40k");
}
