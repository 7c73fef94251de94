//! The host's speed, measured by a fixed reference loop.
//!
//! On a shared host the CPU time of the same work moves with what the
//! other tenants run: the same 150 cached pages took 5.5 ms of CPU per
//! page in one run and 7.9 ms in another a few minutes later, with no
//! steal to show for it (the two vCPUs sharing a core, or caches, with
//! someone else). The benchmark therefore runs a fixed loop of its own in
//! each client thread after every request, and scales the program's CPU
//! times by how long that loop took in the same run: a metric reads as
//! CPU time at the speed at which the loop takes [`NOMINAL_MS`].
//!
//! The loop mixes the three kinds of work the interpreter does: small
//! allocations and string-keyed map updates, dependent loads from a
//! 1 MiB table, and integer arithmetic. Each part alone tracked the
//! pages' CPU time badly across runs (the first moved more than the
//! pages did, the other two less); their sum moved with it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use crate::sys::thread_cpu_ns;

/// The loop's CPU time on the 2-core VM this was written on, when the
/// host was quiet. Scaled CPU times are at the speed this stands for.
pub const NOMINAL_MS: f64 = 0.15;

/// Words in the table the loop's loads walk (1 MiB).
const TABLE_WORDS: usize = 1 << 17;

thread_local! {
    static TABLE: Vec<u64> = (0..TABLE_WORDS as u64).collect();
}

/// Runs the reference loop once on this thread and returns its CPU time
/// in milliseconds (`None` where the thread CPU clock cannot be read).
pub fn reference_ms() -> Option<f64> {
    // Touch the table before the clock starts, so a thread's first
    // reading does not include building it.
    TABLE.with(|t| std::hint::black_box(t.len()));
    let start = thread_cpu_ns()?;
    std::hint::black_box(reference_work());
    let end = thread_cpu_ns()?;
    Some(end.saturating_sub(start) as f64 / 1e6)
}

/// The fixed work. A fixed hasher keeps the map's layout the same in
/// every run.
fn reference_work() -> u64 {
    let mut vars: HashMap<String, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut acc = 0u64;
    for i in 0..600u64 {
        let v = vars.entry(format!("v{}", i % 97)).or_insert(i);
        *v = v.wrapping_mul(31).wrapping_add(i);
        let list: Vec<u64> = (0..i % 16).map(|j| j ^ *v).collect();
        acc = acc.wrapping_add(list.iter().fold(0, |a, x| a.rotate_left(5) ^ x));
    }
    TABLE.with(|t| {
        let mask = t.len() - 1;
        let mut k = acc as usize & mask;
        for _ in 0..2000 {
            k = (k.wrapping_mul(2_654_435_761) ^ t[k] as usize) & mask;
            acc = acc.wrapping_add(t[k]);
        }
    });
    let mut x = acc | 1;
    for i in 0..40_000u64 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i) ^ (x >> 29);
    }
    x
}
