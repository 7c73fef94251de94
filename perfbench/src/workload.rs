//! The workloads: how each deployment is set up, the seeded request
//! streams the clients send, and the oracles that check every answer.
//!
//! The program only ever sees the generated requests, through
//! `sloth_web::Router::handle` on a dispatched router.

use std::sync::Arc;
use std::time::Instant;

use sloth_apps::{itracker_app, openmrs_app, tpcc, BenchApp};
use sloth_lang::{parse_program, prepare, ExecStrategy, OptFlags, V};
use sloth_net::{CostModel, Dispatcher, SimEnv};
use sloth_sql::Database;
use sloth_web::{HttpRequest, HttpResponse, Router};

/// Closed-loop clients, one thread each.
pub const CLIENTS: usize = 2;
/// Real nanoseconds slept per modeled network nanosecond.
pub const REALTIME_SCALE: f64 = 1.0;
/// Orders pre-loaded into the TPC-C order history, on top of the 60 the
/// stock seeder writes.
const TPCC_PRELOAD_ORDERS: i64 = 8_000;
/// Order lines per pre-loaded order (a new order writes the same number).
const TPCC_LINES_PER_ORDER: i64 = 5;
/// The TPC-C transaction mix: cards per 100-card deck.
pub const TPCC_MIX: [(Txn, u32); 5] = [
    (Txn::NewOrder, 45),
    (Txn::Payment, 43),
    (Txn::OrderStatus, 4),
    (Txn::StockLevel, 4),
    (Txn::Delivery, 4),
];

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every itracker and OpenMRS page, result cache off.
    Pages,
    /// The same pages with the shared result cache on.
    PagesCached,
    /// The TPC-C mix over a pre-loaded order history, cache on.
    Tpcc,
}

impl Workload {
    /// The workload called `name` on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "pages" => Some(Workload::Pages),
            "pages_cached" => Some(Workload::PagesCached),
            "tpcc" => Some(Workload::Tpcc),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Pages => "pages",
            Workload::PagesCached => "pages_cached",
            Workload::Tpcc => "tpcc",
        }
    }
}

/// SplitMix64: the seeded generator behind every workload input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next();
        r
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// A TPC-C transaction type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Txn {
    /// New order: 5 order lines.
    NewOrder,
    /// Payment.
    Payment,
    /// Order status (read-only).
    OrderStatus,
    /// Stock level (read-only).
    StockLevel,
    /// Delivery of the oldest order in districts 1–3.
    Delivery,
}

impl Txn {
    /// The route the transaction is mounted at.
    fn path(self) -> &'static str {
        match self {
            Txn::NewOrder => "/tpcc/new_order",
            Txn::Payment => "/tpcc/payment",
            Txn::OrderStatus => "/tpcc/order_status",
            Txn::StockLevel => "/tpcc/stock_level",
            Txn::Delivery => "/tpcc/delivery",
        }
    }

    /// The transaction's program in `tpcc::tpcc_transactions`.
    fn program_name(self) -> &'static str {
        match self {
            Txn::NewOrder => "New order",
            Txn::Payment => "Payment",
            Txn::OrderStatus => "Order status",
            Txn::StockLevel => "Stock level",
            Txn::Delivery => "Delivery",
        }
    }

    /// The last line the transaction prints when it completes.
    fn done_line(self) -> &'static str {
        match self {
            Txn::NewOrder => "new order done",
            Txn::Payment => "payment done",
            Txn::OrderStatus => "order status done",
            Txn::StockLevel => "stock level done",
            Txn::Delivery => "delivery done",
        }
    }

    /// The transaction's name in reports.
    pub fn name(self) -> &'static str {
        match self {
            Txn::NewOrder => "new_order",
            Txn::Payment => "payment",
            Txn::OrderStatus => "order_status",
            Txn::StockLevel => "stock_level",
            Txn::Delivery => "delivery",
        }
    }
}

/// One deployment of one application: its database, the shared
/// dispatcher and the router that is the front door.
pub struct Site {
    /// The deployment (real-time wire).
    pub env: SimEnv,
    /// The coalescing dispatcher every request session flushes through.
    pub dispatcher: Arc<Dispatcher>,
    /// The front door.
    pub router: Router,
    /// The application's schema.
    pub schema: Arc<sloth_orm::Schema>,
}

/// Everything a workload runs against.
pub struct Deployment {
    /// One site per application (two for the page workloads).
    pub sites: Vec<Site>,
    /// Wall time spent parsing and compiling the mounted programs.
    pub compile_ms: f64,
}

/// The expected answer to one page request: the page's output under
/// serial `ExecStrategy::Original`.
pub struct PageRef {
    /// Site serving the page.
    pub site: usize,
    /// Route it is mounted at.
    pub path: String,
    /// Page name, for failure reports.
    pub name: String,
    /// Argument to `main`.
    pub arg: i64,
    /// Reference output lines.
    pub output: Vec<String>,
    /// Reference return value.
    pub returned: Option<String>,
}

/// The page applications, in site order.
fn page_apps() -> Vec<BenchApp> {
    vec![itracker_app(), openmrs_app()]
}

fn sloth() -> ExecStrategy {
    ExecStrategy::Sloth(OptFlags::all())
}

/// Starts a site on `env`: real-time wire at the default 0.5 ms RTT,
/// result cache as asked, one dispatcher, an empty dispatched router.
fn site(env: SimEnv, schema: Arc<sloth_orm::Schema>, cache: bool) -> Site {
    env.set_realtime(REALTIME_SCALE);
    env.set_result_cache(cache);
    let dispatcher = Arc::new(Dispatcher::new(env.clone()));
    let router = Router::dispatched(Arc::clone(&dispatcher), Arc::clone(&schema));
    Site {
        env,
        dispatcher,
        router,
        schema,
    }
}

/// Compiles `source` for the lazy strategy, adding the time to `compile`.
fn compile(source: &str, compile: &mut f64) -> Arc<sloth_lang::Prepared> {
    let t = Instant::now();
    let program = parse_program(source).expect("benchmark program parses");
    let prepared = prepare(&program, sloth());
    *compile += t.elapsed().as_secs_f64() * 1e3;
    Arc::new(prepared)
}

/// Route of page `i` of site `s`.
fn page_path(s: usize, i: usize) -> String {
    format!("/site{s}/page{i}")
}

/// Brings a workload's deployment up from nothing.
pub fn setup(w: Workload) -> Deployment {
    let mut compile_ms = 0.0;
    let sites = match w {
        Workload::Pages | Workload::PagesCached => page_apps()
            .into_iter()
            .enumerate()
            .map(|(s, app)| {
                let env = app.fresh_env(CostModel::default());
                let mut site = site(env, Arc::clone(&app.schema), w == Workload::PagesCached);
                for (i, page) in app.pages.iter().enumerate() {
                    let prepared = compile(&page.source, &mut compile_ms);
                    site.router.mount(page_path(s, i), prepared, true);
                }
                site
            })
            .collect(),
        Workload::Tpcc => {
            let env = SimEnv::new(CostModel::default());
            tpcc::seed_tpcc(&env, 1);
            preload_order_history(&env);
            let mut site = site(env, tpcc::tpcc_schema(), true);
            let programs = tpcc::tpcc_transactions();
            for (txn, _) in TPCC_MIX {
                let (_, source) = programs
                    .iter()
                    .find(|(name, _)| *name == txn.program_name())
                    .expect("every mixed transaction has a program");
                let prepared = compile(source, &mut compile_ms);
                site.router.mount(txn.path(), prepared, true);
            }
            vec![site]
        }
    };
    Deployment { sites, compile_ms }
}

/// Adds [`TPCC_PRELOAD_ORDERS`] delivered orders with
/// [`TPCC_LINES_PER_ORDER`] lines each, in one out-of-band load.
fn preload_order_history(env: &SimEnv) {
    const ROWS_PER_INSERT: i64 = 500;
    env.seed(|db| {
        let first = 61;
        let last = first + TPCC_PRELOAD_ORDERS;
        for lo in (first..last).step_by(ROWS_PER_INSERT as usize) {
            let hi = (lo + ROWS_PER_INSERT).min(last);
            let orders: Vec<String> = (lo..hi)
                .map(|o| format!("({o}, {}, {}, 1)", 1 + o % 300, 1 + o % 10))
                .collect();
            db.execute(&format!("INSERT INTO orders VALUES {}", orders.join(", ")))
                .expect("pre-load orders");
            let lines: Vec<String> = (lo..hi)
                .flat_map(|o| {
                    (0..TPCC_LINES_PER_ORDER).map(move |k| {
                        format!(
                            "({}, {o}, {}, 2, 10.0)",
                            10_000_000 + o * 10 + k,
                            1 + (o * 7 + k) % 100
                        )
                    })
                })
                .collect();
            db.execute(&format!(
                "INSERT INTO order_line VALUES {}",
                lines.join(", ")
            ))
            .expect("pre-load order lines");
        }
    });
}

/// Serial reference output of every page, on a virtual-time copy of the
/// freshly set-up databases.
pub fn page_references(dep: &Deployment) -> Vec<PageRef> {
    let mut refs = Vec::new();
    for (s, app) in page_apps().into_iter().enumerate() {
        let env = SimEnv::from_database(dep.sites[s].env.snapshot_db(), CostModel::default());
        for (i, page) in app.pages.iter().enumerate() {
            let program = parse_program(&page.source).expect("benchmark page parses");
            let run = prepare(&program, ExecStrategy::Original)
                .run(&env, Arc::clone(&app.schema), vec![V::Int(page.arg)])
                .unwrap_or_else(|e| panic!("reference run of {}: {e}", page.name));
            refs.push(PageRef {
                site: s,
                path: page_path(s, i),
                name: page.name.clone(),
                arg: page.arg,
                output: run.output,
                returned: run.returned,
            });
        }
    }
    refs
}

/// What a request must answer.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// The reference output of page `refs[i]`.
    Page(usize),
    /// A completed transaction; payments carry their amount.
    Txn(Txn, i64),
}

/// One generated request.
pub struct Req {
    /// Site it is sent to.
    pub site: usize,
    /// The request itself.
    pub http: HttpRequest,
    /// The oracle for its answer.
    pub expect: Expect,
}

/// A client's endless seeded request stream.
pub struct Stream {
    rng: Rng,
    workload: Workload,
    /// Page indices, one pass in shuffled order.
    order: Vec<usize>,
    /// TPC-C transaction deck, one pass in shuffled order.
    deck: Vec<Txn>,
    /// Position in the current pass.
    pos: usize,
}

impl Stream {
    /// The stream of client `client` for `seed`.
    pub fn new(workload: Workload, seed: u64, client: usize, n_pages: usize) -> Stream {
        let order: Vec<usize> = (0..n_pages).collect();
        let deck: Vec<Txn> = TPCC_MIX
            .iter()
            .flat_map(|&(txn, cards)| std::iter::repeat_n(txn, cards as usize))
            .collect();
        let pos = match workload {
            Workload::Tpcc => deck.len(),
            Workload::Pages | Workload::PagesCached => order.len(),
        };
        Stream {
            rng: Rng::new(seed, client as u64 + 1),
            workload,
            order,
            deck,
            pos,
        }
    }

    /// The next request.
    pub fn next(&mut self, refs: &[PageRef]) -> Req {
        match self.workload {
            Workload::Pages | Workload::PagesCached => {
                // Every page once per pass, each pass in a fresh order.
                if self.pos == self.order.len() {
                    self.rng.shuffle(&mut self.order);
                    self.pos = 0;
                }
                let i = self.order[self.pos];
                self.pos += 1;
                page_request(refs, i)
            }
            Workload::Tpcc => {
                // A shuffled deck of 100 cards in the mix's proportions,
                // as the TPC-C specification allows: every pass of 100
                // requests has the exact mix.
                if self.pos == self.deck.len() {
                    self.rng.shuffle(&mut self.deck);
                    self.pos = 0;
                }
                let txn = self.deck[self.pos];
                self.pos += 1;
                txn_request(txn, self.rng.below(1_000_000) as i64)
            }
        }
    }
}

/// The request for page `refs[i]`.
pub fn page_request(refs: &[PageRef], i: usize) -> Req {
    let r = &refs[i];
    Req {
        site: r.site,
        http: HttpRequest::with_args(r.path.clone(), vec![V::Int(r.arg)]),
        expect: Expect::Page(i),
    }
}

/// The request for one TPC-C transaction with argument `arg`.
pub fn txn_request(txn: Txn, arg: i64) -> Req {
    // Mirrors the payment program: `amount = 10 + arg % 40`.
    let amount = if txn == Txn::Payment {
        10 + arg % 40
    } else {
        0
    };
    Req {
        site: 0,
        http: HttpRequest::with_args(txn.path(), vec![V::Int(arg)]),
        expect: Expect::Txn(txn, amount),
    }
}

/// Committed TPC-C work, as the clients saw it answered.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Completed new orders.
    pub new_orders: i64,
    /// Completed payments.
    pub payments: i64,
    /// Sum of their amounts.
    pub paid: i64,
    /// Orders delivered (one printed line each).
    pub delivered: i64,
}

impl Tally {
    /// Adds another client's tally.
    pub fn add(&mut self, o: &Tally) {
        self.new_orders += o.new_orders;
        self.payments += o.payments;
        self.paid += o.paid;
        self.delivered += o.delivered;
    }
}

/// Checks one answer. `Ok` counts it into `tally`; `Err` says what was
/// wrong.
pub fn check(
    refs: &[PageRef],
    expect: Expect,
    rsp: &HttpResponse,
    tally: &mut Tally,
) -> Result<(), String> {
    let run = match (rsp.status, &rsp.result) {
        (200, Some(run)) => run,
        _ => return Err(format!("status {}: {}", rsp.status, rsp.body)),
    };
    match expect {
        Expect::Page(i) => {
            let r = &refs[i];
            if run.output != r.output || run.returned != r.returned {
                return Err(format!("page {} differs from its serial reference", r.name));
            }
        }
        Expect::Txn(txn, amount) => {
            if run.output.last().map(String::as_str) != Some(txn.done_line()) {
                return Err(format!("{txn:?} did not complete: {}", rsp.body));
            }
            match txn {
                Txn::NewOrder => tally.new_orders += 1,
                Txn::Payment => {
                    tally.payments += 1;
                    tally.paid += amount;
                }
                Txn::Delivery => tally.delivered += run.output.len() as i64 - 1,
                Txn::OrderStatus | Txn::StockLevel => {}
            }
        }
    }
    Ok(())
}

/// The TPC-C aggregates the consistency conditions compare.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpccState {
    next_o_id: f64,
    orders: f64,
    /// Rows in `order_line`.
    pub order_lines: f64,
    stock: f64,
    warehouse_ytd: f64,
    district_ytd: f64,
    history_rows: f64,
    history_amount: f64,
    balance: f64,
}

impl TpccState {
    /// Reads the aggregates from the deployment's current database.
    pub fn read(env: &SimEnv) -> TpccState {
        let db = env.snapshot_db();
        let one = |sql: &str| -> f64 {
            let out = db.execute_readonly(sql).expect("consistency query runs");
            out.result
                .rows
                .first()
                .and_then(|r| r.first())
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0)
        };
        TpccState {
            next_o_id: one("SELECT SUM(next_o_id) FROM district"),
            orders: one("SELECT COUNT(*) FROM orders"),
            order_lines: one("SELECT COUNT(*) FROM order_line"),
            stock: one("SELECT SUM(quantity) FROM stock"),
            warehouse_ytd: one("SELECT SUM(ytd) FROM warehouse"),
            district_ytd: one("SELECT SUM(ytd) FROM district"),
            history_rows: one("SELECT COUNT(*) FROM history"),
            history_amount: one("SELECT SUM(amount) FROM history"),
            balance: one("SELECT SUM(balance) FROM customer"),
        }
    }
}

/// The TPC-C consistency conditions, adapted to this schema, between the
/// state before the first request and after the last: counts and sums
/// only (the engine enforces no primary keys, and every district's
/// `next_o_id` starts at 1000, so order ids repeat).
pub fn tpcc_violations(before: &TpccState, after: &TpccState, t: &Tally) -> Vec<String> {
    let no = t.new_orders as f64;
    let paid = t.paid as f64;
    let conditions = [
        (
            "next_o_id advance = new orders",
            after.next_o_id - before.next_o_id,
            no,
        ),
        (
            "orders growth = new orders",
            after.orders - before.orders,
            no,
        ),
        (
            "order_line growth = lines x new orders",
            after.order_lines - before.order_lines,
            TPCC_LINES_PER_ORDER as f64 * no,
        ),
        (
            "stock drop = lines x new orders",
            before.stock - after.stock,
            TPCC_LINES_PER_ORDER as f64 * no,
        ),
        (
            "history rows = payments",
            after.history_rows - before.history_rows,
            t.payments as f64,
        ),
        (
            "history amount = paid",
            after.history_amount - before.history_amount,
            paid,
        ),
        (
            "warehouse ytd = paid",
            after.warehouse_ytd - before.warehouse_ytd,
            paid,
        ),
        (
            "district ytd = paid",
            after.district_ytd - before.district_ytd,
            paid,
        ),
        (
            "balance change = deliveries - paid",
            after.balance - before.balance,
            t.delivered as f64 - paid,
        ),
    ];
    conditions
        .iter()
        .filter(|(_, got, want)| (got - want).abs() > 1e-6)
        .map(|(what, got, want)| format!("{what}: got {got}, want {want}"))
        .collect()
}

/// What the layer probes run on: a private copy of the database of the
/// site holding the workload's largest table, and statements shaped like
/// the workload's own.
pub struct ProbeTarget {
    workload: Workload,
    /// The private copy.
    pub db: Database,
    /// `(table, pk, rows)` of that site's application tables, largest first.
    tables: Vec<(String, String, usize)>,
}

impl ProbeTarget {
    /// The target for `w` on `dep`.
    pub fn new(w: Workload, dep: &Deployment) -> ProbeTarget {
        let per_site: Vec<Vec<(String, String, usize)>> = dep
            .sites
            .iter()
            .map(|site| {
                let db = site.env.snapshot_db();
                let mut tables: Vec<_> = site
                    .schema
                    .entities()
                    .filter_map(|e| {
                        db.table(&e.table)
                            .map(|t| (e.table.clone(), e.pk.clone(), t.len()))
                    })
                    .collect();
                tables.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
                tables
            })
            .collect();
        let site = (0..per_site.len())
            .max_by_key(|&s| per_site[s].first().map_or(0, |t| t.2))
            .unwrap_or(0);
        ProbeTarget {
            workload: w,
            db: dep.sites[site].env.snapshot_db(),
            tables: per_site.into_iter().nth(site).unwrap_or_default(),
        }
    }

    /// `n` point reads on the workload's tables.
    pub fn reads(&self, n: usize, salt: u64) -> Vec<String> {
        (0..n as u64)
            .map(|i| match self.workload {
                Workload::Tpcc => {
                    let k = 1 + (salt * 31 + i * 17) % 100;
                    match i % 3 {
                        0 => format!("SELECT price FROM item WHERE i_id = {k}"),
                        1 => format!("SELECT quantity FROM stock WHERE s_id = {k}"),
                        _ => format!(
                            "SELECT name, balance FROM customer WHERE c_id = {}",
                            1 + (salt + i * 7) % 300
                        ),
                    }
                }
                Workload::Pages | Workload::PagesCached => {
                    let (table, pk, rows) = &self.tables[i as usize % self.tables.len()];
                    let k = 1 + (salt * 31 + i * 17) % (*rows as u64).max(1);
                    format!("SELECT * FROM {table} WHERE {pk} = {k}")
                }
            })
            .collect()
    }

    /// Write `i` to the workload's largest written table: a new order line
    /// for TPC-C; for the read-only page workloads, an in-place update of a
    /// row of the largest application table.
    pub fn write(&self, i: u64) -> String {
        match self.workload {
            Workload::Tpcc => format!(
                "INSERT INTO order_line (ol_id, o_id, i_id, qty, amount) VALUES ({}, {}, {}, 1, 9.5)",
                90_000_000 + i,
                61 + i % 100,
                1 + i % 100
            ),
            Workload::Pages | Workload::PagesCached => {
                let (table, pk, rows) = &self.tables[0];
                let k = 1 + i % (*rows as u64).max(1);
                format!("UPDATE {table} SET {pk} = {pk} WHERE {pk} = {k}")
            }
        }
    }
}
