//! The three workloads: their fixed settings, and the per-connection
//! statement streams drawn from the run's seed.
//!
//! Every stream is a pure function of (workload, seed, connection), so a
//! seed names the same statements on every run and every host. Each
//! connection writes only keys it owns, which makes the table state after
//! a run a function of the acknowledged writes alone, whatever the
//! interleaving of the two connections.

use pdsm_storage::{Table, Value};
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;

/// Client connections (and client threads) every workload runs.
pub const CONNECTIONS: usize = 2;

/// First `VBELN` a connection inserts: far above every generated order.
const INSERT_KEY_BASE: i32 = 100_000_000;
/// Keys reserved per connection above [`INSERT_KEY_BASE`].
const INSERT_KEY_SPAN: i32 = 10_000_000;

/// Generated dates are `20_230_000 + 101..1231`.
const DATE_LO: i32 = 20_230_101;
const DATE_HI: i32 = 20_231_230;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OltpKeyed,
    OlapFresh,
    HtapCold,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::OltpKeyed, Workload::OlapFresh, Workload::HtapCold];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpKeyed => "oltp-keyed",
            Workload::OlapFresh => "olap-fresh",
            Workload::HtapCold => "htap-cold",
        }
    }

    /// SAP-SD scale: sales orders (VBAK rows); VBAP has about 3× as many
    /// rows and VBEP about 4.5×.
    pub fn scale(self) -> usize {
        match self {
            Workload::OltpKeyed => 20_000,
            Workload::OlapFresh => 50_000,
            Workload::HtapCold => 100_000,
        }
    }

    /// Whether the server runs with a data directory (WAL + checkpoints).
    pub fn durable(self) -> bool {
        self != Workload::OlapFresh
    }

    /// Every `PDSM_*` variable the workload fixes; all others are unset,
    /// so the program's defaults apply. The buffer-pool budget of
    /// `htap-cold` is measured during set-up and added then.
    pub fn env(self) -> Vec<(&'static str, String)> {
        match self {
            Workload::OltpKeyed => vec![
                ("PDSM_FSYNC", "batch".into()),
                ("PDSM_MERGE_THRESHOLD", "32".into()),
            ],
            Workload::OlapFresh => vec![],
            Workload::HtapCold => vec![
                ("PDSM_FSYNC", "batch".into()),
                ("PDSM_MERGE_THRESHOLD", "128".into()),
            ],
        }
    }

    /// Statements run over the wire after the server is up and before it
    /// counts as ready.
    pub fn setup_sql(self) -> &'static [&'static str] {
        match self {
            Workload::OltpKeyed => &[
                "CREATE INDEX ON VBAP (VBELN) USING HASH",
                "CREATE INDEX ON KNA1 (KUNNR) USING HASH",
            ],
            _ => &[],
        }
    }
}

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..hi` (`lo < hi`).
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    /// Shuffle `items` in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Draws statement classes in shuffled blocks that hold each class
/// exactly as often as its weight, so every stretch of one block has the
/// workload's mix and runs of a few hundred statements differ little.
#[derive(Debug, Clone)]
pub struct Deck {
    block: Vec<usize>,
    next: usize,
}

impl Deck {
    pub fn new(weights: &[usize]) -> Deck {
        let block: Vec<usize> = weights
            .iter()
            .enumerate()
            .flat_map(|(class, &w)| std::iter::repeat_n(class, w))
            .collect();
        Deck {
            next: block.len(),
            block,
        }
    }

    pub fn draw(&mut self, rng: &mut Rng) -> usize {
        if self.next == self.block.len() {
            rng.shuffle(&mut self.block);
            self.next = 0;
        }
        self.next += 1;
        self.block[self.next - 1]
    }
}

/// Per block of 20 `oltp-keyed` statements: VBAP point reads, KNA1 point
/// reads, ADRC point reads, VBAP inserts, VBAP updates, VBEP deletes,
/// VBAP deletes.
const OLTP_MIX: [usize; 7] = [8, 3, 3, 2, 2, 1, 1];
/// Per block of 20 `olap-fresh` statements: Q2, Q5, Q12, Q4, Q9, Q1.
/// The cheap shapes (Q2, Q9, Q1) make 35% and Q12 the next 30%, so the
/// median read falls inside one class instead of between two.
const OLAP_MIX: [usize; 6] = [2, 4, 6, 3, 3, 2];

/// Per-key row counts and column sums of a table's generated rows: what
/// the streams need to predict each keyed statement's result, and the
/// starting point of the final-state check.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KeyAgg {
    pub rows: i64,
    pub sum_posnr: i64,
    /// `KPEIN` for VBAP, `ETENR` for VBEP.
    pub sum_third: i64,
}

/// The generated SAP-SD data, summarised.
#[derive(Debug, Clone)]
pub struct Base {
    pub scale: usize,
    pub customers: usize,
    /// Indexed by `VBELN`.
    pub vbap: Vec<KeyAgg>,
    pub vbep: Vec<KeyAgg>,
    pub rows: Vec<(String, usize)>,
}

impl Base {
    pub fn from_tables(scale: usize, tables: &[Table]) -> Base {
        let by_key = |t: &Table, third: usize| {
            let mut agg = vec![KeyAgg::default(); scale];
            for row in t.rows() {
                let k = int(row.get(0)) as usize;
                agg[k].rows += 1;
                agg[k].sum_posnr += int(row.get(1));
                agg[k].sum_third += int(row.get(third));
            }
            agg
        };
        let find = |name: &str| {
            tables
                .iter()
                .find(|t| t.name() == name)
                .expect("SAP-SD table")
        };
        Base {
            scale,
            customers: (scale / 10).max(10),
            vbap: by_key(find("VBAP"), 13),
            vbep: by_key(find("VBEP"), 2),
            rows: tables
                .iter()
                .map(|t| (t.name().to_string(), t.len()))
                .collect(),
        }
    }

    /// Generated row count of `table`.
    #[cfg(test)]
    pub fn rows_of(&self, table: &str) -> usize {
        self.rows
            .iter()
            .find(|(n, _)| n == table)
            .map_or(0, |(_, r)| *r)
    }
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Int32(x) => *x as i64,
        Value::Int64(x) => *x,
        other => panic!("expected an integer, got {other:?}"),
    }
}

/// What a statement must return.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// A result with exactly this many rows.
    Rows(usize),
    /// Any result; its content is checked after the run.
    AnyRows,
    /// A write acknowledged with this affected-row count.
    Count(usize),
}

/// The change an acknowledged write makes to one table's checksum:
/// row count and the sums of `VBELN`, `POSNR` and the third column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Delta {
    pub rows: i64,
    pub sum_vbeln: i64,
    pub sum_posnr: i64,
    pub sum_third: i64,
}

/// One statement of a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub class: &'static str,
    pub sql: String,
    pub read: bool,
    pub expect: Expect,
    /// For writes: the table written and its checksum change.
    pub delta: Option<(&'static str, Delta)>,
}

impl Stmt {
    fn read(class: &'static str, sql: String, expect: Expect) -> Stmt {
        Stmt {
            class,
            sql,
            read: true,
            expect,
            delta: None,
        }
    }

    fn write(
        class: &'static str,
        sql: String,
        count: usize,
        table: &'static str,
        d: Delta,
    ) -> Stmt {
        Stmt {
            class,
            sql,
            read: false,
            expect: Expect::Count(count),
            delta: Some((table, d)),
        }
    }
}

/// `VBELN`s a connection may update or delete among the generated orders.
pub fn owned_orders(scale: usize, conn: usize) -> Range<i32> {
    let per = (scale / CONNECTIONS) as i32;
    per * conn as i32..per * (conn as i32 + 1)
}

/// `VBELN`s a connection inserts (and later deletes).
pub fn owned_inserts(conn: usize) -> Range<i32> {
    let lo = INSERT_KEY_BASE + INSERT_KEY_SPAN * conn as i32;
    lo..lo + INSERT_KEY_SPAN
}

/// The infinite statement stream of one connection.
pub struct Stream<'a> {
    workload: Workload,
    base: &'a Base,
    conn: usize,
    rng: Rng,
    deck: Deck,
    issued: u64,
    next_insert: i32,
    /// Inserted `VBAP` keys not yet deleted, oldest first.
    live_inserts: VecDeque<i32>,
    /// Generated orders whose `VBEP` rows this connection deleted.
    vbep_deleted: HashSet<i32>,
    /// Current `KPEIN` of generated orders this connection updated.
    kpein: HashMap<i32, i64>,
}

impl<'a> Stream<'a> {
    pub fn new(workload: Workload, base: &'a Base, seed: u64, conn: usize) -> Stream<'a> {
        let mut mix = Rng::new(seed ^ 0x5eed_0000_0000_0000);
        for _ in 0..=conn {
            mix.next_u64();
        }
        Stream {
            workload,
            base,
            conn,
            rng: Rng::new(mix.next_u64()),
            deck: Deck::new(match workload {
                Workload::OltpKeyed => &OLTP_MIX[..],
                Workload::OlapFresh => &OLAP_MIX[..],
                Workload::HtapCold => &[1],
            }),
            issued: 0,
            next_insert: owned_inserts(conn).start,
            live_inserts: VecDeque::new(),
            vbep_deleted: HashSet::new(),
            kpein: HashMap::new(),
        }
    }

    fn date(&mut self) -> i32 {
        self.rng.range(DATE_LO as i64, DATE_HI as i64 + 1) as i32
    }

    /// A `[lo, hi]` window of `width` ± 5% date integers at a random
    /// place: every window selects about as many rows, and the two
    /// literals together repeat rarely.
    fn window(&mut self, width: i32) -> (i32, i32) {
        let jitter = (width / 20).max(1) as i64;
        let width = (width as i64 + self.rng.range(-jitter, jitter + 1)) as i32;
        let lo = self.rng.range(DATE_LO as i64, (DATE_HI - width) as i64 + 1) as i32;
        (lo, lo + width)
    }

    fn oltp(&mut self) -> Stmt {
        let b = self.base;
        let owned = owned_orders(b.scale, self.conn);
        match self.deck.draw(&mut self.rng) {
            0 => {
                let k = self.rng.below(b.scale as u64) as i32;
                let n = b.vbap[k as usize].rows as usize;
                Stmt::read(
                    "vbap_point",
                    format!("SELECT * FROM VBAP WHERE VBELN = {k}"),
                    Expect::Rows(n),
                )
            }
            1 => {
                let c = self.rng.below(b.customers as u64);
                Stmt::read(
                    "kna1_point",
                    format!("SELECT * FROM KNA1 WHERE KUNNR = 'C{c:07}'"),
                    Expect::Rows(1),
                )
            }
            2 => {
                let a = self.rng.below(2 * b.customers as u64);
                Stmt::read(
                    "adrc_point",
                    format!("SELECT * FROM ADRC WHERE ADDRNUMBER = {a}"),
                    Expect::Rows(1),
                )
            }
            4 => {
                let k = self.rng.range(owned.start as i64, owned.end as i64) as i32;
                let v = self.rng.range(2, 1000);
                let rows = b.vbap[k as usize].rows;
                let old = self.kpein.insert(k, v).unwrap_or(1);
                Stmt::write(
                    "vbap_update",
                    format!("UPDATE VBAP SET KPEIN = {v} WHERE VBELN = {k}"),
                    rows as usize,
                    "VBAP",
                    Delta {
                        sum_third: rows * (v - old),
                        ..Delta::default()
                    },
                )
            }
            5 => {
                let k = self.rng.range(owned.start as i64, owned.end as i64) as i32;
                let agg = if self.vbep_deleted.insert(k) {
                    b.vbep[k as usize].clone()
                } else {
                    KeyAgg::default()
                };
                Stmt::write(
                    "vbep_delete",
                    format!("DELETE FROM VBEP WHERE VBELN = {k}"),
                    agg.rows as usize,
                    "VBEP",
                    Delta {
                        rows: -agg.rows,
                        sum_vbeln: -agg.rows * k as i64,
                        sum_posnr: -agg.sum_posnr,
                        sum_third: -agg.sum_third,
                    },
                )
            }
            6 if !self.live_inserts.is_empty() => {
                let k = self.live_inserts.pop_front().expect("non-empty");
                Stmt::write(
                    "vbap_delete",
                    format!("DELETE FROM VBAP WHERE VBELN = {k}"),
                    1,
                    "VBAP",
                    Delta {
                        rows: -1,
                        sum_vbeln: -(k as i64),
                        sum_posnr: -10,
                        sum_third: -1,
                    },
                )
            }
            // 3, and 6 while nothing inserted is left to delete.
            _ => {
                let k = self.take_insert_key();
                self.live_inserts.push_back(k);
                self.insert_vbap(k)
            }
        }
    }

    fn take_insert_key(&mut self) -> i32 {
        let k = self.next_insert;
        self.next_insert += 1;
        k
    }

    /// A one-row `VBAP` insert with `POSNR = 10` and `KPEIN = 1`.
    fn insert_vbap(&mut self, k: i32) -> Stmt {
        let qty = self.rng.range(1, 100);
        let price = self.rng.range(5, 500) as f64 / 2.0;
        let sql = format!(
            "INSERT INTO VBAP VALUES ({k}, 10, 'MAT-{:05}', 'MATW-{}', 'TA{}', 'CH{:04}', \
             'W{:02}', 'L{:02}', {qty}.0, 'ST', {:?}, 'EUR', {price:?}, 1, '', {}, 'S{}', \
             'G{}', 'V{}', 'R{:03}')",
            self.rng.below(2000),
            self.rng.below(50),
            self.rng.below(5),
            self.rng.below(500),
            self.rng.below(20),
            self.rng.below(10),
            qty as f64 * price,
            self.date(),
            self.rng.below(5),
            self.rng.below(8),
            self.rng.below(6),
            self.rng.below(100),
        );
        Stmt::write(
            "vbap_insert",
            sql,
            1,
            "VBAP",
            Delta {
                rows: 1,
                sum_vbeln: k as i64,
                sum_posnr: 10,
                sum_third: 1,
            },
        )
    }

    /// A one-row `VBEP` insert with `POSNR = 10` and `ETENR = 1`.
    fn insert_vbep(&mut self, k: i32) -> Stmt {
        let qty = self.rng.range(1, 100);
        let sql = format!(
            "INSERT INTO VBEP VALUES ({k}, 10, 1, 'E{}', {}, {qty}.0, {qty}.0, 'ST', 'LS{}', {})",
            self.rng.below(3),
            self.date(),
            self.rng.below(4),
            self.date(),
        );
        Stmt::write(
            "vbep_insert",
            sql,
            1,
            "VBEP",
            Delta {
                rows: 1,
                sum_vbeln: k as i64,
                sum_posnr: 10,
                sum_third: 1,
            },
        )
    }

    fn olap(&mut self) -> Stmt {
        match self.deck.draw(&mut self.rng) {
            0 => {
                let (a, b) = self.window(400);
                Stmt::read(
                    "q2_scan_agg",
                    format!(
                        "SELECT count(*), sum(NETWR) FROM VBAK WHERE ERDAT >= {a} AND ERDAT <= {b}"
                    ),
                    Expect::AnyRows,
                )
            }
            1 => {
                let p = self.rng.range(10_000, 15_000) as f64 / 100.0;
                Stmt::read(
                    "q5_grouped",
                    format!(
                        "SELECT MATNR, count(*), sum(KWMENG) FROM VBAP WHERE NETPR >= {p:?} \
                         GROUP BY MATNR"
                    ),
                    Expect::AnyRows,
                )
            }
            2 => {
                let (a, b) = self.window(400);
                Stmt::read(
                    "q12_grouped",
                    format!(
                        "SELECT LIFSP, sum(WMENG) FROM VBEP WHERE EDATU >= {a} AND EDATU <= {b} \
                         GROUP BY LIFSP"
                    ),
                    Expect::AnyRows,
                )
            }
            3 => {
                let (a, b) = self.window(100);
                Stmt::read(
                    "q4_join_agg",
                    format!(
                        "SELECT VBAK.KUNNR, sum(VBAP.NETWR) FROM VBAK JOIN VBAP \
                         ON VBAK.VBELN = VBAP.VBELN WHERE VBAK.ERDAT >= {a} AND VBAK.ERDAT <= {b} \
                         GROUP BY VBAK.KUNNR"
                    ),
                    Expect::AnyRows,
                )
            }
            4 => {
                let (a, b) = self.window(100);
                let n = self.rng.range(10, 101);
                Stmt::read(
                    "q9_range_sort",
                    format!(
                        "SELECT VBELN, ERDAT FROM VBAK WHERE ERDAT >= {a} AND ERDAT <= {b} \
                         ORDER BY ERDAT, VBELN LIMIT {n}"
                    ),
                    Expect::AnyRows,
                )
            }
            _ => {
                let prefix = pdsm_workloads::sapsd::NAME_PREFIXES[self.rng.below(10) as usize];
                let suffix = pdsm_workloads::sapsd::NAME_SUFFIXES[self.rng.below(4) as usize];
                let n = self.rng.range(1, 10_000);
                Stmt::read(
                    "q1_like",
                    format!(
                        "SELECT ADDRNUMBER, NAME_CO, NAME1, NAME2, KUNNR FROM ADRC \
                         WHERE NAME1 LIKE '{prefix} Systems {n}%' OR NAME2 LIKE '%{suffix}'"
                    ),
                    Expect::AnyRows,
                )
            }
        }
    }

    /// Connection 0 loops over five dashboard statements with fixed
    /// literals; connection 1 ingests one order item and one schedule line
    /// per new order.
    fn htap(&mut self) -> Stmt {
        if self.conn == 0 {
            let (class, sql) = DASHBOARD[(self.issued % DASHBOARD.len() as u64) as usize];
            return Stmt::read(class, sql.to_string(), Expect::AnyRows);
        }
        if self.issued.is_multiple_of(2) {
            let k = self.take_insert_key();
            self.insert_vbap(k)
        } else {
            let k = self.next_insert - 1;
            self.insert_vbep(k)
        }
    }
}

/// `htap-cold`'s dashboard: Q2, Q5 and Q12 shapes with fixed literals.
/// VBAK is never written, so its statement can hit the result cache;
/// the others are invalidated by every ingested row. Five statements, two
/// of them of the Q12 shape, put the median read inside one class instead
/// of on the edge between two.
pub const DASHBOARD: [(&str, &str); 5] = [
    (
        "dash_q2_vbak",
        "SELECT count(*), sum(NETWR) FROM VBAK WHERE ERDAT >= 20230700",
    ),
    (
        "dash_q5_vbap",
        "SELECT MATNR, count(*), sum(KWMENG) FROM VBAP WHERE NETPR >= 100.0 GROUP BY MATNR",
    ),
    (
        "dash_q12_vbep",
        "SELECT LIFSP, sum(WMENG) FROM VBEP WHERE EDATU >= 20230500 AND EDATU <= 20230900 \
         GROUP BY LIFSP",
    ),
    (
        "dash_q2_vbap",
        "SELECT count(*), sum(NETWR) FROM VBAP WHERE ERDAT >= 20231000",
    ),
    (
        "dash_q12_vbep",
        "SELECT LIFSP, sum(WMENG) FROM VBEP WHERE EDATU >= 20230100 AND EDATU <= 20230500 \
         GROUP BY LIFSP",
    ),
];

impl Iterator for Stream<'_> {
    type Item = Stmt;

    fn next(&mut self) -> Option<Stmt> {
        let s = match self.workload {
            Workload::OltpKeyed => self.oltp(),
            Workload::OlapFresh => self.olap(),
            Workload::HtapCold => self.htap(),
        };
        self.issued += 1;
        Some(s)
    }
}

/// The checksum statement of a written table.
pub fn checksum_sql(table: &str) -> String {
    let third = if table == "VBEP" { "ETENR" } else { "KPEIN" };
    format!("SELECT count(*), sum(VBELN), sum(POSNR), sum({third}) FROM {table}")
}

/// The checksum `table` must have once `deltas` are applied to the
/// generated data: `[count, sum(VBELN), sum(POSNR), sum(third)]`.
pub fn expected_checksum<'d>(
    base: &Base,
    table: &str,
    deltas: impl IntoIterator<Item = &'d (&'static str, Delta)>,
) -> [i64; 4] {
    let aggs = if table == "VBEP" {
        &base.vbep
    } else {
        &base.vbap
    };
    let mut sum = [0i64; 4];
    for (k, a) in aggs.iter().enumerate() {
        sum[0] += a.rows;
        sum[1] += a.rows * k as i64;
        sum[2] += a.sum_posnr;
        sum[3] += a.sum_third;
    }
    for (t, d) in deltas {
        if *t == table {
            sum[0] += d.rows;
            sum[1] += d.sum_vbeln;
            sum[2] += d.sum_posnr;
            sum[3] += d.sum_third;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Base {
        let scale = 400;
        Base::from_tables(scale, &pdsm_workloads::sapsd::tables(scale, 3))
    }

    fn take(w: Workload, b: &Base, seed: u64, conn: usize, n: usize) -> Vec<Stmt> {
        Stream::new(w, b, seed, conn).take(n).collect()
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let b = base();
        for w in Workload::ALL {
            for conn in 0..CONNECTIONS {
                assert_eq!(take(w, &b, 9, conn, 300), take(w, &b, 9, conn, 300));
            }
            let other = take(w, &b, 10, 1, 300);
            if w != Workload::HtapCold {
                assert_ne!(take(w, &b, 9, 1, 300), other, "{w:?}: seed must matter");
                assert_ne!(take(w, &b, 9, 0, 300), take(w, &b, 9, 1, 300));
            }
        }
    }

    /// Keys a statement writes, by table.
    fn written_keys(s: &Stmt) -> Option<(&'static str, i32)> {
        let (table, _) = s.delta?;
        let key = if s.sql.starts_with("INSERT") {
            let open = s.sql.find('(').unwrap();
            let comma = s.sql[open..].find(',').unwrap();
            &s.sql[open + 1..open + comma]
        } else {
            s.sql.rsplit("= ").next().unwrap()
        };
        Some((table, key.trim().parse().unwrap()))
    }

    #[test]
    fn connections_write_disjoint_key_ranges() {
        let b = base();
        for a in 0..CONNECTIONS {
            for c in a + 1..CONNECTIONS {
                let (ra, rc) = (owned_orders(b.scale, a), owned_orders(b.scale, c));
                assert!(ra.end <= rc.start || rc.end <= ra.start);
                let (ia, ic) = (owned_inserts(a), owned_inserts(c));
                assert!(ia.end <= ic.start || ic.end <= ia.start);
                assert!(ia.start >= b.scale as i32);
            }
        }
        for w in [Workload::OltpKeyed, Workload::HtapCold] {
            let mut owner: HashMap<(&str, i32), usize> = HashMap::new();
            let mut writes = 0;
            for conn in 0..CONNECTIONS {
                for s in take(w, &b, 5, conn, 2000) {
                    if let Some(key) = written_keys(&s) {
                        writes += 1;
                        let k = key.1;
                        assert!(
                            owned_orders(b.scale, conn).contains(&k)
                                || owned_inserts(conn).contains(&k),
                            "{w:?} conn {conn} wrote foreign key {k}"
                        );
                        assert_eq!(*owner.entry(key).or_insert(conn), conn);
                    }
                }
            }
            assert!(writes > 100, "{w:?} wrote only {writes} times");
        }
    }

    #[test]
    fn oltp_expectations_follow_the_connection_model() {
        let b = base();
        let stmts = take(Workload::OltpKeyed, &b, 4, 0, 3000);
        let mut deleted = HashSet::new();
        for s in &stmts {
            if s.class == "vbep_delete" {
                let k: i32 = s.sql.rsplit("= ").next().unwrap().parse().unwrap();
                let want = if deleted.insert(k) {
                    b.vbep[k as usize].rows as usize
                } else {
                    0
                };
                assert_eq!(s.expect, Expect::Count(want));
            }
        }
        // Inserted-then-deleted keys cancel out in the checksum.
        let deltas: Vec<_> = stmts.iter().filter_map(|s| s.delta).collect();
        let inserted = stmts.iter().filter(|s| s.class == "vbap_insert").count() as i64;
        let removed = stmts.iter().filter(|s| s.class == "vbap_delete").count() as i64;
        let got = expected_checksum(&b, "VBAP", &deltas);
        assert_eq!(got[0], b.rows_of("VBAP") as i64 + inserted - removed);
    }

    #[test]
    fn htap_dashboard_repeats_and_olap_does_not() {
        let b = base();
        let dash = take(Workload::HtapCold, &b, 1, 0, 40);
        assert_eq!(
            crate::stats::repeat_share(dash.iter().map(|s| s.sql.as_str())),
            35.0 / 40.0
        );
        let olap: Vec<Stmt> = (0..CONNECTIONS)
            .flat_map(|c| take(Workload::OlapFresh, &b, 1, c, 1000))
            .collect();
        let share = crate::stats::repeat_share(olap.iter().map(|s| s.sql.as_str()));
        assert!(share < 0.01, "olap-fresh repeat share {share}");
    }
}
