//! Seeded inputs: the stock universe as load statements, and the request
//! stream of each workload.
//!
//! Everything here is a pure function of `--seed`. The program under
//! test sees only the generated IDL text.

use idl_object::Date;
use idl_workload::stock::{generate_quotes, Quote, StockConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Stocks in the universe.
pub const STOCKS: usize = 40;
/// Trading days per stock.
pub const DAYS: usize = 150;
/// Quotes in each of the three schemata.
pub const QUOTES: usize = STOCKS * DAYS;

/// Future trading days whose (date-only) `chwab.r` rows exist from the
/// start, so `insStk` on them updates all three schemata (it only adds
/// attributes to existing `chwab` rows). The feed cycles through these
/// `FRESH_DAYS × STOCKS` keys.
pub const FRESH_DAYS: usize = 64;

/// Feed deletes trail their inserts by this many pairs, so a few fresh
/// quotes are always live for the reader and the recovery check.
pub const FEED_LAG: usize = 4;

/// Answer sizes of the `ho_read` thresholds: threshold `i` is exceeded
/// by exactly `HO_SIZES[i]` stocks, whatever the seed.
pub const HO_SIZES: [usize; 8] = [1, 2, 3, 4, 6, 8, 10, 12];

/// Feed quotes cost 1.00 to 40.99: below every `ho_read` threshold (those
/// sit among the highest per-stock maxima of walks that start at 50 to
/// 150), so feed traffic never changes an `ho_read` answer.
const FEED_PRICE_BASE: f64 = 1.0;

/// The generated stock universe and what the streams need to know of it.
pub struct Universe {
    pub seed: u64,
    /// `STOCKS × DAYS` quotes in (stock, date) order.
    pub quotes: Vec<Quote>,
    pub stocks: Vec<String>,
    pub dates: Vec<Date>,
    pub fresh_dates: Vec<Date>,
    /// Price thresholds matching [`HO_SIZES`].
    pub thresholds: [f64; 8],
}

pub fn price(p: f64) -> String {
    // Always with a fraction, so the lexer reads a float.
    format!("{p:.2}")
}

impl Universe {
    pub fn generate(seed: u64) -> Universe {
        let cfg = StockConfig { seed, ..StockConfig::sized(STOCKS, DAYS) };
        let quotes = generate_quotes(&cfg);
        assert_eq!(quotes.len(), QUOTES);
        let stocks: Vec<String> = (0..STOCKS).map(|s| quotes[s * DAYS].stock.clone()).collect();
        let dates: Vec<Date> = quotes[..DAYS].iter().map(|q| q.date).collect();
        let first_fresh = Date::new(1990, 1, 1).expect("valid date");
        let fresh_dates = (0..FRESH_DAYS).map(|d| first_fresh.plus_days(d as i64)).collect();

        // Thresholds between consecutive per-stock maxima, highest first.
        let mut maxima: Vec<f64> = quotes
            .chunks(DAYS)
            .map(|c| c.iter().map(|q| q.price).fold(f64::MIN, f64::max))
            .collect();
        maxima.sort_by(|a, b| b.total_cmp(a));
        let mut thresholds = [0.0; 8];
        for (t, &k) in thresholds.iter_mut().zip(&HO_SIZES) {
            // Quotes are whole cents, so a half-cent offset never ties.
            *t = ((maxima[k - 1] + maxima[k]) / 2.0 * 100.0).floor() / 100.0 + 0.005;
        }
        Universe { seed, quotes, stocks, dates, fresh_dates, thresholds }
    }

    fn quote(&self, stock: usize, day: usize) -> &Quote {
        &self.quotes[stock * DAYS + day]
    }

    /// The update requests that load the universe, each schema through
    /// its own batched inserts (one request per stock for `euter` and
    /// `ource`, one per date for `chwab`).
    pub fn load_statements(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(2 * STOCKS + DAYS + 1);
        for per_stock in self.quotes.chunks(DAYS) {
            let items: Vec<String> = per_stock
                .iter()
                .map(|q| {
                    format!(
                        ".euter.r+(.date={},.stkCode={},.clsPrice={})",
                        q.date,
                        q.stock,
                        price(q.price)
                    )
                })
                .collect();
            out.push(format!("?{}", items.join(", ")));
        }
        for (day, date) in self.dates.iter().enumerate() {
            let attrs: Vec<String> = (0..STOCKS)
                .map(|s| {
                    let q = self.quote(s, day);
                    format!(".{}={}", q.stock, price(q.price))
                })
                .collect();
            out.push(format!("?.chwab.r+(.date={date},{})", attrs.join(",")));
        }
        let fresh: Vec<String> =
            self.fresh_dates.iter().map(|d| format!(".chwab.r+(.date={d})")).collect();
        out.push(format!("?{}", fresh.join(", ")));
        for per_stock in self.quotes.chunks(DAYS) {
            let items: Vec<String> = per_stock
                .iter()
                .map(|q| {
                    format!(".ource.{}+(.date={},.clsPrice={})", q.stock, q.date, price(q.price))
                })
                .collect();
            out.push(format!("?{}", items.join(", ")));
        }
        out
    }
}

/// Zipf(1.0) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / rank as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// A rank in `0..n`; rank `k` is drawn in proportion to `1/(k+1)`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// How a reply is checked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// A query with exactly this many answers.
    Rows(usize),
    /// A query answered beside feed writes: the stored rows plus at most
    /// the live feed quotes of the stock.
    RowsAtLeast(usize),
    /// `ho_read`: the count comes from the oracle, keyed by request text.
    Oracle,
    /// An update that must mutate this many objects.
    Mutations(usize),
}

/// One generated request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    pub text: String,
    pub is_update: bool,
    /// Index into the workload's class names (request form).
    pub class: usize,
    pub expect: Expect,
}

/// A feed operation's effect on the set of live fresh quotes.
#[derive(Clone, Debug, PartialEq)]
pub struct FeedOp {
    pub insert: bool,
    pub stock: usize,
    pub fresh_day: usize,
    pub price: f64,
}

/// Which workload's request stream to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamKind {
    Point,
    Wide,
    /// `wide_read` requests run beside the feed (row counts may exceed
    /// the stored 150 by the live feed quotes).
    WideBesideFeed,
    Ho,
    Feed,
}

/// Request-form names per stream, indexed by [`Request::class`].
pub fn class_names(kind: StreamKind) -> &'static [&'static str] {
    match kind {
        StreamKind::Point => &["euter", "chwab", "ource"],
        StreamKind::Wide | StreamKind::WideBesideFeed => &["dbI", "dbO", "dbE"],
        StreamKind::Ho => &["euter", "chwab", "ource", "dbI", "join"],
        StreamKind::Feed => &["insStk", "delStk"],
    }
}

/// The `ho_read` request of form `class` at price threshold `t`: "stocks
/// above t" with `S` ranging over data, attribute names, relation names
/// and the unified view, and the cross-database higher-order join.
pub fn ho_text(class: usize, t: f64) -> String {
    match class {
        0 => format!("?.euter.r(.stkCode=S,.clsPrice>{t:.3})"),
        1 => format!("?.chwab.r(.S>{t:.3})"),
        2 => format!("?.ource.S(.clsPrice>{t:.3})"),
        3 => format!("?.dbI.p(.stk=S,.clsPrice>{t:.3})"),
        _ => format!("?.chwab.r(.date=D,.S=P), .ource.S(.date=D,.clsPrice=P), P>{t:.3}"),
    }
}

/// The effect of feed operation `n` (a pure function of the position).
pub fn feed_op(n: u64) -> FeedOp {
    // LAG inserts first, then inserts and deletes alternate, delete
    // k right after insert k+LAG.
    let lag = FEED_LAG as u64;
    let (insert, pair) = match n.checked_sub(lag) {
        None => (true, n),
        Some(m) if m % 2 == 0 => (true, lag + m / 2),
        Some(m) => (false, m / 2),
    };
    let keys = (FRESH_DAYS * STOCKS) as u64;
    let key = (pair % keys) as usize;
    FeedOp {
        insert,
        stock: key % STOCKS,
        fresh_day: key / STOCKS,
        price: FEED_PRICE_BASE + (pair % 4000) as f64 / 100.0,
    }
}

/// The seeded request stream of one workload (endless).
pub struct Stream {
    uni: Arc<Universe>,
    kind: StreamKind,
    rng: StdRng,
    zipf: Zipf,
    /// Rank → key index, a seeded shuffle so hot keys are spread over
    /// stocks and dates.
    perm: Vec<u32>,
    issued: u64,
}

impl Stream {
    pub fn new(uni: Arc<Universe>, kind: StreamKind) -> Stream {
        // One independent generator per workload, all derived from the seed.
        let salt = match kind {
            StreamKind::Point => 1,
            StreamKind::Wide | StreamKind::WideBesideFeed => 2,
            StreamKind::Ho => 3,
            StreamKind::Feed => 4,
        };
        let mut rng = StdRng::seed_from_u64(uni.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt);
        let mut perm: Vec<u32> = (0..QUOTES as u32).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        Stream { uni, kind, rng, zipf: Zipf::new(QUOTES), perm, issued: 0 }
    }

    /// Requests generated so far.
    pub fn position(&self) -> u64 {
        self.issued
    }

    pub fn next_request(&mut self) -> Request {
        let req = match self.kind {
            StreamKind::Point => self.point(),
            StreamKind::Wide => self.wide(Expect::Rows(DAYS)),
            StreamKind::WideBesideFeed => self.wide(Expect::RowsAtLeast(DAYS)),
            StreamKind::Ho => self.ho(),
            StreamKind::Feed => self.feed(),
        };
        self.issued += 1;
        req
    }

    fn point(&mut self) -> Request {
        let key = self.perm[self.zipf.sample(&mut self.rng)] as usize;
        let q = &self.uni.quotes[key];
        let class = self.rng.gen_range(0..3usize);
        let text = match class {
            0 => format!("?.euter.r(.stkCode={},.date={},.clsPrice=P)", q.stock, q.date),
            1 => format!("?.chwab.r(.date={},.{}=P)", q.date, q.stock),
            _ => format!("?.ource.{}(.date={},.clsPrice=P)", q.stock, q.date),
        };
        Request { text, is_update: false, class, expect: Expect::Rows(1) }
    }

    fn wide(&mut self, expect: Expect) -> Request {
        let s = &self.uni.stocks[self.rng.gen_range(0..STOCKS)];
        let class = self.rng.gen_range(0..3usize);
        let text = match class {
            0 => format!("?.dbI.p(.stk={s},.date=D,.clsPrice=P)"),
            1 => format!("?.dbO.{s}(.date=D,.clsPrice=P)"),
            _ => format!("?.dbE.r(.stkCode={s},.date=D,.clsPrice=P)"),
        };
        Request { text, is_update: false, class, expect }
    }

    fn ho(&mut self) -> Request {
        let t = self.uni.thresholds[self.rng.gen_range(0..HO_SIZES.len())];
        // 5 % the cross-database higher-order join, the rest spread
        // evenly over the four single-database forms.
        let class = if self.rng.gen_bool(0.05) { 4 } else { self.rng.gen_range(0..4usize) };
        Request { text: ho_text(class, t), is_update: false, class, expect: Expect::Oracle }
    }

    fn feed(&mut self) -> Request {
        let op = feed_op(self.issued);
        let (stock, date) = (&self.uni.stocks[op.stock], self.uni.fresh_dates[op.fresh_day]);
        let text = if op.insert {
            format!("?.dbU.insStk(.stk={stock},.date={date},.price={})", price(op.price))
        } else {
            format!("?.dbU.delStk(.stk={stock},.date={date})")
        };
        // One logical update is a row, an attribute and a relation update.
        Request {
            text,
            is_update: true,
            class: usize::from(!op.insert),
            expect: Expect::Mutations(3),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_texts(seed: u64, kind: StreamKind, n: usize) -> String {
        let mut s = Stream::new(Arc::new(Universe::generate(seed)), kind);
        (0..n).map(|_| s.next_request().text).collect::<Vec<_>>().join("\n")
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(
            Universe::generate(7).load_statements(),
            Universe::generate(7).load_statements()
        );
        for kind in [StreamKind::Point, StreamKind::Wide, StreamKind::Ho, StreamKind::Feed] {
            assert_eq!(first_texts(7, kind, 500), first_texts(7, kind, 500), "{kind:?}");
        }
    }

    #[test]
    fn different_seed_gives_different_inputs() {
        assert_ne!(
            Universe::generate(7).load_statements(),
            Universe::generate(8).load_statements()
        );
        for kind in [StreamKind::Point, StreamKind::Wide, StreamKind::Ho] {
            assert_ne!(first_texts(7, kind, 500), first_texts(8, kind, 500), "{kind:?}");
        }
    }

    #[test]
    fn thresholds_cut_the_stated_number_of_stocks() {
        let uni = Universe::generate(1991);
        for (t, k) in uni.thresholds.iter().zip(HO_SIZES) {
            let above = uni.quotes.chunks(DAYS).filter(|c| c.iter().any(|q| q.price > *t)).count();
            assert_eq!(above, k, "threshold {t}");
        }
    }

    #[test]
    fn zipf_draws_rank_k_in_proportion_to_one_over_k() {
        let z = Zipf::new(1000);
        let mut rng = StdRng::seed_from_u64(5);
        let mut hits = vec![0u32; 1000];
        let n = 400_000;
        for _ in 0..n {
            hits[z.sample(&mut rng)] += 1;
        }
        let h1000: f64 = (1..=1000).map(|k| 1.0 / k as f64).sum();
        for rank in [0usize, 1, 3, 9, 99] {
            let want = n as f64 / ((rank + 1) as f64 * h1000);
            let got = hits[rank] as f64;
            assert!((got - want).abs() < 0.08 * want, "rank {rank}: {got} vs {want}");
        }
        assert!(hits.iter().all(|&h| h > 0), "every rank is reachable");
    }

    #[test]
    fn feed_deletes_trail_inserts_and_keep_the_live_set_small() {
        let mut live = std::collections::BTreeSet::new();
        for n in 0..20_000u64 {
            let op = feed_op(n);
            let key = (op.stock, op.fresh_day);
            if op.insert {
                assert!(live.insert(key), "op {n} inserts a key that is already live");
            } else {
                assert!(live.remove(&key), "op {n} deletes a key that is not live");
            }
            assert!(live.len() <= FEED_LAG + 1);
        }
        assert_eq!(live.len(), FEED_LAG);
    }
}
