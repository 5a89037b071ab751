//! The RUBiS-like auction workload.
//!
//! RUBiS (Rice University Bidding System) is the eBay-style multi-tier
//! benchmark the paper deploys (§V): browse/search/view/bid pages backed
//! by users/items/bids tables. We model the read-heavy browsing mix the
//! paper drives ("several concurrent clients continuously generating
//! random HTTP GET requests that resulted in queries to the database").
//!
//! Data lives in real in-memory tables; queries really execute and
//! produce real result text — the *timing* comes from a per-query CPU
//! cost table calibrated against the paper's observation that "the
//! bottleneck of the web service was the database rather than security".

use netsim::SimDuration;
use rand::rngs::StdRng;
use rand::RngExt;
use rand::SeedableRng;
use std::fmt::{self, Write};

/// An auction user.
#[derive(Clone, Debug)]
pub struct User {
    /// Primary key.
    pub id: u32,
    /// Display name.
    pub name: String,
    /// Feedback rating.
    pub rating: i32,
}

/// An item under auction.
#[derive(Clone, Debug)]
pub struct Item {
    /// Primary key.
    pub id: u32,
    /// Title.
    pub name: String,
    /// Category it is listed under.
    pub category: u32,
    /// Seller's user id.
    pub seller: u32,
    /// Buy-it-now price.
    pub buy_now: u32,
    /// Length of the description text (bytes).
    pub description_len: usize,
}

/// A bid.
#[derive(Clone, Debug)]
pub struct Bid {
    /// Primary key.
    pub id: u32,
    /// The item bid on.
    pub item: u32,
    /// The bidding user.
    pub bidder: u32,
    /// Bid amount.
    pub amount: u32,
}

/// Number of item categories.
pub const CATEGORIES: u32 = 20;

/// The database content: the users, items and bids tables, and two
/// indexes that let every query touch only the rows it returns.
pub struct RubisData {
    users: Vec<User>,
    items: Vec<Item>,
    bids: Vec<Bid>,
    /// Item ids per category, in id order.
    items_by_category: Vec<Vec<u32>>,
    /// Indices into `bids` per item id, in insertion order.
    bids_by_item: Vec<Vec<u32>>,
}

impl RubisData {
    /// Generates a dataset of `users` users, `items` items and ~3 bids
    /// per item, deterministically from `seed`.
    pub fn generate(users: u32, items: u32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let users_v: Vec<User> = (0..users)
            .map(|id| User {
                id,
                name: format!("user{id}"),
                rating: rng.random_range(-5..50),
            })
            .collect();
        let items_v: Vec<Item> = (0..items)
            .map(|id| Item {
                id,
                name: format!("item{id}"),
                category: rng.random_range(0..CATEGORIES),
                seller: rng.random_range(0..users.max(1)),
                buy_now: rng.random_range(10..5000),
                description_len: rng.random_range(200..2000),
            })
            .collect();
        let mut bids_v = Vec::with_capacity(items as usize * 3);
        let mut bids_by_item = Vec::with_capacity(items as usize);
        for item in 0..items {
            let first = bids_v.len() as u32;
            for _ in 0..rng.random_range(1..6u32) {
                bids_v.push(Bid {
                    id: bids_v.len() as u32,
                    item,
                    bidder: rng.random_range(0..users.max(1)),
                    amount: rng.random_range(10..5000),
                });
            }
            bids_by_item.push((first..bids_v.len() as u32).collect());
        }
        let mut items_by_category = vec![Vec::new(); CATEGORIES as usize];
        for i in &items_v {
            items_by_category[i.category as usize].push(i.id);
        }
        RubisData {
            users: users_v,
            items: items_v,
            bids: bids_v,
            items_by_category,
            bids_by_item,
        }
    }

    /// The bids on item `item`, oldest first (none for an unknown item).
    fn bids_on(&self, item: u32) -> impl Iterator<Item = &Bid> {
        let idx = self
            .bids_by_item
            .get(item as usize)
            .map_or(&[][..], Vec::as_slice);
        idx.iter().map(|&b| &self.bids[b as usize])
    }
}

/// RUBiS query types (the interaction mix of the browsing workload).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Query {
    /// Home page: list categories.
    BrowseCategories,
    /// Items in a category (a scan + sort in MySQL terms).
    SearchByCategory {
        /// Category id.
        category: u32,
        /// Zero-based result page.
        page: u32,
    },
    /// One item's detail page.
    ViewItem {
        /// Item id.
        item: u32,
    },
    /// Bid history for an item.
    ViewBidHistory {
        /// Item id.
        item: u32,
    },
    /// A user profile page.
    ViewUser {
        /// User id.
        user: u32,
    },
    /// Write: place a bid (invalidates the query cache).
    PlaceBid {
        /// Item id.
        item: u32,
        /// Bidding user id.
        bidder: u32,
        /// Bid amount.
        amount: u32,
    },
}

impl Query {
    /// Serializes as the wire query string.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(QUERY_TEXT_CAPACITY);
        match self {
            Query::BrowseCategories => out.write_str("BROWSE_CATEGORIES"),
            Query::SearchByCategory { category, page } => {
                write!(out, "SEARCH_CAT {category} {page}")
            }
            Query::ViewItem { item } => write!(out, "VIEW_ITEM {item}"),
            Query::ViewBidHistory { item } => write!(out, "VIEW_BIDS {item}"),
            Query::ViewUser { user } => write!(out, "VIEW_USER {user}"),
            Query::PlaceBid {
                item,
                bidder,
                amount,
            } => write!(out, "PLACE_BID {item} {bidder} {amount}"),
        }
        .expect("writing to a String cannot fail");
        out
    }

    /// Parses a wire query string.
    pub fn decode(s: &str) -> Option<Query> {
        let mut parts = s.split_whitespace();
        let op = parts.next()?;
        let mut num = || parts.next().and_then(|p| p.parse::<u32>().ok());
        Some(match op {
            "BROWSE_CATEGORIES" => Query::BrowseCategories,
            "SEARCH_CAT" => Query::SearchByCategory {
                category: num()?,
                page: num()?,
            },
            "VIEW_ITEM" => Query::ViewItem { item: num()? },
            "VIEW_BIDS" => Query::ViewBidHistory { item: num()? },
            "VIEW_USER" => Query::ViewUser { user: num()? },
            "PLACE_BID" => Query::PlaceBid {
                item: num()?,
                bidder: num()?,
                amount: num()?,
            },
            _ => return None,
        })
    }

    /// True for queries that modify data (cache-invalidating).
    pub fn is_write(&self) -> bool {
        matches!(self, Query::PlaceBid { .. })
    }

    /// The URL path a browser would request for this interaction.
    pub fn to_path(&self) -> String {
        let mut out = String::with_capacity(QUERY_TEXT_CAPACITY);
        match self {
            Query::BrowseCategories => out.write_str("/"),
            Query::SearchByCategory { category, page } => {
                write!(out, "/search?cat={category}&page={page}")
            }
            Query::ViewItem { item } => write!(out, "/item?id={item}"),
            Query::ViewBidHistory { item } => write!(out, "/bids?item={item}"),
            Query::ViewUser { user } => write!(out, "/user?id={user}"),
            Query::PlaceBid {
                item,
                bidder,
                amount,
            } => write!(out, "/bid?item={item}&user={bidder}&amount={amount}"),
        }
        .expect("writing to a String cannot fail");
        out
    }

    /// Parses the URL path back into a query (web-server side).
    pub fn from_path(path: &str) -> Option<Query> {
        let (route, args) = match path.split_once('?') {
            Some((r, a)) => (r, a),
            None => (path, ""),
        };
        let get = |key: &str| -> Option<u32> {
            args.split('&').find_map(|kv| {
                let (k, v) = kv.split_once('=')?;
                (k == key).then(|| v.parse().ok()).flatten()
            })
        };
        Some(match route {
            "/" => Query::BrowseCategories,
            "/search" => Query::SearchByCategory {
                category: get("cat")?,
                page: get("page")?,
            },
            "/item" => Query::ViewItem { item: get("id")? },
            "/bids" => Query::ViewBidHistory { item: get("item")? },
            "/user" => Query::ViewUser { user: get("id")? },
            "/bid" => Query::PlaceBid {
                item: get("item")?,
                bidder: get("user")?,
                amount: get("amount")?,
            },
            _ => return None,
        })
    }

    /// CPU cost of executing the query without the cache: MySQL 5.1 on
    /// the paper's large instance, scaled by the flavor's compute units
    /// at charge time. Calibrated so the FIG2 deployment saturates in
    /// the paper's range (tens to ~250 req/s across 3 micro web
    /// servers).
    pub fn cost(&self) -> SimDuration {
        let us = match self {
            Query::BrowseCategories => 900,
            Query::SearchByCategory { .. } => 5200, // the heavy scan
            Query::ViewItem { .. } => 2100,
            Query::ViewBidHistory { .. } => 3100,
            Query::ViewUser { .. } => 1200,
            Query::PlaceBid { .. } => 2800,
        };
        SimDuration::from_micros(us)
    }
}

/// CPU cost of serving a read from the query cache.
pub const CACHE_HIT_COST: SimDuration = SimDuration::from_micros(120);

/// Longest query string or path: `/bid?item=&user=&amount=` and three
/// ten-digit numbers.
const QUERY_TEXT_CAPACITY: usize = 64;

/// Results per search page.
const PAGE: usize = 20;

/// Executes a query against the data, returning the result text.
pub fn execute(data: &mut RubisData, q: &Query) -> String {
    let mut out = String::new();
    write_result(data, q, &mut out).expect("writing to a String cannot fail");
    out
}

/// Writes the result text of `q` into `out`, reading only the rows it
/// reports. The reservations are sized for the generated dataset.
fn write_result(data: &mut RubisData, q: &Query, out: &mut String) -> fmt::Result {
    match q {
        Query::BrowseCategories => {
            out.reserve(16 + 6 * CATEGORIES as usize);
            out.write_str("categories:")?;
            for c in 0..CATEGORIES {
                write!(out, " cat{c}")?;
            }
        }
        Query::SearchByCategory { category, page } => {
            let hits = data
                .items_by_category
                .get(*category as usize)
                .map_or(&[][..], Vec::as_slice);
            let start = (*page as usize * PAGE).min(hits.len());
            let end = (start + PAGE).min(hits.len());
            out.reserve(32 + 24 * (end - start));
            write!(out, "results {}-{} of {}:", start, end, hits.len())?;
            for &id in &hits[start..end] {
                let item = &data.items[id as usize];
                write!(out, " [{} {} ${}]", item.id, item.name, item.buy_now)?;
            }
        }
        Query::ViewItem { item } => match data.items.get(*item as usize) {
            Some(i) => {
                let high = data.bids_on(i.id).map(|b| b.amount).max().unwrap_or(0);
                out.reserve(96);
                write!(
                    out,
                    "item {} '{}' cat {} seller {} buy-now ${} high-bid ${} desc {} bytes",
                    i.id, i.name, i.category, i.seller, i.buy_now, high, i.description_len
                )?;
            }
            None => out.write_str("ERROR no such item")?,
        },
        Query::ViewBidHistory { item } => {
            let rows = data.bids_by_item.get(*item as usize).map_or(0, Vec::len);
            out.reserve(32 + 28 * rows);
            write!(out, "bids for item {item}:")?;
            for b in data.bids_on(*item) {
                write!(out, " [{} by user{} ${}]", b.id, b.bidder, b.amount)?;
            }
        }
        Query::ViewUser { user } => match data.users.get(*user as usize) {
            Some(u) => write!(out, "user {} '{}' rating {}", u.id, u.name, u.rating)?,
            None => out.write_str("ERROR no such user")?,
        },
        Query::PlaceBid {
            item,
            bidder,
            amount,
        } => match data.bids_by_item.get_mut(*item as usize) {
            Some(on_item) => {
                let id = data.bids.len() as u32;
                on_item.push(id);
                data.bids.push(Bid {
                    id,
                    item: *item,
                    bidder: *bidder,
                    amount: *amount,
                });
                write!(out, "OK bid {id} placed")?;
            }
            None => out.write_str("ERROR no such item")?,
        },
    }
    Ok(())
}

/// The browsing interaction mix (fractions sum to 1; read-dominated as
/// in RUBiS's default browsing workload).
pub struct WorkloadMix {
    /// Fraction of home-page hits.
    pub browse: f64,
    /// Fraction of category searches.
    pub search: f64,
    /// Fraction of item views.
    pub view_item: f64,
    /// Fraction of bid-history views.
    pub view_bids: f64,
    /// Fraction of profile views.
    pub view_user: f64,
    /// Fraction of bid placements (writes).
    pub place_bid: f64,
}

impl Default for WorkloadMix {
    fn default() -> Self {
        WorkloadMix {
            browse: 0.10,
            search: 0.30,
            view_item: 0.35,
            view_bids: 0.10,
            view_user: 0.10,
            place_bid: 0.05,
        }
    }
}

impl WorkloadMix {
    /// A read-only mix (used with query caching enabled).
    pub fn read_only() -> Self {
        WorkloadMix {
            browse: 0.10,
            search: 0.35,
            view_item: 0.35,
            view_bids: 0.10,
            view_user: 0.10,
            place_bid: 0.0,
        }
    }

    /// Draws a random interaction.
    pub fn sample(&self, users: u32, items: u32, draw: f64, rng_val: u64) -> Query {
        let item = (rng_val % items.max(1) as u64) as u32;
        let user = (rng_val % users.max(1) as u64) as u32;
        let mut acc = self.browse;
        if draw < acc {
            return Query::BrowseCategories;
        }
        acc += self.search;
        if draw < acc {
            return Query::SearchByCategory {
                category: item % CATEGORIES,
                page: 0,
            };
        }
        acc += self.view_item;
        if draw < acc {
            return Query::ViewItem { item };
        }
        acc += self.view_bids;
        if draw < acc {
            return Query::ViewBidHistory { item };
        }
        acc += self.view_user;
        if draw < acc {
            return Query::ViewUser { user };
        }
        Query::PlaceBid {
            item,
            bidder: user,
            amount: 100 + (rng_val % 1000) as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The table-scanning `execute` the indexes replaced, kept as the
    /// reference the indexed one is pinned to. Its `PlaceBid` appends to
    /// the bids table only.
    fn oracle_execute(data: &mut RubisData, q: &Query) -> String {
        match q {
            Query::BrowseCategories => {
                let mut out = String::from("categories:");
                for c in 0..CATEGORIES {
                    out.push_str(&format!(" cat{c}"));
                }
                out
            }
            Query::SearchByCategory { category, page } => {
                const PAGE: usize = 20;
                let hits: Vec<&Item> = data
                    .items
                    .iter()
                    .filter(|i| i.category == *category)
                    .collect();
                let start = (*page as usize * PAGE).min(hits.len());
                let end = (start + PAGE).min(hits.len());
                let mut out = format!("results {}-{} of {}:", start, end, hits.len());
                for item in &hits[start..end] {
                    out.push_str(&format!(" [{} {} ${}]", item.id, item.name, item.buy_now));
                }
                out
            }
            Query::ViewItem { item } => match data.items.get(*item as usize) {
                Some(i) => {
                    let high = data
                        .bids
                        .iter()
                        .filter(|b| b.item == i.id)
                        .map(|b| b.amount)
                        .max()
                        .unwrap_or(0);
                    format!(
                        "item {} '{}' cat {} seller {} buy-now ${} high-bid ${} desc {} bytes",
                        i.id, i.name, i.category, i.seller, i.buy_now, high, i.description_len
                    )
                }
                None => "ERROR no such item".into(),
            },
            Query::ViewBidHistory { item } => {
                let mut out = format!("bids for item {item}:");
                for b in data.bids.iter().filter(|b| b.item == *item) {
                    out.push_str(&format!(" [{} by user{} ${}]", b.id, b.bidder, b.amount));
                }
                out
            }
            Query::ViewUser { user } => match data.users.get(*user as usize) {
                Some(u) => format!("user {} '{}' rating {}", u.id, u.name, u.rating),
                None => "ERROR no such user".into(),
            },
            Query::PlaceBid {
                item,
                bidder,
                amount,
            } => {
                if data.items.get(*item as usize).is_none() {
                    return "ERROR no such item".into();
                }
                let id = data.bids.len() as u32;
                data.bids.push(Bid {
                    id,
                    item: *item,
                    bidder: *bidder,
                    amount: *amount,
                });
                format!("OK bid {id} placed")
            }
        }
    }

    /// Ids up to just past `limit`, and the far end of `u32`.
    fn arb_id(limit: u32) -> impl Strategy<Value = u32> {
        prop_oneof![0..limit + 3, Just(u32::MAX)]
    }

    fn arb_query(users: u32, items: u32) -> impl Strategy<Value = Query> {
        prop_oneof![
            Just(Query::BrowseCategories),
            (arb_id(CATEGORIES), 0u32..4)
                .prop_map(|(category, page)| Query::SearchByCategory { category, page }),
            arb_id(items).prop_map(|item| Query::ViewItem { item }),
            arb_id(items).prop_map(|item| Query::ViewBidHistory { item }),
            arb_id(users).prop_map(|user| Query::ViewUser { user }),
            (arb_id(items), arb_id(users), any::<u32>()).prop_map(|(item, bidder, amount)| {
                Query::PlaceBid {
                    item,
                    bidder,
                    amount,
                }
            }),
        ]
    }

    /// Every index entry names a row that belongs under it, and every
    /// row is indexed once, in table order.
    fn assert_indexes_match_tables(data: &RubisData) {
        for (c, ids) in data.items_by_category.iter().enumerate() {
            let want: Vec<u32> = data
                .items
                .iter()
                .filter(|i| i.category as usize == c)
                .map(|i| i.id)
                .collect();
            assert_eq!(ids, &want, "category {c}");
        }
        assert_eq!(data.bids_by_item.len(), data.items.len());
        for (item, idx) in data.bids_by_item.iter().enumerate() {
            let want: Vec<u32> = (0..data.bids.len() as u32)
                .filter(|&b| data.bids[b as usize].item as usize == item)
                .collect();
            assert_eq!(idx, &want, "item {item}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn indexed_execute_matches_table_scan(
            users in 0u32..40,
            // Up to ~35 items per category, so searches fill two pages.
            items in 0u32..700,
            seed: u64,
            queries in prop::collection::vec(arb_query(40, 700), 1..40),
        ) {
            let mut indexed = RubisData::generate(users, items, seed);
            let mut scanned = RubisData::generate(users, items, seed);
            for q in &queries {
                let got = execute(&mut indexed, q);
                let want = oracle_execute(&mut scanned, q);
                prop_assert_eq!(&got, &want, "{:?}", q);
            }
            prop_assert_eq!(format!("{:?}", indexed.bids), format!("{:?}", scanned.bids));
            assert_indexes_match_tables(&indexed);
        }
    }

    #[test]
    fn dataset_generation_deterministic() {
        let a = RubisData::generate(100, 200, 9);
        let b = RubisData::generate(100, 200, 9);
        assert_eq!(a.users.len(), 100);
        assert_eq!(a.items.len(), 200);
        assert!(!a.bids.is_empty());
        assert_eq!(a.bids.len(), b.bids.len());
        assert_eq!(a.items[7].buy_now, b.items[7].buy_now);
    }

    #[test]
    fn query_string_round_trip() {
        let queries = [
            Query::BrowseCategories,
            Query::SearchByCategory {
                category: 3,
                page: 1,
            },
            Query::ViewItem { item: 42 },
            Query::ViewBidHistory { item: 7 },
            Query::ViewUser { user: 9 },
            Query::PlaceBid {
                item: 1,
                bidder: 2,
                amount: 300,
            },
        ];
        for q in queries {
            assert_eq!(Query::decode(&q.encode()), Some(q.clone()), "{q:?}");
            assert_eq!(Query::from_path(&q.to_path()), Some(q.clone()), "{q:?}");
        }
        assert_eq!(Query::decode("GIBBERISH"), None);
        assert_eq!(Query::from_path("/nope"), None);
    }

    #[test]
    fn execution_produces_real_results() {
        let mut data = RubisData::generate(50, 100, 1);
        let r = execute(&mut data, &Query::ViewItem { item: 5 });
        assert!(r.contains("item 5"), "{r}");
        let cat5 = data.items[5].category;
        let r = execute(
            &mut data,
            &Query::SearchByCategory {
                category: cat5,
                page: 0,
            },
        );
        assert!(
            r.contains(&format!("[{}", 5)) || r.contains("results"),
            "{r}"
        );
        let r = execute(&mut data, &Query::ViewUser { user: 3 });
        assert!(r.contains("user 3"));
        let r = execute(&mut data, &Query::ViewItem { item: 9999 });
        assert!(r.contains("ERROR"));
    }

    #[test]
    fn place_bid_mutates() {
        let mut data = RubisData::generate(10, 10, 2);
        let before = data.bids.len();
        let r = execute(
            &mut data,
            &Query::PlaceBid {
                item: 3,
                bidder: 1,
                amount: 9999,
            },
        );
        assert!(r.starts_with("OK"));
        assert_eq!(data.bids.len(), before + 1);
        // The new high bid shows up on the item page.
        let r = execute(&mut data, &Query::ViewItem { item: 3 });
        assert!(r.contains("high-bid $9999"), "{r}");
    }

    #[test]
    fn mix_sums_to_one() {
        let m = WorkloadMix::default();
        let sum = m.browse + m.search + m.view_item + m.view_bids + m.view_user + m.place_bid;
        assert!((sum - 1.0).abs() < 1e-9);
        let m = WorkloadMix::read_only();
        let sum = m.browse + m.search + m.view_item + m.view_bids + m.view_user + m.place_bid;
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mix_sampling_covers_interactions() {
        let m = WorkloadMix::default();
        let mut kinds = netsim::fx::FxHashSet::default();
        for i in 0..1000 {
            let q = m.sample(100, 100, i as f64 / 1000.0, i * 31);
            kinds.insert(std::mem::discriminant(&q));
        }
        assert_eq!(kinds.len(), 6, "all interaction types appear");
    }

    #[test]
    fn costs_reflect_query_weight() {
        let search = Query::SearchByCategory {
            category: 0,
            page: 0,
        }
        .cost();
        assert!(
            search > Query::ViewItem { item: 0 }.cost(),
            "search is the heavy scan"
        );
        assert!(
            CACHE_HIT_COST < Query::BrowseCategories.cost(),
            "cache hits are cheap"
        );
    }
}
