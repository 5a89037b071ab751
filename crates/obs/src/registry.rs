//! A registry of named counters, gauges and histograms.
//!
//! Hot paths pre-register a metric once (getting a small integer
//! handle) and then bump it with an index plus one `enabled` branch —
//! no hashing, no allocation. Rare events (a BEX completing, an SA
//! being installed) can use the by-name API, which lazily registers.
//! A handle stays valid for as long as its registry lives:
//! [`MetricsRegistry::take`] hands over the values but keeps every name
//! registered, at zero.
//!
//! Registries from parallel sweep shards merge by name; dumps are
//! sorted by name so output is deterministic.

use crate::hist::Histogram;
use crate::json;

/// Handle to a pre-registered counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CtrId(usize);

/// Handle to a pre-registered histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistId(usize);

/// Named counters, gauges and histograms. See the module docs.
#[derive(Default)]
pub struct MetricsRegistry {
    enabled: bool,
    /// Every name, once, sorted, with where its value lives. One binary
    /// search finds a name or the place to insert it.
    names: Vec<(String, Slot)>,
    counters: Vec<u64>,
    gauges: Vec<i64>,
    hists: Vec<Histogram>,
}

#[derive(Clone, Copy)]
enum Slot {
    Ctr(usize),
    Gauge(usize),
    Hist(usize),
}

impl MetricsRegistry {
    /// An enabled, empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            enabled: true,
            ..Default::default()
        }
    }

    /// A disabled registry: registration still works (handles stay
    /// valid), but every observation is a no-op behind one branch.
    pub fn disabled() -> Self {
        MetricsRegistry::default()
    }

    /// Whether observations are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// The slot of `name`; if the name is new, `push` adds its value
    /// and returns where.
    fn register(&mut self, name: &str, push: impl FnOnce(&mut Self) -> Slot) -> Slot {
        match self.search(name) {
            Ok(i) => self.names[i].1,
            Err(i) => {
                let slot = push(self);
                self.names.insert(i, (name.to_string(), slot));
                slot
            }
        }
    }

    /// Registers (or finds) a counter, returning its handle.
    pub fn counter(&mut self, name: &str) -> CtrId {
        let slot = self.register(name, |r| {
            r.counters.push(0);
            Slot::Ctr(r.counters.len() - 1)
        });
        match slot {
            Slot::Ctr(i) => CtrId(i),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Registers (or finds) a gauge, returning its index.
    fn gauge(&mut self, name: &str) -> usize {
        let slot = self.register(name, |r| {
            r.gauges.push(0);
            Slot::Gauge(r.gauges.len() - 1)
        });
        match slot {
            Slot::Gauge(i) => i,
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Registers (or finds) a histogram, returning its handle.
    pub fn hist(&mut self, name: &str) -> HistId {
        let slot = self.register(name, |r| {
            r.hists.push(Histogram::new());
            Slot::Hist(r.hists.len() - 1)
        });
        match slot {
            Slot::Hist(i) => HistId(i),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Increments a counter by 1.
    #[inline]
    pub fn inc(&mut self, id: CtrId) {
        if self.enabled {
            self.counters[id.0] += 1;
        }
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CtrId, n: u64) {
        if self.enabled {
            self.counters[id.0] += n;
        }
    }

    /// Records a histogram observation.
    #[inline]
    pub fn observe(&mut self, id: HistId, v: u64) {
        if self.enabled {
            self.hists[id.0].record(v);
        }
    }

    /// By-name counter add (lazy registration; rare paths only).
    pub fn add_name(&mut self, name: &str, n: u64) {
        if self.enabled {
            let id = self.counter(name);
            self.counters[id.0] += n;
        }
    }

    /// By-name gauge set (lazy registration; rare paths only).
    pub fn set_gauge_name(&mut self, name: &str, v: i64) {
        if self.enabled {
            let i = self.gauge(name);
            self.gauges[i] = v;
        }
    }

    /// By-name histogram observation (lazy registration; rare paths
    /// only — per-request paths should pre-register).
    pub fn observe_name(&mut self, name: &str, v: u64) {
        if self.enabled {
            let id = self.hist(name);
            self.hists[id.0].record(v);
        }
    }

    /// Counter add through a handle cached in `slot`, for per-request
    /// paths that cannot register up front. The handle is resolved on
    /// first use, so the registry gains `name` exactly when
    /// [`Self::add_name`] would add it; once filled, `slot` must only
    /// be used with this registry.
    #[inline]
    pub fn add_cached(&mut self, slot: &mut Option<CtrId>, name: &str, n: u64) {
        if self.enabled {
            let id = *slot.get_or_insert_with(|| self.counter(name));
            self.counters[id.0] += n;
        }
    }

    /// Histogram observation through a handle cached in `slot` (see
    /// [`Self::add_cached`]).
    #[inline]
    pub fn observe_cached(&mut self, slot: &mut Option<HistId>, name: &str, v: u64) {
        if self.enabled {
            let id = *slot.get_or_insert_with(|| self.hist(name));
            self.hists[id.0].record(v);
        }
    }

    /// Where `name` is in `names`, or where it would go.
    fn search(&self, name: &str) -> Result<usize, usize> {
        self.names.binary_search_by(|(k, _)| k.as_str().cmp(name))
    }

    /// The slot of `name`, if it is registered.
    fn find(&self, name: &str) -> Option<Slot> {
        Some(self.names[self.search(name).ok()?].1)
    }

    /// Current value of a counter, by name.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.find(name)? {
            Slot::Ctr(i) => Some(self.counters[i]),
            _ => None,
        }
    }

    /// Current value of a gauge, by name.
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        match self.find(name)? {
            Slot::Gauge(i) => Some(self.gauges[i]),
            _ => None,
        }
    }

    /// A histogram, by name.
    pub fn hist_get(&self, name: &str) -> Option<&Histogram> {
        match self.find(name)? {
            Slot::Hist(i) => Some(&self.hists[i]),
            _ => None,
        }
    }

    /// Hands over the accumulated values. `self` keeps every name
    /// registered, at zero, and its enabled flag, so handles into it
    /// stay valid.
    pub fn take(&mut self) -> MetricsRegistry {
        let zeroed = MetricsRegistry {
            enabled: self.enabled,
            names: self.names.clone(),
            counters: vec![0; self.counters.len()],
            gauges: vec![0; self.gauges.len()],
            hists: self.hists.iter().map(|_| Histogram::new()).collect(),
        };
        std::mem::replace(self, zeroed)
    }

    /// Merges `other` into `self` by metric name: counters add, gauges
    /// add (shard totals), histograms merge bucket-wise. Metrics only
    /// present in `other` are created here.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, slot) in &other.names {
            match *slot {
                Slot::Ctr(i) => {
                    let id = self.counter(name);
                    self.counters[id.0] += other.counters[i];
                }
                Slot::Gauge(i) => {
                    let j = self.gauge(name);
                    self.gauges[j] += other.gauges[i];
                }
                Slot::Hist(i) => {
                    let id = self.hist(name);
                    self.hists[id.0].merge(&other.hists[i]);
                }
            }
        }
    }

    /// Full dump as a JSON object with `counters`, `gauges` and
    /// `hists` sections, all sorted by name (deterministic output).
    pub fn to_json(&self) -> String {
        let mut sections = [String::new(), String::new(), String::new()];
        for (name, slot) in &self.names {
            let (out, value) = match *slot {
                Slot::Ctr(i) => (&mut sections[0], self.counters[i].to_string()),
                Slot::Gauge(i) => (&mut sections[1], self.gauges[i].to_string()),
                Slot::Hist(i) => (&mut sections[2], self.hists[i].summary_json()),
            };
            if !out.is_empty() {
                out.push(',');
            }
            json::write_str(out, name);
            out.push(':');
            out.push_str(&value);
        }
        let [c, g, h] = sections;
        format!("{{\"counters\":{{{c}}},\"gauges\":{{{g}}},\"hists\":{{{h}}}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_and_names_agree() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("pkts");
        let h = r.hist("latency");
        r.inc(c);
        r.add(c, 4);
        r.set_gauge_name("queue_depth", 7);
        r.set_gauge_name("queue_depth", 5);
        r.observe(h, 100);
        r.observe_name("latency", 200);
        assert_eq!(r.counter_value("pkts"), Some(5));
        assert_eq!(r.gauge_value("queue_depth"), Some(5));
        assert_eq!(r.hist_get("latency").unwrap().count(), 2);
        // Re-registration returns the same handle.
        assert_eq!(r.counter("pkts"), c);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut r = MetricsRegistry::disabled();
        let c = r.counter("pkts");
        r.inc(c);
        r.add_name("other", 3);
        r.observe_name("lat", 5);
        assert_eq!(r.counter_value("pkts"), Some(0));
        assert_eq!(r.counter_value("other"), None);
        assert!(r.hist_get("lat").is_none());
    }

    #[test]
    fn merge_by_name() {
        let mut a = MetricsRegistry::new();
        a.add_name("x", 1);
        a.observe_name("h", 10);
        let mut b = MetricsRegistry::new();
        b.add_name("y", 2);
        b.add_name("x", 3);
        b.observe_name("h", 30);
        a.merge(&b);
        assert_eq!(a.counter_value("x"), Some(4));
        assert_eq!(a.counter_value("y"), Some(2));
        assert_eq!(a.hist_get("h").unwrap().count(), 2);
        assert_eq!(a.hist_get("h").unwrap().max(), 30);
    }

    #[test]
    fn json_dump_is_sorted_and_parseable_shape() {
        let mut r = MetricsRegistry::new();
        r.add_name("z.ctr", 1);
        r.add_name("a.ctr", 2);
        r.set_gauge_name("g", -3);
        r.observe_name("h", 42);
        let j = r.to_json();
        assert!(j.find("\"a.ctr\"").unwrap() < j.find("\"z.ctr\"").unwrap());
        assert!(j.contains("\"g\":-3"));
        assert!(j.contains("\"p50\":42"));
    }

    #[test]
    fn cached_handles_register_like_by_name() {
        let (mut ctr, mut hist) = (None, None);
        let mut off = MetricsRegistry::disabled();
        off.add_cached(&mut ctr, "fwd", 1);
        off.observe_cached(&mut hist, "lat", 5);
        assert!(
            ctr.is_none() && hist.is_none(),
            "disabled: nothing resolved"
        );
        assert_eq!(off.to_json(), MetricsRegistry::disabled().to_json());

        let mut r = MetricsRegistry::new();
        r.add_name("first", 1);
        for v in [10, 20] {
            r.add_cached(&mut ctr, "fwd", 2);
            r.observe_cached(&mut hist, "lat", v);
        }
        let mut by_name = MetricsRegistry::new();
        by_name.add_name("first", 1);
        for v in [10, 20] {
            by_name.add_name("fwd", 2);
            by_name.observe_name("lat", v);
        }
        assert_eq!(r.to_json(), by_name.to_json());

        // A handle registered before `take` still bumps its own name
        // after it, in the registry that was left behind.
        let taken = r.take();
        r.add_name("later", 1);
        r.add_cached(&mut ctr, "fwd", 3);
        r.observe_cached(&mut hist, "lat", 7);
        assert_eq!(r.counter_value("fwd"), Some(3));
        assert_eq!(r.counter_value("later"), Some(1));
        assert_eq!(r.hist_get("lat").unwrap().count(), 1);
        assert_eq!(taken.counter_value("fwd"), Some(4));
        assert_eq!(taken.counter_value("later"), None);
    }

    #[test]
    fn take_hands_over_values_and_keeps_names_at_zero() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("pkts");
        let h = r.hist("lat");
        r.add(c, 3);
        r.observe(h, 9);
        r.set_gauge_name("depth", -4);
        let before = r.to_json();
        let taken = r.take();
        assert_eq!(taken.to_json(), before);
        assert_eq!(r.counter_value("pkts"), Some(0));
        assert_eq!(r.gauge_value("depth"), Some(0));
        assert_eq!(r.hist_get("lat").unwrap().count(), 0);
        r.inc(c);
        r.observe(h, 1);
        assert_eq!(r.counter_value("pkts"), Some(1));
        assert_eq!(r.hist_get("lat").unwrap().max(), 1);

        let mut off = MetricsRegistry::disabled();
        off.counter("pkts");
        let _ = off.take();
        assert!(!off.is_enabled(), "take keeps the enabled flag");
        assert_eq!(off.counter_value("pkts"), Some(0));
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_panics() {
        let mut r = MetricsRegistry::new();
        r.counter("m");
        r.hist("m");
    }
}
