//! Property-based tests for the web substrate's codecs: HTTP and frame
//! parsers must reconstruct exactly the messages sent, no matter how
//! TCP fragments the byte stream, and must never panic on garbage.

use proptest::prelude::*;
use websvc::db::{frame, FrameDecoder};
use websvc::http::{HttpRequest, HttpResponse, RequestDecoder, ResponseDecoder};
use websvc::rubis::Query;
use websvc::secure::Inbox;

fn arb_query() -> impl Strategy<Value = Query> {
    prop_oneof![
        Just(Query::BrowseCategories),
        (any::<u32>(), 0u32..100).prop_map(|(c, p)| Query::SearchByCategory {
            category: c,
            page: p
        }),
        any::<u32>().prop_map(|i| Query::ViewItem { item: i }),
        any::<u32>().prop_map(|i| Query::ViewBidHistory { item: i }),
        any::<u32>().prop_map(|u| Query::ViewUser { user: u }),
        (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(i, b, a)| Query::PlaceBid {
            item: i,
            bidder: b,
            amount: a
        }),
    ]
}

/// Splits `data` into chunks at the given fractional cut points.
fn fragment(data: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
    let mut points: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
    points.sort_unstable();
    let mut out = Vec::new();
    let mut prev = 0;
    for p in points {
        if p > prev {
            out.push(data[prev..p].to_vec());
            prev = p;
        }
    }
    out.push(data[prev..].to_vec());
    out
}

proptest! {
    #[test]
    fn http_requests_survive_fragmentation(
        queries in proptest::collection::vec(arb_query(), 1..6),
        cuts in proptest::collection::vec(any::<usize>(), 0..10),
    ) {
        let mut wire = Vec::new();
        for q in &queries {
            wire.extend(HttpRequest::get(&q.to_path()).encode());
        }
        let mut parser = Inbox::<RequestDecoder>::default();
        let mut parsed = Vec::new();
        for chunk in fragment(&wire, &cuts) {
            parser.push(&chunk);
            while let Some(req) = parser.next_message() {
                parsed.push(req);
            }
        }
        prop_assert_eq!(parsed.len(), queries.len());
        for (req, q) in parsed.iter().zip(&queries) {
            let parsed_q = Query::from_path(&req.path);
            prop_assert_eq!(parsed_q.as_ref(), Some(q));
        }
    }

    #[test]
    fn http_responses_survive_fragmentation(
        bodies in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..2000), 1..5),
        cuts in proptest::collection::vec(any::<usize>(), 0..10),
    ) {
        let mut wire = Vec::new();
        for b in &bodies {
            wire.extend(HttpResponse::ok(b.clone()).encode());
        }
        let mut parser = Inbox::<ResponseDecoder>::default();
        let mut parsed = Vec::new();
        for chunk in fragment(&wire, &cuts) {
            parser.push(&chunk);
            while let Some(resp) = parser.next_message() {
                parsed.push(resp);
            }
        }
        prop_assert_eq!(parsed.len(), bodies.len());
        for (resp, b) in parsed.iter().zip(&bodies) {
            prop_assert_eq!(&resp.body, b);
            prop_assert_eq!(resp.status, 200);
        }
    }

    #[test]
    fn frames_survive_fragmentation(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..1500), 1..8),
        cuts in proptest::collection::vec(any::<usize>(), 0..12),
    ) {
        let mut wire = Vec::new();
        for p in &payloads {
            wire.extend(frame(p));
        }
        let mut parser = Inbox::<FrameDecoder>::default();
        let mut parsed = Vec::new();
        for chunk in fragment(&wire, &cuts) {
            parser.push(&chunk);
            while let Some(f) = parser.next_message() {
                parsed.push(f.to_vec());
            }
        }
        prop_assert_eq!(parsed, payloads);
    }

    #[test]
    fn parsers_never_panic_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..600)) {
        let mut rp = Inbox::<RequestDecoder>::default();
        rp.push(&data);
        while rp.next_message().is_some() {}
        let mut sp = Inbox::<ResponseDecoder>::default();
        sp.push(&data);
        while sp.next_message().is_some() {}
        let mut fp = Inbox::<FrameDecoder>::default();
        fp.push(&data);
        while fp.next_message().is_some() {}
    }

    #[test]
    fn query_codec_total_round_trip(q in arb_query()) {
        let decoded = Query::decode(&q.encode());
        prop_assert_eq!(decoded.as_ref(), Some(&q));
        prop_assert_eq!(Query::from_path(&q.to_path()), Some(q));
    }

    #[test]
    fn latency_stats_mean_within_bounds(samples in proptest::collection::vec(1u64..1_000_000, 1..100)) {
        use websvc::loadgen::LatencyStats;
        use netsim::SimDuration;
        let mut s = LatencyStats::default();
        for v in &samples {
            s.record(SimDuration::from_micros(*v));
        }
        let min = *samples.iter().min().expect("nonempty") as f64 / 1000.0;
        let max = *samples.iter().max().expect("nonempty") as f64 / 1000.0;
        prop_assert!(s.mean() >= min - 1e-9 && s.mean() <= max + 1e-9);
        prop_assert!(s.percentile(0.0) >= min - 1e-9);
        prop_assert!(s.percentile(100.0) <= max + 1e-9);
    }
}
