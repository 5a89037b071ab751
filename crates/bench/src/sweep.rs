//! The one parallel-sweep harness for the experiment drivers.
//!
//! Every figure/table driver runs a set of *independent deterministic
//! simulations* (one per parameter cell) and wants them spread across
//! cores. The three drivers used to carry their own hand-rolled
//! crossbeam loops; this module is the single shared implementation,
//! built on `std::thread::scope`.
//!
//! Determinism contract: the returned `Vec` is ordered by **input
//! index**, never by completion order, so a sweep's output is
//! byte-identical across runs regardless of thread scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item, fanned out over the available cores.
///
/// Results come back ordered by input index (slot `i` holds
/// `f(&items[i])`), so output ordering is independent of scheduling.
/// Panics in `f` propagate after the scope joins.
pub fn par_sweep<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(items.len());
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }

    let slots: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                *slots[i].lock().expect("no poisoning") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("no poisoning")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_sweep(&items, |&x| x * 3);
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let none: Vec<u32> = par_sweep(&[], |x: &u32| *x);
        assert!(none.is_empty());
        assert_eq!(par_sweep(&[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn deterministic_across_runs() {
        let items: Vec<usize> = (0..64).collect();
        let run = || {
            par_sweep(&items, |&i| {
                // Unequal work per item so completion order scrambles.
                let mut acc = i as u64;
                for _ in 0..(i * 1000) {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                acc
            })
        };
        assert_eq!(run(), run());
    }
}
