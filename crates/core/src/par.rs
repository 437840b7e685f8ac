//! Minimal data-parallel map on scoped OS threads.
//!
//! The build environment cannot fetch `rayon`, so the driver's per-trace
//! parallelism runs on `std::thread::scope` with an atomic work-stealing
//! cursor. Results land at their input's index, so the output order — and
//! therefore every downstream write-back — is deterministic regardless of
//! scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over `items` on up to `available_parallelism` worker threads,
/// preserving input order in the output.
///
/// Falls back to a plain serial map for 0 or 1 items (no threads spawned).
/// `f` may run on any worker; panics in `f` propagate (the scope joins all
/// workers first).
pub(crate) fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }

    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                *slots[i].lock().expect("result slot") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = par_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[41u32], |&x| x + 1), vec![42]);
    }

    #[test]
    fn heavier_closures_borrow_environment() {
        let base = vec![10.0f64, 20.0, 30.0];
        let scale = 0.5;
        let out = par_map(&base, |&x| x * scale);
        assert_eq!(out, vec![5.0, 10.0, 15.0]);
    }
}
