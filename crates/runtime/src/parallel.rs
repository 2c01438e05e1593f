//! The data-parallel loop entry points under their short path.
//!
//! Both loops are implemented once, in [`crate::pool`]; this module only
//! re-exports them, so `ugc_runtime::parallel::parallel_for` and
//! `ugc_runtime::pool::parallel_for` are the same function.

/// Runs `f(thread_id, start..end)` over chunks of `0..total` on up to
/// `num_threads` persistent pool workers. See [`crate::pool::parallel_for`].
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use ugc_runtime::parallel::parallel_for;
///
/// let sum = AtomicUsize::new(0);
/// parallel_for(4, 1000, 64, |_tid, range| {
///     sum.fetch_add(range.len(), Ordering::Relaxed);
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 1000);
/// ```
pub use crate::pool::parallel_for;

/// Like [`parallel_for`], with one `T::default()` accumulator per worker.
/// See [`crate::pool::parallel_for_with_local`].
pub use crate::pool::parallel_for_with_local;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn covers_every_index_exactly_once() {
        let hits: Vec<AtomicU64> = (0..500).map(|_| AtomicU64::new(0)).collect();
        parallel_for(8, 500, 7, |_tid, range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_total_is_noop() {
        parallel_for(4, 0, 16, |_, _| panic!("must not run"));
    }

    #[test]
    fn single_thread_fallback() {
        let locals = parallel_for_with_local::<usize, _>(1, 10, 100, |tid, range, local| {
            assert_eq!(tid, 0);
            *local += range.len();
        });
        assert_eq!(locals, vec![10]);
    }
}
