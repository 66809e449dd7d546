//! The one fan-out of independent work items: an ordered parallel map over
//! scoped threads.
//!
//! Meta-training (the tasks of one meta-batch, Algorithm 1) and evaluation
//! (the seed-fixed episode set, §4.2.1) both map a pure function over
//! independent items. [`map_ordered`] runs that map on contiguous chunks,
//! one per worker, and hands the results back in item order, so whatever
//! the caller folds over them afterwards — a gradient reduction, a running
//! mean — sees the serial order at any thread count.

use crate::{Error, Result};

/// Maps `f` over `items` on up to `threads` scoped worker threads (`0` uses
/// the machine's available parallelism) and returns the results in item
/// order.
///
/// The items are split into contiguous chunks, one per worker, and each
/// worker stops at its chunk's first error. The error returned is the first
/// in item order, where a worker that panicked stands for its whole chunk
/// and surfaces as [`Error::WorkerPanic`] carrying `context`.
///
/// One thread, or fewer than two items, runs `f` on the calling thread: a
/// panic in `f` then unwinds the caller, which is how an injected
/// task-gradient panic kills a serial training process.
pub fn map_ordered<T, R, F>(items: &[T], threads: usize, context: &str, f: F) -> Result<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Result<R> + Sync,
{
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    if threads <= 1 || items.len() < 2 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let f = &f;
    let per_worker: Vec<Result<Vec<R>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|chunk| scope.spawn(move || chunk.iter().map(f).collect()))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(Error::WorkerPanic {
                        context: context.into(),
                    })
                })
            })
            .collect()
    });
    // Workers hold contiguous chunks in item order, so flattening in worker
    // order restores item order independent of thread timing.
    let mut out = Vec::with_capacity(items.len());
    for results in per_worker {
        out.extend(results?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fails_at(i: usize) -> Error {
        Error::InvalidConfig(format!("item {i}"))
    }

    #[test]
    fn results_keep_item_order_at_every_thread_count() {
        for threads in 1..=5 {
            for len in 0..=9usize {
                let items: Vec<usize> = (0..len).collect();
                let out = map_ordered(&items, threads, "test", |&i| Ok(i * 10)).unwrap();
                assert_eq!(
                    out,
                    (0..len).map(|i| i * 10).collect::<Vec<_>>(),
                    "{threads} threads, {len} items"
                );
            }
        }
    }

    #[test]
    fn the_first_error_by_index_wins() {
        let items: Vec<usize> = (0..9).collect();
        for threads in 1..=5 {
            // Errors at 3 and 7 sit in different chunks at 2+ threads (and in
            // the same worker's chunk at 1 thread); index 3 must win either way.
            let err = map_ordered(&items, threads, "test", |&i| {
                if i == 3 || i == 7 {
                    Err(fails_at(i))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
            assert_eq!(
                err.to_string(),
                fails_at(3).to_string(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn a_worker_panic_becomes_worker_panic_with_its_context() {
        let items: Vec<usize> = (0..6).collect();
        for threads in 2..=5 {
            let err = map_ordered(&items, threads, "episode evaluation", |&i| {
                if i == 4 {
                    panic!("injected test panic");
                }
                Ok(i)
            })
            .unwrap_err();
            match err {
                Error::WorkerPanic { context } => assert_eq!(context, "episode evaluation"),
                other => panic!("expected WorkerPanic, got {other:?}"),
            }
        }
    }

    #[test]
    fn one_thread_or_one_item_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for (threads, len) in [(1usize, 5usize), (4, 1), (0, 1)] {
            let items: Vec<usize> = (0..len).collect();
            let ids =
                map_ordered(&items, threads, "test", |_| Ok(std::thread::current().id())).unwrap();
            assert!(
                ids.iter().all(|&id| id == caller),
                "{threads} threads, {len} items"
            );
        }
        // ...so a panic there unwinds the caller instead of becoming an error.
        let unwound = std::panic::catch_unwind(|| {
            map_ordered(&[1, 2, 3], 1, "test", |_| -> Result<()> {
                panic!("injected test panic")
            })
        });
        assert!(unwound.is_err());
    }

    #[test]
    fn two_or_more_threads_fan_out_off_the_calling_thread() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..4).collect();
        let ids = map_ordered(&items, 2, "test", |_| Ok(std::thread::current().id())).unwrap();
        assert!(ids.iter().all(|&id| id != caller));
    }
}
