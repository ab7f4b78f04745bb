//! The worker pool and the pipeline driver: scoped `std::thread` workers,
//! no dependencies.
//!
//! Workers are spawned per pipeline (not kept hot across queries): scoped
//! threads let workers borrow the table, the compiled kernels' readers and
//! the shared [`MorselQueue`] directly, with the scope itself acting as
//! the pipeline barrier. Spawn cost (~10 µs/thread) is noise against the
//! scans worth splitting; the planner prices it (`PAR_FIXED_OVERHEAD`) so
//! small scans stay on one thread.

use crate::morsel::{Morsel, MorselQueue};

/// The worker count for a new database: the `PDSM_THREADS` environment
/// variable if it holds a positive integer, otherwise the machine's
/// parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("PDSM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `worker(worker_id)` on `threads` scoped workers and return their
/// results in worker-id order. `threads == 1` runs inline on the caller's
/// thread.
fn run_workers<R, W>(threads: usize, worker: W) -> Vec<R>
where
    R: Send,
    W: Fn(usize) -> R + Sync,
{
    if threads <= 1 {
        return vec![worker(0)];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|id| {
                let worker = &worker;
                scope.spawn(move || worker(id))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pipeline worker panicked"))
            .collect()
    })
}

/// The one pipeline driver. With `threads == 1` it hands `body` the whole
/// range `0..n_rows` as a single morsel on the caller's thread; otherwise
/// up to `threads` scoped workers claim `morsel_rows`-row morsels from a
/// shared queue. Each worker folds its morsels into its own `init()` state;
/// the states come back in worker order (never empty), for the caller to
/// stitch or merge.
pub fn drive<S, I, B>(n_rows: usize, morsel_rows: usize, threads: usize, init: I, body: B) -> Vec<S>
where
    S: Send,
    I: Fn() -> S + Sync,
    B: Fn(&mut S, Morsel) + Sync,
{
    if threads <= 1 {
        let mut state = init();
        body(
            &mut state,
            Morsel {
                index: 0,
                start: 0,
                end: n_rows,
            },
        );
        return vec![state];
    }
    let queue = MorselQueue::new(n_rows, morsel_rows);
    run_workers(threads.min(queue.n_morsels()).max(1), |_| {
        let mut state = init();
        while let Some(m) = queue.claim() {
            body(&mut state, m);
        }
        state
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_worker_order() {
        let out = run_workers(8, |id| id * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn single_thread_runs_inline() {
        let caller = std::thread::current().id();
        let out = run_workers(1, |_| std::thread::current().id());
        assert_eq!(out, vec![caller]);
    }

    #[test]
    fn drive_covers_every_row_once_at_any_thread_count() {
        for threads in [1, 2, 4, 8] {
            let partials = drive(
                50_000,
                128,
                threads,
                Vec::new,
                |rows: &mut Vec<usize>, m| rows.extend(m.rows()),
            );
            assert!(!partials.is_empty() && partials.len() <= threads);
            let mut rows: Vec<usize> = partials.into_iter().flatten().collect();
            rows.sort_unstable();
            assert_eq!(rows, (0..50_000).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn drive_runs_one_thread_over_one_range() {
        let caller = std::thread::current().id();
        let out = drive(
            1_000,
            10,
            1,
            || None,
            |s, m| {
                *s = Some((std::thread::current().id(), m));
            },
        );
        let (id, m) = out[0].expect("body ran");
        assert_eq!(id, caller);
        assert_eq!(
            m,
            Morsel {
                index: 0,
                start: 0,
                end: 1_000
            }
        );
    }
}
