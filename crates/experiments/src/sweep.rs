//! Parallel sweep runner for the figure registry.
//!
//! Every paper figure is a sweep of *independent* `(scheme × load × seed)`
//! simulations: each run is a pure function of its config, so the runs can
//! fan out across threads without changing any result. [`run_ordered`]
//! does exactly that — it executes a list of configs on
//! `std::thread::scope` workers and returns the results **in input
//! order**, which keeps every output table byte-identical to a serial run.
//! The worker count is the `jobs` argument every figure is handed; the
//! `repro` binary resolves it from `--jobs` / `PRIOPLUS_JOBS`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Fan `configs` out over `jobs` scoped worker threads; results come back in
/// input order. `jobs <= 1` (or a single config) runs inline on the calling
/// thread — the parallel and serial paths invoke the exact same `run`
/// closure per config, so outputs are identical by construction.
pub fn run_ordered<C, R, F>(configs: &[C], jobs: usize, run: &F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(&C) -> R + Sync,
{
    let jobs = jobs.max(1).min(configs.len().max(1));
    if jobs == 1 {
        return configs.iter().map(run).collect();
    }
    // Work-stealing by atomic index; each result lands in its input slot.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..configs.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cfg) = configs.get(i) else { break };
                let result = run(cfg);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_input_order() {
        let configs: Vec<u64> = (0..40).collect();
        for jobs in [1, 2, 4, 7] {
            let out = run_ordered(&configs, jobs, &|&c| c * 3);
            assert_eq!(out, configs.iter().map(|c| c * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_matches_serial_under_skew() {
        // Uneven per-item cost exercises out-of-order completion.
        let configs: Vec<u64> = (0..24).collect();
        let work = |&c: &u64| {
            let mut acc = c;
            for _ in 0..(c % 7) * 10_000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (c, acc)
        };
        let serial = run_ordered(&configs, 1, &work);
        let parallel = run_ordered(&configs, 4, &work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single_configs() {
        let empty: Vec<u32> = Vec::new();
        assert!(run_ordered(&empty, 4, &|&c| c).is_empty());
        assert_eq!(run_ordered(&[9u32], 4, &|&c| c + 1), vec![10]);
    }

    #[test]
    fn serial_path_bypasses_thread_machinery() {
        // Regression: `jobs <= 1` — and a single config regardless of the
        // requested job count — must run inline on the calling thread, not
        // pay thread/channel setup (measured 0.964x vs serial before the
        // bypass). Thread identity is the observable proof.
        let caller = std::thread::current().id();
        for (configs, jobs) in [((0..16u64).collect::<Vec<_>>(), 1), (vec![42u64], 8)] {
            let out = run_ordered(&configs, jobs, &|&c| {
                assert_eq!(
                    std::thread::current().id(),
                    caller,
                    "effective jobs == 1 must not spawn workers"
                );
                c + 1
            });
            assert_eq!(out, configs.iter().map(|c| c + 1).collect::<Vec<_>>());
        }
    }
}
