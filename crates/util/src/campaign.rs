//! The campaign runner shared by `mfuzz` and `mfault`.
//!
//! A campaign is a schedule of independent cases named by a global
//! index `0, 1, 2, ...`. [`run`] hands the indices out to `jobs`
//! workers from one shared counter; each worker builds its own state
//! once (lazily, at its first case) and turns claimed indices into
//! results; the calling thread receives every result through `merge`
//! in index order. So:
//!
//! * anything a campaign decides in `merge` is the same for any number
//!   of workers;
//! * a claimed index always finishes, so a campaign cut off by its
//!   deadline has run exactly a prefix `0..n` of its schedule;
//! * with `jobs <= 1` everything runs inline on the calling thread.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// Runs cases `0..cases` (or until `deadline`, whichever comes first;
/// with neither, forever) on `jobs` workers and merges their results
/// in index order. `init` builds one worker's state, `work` runs one
/// case.
///
/// # Panics
///
/// Propagates a panic from `init`, `work` or `merge`.
pub fn run<S, R: Send>(
    jobs: usize,
    cases: Option<u64>,
    deadline: Option<Instant>,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, u64) -> R + Sync,
    mut merge: impl FnMut(u64, R),
) {
    let next = AtomicU64::new(0);
    let claim = || {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return None;
        }
        let index = next.fetch_add(1, Ordering::Relaxed);
        cases.is_none_or(|n| index < n).then_some(index)
    };
    let workers = cases.map_or(jobs, |n| jobs.min(usize::try_from(n).unwrap_or(usize::MAX)));
    if workers <= 1 {
        let mut state = None;
        while let Some(index) = claim() {
            merge(index, work(state.get_or_insert_with(&init), index));
        }
        return;
    }
    let (claim, init, work) = (&claim, &init, &work);
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        for _ in 0..workers {
            let tx = tx.clone();
            scope.spawn(move || {
                let mut state = None;
                while let Some(index) = claim() {
                    let result = work(state.get_or_insert_with(init), index);
                    if tx.send((index, result)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        // Results arrive in completion order; hold each until every
        // lower index has merged.
        let mut pending = BTreeMap::new();
        let mut merged = 0;
        for (index, result) in rx {
            pending.insert(index, result);
            while let Some(result) = pending.remove(&merged) {
                merge(merged, result);
                merged += 1;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::Duration;

    /// Runs a campaign whose cases record which index ran, returning
    /// (indices run, indices merged in merge order, states built).
    fn trace(
        jobs: usize,
        cases: Option<u64>,
        deadline: Option<Instant>,
    ) -> (Vec<u64>, Vec<u64>, usize) {
        let ran = Mutex::new(Vec::new());
        let built = Mutex::new(0);
        let mut merged = Vec::new();
        run(
            jobs,
            cases,
            deadline,
            || *built.lock().unwrap() += 1,
            |(), index| {
                if deadline.is_some() {
                    std::thread::sleep(Duration::from_millis(2));
                }
                ran.lock().unwrap().push(index);
                index * 3
            },
            |index, result| {
                assert_eq!(result, index * 3, "result merged under its own index");
                merged.push(index);
            },
        );
        let mut ran = ran.into_inner().unwrap();
        ran.sort_unstable();
        (ran, merged, built.into_inner().unwrap())
    }

    #[test]
    fn every_index_runs_once_and_merges_in_order() {
        for jobs in 1..=4 {
            for cases in [0, 1, 3, 50] {
                let (ran, merged, built) = trace(jobs, Some(cases), None);
                let want: Vec<u64> = (0..cases).collect();
                assert_eq!(
                    ran, want,
                    "jobs {jobs}, cases {cases}: each index runs once"
                );
                assert_eq!(merged, want, "jobs {jobs}, cases {cases}: merge order");
                assert!(
                    built <= jobs.min(cases as usize),
                    "jobs {jobs}, cases {cases}: {built} states"
                );
            }
        }
    }

    #[test]
    fn deadline_yields_a_prefix() {
        for jobs in [1, 3] {
            let deadline = Instant::now() + Duration::from_millis(40);
            let (ran, merged, _) = trace(jobs, None, Some(deadline));
            assert!(
                !merged.is_empty(),
                "jobs {jobs}: nothing ran before the deadline"
            );
            let want: Vec<u64> = (0..merged.len() as u64).collect();
            assert_eq!(merged, want, "jobs {jobs}: merged indices form a prefix");
            assert_eq!(
                ran, want,
                "jobs {jobs}: every claimed index finished and merged"
            );
        }
        let past = Instant::now();
        assert_eq!(trace(2, Some(10), Some(past)).1, Vec::<u64>::new());
    }

    #[test]
    fn one_job_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let mut merged = 0;
        run(
            1,
            Some(4),
            None,
            || (),
            |(), _| std::thread::current().id(),
            |_, id| {
                assert_eq!(id, caller);
                merged += 1;
            },
        );
        assert_eq!(merged, 4);
    }
}
