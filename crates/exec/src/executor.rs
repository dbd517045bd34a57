//! The pluggable parallel executor: sequential or pooled fork-join.
//!
//! Every parallel consumer in the workspace — the semi-naive Datalog
//! rounds, the k-MCS candidate fan-out, the server's request evaluation —
//! takes an [`Executor`] and stays agnostic about where (or whether)
//! threads exist. [`Executor::Sequential`] runs everything inline with
//! zero overhead; [`Executor::Pooled`] fans out over a shared
//! work-stealing [`ThreadPool`] from `magik-runtime`.
//!
//! Tasks must be `'static` (the pool has no scoped API in safe code), so
//! callers ship shared state in `Arc`s — the relalg
//! [`Snapshot`](magik_relalg::Snapshot) exists precisely to make that
//! cheap.

use std::sync::Arc;

pub use magik_runtime::{available_parallelism, partition, PoolCounters, ThreadPool};

/// A pluggable fork-join executor.
#[derive(Debug, Clone, Default)]
pub enum Executor {
    /// Run every task inline on the calling thread.
    #[default]
    Sequential,
    /// Fan tasks out over a shared work-stealing pool. Cloning shares the
    /// pool (and its counters).
    Pooled(Arc<ThreadPool>),
}

impl Executor {
    /// An executor with `threads` workers: [`Executor::Sequential`] when
    /// `threads <= 1`, a fresh pooled executor otherwise.
    pub fn with_threads(threads: usize) -> Executor {
        if threads <= 1 {
            Executor::Sequential
        } else {
            Executor::Pooled(Arc::new(ThreadPool::new(threads)))
        }
    }

    /// The degree of parallelism: 1 for sequential, the pool size
    /// otherwise.
    pub fn threads(&self) -> usize {
        match self {
            Executor::Sequential => 1,
            Executor::Pooled(pool) => pool.threads(),
        }
    }

    /// The underlying pool's counters (all zero for sequential).
    pub fn counters(&self) -> PoolCounters {
        match self {
            Executor::Sequential => PoolCounters::default(),
            Executor::Pooled(pool) => pool.counters(),
        }
    }

    /// Applies `f` to every item, returning results **in input order**.
    ///
    /// Sequentially — and for batches of zero or one item on any
    /// executor, where there is nothing to fan out — this is a plain loop
    /// on the calling thread; otherwise it is a fork-join on the shared
    /// pool (the calling thread assists while waiting, so nesting is
    /// safe). Results are deterministic in *order* either way; callers
    /// needing deterministic *content* must keep `f` free of cross-task
    /// effects.
    ///
    /// Callers therefore only cut their work into items: whether it fans
    /// out is decided here.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        match self {
            Executor::Pooled(pool) if items.len() > 1 => pool.run_map(items, f),
            _ => items.into_iter().map(f).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_pooled_agree() {
        let items: Vec<u32> = (0..100).collect();
        let seq = Executor::Sequential.map(items.clone(), |x| x * x);
        let par = Executor::with_threads(4).map(items, |x| x * x);
        assert_eq!(seq, par);
    }

    #[test]
    fn with_threads_one_is_sequential() {
        assert!(matches!(Executor::with_threads(1), Executor::Sequential));
        assert_eq!(Executor::with_threads(1).threads(), 1);
        assert_eq!(Executor::with_threads(4).threads(), 4);
    }

    #[test]
    fn pooled_counters_accumulate() {
        let ex = Executor::with_threads(2);
        ex.map((0..10u32).collect(), |x| x);
        assert!(ex.counters().tasks >= 10);
        assert_eq!(Executor::Sequential.counters(), PoolCounters::default());
    }

    #[test]
    fn pooled_map_runs_single_items_inline() {
        let ex = Executor::with_threads(2);
        assert_eq!(ex.map(vec![1u32], |x| x + 1), vec![2]);
        assert_eq!(ex.map(Vec::<u32>::new(), |x| x + 1), Vec::<u32>::new());
        assert_eq!(ex.counters().tasks, 0);
    }
}
