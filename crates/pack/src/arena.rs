//! Thread-local pack-buffer arena.
//!
//! Every `execute()` needs scratch for packed panels. Allocating (and
//! first-touch zero-filling) that scratch per call would dominate the
//! dispatch cost of small problems — exactly the overhead the paper's
//! amortized run-time stage is built to avoid. The arena keeps returned
//! [`PackBuffer`] storage in a small per-thread pool so that, after one
//! warmup call per thread, repeated executes are malloc-free: a lease pops
//! the largest warm buffer (its initialized prefix is reused without
//! re-zeroing), and dropping the lease pushes the storage back.
//!
//! Thread-locality makes the pool lock-free and keeps each worker's
//! packing working set in its own L1, matching the parallel executor's
//! one-superblock-per-task partitioning. The pool is keyed by scalar type
//! (`f32`/`f64` for the four BLAS precisions) through `TypeId`, so one
//! fully safe implementation serves every element type. The pooled storage
//! is [`AlignedVec`], so a leased buffer starts on a 64-byte cache line.

use crate::PackBuffer;
use iatf_layout::AlignedVec;
use iatf_simd::Real;
use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;

/// Warm buffers kept per scalar type per thread; beyond this, returned
/// storage is simply freed. Serial executes use one buffer; nested or
/// re-entrant use (plans executing from multiple scopes on one thread)
/// stays within a handful.
const POOL_CAP: usize = 8;

thread_local! {
    static POOLS: RefCell<HashMap<TypeId, Vec<Box<dyn Any>>>> =
        RefCell::new(HashMap::new());
}

/// Exclusive lease on a pooled [`PackBuffer`]; returns the storage to the
/// current thread's pool on drop.
#[derive(Debug)]
pub struct ArenaLease<R: Real> {
    buf: PackBuffer<R>,
}

impl<R: Real> ArenaLease<R> {
    /// The leased buffer.
    pub fn buffer(&mut self) -> &mut PackBuffer<R> {
        &mut self.buf
    }
}

impl<R: Real> Drop for ArenaLease<R> {
    fn drop(&mut self) {
        let storage = core::mem::take(&mut self.buf).into_vec();
        if storage.is_empty() {
            return;
        }
        POOLS.with(|pools| {
            let mut pools = pools.borrow_mut();
            let pool = pools.entry(TypeId::of::<R>()).or_default();
            if pool.len() < POOL_CAP {
                pool.push(Box::new(storage));
            }
        });
    }
}

/// Takes a buffer from the current thread's pool (the one with the most
/// initialized storage), or a fresh empty buffer when the pool is cold.
pub fn lease<R: Real>() -> ArenaLease<R> {
    let storage: AlignedVec<R> = POOLS.with(|pools| {
        let mut pools = pools.borrow_mut();
        let pool = pools.entry(TypeId::of::<R>()).or_default();
        // largest first: one warm buffer serves every panel size seen so far
        let best = (0..pool.len()).max_by_key(|&i| {
            pool[i]
                .downcast_ref::<AlignedVec<R>>()
                .map_or(0, |v| v.len())
        });
        best.map(|i| {
            *pool
                .swap_remove(i)
                .downcast::<AlignedVec<R>>()
                .expect("arena pool entries are keyed by TypeId")
        })
        .unwrap_or_default()
    });
    iatf_obs::count_arena_lease(storage.len() * core::mem::size_of::<R>());
    ArenaLease {
        buf: PackBuffer::from_vec(storage),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_recycles_storage_per_thread() {
        // drain any warm buffers so the test starts cold
        POOLS.with(|p| p.borrow_mut().remove(&TypeId::of::<f64>()));
        {
            let mut l = lease::<f64>();
            let s = l.buffer().get_mut(100);
            s[99] = 7.0;
        }
        // the warm buffer comes back with its contents intact (no refill)
        let mut l = lease::<f64>();
        assert_eq!(l.buffer().len(), 100);
        assert_eq!(l.buffer().get(100)[99], 7.0);
    }

    #[test]
    fn largest_buffer_is_preferred() {
        POOLS.with(|p| p.borrow_mut().remove(&TypeId::of::<f32>()));
        {
            let mut small = lease::<f32>();
            small.buffer().reserve(10);
            let mut big = lease::<f32>();
            big.buffer().reserve(1000);
        }
        let mut l = lease::<f32>();
        assert_eq!(l.buffer().len(), 1000);
    }

    #[test]
    fn precisions_do_not_mix() {
        POOLS.with(|p| {
            let mut p = p.borrow_mut();
            p.remove(&TypeId::of::<f32>());
            p.remove(&TypeId::of::<f64>());
        });
        {
            let mut l = lease::<f64>();
            l.buffer().reserve(64);
        }
        let mut l = lease::<f32>();
        assert_eq!(l.buffer().len(), 0);
    }

    #[test]
    fn pool_is_bounded() {
        POOLS.with(|p| p.borrow_mut().remove(&TypeId::of::<f64>()));
        let leases: Vec<_> = (0..POOL_CAP + 5)
            .map(|_| {
                let mut l = lease::<f64>();
                l.buffer().reserve(8);
                l
            })
            .collect();
        drop(leases);
        let pooled = POOLS.with(|p| {
            p.borrow()
                .get(&TypeId::of::<f64>())
                .map_or(0, |v| v.len())
        });
        assert_eq!(pooled, POOL_CAP);
    }
}
