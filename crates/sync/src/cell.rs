//! [`PlainCell`]: deliberately non-atomic shared state, the probe the
//! race detector checks.
//!
//! A `PlainCell<T>` is an `UnsafeCell` with `get`/`set` (and, for a
//! value that is not `Copy`, `put`/`take`) on `&self` and a `Sync` impl —
//! exactly the shape of a field that concurrent code shares *believing*
//! some protocol orders every access. The morsel scheduler's result slots
//! are such fields: one worker writes each, the caller reads it after the
//! join. In a `model`
//! run every access is clock-checked: an unordered conflicting pair is
//! reported as a data race with a schedule trace. Model tests use it
//! two ways: as the payload whose safety a protocol (release/acquire
//! publication, morsel ownership) is supposed to guarantee — the detector must stay
//! silent on every schedule — and as a deliberately racy fixture the
//! detector must flag (the true-positive gate).

use std::cell::UnsafeCell;

#[derive(Default)]
pub struct PlainCell<T> {
    inner: UnsafeCell<T>,
}

// PlainCell models non-atomic shared memory. Concurrent unordered
// access is a bug by construction; the `model` feature's vector-clock
// detector exists to prove such access cannot happen on any explored
// schedule. Code using PlainCell outside a model test must order every
// access through amnesia-sync primitives, which is exactly the property
// the model suite verifies.
// SAFETY: upheld by the model-verified ordering argument above.
unsafe impl<T: Send> Sync for PlainCell<T> {}

impl<T> PlainCell<T> {
    pub const fn new(v: T) -> Self {
        Self {
            inner: UnsafeCell::new(v),
        }
    }

    /// Replace the value, dropping the old one: a write.
    pub fn put(&self, v: T) {
        #[cfg(feature = "model")]
        if let Some(c) = crate::ctx::current() {
            c.sched.cell_write(c.tid, self as *const Self as usize);
        }
        // SAFETY: as in `set`.
        unsafe {
            *self.inner.get() = v;
        }
    }

    /// Move the value out, leaving the default: a write.
    pub fn take(&self) -> T
    where
        T: Default,
    {
        #[cfg(feature = "model")]
        if let Some(c) = crate::ctx::current() {
            c.sched.cell_write(c.tid, self as *const Self as usize);
        }
        // SAFETY: as in `set`.
        unsafe { std::mem::take(&mut *self.inner.get()) }
    }
}

impl<T: Copy> PlainCell<T> {
    pub fn get(&self) -> T {
        #[cfg(feature = "model")]
        if let Some(c) = crate::ctx::current() {
            c.sched.cell_read(c.tid, self as *const Self as usize);
        }
        // SAFETY: reads are ordered relative to all writes either by
        // the serialized model scheduler (which race-checks first) or
        // by externally verified synchronization (see type docs).
        unsafe { *self.inner.get() }
    }

    pub fn set(&self, v: T) {
        #[cfg(feature = "model")]
        if let Some(c) = crate::ctx::current() {
            c.sched.cell_write(c.tid, self as *const Self as usize);
        }
        // SAFETY: as in `get`: the access is race-checked under the
        // model, and externally synchronized on verified paths.
        unsafe {
            *self.inner.get() = v;
        }
    }
}

#[cfg(feature = "model")]
impl<T> Drop for PlainCell<T> {
    fn drop(&mut self) {
        // Retire the location so address reuse starts with fresh clocks.
        if let Some(c) = crate::ctx::current() {
            c.sched.forget_cell(self as *const Self as usize);
        }
    }
}
