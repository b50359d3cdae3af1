//! A counting global allocator for allocation-budget tests, shared by path
//! (`#[path = ".../tests/support/counting_alloc.rs"] mod counting_alloc;`)
//! between `crates/mbt-core/tests/refresh_alloc.rs` and
//! `tests/alloc_gate.rs`. Including this file installs the allocator for
//! that test binary.
//!
//! Counts are per thread, so tests of one binary can run in parallel — each
//! measures only its own thread — and the outcome is the same under any
//! `--test-threads`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

// `const` initialisers over `Cell<u64>` need no lazy initialisation and no
// destructor, so touching them from inside the allocator never allocates.
thread_local! {
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
    static ALLOCATION_COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes` on the calling thread. `try_with`
/// because the allocator also runs while a thread's TLS is being set up or
/// torn down, where `with` would panic; those allocations go uncounted.
fn count(bytes: usize) {
    let _ = ALLOCATED_BYTES.try_with(|b| b.set(b.get() + bytes as u64));
    let _ = ALLOCATION_COUNT.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; `count` neither allocates nor
// panics (see above).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns (bytes, allocations, `f`'s value) for what the
/// calling thread allocated meanwhile.
pub fn allocation_of<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let bytes_before = ALLOCATED_BYTES.get();
    let count_before = ALLOCATION_COUNT.get();
    let out = f();
    (
        ALLOCATED_BYTES.get() - bytes_before,
        ALLOCATION_COUNT.get() - count_before,
        out,
    )
}
