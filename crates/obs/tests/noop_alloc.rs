//! The uninstalled ("no-op") hot path must not allocate.
//!
//! A counting global allocator wraps the system one; with no recorder
//! installed, driving every macro through its fast path must leave the
//! allocation counter untouched. The counter is per thread, so a test
//! counts only its own allocations while the harness runs its siblings
//! (and itself) on other threads. This test binary must never install a
//! recorder, so it lives alone in its own integration-test crate —
//! don't add recorder-installing tests here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread tearing down its locals may still free
        // and allocate; those allocations are not a test's to count
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn uninstalled_macros_do_not_allocate() {
    assert!(rtcg_obs::recorder().is_none(), "test requires no recorder");
    // warm anything lazily initialized (the epoch Instant) outside the
    // measured window
    let _ = rtcg_obs::epoch();

    let before = allocations();
    for i in 0..10_000u64 {
        rtcg_obs::counter!("alloc.test.counter");
        rtcg_obs::counter!("alloc.test.counter", i & 3);
        rtcg_obs::gauge!("alloc.test.gauge", i as i64);
        rtcg_obs::histogram!("alloc.test.hist", i);
        rtcg_obs::event!("alloc.test.event", "test", i);
        let _span = rtcg_obs::span!("alloc.test.span", "test");
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "no-op instrumentation path allocated {} time(s)",
        after - before
    );
}

#[test]
fn uninstalled_span_records_no_time() {
    // Span with no recorder holds no Instant: dropping it is free and
    // must not allocate either
    let before = allocations();
    for _ in 0..1000 {
        let s = rtcg_obs::Span::begin("alloc.test.direct", "test");
        drop(s);
    }
    let after = allocations();
    assert_eq!(after - before, 0);
}
