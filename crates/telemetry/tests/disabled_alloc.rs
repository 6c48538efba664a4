//! Proves the disabled-tracing path is allocation-free.
//!
//! A counting global allocator wraps the system allocator; with tracing
//! off, entering and dropping spans (and probing the ambient parent) must
//! not allocate at all — the whole point of the relaxed-load early-out.
//!
//! Only allocations made on a thread that has opened a measuring window
//! (see [`count_allocations`]) are counted, so the test harness's other
//! threads, running other tests at the same time, cannot trip the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made on this thread while `COUNTING` is set.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Whether this thread is inside a measuring window.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Counts one allocation if the calling thread is measuring. `try_with`
/// keeps the allocator usable while thread-locals are being torn down.
fn note_allocation() {
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` on the calling thread and returns how many allocations it made
/// there.
fn count_allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn disabled_tracing_does_not_allocate() {
    telemetry::span::set_tracing(false);
    // Warm anything lazily initialised outside the measured window.
    {
        let _s = telemetry::span::Span::enter("warmup");
        let _g = telemetry::span::adopt_parent(telemetry::span::current_span());
    }
    let allocations = count_allocations(|| {
        for i in 0..10_000u64 {
            let s = telemetry::span::Span::enter("hot");
            let k = telemetry::span::Span::enter_keyed("hot_keyed", i);
            let g = telemetry::span::adopt_parent(telemetry::span::current_span());
            std::hint::black_box((s.id(), k.id()));
            drop(g);
        }
    });
    assert_eq!(
        allocations, 0,
        "disabled span path must not allocate (got {allocations} allocations over 10k iterations)"
    );
}

#[test]
fn disabled_stopwatch_does_not_allocate() {
    telemetry::set_enabled(false);
    let allocations = count_allocations(|| {
        for _ in 0..10_000 {
            let t = telemetry::start();
            std::hint::black_box(telemetry::elapsed_ns(t));
        }
    });
    assert_eq!(allocations, 0, "disabled stopwatch must not allocate");
}
