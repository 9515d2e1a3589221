//! A counting global allocator, in the benchmark only.
//!
//! Counting is off unless a traced run switches it on around its units,
//! so end-to-end runs pay one relaxed load per allocation and nothing
//! else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Pass-through to the system allocator that counts calls and bytes while
/// [`set_counting`] is on.
pub struct Counting;

// Statistics only: the counters publish no other data, so `Relaxed`.
static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note(size: usize) {
    if ON.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the
// returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`, as the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`, as the caller vouched for.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switch counting on or off.
pub fn set_counting(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Run `f` with counting off (harness work inside a counted unit: cloning
/// the inputs, the gates), then restore it.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let was_on = ON.swap(false, Ordering::Relaxed);
    let r = f();
    ON.store(was_on, Ordering::Relaxed);
    r
}

/// `(allocation calls, bytes requested)` counted so far. Reallocations
/// count as one call of their new size.
pub fn counted() -> (u64, u64) {
    (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

/// The switch is process-wide and tests run on parallel threads: a test
/// that flips it (directly, or through a unit or a set-up) holds this.
#[cfg(test)]
pub fn switch_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary installs `Counting` too (see main.rs), and other
    // tests' threads allocate, so while counting is on only lower bounds
    // hold.
    #[test]
    fn counting_allocator_counts_only_while_on() {
        let _switch = switch_lock();
        set_counting(true);
        let (c0, b0) = counted();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let boxed = Box::new([0u64; 32]);
        set_counting(false);
        let (c1, b1) = counted();
        let off: Vec<u8> = Vec::with_capacity(8192);
        std::hint::black_box((&v, &boxed, &off));
        assert!(c1 - c0 >= 2, "two allocations, saw {}", c1 - c0);
        assert!(b1 - b0 >= 4096 + 256, "saw {} bytes", b1 - b0);
        // Nobody else can switch counting on, so nothing moves while off.
        assert_eq!(counted(), (c1, b1));
    }
}
