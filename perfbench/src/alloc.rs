//! Counting global allocator with per-layer attribution.
//!
//! Every allocation made while counting is on is charged to the layer of the
//! innermost open benchmark span on the allocating thread (see
//! [`enter`]). The benchmark's own span storage runs under
//! [`Layer::Perfbench`], which is left out of every count, so recording a
//! trace does not inflate the program's figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// Where an allocation is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// No benchmark span is open (outside any measured run).
    None = 0,
    /// Inside a measured run but outside every timed call: the executor,
    /// timer wheel and spawned tasks (geo-agents, supervisor).
    Simrt = 1,
    /// Inside `Session::begin`, `Txn::execute_round` or `Txn::commit`,
    /// including the datasource, storage and net work beneath them.
    Middleware = 2,
    /// Inside a workload generator call.
    Workloads = 3,
    /// The benchmark's own bookkeeping (never counted).
    Perfbench = 4,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 5;

impl Layer {
    /// Metric label of the layer.
    pub fn label(self) -> &'static str {
        match self {
            Layer::None => "none",
            Layer::Simrt => "simrt",
            Layer::Middleware => "middleware",
            Layer::Workloads => "workloads",
            Layer::Perfbench => "perfbench",
        }
    }

    fn from_u8(v: u8) -> Layer {
        match v {
            1 => Layer::Simrt,
            2 => Layer::Middleware,
            3 => Layer::Workloads,
            4 => Layer::Perfbench,
            _ => Layer::None,
        }
    }
}

thread_local! {
    static CURRENT: Cell<u8> = const { Cell::new(Layer::None as u8) };
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNTS: [AtomicU64; LAYERS] = [const { AtomicU64::new(0) }; LAYERS];
static BYTES: [AtomicU64; LAYERS] = [const { AtomicU64::new(0) }; LAYERS];
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Open a span of `layer` on this thread; returns the layer to restore with
/// [`leave`] when the span closes.
pub fn enter(layer: Layer) -> Layer {
    CURRENT
        .try_with(|c| Layer::from_u8(c.replace(layer as u8)))
        .unwrap_or(Layer::None)
}

/// Close the innermost span, restoring `previous` (the value [`enter`]
/// returned).
pub fn leave(previous: Layer) {
    let _ = CURRENT.try_with(|c| c.set(previous as u8));
}

fn current() -> Layer {
    CURRENT
        .try_with(|c| Layer::from_u8(c.get()))
        .unwrap_or(Layer::None)
}

/// Counters of one counting window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// Allocations (including reallocations) per layer.
    pub count: [u64; LAYERS],
    /// Bytes requested per layer.
    pub bytes: [u64; LAYERS],
    /// Peak growth of live heap bytes over the window's start.
    pub live_peak: u64,
}

/// Reset every counter and start counting.
pub fn start() {
    for i in 0..LAYERS {
        COUNTS[i].store(0, Relaxed);
        BYTES[i].store(0, Relaxed);
    }
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ENABLED.store(true, Relaxed);
}

/// Stop counting and return the window's counters.
pub fn stop() -> AllocCounts {
    ENABLED.store(false, Relaxed);
    read()
}

/// The counters so far (counting stays on).
pub fn read() -> AllocCounts {
    let mut out = AllocCounts::default();
    for i in 0..LAYERS {
        out.count[i] = COUNTS[i].load(Relaxed);
        out.bytes[i] = BYTES[i].load(Relaxed);
    }
    out.live_peak = PEAK.load(Relaxed).max(0) as u64;
    out
}

fn on_alloc(size: usize) {
    if !ENABLED.load(Relaxed) {
        return;
    }
    let layer = current();
    if layer == Layer::Perfbench {
        return;
    }
    COUNTS[layer as usize].fetch_add(1, Relaxed);
    BYTES[layer as usize].fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK.fetch_max(live, Relaxed);
}

fn on_dealloc(size: usize) {
    if ENABLED.load(Relaxed) && current() != Layer::Perfbench {
        LIVE.fetch_sub(size as i64, Relaxed);
    }
}

/// The benchmark binary's global allocator: the system allocator plus the
/// counters above.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters only touch
// atomics and a const-initialised thread-local `Cell`, neither of which
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: forwarded with the caller's layout (see the impl comment).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: forwarded with the caller's layout (see the impl comment).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size());
        // SAFETY: `ptr` was allocated by `System` with `layout`, since every
        // allocation of this allocator is forwarded to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_dealloc(layout.size());
        on_alloc(new_size);
        // SAFETY: `ptr`/`layout` come from `System` (see `dealloc`), and the
        // caller guarantees `new_size` is valid for `layout`'s alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The counters are process-wide; tests that reset them run one at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn allocations_are_charged_to_the_innermost_open_span() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        start();
        let outer = enter(Layer::Workloads);
        let before = read();
        let a = std::hint::black_box(Box::new(7u64));
        let inner = enter(Layer::Middleware);
        let b = std::hint::black_box(Box::new([0u8; 32]));
        leave(inner);
        let c = std::hint::black_box(Box::new(9u32));
        let after = read();
        leave(outer);
        let delta = |l: Layer| after.count[l as usize] - before.count[l as usize];
        let bytes = |l: Layer| after.bytes[l as usize] - before.bytes[l as usize];
        assert_eq!(delta(Layer::Middleware), 1, "the nested span owns its Box");
        assert_eq!(bytes(Layer::Middleware), 32);
        assert_eq!(
            delta(Layer::Workloads),
            2,
            "the outer span owns the other two"
        );
        assert_eq!(bytes(Layer::Workloads), 12);
        assert_eq!(
            current(),
            Layer::None,
            "closing both spans restores the default"
        );
        drop((a, b, c));
    }

    #[test]
    fn benchmark_bookkeeping_is_not_counted() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        start();
        let outer = enter(Layer::Perfbench);
        let before = read();
        let v = std::hint::black_box(vec![1u8; 64]);
        let after = read();
        leave(outer);
        assert_eq!(before.count, after.count);
        drop(v);
    }
}
