//! Heap accounting for the benchmark binary: a counting global
//! allocator, a sampler of live heap bytes and a peak-RSS reader.
//!
//! The library crates forbid `unsafe`, so the allocator lives here, as
//! in the `experiments` binary. Counters sit in cache-line-sized shards,
//! one per thread (round-robin beyond [`SHARDS`] threads), so counting
//! does not make sweep workers contend on one cache line: with a single
//! shared counter, fleet rounds ran a fifth slower. Process totals are
//! sums over the shards. The per-thread totals let a traced world
//! attribute its construction allocations to itself while other sweep
//! workers allocate concurrently.
//!
//! The end-to-end memory metric is the peak of live heap bytes, sampled
//! by [`HeapSampler`]: the RSS high-water mark also depends on when the
//! system allocator hands freed pages back, which with several threads
//! differs between runs of the same inputs by a quarter or more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

struct CountingAlloc;

/// Counter shards; a thread keeps the one it was first assigned.
const SHARDS: usize = 32;

#[repr(align(64))]
struct Shard {
    allocs: AtomicU64,
    bytes: AtomicU64,
    /// Bytes allocated minus bytes freed through this shard. A block
    /// freed on another thread than the one that allocated it moves
    /// bytes between shards, so one shard can go negative; the sum is
    /// exact.
    live: AtomicI64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Shard =
    Shard { allocs: AtomicU64::new(0), bytes: AtomicU64::new(0), live: AtomicI64::new(0) };
static SHARD: [Shard; SHARDS] = [EMPTY; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialized and without `Drop`, so touching them from inside
    // the allocator never allocates or registers a destructor.
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn shard() -> &'static Shard {
    let i = MY_SHARD
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
            }
            s.get()
        })
        .unwrap_or(0);
    &SHARD[i]
}

// Relaxed throughout: pure statistics that publish no other data.
fn allocated(bytes: usize) {
    let s = shard();
    s.allocs.fetch_add(1, Ordering::Relaxed);
    s.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    s.live.fetch_add(bytes as i64, Ordering::Relaxed);
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

fn freed(bytes: usize) {
    shard().live.fetch_sub(bytes as i64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System` upholds the `GlobalAlloc` contract; the
// counting around it touches only atomics and const thread-locals,
// which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` comes from the caller, who guarantees it has
        // non-zero size as `GlobalAlloc::alloc` requires.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            allocated(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        freed(layout.size());
        // SAFETY: the caller guarantees `ptr` was allocated by this
        // allocator (hence by `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // block from this allocator and that `new_size` is valid for it.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            allocated(new_size);
            freed(layout.size());
        }
        new
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations and requested bytes, process-wide or for one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// Allocation and reallocation calls.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl AllocCount {
    /// The counts accumulated since `earlier`.
    pub fn since(self, earlier: AllocCount) -> AllocCount {
        AllocCount { allocs: self.allocs - earlier.allocs, bytes: self.bytes - earlier.bytes }
    }
}

/// Process-wide totals so far.
pub fn process() -> AllocCount {
    SHARD.iter().fold(AllocCount::default(), |acc, s| AllocCount {
        allocs: acc.allocs + s.allocs.load(Ordering::Relaxed),
        bytes: acc.bytes + s.bytes.load(Ordering::Relaxed),
    })
}

/// The calling thread's totals so far.
pub fn thread() -> AllocCount {
    AllocCount { allocs: THREAD_ALLOCS.with(Cell::get), bytes: THREAD_BYTES.with(Cell::get) }
}

/// Live heap bytes right now.
pub fn live_bytes() -> u64 {
    SHARD.iter().map(|s| s.live.load(Ordering::Relaxed)).sum::<i64>().max(0) as u64
}

/// How often [`HeapSampler`] reads the live heap.
const SAMPLE_EVERY: Duration = Duration::from_millis(10);

/// A thread that samples [`live_bytes`] and keeps the maximum.
pub struct HeapSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<u64>,
}

impl HeapSampler {
    /// Start sampling.
    pub fn start() -> HeapSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = live_bytes();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(SAMPLE_EVERY);
                peak = peak.max(live_bytes());
            }
            peak
        });
        HeapSampler { stop, handle }
    }

    /// Stop, wait for the thread and return the peak in MiB.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        let peak = self.handle.join().expect("the heap sampler does not panic");
        peak.max(live_bytes()) as f64 / (1024.0 * 1024.0)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_and_process_counts_see_an_allocation() {
        let (t0, p0) = (thread(), process());
        let v: Vec<u8> = Vec::with_capacity(4096);
        std::hint::black_box(&v);
        let (t, p) = (thread().since(t0), process().since(p0));
        assert!(t.allocs >= 1 && t.bytes >= 4096, "{t:?}");
        assert!(p.allocs >= 1 && p.bytes >= 4096, "{p:?}");
    }

    #[test]
    fn sampler_sees_a_held_block() {
        let sampler = HeapSampler::start();
        let v: Vec<u8> = vec![1; 8 << 20];
        std::thread::sleep(SAMPLE_EVERY * 20);
        drop(v);
        assert!(sampler.finish() >= 8.0);
    }

    #[test]
    fn peak_rss_is_readable_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        }
    }
}
