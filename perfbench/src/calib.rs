//! The reference kernel: a fixed piece of work, independent of the
//! program, that the drive times between its pace intervals to see how fast
//! the host runs at that moment.
//!
//! On a shared host the simulator's wall speed drifts by tens of percent
//! over minutes with the other tenants' load (cache, memory bandwidth and
//! sibling cores, not lost scheduling: the thread's CPU time tracks its
//! wall time). Commits per wall second times the wall time of one kernel
//! pass beside them is the number of commits the program makes in the time
//! the host takes for one pass. Host drift moves both factors the other way
//! and cancels; a change to the program moves only the first. The kernel
//! does what the simulator does most — hash probes into a table far beyond
//! the L2 cache, ordered-map updates and small allocations of mixed sizes —
//! and uses nothing of the program, so no change to the program moves it.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Entries of the probed table (about 34 MB resident).
const ENTRIES: u64 = 1 << 20;
/// Rounds of one pass (about 3 ms on a 2 GHz x86-64 core).
const ROUNDS: u64 = 1_500;
/// Hash probes per round.
const PROBES: u64 = 6;

/// A fixed-seed hasher, so every process builds the same table layout.
type FixedState = BuildHasherDefault<DefaultHasher>;

/// The process's kernel, built on first use.
pub fn reference() -> &'static Reference {
    static REFERENCE: OnceLock<Reference> = OnceLock::new();
    REFERENCE.get_or_init(Reference::new)
}

/// The kernel and its table.
pub struct Reference {
    table: HashMap<u64, u64, FixedState>,
}

/// SplitMix64 finalizer: the table's key of entry `i`.
fn key(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Reference {
    fn new() -> Reference {
        let mut table = HashMap::with_capacity_and_hasher(ENTRIES as usize, FixedState::default());
        for i in 0..ENTRIES {
            table.insert(key(i), i);
        }
        Reference { table }
    }

    /// Run one pass; returns its wall time.
    pub fn pass(&self) -> Duration {
        let started = Instant::now();
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut acc = 0u64;
        let mut tree = BTreeMap::new();
        let mut buffers: Vec<Vec<u8>> = Vec::with_capacity(32);
        for round in 0..ROUNDS {
            for _ in 0..PROBES {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc.wrapping_add(self.table[&key(x % ENTRIES)]);
            }
            tree.insert(x % 512, round);
            if let Some((_, v)) = tree.range(acc % 512..).next() {
                acc ^= v;
            }
            buffers.push(vec![round as u8; 16 + (x % 200) as usize]);
            if buffers.len() == 32 {
                acc = acc.wrapping_add(buffers.iter().map(|b| b.len() as u64).sum::<u64>());
                buffers.clear();
            }
        }
        std::hint::black_box(acc);
        started.elapsed()
    }
}
