//! LRU cache of decoded hierarchy arenas.
//!
//! Decoding a blob (parse artifact → decompress every level) dominates
//! request latency, so the server keeps recently served hierarchies decoded.
//! Entries are shared out as `Arc<DecodedEntry>` — workers stream from the
//! cache without copying cell data. Eviction is strict LRU by touch order,
//! bounded by an approximate byte budget. Evicted arenas whose `Arc` is no
//! longer shared are recycled into a level pool: the next decode of a
//! same-shaped hierarchy reuses the buffers via
//! `decompress_hierarchy_field_streamed` instead of reallocating.

use amrviz_amr::MultiFab;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One cached decode: everything a worker needs to stream a response.
#[derive(Debug)]
pub struct DecodedEntry {
    /// Compressor algorithm the blob was encoded with.
    pub algo: String,
    /// Field name from the artifact.
    pub field: String,
    /// Decoded cell data, one `MultiFab` per level (coarse → fine).
    pub levels: Vec<MultiFab>,
    /// Per-level count of fabs that were repaired from neighbor levels
    /// rather than decoded (`DecodePolicy::Degrade`). Nonzero ⇒ the
    /// response is flagged `FLAG_DEGRADED`.
    pub degraded_fabs: Vec<u32>,
}

impl DecodedEntry {
    /// Approximate resident bytes (cell data dominates).
    pub fn approx_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|mf| mf.num_cells() * std::mem::size_of::<f64>())
            .sum()
    }

    /// True when any fab on any level was repaired.
    pub fn is_degraded(&self) -> bool {
        self.degraded_fabs.iter().any(|&n| n > 0)
    }
}

struct Slot {
    recency: u64,
    bytes: usize,
    entry: Arc<DecodedEntry>,
}

struct CacheState {
    map: HashMap<u64, Slot>,
    tick: u64,
    bytes: usize,
    /// Evicted level vectors waiting to be reused as decode arenas.
    pool: Vec<Vec<MultiFab>>,
}

/// Thread-safe LRU keyed by blob content key.
pub struct ArenaCache {
    capacity_bytes: usize,
    state: Mutex<CacheState>,
}

impl ArenaCache {
    /// A cache bounded by `capacity_bytes` of decoded cell data.
    pub fn new(capacity_bytes: usize) -> ArenaCache {
        ArenaCache {
            capacity_bytes,
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                tick: 0,
                bytes: 0,
                pool: Vec::new(),
            }),
        }
    }

    /// Looks up `key`, refreshing its recency on hit.
    pub fn get(&self, key: u64) -> Option<Arc<DecodedEntry>> {
        let mut st = self.state.lock().unwrap();
        st.tick += 1;
        let tick = st.tick;
        st.map.get_mut(&key).map(|slot| {
            slot.recency = tick;
            Arc::clone(&slot.entry)
        })
    }

    /// Inserts a decoded entry, evicting least-recently-used entries until
    /// the byte budget holds. Returns the shared handle.
    pub fn insert(&self, key: u64, entry: DecodedEntry) -> Arc<DecodedEntry> {
        let bytes = entry.approx_bytes();
        let entry = Arc::new(entry);
        let mut st = self.state.lock().unwrap();
        st.tick += 1;
        let tick = st.tick;
        if let Some(old) = st.map.insert(
            key,
            Slot {
                recency: tick,
                bytes,
                entry: Arc::clone(&entry),
            },
        ) {
            st.bytes -= old.bytes;
            Self::recycle(&mut st.pool, old.entry);
        }
        st.bytes += bytes;
        while st.bytes > self.capacity_bytes && st.map.len() > 1 {
            let (&victim, _) = st
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.recency)
                .expect("nonempty map");
            // Never evict the entry we just inserted, even if oversized —
            // the caller is about to stream from it.
            if victim == key {
                break;
            }
            let slot = st.map.remove(&victim).expect("victim present");
            st.bytes -= slot.bytes;
            amrviz_obs::counter!("serve.cache_evicted", 1);
            Self::recycle(&mut st.pool, slot.entry);
        }
        entry
    }

    /// Hands out an evicted arena for reuse by
    /// `decompress_hierarchy_field_streamed` (empty when none are pooled).
    pub fn take_arena(&self) -> Vec<MultiFab> {
        self.state.lock().unwrap().pool.pop().unwrap_or_default()
    }

    /// `(entries, approx_bytes)` currently resident.
    pub fn stats(&self) -> (usize, usize) {
        let st = self.state.lock().unwrap();
        (st.map.len(), st.bytes)
    }

    fn recycle(pool: &mut Vec<Vec<MultiFab>>, entry: Arc<DecodedEntry>) {
        // Only reclaim buffers nobody is still streaming from.
        if let Ok(owned) = Arc::try_unwrap(entry) {
            if pool.len() < 4 {
                pool.push(owned.levels);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrviz_amr::{Box3, BoxArray, MultiFab};

    fn entry(cells: usize) -> DecodedEntry {
        let ba = BoxArray::single(Box3::from_dims(cells, 1, 1));
        DecodedEntry {
            algo: "szlr".into(),
            field: "density".into(),
            levels: vec![MultiFab::from_fn(&ba, |iv| iv[0] as f64)],
            degraded_fabs: vec![0],
        }
    }

    #[test]
    fn lru_evicts_oldest_and_recycles_arena() {
        // Capacity fits two 64-cell entries (512 B each), not three.
        let cache = ArenaCache::new(2 * 64 * 8);
        cache.insert(1, entry(64));
        cache.insert(2, entry(64));
        assert!(cache.get(1).is_some(), "refresh key 1");
        cache.insert(3, entry(64));
        // Key 2 was least recently used.
        assert!(cache.get(2).is_none());
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        let (n, bytes) = cache.stats();
        assert_eq!(n, 2);
        assert!(bytes <= 2 * 64 * 8);
        // The evicted entry's arena is available for reuse.
        let arena = cache.take_arena();
        assert_eq!(arena.len(), 1);
        assert_eq!(arena[0].num_cells(), 64);
        assert!(cache.take_arena().is_empty(), "pool drains");
    }

    #[test]
    fn shared_entries_are_not_recycled() {
        let cache = ArenaCache::new(64 * 8);
        let held = cache.insert(1, entry(64));
        cache.insert(2, entry(64)); // evicts 1, but `held` is still live
        assert!(cache.get(1).is_none());
        assert!(cache.take_arena().is_empty(), "live Arc must not be pooled");
        drop(held);
    }

    #[test]
    fn oversized_insert_still_serves() {
        let cache = ArenaCache::new(8); // absurdly small
        let e = cache.insert(7, entry(64));
        assert_eq!(e.levels.len(), 1);
        assert!(cache.get(7).is_some(), "just-inserted entry survives");
    }
}
