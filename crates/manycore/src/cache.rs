//! Set-associative caches and a MESI-lite directory — the detailed memory
//! subsystem of Table I (16 KB 2-way L1D with 32 B lines, 32 KB 2-way L1I,
//! 64 KB shared-L2 slice per node with 64 B lines under a MESI protocol).
//!
//! The default system model drives NoC traffic from per-benchmark access
//! *rates* (fast, calibration-friendly). Enabling
//! [`crate::SystemConfig::detailed_caches`] replaces the rate model with
//! these structures: tiles run synthetic address streams through a real L1,
//! L1 misses travel the NoC to the line's home L2 slice, the home consults
//! its tag store and directory, write misses invalidate remote sharers, and
//! L2 misses pay the 200-cycle memory latency. Every structure here is
//! deterministic and unit-tested in isolation.

use std::hash::Hasher;

use htpb_noc::FnvHasher;

/// Geometry of one cache (sizes in Table I are per structure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: usize,
}

impl CacheConfig {
    /// Table I: private L1 data cache — 16 KB, two-way, 32 B lines.
    #[must_use]
    pub fn l1_data() -> Self {
        CacheConfig {
            sets: 16 * 1024 / (2 * 32),
            ways: 2,
            line_bytes: 32,
        }
    }

    /// Table I: private L1 instruction cache — 32 KB, two-way, 64 B lines.
    #[must_use]
    pub fn l1_instr() -> Self {
        CacheConfig {
            sets: 32 * 1024 / (2 * 64),
            ways: 2,
            line_bytes: 64,
        }
    }

    /// Table I: shared L2 slice — 64 KB per node, 64 B lines (we model it
    /// four-way, a common choice the paper leaves unspecified).
    #[must_use]
    pub fn l2_slice() -> Self {
        CacheConfig {
            sets: 64 * 1024 / (4 * 64),
            ways: 4,
            line_bytes: 64,
        }
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * self.line_bytes
    }
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the line was present.
    pub hit: bool,
    /// The line (tag-aligned address) evicted to make room, if any.
    pub evicted: Option<u64>,
}

/// A set-associative cache tag store with true-LRU replacement.
///
/// Only tags are modelled (the simulator never needs data values); an
/// access allocates on miss and returns the victim line so the caller can
/// write back / invalidate directory state.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// `tags[set * ways + way]` — line address or `u64::MAX` for invalid.
    tags: Vec<u64>,
    /// LRU stamps, larger = more recent.
    stamps: Vec<u64>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets/ways or a
    /// non-power-of-two line size).
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.sets > 0 && config.ways > 0);
        assert!(config.line_bytes.is_power_of_two());
        SetAssocCache {
            config,
            tags: vec![u64::MAX; config.sets * config.ways],
            stamps: vec![0; config.sets * config.ways],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.config.line_bytes as u64 - 1)
    }

    fn set_of(&self, line: u64) -> usize {
        ((line / self.config.line_bytes as u64) % self.config.sets as u64) as usize
    }

    /// Accesses `addr`, allocating its line on a miss.
    pub fn access(&mut self, addr: u64) -> AccessResult {
        self.clock += 1;
        let line = self.line_addr(addr);
        let set = self.set_of(line);
        let base = set * self.config.ways;
        // Hit?
        for way in 0..self.config.ways {
            if self.tags[base + way] == line {
                self.stamps[base + way] = self.clock;
                self.hits += 1;
                return AccessResult {
                    hit: true,
                    evicted: None,
                };
            }
        }
        self.misses += 1;
        // Miss: pick invalid way, else LRU.
        let victim_way = (0..self.config.ways)
            .find(|w| self.tags[base + w] == u64::MAX)
            .unwrap_or_else(|| {
                (0..self.config.ways)
                    .min_by_key(|w| self.stamps[base + w])
                    .expect("ways > 0")
            });
        let evicted =
            (self.tags[base + victim_way] != u64::MAX).then_some(self.tags[base + victim_way]);
        self.tags[base + victim_way] = line;
        self.stamps[base + victim_way] = self.clock;
        AccessResult {
            hit: false,
            evicted,
        }
    }

    /// Removes a line if present (directory-initiated invalidation).
    /// Returns whether it was present.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let line = self.line_addr(addr);
        let set = self.set_of(line);
        let base = set * self.config.ways;
        for way in 0..self.config.ways {
            if self.tags[base + way] == line {
                self.tags[base + way] = u64::MAX;
                return true;
            }
        }
        false
    }

    /// Whether a line is currently cached, without touching LRU state.
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let line = self.line_addr(addr);
        let set = self.set_of(line);
        let base = set * self.config.ways;
        (0..self.config.ways).any(|w| self.tags[base + w] == line)
    }

    /// Lifetime hit count.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate so far (0.0 when unused).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// MESI-lite line state kept by the home directory. We fold E into M
/// (silent E→M upgrades are invisible to the interconnect, which is all we
/// model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Not tracked by the directory.
    Invalid,
    /// One or more read-only sharers.
    Shared,
    /// A single owner holds the line writable.
    Modified,
}

/// Directory entry for one line.
#[derive(Debug, Clone)]
struct DirEntry {
    line: u64,
    state: LineState,
    /// Head of this line's sharer chain in [`Directory::pool`], ascending
    /// by core id ([`NIL`] when empty).
    sharers: u32,
}

/// One sharer of one line: a node of a singly linked, ascending chain.
#[derive(Debug, Clone, Copy)]
struct Sharer {
    core: u16,
    next: u32,
}

const NIL: u32 = u32::MAX;

/// What the directory asks the protocol to do in response to a request.
/// Borrows the directory's reusable invalidation list, so answering a
/// request allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectoryAction<'a> {
    /// Cores whose copies must be invalidated before the request completes
    /// (each costs one Meta packet on the NoC), ascending by core id.
    pub invalidate: &'a [u16],
    /// Whether the line was already tracked (a directory "hit"; an
    /// untracked line must be fetched from memory by the caller's L2).
    pub was_tracked: bool,
}

/// A per-home-node MESI-lite directory over an open-addressed line table.
///
/// The table is bounded; when full, the least-recently-allocated entry is
/// evicted (its sharers are returned for invalidation), modelling a sparse
/// directory's capacity pressure.
///
/// * **Lookup** is an FNV-1a-indexed, linearly probed table of entry
///   numbers (`index`), kept at most half full; it starts at 16 buckets
///   and doubles as lines are tracked. Probe order never reaches an
///   output: a line is in the table once, and lookups are by equality.
/// * **Eviction** is a FIFO ring: entries are never removed except by
///   eviction, so `entries` grows up to `capacity`, after which `oldest`
///   names the next victim and the newcomer takes its place.
/// * **Sharer sets** are ascending chains threaded through one pooled `Vec`
///   with a free list — the iteration order of the `BTreeSet` they
///   replace, with no per-line heap node.
///
/// All three grow by amortised doubling and never shrink, so a directory
/// that has reached `capacity` lines (or its workload's footprint) answers
/// `read` and `write` without allocating. Nothing is reserved up front: 256
/// homes × 4 096 lines of address space that is rebuilt per simulated chip
/// ends up resident, measured at +8 MB on the paper-scale detailed run.
#[derive(Debug, Clone)]
pub struct Directory {
    entries: Vec<DirEntry>,
    /// Index in `entries` of the least-recently-allocated line (meaningful
    /// once `entries.len() == capacity`).
    oldest: usize,
    capacity: usize,
    /// Open-addressed line table: bucket = entry number + 1, 0 = empty;
    /// power-of-two length, at least twice `entries.len()`.
    index: Vec<u32>,
    pool: Vec<Sharer>,
    pool_free: u32,
    /// Reusable invalidation list handed out through [`DirectoryAction`].
    invalidate: Vec<u16>,
}

/// Buckets the line table starts with.
const MIN_BUCKETS: usize = 16;

/// Invalidations one request can order before the reusable list has to
/// grow. Reserved up front (128 bytes) because, unlike the line pools, this
/// list would otherwise see its first growth at an arbitrary late cycle in
/// each of the chip's homes.
const INVALIDATIONS_RESERVED: usize = 64;

impl Directory {
    /// Creates a directory tracking at most `capacity` lines.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Directory {
            entries: Vec::new(),
            oldest: 0,
            capacity,
            index: vec![0; MIN_BUCKETS],
            pool: Vec::new(),
            pool_free: NIL,
            invalidate: Vec::with_capacity(INVALIDATIONS_RESERVED),
        }
    }

    /// Home bucket of `line`: FNV-1a over its eight bytes.
    fn home_bucket(&self, line: u64) -> usize {
        let mut hasher = FnvHasher::default();
        hasher.write_u64(line);
        hasher.finish() as usize & (self.index.len() - 1)
    }

    fn find(&self, line: u64) -> Option<usize> {
        let mask = self.index.len() - 1;
        let mut b = self.home_bucket(line);
        loop {
            let i = (self.index[b] as usize).checked_sub(1)?;
            if self.entries[i].line == line {
                return Some(i);
            }
            b = (b + 1) & mask;
        }
    }

    /// Enters `entries[i]` (not yet in the table) into the line table.
    fn index_insert(&mut self, i: usize) {
        let mask = self.index.len() - 1;
        let mut b = self.home_bucket(self.entries[i].line);
        while self.index[b] != 0 {
            b = (b + 1) & mask;
        }
        self.index[b] = i as u32 + 1;
    }

    /// Takes `entries[i]` out of the line table, closing the gap by
    /// backward shift so every remaining line stays reachable from its
    /// home bucket without tombstones.
    fn index_remove(&mut self, i: usize) {
        let mask = self.index.len() - 1;
        let mut hole = self.home_bucket(self.entries[i].line);
        while self.index[hole] != i as u32 + 1 {
            hole = (hole + 1) & mask;
        }
        let mut b = hole;
        loop {
            b = (b + 1) & mask;
            let Some(j) = (self.index[b] as usize).checked_sub(1) else {
                break;
            };
            // `j` may move into the hole iff the hole lies on its probe
            // path, i.e. cyclically within [home, b).
            let home = self.home_bucket(self.entries[j].line);
            if (b.wrapping_sub(home) & mask) >= (b.wrapping_sub(hole) & mask) {
                self.index[hole] = self.index[b];
                hole = b;
            }
        }
        self.index[hole] = 0;
    }

    /// Doubles the line table and re-enters every tracked line.
    fn index_grow(&mut self) {
        self.index = vec![0; self.index.len() * 2];
        for i in 0..self.entries.len() {
            self.index_insert(i);
        }
    }

    fn new_sharer(&mut self, core: u16, next: u32) -> u32 {
        if self.pool_free == NIL {
            self.pool.push(Sharer { core, next });
            return (self.pool.len() - 1) as u32;
        }
        let node = self.pool_free;
        self.pool_free = self.pool[node as usize].next;
        self.pool[node as usize] = Sharer { core, next };
        node
    }

    /// Moves every sharer of entry `i` except `keep` onto the invalidation
    /// list (ascending) and frees the whole chain.
    fn drain_sharers(&mut self, i: usize, keep: Option<u16>) {
        let mut node = std::mem::replace(&mut self.entries[i].sharers, NIL);
        while node != NIL {
            let Sharer { core, next } = self.pool[node as usize];
            if keep != Some(core) {
                self.invalidate.push(core);
            }
            self.pool[node as usize].next = self.pool_free;
            self.pool_free = node;
            node = next;
        }
    }

    /// Adds `core` to entry `i`'s ascending sharer chain (no-op if present).
    fn add_sharer(&mut self, i: usize, core: u16) {
        let mut prev = NIL;
        let mut node = self.entries[i].sharers;
        while node != NIL && self.pool[node as usize].core < core {
            prev = node;
            node = self.pool[node as usize].next;
        }
        if node != NIL && self.pool[node as usize].core == core {
            return;
        }
        let fresh = self.new_sharer(core, node);
        if prev == NIL {
            self.entries[i].sharers = fresh;
        } else {
            self.pool[prev as usize].next = fresh;
        }
    }

    /// Handles a read request from `core`: the core becomes a sharer; a
    /// modified owner (other than the reader) must be downgraded, which we
    /// model as an invalidation message.
    pub fn read(&mut self, line: u64, core: u16) -> DirectoryAction<'_> {
        self.invalidate.clear();
        let was_tracked = match self.find(line) {
            Some(i) => {
                if self.entries[i].state == LineState::Modified {
                    self.drain_sharers(i, Some(core));
                    self.entries[i].state = LineState::Shared;
                }
                self.add_sharer(i, core);
                true
            }
            None => {
                self.allocate(line, core, LineState::Shared);
                false
            }
        };
        DirectoryAction {
            invalidate: &self.invalidate,
            was_tracked,
        }
    }

    /// Handles a write request from `core`: every other sharer is
    /// invalidated and the core becomes the modified owner.
    pub fn write(&mut self, line: u64, core: u16) -> DirectoryAction<'_> {
        self.invalidate.clear();
        let was_tracked = match self.find(line) {
            Some(i) => {
                self.drain_sharers(i, Some(core));
                self.add_sharer(i, core);
                self.entries[i].state = LineState::Modified;
                true
            }
            None => {
                self.allocate(line, core, LineState::Modified);
                false
            }
        };
        DirectoryAction {
            invalidate: &self.invalidate,
            was_tracked,
        }
    }

    /// Allocates a new entry, evicting the oldest when full: the victim's
    /// sharers (all of them) go onto the invalidation list.
    fn allocate(&mut self, line: u64, core: u16, state: LineState) {
        let fresh = DirEntry {
            line,
            state,
            sharers: NIL,
        };
        let i = if self.entries.len() < self.capacity {
            if (self.entries.len() + 1) * 2 > self.index.len() {
                self.index_grow();
            }
            self.entries.push(fresh);
            self.entries.len() - 1
        } else {
            let i = self.oldest;
            self.oldest = (i + 1) % self.capacity;
            self.drain_sharers(i, None);
            self.index_remove(i);
            self.entries[i] = fresh;
            i
        };
        self.index_insert(i);
        self.add_sharer(i, core);
    }

    /// Current state of a line.
    #[must_use]
    pub fn state(&self, line: u64) -> LineState {
        self.find(line)
            .map_or(LineState::Invalid, |i| self.entries[i].state)
    }

    /// Sharer set of a line, ascending (empty when untracked).
    #[must_use]
    pub fn sharers(&self, line: u64) -> Vec<u16> {
        let mut out = Vec::new();
        let mut node = self.find(line).map_or(NIL, |i| self.entries[i].sharers);
        while node != NIL {
            out.push(self.pool[node as usize].core);
            node = self.pool[node as usize].next;
        }
        out
    }

    /// Number of tracked lines.
    #[must_use]
    pub fn tracked_lines(&self) -> usize {
        self.entries.len()
    }
}

/// A deterministic synthetic memory-reference generator with temporal
/// locality: most references revisit a hot working set, the rest stream
/// through a large footprint. The hot fraction and working-set size are
/// derived from the benchmark's L2 miss rate so detailed-cache runs land
/// near the profile's rates.
#[derive(Debug, Clone)]
pub struct AddressStream {
    state: u64,
    hot_base: u64,
    hot_lines: u64,
    cold_base: u64,
    cold_lines: u64,
    hot_fraction_permille: u64,
    write_permille: u64,
}

impl AddressStream {
    /// Creates a stream for a tile.
    ///
    /// `hot_kb` controls the hot working-set size; `hot_fraction` the share
    /// of references that stay inside it; `write_fraction` the share of
    /// writes. Each tile gets a disjoint address region (by `tile` id) plus
    /// a shared region for cross-tile coherence traffic. All addresses fit
    /// in 37 bits so that line indices (`addr >> 6`) stay within the 31
    /// bits the coherence packets carry — no aliasing between regions.
    #[must_use]
    pub fn new(tile: u16, hot_kb: u64, hot_fraction: f64, write_fraction: f64) -> Self {
        AddressStream {
            state: 0x9E37_79B9_7F4A_7C15 ^ (u64::from(tile) << 32 | 0x1234_5678),
            // 64 MB private region per tile: tiles never alias each other.
            hot_base: u64::from(tile) << 26,
            hot_lines: (hot_kb * 1024 / 64).max(1),
            // Shared cold region spanning 256 MB above all private regions.
            cold_base: 1 << 36,
            cold_lines: 256 * 1024 * 1024 / 64,
            hot_fraction_permille: (hot_fraction.clamp(0.0, 1.0) * 1000.0) as u64,
            write_permille: (write_fraction.clamp(0.0, 1.0) * 1000.0) as u64,
        }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*: deterministic, fast, good enough for locality mixes.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Produces the next reference: `(address, is_write)`.
    pub fn next_ref(&mut self) -> (u64, bool) {
        let r = self.next_u64();
        let is_write = r % 1000 < self.write_permille;
        let addr = if (r >> 10) % 1000 < self.hot_fraction_permille {
            self.hot_base + ((r >> 20) % self.hot_lines) * 64
        } else {
            self.cold_base + ((r >> 20) % self.cold_lines) * 64
        };
        (addr, is_write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_geometries() {
        assert_eq!(CacheConfig::l1_data().capacity_bytes(), 16 * 1024);
        assert_eq!(CacheConfig::l1_instr().capacity_bytes(), 32 * 1024);
        assert_eq!(CacheConfig::l2_slice().capacity_bytes(), 64 * 1024);
    }

    #[test]
    fn cache_hits_after_fill() {
        let mut c = SetAssocCache::new(CacheConfig::l1_data());
        assert!(!c.access(0x1000).hit);
        assert!(c.access(0x1000).hit);
        assert!(c.access(0x101F).hit, "same 32B line");
        assert!(!c.access(0x1020).hit, "next line");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2-way: fill both ways of one set, touch the first, then allocate a
        // third conflicting line — the second must be evicted.
        let cfg = CacheConfig {
            sets: 4,
            ways: 2,
            line_bytes: 32,
        };
        let mut c = SetAssocCache::new(cfg);
        let set_stride = (cfg.sets * cfg.line_bytes) as u64; // lines mapping to same set
        let (a, b, d) = (0u64, set_stride, 2 * set_stride);
        assert!(!c.access(a).hit);
        assert!(!c.access(b).hit);
        assert!(c.access(a).hit); // a is now MRU
        let res = c.access(d);
        assert!(!res.hit);
        assert_eq!(res.evicted, Some(b), "LRU way should be b");
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = SetAssocCache::new(CacheConfig::l1_data());
        c.access(0x40);
        assert!(c.probe(0x40));
        assert!(c.invalidate(0x40));
        assert!(!c.probe(0x40));
        assert!(!c.invalidate(0x40), "double invalidate is a no-op");
    }

    #[test]
    fn directory_read_then_write_invalidates_sharers() {
        let mut d = Directory::new(64);
        assert_eq!(d.read(0x100, 1).invalidate, vec![]);
        assert_eq!(d.read(0x100, 2).invalidate, vec![]);
        assert_eq!(d.state(0x100), LineState::Shared);
        assert_eq!(d.sharers(0x100), vec![1, 2]);
        // Core 3 writes: both readers invalidated.
        let act = d.write(0x100, 3);
        assert_eq!(act.invalidate, vec![1, 2]);
        assert!(act.was_tracked);
        assert_eq!(d.state(0x100), LineState::Modified);
        assert_eq!(d.sharers(0x100), vec![3]);
    }

    #[test]
    fn directory_read_downgrades_modified_owner() {
        let mut d = Directory::new(64);
        d.write(0x200, 5);
        let act = d.read(0x200, 6);
        assert_eq!(act.invalidate, vec![5], "owner must be downgraded");
        assert_eq!(d.state(0x200), LineState::Shared);
        assert_eq!(d.sharers(0x200), vec![6]);
    }

    #[test]
    fn directory_owner_rereads_own_line_quietly() {
        let mut d = Directory::new(64);
        d.write(0x200, 5);
        let act = d.read(0x200, 5);
        assert!(act.invalidate.is_empty());
    }

    #[test]
    fn directory_capacity_evicts_with_invalidations() {
        let mut d = Directory::new(2);
        d.read(0x100, 1);
        d.read(0x200, 2);
        let act = d.read(0x300, 3);
        assert_eq!(act.invalidate, vec![1], "evicted line's sharers");
        assert_eq!(d.tracked_lines(), 2);
        assert_eq!(d.state(0x100), LineState::Invalid);
    }

    #[test]
    fn address_stream_is_deterministic_and_local() {
        let mut a = AddressStream::new(7, 16, 0.9, 0.2);
        let mut b = AddressStream::new(7, 16, 0.9, 0.2);
        let refs_a: Vec<(u64, bool)> = (0..100).map(|_| a.next_ref()).collect();
        let refs_b: Vec<(u64, bool)> = (0..100).map(|_| b.next_ref()).collect();
        assert_eq!(refs_a, refs_b);
        // Different tiles see different hot regions.
        let mut c = AddressStream::new(8, 16, 0.9, 0.2);
        let refs_c: Vec<(u64, bool)> = (0..100).map(|_| c.next_ref()).collect();
        assert_ne!(refs_a, refs_c);
    }

    #[test]
    fn hot_stream_mostly_hits_a_big_enough_cache() {
        let mut cache = SetAssocCache::new(CacheConfig::l1_data());
        let mut stream = AddressStream::new(1, 8, 1.0, 0.0); // 8 KB hot set, all-hot
        for _ in 0..10_000 {
            let (addr, _) = stream.next_ref();
            cache.access(addr);
        }
        assert!(
            cache.hit_rate() > 0.9,
            "hot set should fit: hit rate {}",
            cache.hit_rate()
        );
    }

    #[test]
    fn streaming_misses_a_small_cache() {
        let mut cache = SetAssocCache::new(CacheConfig::l1_data());
        let mut stream = AddressStream::new(1, 8, 0.0, 0.0); // all-cold stream
        for _ in 0..10_000 {
            let (addr, _) = stream.next_ref();
            cache.access(addr);
        }
        assert!(
            cache.hit_rate() < 0.05,
            "cold stream should thrash: hit rate {}",
            cache.hit_rate()
        );
    }

    #[test]
    fn write_fraction_respected() {
        let mut stream = AddressStream::new(1, 8, 0.5, 0.3);
        let writes = (0..10_000).filter(|_| stream.next_ref().1).count();
        let frac = writes as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.03, "write fraction {frac}");
    }
}
