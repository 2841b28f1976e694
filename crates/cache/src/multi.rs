//! Single-pass multi-configuration cache simulation.
//!
//! The paper's cache studies sweep size, block size and associativity
//! over the same captured trace. Simulating each configuration
//! separately re-walks the trace once per point; this module evaluates
//! an entire sweep in **one traversal** using a generalized
//! stack-distance (Mattson) engine.
//!
//! For set-associative LRU caches with bit-selection indexing, the
//! inclusion property holds: a reference's hit/miss outcome in a cache
//! with `S = 2^s` sets and `A` ways is determined by its *set-relative
//! stack distance* — the number of distinct blocks mapping to the same
//! set (mod `S`) that were touched since the last touch of this block.
//! One recency order therefore answers every `(S, A)` in the sweep at
//! once.
//!
//! The distance core is a **recency index** with two per-set
//! representations, picked per level (one level = one distinct set
//! count, the `s_max` bucket classes of the tz-counting formulation):
//!
//! * **Saturated order-statistic arrays** (`A_max ≤` [`SAT_CAP_MAX`],
//!   the common case): each set keeps the `A_max` most recently touched
//!   distinct blocks in MRU order, where `A_max` is the largest way
//!   count any configuration asks of this level. The truncated stack is
//!   exact below its capacity — a block found at position `i` has
//!   set-relative stack distance exactly `i` — and a block that fell
//!   off the end has distance `≥ A_max`, which already misses in every
//!   configuration at the level. Distances the sweep can never act on
//!   are never computed, so a level costs O(A_max) flat-array work
//!   instead of an unbounded walk down the full recency stack.
//! * **Fenwick (binary indexed) trees over access time** (high
//!   associativity): every resident block carries the global time of
//!   its last touch, and each set keeps a Fenwick tree over its
//!   insertion history with one live mark per resident block. A set's
//!   insertion times arrive in increasing order, so local slot order
//!   *is* time order and the distance of a block last touched at `t` is
//!   `live − prefix(t)` — answered in O(log n) regardless of way
//!   count. Dead slots left by re-touches are compacted away once they
//!   outnumber live ones, so memory and query depth stay O(resident)
//!   amortised.
//!
//! An absent block (compulsory or post-purge miss in every
//! configuration) needs no distance queries at all on either
//! representation. Block residency, first-touch history and dirty
//! bitmasks live in one flat open-addressing table keyed by
//! `(pid_tag, blockno)` — one multiplicative-hash probe per access.
//!
//! Most references repeat the block just touched, and those skip the
//! index entirely: a block in the MRU slot of its set at the coarsest
//! level (fewest sets) is also the last touched in each finer set,
//! which holds a subset of the coarse set's blocks, so its distance is
//! 0 in every configuration. The **MRU short-circuit** counts that hit
//! once, group-wide, and moves nothing — distances only ever read the
//! order of marks within one set, which a re-touch of its newest block
//! leaves as it was. A read hit leaves every dirty bit alone, so only a
//! write probes the block table (to set them all). A group whose
//! coarsest level is a Fenwick tree has no MRU slot and takes the full
//! path.
//!
//! A purge (Flush policy) touches only **resident** blocks: the group
//! keeps the table indices of its in-stack blocks and settles
//! invalidations and write-backs from their sets alone, emptying each
//! set as it is counted, instead of walking every set and the whole
//! table.
//!
//! Write-back accounting is *lazy*, exactly as in DESIGN §11: a block
//! whose stack distance reaches `A` was evicted at the moment its
//! `A`-th same-set successor arrived, so a dirty bit surviving to the
//! block's next touch (or to a purge, or to the end of the trace) means
//! exactly one write-back happened — counted then, not at eviction
//! time. Statistics are only observed at the end, so the deferral is
//! invisible. Dirty state is a per-entry bitmask over the group's
//! configurations.
//!
//! Inclusion requires that every access reorder the recency order the
//! same way in every configuration. That holds for LRU with
//! write-allocate; it fails for write-through-no-allocate (a write miss
//! does not insert, and whether it misses depends on the
//! configuration), the one replay fallback: those configurations run on
//! independent [`Cache`] models fed from the same single trace
//! traversal.
//!
//! The produced [`CacheStats`] are field-for-field identical to running
//! [`crate::sim::simulate_stream`] per configuration, the one cache
//! oracle. The property suite in `tests/multi_equiv.rs` drives both
//! over randomized traces (flushes and PID tags included), pinning the
//! invariants: hit iff set-relative distance < ways, lazy write-back
//! settlement at re-touch/purge/end, purge invalidation = resident
//! lines within ways, first-touch history preserved across purges.

use crate::config::{CacheConfig, SwitchPolicy, WritePolicy};
use crate::set_assoc::{AccessKind, Cache};
use crate::stats::CacheStats;
use atum_core::{RecordKind, TraceRecord, TraceSource, TraceStreamError};
use std::collections::HashMap;

/// Whether a configuration can join a shared-stack group (write-back;
/// see the module docs for why write-through cannot).
pub fn stackable(cfg: &CacheConfig) -> bool {
    cfg.write_policy() == WritePolicy::WriteBackAllocate
}

/// One set's slice of the recency index: a Fenwick tree over the set's
/// insertion history. Insertion times are strictly increasing, so slot
/// order is time order and a block's position is found by binary
/// search; one live mark per resident block. Dead slots (left when a
/// block is re-touched and its mark moves to the top) are compacted
/// away once they outnumber the live ones.
#[derive(Debug, Clone, Default)]
struct SetFen {
    /// Global touch times, ascending; append-only between compactions.
    times: Vec<u64>,
    /// Liveness bitset over the slots, for O(n) compaction.
    alive: Vec<u64>,
    /// Fenwick array of the live marks.
    fen: Vec<u32>,
    live: u32,
}

impl SetFen {
    /// Sum of the marks in slots `1..=i` (1-based).
    fn prefix(&self, mut i: usize) -> u32 {
        let mut s = 0;
        while i > 0 {
            s += self.fen[i - 1];
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Adds `delta` to slot `i` (1-based).
    fn add(&mut self, mut i: usize, delta: i32) {
        let n = self.times.len();
        while i <= n {
            self.fen[i - 1] = (self.fen[i - 1] as i32 + delta) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Appends a live mark at `time` (which must exceed every stored
    /// time). Appending never disturbs existing Fenwick cells: the new
    /// cell covers `(i − lowbit(i), i]` and is computed from prefixes.
    fn push(&mut self, time: u64) {
        debug_assert!(self.times.last().is_none_or(|&t| t < time));
        self.times.push(time);
        let i = self.times.len();
        let lb = i & i.wrapping_neg();
        let cell = self.prefix(i - 1) - self.prefix(i - lb) + 1;
        self.fen.push(cell);
        let w = (i - 1) / 64;
        if w >= self.alive.len() {
            self.alive.push(0);
        }
        self.alive[w] |= 1u64 << ((i - 1) % 64);
        self.live += 1;
    }

    /// Clears the live mark of the block touched at `time`.
    fn remove(&mut self, time: u64) {
        let slot = self.times.partition_point(|&t| t < time);
        debug_assert_eq!(self.times.get(slot), Some(&time));
        self.add(slot + 1, -1);
        self.alive[slot / 64] &= !(1u64 << (slot % 64));
        self.live -= 1;
        // Amortised O(1): a rebuild keeps query depth and memory
        // O(live), and needs O(len) removals to trigger again.
        if self.times.len() >= 64 && (self.live as usize) * 2 < self.times.len() {
            self.compact();
        }
    }

    /// Live marks strictly more recent than `time` — the set-relative
    /// stack distance of the block last touched then.
    fn count_after(&self, time: u64) -> u32 {
        let slot = self.times.partition_point(|&t| t <= time);
        self.live - self.prefix(slot)
    }

    /// Rebuilds with only the live slots. All marks are 1 afterwards,
    /// so each Fenwick cell is just the size of its range.
    fn compact(&mut self) {
        let old = std::mem::take(&mut self.times);
        self.times = old
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.alive[i / 64] & (1u64 << (i % 64)) != 0)
            .map(|(_, &t)| t)
            .collect();
        let n = self.times.len();
        debug_assert_eq!(n, self.live as usize);
        self.fen.clear();
        self.fen
            .extend((1..=n).map(|i| (i & i.wrapping_neg()) as u32));
        self.alive.clear();
        self.alive.resize(n.div_ceil(64), u64::MAX);
        if !n.is_multiple_of(64) {
            let last = self.alive.len() - 1;
            self.alive[last] = (1u64 << (n % 64)) - 1;
        }
    }

    fn clear(&mut self) {
        self.times.clear();
        self.alive.clear();
        self.fen.clear();
        self.live = 0;
    }
}

/// Widest way count a level serves with saturated order-statistic
/// arrays; anything wider falls back to the Fenwick recency trees.
const SAT_CAP_MAX: u32 = 16;

/// Sentinel for an unoccupied slot in the saturated arrays and the
/// block table (a real key is `(pid_tag << 32) | blockno`, < 2^40).
const EMPTY: u64 = u64::MAX;

/// The per-set distance structures of one level, picked by the widest
/// way count the level must answer (see the module docs).
#[derive(Debug)]
enum LevelIndex {
    /// `cap` keys per set in MRU order (non-empty prefix, [`EMPTY`]
    /// tail), flat in one array: exact distances below `cap`,
    /// saturated at `cap`.
    Sat { cap: u32, slots: Vec<u64> },
    /// Fenwick recency tree per set, for way counts past
    /// [`SAT_CAP_MAX`].
    Fen { sets: Vec<SetFen> },
}

/// The per-set recency indexes of one set count in the sweep (one
/// "level" = one distinct `2^slog`), as flat arrays indexed by the
/// masked block number — the reusable buffers the access/flush/finish
/// walks share, with no per-call allocation.
#[derive(Debug)]
struct Level {
    mask: u32,
    index: LevelIndex,
    /// Indices (into the group's `cfgs`) of the configurations indexed
    /// by this set count.
    cfg_ids: Vec<usize>,
}

#[derive(Debug, Clone)]
struct GroupCfg {
    /// Index into the group's `levels` (the config's set count).
    level: usize,
    assoc: u32,
    /// Index into `simulate_many_stream`'s input slice.
    orig: usize,
    bit: u64,
}

/// One block-table slot: a `(pid_tag, blockno)` key packed as
/// `(pid << 32) | blockno`, the global time of the block's last touch
/// (locating its live mark in the Fenwick levels), its
/// per-configuration dirty bits (bit i = group's i-th config), and
/// whether it is currently in the stack (cleared by a purge; the slot
/// itself persists to carry first-touch history across purges).
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    time: u64,
    dirty: u64,
    in_stack: bool,
}

const EMPTY_SLOT: Slot = Slot {
    key: EMPTY,
    time: 0,
    dirty: 0,
    in_stack: false,
};

/// Open-addressing block table (multiplicative hash, linear probing,
/// power-of-two capacity). Slots are never deleted — a purge only
/// clears `in_stack`/`dirty` — so probe chains never break and no
/// tombstones are needed.
#[derive(Debug)]
struct BlockTable {
    slots: Vec<Slot>,
    len: usize,
}

impl BlockTable {
    fn new() -> BlockTable {
        BlockTable {
            slots: vec![EMPTY_SLOT; 1024],
            len: 0,
        }
    }

    fn hash(key: u64) -> usize {
        // Fibonacci hashing; the high bits carry the mix, so fold them
        // down before masking.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24) as usize
    }

    /// Index of `key`'s slot, inserting a fresh one if absent; the
    /// second value is whether the key was newly inserted (a
    /// first-ever touch). The returned index stays valid until the
    /// next call (growth happens up front).
    fn find_or_insert(&mut self, key: u64) -> (usize, bool) {
        if self.len * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::hash(key) & mask;
        loop {
            let k = self.slots[i].key;
            if k == key {
                return (i, false);
            }
            if k == EMPTY {
                self.slots[i] = Slot {
                    key,
                    time: 0,
                    dirty: 0,
                    in_stack: false,
                };
                self.len += 1;
                return (i, true);
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let doubled = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; doubled]);
        let mask = self.slots.len() - 1;
        for s in old {
            if s.key == EMPTY {
                continue;
            }
            let mut i = Self::hash(s.key) & mask;
            while self.slots[i].key != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }
}

/// A shared-stack group: write-back configurations with equal block
/// size and switch policy, evaluated together on the Fenwick recency
/// index.
///
/// Counters that are provably identical across the group's members —
/// access/kind totals, context switches, compulsory misses — are kept
/// once at group level; only hits and write-backs are per configuration
/// (misses are derived as `accesses - hits` at collection time).
#[derive(Debug)]
struct StackGroup {
    /// `log2` of the block size.
    block_shift: u32,
    switch: SwitchPolicy,
    cfgs: Vec<GroupCfg>,
    all_mask: u64,

    levels: Vec<Level>,
    table: BlockTable,
    time: u64,
    /// Table indices of the in-stack blocks, kept by Flush-policy
    /// groups only: a purge visits just these blocks' sets. Rebuilt
    /// whenever the table grows (growth moves every slot).
    resident: Vec<u32>,

    // Shared across every configuration in the group.
    accesses: u64,
    ifetches: u64,
    reads: u64,
    writes: u64,
    ctx_switches: u64,
    cold: u64,
    /// Hits in every configuration at once — references to the MRU
    /// block of their coarsest-level set — indexed by [`AccessKind`].
    mru_hits: [u64; 3],

    // Per configuration.
    hits: Vec<u64>,
    ifetch_hits: Vec<u64>,
    read_hits: Vec<u64>,
    write_hits: Vec<u64>,
    writebacks: Vec<u64>,
    invalidations: Vec<u64>,

    /// Per-level scratch: the referenced block's set-relative distance
    /// at each set count.
    dist: Vec<u32>,
}

impl Level {
    /// Distance of a resident block in `set` (exact below the
    /// saturation cap), then move-to-front. `prev_time` locates the
    /// block's live mark in a Fenwick level; `t_new` is its new mark.
    fn touch_resident(&mut self, set: usize, key: u64, prev_time: u64, t_new: u64) -> u32 {
        match &mut self.index {
            LevelIndex::Sat { cap: 1, slots } => {
                // Direct-mapped level: the set holds one block.
                let s = &mut slots[set];
                let d = (*s != key) as u32;
                *s = key;
                d
            }
            LevelIndex::Sat { cap, slots } => {
                let cap = *cap as usize;
                let s = &mut slots[set * cap..(set + 1) * cap];
                match s.iter().position(|&k| k == key) {
                    Some(j) => {
                        s[..=j].rotate_right(1);
                        j as u32
                    }
                    None => {
                        s.rotate_right(1);
                        s[0] = key;
                        cap as u32
                    }
                }
            }
            LevelIndex::Fen { sets } => {
                let f = &mut sets[set];
                let d = f.count_after(prev_time);
                f.remove(prev_time);
                f.push(t_new);
                d
            }
        }
    }

    /// Inserts a block with no live mark (first touch or post-purge) at
    /// the top of the recency order.
    fn touch_absent(&mut self, set: usize, key: u64, t_new: u64) {
        match &mut self.index {
            LevelIndex::Sat { cap: 1, slots } => slots[set] = key,
            LevelIndex::Sat { cap, slots } => {
                let cap = *cap as usize;
                let s = &mut slots[set * cap..(set + 1) * cap];
                s.rotate_right(1);
                s[0] = key;
            }
            LevelIndex::Fen { sets } => sets[set].push(t_new),
        }
    }

    /// Current distance of a block without reordering (saturated at the
    /// cap), for the end-of-trace residency checks.
    fn position(&self, set: usize, key: u64, time: u64) -> u32 {
        match &self.index {
            LevelIndex::Sat { cap, slots } => {
                let cap = *cap as usize;
                let s = &slots[set * cap..(set + 1) * cap];
                s.iter().position(|&k| k == key).unwrap_or(cap) as u32
            }
            LevelIndex::Fen { sets } => sets[set].count_after(time),
        }
    }

    /// Whether `key` is the most recently touched block of `set`;
    /// always `false` on a Fenwick level, which has no MRU slot to read.
    fn is_mru(&self, set: usize, key: u64) -> bool {
        match &self.index {
            LevelIndex::Sat { cap, slots } => slots[set * *cap as usize] == key,
            LevelIndex::Fen { .. } => false,
        }
    }

    /// Empties `set`, returning its occupancy (the live count, which a
    /// saturated array caps at `cap` — enough, since every `assoc` at
    /// the level is at most the cap).
    fn take_set(&mut self, set: usize) -> u32 {
        match &mut self.index {
            LevelIndex::Sat { cap, slots } => {
                let cap = *cap as usize;
                let s = &mut slots[set * cap..(set + 1) * cap];
                // MRU order keeps a non-empty prefix.
                let live = s.iter().take_while(|&&k| k != EMPTY).count();
                s[..live].fill(EMPTY);
                live as u32
            }
            LevelIndex::Fen { sets } => {
                let live = sets[set].live;
                sets[set].clear();
                live
            }
        }
    }
}

impl StackGroup {
    fn new(configs: &[CacheConfig], orig_indices: &[usize]) -> StackGroup {
        assert!(orig_indices.len() <= 64, "dirty bitmask is 64 bits wide");
        let block_size = configs[orig_indices[0]].block();
        let switch = configs[orig_indices[0]].switch_policy();
        let mut slogs: Vec<usize> = orig_indices
            .iter()
            .map(|&o| configs[o].sets().trailing_zeros() as usize)
            .collect();
        slogs.sort_unstable();
        slogs.dedup();
        let mut cfg_ids: Vec<Vec<usize>> = vec![Vec::new(); slogs.len()];
        let mut max_assoc = vec![0u32; slogs.len()];
        let cfgs: Vec<GroupCfg> = orig_indices
            .iter()
            .enumerate()
            .map(|(i, &orig)| {
                let c = &configs[orig];
                debug_assert_eq!(c.block(), block_size);
                debug_assert_eq!(c.switch_policy(), switch);
                let slog = c.sets().trailing_zeros() as usize;
                let level = slogs.binary_search(&slog).expect("level exists");
                cfg_ids[level].push(i);
                max_assoc[level] = max_assoc[level].max(c.assoc());
                GroupCfg {
                    level,
                    assoc: c.assoc(),
                    orig,
                    bit: 1u64 << i,
                }
            })
            .collect();
        let levels: Vec<Level> = slogs
            .iter()
            .zip(cfg_ids)
            .zip(&max_assoc)
            .map(|((&s, ids), &a_max)| Level {
                mask: ((1u64 << s) - 1) as u32,
                index: if a_max <= SAT_CAP_MAX {
                    LevelIndex::Sat {
                        cap: a_max,
                        slots: vec![EMPTY; (1usize << s) * a_max as usize],
                    }
                } else {
                    LevelIndex::Fen {
                        sets: vec![SetFen::default(); 1usize << s],
                    }
                },
                cfg_ids: ids,
            })
            .collect();
        let n = cfgs.len();
        StackGroup {
            block_shift: block_size.trailing_zeros(),
            switch,
            all_mask: if n == 64 { u64::MAX } else { (1u64 << n) - 1 },
            cfgs,
            dist: vec![0; levels.len()],
            levels,
            table: BlockTable::new(),
            time: 0,
            resident: Vec::new(),
            accesses: 0,
            ifetches: 0,
            reads: 0,
            writes: 0,
            ctx_switches: 0,
            cold: 0,
            mru_hits: [0; 3],
            hits: vec![0; n],
            ifetch_hits: vec![0; n],
            read_hits: vec![0; n],
            write_hits: vec![0; n],
            writebacks: vec![0; n],
            invalidations: vec![0; n],
        }
    }

    /// Assembles the full statistics for the group's `i`-th member.
    fn stats_for(&self, i: usize) -> CacheStats {
        let [mru_ifetch, mru_read, mru_write] = self.mru_hits;
        let hits = self.hits[i] + mru_ifetch + mru_read + mru_write;
        CacheStats {
            accesses: self.accesses,
            hits,
            misses: self.accesses - hits,
            cold_misses: self.cold,
            ifetch_accesses: self.ifetches,
            ifetch_misses: self.ifetches - self.ifetch_hits[i] - mru_ifetch,
            read_accesses: self.reads,
            read_misses: self.reads - self.read_hits[i] - mru_read,
            write_accesses: self.writes,
            write_misses: self.writes - self.write_hits[i] - mru_write,
            writebacks: self.writebacks[i],
            write_throughs: 0,
            flush_invalidations: self.invalidations[i],
            context_switches: self.ctx_switches,
        }
    }

    fn context_switch(&mut self) {
        self.ctx_switches += 1;
        if self.switch == SwitchPolicy::Flush {
            self.flush();
        }
    }

    /// Purge accounting: every resident line counts an invalidation;
    /// every surviving dirty bit counts a write-back (resident ⇒ the
    /// purge writes it back now, non-resident ⇒ its past eviction did) —
    /// then the index is emptied (first-touch history is kept, matching
    /// `Cache`). Only the in-stack blocks' sets can be occupied, so the
    /// walk visits those: each set settles `min(A, live)` invalidations
    /// for every configuration at its level the first time one of its
    /// blocks comes up, and is emptied as it is counted.
    fn flush(&mut self) {
        for &r in &self.resident {
            let slot = &mut self.table.slots[r as usize];
            let (blockno, dirty) = (slot.key as u32, slot.dirty);
            slot.in_stack = false;
            slot.dirty = 0;
            if dirty != 0 {
                for (i, c) in self.cfgs.iter().enumerate() {
                    if dirty & c.bit != 0 {
                        self.writebacks[i] += 1;
                    }
                }
            }
            for lvl in &mut self.levels {
                let live = lvl.take_set((blockno & lvl.mask) as usize);
                if live == 0 {
                    continue;
                }
                for &i in &lvl.cfg_ids {
                    self.invalidations[i] += live.min(self.cfgs[i].assoc) as u64;
                }
            }
        }
        self.resident.clear();
    }

    /// The block-table probe, keeping the purge list's indices valid
    /// when the probe grows the table.
    fn probe(&mut self, key: u64) -> (usize, bool) {
        let capacity = self.table.slots.len();
        let found = self.table.find_or_insert(key);
        if self.switch == SwitchPolicy::Flush && self.table.slots.len() != capacity {
            self.resident.clear();
            self.resident.extend(
                (0u32..)
                    .zip(&self.table.slots)
                    .filter(|(_, s)| s.in_stack)
                    .map(|(i, _)| i),
            );
        }
        found
    }

    /// End-of-trace settlement for the lazy write-back accounting: a
    /// dirty bit on a block that is no longer resident records an
    /// eviction-time write-back that was deferred; resident dirty lines
    /// stay uncounted (they are still in the cache), matching `Cache`.
    /// Residency is one recency query per surviving dirty bit.
    fn finish(&mut self) {
        for s in &self.table.slots {
            if s.dirty == 0 {
                continue;
            }
            let blockno = s.key as u32;
            for (i, c) in self.cfgs.iter().enumerate() {
                if s.dirty & c.bit == 0 {
                    continue;
                }
                let lvl = &self.levels[c.level];
                let set = (blockno & lvl.mask) as usize;
                if lvl.position(set, s.key, s.time) >= c.assoc {
                    self.writebacks[i] += 1;
                }
            }
        }
    }

    fn access(&mut self, addr: u32, kind: AccessKind, pid: u8) {
        let is_write = kind.is_write();
        self.accesses += 1;
        match kind {
            AccessKind::IFetch => self.ifetches += 1,
            AccessKind::Read => self.reads += 1,
            AccessKind::Write => self.writes += 1,
        }
        let pid_tag = match self.switch {
            SwitchPolicy::PidTag => pid,
            _ => 0,
        };
        let blockno = addr >> self.block_shift;
        let key = ((pid_tag as u64) << 32) | blockno as u64;

        // MRU short-circuit (see the module docs): distance 0 at every
        // level, a hit everywhere, nothing reorders, and only a write
        // changes the dirty bits.
        let coarse = &self.levels[0];
        if coarse.is_mru((blockno & coarse.mask) as usize, key) {
            self.mru_hits[kind as usize] += 1;
            if is_write {
                let (idx, _) = self.probe(key);
                self.table.slots[idx].dirty = self.all_mask;
            }
            return;
        }

        self.time += 1;
        let t_new = self.time;
        let (idx, is_new) = self.probe(key);
        let slot = self.table.slots[idx];

        let mut hit_mask = 0u64;
        let mut old_dirty = 0u64;
        if slot.in_stack {
            old_dirty = slot.dirty;
            // One bounded query per level answers the set-relative
            // stack distance (exact wherever it matters); a hit in
            // `(2^s, A)` iff the distance at level s is below A. The
            // query and the move-to-front reorder share one pass.
            for (li, lvl) in self.levels.iter_mut().enumerate() {
                let set = (blockno & lvl.mask) as usize;
                self.dist[li] = lvl.touch_resident(set, key, slot.time, t_new);
            }
            let kind_hits = match kind {
                AccessKind::IFetch => &mut self.ifetch_hits,
                AccessKind::Read => &mut self.read_hits,
                AccessKind::Write => &mut self.write_hits,
            };
            for (i, c) in self.cfgs.iter().enumerate() {
                if self.dist[c.level] < c.assoc {
                    self.hits[i] += 1;
                    kind_hits[i] += 1;
                    hit_mask |= c.bit;
                } else if old_dirty & c.bit != 0 {
                    // Lazy write-back: a miss on a block still in the
                    // stack means it was evicted since its last touch;
                    // a surviving dirty bit records that the eviction
                    // wrote it back. The bit itself is dropped by the
                    // `hit_mask` filter below.
                    self.writebacks[i] += 1;
                }
            }
        } else {
            // A first touch is a compulsory miss in every configuration
            // simultaneously; any other absent block (purged earlier)
            // misses everywhere too. Either way no distance queries are
            // needed.
            if is_new {
                self.cold += 1;
            }
            if self.switch == SwitchPolicy::Flush {
                self.resident.push(idx as u32);
            }
            for lvl in &mut self.levels {
                let set = (blockno & lvl.mask) as usize;
                lvl.touch_absent(set, key, t_new);
            }
        }

        // Allocate-on-miss everywhere (write-back groups only), so every
        // configuration reorders identically. Hit configurations keep
        // their dirty bit; miss configurations start the fresh line
        // clean unless this access writes it.
        let dirty = (old_dirty & hit_mask) | if is_write { self.all_mask } else { 0 };
        let s = &mut self.table.slots[idx];
        s.time = t_new;
        s.dirty = dirty;
        s.in_stack = true;
    }
}

/// A trace record decoded once into the operation every engine consumes
/// — the per-record kind dispatch is hoisted out of the per-engine
/// loop.
#[derive(Debug, Clone, Copy)]
enum Op {
    Switch(u8),
    Ref {
        access: AccessKind,
        addr: u32,
        pid: u8,
    },
}

fn decode_op(r: &TraceRecord) -> Option<Op> {
    match r.kind() {
        RecordKind::CtxSwitch => Some(Op::Switch(r.pid())),
        kind => crate::sim::record_kind_to_access(kind).map(|access| Op::Ref {
            access,
            addr: r.addr,
            pid: r.pid(),
        }),
    }
}

/// One independent sequential consumer of the record stream: a shared
/// stack group, or a direct per-configuration [`Cache`] replay.
#[derive(Debug)]
enum Engine {
    Group(StackGroup),
    Direct { orig: usize, cache: Cache },
}

impl Engine {
    fn apply(&mut self, op: Op) {
        match self {
            Engine::Group(g) => match op {
                Op::Switch(_) => g.context_switch(),
                Op::Ref { access, addr, pid } => g.access(addr, access, pid),
            },
            Engine::Direct { cache, .. } => match op {
                Op::Switch(pid) => cache.context_switch(pid),
                Op::Ref { access, addr, pid } => {
                    cache.access(addr, access, pid);
                }
            },
        }
    }
}

/// The sweep state behind [`simulate_many_stream`]: its engines consume
/// records one at a time ([`MultiSim::step`]).
#[derive(Debug)]
struct MultiSim {
    n: usize,
    engines: Vec<Engine>,
}

impl MultiSim {
    /// Prepares a sweep over `cfgs`: stackable configurations join
    /// shared-stack groups, the rest get independent [`Cache`] replays.
    fn new(cfgs: &[CacheConfig]) -> MultiSim {
        let mut engines: Vec<Engine> = Vec::new();
        let mut grouped: HashMap<(u32, u8), Vec<usize>> = HashMap::new();
        for (i, c) in cfgs.iter().enumerate() {
            if stackable(c) {
                grouped
                    .entry((c.block(), c.switch_policy() as u8))
                    .or_default()
                    .push(i);
            } else {
                engines.push(Engine::Direct {
                    orig: i,
                    cache: Cache::new(*c),
                });
            }
        }
        // A one-config group gets no amortization from the shared stack
        // and would pay its walk costs for nothing — replay it directly.
        for indices in grouped.values() {
            for chunk in indices.chunks(64) {
                if chunk.len() == 1 {
                    engines.push(Engine::Direct {
                        orig: chunk[0],
                        cache: Cache::new(cfgs[chunk[0]]),
                    });
                } else {
                    engines.push(Engine::Group(StackGroup::new(cfgs, chunk)));
                }
            }
        }
        MultiSim {
            n: cfgs.len(),
            engines,
        }
    }

    /// Feeds one trace record to every engine (the record's kind is
    /// decoded once, not once per engine).
    fn step(&mut self, r: &TraceRecord) {
        if let Some(op) = decode_op(r) {
            for e in &mut self.engines {
                e.apply(op);
            }
        }
    }

    /// Settles the lazy write-back accounting and assembles the final
    /// statistics, index-aligned with the input configurations.
    fn finish(mut self) -> Vec<CacheStats> {
        let mut out = vec![CacheStats::default(); self.n];
        for e in &mut self.engines {
            match e {
                Engine::Group(g) => {
                    g.finish();
                    for (i, c) in g.cfgs.iter().enumerate() {
                        out[c.orig] = g.stats_for(i);
                    }
                }
                Engine::Direct { orig, cache } => {
                    out[*orig] = *cache.stats();
                }
            }
        }
        out
    }
}

/// Simulates every configuration in one traversal of `source`.
///
/// Results are index-aligned with `cfgs` and identical to calling
/// [`crate::sim::simulate_stream`] per configuration. Write-back
/// configurations sharing a block size and switch policy are evaluated
/// by the stack-distance engine; the rest replay on independent
/// [`Cache`] models driven from the same traversal. An in-memory trace
/// passes [`Trace::source`](atum_core::Trace::source), whose segment
/// slices reach the engines without a copy; an on-disk segment file
/// streams through at O(segment) resident memory.
///
/// # Errors
///
/// Any [`TraceStreamError`] from the source.
pub fn simulate_many_stream<S: TraceSource>(
    source: &mut S,
    cfgs: &[CacheConfig],
) -> Result<Vec<CacheStats>, TraceStreamError> {
    let mut sim = MultiSim::new(cfgs);
    source.stream(&mut |batch| {
        for r in batch {
            sim.step(r);
        }
    })?;
    Ok(sim.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use atum_core::Trace;

    /// The sweep under test, over an in-memory trace.
    fn many(t: &Trace, cfgs: &[CacheConfig]) -> Vec<CacheStats> {
        simulate_many_stream(&mut t.source(), cfgs).unwrap()
    }

    /// Per-configuration replay: the oracle every sweep must match.
    fn replay(t: &Trace, cfg: &CacheConfig) -> CacheStats {
        crate::sim::simulate_stream(&mut t.source(), cfg).unwrap()
    }

    fn trace_with_switches() -> Trace {
        let mut t = Trace::new();
        // Two processes ping-ponging over overlapping footprints, with
        // strided writes so write-back accounting is exercised.
        for round in 0..30u32 {
            let pid = (round % 3) as u8 + 1;
            t.push(TraceRecord::new(RecordKind::CtxSwitch, 0, 0, pid, true));
            for b in 0..48u32 {
                let addr = (b * 16 + round * 8) % 4096;
                let kind = if b % 5 == 0 {
                    RecordKind::Write
                } else if b % 7 == 0 {
                    RecordKind::IFetch
                } else {
                    RecordKind::Read
                };
                t.push(TraceRecord::new(kind, addr, 4, pid, false));
            }
        }
        t
    }

    fn sweep_configs(switch: SwitchPolicy) -> Vec<CacheConfig> {
        let mut v = Vec::new();
        for size in [256u32, 512, 1024, 4096] {
            for assoc in [1u32, 2, 4] {
                v.push(
                    CacheConfig::builder()
                        .size(size)
                        .block(16)
                        .assoc(assoc)
                        .switch_policy(switch)
                        .build()
                        .unwrap(),
                );
            }
        }
        v
    }

    #[test]
    fn matches_reference_for_each_switch_policy() {
        let t = trace_with_switches();
        for switch in [
            SwitchPolicy::Ignore,
            SwitchPolicy::Flush,
            SwitchPolicy::PidTag,
        ] {
            let cfgs = sweep_configs(switch);
            for (cfg, got) in cfgs.iter().zip(many(&t, &cfgs)) {
                assert_eq!(got, replay(&t, cfg), "mismatch under {cfg}");
            }
        }
    }

    #[test]
    fn write_through_falls_back() {
        let cfg = CacheConfig::builder()
            .size(512)
            .block(16)
            .write_policy(WritePolicy::WriteThroughNoAllocate)
            .build()
            .unwrap();
        assert!(!stackable(&cfg));
        let t = trace_with_switches();
        assert_eq!(many(&t, &[cfg])[0], replay(&t, &cfg));
    }

    #[test]
    fn mixed_block_sizes_split_into_groups() {
        let t = trace_with_switches();
        let cfgs: Vec<CacheConfig> = [8u32, 16, 32]
            .into_iter()
            .map(|b| CacheConfig::builder().size(1024).block(b).build().unwrap())
            .collect();
        for (cfg, got) in cfgs.iter().zip(many(&t, &cfgs)) {
            assert_eq!(got, replay(&t, cfg), "mismatch under {cfg}");
        }
    }

    #[test]
    fn empty_input() {
        assert!(many(&Trace::new(), &[]).is_empty());
    }

    #[test]
    fn high_associativity_levels_use_fenwick_and_match() {
        // 32 ways exceeds SAT_CAP_MAX, so these levels run on the
        // Fenwick recency trees; mixing in narrow configurations at the
        // same block size shares the group across both index kinds.
        let t = trace_with_switches();
        let mut cfgs = vec![
            CacheConfig::builder()
                .size(1024)
                .block(16)
                .assoc(32)
                .build()
                .unwrap(),
            CacheConfig::builder()
                .size(4096)
                .block(16)
                .assoc(32)
                .build()
                .unwrap(),
        ];
        cfgs.extend(sweep_configs(SwitchPolicy::Ignore));
        for (cfg, got) in cfgs.iter().zip(many(&t, &cfgs)) {
            assert_eq!(got, replay(&t, cfg), "mismatch under {cfg}");
        }
    }

    #[test]
    fn block_table_growth_keeps_every_policy_exact() {
        // 5,000 distinct blocks grow the 1,024-slot table at least three
        // times, each growth landing between purges, so a Flush group's
        // purge list must follow the slots to their new indices.
        let mut t = Trace::new();
        let mut pid = 1u8;
        for i in 0..5000u32 {
            let fresh = i * 16;
            let old = (i.wrapping_mul(2_654_435_761) % (i + 1)) * 16;
            let kind = if i % 3 == 0 {
                RecordKind::Write
            } else {
                RecordKind::Read
            };
            t.push(TraceRecord::new(kind, fresh, 4, pid, false));
            t.push(TraceRecord::new(
                RecordKind::IFetch,
                fresh + 4,
                4,
                pid,
                false,
            ));
            t.push(TraceRecord::new(RecordKind::Write, old, 4, pid, false));
            if i % 300 == 299 {
                pid = pid % 3 + 1;
                t.push(TraceRecord::new(RecordKind::CtxSwitch, 0, 0, pid, true));
            }
        }
        for switch in [
            SwitchPolicy::Ignore,
            SwitchPolicy::Flush,
            SwitchPolicy::PidTag,
        ] {
            let mut cfgs = sweep_configs(switch);
            cfgs.push(
                CacheConfig::builder()
                    .size(16384)
                    .block(16)
                    .assoc(32)
                    .switch_policy(switch)
                    .build()
                    .unwrap(),
            );
            let mut sim = MultiSim::new(&cfgs);
            for r in t.iter() {
                sim.step(r);
            }
            let grown = sim
                .engines
                .iter()
                .any(|e| matches!(e, Engine::Group(g) if g.table.slots.len() >= 8192));
            assert!(grown, "the block table must grow under {switch:?}");
            for (cfg, got) in cfgs.iter().zip(sim.finish()) {
                assert_eq!(got, replay(&t, cfg), "mismatch under {cfg}");
            }
        }
    }

    #[test]
    fn set_fen_compacts_and_stays_exact() {
        let mut f = SetFen::default();
        // Insert 1..=200, then repeatedly move the oldest live mark to
        // the top — lots of dead slots, forcing compactions.
        for t in 1..=200u64 {
            f.push(t);
        }
        let mut times: std::collections::VecDeque<u64> = (1..=200).collect();
        let mut clock = 200u64;
        for _ in 0..500 {
            let old = times.pop_front().unwrap();
            clock += 1;
            f.remove(old);
            f.push(clock);
            times.push_back(clock);
            assert_eq!(f.live, 200);
            // Distance of the oldest mark is everything above it.
            assert_eq!(f.count_after(*times.front().unwrap()), 199);
            assert_eq!(f.count_after(clock), 0);
        }
        assert!(
            f.times.len() <= 2 * 200 + 64,
            "dead slots must stay bounded, got {}",
            f.times.len()
        );
    }
}
