//! Time-resolved attribution profiling.
//!
//! Aggregate counters say *how much*; the profiler says *when*. A
//! [`Profiler`] slices a run into fixed instruction intervals (default
//! [`DEFAULT_PERIOD`] = 64k instructions) and records one
//! [`ProfileRecord`] per interval: the producer's named counters (for
//! the machine: misses by cache level, migrations, transition-filter
//! sign flips, affinity-cache hits/misses, bus and coherence traffic),
//! per-core residency, and the filter value `F` and the `A_R` register
//! at the interval boundary. That is the §3.2–§3.6 story — affinity
//! settling, `F` sign flips, migration bursts — as data an exporter
//! (see [`crate::chrome`]) can draw. The producer owns the counter
//! list; obs names no counter itself.
//!
//! **Bounded memory.** Long runs must not grow the profile without
//! limit, so the record buffer is bounded: when it reaches capacity,
//! adjacent interval pairs are merged and the sampling period doubles
//! (deterministic pair-merge decimation). A run of any length costs
//! O(capacity) memory and keeps uniform time coverage; only resolution
//! degrades, by one power of two per decimation.
//!
//! **Off means unattached.** A machine holds its profiler as an
//! `Option`: `Machine::attach_recorders` sets one, and a detached
//! machine's sampling boundary is `u64::MAX`, so it never cuts a block
//! or takes a snapshot.

use crate::json::{Json, ToJson};

/// Default sampling period, instructions per interval.
pub const DEFAULT_PERIOD: u64 = 64 << 10;

/// Default record capacity (power of two; decimation halves to it).
pub const DEFAULT_CAPACITY: usize = 4 << 10;

/// Upper bound on per-core residency slots in a record. Matches the
/// machine's core-count ceiling without depending on the machine crate
/// (obs sits below it in the layering DAG).
pub const PROFILE_MAX_CORES: usize = 8;

/// Profiler sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileConfig {
    /// Instructions per sampling interval (before any decimation).
    pub period: u64,
    /// Maximum records retained; reaching it merges interval pairs and
    /// doubles the effective period. Must be even and ≥ 2.
    pub capacity: usize,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            period: DEFAULT_PERIOD,
            capacity: DEFAULT_CAPACITY,
        }
    }
}

crate::impl_to_json!(ProfileConfig { period, capacity });

/// Upper bound on the counters one record holds. A fixed capacity
/// keeps [`ProfileRecord`] `Copy`, with no allocation per record; the
/// machine profiles 11 counters.
pub const PROFILE_MAX_COUNTERS: usize = 16;

/// One sampling interval's attribution record: named counters as
/// deltas over `[start, end)`, the instructions each core retired in
/// it, and the state at `end` (`f_value`, `a_r`, `active_core`,
/// `subset`).
///
/// The counters are the producer's: a record keeps the `&'static` name
/// list it was built from (the machine's profiled-counter list) and one
/// count per name, in the list's order, which is also the order of its
/// JSON keys. [`counters`](Self::counters) walks them and indexing by
/// name (`record["l2_misses"]`) reads one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileRecord {
    /// Instruction count at the interval start (inclusive).
    pub start: u64,
    /// Instruction count at the interval end (exclusive).
    pub end: u64,
    names: &'static [&'static str],
    /// `counts[i]` is counter `names[i]`; the slots past the names
    /// stay 0.
    counts: [u64; PROFILE_MAX_COUNTERS],
    /// Instructions per core in the interval.
    pub residency: [u64; PROFILE_MAX_CORES],
    /// `F` at the interval end.
    pub f_value: i64,
    /// `A_R` at the interval end.
    pub a_r: i64,
    /// Core active at the interval end.
    pub active_core: u8,
    /// Subset designated at the interval end.
    pub subset: u8,
}

impl ProfileRecord {
    /// A record over `[0, 0)` counting `counts[i]` under `names[i]`,
    /// with no residency and zero state; the producer fills in the
    /// rest.
    ///
    /// # Panics
    ///
    /// Panics if `counts` and `names` differ in length or hold more
    /// than [`PROFILE_MAX_COUNTERS`] entries.
    pub fn new(names: &'static [&'static str], counts: &[u64]) -> ProfileRecord {
        assert!(
            counts.len() == names.len() && names.len() <= PROFILE_MAX_COUNTERS,
            "{} counts for {} counter names (at most {PROFILE_MAX_COUNTERS})",
            counts.len(),
            names.len()
        );
        let mut record = ProfileRecord {
            start: 0,
            end: 0,
            names,
            counts: [0; PROFILE_MAX_COUNTERS],
            residency: [0; PROFILE_MAX_CORES],
            f_value: 0,
            a_r: 0,
            active_core: 0,
            subset: 0,
        };
        record.counts[..counts.len()].copy_from_slice(counts);
        record
    }

    /// Each counter's name and count, in order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
        self.names.iter().copied().zip(self.counts)
    }

    /// The counts and the residency: what [`between`](Self::between)
    /// subtracts and [`absorb`](Self::absorb) adds.
    fn tallies(&self) -> impl Iterator<Item = &u64> {
        self.counts.iter().chain(&self.residency)
    }

    fn tallies_mut(&mut self) -> impl Iterator<Item = &mut u64> {
        self.counts.iter_mut().chain(&mut self.residency)
    }

    /// The record covering `[prev.end, now.end)`: counters and
    /// residency subtract, the state is `now`'s.
    pub fn between(prev: &ProfileRecord, now: &ProfileRecord) -> ProfileRecord {
        debug_assert_eq!(prev.names, now.names, "records over different counters");
        let mut record = *now;
        record.start = prev.end;
        for (count, earlier) in record.tallies_mut().zip(prev.tallies()) {
            *count -= earlier;
        }
        record
    }

    /// Folds the chronologically `later` record into `self`: counters
    /// and residency add, the state is the later one's. Used by
    /// decimation.
    pub fn absorb(&mut self, later: &ProfileRecord) {
        debug_assert!(self.end <= later.start, "absorb out of order");
        let earlier = std::mem::replace(self, *later);
        self.start = earlier.start;
        for (count, before) in self.tallies_mut().zip(earlier.tallies()) {
            *count += before;
        }
    }

    /// Instructions the interval covers.
    pub fn len_instructions(&self) -> u64 {
        self.end - self.start
    }
}

/// Reads counter `name`.
///
/// # Panics
///
/// Panics if the record has no counter `name`: a reader that asks for
/// a counter the producer does not profile fails instead of reading 0.
impl std::ops::Index<&str> for ProfileRecord {
    type Output = u64;

    fn index(&self, name: &str) -> &u64 {
        match self.names.iter().position(|&n| n == name) {
            Some(i) => &self.counts[i],
            None => panic!(
                "no profiled counter {name:?}; the record counts {:?}",
                self.names
            ),
        }
    }
}

/// `start`, `end`, one key per counter in order, then `residency`,
/// `f_value`, `a_r`, `active_core` and `subset`.
impl ToJson for ProfileRecord {
    fn to_json(&self) -> Json {
        let head = Json::object()
            .field("start", self.start)
            .field("end", self.end);
        self.counters()
            .fold(head, |json, (name, count)| json.field(name, count))
            .field("residency", self.residency)
            .field("f_value", self.f_value)
            .field("a_r", self.a_r)
            .field("active_core", self.active_core)
            .field("subset", self.subset)
    }
}

/// Interval sampler: one [`ProfileRecord`] per crossed boundary.
#[derive(Debug, Clone)]
pub struct Profiler {
    config: ProfileConfig,
    /// Current sampling period (doubles on each decimation).
    period: u64,
    /// Instruction count at which the next sample is due.
    next_due: u64,
    /// The snapshot the previous sample closed at; `None` before the
    /// first.
    last: Option<ProfileRecord>,
    records: Vec<ProfileRecord>,
    decimations: u32,
}

impl Profiler {
    /// A profiler with the given sizing.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0` or `capacity` is odd or below 2.
    pub fn with_config(config: ProfileConfig) -> Self {
        assert!(config.period > 0, "profile period must be positive");
        assert!(
            config.capacity >= 2 && config.capacity.is_multiple_of(2),
            "profile capacity must be even and ≥ 2"
        );
        Profiler {
            config,
            period: config.period,
            next_due: config.period,
            last: None,
            records: Vec::new(),
            decimations: 0,
        }
    }

    /// True when the interval boundary has been crossed and
    /// [`record_sample`](Self::record_sample) should run: a single
    /// compare.
    ///
    /// `sample_due` is *monotone* in `instructions_now`: once true at
    /// some count it stays true for every larger count until
    /// `record_sample` re-schedules the boundary. Block-stepping run
    /// loops rely on this to cut a block at [`next_due`](Self::next_due):
    /// the first event at or past it ends a sub-block, and the sample
    /// taken when that sub-block closes lands on exactly the event a
    /// per-step loop would have sampled.
    #[inline]
    pub fn sample_due(&self, instructions_now: u64) -> bool {
        instructions_now >= self.next_due
    }

    /// The instruction count at which the next sample falls due — the
    /// boundary [`sample_due`](Self::sample_due) compares against.
    /// Lets a block-stepping caller size its next block to end at the
    /// boundary without probing `sample_due` per event.
    #[inline]
    pub fn next_due(&self) -> u64 {
        self.next_due
    }

    /// Closes the current interval at `now`, the producer's cumulative
    /// snapshot over `[0, now.end)`, and schedules the next boundary.
    /// The first interval is `now` itself; each later one is `now` less
    /// the previous snapshot.
    pub fn record_sample(&mut self, now: &ProfileRecord) {
        let interval = self
            .last
            .map_or(*now, |last| ProfileRecord::between(&last, now));
        self.records.push(interval);
        self.last = Some(*now);
        if self.records.len() >= self.config.capacity {
            self.decimate();
        }
        self.next_due = (now.end / self.period + 1) * self.period;
    }

    /// Pair-merge decimation: halve the record count, double the
    /// period.
    fn decimate(&mut self) {
        let mut merged = Vec::with_capacity(self.records.len() / 2 + 1);
        let mut it = self.records.chunks_exact(2);
        for pair in &mut it {
            let mut a = pair[0];
            a.absorb(&pair[1]);
            merged.push(a);
        }
        merged.extend_from_slice(it.remainder());
        self.records = merged;
        self.period *= 2;
        self.decimations += 1;
    }

    /// Retained interval records, oldest first.
    pub fn records(&self) -> &[ProfileRecord] {
        &self.records
    }

    /// The sizing the profiler was built with.
    pub fn config(&self) -> ProfileConfig {
        self.config
    }

    /// Current sampling period (`config.period << decimations`).
    pub fn effective_period(&self) -> u64 {
        self.period
    }

    /// Times the record buffer was halved.
    pub fn decimations(&self) -> u32 {
        self.decimations
    }

    /// True when no interval has completed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// A profile as one JSON object: sampler settings, the decimation
/// state, and the record array.
impl ToJson for Profiler {
    fn to_json(&self) -> Json {
        Json::object()
            .field("period", self.config.period)
            .field("capacity", self.config.capacity)
            .field("effective_period", self.period)
            .field("decimations", self.decimations)
            .field("records", self.records.as_slice())
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::with_config(ProfileConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test producer's counters.
    const NAMES: &[&str] = &["l2_misses", "migrations"];

    /// A snapshot over `[0, instructions)`, all of it on core 0.
    fn cum(instructions: u64, l2: u64, migrations: u64) -> ProfileRecord {
        let mut r = ProfileRecord::new(NAMES, &[l2, migrations]);
        r.end = instructions;
        r.residency[0] = instructions;
        r
    }

    #[test]
    fn records_are_deltas() {
        let a = cum(100, 10, 1);
        let b = cum(250, 25, 3);
        let r = ProfileRecord::between(&a, &b);
        assert_eq!(r.start, 100);
        assert_eq!(r.end, 250);
        assert_eq!(r["l2_misses"], 15);
        assert_eq!(r["migrations"], 2);
        assert_eq!(r.residency[0], 150);
        assert_eq!(r.len_instructions(), 150);
    }

    #[test]
    fn absorb_adds_counters_and_keeps_late_state() {
        let mut a = ProfileRecord::between(&cum(0, 0, 0), &cum(100, 4, 1));
        let mut late_cum = cum(200, 9, 1);
        late_cum.f_value = -7;
        late_cum.active_core = 3;
        let b = ProfileRecord::between(&cum(100, 4, 1), &late_cum);
        a.absorb(&b);
        assert_eq!(a.start, 0);
        assert_eq!(a.end, 200);
        assert_eq!(a["l2_misses"], 9);
        assert_eq!(a["migrations"], 1);
        assert_eq!(a.f_value, -7);
        assert_eq!(a.active_core, 3);
        assert_eq!(a.residency[0], 200);
    }

    #[test]
    fn json_keys_follow_the_name_list() {
        let Json::Obj(fields) = cum(10, 2, 1).to_json() else {
            panic!("a record renders as a JSON object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "start",
                "end",
                "l2_misses",
                "migrations",
                "residency",
                "f_value",
                "a_r",
                "active_core",
                "subset"
            ]
        );
        assert_eq!(fields[2].1, Json::UInt(2));
    }

    #[test]
    #[should_panic(expected = "no profiled counter \"flips\"")]
    fn an_unprofiled_counter_is_not_read_as_zero() {
        let _ = cum(10, 2, 1)["flips"];
    }

    #[test]
    #[should_panic(expected = "1 counts for 2 counter names")]
    fn every_name_needs_a_count() {
        let _ = ProfileRecord::new(NAMES, &[1]);
    }

    #[test]
    fn samples_at_each_boundary() {
        let mut p = Profiler::with_config(ProfileConfig {
            period: 100,
            capacity: 8,
        });
        assert!(p.is_empty());
        assert!(!p.sample_due(50));
        assert!(p.sample_due(100));
        p.record_sample(&cum(103, 5, 0));
        assert_eq!(p.records().len(), 1);
        assert_eq!(p.records()[0].end, 103);
        assert!(!p.sample_due(199), "next boundary at 200");
        assert!(p.sample_due(200));
    }

    #[test]
    fn decimation_halves_and_doubles() {
        let mut p = Profiler::with_config(ProfileConfig {
            period: 10,
            capacity: 4,
        });
        for k in 1..=8u64 {
            p.record_sample(&cum(k * 10, k, 0));
        }
        // The buffer refilled to 4 records at k = 4, 6, and 8, merging
        // each time.
        assert_eq!(p.decimations(), 3);
        assert_eq!(p.effective_period(), 80);
        assert_eq!(p.records().len(), 2);
        // Total L2 misses survive decimation.
        let total: u64 = p.records().iter().map(|r| r["l2_misses"]).sum();
        assert_eq!(total, 8);
        // Intervals still tile the run.
        assert_eq!(p.records()[0].start, 0);
        assert_eq!(p.records()[0].end, p.records()[1].start);
        assert_eq!(p.records()[1].end, 80);
    }

    #[test]
    fn irregular_sample_times_tile() {
        let mut p = Profiler::with_config(ProfileConfig {
            period: 100,
            capacity: 64,
        });
        // The machine samples at the first access ≥ the boundary, so
        // sample times overshoot; intervals must stay contiguous.
        for at in [103u64, 217, 305, 999] {
            assert!(p.sample_due(at));
            p.record_sample(&cum(at, at / 10, 0));
        }
        let rec = p.records();
        assert_eq!(rec[0].start, 0);
        for w in rec.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert_eq!(rec.last().map(|r| r.end), Some(999));
        // 999 has not crossed the 1000 boundary yet.
        assert!(!p.sample_due(999));
        assert!(p.sample_due(1000));
    }

    /// The contract block-stepping run loops lean on: `sample_due` is
    /// monotone between recordings, so testing a block's last event is
    /// equivalent to testing every event in it, and `next_due` names
    /// the exact boundary the comparison uses.
    #[test]
    fn sample_due_is_monotone_up_to_next_due() {
        let mut p = Profiler::with_config(ProfileConfig {
            period: 100,
            capacity: 8,
        });
        assert_eq!(p.next_due(), 100);
        // False strictly below the boundary, true from it onward —
        // monotone across any block of instruction counts.
        for at in [0u64, 1, 50, 99] {
            assert!(!p.sample_due(at));
        }
        for at in [100u64, 101, 250, 1 << 40] {
            assert!(p.sample_due(at));
        }
        // Recording at an overshot count re-schedules to the next
        // period multiple *after* the overshoot, exactly where a
        // per-step loop would sample next.
        p.record_sample(&cum(237, 1, 0));
        assert_eq!(p.next_due(), 300);
        assert!(!p.sample_due(299));
        assert!(p.sample_due(300));
    }

    #[test]
    fn json_shape_is_stable() {
        let p = Profiler::with_config(ProfileConfig::default());
        let j = p.to_json();
        assert!(j.get("period").is_some());
        assert!(j.get("effective_period").is_some());
        assert!(j.get("decimations").is_some());
        assert!(matches!(j.get("records"), Some(Json::Arr(_))));
    }

    #[test]
    #[should_panic(expected = "capacity must be even")]
    fn odd_capacity_rejected() {
        let _ = Profiler::with_config(ProfileConfig {
            period: 10,
            capacity: 3,
        });
    }
}
