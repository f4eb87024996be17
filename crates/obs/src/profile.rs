//! Time-resolved attribution profiling.
//!
//! Aggregate counters say *how much*; the profiler says *when*. A
//! [`Profiler`] slices a run into fixed instruction intervals (default
//! [`DEFAULT_PERIOD`] = 64k instructions) and records one
//! [`ProfileRecord`] per interval: misses by cache level, migrations,
//! transition-filter sign flips, per-core residency, the filter value
//! `F` and the `A_R` register at the interval boundary, affinity-cache
//! hits/misses, and update-bus traffic. That is the §3.2–§3.6 story —
//! affinity settling, `F` sign flips, migration bursts — as data an
//! exporter (see [`crate::chrome`]) can draw.
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

/// Cumulative counters handed to [`Profiler::record_sample`]. The
/// producer (the machine) fills this from its own statistics; the
/// profiler subtracts consecutive snapshots into interval records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileCumulative {
    /// Retired instructions.
    pub instructions: u64,
    /// IL1 misses.
    pub il1_misses: u64,
    /// DL1 misses.
    pub dl1_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// L3 misses (memory accesses with a finite L3).
    pub l3_misses: u64,
    /// Controller-driven migrations.
    pub migrations: u64,
    /// Transition-filter sign flips (splitter transitions).
    pub flips: u64,
    /// Affinity-table reads that hit.
    pub affinity_hits: u64,
    /// Affinity-table reads that missed (forced `A_e = 0`).
    pub affinity_misses: u64,
    /// Bus bytes broadcast (update bus plus protocol coherence
    /// traffic).
    pub bus_bytes: u64,
    /// Remote copies invalidated by the coherence protocol (MESI).
    pub invalidations: u64,
    /// Remote copies refreshed by coherence updates (Dragon `BusUpd`).
    pub coherence_updates: u64,
    /// Instructions executed per core.
    pub residency: [u64; PROFILE_MAX_CORES],
    /// Top-level transition-filter value `F` (point-in-time).
    pub f_value: i64,
    /// `A_R` register of the top-level mechanism (point-in-time).
    pub a_r: i64,
    /// Core executing now.
    pub active_core: u8,
    /// Working-set subset designated now.
    pub subset: u8,
}

/// One sampling interval's attribution record. Counter fields are
/// deltas over `[start, end)`; `f_value`, `a_r`, `active_core`, and
/// `subset` are the state at `end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileRecord {
    /// Instruction count at the interval start (inclusive).
    pub start: u64,
    /// Instruction count at the interval end (exclusive).
    pub end: u64,
    /// IL1 misses in the interval.
    pub il1_misses: u64,
    /// DL1 misses in the interval.
    pub dl1_misses: u64,
    /// L2 misses in the interval.
    pub l2_misses: u64,
    /// L3 misses in the interval.
    pub l3_misses: u64,
    /// Migrations in the interval.
    pub migrations: u64,
    /// Transition-filter sign flips in the interval.
    pub flips: u64,
    /// Affinity-table hits in the interval.
    pub affinity_hits: u64,
    /// Affinity-table misses in the interval.
    pub affinity_misses: u64,
    /// Bus bytes in the interval (update bus plus coherence traffic).
    pub bus_bytes: u64,
    /// Coherence invalidations in the interval.
    pub invalidations: u64,
    /// Coherence updates in the interval.
    pub coherence_updates: u64,
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

crate::impl_to_json!(ProfileRecord {
    start,
    end,
    il1_misses,
    dl1_misses,
    l2_misses,
    l3_misses,
    migrations,
    flips,
    affinity_hits,
    affinity_misses,
    bus_bytes,
    invalidations,
    coherence_updates,
    residency,
    f_value,
    a_r,
    active_core,
    subset,
});

impl ProfileRecord {
    /// The record covering `[prev, now)`.
    pub fn between(prev: &ProfileCumulative, now: &ProfileCumulative) -> ProfileRecord {
        let mut residency = [0u64; PROFILE_MAX_CORES];
        for (slot, (a, b)) in residency
            .iter_mut()
            .zip(now.residency.iter().zip(prev.residency.iter()))
        {
            *slot = a - b;
        }
        ProfileRecord {
            start: prev.instructions,
            end: now.instructions,
            il1_misses: now.il1_misses - prev.il1_misses,
            dl1_misses: now.dl1_misses - prev.dl1_misses,
            l2_misses: now.l2_misses - prev.l2_misses,
            l3_misses: now.l3_misses - prev.l3_misses,
            migrations: now.migrations - prev.migrations,
            flips: now.flips - prev.flips,
            affinity_hits: now.affinity_hits - prev.affinity_hits,
            affinity_misses: now.affinity_misses - prev.affinity_misses,
            bus_bytes: now.bus_bytes - prev.bus_bytes,
            invalidations: now.invalidations - prev.invalidations,
            coherence_updates: now.coherence_updates - prev.coherence_updates,
            residency,
            f_value: now.f_value,
            a_r: now.a_r,
            active_core: now.active_core,
            subset: now.subset,
        }
    }

    /// Folds the chronologically `later` record into `self`: counters
    /// add, point-in-time fields take the later state. Used by
    /// decimation.
    pub fn absorb(&mut self, later: &ProfileRecord) {
        debug_assert!(self.end <= later.start, "absorb out of order");
        self.end = later.end;
        self.il1_misses += later.il1_misses;
        self.dl1_misses += later.dl1_misses;
        self.l2_misses += later.l2_misses;
        self.l3_misses += later.l3_misses;
        self.migrations += later.migrations;
        self.flips += later.flips;
        self.affinity_hits += later.affinity_hits;
        self.affinity_misses += later.affinity_misses;
        self.bus_bytes += later.bus_bytes;
        self.invalidations += later.invalidations;
        self.coherence_updates += later.coherence_updates;
        for (slot, v) in self.residency.iter_mut().zip(later.residency.iter()) {
            *slot += v;
        }
        self.f_value = later.f_value;
        self.a_r = later.a_r;
        self.active_core = later.active_core;
        self.subset = later.subset;
    }

    /// Instructions the interval covers.
    pub fn len_instructions(&self) -> u64 {
        self.end - self.start
    }

    /// Affinity-cache hit rate in the interval (0 with no reads).
    pub fn affinity_hit_rate(&self) -> f64 {
        let reads = self.affinity_hits + self.affinity_misses;
        if reads == 0 {
            0.0
        } else {
            self.affinity_hits as f64 / reads as f64
        }
    }

    /// L2 misses per kilo-instruction in the interval.
    pub fn l2_miss_density(&self) -> f64 {
        self.l2_misses as f64 * 1000.0 / self.len_instructions().max(1) as f64
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
    last: ProfileCumulative,
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
            last: ProfileCumulative::default(),
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

    /// Closes the current interval at `now` (a cumulative snapshot the
    /// caller assembles) and schedules the next boundary.
    pub fn record_sample(&mut self, now: &ProfileCumulative) {
        self.records.push(ProfileRecord::between(&self.last, now));
        self.last = *now;
        if self.records.len() >= self.config.capacity {
            self.decimate();
        }
        self.next_due = (now.instructions / self.period + 1) * self.period;
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

    fn cum(instructions: u64, l2: u64, migrations: u64) -> ProfileCumulative {
        let mut residency = [0u64; PROFILE_MAX_CORES];
        residency[0] = instructions;
        ProfileCumulative {
            instructions,
            l2_misses: l2,
            migrations,
            residency,
            ..ProfileCumulative::default()
        }
    }

    #[test]
    fn records_are_deltas() {
        let a = cum(100, 10, 1);
        let b = cum(250, 25, 3);
        let r = ProfileRecord::between(&a, &b);
        assert_eq!(r.start, 100);
        assert_eq!(r.end, 250);
        assert_eq!(r.l2_misses, 15);
        assert_eq!(r.migrations, 2);
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
        assert_eq!(a.l2_misses, 9);
        assert_eq!(a.migrations, 1);
        assert_eq!(a.f_value, -7);
        assert_eq!(a.active_core, 3);
        assert_eq!(a.residency[0], 200);
    }

    #[test]
    fn hit_rate_and_density() {
        let mut r = ProfileRecord::between(&cum(0, 0, 0), &cum(1000, 50, 0));
        assert_eq!(r.affinity_hit_rate(), 0.0, "no reads");
        r.affinity_hits = 3;
        r.affinity_misses = 1;
        assert_eq!(r.affinity_hit_rate(), 0.75);
        assert_eq!(r.l2_miss_density(), 50.0);
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
        let total: u64 = p.records().iter().map(|r| r.l2_misses).sum();
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
