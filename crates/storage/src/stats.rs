//! Deterministic per-table statistics for the cost-based planner.
//!
//! Every replica must pick the same plan for the same statement at the
//! same snapshot height, because the chosen index range doubles as the
//! SSI predicate lock (§4.3) and therefore feeds abort decisions and the
//! chain bytes. The statistics here are engineered for that:
//!
//! * they are **exact**, not sampled: per indexed column the table keeps
//!   a [`BTreeMap`] of key → live-row count, maintained from the write
//!   sets the serial commit gate validated — the same deterministic
//!   stream every replica folds in block order;
//! * planning never reads the live maps. After each block's apply the
//!   commit thread **seals** a scalar [`TableSummary`] (row count,
//!   per-column distinct/min/max) stamped with the block height, and
//!   the planner looks up the summary *as of its snapshot height*, so
//!   an execute-order transaction racing a later block's commit still
//!   plans from the same inputs on every node;
//! * a **rebuild** from the heap recomputes exactly the values the
//!   incremental fold maintains (both count the versions visible at the
//!   sealed height), so snapshot restores and fast-syncs are semantic
//!   no-ops on the summary values and replicas restored at different
//!   moments cannot diverge.
//!
//! Summaries are pushed only when the values changed, so two replicas
//! whose histories were built at different times (one restored from a
//! snapshot, one replaying from genesis) still agree on the summary
//! *value* at every height both can serve, which is all the planner
//! consumes. NULLs are excluded from the key maps: they are never
//! sargable, and excluding them keeps min/max meaningful for range
//! interpolation.

use std::collections::BTreeMap;

use bcrdb_common::schema::TableSchema;
use bcrdb_common::value::Value;

/// Blocks of sealed summary history retained for as-of-height planning.
/// A fixed constant (pruning is keyed to the sealed block height, a pure
/// function of the chain), deliberately matching the checkpoint/vacuum
/// retention horizon: a snapshot older than this is already stale for
/// the execute-order flow.
pub const STATS_HISTORY_HORIZON: u64 = 64;

/// Scalar summary of one indexed column at a sealed height.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnSummary {
    /// Distinct non-NULL keys.
    pub distinct: u64,
    /// Live rows with a non-NULL value in this column.
    pub count: u64,
    /// Smallest non-NULL key.
    pub min: Option<Value>,
    /// Largest non-NULL key.
    pub max: Option<Value>,
}

/// Per-table scalar summary at a sealed height — the planner's input.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct TableSummary {
    /// Live rows visible at the sealed height.
    pub rows: u64,
    /// Per-column summaries, ascending by column ordinal.
    pub columns: Vec<(usize, ColumnSummary)>,
}

impl TableSummary {
    /// Summary of the given column ordinal, if it is a stat column.
    pub fn column(&self, col: usize) -> Option<&ColumnSummary> {
        self.columns
            .binary_search_by_key(&col, |(c, _)| *c)
            .ok()
            .map(|i| &self.columns[i].1)
    }
}

/// The statistics change of one committed transaction against one table,
/// computed by the serial validation gate from the write set's old/new
/// row images and folded on the commit thread in block order.
#[derive(Clone, Debug, Default)]
pub struct StatsDelta {
    /// Target table name.
    pub table: String,
    /// Indexed (column, value) pairs leaving the live set.
    pub removed: Vec<(usize, Value)>,
    /// Indexed (column, value) pairs entering the live set.
    pub added: Vec<(usize, Value)>,
    /// Net live-row change (inserts minus deletes).
    pub live_delta: i64,
}

/// Columns a table keeps statistics for: the single-column primary key
/// (if any) first, then every secondary index, deduplicated — the same
/// set the SSI write probes cover.
pub fn stat_columns(schema: &TableSchema) -> Vec<usize> {
    let mut out = Vec::new();
    if schema.primary_key.len() == 1 {
        out.push(schema.primary_key[0]);
    }
    for idx in &schema.indexes {
        if !out.contains(&idx.column) {
            out.push(idx.column);
        }
    }
    out
}

/// Exact live key counts of one stat column.
#[derive(Debug, Default)]
struct ColumnKeys {
    /// Non-NULL key → live rows carrying it.
    counts: BTreeMap<Value, u64>,
    /// Sum of `counts`' values, kept beside the map so that sealing a
    /// summary after every block does not walk one entry per row.
    non_null: u64,
}

/// Live statistics of one table: exact per-column key counts plus the
/// sealed summary history the planner reads.
#[derive(Debug, Default)]
pub struct TableStats {
    rows: u64,
    /// Per stat column. `BTreeMap` throughout — iteration order feeds
    /// the sealed summaries.
    keys: BTreeMap<usize, ColumnKeys>,
    /// Sealed summaries, ascending by height, pushed only when changed.
    history: Vec<(u64, TableSummary)>,
    /// Set when the stat-column set changed (CREATE INDEX) and the maps
    /// must be rebuilt from the heap before the next seal.
    dirty: bool,
}

impl TableStats {
    /// Fresh, empty statistics tracking the given columns.
    pub fn with_columns(columns: &[usize]) -> TableStats {
        TableStats {
            keys: columns
                .iter()
                .map(|c| (*c, ColumnKeys::default()))
                .collect(),
            ..TableStats::default()
        }
    }

    /// Start tracking `column` (CREATE INDEX): its counts are unknown
    /// until the next rebuild, so the stats are marked dirty.
    pub fn add_column(&mut self, column: usize) {
        self.keys.entry(column).or_default();
        self.dirty = true;
    }

    /// True when a CREATE INDEX invalidated the maps and a rebuild is
    /// required before the next seal.
    pub fn dirty(&self) -> bool {
        self.dirty
    }

    /// Fold one transaction's delta into the live maps. Values for
    /// columns not (yet) tracked are ignored — they are covered by the
    /// rebuild the dirty flag forces.
    pub fn apply(&mut self, delta: &StatsDelta) {
        for (col, value) in &delta.removed {
            if value.is_null() {
                continue;
            }
            if let Some(keys) = self.keys.get_mut(col) {
                if let Some(n) = keys.counts.get_mut(value) {
                    *n -= 1;
                    if *n == 0 {
                        keys.counts.remove(value);
                    }
                    keys.non_null -= 1;
                }
            }
        }
        for (col, value) in &delta.added {
            if value.is_null() {
                continue;
            }
            if let Some(keys) = self.keys.get_mut(col) {
                *keys.counts.entry(value.clone()).or_insert(0) += 1;
                keys.non_null += 1;
            }
        }
        self.rows = (self.rows as i64 + delta.live_delta).max(0) as u64;
    }

    /// Replace the live maps with values recomputed from the heap as of
    /// `height`, clear the dirty flag and seal. Exactness makes this a
    /// semantic no-op when the incremental fold was already tracking
    /// every column.
    pub fn install(&mut self, rows: u64, keys: BTreeMap<usize, BTreeMap<Value, u64>>, height: u64) {
        self.rows = rows;
        self.keys = keys
            .into_iter()
            .map(|(col, counts)| {
                let non_null = counts.values().sum();
                (col, ColumnKeys { counts, non_null })
            })
            .collect();
        self.dirty = false;
        self.seal(height);
    }

    /// Seal the current values as the summary at `height`, pushing a
    /// history entry only when the values changed, and prune entries
    /// older than the horizon (keeping the newest at-or-below-horizon
    /// entry as the floor anchor).
    pub fn seal(&mut self, height: u64) {
        let summary = self.current_summary();
        match self.history.last_mut() {
            Some((h, s)) if *h == height => *s = summary,
            Some((_, s)) if *s == summary => {}
            _ => self.history.push((height, summary)),
        }
        let floor = height.saturating_sub(STATS_HISTORY_HORIZON);
        if let Some(anchor) = self.history.iter().rposition(|(h, _)| *h <= floor) {
            self.history.drain(..anchor);
        }
    }

    /// The sealed summary as of `height`: the newest entry at or below
    /// it. `None` when nothing was sealed that early — the planner falls
    /// back to the stats-free heuristic.
    pub fn summary_at(&self, height: u64) -> Option<TableSummary> {
        self.history
            .iter()
            .rev()
            .find(|(h, _)| *h <= height)
            .map(|(_, s)| s.clone())
    }

    fn current_summary(&self) -> TableSummary {
        TableSummary {
            rows: self.rows,
            columns: self
                .keys
                .iter()
                .map(|(col, keys)| {
                    (
                        *col,
                        ColumnSummary {
                            distinct: keys.counts.len() as u64,
                            count: keys.non_null,
                            min: keys.counts.keys().next().cloned(),
                            max: keys.counts.keys().next_back().cloned(),
                        },
                    )
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcrdb_common::schema::{Column, DataType};

    fn delta(
        added: Vec<(usize, Value)>,
        removed: Vec<(usize, Value)>,
        live_delta: i64,
    ) -> StatsDelta {
        StatsDelta {
            table: "t".into(),
            removed,
            added,
            live_delta,
        }
    }

    #[test]
    fn fold_and_seal_roundtrip() {
        let mut s = TableStats::with_columns(&[0]);
        s.apply(&delta(
            vec![(0, Value::Int(1)), (0, Value::Int(2))],
            vec![],
            2,
        ));
        s.seal(1);
        let sum = s.summary_at(1).unwrap();
        assert_eq!(sum.rows, 2);
        let c = sum.column(0).unwrap();
        assert_eq!(c.distinct, 2);
        assert_eq!(c.count, 2);
        assert_eq!(c.min, Some(Value::Int(1)));
        assert_eq!(c.max, Some(Value::Int(2)));

        // Delete one key: counts shrink, min moves.
        s.apply(&delta(vec![], vec![(0, Value::Int(1))], -1));
        s.seal(2);
        let sum2 = s.summary_at(2).unwrap();
        assert_eq!(sum2.rows, 1);
        assert_eq!(sum2.column(0).unwrap().min, Some(Value::Int(2)));
        // As-of height 1 still sees the old summary.
        assert_eq!(s.summary_at(1).unwrap(), sum);
        assert!(s.summary_at(0).is_none());
    }

    #[test]
    fn unchanged_seal_pushes_nothing() {
        let mut s = TableStats::with_columns(&[0]);
        s.apply(&delta(vec![(0, Value::Int(7))], vec![], 1));
        s.seal(1);
        s.seal(2);
        s.seal(3);
        assert_eq!(s.history.len(), 1);
        // Value at later heights equals the floor entry's value.
        assert_eq!(s.summary_at(3), s.summary_at(1));
    }

    #[test]
    fn history_prunes_to_horizon_with_floor_anchor() {
        let mut s = TableStats::with_columns(&[0]);
        for h in 1..=(STATS_HISTORY_HORIZON + 10) {
            s.apply(&delta(vec![(0, Value::Int(h as i64))], vec![], 1));
            s.seal(h);
        }
        let floor = (STATS_HISTORY_HORIZON + 10) - STATS_HISTORY_HORIZON;
        // Entries strictly below the newest at-or-below-floor entry are gone.
        assert_eq!(s.history.first().unwrap().0, floor);
        // The floor anchor still answers queries at the horizon edge.
        assert_eq!(s.summary_at(floor).unwrap().rows, floor);
    }

    #[test]
    fn nulls_are_excluded_from_key_maps() {
        let mut s = TableStats::with_columns(&[0]);
        s.apply(&delta(
            vec![(0, Value::Null), (0, Value::Int(1))],
            vec![],
            2,
        ));
        s.seal(1);
        let sum = s.summary_at(1).unwrap();
        assert_eq!(sum.rows, 2);
        assert_eq!(sum.column(0).unwrap().count, 1);
        assert_eq!(sum.column(0).unwrap().distinct, 1);
    }

    /// The running non-NULL count is the map's sum: after any sequence of
    /// folds — duplicates, removals down to zero, removals of keys never
    /// added, NULLs — the summary equals the one `install` seals from a
    /// rebuild of the same live set.
    #[test]
    fn random_applies_seal_what_a_rebuild_installs() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut folded = TableStats::with_columns(&[0, 2]);
        let mut live: BTreeMap<usize, BTreeMap<Value, u64>> =
            BTreeMap::from([(0, BTreeMap::new()), (2, BTreeMap::new())]);
        let mut rows = 0u64;
        for step in 0..5_000u64 {
            let col = if next(2) == 0 { 0 } else { 2 };
            let value = match next(10) {
                0 => Value::Null,
                _ => Value::Int(next(40) as i64),
            };
            if next(3) > 0 {
                folded.apply(&delta(vec![(col, value.clone())], vec![], 1));
                rows += 1;
                if !value.is_null() {
                    *live.get_mut(&col).unwrap().entry(value).or_insert(0) += 1;
                }
            } else {
                // May name a key with no live row: the fold ignores it.
                folded.apply(&delta(vec![], vec![(col, value.clone())], -1));
                rows = rows.saturating_sub(1);
                let counts = live.get_mut(&col).unwrap();
                if let Some(n) = counts.get_mut(&value) {
                    *n -= 1;
                    if *n == 0 {
                        counts.remove(&value);
                    }
                }
            }
            if step % 97 == 0 {
                let mut rebuilt = TableStats::with_columns(&[0, 2]);
                rebuilt.install(rows, live.clone(), step);
                assert_eq!(folded.current_summary(), rebuilt.current_summary());
            }
        }
    }

    #[test]
    fn add_column_marks_dirty_and_install_clears() {
        let mut s = TableStats::with_columns(&[0]);
        assert!(!s.dirty());
        s.add_column(1);
        assert!(s.dirty());
        let mut keys = BTreeMap::new();
        keys.insert(0, BTreeMap::from([(Value::Int(1), 1u64)]));
        keys.insert(1, BTreeMap::from([(Value::Text("a".into()), 1u64)]));
        s.install(1, keys, 5);
        assert!(!s.dirty());
        let sum = s.summary_at(5).unwrap();
        assert_eq!(sum.column(1).unwrap().distinct, 1);
    }

    #[test]
    fn stat_columns_prefers_single_pk_then_indexes() {
        let mut schema = TableSchema::new(
            "t",
            vec![
                Column::new("id", DataType::Int),
                Column::new("s", DataType::Text),
            ],
            vec![0],
        )
        .unwrap();
        schema.add_index("idx_s", "s").unwrap();
        assert_eq!(stat_columns(&schema), vec![0, 1]);
    }
}
