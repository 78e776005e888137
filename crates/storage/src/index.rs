//! B-tree secondary indexes.
//!
//! An index maps a column value to the heap positions of *all* versions
//! carrying that value (live, dead and in-flight alike); visibility is
//! resolved by the caller via [`crate::snapshot::classify`]. This mirrors
//! PostgreSQL, where every update inserts a new index entry and scans
//! filter by tuple visibility (§4.1 of the paper).
//!
//! The paper routes all predicate reads through indexes in the
//! execute-order-in-parallel flow (§4.3); [`KeyRange`] is both the scan
//! argument here and the *predicate lock* granularity used by the SSI layer.

use std::collections::btree_map::{BTreeMap, Entry};
use std::ops::Bound;

use bcrdb_common::value::Value;
use parking_lot::RwLock;

/// An inclusive/exclusive/unbounded key interval over one column.
///
/// Shared between index scans and SSI predicate locks so that "the set of
/// rows this transaction read" and "the set of rows a writer changed" are
/// compared in the same language.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyRange {
    /// Lower bound.
    pub low: Bound<Value>,
    /// Upper bound.
    pub high: Bound<Value>,
}

impl KeyRange {
    /// The full range (a whole-column predicate lock).
    pub fn all() -> KeyRange {
        KeyRange {
            low: Bound::Unbounded,
            high: Bound::Unbounded,
        }
    }

    /// Exact-match range.
    pub fn eq(v: Value) -> KeyRange {
        KeyRange {
            low: Bound::Included(v.clone()),
            high: Bound::Included(v),
        }
    }

    /// `[low, high]` inclusive range (for BETWEEN).
    pub fn between(low: Value, high: Value) -> KeyRange {
        KeyRange {
            low: Bound::Included(low),
            high: Bound::Included(high),
        }
    }

    /// `> v` or `>= v` range.
    pub fn greater(v: Value, inclusive: bool) -> KeyRange {
        KeyRange {
            low: if inclusive {
                Bound::Included(v)
            } else {
                Bound::Excluded(v)
            },
            high: Bound::Unbounded,
        }
    }

    /// `< v` or `<= v` range.
    pub fn less(v: Value, inclusive: bool) -> KeyRange {
        KeyRange {
            low: Bound::Unbounded,
            high: if inclusive {
                Bound::Included(v)
            } else {
                Bound::Excluded(v)
            },
        }
    }

    /// Does the range contain `v`?
    pub fn contains(&self, v: &Value) -> bool {
        let lo_ok = match &self.low {
            Bound::Unbounded => true,
            Bound::Included(l) => v.cmp_total(l) != std::cmp::Ordering::Less,
            Bound::Excluded(l) => v.cmp_total(l) == std::cmp::Ordering::Greater,
        };
        let hi_ok = match &self.high {
            Bound::Unbounded => true,
            Bound::Included(h) => v.cmp_total(h) != std::cmp::Ordering::Greater,
            Bound::Excluded(h) => v.cmp_total(h) == std::cmp::Ordering::Less,
        };
        lo_ok && hi_ok
    }

    /// Do two ranges overlap? (Used to merge predicate locks.)
    pub fn overlaps(&self, other: &KeyRange) -> bool {
        // r1.low <= r2.high && r2.low <= r1.high, honoring bound kinds.
        low_leq_high(&self.low, &other.high) && low_leq_high(&other.low, &self.high)
    }

    /// Can no key fall inside? (`BETWEEN 5 AND 2`, `> 3` with `< 3`.)
    pub fn is_empty(&self) -> bool {
        !low_leq_high(&self.low, &self.high)
    }
}

fn low_leq_high(low: &Bound<Value>, high: &Bound<Value>) -> bool {
    match (low, high) {
        (Bound::Unbounded, _) | (_, Bound::Unbounded) => true,
        (Bound::Included(l), Bound::Included(h)) => l.cmp_total(h) != std::cmp::Ordering::Greater,
        (Bound::Included(l), Bound::Excluded(h))
        | (Bound::Excluded(l), Bound::Included(h))
        | (Bound::Excluded(l), Bound::Excluded(h)) => l.cmp_total(h) == std::cmp::Ordering::Less,
    }
}

/// The heap positions under one key. A unique column (every primary key,
/// the ledger's `txid`) has one version per key until the row is updated,
/// so the first position is held inline and only a second one pays for a
/// heap `Vec`.
enum Positions {
    One(usize),
    /// Two or more, in insertion order.
    Many(Vec<usize>),
}

impl Positions {
    fn as_slice(&self) -> &[usize] {
        match self {
            Positions::One(p) => std::slice::from_ref(p),
            Positions::Many(ps) => ps,
        }
    }

    fn push(&mut self, position: usize) {
        match self {
            Positions::One(first) => *self = Positions::Many(vec![*first, position]),
            Positions::Many(ps) => ps.push(position),
        }
    }

    /// Drop `position` if present. `false` when that was the last one and
    /// the key must go.
    fn remove(&mut self, position: usize) -> bool {
        match self {
            Positions::One(p) => *p != position,
            Positions::Many(ps) => {
                if let Some(i) = ps.iter().position(|p| *p == position) {
                    ps.remove(i);
                }
                if let [last] = ps[..] {
                    *self = Positions::One(last);
                }
                true
            }
        }
    }
}

/// A concurrent B-tree index from column value to heap positions.
pub struct BTreeIndex {
    /// Indexed column ordinal.
    pub column: usize,
    /// Index name (for catalog display).
    pub name: String,
    map: RwLock<BTreeMap<Value, Positions>>,
}

impl BTreeIndex {
    /// Empty index over `column`.
    pub fn new(name: impl Into<String>, column: usize) -> BTreeIndex {
        BTreeIndex {
            column,
            name: name.into(),
            map: RwLock::new(BTreeMap::new()),
        }
    }

    /// Register a heap position under `key`.
    pub fn insert(&self, key: Value, position: usize) {
        match self.map.write().entry(key) {
            Entry::Vacant(e) => {
                e.insert(Positions::One(position));
            }
            Entry::Occupied(mut e) => e.get_mut().push(position),
        }
    }

    /// Heap positions whose key falls in `range`, in key order. Positions
    /// under the same key keep insertion order; the caller re-sorts visible
    /// results by row id for cross-node determinism.
    pub fn positions_in_range(&self, range: &KeyRange) -> Vec<usize> {
        // `BTreeMap::range` panics on an inverted range, and SQL can
        // write one (`k BETWEEN 5 AND 2`).
        if range.is_empty() {
            return Vec::new();
        }
        let map = self.map.read();
        map.range((range.low.clone(), range.high.clone()))
            .flat_map(|(_, positions)| positions.as_slice().iter().copied())
            .collect()
    }

    /// Heap positions with exactly `key`.
    pub fn positions_eq(&self, key: &Value) -> Vec<usize> {
        self.map
            .read()
            .get(key)
            .map_or_else(Vec::new, |positions| positions.as_slice().to_vec())
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.map.read().len()
    }

    /// Total number of position entries.
    pub fn entry_count(&self) -> usize {
        self.map
            .read()
            .values()
            .map(|positions| positions.as_slice().len())
            .sum()
    }

    /// Drop one `(key, position)` entry. Position-targeted removal is what
    /// lets vacuum prune reclaimed heap slots without clearing and
    /// rebuilding the whole index (a rebuild would race concurrent
    /// appends into the tail segment and could double-register them).
    pub fn remove(&self, key: &Value, position: usize) {
        let mut map = self.map.write();
        if let Some(positions) = map.get_mut(key) {
            if !positions.remove(position) {
                map.remove(key);
            }
        }
    }

    /// Drop all entries.
    pub fn clear(&self) {
        self.map.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_contains() {
        let r = KeyRange::between(Value::Int(2), Value::Int(5));
        assert!(!r.contains(&Value::Int(1)));
        assert!(r.contains(&Value::Int(2)));
        assert!(r.contains(&Value::Int(5)));
        assert!(!r.contains(&Value::Int(6)));

        let r = KeyRange::greater(Value::Int(3), false);
        assert!(!r.contains(&Value::Int(3)));
        assert!(r.contains(&Value::Int(4)));

        let r = KeyRange::less(Value::Int(3), true);
        assert!(r.contains(&Value::Int(3)));
        assert!(!r.contains(&Value::Int(4)));

        assert!(KeyRange::all().contains(&Value::Text("anything".into())));
    }

    #[test]
    fn range_overlap() {
        let a = KeyRange::between(Value::Int(1), Value::Int(5));
        let b = KeyRange::between(Value::Int(5), Value::Int(9));
        let c = KeyRange::between(Value::Int(6), Value::Int(9));
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(KeyRange::all().overlaps(&a));
        // Excluded boundaries do not touch.
        let d = KeyRange::greater(Value::Int(5), false);
        assert!(!a.overlaps(&d));
        let e = KeyRange::greater(Value::Int(5), true);
        assert!(a.overlaps(&e));
        // Point ranges.
        assert!(KeyRange::eq(Value::Int(3)).overlaps(&a));
        assert!(!KeyRange::eq(Value::Int(0)).overlaps(&a));
    }

    #[test]
    fn index_insert_and_scan() {
        let idx = BTreeIndex::new("idx_a", 0);
        idx.insert(Value::Int(10), 0);
        idx.insert(Value::Int(20), 1);
        idx.insert(Value::Int(10), 2); // second version of key 10
        idx.insert(Value::Int(30), 3);

        assert_eq!(idx.positions_eq(&Value::Int(10)), vec![0, 2]);
        assert_eq!(idx.positions_eq(&Value::Int(99)), Vec::<usize>::new());
        assert_eq!(
            idx.positions_in_range(&KeyRange::between(Value::Int(10), Value::Int(20))),
            vec![0, 2, 1]
        );
        assert_eq!(idx.positions_in_range(&KeyRange::all()), vec![0, 2, 1, 3]);
        // Inverted and empty ranges match nothing (and must not panic).
        let (lo, hi) = (Value::Int(10), Value::Int(20));
        let inverted = KeyRange::between(hi.clone(), lo.clone());
        let open_point = KeyRange {
            low: Bound::Excluded(lo.clone()),
            high: Bound::Excluded(lo),
        };
        for empty in [inverted, open_point] {
            assert!(empty.is_empty());
            assert_eq!(idx.positions_in_range(&empty), Vec::<usize>::new());
        }
        assert!(!KeyRange::eq(hi).is_empty());
        assert_eq!(idx.key_count(), 3);
        assert_eq!(idx.entry_count(), 4);
        idx.clear();
        assert_eq!(idx.entry_count(), 0);
    }

    #[test]
    fn remove_targets_one_position() {
        let idx = BTreeIndex::new("idx", 0);
        idx.insert(Value::Int(10), 0);
        idx.insert(Value::Int(10), 2);
        idx.insert(Value::Int(20), 1);
        idx.remove(&Value::Int(10), 0);
        assert_eq!(idx.positions_eq(&Value::Int(10)), vec![2]);
        // Removing the last position under a key drops the key.
        idx.remove(&Value::Int(20), 1);
        assert_eq!(idx.key_count(), 1);
        // Removing an unknown (key, position) pair is a no-op.
        idx.remove(&Value::Int(99), 7);
        idx.remove(&Value::Int(10), 7);
        assert_eq!(idx.positions_eq(&Value::Int(10)), vec![2]);
    }

    #[test]
    fn mixed_type_keys_order_consistently() {
        // A nullable indexed column can hold NULL; ensure the canonical
        // value order keeps scans total.
        let idx = BTreeIndex::new("idx", 0);
        idx.insert(Value::Null, 0);
        idx.insert(Value::Int(1), 1);
        assert_eq!(idx.positions_in_range(&KeyRange::all()), vec![0, 1]);
        assert_eq!(
            idx.positions_in_range(&KeyRange::greater(Value::Int(0), true)),
            vec![1]
        );
    }

    /// Seeded model test: the inline-first representation against the
    /// plain `BTreeMap<Value, Vec<usize>>` it replaced. A six-key domain
    /// and eight positions make every key go empty → one → many → one →
    /// empty many times, and half the removals name a position that is
    /// not there.
    #[test]
    fn matches_reference_map_under_random_inserts_and_removes() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            // xorshift64*
            seed ^= seed >> 12;
            seed ^= seed << 25;
            seed ^= seed >> 27;
            (seed.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) % bound
        };
        let idx = BTreeIndex::new("idx", 0);
        let mut model: BTreeMap<Value, Vec<usize>> = BTreeMap::new();
        let mut widest = 0;
        for step in 0..4_000 {
            let key = Value::Int(next(6) as i64);
            let position = next(8) as usize;
            if next(2) == 0 {
                // The heap never registers one slot twice under a key.
                let slots = model.entry(key.clone()).or_default();
                if !slots.contains(&position) {
                    slots.push(position);
                    idx.insert(key, position);
                }
            } else {
                if let Some(slots) = model.get_mut(&key) {
                    slots.retain(|p| *p != position);
                    if slots.is_empty() {
                        model.remove(&key);
                    }
                }
                idx.remove(&key, position);
            }

            assert_eq!(idx.key_count(), model.len(), "step {step}");
            assert_eq!(
                idx.entry_count(),
                model.values().map(Vec::len).sum::<usize>(),
                "step {step}"
            );
            for k in -1..7 {
                let k = Value::Int(k);
                let expected = model.get(&k).cloned().unwrap_or_default();
                assert_eq!(idx.positions_eq(&k), expected, "step {step} key {k:?}");
            }
            // One position is always held inline, also after shrinking.
            for (k, positions) in idx.map.read().iter() {
                let inline = matches!(positions, Positions::One(_));
                assert_eq!(inline, model[k].len() == 1, "step {step} key {k:?}");
                widest = widest.max(model[k].len());
            }

            let (a, b) = (next(8) as i64 - 1, next(8) as i64 - 1);
            let bound = |v: i64, kind: u64| match kind {
                0 => Bound::Included(Value::Int(v)),
                1 => Bound::Excluded(Value::Int(v)),
                _ => Bound::Unbounded,
            };
            let range = KeyRange {
                low: bound(a.min(b), next(3)),
                high: bound(a.max(b), next(3)),
            };
            if a == b && range.low == range.high && matches!(range.low, Bound::Excluded(_)) {
                continue; // `BTreeMap::range` rejects (Excluded(x), Excluded(x))
            }
            let expected: Vec<usize> = model
                .iter()
                .filter(|(k, _)| range.contains(k))
                .flat_map(|(_, slots)| slots.iter().copied())
                .collect();
            assert_eq!(
                idx.positions_in_range(&range),
                expected,
                "step {step} {range:?}"
            );
        }
        assert!(widest > 2, "the walk reached many positions under one key");
    }
}
