//! State-snapshot persistence.
//!
//! Recovery (§3.6 of the paper) is driven by re-executing blocks from the
//! block store; to bound replay time, a node periodically serializes its
//! *committed* state — all tables, full version history — to a snapshot
//! file, and replays only the blocks after the snapshot height on restart.
//! Only committed versions are persisted: in-flight and aborted versions
//! are reconstructed (or not) by replay.
//!
//! The encoding is the canonical codec. For in-memory catalogs (the v1
//! `BCRDBSS1` format) a snapshot doubles as a deterministic full-state
//! digest source for cross-node audits; paged catalogs emit the v2
//! `BCRDBSS2` format, whose bytes depend on which segments happen to be
//! resident and are therefore **not** cross-node comparable — state
//! comparisons between paged nodes go through the node's state hash
//! (which enumerates every version, faulting paged segments in) instead.
//!
//! ## v2 and paged-segment carry
//!
//! A v2 snapshot records each table's exact heap geometry (so restore
//! rebuilds stable positions), the resident committed versions with
//! their positions, and the list of paged-out segments. Paged segments
//! travel one of two ways ([`SnapshotCarry`]):
//!
//! - **External** (disk snapshots): the snapshot stores only the
//!   segment ids; their chains live in the node's own page files, which
//!   `write_snapshot` checkpoints at the same barrier. Restore attaches
//!   the chains and re-derives index entries by streaming them.
//! - **Inline** (fast-sync serving): raw page images ride inside the
//!   snapshot bytes, so a peer without access to our page directory can
//!   decode them — to resident versions — and re-spill on its own
//!   schedule.

use std::collections::BTreeSet;
use std::sync::Arc;

use bcrdb_common::codec::{Decoder, Encoder};
use bcrdb_common::error::{Error, Result};
use bcrdb_common::ids::{BlockHeight, RowId, TxId};
use bcrdb_common::schema::{Column, DataType, IndexDef, TableSchema};

use crate::catalog::Catalog;
use crate::page::{self, PageBytes};
use crate::pager::PagedStore;
use crate::table::{Table, TablePager, SEGMENT_SHIFT};
use crate::version::Version;

/// Magic bytes prefixing v1 (all-resident) snapshots.
const MAGIC: &[u8; 8] = b"BCRDBSS1";
/// Magic bytes prefixing v2 (paged-heap) snapshots.
const MAGIC_V2: &[u8; 8] = b"BCRDBSS2";

/// How a v2 snapshot ships paged-out segments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotCarry {
    /// Only chain ids are recorded; the pages stay in the node's own
    /// page files (checkpointed at the same barrier). The snapshot is
    /// only decodable by the node that wrote it.
    External,
    /// Raw page images are embedded in the snapshot bytes, making it
    /// self-contained — the form served to fast-syncing peers.
    Inline,
}

/// Serialize the committed state of every table in the catalog at
/// `height`. In-memory catalogs emit the v1 format; store-backed
/// catalogs emit v2 with external carry (see
/// [`encode_catalog_carry`] to embed the pages instead).
pub fn encode_catalog(catalog: &Catalog, height: BlockHeight) -> Vec<u8> {
    encode_catalog_carry(catalog, height, SnapshotCarry::External)
        .expect("external carry does no page I/O and cannot fail")
}

/// Serialize the catalog at `height` with an explicit carry mode for
/// paged segments. Only inline carry can fail (it reads chain pages
/// through the buffer pool). The carry mode is ignored for in-memory
/// catalogs, which always emit v1.
pub fn encode_catalog_carry(
    catalog: &Catalog,
    height: BlockHeight,
    carry: SnapshotCarry,
) -> Result<Vec<u8>> {
    let mut enc = Encoder::with_capacity(64 * 1024);
    let paged = catalog.store().is_some();
    enc.put_bytes(if paged { MAGIC_V2 } else { MAGIC });
    enc.put_u64(height);
    let names = catalog.table_names();
    enc.put_u32(names.len() as u32);
    for name in names {
        let table = catalog.get(&name).expect("listed table exists");
        if paged {
            encode_table_v2(&mut enc, &table, carry)?;
        } else {
            encode_table(&mut enc, &table);
        }
    }
    Ok(enc.finish().to_vec())
}

/// One committed version record (shared by v1 tables, v2 resident
/// slots and page cells — see `page::encode_cell`).
fn encode_version(enc: &mut Encoder, v: &Version) {
    let st = v.state();
    enc.put_u64(v.xmin.0);
    enc.put_u64(st.row_id.0);
    enc.put_u64(st.creator_block.expect("only committed versions persist"));
    match st.deleter_block {
        Some(db) => {
            enc.put_bool(true);
            enc.put_u64(db);
            enc.put_u64(st.xmax_committed.map_or(0, |t| t.0));
        }
        None => enc.put_bool(false),
    }
    enc.put_row(&v.data);
}

fn decode_version(dec: &mut Decoder<'_>) -> Result<Version> {
    let xmin = TxId(dec.get_u64()?);
    let row_id = RowId(dec.get_u64()?);
    let creator = dec.get_u64()?;
    let (deleter, xmax) = if dec.get_bool()? {
        let db = dec.get_u64()?;
        let xm = dec.get_u64()?;
        (Some(db), if xm == 0 { None } else { Some(TxId(xm)) })
    } else {
        (None, None)
    };
    let data = dec.get_row()?;
    Ok(Version::restored(
        xmin, data, row_id, creator, deleter, xmax,
    ))
}

fn encode_schema(enc: &mut Encoder, table: &Table) {
    let schema = table.schema();
    enc.put_str(&schema.name);
    enc.put_u32(schema.columns.len() as u32);
    for c in &schema.columns {
        enc.put_str(&c.name);
        enc.put_u8(dtype_tag(c.dtype));
        enc.put_bool(c.nullable);
    }
    enc.put_u32(schema.primary_key.len() as u32);
    for &pk in &schema.primary_key {
        enc.put_u32(pk as u32);
    }
    enc.put_u32(schema.indexes.len() as u32);
    for idx in &schema.indexes {
        enc.put_str(&idx.name);
        enc.put_u32(idx.column as u32);
        enc.put_bool(idx.unique);
    }
    enc.put_u64(table.row_id_watermark());
}

fn encode_table(enc: &mut Encoder, table: &Table) {
    encode_schema(enc, table);
    // Persist committed versions only, in heap order. `all_versions`
    // faults paged segments in, but this path only runs for in-memory
    // catalogs.
    let committed: Vec<_> = table
        .all_versions()
        .into_iter()
        .filter(|v| {
            let st = v.state();
            !st.aborted && st.creator_block.is_some()
        })
        .collect();
    enc.put_u32(committed.len() as u32);
    for v in committed {
        encode_version(enc, &v);
    }
}

fn encode_table_v2(enc: &mut Encoder, table: &Table, carry: SnapshotCarry) -> Result<()> {
    encode_schema(enc, table);
    enc.put_u64(table.heap_len() as u64);

    // Resident committed versions keep their exact heap positions so
    // restore rebuilds the same geometry the paged chains index into.
    let mut resident: Vec<(usize, Arc<Version>)> = Vec::new();
    table.for_each_resident_slot(|pos, v| {
        let st = v.state();
        if !st.aborted && st.creator_block.is_some() {
            resident.push((pos, Arc::clone(v)));
        }
    });
    enc.put_u32(resident.len() as u32);
    for (pos, v) in resident {
        enc.put_u64(pos as u64);
        encode_version(enc, &v);
    }

    let paged = table.paged_segments();
    enc.put_u32(paged.len() as u32);
    for &s in &paged {
        enc.put_u32(s);
    }
    match carry {
        SnapshotCarry::External => enc.put_u8(0),
        SnapshotCarry::Inline => {
            enc.put_u8(1);
            let pager = table.pager().expect("store-backed tables have a pager");
            for &s in &paged {
                let pages = pager
                    .store
                    .read_chain(&pager.file, s)?
                    .ok_or_else(|| Error::Codec(format!("paged segment {s} has no chain")))?;
                enc.put_u32(pages.len() as u32);
                for p in &pages {
                    enc.put_bytes(&p[..]);
                }
            }
        }
    }
    Ok(())
}

/// Restore a catalog from snapshot bytes; returns the snapshot height.
/// Equivalent to [`decode_catalog_with`] without a paged store: v1 and
/// v2-inline snapshots decode fully resident; v2-external fails (the
/// chains live in a page directory this caller does not have).
pub fn decode_catalog(bytes: &[u8]) -> Result<(Catalog, BlockHeight)> {
    decode_catalog_with(bytes, None)
}

/// Restore a catalog from snapshot bytes, optionally backed by a paged
/// store; returns the snapshot height.
///
/// With a store: v2-external snapshots *attach* each table's existing
/// chains (verifying the page file was checkpointed at the snapshot
/// height — a mismatch means the snapshot and the page files are from
/// different barriers, and the caller should fall back to replay);
/// v2-inline and v1 snapshots decode to resident versions over a fresh
/// page file (the incoming state supersedes anything on disk), and the
/// heap re-spills on the node's normal schedule.
pub fn decode_catalog_with(
    bytes: &[u8],
    store: Option<&Arc<PagedStore>>,
) -> Result<(Catalog, BlockHeight)> {
    let mut dec = Decoder::new(bytes);
    let magic = dec.get_bytes()?;
    let v2 = if magic == MAGIC_V2 {
        true
    } else if magic == MAGIC {
        false
    } else {
        return Err(Error::Codec("bad snapshot magic".into()));
    };
    let height = dec.get_u64()?;
    let catalog = match store {
        Some(s) => Catalog::with_store(Arc::clone(s)),
        None => Catalog::new(),
    };
    let table_count = dec.get_u32()?;
    for _ in 0..table_count {
        let table = if v2 {
            decode_table_v2(&mut dec, store, height)?
        } else {
            decode_table(&mut dec, store)?
        };
        catalog.install_table(Arc::new(table));
    }
    if !dec.is_exhausted() {
        return Err(Error::Codec("trailing bytes in snapshot".into()));
    }
    Ok((catalog, height))
}

fn decode_schema(dec: &mut Decoder<'_>) -> Result<(TableSchema, u64)> {
    let name = dec.get_str()?;
    let col_count = dec.get_u32()?;
    let mut columns = Vec::with_capacity(col_count as usize);
    for _ in 0..col_count {
        let cname = dec.get_str()?;
        let dtype = dtype_from_tag(dec.get_u8()?)?;
        let nullable = dec.get_bool()?;
        columns.push(Column {
            name: cname,
            dtype,
            nullable,
        });
    }
    let pk_count = dec.get_u32()?;
    let mut primary_key = Vec::with_capacity(pk_count as usize);
    for _ in 0..pk_count {
        primary_key.push(dec.get_u32()? as usize);
    }
    let mut schema = TableSchema::new(name, columns, primary_key)?;
    let idx_count = dec.get_u32()?;
    for _ in 0..idx_count {
        let iname = dec.get_str()?;
        let column = dec.get_u32()? as usize;
        let unique = dec.get_bool()?;
        schema.indexes.push(IndexDef {
            name: iname,
            column,
            unique,
        });
    }
    let watermark = dec.get_u64()?;
    Ok((schema, watermark))
}

/// Build a table's paging attachment over a **fresh** page file —
/// whatever the store held for this table before is superseded by the
/// snapshot being decoded.
fn fresh_pager(store: Option<&Arc<PagedStore>>, name: &str) -> Result<Option<TablePager>> {
    match store {
        Some(s) => Ok(Some(TablePager {
            store: Arc::clone(s),
            file: s.reset_file(name)?,
        })),
        None => Ok(None),
    }
}

fn decode_table(dec: &mut Decoder<'_>, store: Option<&Arc<PagedStore>>) -> Result<Table> {
    let (schema, watermark) = decode_schema(dec)?;
    let pager = fresh_pager(store, &schema.name)?;
    let table = Table::new_in(schema, pager);
    table.set_row_id_watermark(watermark);

    let version_count = dec.get_u32()?;
    for _ in 0..version_count {
        let v = decode_version(dec)?;
        table.append_restored(v);
    }
    Ok(table)
}

fn decode_table_v2(
    dec: &mut Decoder<'_>,
    store: Option<&Arc<PagedStore>>,
    height: BlockHeight,
) -> Result<Table> {
    let (schema, watermark) = decode_schema(dec)?;
    let name = schema.name.clone();
    let heap_len = dec.get_u64()? as usize;
    let resident_count = dec.get_u32()?;
    let mut resident = Vec::with_capacity(resident_count.min(1 << 20) as usize);
    for _ in 0..resident_count {
        let pos = dec.get_u64()? as usize;
        if pos >= heap_len {
            return Err(Error::Codec(format!(
                "table {name}: resident position {pos} outside heap of {heap_len}"
            )));
        }
        resident.push((pos, decode_version(dec)?));
    }
    let paged_count = dec.get_u32()?;
    let mut paged = Vec::with_capacity(paged_count.min(1 << 20) as usize);
    for _ in 0..paged_count {
        paged.push(dec.get_u32()?);
    }

    let table = match dec.get_u8()? {
        0 => {
            // External carry: the chains must already sit in this
            // node's own page file, checkpointed at the snapshot's
            // barrier.
            let store = store.ok_or_else(|| {
                Error::Codec(format!(
                    "table {name}: snapshot carries paged segments externally \
                     but no paged store is attached"
                ))
            })?;
            let file = store.open_file(&name, height)?;
            if !paged.is_empty() && file.checkpoint_height() != height {
                return Err(Error::Codec(format!(
                    "table {name}: page file checkpointed at {} but snapshot is at {height}",
                    file.checkpoint_height()
                )));
            }
            let table = Table::new_in(
                schema,
                Some(TablePager {
                    store: Arc::clone(store),
                    file: Arc::clone(&file),
                }),
            );
            table.set_row_id_watermark(watermark);
            table.preset_heap(heap_len);
            for (pos, v) in resident {
                table.install_at(pos, v);
            }
            let keep: BTreeSet<u32> = paged.iter().copied().collect();
            for &s in &paged {
                if file.chain(s).is_none() {
                    return Err(Error::Codec(format!(
                        "table {name}: paged segment {s} has no chain on disk"
                    )));
                }
                table.mark_paged(s as usize);
            }
            // Segments resident in the snapshot win over any leftover
            // chain (e.g. spilled after the barrier, before a crash).
            for s in file.chain_segments() {
                if !keep.contains(&s) {
                    file.drop_chain(s);
                }
            }
            table.reindex_paged();
            table
        }
        1 => {
            // Inline carry: decode the embedded pages to resident
            // versions — the receiver re-spills on its own schedule.
            let pager = fresh_pager(store, &name)?;
            let table = Table::new_in(schema, pager);
            table.set_row_id_watermark(watermark);
            table.preset_heap(heap_len);
            for (pos, v) in resident {
                table.install_at(pos, v);
            }
            for &s in &paged {
                let page_count = dec.get_u32()?;
                for _ in 0..page_count {
                    let bytes = dec.get_bytes()?;
                    let image: &PageBytes = bytes.as_slice().try_into().map_err(|_| {
                        Error::Codec(format!("table {name}: inline page has wrong size"))
                    })?;
                    page::read_header(image)?; // checksum check
                    for cell in page::cells(image)? {
                        let c = page::decode_cell(cell)?;
                        let pos = ((s as usize) << SEGMENT_SHIFT) + c.slot as usize;
                        if pos >= heap_len {
                            return Err(Error::Codec(format!(
                                "table {name}: inline cell position {pos} outside heap"
                            )));
                        }
                        table.install_at(
                            pos,
                            Version::restored(
                                c.xmin, c.row, c.row_id, c.creator, c.deleter, c.xmax,
                            ),
                        );
                    }
                }
            }
            table
        }
        other => return Err(Error::Codec(format!("table {name}: bad carry tag {other}"))),
    };
    Ok(table)
}

fn dtype_tag(d: DataType) -> u8 {
    match d {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Text => 3,
        DataType::Bytes => 4,
        DataType::Timestamp => 5,
    }
}

fn dtype_from_tag(t: u8) -> Result<DataType> {
    Ok(match t {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Text,
        4 => DataType::Bytes,
        5 => DataType::Timestamp,
        other => return Err(Error::Codec(format!("bad dtype tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::UNASSIGNED_ROW_ID;
    use bcrdb_common::value::Value;

    fn build_catalog() -> Catalog {
        let cat = Catalog::new();
        let schema = TableSchema::new(
            "inv",
            vec![
                Column::new("id", DataType::Int),
                Column::nullable("amount", DataType::Float),
            ],
            vec![0],
        )
        .unwrap();
        let t = cat.create_table(schema).unwrap();
        t.add_index("idx_amount", "amount").unwrap();

        // One live row, one updated (historical + successor), one aborted,
        // one in-flight — only committed versions should survive.
        let (_, v1) = t.append_version(
            TxId(1),
            vec![Value::Int(1), Value::Float(5.0)],
            UNASSIGNED_ROW_ID,
        );
        let r1 = t.alloc_row_id();
        v1.commit_create(1, r1);

        let (_, v2) = t.append_version(
            TxId(2),
            vec![Value::Int(2), Value::Float(7.5)],
            UNASSIGNED_ROW_ID,
        );
        let r2 = t.alloc_row_id();
        v2.commit_create(1, r2);
        v2.add_pending_writer(TxId(3));
        v2.commit_delete(TxId(3), 2);
        let (_, v2b) = t.append_version(TxId(3), vec![Value::Int(2), Value::Float(9.0)], r2);
        v2b.commit_create(2, r2);

        let (_, va) =
            t.append_version(TxId(4), vec![Value::Int(3), Value::Null], UNASSIGNED_ROW_ID);
        va.abort_create();
        let (_, _inflight) =
            t.append_version(TxId(5), vec![Value::Int(4), Value::Null], UNASSIGNED_ROW_ID);
        cat
    }

    #[test]
    fn roundtrip_preserves_committed_state() {
        let cat = build_catalog();
        let bytes = encode_catalog(&cat, 2);
        let (restored, height) = decode_catalog(&bytes).unwrap();
        assert_eq!(height, 2);

        let t = restored.get("inv").unwrap();
        // 3 committed versions (live, historical, successor); aborted and
        // in-flight dropped.
        assert_eq!(t.version_count(), 3);
        assert_eq!(t.live_row_count(), 2);
        assert_eq!(
            t.row_id_watermark(),
            cat.get("inv").unwrap().row_id_watermark()
        );
        // Schema round-trips with indexes.
        let schema = t.schema();
        assert_eq!(schema.indexes.len(), 1);
        assert_eq!(schema.primary_key, vec![0]);
        // Indexes are functional after restore.
        let hits = t
            .index_scan(0, &crate::index::KeyRange::eq(Value::Int(2)))
            .unwrap();
        assert_eq!(hits.len(), 2); // historical + successor
    }

    #[test]
    fn deterministic_encoding() {
        let a = encode_catalog(&build_catalog(), 2);
        let b = encode_catalog(&build_catalog(), 2);
        assert_eq!(a, b);
    }

    #[test]
    fn corrupt_snapshot_rejected() {
        let cat = build_catalog();
        let mut bytes = encode_catalog(&cat, 2);
        bytes[4] ^= 0xff; // corrupt magic
        assert!(decode_catalog(&bytes).is_err());
        let bytes = encode_catalog(&cat, 2);
        assert!(decode_catalog(&bytes[..bytes.len() - 3]).is_err());
    }

    // ------------------------------------------------- paged snapshots

    use crate::table::SEGMENT_SIZE;
    use bcrdb_common::ids::BlockHeight as Bh;

    /// A store-backed catalog whose one table has `spilled` full segments
    /// paged out and a resident tail of seven rows.
    fn paged_catalog_of(
        tag: &str,
        spilled: usize,
    ) -> (Catalog, Arc<PagedStore>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("bcrdb-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = PagedStore::open(&dir, 32, false).unwrap();
        let cat = Catalog::with_store(Arc::clone(&store));
        let schema = TableSchema::new(
            "inv",
            vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
            ],
            vec![0],
        )
        .unwrap();
        let t = cat.create_table(schema).unwrap();
        for i in 0..spilled * SEGMENT_SIZE + 7 {
            let (_, v) = t.append_version(
                TxId(1),
                vec![Value::Int(i as i64), Value::Text(format!("r{i}"))],
                UNASSIGNED_ROW_ID,
            );
            v.commit_create(1, t.alloc_row_id());
        }
        assert_eq!(t.spill(5, 5), spilled, "every full segment pages out");
        (cat, store, dir)
    }

    fn paged_catalog(tag: &str) -> (Catalog, Arc<PagedStore>, std::path::PathBuf) {
        paged_catalog_of(tag, 1)
    }

    fn state_of(cat: &Catalog, table: &str) -> Vec<(RowId, Vec<Value>)> {
        cat.get(table)
            .unwrap()
            .all_versions()
            .iter()
            .map(|v| (v.row_id(), v.data.clone()))
            .collect()
    }

    #[test]
    fn v2_external_roundtrip_attaches_chains() {
        let (cat, store, dir) = paged_catalog("ext");
        let height: Bh = 5;
        store.checkpoint(height).unwrap();
        let bytes = encode_catalog(&cat, height);

        let (restored, h) = decode_catalog_with(&bytes, Some(&store)).unwrap();
        assert_eq!(h, height);
        let t = restored.get("inv").unwrap();
        // The spilled segment comes back attached, not faulted…
        assert_eq!(t.paged_segments(), vec![0]);
        // …with index entries already rebuilt from the chain.
        let hits = t
            .index_scan(0, &crate::index::KeyRange::eq(Value::Int(3)))
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].data[1], Value::Text("r3".into()));
        // Full state identical (faults the chain in).
        assert_eq!(state_of(&restored, "inv"), state_of(&cat, "inv"));
        assert_eq!(
            t.row_id_watermark(),
            cat.get("inv").unwrap().row_id_watermark()
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn stats_rebuild_after_restore_leaves_paged_segments_on_disk() {
        let (cat, store, dir) = paged_catalog_of("stats", 4);
        let height: Bh = 5;
        store.checkpoint(height).unwrap();
        let bytes = encode_catalog(&cat, height);
        let (restored, _) = decode_catalog_with(&bytes, Some(&store)).unwrap();
        let t = restored.get("inv").unwrap();
        assert_eq!(t.paged_segments(), vec![0, 1, 2, 3]);

        t.rebuild_stats(height);
        assert_eq!(
            t.paged_segments(),
            vec![0, 1, 2, 3],
            "counted from the chains, not faulted in"
        );
        // The numbers are the ones an all-resident heap adds up to.
        let inline = encode_catalog_carry(&cat, height, SnapshotCarry::Inline).unwrap();
        let (resident, _) = decode_catalog(&inline).unwrap();
        let r = resident.get("inv").unwrap();
        assert!(r.paged_segments().is_empty());
        r.rebuild_stats(height);
        let summary = t.stats_summary_at(height).unwrap();
        assert_eq!(summary.rows, (4 * SEGMENT_SIZE + 7) as u64);
        assert_eq!(Some(summary), r.stats_summary_at(height));
        // Nothing came back into memory, so the next spill tick has
        // nothing to write out again.
        let written = store.pages_written();
        assert_eq!(t.spill(height, height + 1), 0);
        assert_eq!(store.pages_written(), written);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn v2_external_rejects_stale_checkpoint() {
        let (cat, store, dir) = paged_catalog("stale");
        store.checkpoint(3).unwrap();
        // Snapshot claims height 9 but the page files were checkpointed
        // at 3 — different barriers, so restore must fall back.
        let bytes = encode_catalog(&cat, 9);
        assert!(decode_catalog_with(&bytes, Some(&store)).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn v2_inline_roundtrip_is_self_contained() {
        let (cat, store, dir) = paged_catalog("inline");
        store.checkpoint(5).unwrap();
        let bytes = encode_catalog_carry(&cat, 5, SnapshotCarry::Inline).unwrap();

        // A receiver with no paged store decodes everything resident.
        let (restored, h) = decode_catalog(&bytes).unwrap();
        assert_eq!(h, 5);
        let t = restored.get("inv").unwrap();
        assert!(t.paged_segments().is_empty());
        assert!(t.pager().is_none());
        assert_eq!(state_of(&restored, "inv"), state_of(&cat, "inv"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn v1_snapshot_decodes_onto_paged_store() {
        // Upgrade / fast-sync-from-unpaged-peer path: a v1 snapshot
        // restores onto a store-backed node with fresh page files.
        let cat = build_catalog();
        let bytes = encode_catalog(&cat, 2);
        let dir = std::env::temp_dir().join(format!("bcrdb-persist-v1up-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = PagedStore::open(&dir, 8, false).unwrap();
        let (restored, h) = decode_catalog_with(&bytes, Some(&store)).unwrap();
        assert_eq!(h, 2);
        let t = restored.get("inv").unwrap();
        assert!(t.pager().is_some(), "tables attach to the store");
        assert_eq!(t.version_count(), 3);
        let _ = std::fs::remove_dir_all(dir);
    }
}
