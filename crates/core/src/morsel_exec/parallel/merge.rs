//! The barrier merge: replays the workers' recorded sink effects into
//! the canonical state in ascending morsel order. Worker containers are
//! reached through the raw arena addresses generated code uses, so this
//! is the one file of the executor with `unsafe` in it.

use super::{MorselRecord, ParallelPipeline, WorkerOutput};
use crate::engine::EngineError;
use crate::morsel_exec::ctx_handle;
use qc_plan::{AggFunc, CtxEntry, RowLayout, Sink};
use qc_runtime::{
    entry_hash, HashTable, RtString, RuntimeState, ENTRY_HASH_OFFSET, ENTRY_NEXT_OFFSET,
    ENTRY_PAYLOAD_OFFSET,
};
use qc_storage::ColumnType;
use qc_target::Trap;
use std::cmp::Ordering as CmpOrdering;
use std::sync::Arc;

impl ParallelPipeline<'_> {
    /// Replays worker sink effects into the canonical state in
    /// ascending morsel order (see the module docs for why this
    /// reproduces the serial effect sequence exactly).
    pub(super) fn merge(
        &self,
        state: &mut RuntimeState,
        ctx: &[u8],
        outputs: &[WorkerOutput],
    ) -> Result<(), EngineError> {
        let sink = self.sink_info();
        let canonical = ctx_handle(ctx, sink.progress_off);
        // Global replay order: ascending morsel index.
        let mut order: Vec<(usize, &MorselRecord)> = outputs
            .iter()
            .enumerate()
            .flat_map(|(w, o)| o.records.iter().map(move |r| (w, r)))
            .collect();
        order.sort_by_key(|(_, r)| r.morsel);

        match &self.pipe.sink {
            Sink::Output { .. } | Sink::SortMaterialize { .. } => {
                for (w, r) in order {
                    let o = &outputs[w];
                    let whandle = ctx_handle(&o.ctx, sink.progress_off);
                    let wbuf = o.state.buffer(whandle);
                    for i in r.sink_start..r.sink_end {
                        state.buf_append_from(canonical, wbuf.row(i));
                    }
                }
            }
            Sink::JoinBuild { layout, .. } => {
                let size = layout.size as usize;
                for (w, r) in order {
                    let o = &outputs[w];
                    let whandle = ctx_handle(&o.ctx, sink.progress_off);
                    // progress_off points at the JoinHt slot for joins.
                    let log = o.state.table(whandle).insert_log();
                    for &payload in &log[r.sink_start..r.sink_end] {
                        state.ht_insert_from(canonical, entry_hash(payload), payload, size);
                    }
                }
            }
            Sink::AggBuild {
                agg_id,
                keys,
                aggs,
                layout,
                ..
            } => {
                let ht_off = self.plan.ctx_offset(&CtxEntry::AggHt(*agg_id)) as usize;
                let can_ht = ctx_handle(ctx, ht_off);
                let key_fields = key_fields(keys, layout)?;
                let combines = agg_combines(aggs, layout)?;
                for (w, r) in order {
                    let o = &outputs[w];
                    let wgroups = ctx_handle(&o.ctx, sink.progress_off);
                    let groups = o.state.buffer(wgroups);
                    for i in r.sink_start..r.sink_end {
                        // Each groups-buffer row holds the worker-local
                        // payload pointer of one created group.
                        let wp = read_u64_at(groups.row(i));
                        let hash = entry_hash(wp);
                        match find_group(state.table(can_ht), hash, wp, &key_fields) {
                            Some(q) => {
                                // Fold the worker's fully-accumulated
                                // partial state in with one combine.
                                for c in &combines {
                                    c.apply(q, wp)?;
                                }
                            }
                            None => {
                                let q =
                                    state.ht_insert_from(can_ht, hash, wp, layout.size as usize);
                                let cell = q.to_le_bytes();
                                state.buf_append_from(canonical, cell.as_ptr() as u64);
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Aggregation merge helpers
// ---------------------------------------------------------------------

fn read_u64_at(addr: u64) -> u64 {
    // SAFETY: addresses come from live arena rows/payloads the caller
    // keeps alive for the duration of the merge.
    unsafe { std::ptr::read_unaligned(addr as *const u64) }
}

fn read_i64_at(addr: u64) -> i64 {
    read_u64_at(addr) as i64
}

fn read_i128_at(addr: u64) -> i128 {
    // SAFETY: see `read_u64_at`.
    unsafe { std::ptr::read_unaligned(addr as *const i128) }
}

fn write_i64_at(addr: u64, v: i64) {
    // SAFETY: see `read_u64_at`; the caller writes into canonical
    // payloads it owns.
    unsafe { std::ptr::write_unaligned(addr as *mut i64, v) }
}

fn write_i128_at(addr: u64, v: i128) {
    // SAFETY: see `write_i64_at`.
    unsafe { std::ptr::write_unaligned(addr as *mut i128, v) }
}

fn read_str_at(addr: u64) -> RtString {
    let mut bytes = [0u8; 16];
    // SAFETY: see `read_u64_at`; string state fields are 16 bytes.
    unsafe { std::ptr::copy_nonoverlapping(addr as *const u8, bytes.as_mut_ptr(), 16) };
    RtString::from_bytes(bytes)
}

fn copy_bytes(src: u64, dst: u64, n: usize) {
    // SAFETY: both addresses reference live rows/payloads of at least
    // `n` bytes (field sizes come from the shared layout).
    unsafe { std::ptr::copy_nonoverlapping(src as *const u8, dst as *mut u8, n) }
}

/// One group-key field for replay-time group lookup.
struct KeyField {
    off: usize,
    size: usize,
    is_str: bool,
}

impl KeyField {
    /// Key equality between a canonical payload `q` and a worker
    /// payload `p`, with the same semantics generated code uses
    /// (`rt_str_eq` content equality for strings, bytewise otherwise).
    fn eq_at(&self, q: u64, p: u64) -> bool {
        let (a, b) = (q + self.off as u64, p + self.off as u64);
        if self.is_str {
            return read_str_at(a).eq_content(&read_str_at(b));
        }
        match self.size {
            8 => read_u64_at(a) == read_u64_at(b),
            _ => read_i128_at(a) == read_i128_at(b),
        }
    }
}

fn key_fields(keys: &[Arc<str>], layout: &RowLayout) -> Result<Vec<KeyField>, EngineError> {
    keys.iter()
        .map(|k| {
            let f = layout.field(k).ok_or_else(|| {
                EngineError::Storage(format!("group key `{k}` missing from agg layout"))
            })?;
            Ok(KeyField {
                off: f.offset as usize,
                size: qc_plan::field_size(f.ty) as usize,
                is_str: f.ty == ColumnType::Str,
            })
        })
        .collect()
}

/// Walks the canonical bucket chain for `hash` and returns the payload
/// of the entry whose keys equal worker payload `wp`, exactly like the
/// generated create-or-update probe.
fn find_group(ht: &HashTable, hash: u64, wp: u64, keys: &[KeyField]) -> Option<u64> {
    let mut e = ht.probe(hash);
    while e != 0 {
        if read_u64_at(e + ENTRY_HASH_OFFSET as u64) == hash {
            let q = e + ENTRY_PAYLOAD_OFFSET as u64;
            if keys.iter().all(|k| k.eq_at(q, wp)) {
                return Some(q);
            }
        }
        e = read_u64_at(e + ENTRY_NEXT_OFFSET as u64);
    }
    None
}

/// How one aggregate state field folds a worker partial into the
/// canonical state.
#[derive(Clone, Copy)]
enum Fold {
    Add,
    Min,
    Max,
}

impl Fold {
    /// `x` folded with `y`.
    ///
    /// # Errors
    /// Overflowing sums trap exactly like the generated overflow-checked
    /// adds would.
    fn of<T: Ord>(self, x: T, y: T, add: fn(T, T) -> Option<T>) -> Result<T, EngineError> {
        match self {
            Fold::Add => add(x, y).ok_or(EngineError::Trap(Trap::Overflow)),
            Fold::Min => Ok(x.min(y)),
            Fold::Max => Ok(x.max(y)),
        }
    }
}

struct StateField {
    off: usize,
    ty: ColumnType,
    fold: Fold,
}

impl StateField {
    /// Folds worker payload `p`'s field into canonical payload `q`:
    /// decimals are 128-bit, strings 16-byte descriptors ordered by
    /// content, every other state is an `i64` slot.
    fn apply(&self, q: u64, p: u64) -> Result<(), EngineError> {
        let (a, b) = (q + self.off as u64, p + self.off as u64);
        match self.ty {
            ColumnType::Str => {
                let wins = match self.fold {
                    Fold::Min => CmpOrdering::Less,
                    Fold::Max => CmpOrdering::Greater,
                    Fold::Add => {
                        return Err(EngineError::Storage(
                            "string aggregation state cannot be summed".to_string(),
                        ))
                    }
                };
                if read_str_at(b).cmp_content(&read_str_at(a)) == wins {
                    copy_bytes(b, a, 16);
                }
            }
            ColumnType::Decimal(_) => {
                let v = self
                    .fold
                    .of(read_i128_at(a), read_i128_at(b), i128::checked_add)?;
                write_i128_at(a, v);
            }
            _ => {
                let v = self
                    .fold
                    .of(read_i64_at(a), read_i64_at(b), i64::checked_add)?;
                write_i64_at(a, v);
            }
        }
        Ok(())
    }
}

/// The state fields of `aggs` in `layout`: one per aggregate (`#name`),
/// plus the row count an average carries (`#name_cnt`).
fn agg_combines(
    aggs: &[(Arc<str>, AggFunc)],
    layout: &RowLayout,
) -> Result<Vec<StateField>, EngineError> {
    let field = |name: &str, count: bool, fold: Fold| -> Result<StateField, EngineError> {
        let f = layout.agg_state(name, count).ok_or_else(|| {
            EngineError::Storage(format!("agg state field of `{name}` missing from layout"))
        })?;
        Ok(StateField {
            off: f.offset as usize,
            ty: f.ty,
            fold,
        })
    };
    let mut out = Vec::new();
    for (name, agg) in aggs {
        let fold = match agg {
            AggFunc::CountStar | AggFunc::Sum(_) | AggFunc::Avg(_) => Fold::Add,
            AggFunc::Min(_) => Fold::Min,
            AggFunc::Max(_) => Fold::Max,
        };
        out.push(field(name, false, fold)?);
        if matches!(agg, AggFunc::Avg(_)) {
            out.push(field(name, true, Fold::Add)?);
        }
    }
    Ok(out)
}
