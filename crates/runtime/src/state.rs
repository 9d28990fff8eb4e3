//! The runtime function registry and dispatcher.

use crate::arena::Arena;
use crate::buffer::TupleBuffer;
use crate::hash::hash_string;
use crate::hashtable::HashTable;
use crate::strings::RtString;
use qc_target::{runtime_addr, Reentry, RuntimeDispatch, Trap};

/// Runtime function indices and metadata.
///
/// The index space is fixed: generated code reaches function `i` at the
/// virtual address [`qc_target::runtime_addr`]`(i)`. Argument counts are in
/// 64-bit slots (a by-value string or `i128` takes two).
pub mod rtfn {
    /// `rt_throw_overflow()` — reports arithmetic overflow; never returns.
    pub const THROW_OVERFLOW: usize = 0;
    /// `rt_ht_create(estimate) -> ht`.
    pub const HT_CREATE: usize = 1;
    /// `rt_ht_insert(ht, hash, payload_size) -> payload_ptr`.
    pub const HT_INSERT: usize = 2;
    /// `rt_ht_build(ht)`.
    pub const HT_BUILD: usize = 3;
    /// `rt_ht_probe(ht, hash) -> entry_ptr (0 = none)`.
    pub const HT_PROBE: usize = 4;
    /// `rt_buf_create(row_size) -> buf`.
    pub const BUF_CREATE: usize = 5;
    /// `rt_buf_alloc(buf) -> row_ptr`.
    pub const BUF_ALLOC: usize = 6;
    /// `rt_buf_len(buf) -> n`.
    pub const BUF_LEN: usize = 7;
    /// `rt_buf_row(buf, i) -> row_ptr`.
    pub const BUF_ROW: usize = 8;
    /// `rt_sort(buf, cmp_fn)` — sorts rows, calling back into generated
    /// code for comparisons.
    pub const SORT: usize = 9;
    /// `rt_str_eq(a, b) -> bool`.
    pub const STR_EQ: usize = 10;
    /// `rt_str_lt(a, b) -> bool`.
    pub const STR_LT: usize = 11;
    /// `rt_str_hash(s) -> h`.
    pub const STR_HASH: usize = 12;
    /// `rt_str_prefix(s, prefix) -> bool` (`LIKE 'x%'`).
    pub const STR_PREFIX: usize = 13;
    /// `rt_i128_div(a, b) -> a / b` (traps on zero/overflow).
    pub const I128_DIV: usize = 14;
    /// `rt_mul128_ovf(a, b) -> a * b` (traps on signed overflow) — the
    /// "hand-optimized 128-bit multiplication" helper of paper Sec. V-A1.
    pub const MUL128_OVF: usize = 15;
    /// `rt_alloc(size) -> ptr`.
    pub const ALLOC: usize = 16;
    /// `rt_str_contains(s, needle) -> bool` (`LIKE '%x%'`).
    pub const STR_CONTAINS: usize = 17;
    /// `rt_crc32(acc, data) -> crc` — helper used by back-ends without a
    /// native CRC-32 instruction (Table II ablation).
    pub const CRC32: usize = 18;
    /// `rt_sadd_ovf(a, b) -> a + b` (traps on signed 64-bit overflow).
    pub const SADD_OVF: usize = 19;
    /// `rt_ssub_ovf(a, b) -> a - b` (traps on overflow).
    pub const SSUB_OVF: usize = 20;
    /// `rt_smul_ovf(a, b) -> a * b` (traps on overflow).
    pub const SMUL_OVF: usize = 21;
    /// `rt_add128_ovf(a, b) -> a + b` at 128 bits (traps on overflow).
    pub const ADD128_OVF: usize = 22;
    /// `rt_sub128_ovf(a, b) -> a - b` at 128 bits (traps on overflow).
    pub const SUB128_OVF: usize = 23;

    /// Symbol names by index.
    pub const NAMES: [&str; 24] = [
        "rt_throw_overflow",
        "rt_ht_create",
        "rt_ht_insert",
        "rt_ht_build",
        "rt_ht_probe",
        "rt_buf_create",
        "rt_buf_alloc",
        "rt_buf_len",
        "rt_buf_row",
        "rt_sort",
        "rt_str_eq",
        "rt_str_lt",
        "rt_str_hash",
        "rt_str_prefix",
        "rt_i128_div",
        "rt_mul128_ovf",
        "rt_alloc",
        "rt_str_contains",
        "rt_crc32",
        "rt_sadd_ovf",
        "rt_ssub_ovf",
        "rt_smul_ovf",
        "rt_add128_ovf",
        "rt_sub128_ovf",
    ];

    /// Argument slot counts by index.
    pub const ARG_SLOTS: [usize; 24] = [
        0, 1, 3, 1, 2, 1, 1, 1, 2, 2, 4, 4, 2, 4, 4, 4, 1, 4, 2, 2, 2, 2, 4, 4,
    ];
}

/// Resolves a runtime symbol name to its virtual address, for linkers.
pub fn resolve_runtime(name: &str) -> Option<u64> {
    rt_index(name).map(runtime_addr)
}

/// Resolves a runtime symbol name to its function index.
pub fn rt_index(name: &str) -> Option<usize> {
    rtfn::NAMES.iter().position(|&n| n == name)
}

fn i128_from(lo: u64, hi: u64) -> i128 {
    ((hi as u128) << 64 | lo as u128) as i128
}

fn i128_parts(v: i128) -> [u64; 2] {
    [v as u64, ((v as u128) >> 64) as u64]
}

/// Callback used by runtime functions that re-enter generated code.
pub type CodeCallback<'a> = dyn FnMut(&mut RuntimeState, u64, &[u64]) -> Result<u64, Trap> + 'a;

/// All mutable runtime state of one query execution: the arena, hash
/// tables, tuple buffers, and interned constants.
#[derive(Debug, Default)]
pub struct RuntimeState {
    arena: Arena,
    tables: Vec<HashTable>,
    buffers: Vec<TupleBuffer>,
    /// Runtime calls performed, per function index (for tests/statistics).
    pub call_counts: [u64; rtfn::NAMES.len()],
}

impl RuntimeState {
    /// Creates an empty runtime state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a constant string (query literals).
    pub fn intern_string(&mut self, s: &str) -> RtString {
        RtString::new(s, &mut self.arena)
    }

    /// Direct arena access (used by storage loading and tests).
    pub fn arena_mut(&mut self) -> &mut Arena {
        &mut self.arena
    }

    /// Access to a tuple buffer by handle (e.g. to decode query output).
    pub fn buffer(&self, id: u64) -> &TupleBuffer {
        &self.buffers[id as usize]
    }

    /// Access to a hash table by handle (used by the morsel-parallel
    /// merge and by tests).
    pub fn table(&self, id: u64) -> &HashTable {
        &self.tables[id as usize]
    }

    /// Forks a worker-local state for morsel-parallel execution.
    ///
    /// Hash tables and buffers are structurally cloned — their entries
    /// and rows stay in this state's arena and are only *read* through
    /// the fork — and the fork gets a fresh arena of its own, so handle
    /// numbering stays aligned: containers the worker creates receive
    /// the same indices canonical execution would assign next. The fork
    /// must never mutate an inherited container (workers only write
    /// through sink handles their own `setup` created); the parent must
    /// stay alive and unmutated while forks run, since forked containers
    /// hold raw addresses into its arena.
    pub fn fork_worker(&self) -> RuntimeState {
        RuntimeState {
            arena: Arena::new(),
            tables: self.tables.iter().map(HashTable::fork).collect(),
            buffers: self.buffers.iter().map(TupleBuffer::fork).collect(),
            call_counts: [0; rtfn::NAMES.len()],
        }
    }

    /// Adds another state's runtime-call counters into this one (used
    /// when folding worker states back into the canonical state).
    pub fn merge_counts_from(&mut self, other: &RuntimeState) {
        for (c, o) in self.call_counts.iter_mut().zip(&other.call_counts) {
            *c += o;
        }
    }

    /// Inserts an entry into hash table `id` and fills its payload by
    /// copying `size` bytes from the raw address `src` (a live payload
    /// in some worker state's arena). Replay primitive of the
    /// morsel-parallel merge; does not bump `call_counts` — the worker
    /// that produced the source entry already counted the insert.
    ///
    /// Returns the canonical payload address.
    pub fn ht_insert_from(&mut self, id: u64, hash: u64, src: u64, size: usize) -> u64 {
        let dst = self.tables[id as usize].insert(&mut self.arena, hash, size);
        // SAFETY: `src` points at a live `size`-byte payload in a worker
        // arena the caller keeps alive; `dst` is a fresh allocation of at
        // least `size` bytes in this state's arena.
        unsafe {
            std::ptr::copy_nonoverlapping(src as *const u8, dst as *mut u8, size);
        }
        dst
    }

    /// Appends one row to buffer `id`, copying the row bytes from the
    /// raw address `src`. Replay primitive of the morsel-parallel merge;
    /// does not bump `call_counts` (see [`RuntimeState::ht_insert_from`]).
    ///
    /// Returns the canonical row address.
    pub fn buf_append_from(&mut self, id: u64, src: u64) -> u64 {
        let (buffers, arena) = (&mut self.buffers, &mut self.arena);
        let buf = &mut buffers[id as usize];
        let size = buf.row_size();
        let dst = buf.alloc_row(arena);
        // SAFETY: `src` points at a live row of `size` bytes in a worker
        // arena the caller keeps alive; `dst` is freshly allocated.
        unsafe {
            std::ptr::copy_nonoverlapping(src as *const u8, dst as *mut u8, size);
        }
        dst
    }

    /// Model cost in cycles of runtime function `index` with `args`.
    pub fn cost(&self, index: usize, args: &[u64]) -> u64 {
        match index {
            rtfn::THROW_OVERFLOW => 5,
            rtfn::HT_CREATE => 50,
            rtfn::HT_INSERT => 20,
            rtfn::HT_BUILD => {
                let len = self.tables.get(args[0] as usize).map_or(0, HashTable::len);
                10 + len as u64 / 8
            }
            rtfn::HT_PROBE => 8,
            rtfn::BUF_CREATE => 30,
            rtfn::BUF_ALLOC => 10,
            rtfn::BUF_LEN => 3,
            rtfn::BUF_ROW => 4,
            rtfn::SORT => {
                let n = self
                    .buffers
                    .get(args[0] as usize)
                    .map_or(0, TupleBuffer::len) as u64;
                40 + n * (64 - n.leading_zeros() as u64).max(1) * 10
            }
            rtfn::STR_EQ | rtfn::STR_LT => {
                8 + (RtString::from_parts(args[0], args[1]).len() as u64) / 8
            }
            rtfn::STR_HASH => 10 + (RtString::from_parts(args[0], args[1]).len() as u64) / 8,
            rtfn::STR_PREFIX => 8,
            rtfn::STR_CONTAINS => 10 + RtString::from_parts(args[0], args[1]).len() as u64,
            rtfn::I128_DIV => 40,
            rtfn::MUL128_OVF => 12,
            rtfn::ALLOC => 15,
            rtfn::CRC32 => 8,
            rtfn::SADD_OVF | rtfn::SSUB_OVF => 7,
            rtfn::SMUL_OVF => 9,
            rtfn::ADD128_OVF | rtfn::SUB128_OVF => 10,
            _ => 10,
        }
    }

    /// Dispatches runtime function `index`.
    ///
    /// `callback` re-enters generated code (used by [`rtfn::SORT`]); both
    /// the emulator and the bytecode interpreter provide one.
    ///
    /// # Errors
    /// Returns a [`Trap`] for overflow/division traps, invalid handles, or
    /// errors propagated from re-entered code.
    pub fn invoke(
        &mut self,
        index: usize,
        args: &[u64],
        callback: &mut CodeCallback<'_>,
    ) -> Result<[u64; 2], Trap> {
        if let Some(c) = self.call_counts.get_mut(index) {
            *c += 1;
        }
        let arg = |i: usize| -> u64 { args.get(i).copied().unwrap_or(0) };
        match index {
            rtfn::THROW_OVERFLOW => Err(Trap::Overflow),
            rtfn::HT_CREATE => {
                self.tables.push(HashTable::new(arg(0) as usize));
                Ok([(self.tables.len() - 1) as u64, 0])
            }
            rtfn::HT_INSERT => {
                let id = arg(0) as usize;
                if id >= self.tables.len() {
                    return Err(Trap::Runtime(1));
                }
                let p = self.tables[id].insert(&mut self.arena, arg(1), arg(2) as usize);
                Ok([p, 0])
            }
            rtfn::HT_BUILD => {
                let id = arg(0) as usize;
                if id >= self.tables.len() {
                    return Err(Trap::Runtime(1));
                }
                self.tables[id].build();
                Ok([0, 0])
            }
            rtfn::HT_PROBE => {
                let id = arg(0) as usize;
                if id >= self.tables.len() {
                    return Err(Trap::Runtime(1));
                }
                Ok([self.tables[id].probe(arg(1)), 0])
            }
            rtfn::BUF_CREATE => {
                self.buffers.push(TupleBuffer::new(arg(0) as usize));
                Ok([(self.buffers.len() - 1) as u64, 0])
            }
            rtfn::BUF_ALLOC => {
                let id = arg(0) as usize;
                if id >= self.buffers.len() {
                    return Err(Trap::Runtime(2));
                }
                // Split borrow: buffer and arena are distinct fields.
                let (buffers, arena) = (&mut self.buffers, &mut self.arena);
                Ok([buffers[id].alloc_row(arena), 0])
            }
            rtfn::BUF_LEN => {
                let id = arg(0) as usize;
                if id >= self.buffers.len() {
                    return Err(Trap::Runtime(2));
                }
                Ok([self.buffers[id].len() as u64, 0])
            }
            rtfn::BUF_ROW => {
                let id = arg(0) as usize;
                if id >= self.buffers.len() {
                    return Err(Trap::Runtime(2));
                }
                Ok([self.buffers[id].row(arg(1) as usize), 0])
            }
            rtfn::SORT => {
                let id = arg(0) as usize;
                let cmp_fn = arg(1);
                if id >= self.buffers.len() {
                    return Err(Trap::Runtime(2));
                }
                let mut rows = self.buffers[id].take_rows();
                let mut error: Option<Trap> = None;
                rows.sort_by(|&a, &b| {
                    if error.is_some() {
                        return std::cmp::Ordering::Equal;
                    }
                    match callback(self, cmp_fn, &[a, b]) {
                        Ok(r) => (r as i64).cmp(&0),
                        Err(t) => {
                            error = Some(t);
                            std::cmp::Ordering::Equal
                        }
                    }
                });
                self.buffers[id].put_back(rows);
                match error {
                    Some(t) => Err(t),
                    None => Ok([0, 0]),
                }
            }
            rtfn::STR_EQ => {
                let a = RtString::from_parts(arg(0), arg(1));
                let b = RtString::from_parts(arg(2), arg(3));
                Ok([a.eq_content(&b) as u64, 0])
            }
            rtfn::STR_LT => {
                let a = RtString::from_parts(arg(0), arg(1));
                let b = RtString::from_parts(arg(2), arg(3));
                Ok([(a.cmp_content(&b) == std::cmp::Ordering::Less) as u64, 0])
            }
            rtfn::STR_HASH => {
                let s = RtString::from_parts(arg(0), arg(1));
                Ok([hash_string(&s), 0])
            }
            rtfn::STR_PREFIX => {
                let s = RtString::from_parts(arg(0), arg(1));
                let p = RtString::from_parts(arg(2), arg(3));
                Ok([s.starts_with(&p) as u64, 0])
            }
            rtfn::STR_CONTAINS => {
                let s = RtString::from_parts(arg(0), arg(1));
                let n = RtString::from_parts(arg(2), arg(3));
                let found = n.is_empty()
                    || s.as_slice()
                        .windows(n.len().max(1))
                        .any(|w| w == n.as_slice());
                Ok([found as u64, 0])
            }
            rtfn::I128_DIV => {
                let a = i128_from(arg(0), arg(1));
                let b = i128_from(arg(2), arg(3));
                if b == 0 {
                    return Err(Trap::DivByZero);
                }
                if a == i128::MIN && b == -1 {
                    return Err(Trap::Overflow);
                }
                Ok(i128_parts(a / b))
            }
            rtfn::MUL128_OVF => {
                let a = i128_from(arg(0), arg(1));
                let b = i128_from(arg(2), arg(3));
                match a.checked_mul(b) {
                    Some(p) => Ok(i128_parts(p)),
                    None => Err(Trap::Overflow),
                }
            }
            rtfn::ALLOC => Ok([self.arena.alloc(arg(0) as usize), 0]),
            rtfn::CRC32 => Ok([qc_target::crc32c_u64(arg(0), arg(1)), 0]),
            rtfn::SADD_OVF => match (arg(0) as i64).checked_add(arg(1) as i64) {
                Some(r) => Ok([r as u64, 0]),
                None => Err(Trap::Overflow),
            },
            rtfn::SSUB_OVF => match (arg(0) as i64).checked_sub(arg(1) as i64) {
                Some(r) => Ok([r as u64, 0]),
                None => Err(Trap::Overflow),
            },
            rtfn::SMUL_OVF => match (arg(0) as i64).checked_mul(arg(1) as i64) {
                Some(r) => Ok([r as u64, 0]),
                None => Err(Trap::Overflow),
            },
            rtfn::ADD128_OVF => {
                match i128_from(arg(0), arg(1)).checked_add(i128_from(arg(2), arg(3))) {
                    Some(r) => Ok(i128_parts(r)),
                    None => Err(Trap::Overflow),
                }
            }
            rtfn::SUB128_OVF => {
                match i128_from(arg(0), arg(1)).checked_sub(i128_from(arg(2), arg(3))) {
                    Some(r) => Ok(i128_parts(r)),
                    None => Err(Trap::Overflow),
                }
            }
            _ => Err(Trap::Runtime(0xFF)),
        }
    }
}

/// Adapter exposing a [`RuntimeState`] to the emulator.
#[derive(Debug)]
pub struct EmuHost<'s> {
    /// The wrapped runtime state.
    pub state: &'s mut RuntimeState,
}

impl RuntimeDispatch for EmuHost<'_> {
    fn arg_slots(&self, index: usize) -> usize {
        rtfn::ARG_SLOTS.get(index).copied().unwrap_or(0)
    }

    fn runtime_cost(&self, index: usize, args: &[u64]) -> u64 {
        self.state.cost(index, args)
    }

    fn call_runtime(
        &mut self,
        index: usize,
        args: &[u64],
        mut reentry: Reentry<'_>,
    ) -> Result<[u64; 2], Trap> {
        self.state.invoke(index, args, &mut |state, addr, cargs| {
            let mut host = EmuHost { state };
            reentry.call(&mut host, addr, cargs)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_callback() -> Box<CodeCallback<'static>> {
        Box::new(|_, _, _| Err(Trap::Runtime(9)))
    }

    #[test]
    fn hash_table_lifecycle_via_dispatch() {
        let mut st = RuntimeState::new();
        let cb = &mut *no_callback();
        let ht = st.invoke(rtfn::HT_CREATE, &[64], cb).unwrap()[0];
        let payload = st.invoke(rtfn::HT_INSERT, &[ht, 0xABCD, 8], cb).unwrap()[0];
        assert_ne!(payload, 0);
        let entry = st.invoke(rtfn::HT_PROBE, &[ht, 0xABCD], cb).unwrap()[0];
        assert_eq!(entry + 16, payload);
        assert_eq!(st.call_counts[rtfn::HT_INSERT], 1);
    }

    #[test]
    fn overflow_and_div_traps() {
        let mut st = RuntimeState::new();
        let cb = &mut *no_callback();
        assert_eq!(
            st.invoke(rtfn::THROW_OVERFLOW, &[], cb),
            Err(Trap::Overflow)
        );
        let max = i128_parts(i128::MAX);
        assert_eq!(
            st.invoke(rtfn::MUL128_OVF, &[max[0], max[1], 2, 0], cb),
            Err(Trap::Overflow)
        );
        assert_eq!(
            st.invoke(rtfn::I128_DIV, &[1, 0, 0, 0], cb),
            Err(Trap::DivByZero)
        );
        let r = st
            .invoke(
                rtfn::I128_DIV,
                &i128_parts(-100)
                    .iter()
                    .chain(&i128_parts(7))
                    .copied()
                    .collect::<Vec<_>>(),
                cb,
            )
            .unwrap();
        assert_eq!(i128_from(r[0], r[1]), -14);
    }

    #[test]
    fn string_functions_via_register_halves() {
        let mut st = RuntimeState::new();
        let a = st.intern_string("a long string beyond twelve");
        let b = st.intern_string("a long string beyond twelve");
        let p = st.intern_string("a long");
        let cb = &mut *no_callback();
        assert_eq!(
            st.invoke(rtfn::STR_EQ, &[a.lo, a.hi, b.lo, b.hi], cb)
                .unwrap()[0],
            1
        );
        assert_eq!(
            st.invoke(rtfn::STR_PREFIX, &[a.lo, a.hi, p.lo, p.hi], cb)
                .unwrap()[0],
            1
        );
        assert_eq!(
            st.invoke(rtfn::STR_LT, &[a.lo, a.hi, p.lo, p.hi], cb)
                .unwrap()[0],
            0
        );
        assert_eq!(
            st.invoke(rtfn::STR_CONTAINS, &[a.lo, a.hi, p.lo, p.hi], cb)
                .unwrap()[0],
            1
        );
        let h1 = st.invoke(rtfn::STR_HASH, &[a.lo, a.hi], cb).unwrap()[0];
        let h2 = st.invoke(rtfn::STR_HASH, &[b.lo, b.hi], cb).unwrap()[0];
        assert_eq!(h1, h2);
    }

    #[test]
    fn sort_reenters_comparator() {
        let mut st = RuntimeState::new();
        let cb0 = &mut *no_callback();
        let buf = st.invoke(rtfn::BUF_CREATE, &[8], cb0).unwrap()[0];
        for v in [5u64, 1, 3] {
            let row = st.invoke(rtfn::BUF_ALLOC, &[buf], cb0).unwrap()[0];
            // SAFETY: freshly allocated row.
            unsafe { std::ptr::write_unaligned(row as *mut u64, v) };
        }
        // "Generated" comparator: compare first u64 of each row.
        let mut cmp = |_: &mut RuntimeState, addr: u64, args: &[u64]| -> Result<u64, Trap> {
            assert_eq!(addr, 0x1234);
            // SAFETY: row pointers from the buffer above.
            let (a, b) = unsafe {
                (
                    std::ptr::read_unaligned(args[0] as *const u64),
                    std::ptr::read_unaligned(args[1] as *const u64),
                )
            };
            Ok((a as i64 - b as i64) as u64)
        };
        st.invoke(rtfn::SORT, &[buf, 0x1234], &mut cmp).unwrap();
        let keys: Vec<u64> = (0..3)
            .map(|i| u64::from_le_bytes(st.buffer(buf).row_bytes(i)[0..8].try_into().unwrap()))
            .collect();
        assert_eq!(keys, vec![1, 3, 5]);
    }

    #[test]
    fn names_resolve_to_stable_addresses() {
        assert_eq!(rt_index("rt_ht_probe"), Some(rtfn::HT_PROBE));
        assert_eq!(resolve_runtime("rt_sort"), Some(runtime_addr(rtfn::SORT)));
        assert_eq!(resolve_runtime("nope"), None);
        assert_eq!(rtfn::NAMES.len(), rtfn::ARG_SLOTS.len());
    }

    #[test]
    fn bad_handles_trap() {
        let mut st = RuntimeState::new();
        let cb = &mut *no_callback();
        assert!(st.invoke(rtfn::HT_PROBE, &[99, 0], cb).is_err());
        assert!(st.invoke(rtfn::BUF_ROW, &[99, 0], cb).is_err());
        assert!(st.invoke(999, &[], cb).is_err());
    }
}
