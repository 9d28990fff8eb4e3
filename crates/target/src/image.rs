//! The in-memory linker: lays out functions and data, synthesizes
//! out-of-range call veneers, applies relocations, and produces an
//! executable [`CodeImage`].
//!
//! Mirrors a JIT linker (ORC/RuntimeDyld style): back-ends add code and
//! data under symbolic names, then [`ImageBuilder::link`] resolves every
//! [`Reloc`] against the internal symbol table plus an external resolver
//! (the runtime). Two situations force synthesized stubs:
//!
//! * **External targets** (runtime helpers) live at virtual addresses
//!   far outside the image, so every external call goes through a
//!   PLT-style thunk that materializes the absolute address in the
//!   ISA's reserved scratch register.
//! * **TA64 far branches**: `bl` reaches only ±1 MiB, so internal calls
//!   whose final displacement exceeds that get a veneer (AArch64
//!   linker-veneer territory). TX64's `call rel32` covers ±2 GiB and
//!   never needs one internally.
//!
//! Veneers are emitted in per-item islands placed directly *after* the
//! item containing the call site, so they stay in range of their
//! callers no matter how large the image grows.

use crate::isa::Isa;
use crate::reloc::{Reloc, RelocKind};
use crate::ta64::{self, BL_RANGE};
use crate::tx64;
use crate::unwind::UnwindEntry;
use std::collections::HashMap;
use std::fmt;

/// An error reported by [`ImageBuilder::link`] (or while adding items).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinkError {
    /// A relocation referenced a symbol defined nowhere: not in the
    /// image and unknown to the external resolver.
    Unresolved(String),
    /// Two items were added under the same name.
    Duplicate(String),
    /// A relocation's final displacement did not fit its field.
    OutOfRange(String),
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::Unresolved(sym) => write!(f, "unresolved symbol `{sym}`"),
            LinkError::Duplicate(sym) => write!(f, "duplicate symbol `{sym}`"),
            LinkError::OutOfRange(sym) => {
                write!(f, "relocation against `{sym}` out of range")
            }
        }
    }
}

impl std::error::Error for LinkError {}

/// Version tag written by [`ImageBuilder::serialize_bytes`]; bumped on
/// any incompatible layout change so stale on-disk artifacts are
/// rejected instead of misparsed.
const IMAGE_FORMAT_VERSION: u32 = 1;

/// An error decoding [`ImageBuilder::serialize_bytes`] output
/// (truncation, bad tags, version mismatch, trailing garbage).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ImageCodecError(pub String);

impl fmt::Display for ImageCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "image decode error: {}", self.0)
    }
}

impl std::error::Error for ImageCodecError {}

/// Little-endian byte-stream writer for [`ImageBuilder::serialize_bytes`].
#[derive(Default)]
struct Writer(Vec<u8>);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.blob(s.as_bytes());
    }
    fn blob(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.0.extend_from_slice(b);
    }
}

/// Bounds-checked reader over [`ImageBuilder::serialize_bytes`] output.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], ImageCodecError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| ImageCodecError("truncated image payload".into()))?;
        let slice = &self.buf[self.at..end];
        self.at = end;
        Ok(slice)
    }
    fn u8(&mut self) -> Result<u8, ImageCodecError> {
        Ok(self.take(1)?[0])
    }
    fn bool(&mut self) -> Result<bool, ImageCodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(ImageCodecError(format!("invalid bool tag {t}"))),
        }
    }
    fn u32(&mut self) -> Result<u32, ImageCodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn u64(&mut self) -> Result<u64, ImageCodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    fn str(&mut self) -> Result<String, ImageCodecError> {
        let bytes = self.blob()?;
        String::from_utf8(bytes).map_err(|_| ImageCodecError("non-UTF-8 name".into()))
    }
    fn blob(&mut self) -> Result<Vec<u8>, ImageCodecError> {
        let len = self.u64()?;
        let len = usize::try_from(len)
            .ok()
            .filter(|&l| l <= self.buf.len().saturating_sub(self.at))
            .ok_or_else(|| ImageCodecError("truncated image payload".into()))?;
        Ok(self.take(len)?.to_vec())
    }
}

struct Item {
    name: String,
    bytes: Vec<u8>,
    relocs: Vec<Reloc>,
    align: u64,
    is_code: bool,
}

/// Accumulates functions and data blobs, then links them into a
/// [`CodeImage`].
///
/// A builder is a position-independent description of the image
/// (payload bytes plus symbolic relocations) and [`Self::link`] only
/// reads it, so the engine's compile-result cache stores unlinked
/// builders and links the same one once per use — only the link step is
/// repeated, never code generation, and nothing is copied but the
/// payload into the new image.
pub struct ImageBuilder {
    isa: Isa,
    items: Vec<Item>,
    by_name: HashMap<String, usize>,
    // (provisional offset of the owning function, entry)
    unwind: Vec<(u64, UnwindEntry)>,
    duplicate: Option<String>,
}

/// Where a symbol resolved to.
#[derive(Clone, Copy)]
enum Target {
    Internal(usize),
    External(u64),
}

impl ImageBuilder {
    /// Creates an empty builder for `isa`.
    pub fn new(isa: Isa) -> ImageBuilder {
        ImageBuilder {
            isa,
            items: Vec::new(),
            by_name: HashMap::new(),
            unwind: Vec::new(),
            duplicate: None,
        }
    }

    fn add_item(
        &mut self,
        name: &str,
        bytes: Vec<u8>,
        relocs: Vec<Reloc>,
        align: u64,
        is_code: bool,
    ) -> u64 {
        if self.by_name.contains_key(name) && self.duplicate.is_none() {
            self.duplicate = Some(name.to_string());
        }
        self.by_name.insert(name.to_string(), self.items.len());
        self.items.push(Item {
            name: name.to_string(),
            bytes,
            relocs,
            align,
            is_code,
        });
        self.provisional_offsets()[self.items.len() - 1]
    }

    /// Adds a function's code and relocations, returning its
    /// *provisional* offset (an identifier for [`Self::add_unwind`];
    /// the final offset can move when the linker inserts veneers).
    pub fn add_function(&mut self, name: &str, code: Vec<u8>, relocs: Vec<Reloc>) -> u64 {
        self.add_item(name, code, relocs, 16, true)
    }

    /// Adds a named read-write data blob (constant pools, GOT slots).
    /// Data may carry [`RelocKind::Abs64`] relocations; returns the
    /// provisional offset.
    pub fn add_data(&mut self, name: &str, bytes: Vec<u8>, align: u64, relocs: Vec<Reloc>) -> u64 {
        self.add_item(name, bytes, relocs, align.max(1), false)
    }

    /// Attaches an unwind entry to the function previously returned at
    /// provisional offset `off` by [`Self::add_function`].
    pub fn add_unwind(&mut self, off: u64, entry: UnwindEntry) {
        self.unwind.push((off, entry));
    }

    /// Approximate retained heap size in bytes (payload, relocations,
    /// names), used by the engine's code cache for its byte bound.
    pub fn approx_size(&self) -> usize {
        self.items
            .iter()
            .map(|i| i.name.len() + i.bytes.len() + i.relocs.len() * 32)
            .sum::<usize>()
            + self.unwind.len() * 32
    }

    /// Serializes the builder into a self-describing, versioned byte
    /// stream that [`ImageBuilder::deserialize_bytes`] restores exactly:
    /// ISA, every item (name, alignment, kind, payload, relocations),
    /// and the unwind entries. It is position-independent: two builders
    /// with equal content link to behaviorally identical images (which
    /// differ only in their embedded base address), so determinism tests
    /// compare this instead of linked bytes. It is also what the
    /// engine's persistent artifact store writes to disk.
    pub fn serialize_bytes(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.u32(IMAGE_FORMAT_VERSION);
        w.u8(match self.isa {
            Isa::Tx64 => 0,
            Isa::Ta64 => 1,
        });
        w.u64(self.items.len() as u64);
        for item in &self.items {
            w.str(&item.name);
            w.u64(item.align);
            w.u8(u8::from(item.is_code));
            w.blob(&item.bytes);
            w.u64(item.relocs.len() as u64);
            for r in &item.relocs {
                w.u64(r.offset as u64);
                w.u8(r.kind as u8);
                w.str(&r.sym.name);
                w.u64(r.addend as u64);
            }
        }
        w.u64(self.unwind.len() as u64);
        for &(off, e) in &self.unwind {
            w.u64(off);
            w.u64(e.start as u64);
            w.u64(e.end as u64);
            w.u64(u64::from(e.frame_size));
            w.u8(u8::from(e.synchronous_only));
        }
        w.0
    }

    /// Restores a builder from [`ImageBuilder::serialize_bytes`] output.
    ///
    /// # Errors
    /// Returns [`ImageCodecError`] for a version mismatch, truncated
    /// input, invalid tags, or trailing bytes — the caller (the
    /// artifact store) treats any of these as a corrupt file and falls
    /// back to recompilation.
    pub fn deserialize_bytes(bytes: &[u8]) -> Result<ImageBuilder, ImageCodecError> {
        let mut r = Reader { buf: bytes, at: 0 };
        let version = r.u32()?;
        if version != IMAGE_FORMAT_VERSION {
            return Err(ImageCodecError(format!(
                "unsupported image format version {version} (expected {IMAGE_FORMAT_VERSION})"
            )));
        }
        let isa = match r.u8()? {
            0 => Isa::Tx64,
            1 => Isa::Ta64,
            t => return Err(ImageCodecError(format!("invalid ISA tag {t}"))),
        };
        let mut builder = ImageBuilder::new(isa);
        let n_items = r.u64()?;
        for _ in 0..n_items {
            let name = r.str()?;
            let align = r.u64()?;
            if !align.is_power_of_two() {
                return Err(ImageCodecError(format!("invalid alignment {align}")));
            }
            let is_code = r.bool()?;
            let payload = r.blob()?;
            let n_relocs = r.u64()?;
            let mut relocs = Vec::new();
            for _ in 0..n_relocs {
                let offset = r.u64()? as usize;
                let kind = match r.u8()? {
                    t if t == RelocKind::Rel32 as u8 => RelocKind::Rel32,
                    t if t == RelocKind::Abs64 as u8 => RelocKind::Abs64,
                    t if t == RelocKind::Rel24Words as u8 => RelocKind::Rel24Words,
                    t if t == RelocKind::MovSeqAbs64 as u8 => RelocKind::MovSeqAbs64,
                    t => return Err(ImageCodecError(format!("invalid reloc kind {t}"))),
                };
                let sym = crate::reloc::SymbolRef::named(&r.str()?);
                let addend = r.u64()? as i64;
                relocs.push(Reloc {
                    offset,
                    kind,
                    sym,
                    addend,
                });
            }
            builder.add_item(&name, payload, relocs, align, is_code);
        }
        let n_unwind = r.u64()?;
        for _ in 0..n_unwind {
            let off = r.u64()?;
            let entry = UnwindEntry {
                start: r.u64()? as usize,
                end: r.u64()? as usize,
                frame_size: u32::try_from(r.u64()?)
                    .map_err(|_| ImageCodecError("frame size out of range".into()))?,
                synchronous_only: r.bool()?,
            };
            builder.add_unwind(off, entry);
        }
        if r.at != bytes.len() {
            return Err(ImageCodecError(format!(
                "{} trailing bytes after image payload",
                bytes.len() - r.at
            )));
        }
        Ok(builder)
    }

    /// Provisional (veneer-free) layout, used to key unwind entries.
    fn provisional_offsets(&self) -> Vec<u64> {
        let mut offs = Vec::with_capacity(self.items.len());
        let mut off = 0u64;
        for item in &self.items {
            off = align_up(off, item.align);
            offs.push(off);
            off += item.bytes.len() as u64;
        }
        offs
    }

    /// Resolves all relocations and produces an executable image.
    ///
    /// `resolver` maps symbol names defined outside the image (runtime
    /// helpers) to their absolute virtual addresses.
    ///
    /// # Errors
    /// Fails on duplicate item names, symbols neither defined
    /// internally nor known to `resolver`, and displacements that
    /// cannot be made to fit even through a veneer.
    pub fn link(&self, resolver: &dyn Fn(&str) -> Option<u64>) -> Result<CodeImage, LinkError> {
        if let Some(name) = &self.duplicate {
            return Err(LinkError::Duplicate(name.clone()));
        }
        let isa = self.isa;
        let veneer_size: u64 = match isa {
            Isa::Tx64 => 16, // movabs r14, imm64; callind r14; ret (13, padded)
            Isa::Ta64 => 24, // movz/movk*3 r28; callind r28; ret
        };

        // Resolve every relocation's symbol once, up front.
        let mut targets: Vec<Vec<Target>> = Vec::with_capacity(self.items.len());
        for item in &self.items {
            let mut per = Vec::with_capacity(item.relocs.len());
            for r in &item.relocs {
                per.push(match self.by_name.get(&r.sym.name) {
                    Some(&idx) => Target::Internal(idx),
                    None => match resolver(&r.sym.name) {
                        Some(addr) => Target::External(addr),
                        None => return Err(LinkError::Unresolved(r.sym.name.clone())),
                    },
                });
            }
            targets.push(per);
        }

        // Fixpoint veneer placement: each island lives right after the
        // item whose calls it serves, so island slots are always in
        // range. Flagged veneers are never un-flagged (layout growth is
        // monotone), which guarantees termination.
        let mut veneers: Vec<HashMap<String, u64>> =
            self.items.iter().map(|_| HashMap::new()).collect();
        let mut item_offs: Vec<u64> = vec![0; self.items.len()];
        let mut total;
        loop {
            // Lay out items and their islands.
            let mut off = 0u64;
            for (i, item) in self.items.iter().enumerate() {
                off = align_up(off, item.align);
                item_offs[i] = off;
                off += item.bytes.len() as u64;
                off = align_up(off, 16);
                for slot in veneers[i].values_mut() {
                    *slot = off;
                    off += veneer_size;
                }
            }
            total = off;

            // Find call sites that (still) need a veneer.
            let mut changed = false;
            for (i, item) in self.items.iter().enumerate() {
                if !item.is_code {
                    // Data items hold only address relocations, which
                    // never route through veneers.
                    continue;
                }
                for (r, tgt) in item.relocs.iter().zip(&targets[i]) {
                    let is_call = matches!(r.kind, RelocKind::Rel32 | RelocKind::Rel24Words);
                    if !is_call || veneers[i].contains_key(&r.sym.name) {
                        continue;
                    }
                    let needs = match (tgt, r.kind) {
                        // Externals live at far virtual addresses.
                        (Target::External(_), _) => true,
                        // TX64 rel32 spans any realistic image.
                        (Target::Internal(_), RelocKind::Rel32) => false,
                        (Target::Internal(t), RelocKind::Rel24Words) => {
                            let site_end = item_offs[i] + r.offset as u64 + 4;
                            let disp = item_offs[*t] as i64 - site_end as i64;
                            disp.abs() > BL_RANGE
                        }
                        _ => false,
                    };
                    if needs {
                        veneers[i].insert(r.sym.name.clone(), 0);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Assemble the final buffer. Box<[u8]> so the base address is
        // stable for the lifetime of the image.
        let mut buf = vec![0u8; total as usize];
        for (i, item) in self.items.iter().enumerate() {
            let at = item_offs[i] as usize;
            buf[at..at + item.bytes.len()].copy_from_slice(&item.bytes);
        }
        let mut buf: Box<[u8]> = buf.into_boxed_slice();
        let base = buf.as_ptr() as u64;

        // Absolute address a call relocation should reach, routed
        // through this item's veneer when one was flagged.
        let call_target = |i: usize, name: &str, tgt: Target| -> u64 {
            if let Some(&v) = veneers[i].get(name) {
                return base + v;
            }
            match tgt {
                Target::Internal(t) => base + item_offs[t],
                Target::External(a) => a,
            }
        };
        // Absolute address of the symbol itself (for address-taking
        // relocations, which never go through veneers).
        let sym_addr = |tgt: Target| -> u64 {
            match tgt {
                Target::Internal(t) => base + item_offs[t],
                Target::External(a) => a,
            }
        };

        // Patch relocation sites.
        for (i, item) in self.items.iter().enumerate() {
            for (r, &tgt) in item.relocs.iter().zip(&targets[i]) {
                let field = (item_offs[i] as usize) + r.offset;
                match r.kind {
                    RelocKind::Rel32 => {
                        let dest = call_target(i, &r.sym.name, tgt) as i64 + r.addend;
                        let rel = dest - (base as i64 + field as i64 + 4);
                        let rel = i32::try_from(rel)
                            .map_err(|_| LinkError::OutOfRange(r.sym.name.clone()))?;
                        buf[field..field + 4].copy_from_slice(&rel.to_le_bytes());
                    }
                    RelocKind::Rel24Words => {
                        let dest = call_target(i, &r.sym.name, tgt) as i64 + r.addend;
                        let rel = dest - (base as i64 + field as i64 + 4);
                        debug_assert_eq!(rel % 4, 0, "misaligned TA64 call target");
                        let words = rel / 4;
                        if !(-(1 << 23)..(1 << 23)).contains(&words) {
                            return Err(LinkError::OutOfRange(r.sym.name.clone()));
                        }
                        let old = u32::from_le_bytes(buf[field..field + 4].try_into().unwrap());
                        let new = (old & 0xFF00_0000) | (words as u32 & 0x00FF_FFFF);
                        buf[field..field + 4].copy_from_slice(&new.to_le_bytes());
                    }
                    RelocKind::Abs64 => {
                        let v = (sym_addr(tgt) as i64 + r.addend) as u64;
                        buf[field..field + 8].copy_from_slice(&v.to_le_bytes());
                    }
                    RelocKind::MovSeqAbs64 => {
                        let v = (sym_addr(tgt) as i64 + r.addend) as u64;
                        patch_mov_seq(&mut buf[field..field + 16], v);
                    }
                }
            }
        }

        // Emit veneer bodies.
        for island in &veneers {
            for (name, &voff) in island {
                let tgt = self
                    .items
                    .iter()
                    .zip(&targets)
                    .flat_map(|(it, ts)| it.relocs.iter().zip(ts))
                    .find(|(r, _)| r.sym.name == *name)
                    .map(|(_, &t)| t)
                    .expect("veneer target vanished");
                let dest = sym_addr(tgt);
                emit_veneer(
                    isa,
                    &mut buf[voff as usize..(voff + veneer_size) as usize],
                    dest,
                );
            }
        }

        Ok(CodeImage {
            isa,
            buf,
            symbols: self
                .items
                .iter()
                .zip(&item_offs)
                .map(|(item, &off)| (item.name.clone(), off))
                .collect(),
            unwind: {
                let prov = self.provisional_offsets();
                self.unwind
                    .iter()
                    .map(|&(prov_off, entry)| {
                        let idx = prov
                            .iter()
                            .position(|&p| p == prov_off)
                            .expect("unwind entry for unknown function offset");
                        (item_offs[idx], entry)
                    })
                    .collect()
            },
        })
    }
}

fn align_up(v: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (v + align - 1) & !(align - 1)
}

/// Rewrites the `imm16` fields of a `movz` + 3×`movk` sequence in place,
/// preserving opcode, shift, and destination-register bits.
fn patch_mov_seq(words: &mut [u8], value: u64) {
    for chunk in 0..4usize {
        let at = chunk * 4;
        let old = u32::from_le_bytes(words[at..at + 4].try_into().unwrap());
        let imm = (value >> (16 * chunk)) as u16;
        let new = (old & 0xFFFF_0000) | imm as u32;
        words[at..at + 4].copy_from_slice(&new.to_le_bytes());
    }
}

/// Writes a thunk/veneer that transfers control to absolute `dest`
/// through the ISA's reserved scratch register. An indirect *call* (not
/// a jump) plus `ret`: with the emulator's shadow call stack the
/// callee's `ret` returns here and this `ret` returns to the original
/// caller.
fn emit_veneer(isa: Isa, out: &mut [u8], dest: u64) {
    match isa {
        Isa::Tx64 => {
            let scratch = crate::isa::TX64_ABI.scratch;
            out[0] = tx64::opc::MOVRI64;
            out[1] = scratch.0;
            out[2..10].copy_from_slice(&dest.to_le_bytes());
            out[10] = tx64::opc::CALLIND;
            out[11] = scratch.0;
            out[12] = tx64::opc::RET;
            for b in &mut out[13..] {
                *b = tx64::opc::NOP;
            }
        }
        Isa::Ta64 => {
            let scratch = crate::isa::TA64_ABI.scratch;
            let mut words = [0u32; 6];
            words[0] = ta64::pack_i16(ta64::opc::MOVZ, 0, scratch.0, dest as u16);
            for (shift, w) in words[1..4].iter_mut().enumerate() {
                *w = ta64::pack_i16(
                    ta64::opc::MOVK,
                    shift as u8 + 1,
                    scratch.0,
                    (dest >> (16 * (shift + 1))) as u16,
                );
            }
            words[4] = ta64::pack_r(ta64::opc::CALLIND, 0, scratch.0, 0, 0, 0);
            words[5] = (ta64::opc::RET as u32) << 24;
            for (w, slot) in words.iter().zip(out.chunks_exact_mut(4)) {
                slot.copy_from_slice(&w.to_le_bytes());
            }
        }
    }
}

/// A linked, executable code image at a stable base address.
///
/// The backing buffer is heap-allocated and never moves, so the
/// absolute addresses patched at link time stay valid for the life of
/// the image (including after the image itself is moved).
#[derive(Debug)]
pub struct CodeImage {
    pub(crate) isa: Isa,
    pub(crate) buf: Box<[u8]>,
    // symbol -> offset from base
    pub(crate) symbols: HashMap<String, u64>,
    // (final function offset, entry)
    pub(crate) unwind: Vec<(u64, UnwindEntry)>,
}

impl CodeImage {
    /// The ISA this image was linked for.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// Total image size in bytes (code, data, and veneers).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the image contains no bytes.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The absolute base address of the image.
    pub fn base(&self) -> u64 {
        self.buf.as_ptr() as u64
    }

    /// The raw linked bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Absolute address of a defined symbol (function or data).
    pub fn addr_of(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).map(|off| self.base() + off)
    }

    /// The registered unwind entries as `(function offset, entry)`
    /// pairs.
    pub fn unwind_entries(&self) -> &[(u64, UnwindEntry)] {
        &self.unwind
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reloc::SymbolRef;

    fn sample_builder() -> ImageBuilder {
        let mut ib = ImageBuilder::new(Isa::Tx64);
        let off = ib.add_function(
            "f",
            vec![0x90; 24],
            vec![Reloc {
                offset: 3,
                kind: RelocKind::Rel32,
                sym: SymbolRef::named("rt_helper"),
                addend: -4,
            }],
        );
        ib.add_unwind(
            off,
            UnwindEntry {
                start: 0,
                end: 24,
                frame_size: 32,
                synchronous_only: true,
            },
        );
        ib.add_data(
            "pool",
            vec![1, 2, 3, 4, 5, 6, 7, 8],
            8,
            vec![Reloc {
                offset: 0,
                kind: RelocKind::Abs64,
                sym: SymbolRef::named("f"),
                addend: 8,
            }],
        );
        ib
    }

    #[test]
    fn serialize_roundtrip_preserves_content() {
        let ib = sample_builder();
        let bytes = ib.serialize_bytes();
        let back = ImageBuilder::deserialize_bytes(&bytes).expect("roundtrip");
        assert_eq!(ib.serialize_bytes(), back.serialize_bytes());
        assert_eq!(back.isa, Isa::Tx64);
        // The restored builder must link like the original.
        let resolve = |name: &str| (name == "rt_helper").then_some(0xdead_0000u64);
        let a = ib.link(&resolve).expect("link original");
        let b = back.link(&resolve).expect("link restored");
        assert_eq!(a.len(), b.len());
        assert_eq!(a.unwind_entries().len(), b.unwind_entries().len());
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let bytes = sample_builder().serialize_bytes();
        for cut in [0, 3, 5, 17, bytes.len() - 1] {
            assert!(
                ImageBuilder::deserialize_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must not parse"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample_builder().serialize_bytes();
        bytes.push(0);
        assert!(ImageBuilder::deserialize_bytes(&bytes).is_err());
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = sample_builder().serialize_bytes();
        bytes[0] = bytes[0].wrapping_add(1);
        let err = ImageBuilder::deserialize_bytes(&bytes).err().expect("err");
        assert!(err.to_string().contains("version"));
    }
}
