//! Stable structural hashing of IR, keying the engine's compile-result
//! cache.
//!
//! Two modules hash equal exactly when a back-end would emit identical
//! code for them: same functions in the same order, each with the same
//! signature, blocks, instructions, operands, stack slots, and external
//! references. The hash deliberately *excludes* the module name — the
//! code generator derives it from the query name, and two differently
//! named queries with structurally identical pipelines compile to the
//! same machine code (string literals are resolved through the context
//! block at run time, not baked into the IR).
//!
//! The hash walks the dense entity storage directly in layout order, so
//! it is deterministic across processes and platforms (FNV-1a over
//! little-endian field encodings, no pointer values, no `HashMap`
//! iteration order).

use crate::entities::{Block, Value};
use crate::function::{Function, Module, Signature};
use crate::instr::InstData;
use crate::types::Type;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a writer over typed fields.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn i128(&mut self, v: i128) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        // Length prefix keeps ("ab","c") distinct from ("a","bc").
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn ty(&mut self, ty: Type) {
        self.u8(ty as u8);
    }

    fn value(&mut self, v: Value) {
        self.u32(v.index() as u32);
    }

    fn block(&mut self, b: Block) {
        self.u32(b.index() as u32);
    }

    fn sig(&mut self, sig: &Signature) {
        self.u64(sig.params.len() as u64);
        for &p in sig.params.iter() {
            self.ty(p);
        }
        self.ty(sig.ret);
    }
}

/// Per-variant tags; explicit so reordering the `InstData` enum cannot
/// silently change hashes between builds.
fn inst_tag(data: &InstData) -> u8 {
    match data {
        InstData::IConst { .. } => 1,
        InstData::FConst { .. } => 2,
        InstData::Binary { .. } => 3,
        InstData::Cmp { .. } => 4,
        InstData::FCmp { .. } => 5,
        InstData::Cast { .. } => 6,
        InstData::Crc32 { .. } => 7,
        InstData::LongMulFold { .. } => 8,
        InstData::Select { .. } => 9,
        InstData::Load { .. } => 10,
        InstData::Store { .. } => 11,
        InstData::Gep { .. } => 12,
        InstData::StackAddr { .. } => 13,
        InstData::Call { .. } => 14,
        InstData::FuncAddr { .. } => 15,
        InstData::Phi { .. } => 16,
        InstData::Jump { .. } => 17,
        InstData::Branch { .. } => 18,
        InstData::Return { .. } => 19,
        InstData::Unreachable => 20,
    }
}

fn hash_inst(h: &mut Fnv, data: &InstData) {
    h.u8(inst_tag(data));
    match data {
        InstData::IConst { ty, imm } => {
            h.ty(*ty);
            h.i128(*imm);
        }
        InstData::FConst { imm } => h.u64(imm.to_bits()),
        InstData::Binary { op, ty, args } => {
            h.u8(*op as u8);
            h.ty(*ty);
            h.value(args[0]);
            h.value(args[1]);
        }
        InstData::Cmp { op, ty, args } => {
            h.u8(*op as u8);
            h.ty(*ty);
            h.value(args[0]);
            h.value(args[1]);
        }
        InstData::FCmp { op, args } => {
            h.u8(*op as u8);
            h.value(args[0]);
            h.value(args[1]);
        }
        InstData::Cast { op, to, arg } => {
            h.u8(*op as u8);
            h.ty(*to);
            h.value(*arg);
        }
        InstData::Crc32 { args } | InstData::LongMulFold { args } => {
            h.value(args[0]);
            h.value(args[1]);
        }
        InstData::Select {
            ty,
            cond,
            if_true,
            if_false,
        } => {
            h.ty(*ty);
            h.value(*cond);
            h.value(*if_true);
            h.value(*if_false);
        }
        InstData::Load { ty, ptr, offset } => {
            h.ty(*ty);
            h.value(*ptr);
            h.u32(*offset as u32);
        }
        InstData::Store {
            ty,
            ptr,
            value,
            offset,
        } => {
            h.ty(*ty);
            h.value(*ptr);
            h.value(*value);
            h.u32(*offset as u32);
        }
        InstData::Gep {
            base,
            offset,
            index,
            scale,
        } => {
            h.value(*base);
            h.u64(*offset as u64);
            match index {
                Some(i) => {
                    h.u8(1);
                    h.value(*i);
                }
                None => h.u8(0),
            }
            h.u8(*scale);
        }
        InstData::StackAddr { slot } => h.u32(slot.index() as u32),
        InstData::Call { callee, args } => {
            h.u32(callee.index() as u32);
            h.u64(args.len() as u64);
            for &a in args {
                h.value(a);
            }
        }
        InstData::FuncAddr { func } => h.u32(func.index() as u32),
        InstData::Phi { ty, pairs } => {
            h.ty(*ty);
            h.u64(pairs.len() as u64);
            for &(b, v) in pairs {
                h.block(b);
                h.value(v);
            }
        }
        InstData::Jump { dest } => h.block(*dest),
        InstData::Branch {
            cond,
            then_dest,
            else_dest,
        } => {
            h.value(*cond);
            h.block(*then_dest);
            h.block(*else_dest);
        }
        InstData::Return { value } => match value {
            Some(v) => {
                h.u8(1);
                h.value(*v);
            }
            None => h.u8(0),
        },
        InstData::Unreachable => {}
    }
}

fn hash_function_into(h: &mut Fnv, func: &Function) {
    h.str(&func.name);
    h.sig(&func.sig);
    h.u64(func.stack_slots().len() as u64);
    for slot in func.stack_slots() {
        h.u32(slot.size);
        h.u32(slot.align);
    }
    h.u64(func.ext_funcs().len() as u64);
    for decl in func.ext_funcs() {
        h.str(&decl.name);
        h.sig(&decl.sig);
    }
    h.u64(func.num_blocks() as u64);
    for block in func.blocks() {
        let insts = func.block_insts(block);
        h.u64(insts.len() as u64);
        for &inst in insts {
            hash_inst(h, func.inst(inst));
        }
    }
}

/// Stable FNV-1a hash of a raw byte string — the same primitive the
/// structural hash builds on, exported for callers that need a
/// platform-independent content checksum (the engine's persistent
/// artifact store uses it to detect corrupt or truncated files).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.0
}

/// Stable structural hash of one function (name, signature, stack
/// slots, external declarations, and every instruction in block layout
/// order).
pub fn function_structural_hash(func: &Function) -> u64 {
    let mut h = Fnv::new();
    hash_function_into(&mut h, func);
    h.0
}

/// Stable structural hash of a module: its functions in order, each
/// hashed as by [`function_structural_hash`]. The module *name* is
/// excluded (see the module docs).
pub fn module_structural_hash(module: &Module) -> u64 {
    let mut h = Fnv::new();
    h.u64(module.len() as u64);
    for func in module.functions() {
        hash_function_into(&mut h, func);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instr::{CmpOp, Opcode};

    fn sample(name: &str, konst: i64) -> Function {
        let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
        let mut b = FunctionBuilder::new(name, sig);
        let entry = b.entry_block();
        let t = b.create_block();
        let e = b.create_block();
        b.switch_to(entry);
        let (x, y) = (b.param(0), b.param(1));
        let k = b.iconst(Type::I64, konst.into());
        let s = b.add(Type::I64, x, k);
        let c = b.icmp(CmpOp::SLt, Type::I64, s, y);
        b.branch(c, t, e);
        b.switch_to(t);
        let d = b.binary(Opcode::SMulTrap, Type::I64, s, y);
        b.ret(Some(d));
        b.switch_to(e);
        b.ret(Some(s));
        b.finish()
    }

    #[test]
    fn identical_builds_hash_equal() {
        let a = sample("f", 7);
        let b = sample("f", 7);
        assert_eq!(function_structural_hash(&a), function_structural_hash(&b));
    }

    #[test]
    fn constant_perturbation_changes_hash() {
        let a = sample("f", 7);
        let b = sample("f", 8);
        assert_ne!(function_structural_hash(&a), function_structural_hash(&b));
    }

    #[test]
    fn function_name_is_part_of_the_hash() {
        // Function names become link symbols, so they are structural.
        let a = sample("f", 7);
        let b = sample("g", 7);
        assert_ne!(function_structural_hash(&a), function_structural_hash(&b));
    }

    #[test]
    fn module_name_is_not_part_of_the_hash() {
        let mut m1 = Module::new("q1_pipeline0");
        m1.push_function(sample("main", 7));
        let mut m2 = Module::new("q2_pipeline0");
        m2.push_function(sample("main", 7));
        assert_eq!(module_structural_hash(&m1), module_structural_hash(&m2));
    }

    #[test]
    fn function_order_matters() {
        let mut m1 = Module::new("m");
        m1.push_function(sample("a", 1));
        m1.push_function(sample("b", 2));
        let mut m2 = Module::new("m");
        m2.push_function(sample("b", 2));
        m2.push_function(sample("a", 1));
        assert_ne!(module_structural_hash(&m1), module_structural_hash(&m2));
    }

    #[test]
    fn hash_is_stable_across_clones() {
        let mut m = Module::new("m");
        m.push_function(sample("f", 42));
        let h1 = module_structural_hash(&m);
        let h2 = module_structural_hash(&m.clone());
        assert_eq!(h1, h2);
    }
}
