//! Textual IR output (see paper Listings 1–2 for the style being mirrored).

use crate::entities::Value;
use crate::function::{Function, Module};
use crate::instr::InstData;
use std::fmt::Write;

/// Prints a module in textual form.
pub fn print_module(module: &Module) -> String {
    let mut out = String::new();
    writeln!(out, "module {}", module.name).unwrap();
    for func in module.functions() {
        out.push('\n');
        out.push_str(&print_function(func));
    }
    out
}

/// Prints a function in textual form.
pub fn print_function(func: &Function) -> String {
    let mut out = String::new();
    let params: Vec<String> = func
        .params()
        .iter()
        .map(|&v| format!("{} {}", func.value_type(v), v))
        .collect();
    writeln!(
        out,
        "define {} @{}({}) {{",
        func.sig.ret,
        func.name,
        params.join(", ")
    )
    .unwrap();
    for (i, slot) in func.stack_slots().iter().enumerate() {
        writeln!(
            out,
            "  stackslot ss{}, size {}, align {}",
            i, slot.size, slot.align
        )
        .unwrap();
    }
    for (i, ext) in func.ext_funcs().iter().enumerate() {
        let tys: Vec<String> = ext.sig.params.iter().map(|t| t.to_string()).collect();
        writeln!(
            out,
            "  extfunc ext{} @{}({}) -> {}",
            i,
            ext.name,
            tys.join(", "),
            ext.sig.ret
        )
        .unwrap();
    }
    for block in func.blocks() {
        writeln!(out, "{block}:").unwrap();
        for &inst in func.block_insts(block) {
            let data = func.inst(inst);
            out.push_str("  ");
            if let Some(res) = func.inst_result(inst) {
                write!(out, "{res} = ").unwrap();
            }
            print_inst(&mut out, data);
            out.push('\n');
        }
    }
    out.push_str("}\n");
    out
}

fn print_value_list(out: &mut String, args: &[Value]) {
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, "{a}").unwrap();
    }
}

fn print_inst(out: &mut String, data: &InstData) {
    match data {
        InstData::IConst { ty, imm } => write!(out, "iconst {ty} {imm}").unwrap(),
        InstData::FConst { imm } => write!(out, "fconst {imm:?}").unwrap(),
        InstData::Binary { op, ty, args } => {
            write!(out, "{op} {ty} {}, {}", args[0], args[1]).unwrap()
        }
        InstData::Cmp { op, ty, args } => {
            write!(out, "cmp {op} {ty} {}, {}", args[0], args[1]).unwrap()
        }
        InstData::FCmp { op, args } => write!(out, "fcmp {op} {}, {}", args[0], args[1]).unwrap(),
        InstData::Cast { op, to, arg } => write!(out, "{op} {to} {arg}").unwrap(),
        InstData::Crc32 { args } => write!(out, "crc32 {}, {}", args[0], args[1]).unwrap(),
        InstData::LongMulFold { args } => write!(out, "lmulfold {}, {}", args[0], args[1]).unwrap(),
        InstData::Select {
            ty,
            cond,
            if_true,
            if_false,
        } => write!(out, "select {ty} {cond}, {if_true}, {if_false}").unwrap(),
        InstData::Load { ty, ptr, offset } => {
            write!(out, "load {ty} {ptr}, offset {offset}").unwrap()
        }
        InstData::Store {
            ty,
            ptr,
            value,
            offset,
        } => write!(out, "store {ty} {ptr}, {value}, offset {offset}").unwrap(),
        InstData::Gep {
            base,
            offset,
            index,
            scale,
        } => {
            write!(out, "gep {base}, offset {offset}").unwrap();
            if let Some(i) = index {
                write!(out, ", index {i}, scale {scale}").unwrap();
            }
        }
        InstData::StackAddr { slot } => write!(out, "stackaddr {slot}").unwrap(),
        InstData::Call { callee, args } => {
            write!(out, "call {callee}(").unwrap();
            print_value_list(out, args);
            out.push(')');
        }
        InstData::FuncAddr { func } => write!(out, "funcaddr {func}").unwrap(),
        InstData::Phi { ty, pairs } => {
            write!(out, "phi {ty}").unwrap();
            for (i, (block, value)) in pairs.iter().enumerate() {
                write!(out, "{} [{block} {value}]", if i == 0 { " " } else { ", " }).unwrap();
            }
        }
        InstData::Jump { dest } => write!(out, "jump {dest}").unwrap(),
        InstData::Branch {
            cond,
            then_dest,
            else_dest,
        } => write!(out, "br {cond} {then_dest} {else_dest}").unwrap(),
        InstData::Return { value } => match value {
            Some(v) => write!(out, "ret {v}").unwrap(),
            None => out.push_str("ret"),
        },
        InstData::Unreachable => out.push_str("unreachable"),
    }
}

/// Helper for tests: asserts the printed form contains a line.
#[cfg(test)]
pub(crate) fn assert_printed_contains(func: &Function, needle: &str) {
    let text = print_function(func);
    assert!(
        text.contains(needle),
        "printed IR missing {needle:?}:\n{text}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::{ExtFuncDecl, Signature};
    use crate::instr::CmpOp;
    use crate::types::Type;

    #[test]
    fn prints_listing_style_function() {
        let sig = Signature::new(vec![Type::Ptr, Type::I32], Type::I32);
        let mut b = FunctionBuilder::new("filter", sig);
        let e = b.entry_block();
        let t = b.create_block();
        let f = b.create_block();
        b.switch_to(e);
        let count = b.param(1);
        let zero = b.iconst(Type::I32, 0);
        let c = b.icmp(CmpOp::Eq, Type::I32, count, zero);
        b.branch(c, t, f);
        b.switch_to(t);
        b.ret(Some(zero));
        b.switch_to(f);
        let one = b.iconst(Type::I32, 1);
        b.ret(Some(one));
        let func = b.finish();
        let text = print_function(&func);
        assert!(text.contains("define i32 @filter(ptr %0, i32 %1)"));
        assert!(text.contains("%3 = cmp eq i32 %1, %2"));
        assert!(text.contains("br %3 b1 b2"));
        assert!(text.contains("ret %4"));
    }

    #[test]
    fn prints_special_instructions() {
        let mut b = FunctionBuilder::new("h", Signature::new(vec![Type::I64], Type::I64));
        let slot = b.stack_slot(16);
        let ext = b.declare_ext_func(ExtFuncDecl {
            name: "rt_throw_overflow".into(),
            sig: Signature::new(vec![], Type::Void),
        });
        let e = b.entry_block();
        b.switch_to(e);
        let x = b.param(0);
        let h = b.crc32(x, x);
        let m = b.long_mul_fold(h, x);
        let addr = b.stack_addr(slot);
        b.store(Type::I64, addr, m, 0);
        let l = b.load(Type::I64, addr, 0);
        b.call(ext, vec![]);
        let g = b.gep_indexed(addr, 8, l, 8);
        let v = b.load(Type::I64, g, 0);
        b.ret(Some(v));
        let func = b.finish();
        assert_printed_contains(&func, "crc32 %0, %0");
        assert_printed_contains(&func, "lmulfold %1, %0");
        assert_printed_contains(&func, "stackslot ss0, size 16, align 16");
        assert_printed_contains(&func, "extfunc ext0 @rt_throw_overflow() -> void");
        assert_printed_contains(&func, "call ext0()");
        assert_printed_contains(&func, "gep %3, offset 8, index %4, scale 8");
    }

    #[test]
    fn prints_module_header() {
        let mut m = Module::new("q1_p0");
        let mut b = FunctionBuilder::new("f", Signature::new(vec![], Type::Void));
        let e = b.entry_block();
        b.switch_to(e);
        b.ret(None);
        m.push_function(b.finish());
        let text = print_module(&m);
        assert!(text.starts_with("module q1_p0"));
        assert!(text.contains("define void @f()"));
    }
}
