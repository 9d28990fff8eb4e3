//! The pipeline code generator.

use qc_ir::{
    Block, CastOp, CmpOp, ExtFuncDecl, ExtFuncId, FuncId, FunctionBuilder, Module, Opcode,
    Signature, Type, Value,
};
use qc_plan::AggFunc;
use qc_plan::{
    ArithOp, CmpKind, CtxEntry, Expr, PhysicalPlan, Pipeline, RowField, RowLayout, Sink, Source,
    StreamOp,
};
use qc_runtime::{HASH_SEED1, HASH_SEED2};
use qc_storage::ColumnType;
use std::borrow::Cow;
use std::sync::Arc;

/// The generated IR of one query: one module per pipeline, in execution
/// order. Each module defines `setup(ctx)`, `main(ctx, start, count)`,
/// `finish(ctx)`, and for sort pipelines a comparator `cmp<N>(a, b)`.
/// Modules are reference-counted so the engine's compilation service
/// can ship each pipeline to a worker thread without cloning the IR.
#[derive(Debug)]
pub struct GeneratedQuery {
    /// One module per pipeline.
    pub modules: Vec<Arc<Module>>,
}

/// Generates IR for every pipeline of `plan`.
pub fn generate(plan: &PhysicalPlan, query_name: &str) -> GeneratedQuery {
    let modules = plan
        .pipelines
        .iter()
        .map(|p| Arc::new(generate_pipeline(plan, p, query_name)))
        .collect();
    GeneratedQuery { modules }
}

/// QIR type for a plan column type, as held in SSA values.
fn ir_type(ty: ColumnType) -> Type {
    match ty {
        ColumnType::I32 | ColumnType::I64 | ColumnType::Date => Type::I64,
        ColumnType::Decimal(_) => Type::I128,
        ColumnType::F64 => Type::F64,
        ColumnType::Str => Type::String,
        ColumnType::Bool => Type::Bool,
    }
}

fn generate_pipeline(plan: &PhysicalPlan, pipe: &Pipeline, query_name: &str) -> Module {
    let mut module = Module::new(format!("{query_name}_p{}", pipe.id));

    // Sort comparator first so its FuncId is known to `finish`.
    let cmp_id = if let Sink::SortMaterialize {
        sort_id,
        keys,
        layout,
    } = &pipe.sink
    {
        Some((
            gen_comparator(&mut module, plan, *sort_id, keys, layout),
            *sort_id,
        ))
    } else {
        None
    };

    gen_setup(&mut module, plan, pipe);
    gen_main(&mut module, plan, pipe);
    gen_finish(&mut module, plan, pipe, cmp_id);
    module
}

/// The runtime functions generated code calls.
#[derive(Debug, Clone, Copy)]
enum Rt {
    HtCreate,
    HtInsert,
    HtBuild,
    HtProbe,
    BufCreate,
    BufAlloc,
    BufRow,
    Sort,
    StrEq,
    StrLt,
    StrPrefix,
    StrContains,
    StrHash,
}

impl Rt {
    const COUNT: usize = Rt::StrHash as usize + 1;

    /// The declaration: symbol name and QIR signature, both constants.
    fn decl(self) -> ExtFuncDecl {
        use Type::{Bool, Ptr, String as Str, Void, I64};
        let (name, params, ret): (_, &'static [Type], _) = match self {
            Rt::HtCreate => ("rt_ht_create", &[I64], I64),
            Rt::HtInsert => ("rt_ht_insert", &[I64, I64, I64], Ptr),
            Rt::HtBuild => ("rt_ht_build", &[I64], Void),
            Rt::HtProbe => ("rt_ht_probe", &[I64, I64], Ptr),
            Rt::BufCreate => ("rt_buf_create", &[I64], I64),
            Rt::BufAlloc => ("rt_buf_alloc", &[I64], Ptr),
            Rt::BufRow => ("rt_buf_row", &[I64, I64], Ptr),
            Rt::Sort => ("rt_sort", &[I64, Ptr], Void),
            Rt::StrEq => ("rt_str_eq", &[Str, Str], Bool),
            Rt::StrLt => ("rt_str_lt", &[Str, Str], Bool),
            Rt::StrPrefix => ("rt_str_prefix", &[Str, Str], Bool),
            Rt::StrContains => ("rt_str_contains", &[Str, Str], Bool),
            Rt::StrHash => ("rt_str_hash", &[Str], I64),
        };
        ExtFuncDecl {
            name: Cow::Borrowed(name),
            sig: Signature::fixed(params, ret),
        }
    }
}

/// One bound column value.
#[derive(Debug, Clone, Copy)]
struct Binding {
    value: Value,
    ty: ColumnType,
}

/// Code generation state for one function.
struct Gen<'p> {
    b: FunctionBuilder,
    plan: &'p PhysicalPlan,
    /// Name → value bindings, names borrowed from the plan; later
    /// entries shadow earlier ones.
    env: Vec<(&'p str, Binding)>,
    /// Hoisted string literals by literal index.
    str_consts: Vec<Option<Binding>>,
    /// Each runtime function's id, once the function has declared it.
    rt: [Option<ExtFuncId>; Rt::COUNT],
    /// ctx parameter.
    ctx: Value,
}

impl<'p> Gen<'p> {
    fn new(plan: &'p PhysicalPlan, name: impl Into<String>, sig: Signature) -> Self {
        let b = FunctionBuilder::new(name, sig);
        let ctx = b.param(0);
        Gen {
            b,
            plan,
            env: Vec::new(),
            str_consts: vec![None; plan.str_literals.len()],
            rt: [None; Rt::COUNT],
            ctx,
        }
    }

    fn bind(&mut self, name: &'p str, value: Value, ty: ColumnType) {
        self.env.push((name, Binding { value, ty }));
    }

    fn lookup(&self, name: &str) -> Binding {
        self.env
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, b)| b)
            .unwrap_or_else(|| panic!("unbound column `{name}`"))
    }

    fn call_rt(&mut self, rt: Rt, args: Vec<Value>) -> Option<Value> {
        let id = match self.rt[rt as usize] {
            Some(id) => id,
            None => *self.rt[rt as usize].insert(self.b.declare_ext_func(rt.decl())),
        };
        self.b.call(id, args)
    }

    /// Loads a ctx slot as a 64-bit handle/pointer.
    fn ctx_load(&mut self, entry: &CtxEntry, ty: Type) -> Value {
        let off = self.plan.ctx_offset(entry);
        self.b.load(ty, self.ctx, off)
    }

    fn ctx_store(&mut self, entry: &CtxEntry, ty: Type, value: Value) {
        let off = self.plan.ctx_offset(entry);
        self.b.store(ty, self.ctx, value, off);
    }

    /// A loop header's Φ with its entry edge, room left for the back
    /// edge.
    fn loop_phi(&mut self, ty: Type, pred: Block, value: Value) -> Value {
        let mut pairs = Vec::with_capacity(2);
        pairs.push((pred, value));
        self.b.phi(ty, pairs)
    }

    /// Hoists string literal `idx` (loaded once in the entry block).
    fn str_const(&mut self, idx: usize) -> Binding {
        if let Some(b) = self.str_consts[idx] {
            return b;
        }
        let v = self.ctx_load(&CtxEntry::StrConst(idx), Type::String);
        let b = Binding {
            value: v,
            ty: ColumnType::Str,
        };
        self.str_consts[idx] = Some(b);
        b
    }

    fn str_literal_index(&self, s: &str) -> usize {
        self.plan
            .str_literals
            .iter()
            .position(|l| **l == *s)
            .unwrap_or_else(|| panic!("string literal `{s}` not interned"))
    }

    /// Boolean AND via select (non-short-circuiting).
    fn bool_and(&mut self, a: Value, b: Value) -> Value {
        let f = self.b.iconst(Type::Bool, 0);
        self.b.select(Type::Bool, a, b, f)
    }

    fn bool_or(&mut self, a: Value, b: Value) -> Value {
        let t = self.b.iconst(Type::Bool, 1);
        self.b.select(Type::Bool, a, t, b)
    }

    fn bool_not(&mut self, a: Value) -> Value {
        let f = self.b.iconst(Type::Bool, 0);
        self.b.icmp(CmpOp::Eq, Type::Bool, a, f)
    }

    /// Emits the paper's Listing-2 hash sequence for a 64-bit value.
    fn hash_i64(&mut self, v: Value) -> Value {
        let s1 = self.b.iconst(Type::I64, HASH_SEED1 as i64 as i128);
        let s2 = self.b.iconst(Type::I64, HASH_SEED2 as i64 as i128);
        let a = self.b.crc32(s1, v);
        let c = self.b.crc32(s2, v);
        let thirty_two = self.b.iconst(Type::I64, 32);
        let hi = self.b.binary(Opcode::Shl, Type::I64, c, thirty_two);
        self.b.binary(Opcode::Or, Type::I64, a, hi)
    }

    /// Combines two hashes (must match `qc_runtime::hash_combine`).
    fn hash_combine(&mut self, a: Value, b: Value) -> Value {
        let three = self.b.iconst(Type::I64, 3);
        let m = self.b.binary(Opcode::Mul, Type::I64, a, three);
        let seventeen = self.b.iconst(Type::I64, 17);
        let r = self.b.binary(Opcode::RotR, Type::I64, b, seventeen);
        let s = self.b.add(Type::I64, m, r);
        let k = self.b.iconst(Type::I64, (HASH_SEED1 | 1) as i64 as i128);
        self.b.long_mul_fold(s, k)
    }

    /// Hashes a key tuple. Global aggregations (no keys) hash to a
    /// constant: all tuples land in one group.
    fn hash_keys(&mut self, keys: &[Binding]) -> Value {
        if keys.is_empty() {
            return self.b.iconst(Type::I64, HASH_SEED1 as i64 as i128);
        }
        let mut h: Option<Value> = None;
        for key in keys {
            let hk = match key.ty {
                ColumnType::Str => self
                    .call_rt(Rt::StrHash, vec![key.value])
                    .expect("str hash returns"),
                ColumnType::Decimal(_) => {
                    let t = self.b.trunc(Type::I64, key.value);
                    self.hash_i64(t)
                }
                ColumnType::Bool => {
                    let z = self.b.zext(Type::I64, key.value);
                    self.hash_i64(z)
                }
                ColumnType::F64 => panic!("float join/group keys are unsupported"),
                _ => self.hash_i64(key.value),
            };
            h = Some(match h {
                None => hk,
                Some(acc) => self.hash_combine(acc, hk),
            });
        }
        h.expect("at least one key")
    }

    /// Loads a materialized-row field.
    fn load_field(&mut self, row: Value, f: &RowField) -> Binding {
        let off = f.offset as i32;
        let value = match f.ty {
            ColumnType::Decimal(_) => self.b.load(Type::I128, row, off),
            ColumnType::Str => self.b.load(Type::String, row, off),
            ColumnType::F64 => self.b.load(Type::F64, row, off),
            ColumnType::Bool => {
                let v = self.b.load(Type::I64, row, off);
                let zero = self.b.iconst(Type::I64, 0);
                self.b.icmp(CmpOp::Ne, Type::I64, v, zero)
            }
            _ => self.b.load(Type::I64, row, off),
        };
        Binding { value, ty: f.ty }
    }

    /// Stores a materialized-row field.
    fn store_field(&mut self, row: Value, f: &RowField, v: Binding) {
        let off = f.offset as i32;
        match f.ty {
            ColumnType::Decimal(_) => self.b.store(Type::I128, row, v.value, off),
            ColumnType::Str => self.b.store(Type::String, row, v.value, off),
            ColumnType::F64 => self.b.store(Type::F64, row, v.value, off),
            ColumnType::Bool => {
                let z = self.b.zext(Type::I64, v.value);
                self.b.store(Type::I64, row, z, off);
            }
            _ => self.b.store(Type::I64, row, v.value, off),
        }
    }

    /// Equality of two bound values (for key comparisons).
    fn values_eq(&mut self, a: Binding, b: Binding) -> Value {
        match a.ty {
            ColumnType::Str => self
                .call_rt(Rt::StrEq, vec![a.value, b.value])
                .expect("returns bool"),
            ColumnType::Decimal(_) => self.b.icmp(CmpOp::Eq, Type::I128, a.value, b.value),
            ColumnType::Bool => self.b.icmp(CmpOp::Eq, Type::Bool, a.value, b.value),
            ColumnType::F64 => self.b.fcmp(CmpOp::Eq, a.value, b.value),
            _ => self.b.icmp(CmpOp::Eq, Type::I64, a.value, b.value),
        }
    }

    /// Evaluates a plan expression in the current environment.
    fn eval(&mut self, e: &Expr) -> Binding {
        match e {
            Expr::Column(n) => self.lookup(n),
            Expr::LitI64(v) => {
                let x = self.b.iconst(Type::I64, *v as i128);
                Binding {
                    value: x,
                    ty: ColumnType::I64,
                }
            }
            Expr::LitI32(v) => {
                let x = self.b.iconst(Type::I64, *v as i128);
                Binding {
                    value: x,
                    ty: ColumnType::I64,
                }
            }
            Expr::LitDate(v) => {
                let x = self.b.iconst(Type::I64, *v as i128);
                Binding {
                    value: x,
                    ty: ColumnType::Date,
                }
            }
            Expr::LitDec(v, s) => {
                let x = self.b.iconst(Type::I128, *v);
                Binding {
                    value: x,
                    ty: ColumnType::Decimal(*s),
                }
            }
            Expr::LitF64(v) => {
                let x = self.b.fconst(*v);
                Binding {
                    value: x,
                    ty: ColumnType::F64,
                }
            }
            Expr::LitBool(v) => {
                let x = self.b.iconst(Type::Bool, *v as i128);
                Binding {
                    value: x,
                    ty: ColumnType::Bool,
                }
            }
            Expr::LitStr(s) => {
                let idx = self.str_literal_index(s);
                self.str_const(idx)
            }
            Expr::Arith(op, a, b) => {
                let (va, vb) = (self.eval(a), self.eval(b));
                self.arith(*op, va, vb)
            }
            Expr::Cmp(op, a, b) => {
                let (va, vb) = (self.eval(a), self.eval(b));
                let v = self.compare(*op, va, vb);
                Binding {
                    value: v,
                    ty: ColumnType::Bool,
                }
            }
            Expr::And(a, b) => {
                let (va, vb) = (self.eval(a), self.eval(b));
                let v = self.bool_and(va.value, vb.value);
                Binding {
                    value: v,
                    ty: ColumnType::Bool,
                }
            }
            Expr::Or(a, b) => {
                let (va, vb) = (self.eval(a), self.eval(b));
                let v = self.bool_or(va.value, vb.value);
                Binding {
                    value: v,
                    ty: ColumnType::Bool,
                }
            }
            Expr::Not(a) => {
                let va = self.eval(a);
                let v = self.bool_not(va.value);
                Binding {
                    value: v,
                    ty: ColumnType::Bool,
                }
            }
            Expr::StrPrefix(a, b) => {
                let (va, vb) = (self.eval(a), self.eval(b));
                let v = self
                    .call_rt(Rt::StrPrefix, vec![va.value, vb.value])
                    .expect("returns bool");
                Binding {
                    value: v,
                    ty: ColumnType::Bool,
                }
            }
            Expr::StrContains(a, b) => {
                let (va, vb) = (self.eval(a), self.eval(b));
                let v = self
                    .call_rt(Rt::StrContains, vec![va.value, vb.value])
                    .expect("returns bool");
                Binding {
                    value: v,
                    ty: ColumnType::Bool,
                }
            }
            Expr::CastF64(a) => {
                let va = self.eval(a);
                let v = match va.ty {
                    ColumnType::F64 => va.value,
                    ColumnType::Decimal(_) => {
                        // Group sums fit 64 bits at our scale factors; see
                        // DESIGN.md for the precision note.
                        let t = self.b.trunc(Type::I64, va.value);
                        self.b.cast(CastOp::SiToF, Type::F64, t)
                    }
                    _ => self.b.cast(CastOp::SiToF, Type::F64, va.value),
                };
                Binding {
                    value: v,
                    ty: ColumnType::F64,
                }
            }
        }
    }

    fn arith(&mut self, op: ArithOp, a: Binding, b: Binding) -> Binding {
        match (a.ty, b.ty) {
            (ColumnType::Decimal(s1), ColumnType::Decimal(s2)) => {
                let (value, scale) = match op {
                    ArithOp::Add => (
                        self.b
                            .binary(Opcode::SAddTrap, Type::I128, a.value, b.value),
                        s1,
                    ),
                    ArithOp::Sub => (
                        self.b
                            .binary(Opcode::SSubTrap, Type::I128, a.value, b.value),
                        s1,
                    ),
                    ArithOp::Mul => (
                        self.b
                            .binary(Opcode::SMulTrap, Type::I128, a.value, b.value),
                        s1 + s2,
                    ),
                    ArithOp::Div => {
                        let scale = self.b.iconst(Type::I128, 10i128.pow(s2 as u32));
                        let scaled = self.b.binary(Opcode::SMulTrap, Type::I128, a.value, scale);
                        (self.b.binary(Opcode::SDiv, Type::I128, scaled, b.value), s1)
                    }
                };
                Binding {
                    value,
                    ty: ColumnType::Decimal(scale),
                }
            }
            (ColumnType::F64, ColumnType::F64) => {
                let opc = match op {
                    ArithOp::Add => Opcode::FAdd,
                    ArithOp::Sub => Opcode::FSub,
                    ArithOp::Mul => Opcode::FMul,
                    ArithOp::Div => Opcode::FDiv,
                };
                Binding {
                    value: self.b.binary(opc, Type::F64, a.value, b.value),
                    ty: ColumnType::F64,
                }
            }
            _ => {
                let opc = match op {
                    ArithOp::Add => Opcode::SAddTrap,
                    ArithOp::Sub => Opcode::SSubTrap,
                    ArithOp::Mul => Opcode::SMulTrap,
                    ArithOp::Div => Opcode::SDiv,
                };
                Binding {
                    value: self.b.binary(opc, Type::I64, a.value, b.value),
                    ty: ColumnType::I64,
                }
            }
        }
    }

    fn compare(&mut self, op: CmpKind, a: Binding, b: Binding) -> Value {
        let pred = match op {
            CmpKind::Eq => CmpOp::Eq,
            CmpKind::Ne => CmpOp::Ne,
            CmpKind::Lt => CmpOp::SLt,
            CmpKind::Le => CmpOp::SLe,
            CmpKind::Gt => CmpOp::SGt,
            CmpKind::Ge => CmpOp::SGe,
        };
        match (a.ty, b.ty) {
            (ColumnType::Str, ColumnType::Str) => match op {
                CmpKind::Eq => self
                    .call_rt(Rt::StrEq, vec![a.value, b.value])
                    .expect("bool"),
                CmpKind::Ne => {
                    let e = self
                        .call_rt(Rt::StrEq, vec![a.value, b.value])
                        .expect("bool");
                    self.bool_not(e)
                }
                CmpKind::Lt => self
                    .call_rt(Rt::StrLt, vec![a.value, b.value])
                    .expect("bool"),
                CmpKind::Gt => self
                    .call_rt(Rt::StrLt, vec![b.value, a.value])
                    .expect("bool"),
                CmpKind::Le => {
                    let g = self
                        .call_rt(Rt::StrLt, vec![b.value, a.value])
                        .expect("bool");
                    self.bool_not(g)
                }
                CmpKind::Ge => {
                    let l = self
                        .call_rt(Rt::StrLt, vec![a.value, b.value])
                        .expect("bool");
                    self.bool_not(l)
                }
            },
            (ColumnType::F64, ColumnType::F64) => self.b.fcmp(pred, a.value, b.value),
            (ColumnType::Decimal(_), ColumnType::Decimal(_)) => {
                self.b.icmp(pred, Type::I128, a.value, b.value)
            }
            (ColumnType::Bool, ColumnType::Bool) => self.b.icmp(pred, Type::Bool, a.value, b.value),
            _ => self.b.icmp(pred, Type::I64, a.value, b.value),
        }
    }
}

fn gen_setup(module: &mut Module, plan: &PhysicalPlan, pipe: &Pipeline) {
    let mut g = Gen::new(plan, "setup", Signature::fixed(&[Type::Ptr], Type::Void));
    let entry = g.b.entry_block();
    g.b.switch_to(entry);
    match &pipe.sink {
        Sink::Output { layout } => {
            let size = g.b.iconst(Type::I64, layout.size.max(8) as i128);
            let buf = g.call_rt(Rt::BufCreate, vec![size]).expect("handle");
            g.ctx_store(&CtxEntry::OutputBuf, Type::I64, buf);
        }
        Sink::JoinBuild { join_id, .. } => {
            let est = g.b.iconst(Type::I64, 1024);
            let ht = g.call_rt(Rt::HtCreate, vec![est]).expect("handle");
            g.ctx_store(&CtxEntry::JoinHt(*join_id), Type::I64, ht);
        }
        Sink::AggBuild { agg_id, .. } => {
            let est = g.b.iconst(Type::I64, 1024);
            let ht = g.call_rt(Rt::HtCreate, vec![est]).expect("handle");
            g.ctx_store(&CtxEntry::AggHt(*agg_id), Type::I64, ht);
            let eight = g.b.iconst(Type::I64, 8);
            let groups = g.call_rt(Rt::BufCreate, vec![eight]).expect("handle");
            g.ctx_store(&CtxEntry::AggGroups(*agg_id), Type::I64, groups);
        }
        Sink::SortMaterialize {
            sort_id, layout, ..
        } => {
            let size = g.b.iconst(Type::I64, layout.size.max(8) as i128);
            let buf = g.call_rt(Rt::BufCreate, vec![size]).expect("handle");
            g.ctx_store(&CtxEntry::SortBuf(*sort_id), Type::I64, buf);
        }
    }
    g.b.ret(None);
    module.push_function(g.b.finish());
}

fn gen_finish(
    module: &mut Module,
    plan: &PhysicalPlan,
    pipe: &Pipeline,
    cmp: Option<(FuncId, usize)>,
) {
    let mut g = Gen::new(plan, "finish", Signature::fixed(&[Type::Ptr], Type::Void));
    let entry = g.b.entry_block();
    g.b.switch_to(entry);
    match &pipe.sink {
        Sink::JoinBuild { join_id, .. } => {
            let ht = g.ctx_load(&CtxEntry::JoinHt(*join_id), Type::I64);
            g.call_rt(Rt::HtBuild, vec![ht]);
        }
        Sink::SortMaterialize { .. } => {
            let (cmp_id, sort_id) = cmp.expect("sort pipeline has comparator");
            let buf = g.ctx_load(&CtxEntry::SortBuf(sort_id), Type::I64);
            let f = g.b.func_addr(cmp_id);
            g.call_rt(Rt::Sort, vec![buf, f]);
        }
        _ => {}
    }
    g.b.ret(None);
    module.push_function(g.b.finish());
}

/// `cmp<sort_id>(a, b) -> i64` (<0, 0, >0); reads no context slot.
fn gen_comparator(
    module: &mut Module,
    plan: &PhysicalPlan,
    sort_id: usize,
    keys: &[(Arc<str>, bool)],
    layout: &RowLayout,
) -> FuncId {
    let sig = Signature::fixed(&[Type::Ptr, Type::Ptr], Type::I64);
    let mut g = Gen::new(plan, format!("cmp{sort_id}"), sig);
    let entry = g.b.entry_block();
    g.b.switch_to(entry);
    let (pa, pb) = (g.b.param(0), g.b.param(1));

    let ret_block = |g: &mut Gen, v: i64| -> Block {
        let blk = g.b.create_block();
        let cur = g.b.current_block();
        g.b.switch_to(blk);
        let c = g.b.iconst(Type::I64, v as i128);
        g.b.ret(Some(c));
        if let Some(c) = cur {
            g.b.switch_to(c);
        }
        blk
    };
    let less = ret_block(&mut g, -1);
    let greater = ret_block(&mut g, 1);

    for (key, asc) in keys {
        let f = field(layout, key);
        let (va, vb) = (g.load_field(pa, f), g.load_field(pb, f));
        let (first, second) = if *asc {
            (less, greater)
        } else {
            (greater, less)
        };
        let next = g.b.create_block();
        let second_check = g.b.create_block();
        let lt = match va.ty {
            ColumnType::Str => g
                .call_rt(Rt::StrLt, vec![va.value, vb.value])
                .expect("bool"),
            ColumnType::Decimal(_) => g.b.icmp(CmpOp::SLt, Type::I128, va.value, vb.value),
            ColumnType::F64 => g.b.fcmp(CmpOp::SLt, va.value, vb.value),
            ColumnType::Bool => g.b.icmp(CmpOp::ULt, Type::Bool, va.value, vb.value),
            _ => g.b.icmp(CmpOp::SLt, Type::I64, va.value, vb.value),
        };
        g.b.branch(lt, first, second_check);
        g.b.switch_to(second_check);
        let gt = match va.ty {
            ColumnType::Str => g
                .call_rt(Rt::StrLt, vec![vb.value, va.value])
                .expect("bool"),
            ColumnType::Decimal(_) => g.b.icmp(CmpOp::SGt, Type::I128, va.value, vb.value),
            ColumnType::F64 => g.b.fcmp(CmpOp::SGt, va.value, vb.value),
            ColumnType::Bool => g.b.icmp(CmpOp::UGt, Type::Bool, va.value, vb.value),
            _ => g.b.icmp(CmpOp::SGt, Type::I64, va.value, vb.value),
        };
        g.b.branch(gt, second, next);
        g.b.switch_to(next);
    }
    let zero = g.b.iconst(Type::I64, 0);
    g.b.ret(Some(zero));
    module.push_function(g.b.finish())
}

fn gen_main<'p>(module: &mut Module, plan: &'p PhysicalPlan, pipe: &'p Pipeline) {
    let sig = Signature::fixed(&[Type::Ptr, Type::I64, Type::I64], Type::Void);
    let mut g = Gen::new(plan, "main", sig);
    let entry = g.b.entry_block();
    g.b.switch_to(entry);
    let start = g.b.param(1);
    let count = g.b.param(2);

    // Hoist ctx loads: column bases or buffer handle, sink handles.
    enum Src<'p> {
        Table {
            bases: Vec<(&'p str, ColumnType, Value)>,
            filter: Option<&'p Expr>,
        },
        Buffer {
            handle: Value,
            layout: &'p RowLayout,
            deref: bool,
        },
    }
    let src = match &pipe.source {
        Source::Table {
            name,
            columns,
            filter,
            ..
        } => {
            let bases = columns
                .iter()
                .map(|(c, ty)| {
                    let base = CtxEntry::ColumnBase {
                        table: Arc::clone(name),
                        column: Arc::clone(c),
                    };
                    (&**c, *ty, g.ctx_load(&base, Type::Ptr))
                })
                .collect();
            Src::Table {
                bases,
                filter: filter.as_ref(),
            }
        }
        Source::Buffer { buffer, layout, .. } => {
            let handle = g.ctx_load(buffer, Type::I64);
            let deref = matches!(buffer, CtxEntry::AggGroups(_));
            Src::Buffer {
                handle,
                layout,
                deref,
            }
        }
    };
    // The sink's handles: its buffer or hash table, and an aggregation's
    // group buffer second.
    let sink_handles: [Value; 2] = match &pipe.sink {
        Sink::Output { .. } => [g.ctx_load(&CtxEntry::OutputBuf, Type::I64); 2],
        Sink::JoinBuild { join_id, .. } => [g.ctx_load(&CtxEntry::JoinHt(*join_id), Type::I64); 2],
        Sink::AggBuild { agg_id, .. } => [
            g.ctx_load(&CtxEntry::AggHt(*agg_id), Type::I64),
            g.ctx_load(&CtxEntry::AggGroups(*agg_id), Type::I64),
        ],
        Sink::SortMaterialize { sort_id, .. } => {
            [g.ctx_load(&CtxEntry::SortBuf(*sort_id), Type::I64); 2]
        }
    };
    // Hoist join hash tables for probes.
    let mut probe_handles: Vec<(usize, Value)> = Vec::new();
    for op in &pipe.ops {
        if let StreamOp::Probe { join_id, .. } = op {
            let h = g.ctx_load(&CtxEntry::JoinHt(*join_id), Type::I64);
            probe_handles.push((*join_id, h));
        }
    }
    // Hoist string literals used anywhere (loads in the entry block).
    for i in 0..plan.str_literals.len() {
        if plan.ctx.contains(&CtxEntry::StrConst(i)) {
            g.str_const(i);
        }
    }

    let end = g.b.add(Type::I64, start, count);

    let header = g.b.create_block();
    let body = g.b.create_block();
    let latch = g.b.create_block();
    let exit = g.b.create_block();
    g.b.jump(header);

    g.b.switch_to(header);
    let i = g.loop_phi(Type::I64, entry, start);
    let c = g.b.icmp(CmpOp::SLt, Type::I64, i, end);
    g.b.branch(c, body, exit);

    // Latch and exit can be completed immediately.
    g.b.switch_to(latch);
    let one = g.b.iconst(Type::I64, 1);
    let i2 = g.b.add(Type::I64, i, one);
    g.b.phi_add_incoming(i, latch, i2);
    g.b.jump(header);
    g.b.switch_to(exit);
    g.b.ret(None);

    // Body: bind source columns.
    g.b.switch_to(body);
    match &src {
        Src::Table { bases, filter } => {
            for (name, ty, base) in bases {
                let value = match ty {
                    ColumnType::I32 | ColumnType::Date => {
                        let a = g.b.gep_indexed(*base, 0, i, 4);
                        let v = g.b.load(Type::I32, a, 0);
                        g.b.sext(Type::I64, v)
                    }
                    ColumnType::I64 => {
                        let a = g.b.gep_indexed(*base, 0, i, 8);
                        g.b.load(Type::I64, a, 0)
                    }
                    ColumnType::Decimal(_) => {
                        let a = g.b.gep_indexed(*base, 0, i, 16);
                        g.b.load(Type::I128, a, 0)
                    }
                    ColumnType::F64 => {
                        let a = g.b.gep_indexed(*base, 0, i, 8);
                        g.b.load(Type::F64, a, 0)
                    }
                    ColumnType::Str => {
                        let a = g.b.gep_indexed(*base, 0, i, 16);
                        g.b.load(Type::String, a, 0)
                    }
                    ColumnType::Bool => {
                        let a = g.b.gep_indexed(*base, 0, i, 1);
                        g.b.load(Type::Bool, a, 0)
                    }
                };
                g.bind(name, value, *ty);
            }
            if let Some(f) = filter {
                let cond = g.eval(f);
                let pass = g.b.create_block();
                g.b.branch(cond.value, pass, latch);
                g.b.switch_to(pass);
            }
            // Non-projected (filter-only) columns stay bound; harmless.
        }
        Src::Buffer {
            handle,
            layout,
            deref,
        } => {
            let cell = g
                .call_rt(Rt::BufRow, vec![*handle, i])
                .expect("row pointer");
            let row = if *deref {
                g.b.load(Type::Ptr, cell, 0)
            } else {
                cell
            };
            for f in &layout.fields {
                let b = g.load_field(row, field(layout, &f.name));
                g.bind(&f.name, b.value, b.ty);
            }
        }
    }

    // Streaming operators.
    let mut continue_target = latch;
    for op in &pipe.ops {
        match op {
            StreamOp::Filter(e) => {
                let cond = g.eval(e);
                let pass = g.b.create_block();
                g.b.branch(cond.value, pass, continue_target);
                g.b.switch_to(pass);
            }
            StreamOp::Map(items) => {
                for (name, ty, e) in items {
                    let v = g.eval(e);
                    debug_assert_eq!(ir_type(v.ty), ir_type(*ty));
                    g.bind(name, v.value, *ty);
                }
            }
            StreamOp::Probe {
                join_id,
                probe_keys,
                build_layout,
                carry,
            } => {
                let ht = probe_handles
                    .iter()
                    .find(|(id, _)| id == join_id)
                    .map(|&(_, h)| h)
                    .expect("hoisted probe handle");
                let keys: Vec<Binding> = probe_keys.iter().map(|k| g.lookup(k)).collect();
                let h = g.hash_keys(&keys);
                let e0 = g.call_rt(Rt::HtProbe, vec![ht, h]).expect("entry ptr");

                let ph = g.b.create_block(); // probe header
                let pb = g.b.create_block(); // candidate check
                let pm = g.b.create_block(); // match
                let pl = g.b.create_block(); // probe latch
                let pred = g.b.current_block().expect("in block");
                g.b.jump(ph);

                g.b.switch_to(ph);
                let e = g.loop_phi(Type::Ptr, pred, e0);
                let zero = g.b.iconst(Type::Ptr, 0);
                let nonzero = g.b.icmp(CmpOp::Ne, Type::Ptr, e, zero);
                g.b.branch(nonzero, pb, continue_target);

                // Latch now.
                g.b.switch_to(pl);
                let enext = g.b.load(Type::Ptr, e, 0);
                g.b.phi_add_incoming(e, pl, enext);
                g.b.jump(ph);

                // Candidate: hash field + key equality.
                g.b.switch_to(pb);
                let ehash = g.b.load(Type::I64, e, 8);
                let mut ok = g.b.icmp(CmpOp::Eq, Type::I64, ehash, h);
                let payload = g.b.gep(e, 16);
                for (bk, pk) in build_layout.fields.iter().zip(probe_keys) {
                    let bv = g.load_field(payload, field(build_layout, &bk.name));
                    let pv = g.lookup(pk);
                    let eqv = g.values_eq(pv, bv);
                    ok = g.bool_and(ok, eqv);
                }
                g.b.branch(ok, pm, pl);

                // Match: bind carried columns, continue pipeline inside.
                g.b.switch_to(pm);
                for (name, _ty) in carry {
                    let b = g.load_field(payload, field(build_layout, name));
                    g.bind(name, b.value, b.ty);
                }
                continue_target = pl;
            }
        }
    }

    // Sink.
    match &pipe.sink {
        Sink::Output { layout } | Sink::SortMaterialize { layout, .. } => {
            let buf = sink_handles[0];
            let row = g.call_rt(Rt::BufAlloc, vec![buf]).expect("row");
            for f in &layout.fields {
                let v = g.lookup(&f.name);
                g.store_field(row, field(layout, &f.name), v);
            }
        }
        Sink::JoinBuild { keys, layout, .. } => {
            let ht = sink_handles[0];
            let kb: Vec<Binding> = keys.iter().map(|k| g.lookup(k)).collect();
            let h = g.hash_keys(&kb);
            let size = g.b.iconst(Type::I64, layout.size as i128);
            let payload = g.call_rt(Rt::HtInsert, vec![ht, h, size]).expect("payload");
            for f in &layout.fields {
                let v = g.lookup(&f.name);
                g.store_field(payload, field(layout, &f.name), v);
            }
        }
        Sink::AggBuild {
            keys, aggs, layout, ..
        } => {
            gen_agg_sink(&mut g, &sink_handles, keys, aggs, layout, continue_target);
            // gen_agg_sink terminates all its blocks itself.
            module.push_function(g.b.finish());
            return;
        }
    }
    g.b.jump(continue_target);
    module.push_function(g.b.finish());
}

fn gen_agg_sink(
    g: &mut Gen,
    handles: &[Value],
    keys: &[Arc<str>],
    aggs: &[(Arc<str>, AggFunc)],
    layout: &RowLayout,
    continue_target: Block,
) {
    let (ht, groups) = (handles[0], handles[1]);
    let kb: Vec<Binding> = keys.iter().map(|k| g.lookup(k)).collect();
    let h = g.hash_keys(&kb);
    let e0 = g.call_rt(Rt::HtProbe, vec![ht, h]).expect("entry");

    let ah = g.b.create_block(); // chain header
    let ab = g.b.create_block(); // candidate
    let upd = g.b.create_block(); // update existing group
    let al = g.b.create_block(); // chain latch
    let create = g.b.create_block(); // new group
    let pred = g.b.current_block().expect("in block");

    // Evaluate aggregate inputs once, up front (shared by both paths).
    let inputs: Vec<Option<Binding>> = aggs
        .iter()
        .map(|(_, a)| match a {
            AggFunc::CountStar => None,
            AggFunc::Sum(e) | AggFunc::Min(e) | AggFunc::Max(e) | AggFunc::Avg(e) => {
                Some(g.eval(e))
            }
        })
        .collect();

    g.b.jump(ah);
    g.b.switch_to(ah);
    let e = g.loop_phi(Type::Ptr, pred, e0);
    let zero = g.b.iconst(Type::Ptr, 0);
    let nonzero = g.b.icmp(CmpOp::Ne, Type::Ptr, e, zero);
    g.b.branch(nonzero, ab, create);

    g.b.switch_to(al);
    let enext = g.b.load(Type::Ptr, e, 0);
    g.b.phi_add_incoming(e, al, enext);
    g.b.jump(ah);

    g.b.switch_to(ab);
    let ehash = g.b.load(Type::I64, e, 8);
    let mut ok = g.b.icmp(CmpOp::Eq, Type::I64, ehash, h);
    let payload = g.b.gep(e, 16);
    for (key, kv) in keys.iter().zip(&kb) {
        let gv = g.load_field(payload, field(layout, key));
        let eqv = g.values_eq(*kv, gv);
        ok = g.bool_and(ok, eqv);
    }
    g.b.branch(ok, upd, al);

    // Update path.
    g.b.switch_to(upd);
    for ((name, agg), input) in aggs.iter().zip(&inputs) {
        let state = state_field(layout, name, false);
        match agg {
            AggFunc::CountStar => {
                let cur = g.load_field(payload, state);
                let one = g.b.iconst(Type::I64, 1);
                let n = g.b.add(Type::I64, cur.value, one);
                g.store_field(
                    payload,
                    state,
                    Binding {
                        value: n,
                        ty: cur.ty,
                    },
                );
            }
            AggFunc::Sum(_) => {
                let v = input.expect("sum input");
                let cur = g.load_field(payload, state);
                let s = sum_update(g, cur, v);
                g.store_field(payload, state, s);
            }
            AggFunc::Min(_) | AggFunc::Max(_) => {
                let v = input.expect("minmax input");
                let cur = g.load_field(payload, state);
                let is_min = matches!(agg, AggFunc::Min(_));
                let sel = minmax_update(g, cur, v, is_min);
                g.store_field(payload, state, sel);
            }
            AggFunc::Avg(_) => {
                let v = input.expect("avg input");
                let cur = g.load_field(payload, state);
                let s = sum_update(g, cur, v);
                g.store_field(payload, state, s);
                let count = state_field(layout, name, true);
                let cnt = g.load_field(payload, count);
                let one = g.b.iconst(Type::I64, 1);
                let n = g.b.add(Type::I64, cnt.value, one);
                g.store_field(
                    payload,
                    count,
                    Binding {
                        value: n,
                        ty: cnt.ty,
                    },
                );
            }
        }
    }
    g.b.jump(continue_target);

    // Create path.
    g.b.switch_to(create);
    let size = g.b.iconst(Type::I64, layout.size as i128);
    let np = g.call_rt(Rt::HtInsert, vec![ht, h, size]).expect("payload");
    for (key, kv) in keys.iter().zip(&kb) {
        g.store_field(np, field(layout, key), *kv);
    }
    for ((name, agg), input) in aggs.iter().zip(&inputs) {
        let state = state_field(layout, name, false);
        match agg {
            AggFunc::CountStar => {
                let one = g.b.iconst(Type::I64, 1);
                g.store_field(
                    np,
                    state,
                    Binding {
                        value: one,
                        ty: ColumnType::I64,
                    },
                );
            }
            AggFunc::Sum(_) | AggFunc::Min(_) | AggFunc::Max(_) => {
                let v = input.expect("agg input");
                g.store_field(np, state, widen_to_state(v, state));
            }
            AggFunc::Avg(_) => {
                let v = input.expect("avg input");
                g.store_field(np, state, widen_to_state(v, state));
                let one = g.b.iconst(Type::I64, 1);
                g.store_field(
                    np,
                    state_field(layout, name, true),
                    Binding {
                        value: one,
                        ty: ColumnType::I64,
                    },
                );
            }
        }
    }
    // Register the group for scanning.
    let cell = g.call_rt(Rt::BufAlloc, vec![groups]).expect("cell");
    g.b.store(Type::Ptr, cell, np, 0);
    g.b.jump(continue_target);
}

/// The aggregate input may be narrower than the state (I32 input, I64
/// state); env values are already widened, so this is a no-op guard.
fn widen_to_state(v: Binding, state: &RowField) -> Binding {
    debug_assert_eq!(
        ir_type(v.ty),
        ir_type(state.ty),
        "state width mismatch for {}",
        state.name
    );
    Binding {
        value: v.value,
        ty: state.ty,
    }
}

/// The first field of `layout` named `name`.
fn field<'l>(layout: &'l RowLayout, name: &str) -> &'l RowField {
    layout
        .field(name)
        .unwrap_or_else(|| panic!("no field `{name}`"))
}

/// Aggregate `agg`'s state field in a group layout, or with `count` its
/// AVG row count ([`RowLayout::agg_state`]).
fn state_field<'l>(layout: &'l RowLayout, agg: &str, count: bool) -> &'l RowField {
    layout
        .agg_state(agg, count)
        .unwrap_or_else(|| panic!("no state field for `{agg}`"))
}

fn sum_update(g: &mut Gen, cur: Binding, v: Binding) -> Binding {
    let value = match cur.ty {
        ColumnType::Decimal(_) => g.b.binary(Opcode::SAddTrap, Type::I128, cur.value, v.value),
        ColumnType::F64 => g.b.binary(Opcode::FAdd, Type::F64, cur.value, v.value),
        _ => g.b.binary(Opcode::SAddTrap, Type::I64, cur.value, v.value),
    };
    Binding { value, ty: cur.ty }
}

fn minmax_update(g: &mut Gen, cur: Binding, v: Binding, is_min: bool) -> Binding {
    let pred = if is_min { CmpOp::SLt } else { CmpOp::SGt };
    let (cond, ty) = match cur.ty {
        ColumnType::Decimal(_) => (g.b.icmp(pred, Type::I128, v.value, cur.value), Type::I128),
        ColumnType::F64 => (g.b.fcmp(pred, v.value, cur.value), Type::F64),
        _ => (g.b.icmp(pred, Type::I64, v.value, cur.value), Type::I64),
    };
    let value = g.b.select(ty, cond, v.value, cur.value);
    Binding { value, ty: cur.ty }
}
