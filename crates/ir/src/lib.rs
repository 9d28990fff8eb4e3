//! An SSA intermediate representation for compiled database queries.
//!
//! This crate is the reproduction's analog of **Umbra IR** (paper Sec. III-B,
//! \[14\]): a custom SSA-based IR "optimized for fast generation and linear
//! traversal". Its salient properties, all preserved here:
//!
//! * dense, arena-backed storage: functions, blocks, instructions and values
//!   are `u32` indices into flat vectors; a back-end can attach side data in
//!   plain arrays without hash tables,
//! * a small instruction set tailored to query code: overflow-checked
//!   arithmetic that **traps** (implicit control flow), `crc32` and
//!   `long-mul-fold` hash primitives, `rotr`, 128-bit integers for SQL
//!   decimals, a 16-byte by-value `string` type, `getelementptr`-style
//!   address arithmetic, and calls to external runtime functions,
//! * Φ-instructions for SSA joins (all back-ends perform SSA destruction),
//! * explicit stack slots allocated outside the instruction stream.
//!
//! The crate also contains the standard analyses the back-ends need:
//! predecessor/successor maps, reverse post-order, dominator tree, natural
//! loop detection, and block-granularity liveness — the exact analysis set
//! the paper's DirectEmit back-end computes in its single analysis pass
//! (Sec. VII).
//!
//! # Example
//!
//! ```
//! use qc_ir::{FunctionBuilder, Module, Signature, Type};
//!
//! let mut module = Module::new("demo");
//! let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
//! let mut b = FunctionBuilder::new("add3", sig);
//! let entry = b.entry_block();
//! b.switch_to(entry);
//! let (x, y) = (b.param(0), b.param(1));
//! let s = b.add(Type::I64, x, y);
//! let c = b.iconst(Type::I64, 3);
//! let s3 = b.add(Type::I64, s, c);
//! b.ret(Some(s3));
//! let func = b.finish();
//! assert!(qc_ir::verify_function(&func).is_ok());
//! module.push_function(func);
//! ```

mod builder;
mod cfg;
mod domtree;
mod entities;
mod function;
mod hash;
mod instr;
mod liveness;
mod loops;
pub mod opt;
mod printer;
mod types;
mod verify;

pub use builder::FunctionBuilder;
pub use cfg::{Cfg, ReversePostorder};
pub use domtree::DomTree;
pub use entities::{Block, EntityMap, ExtFuncId, FuncId, Inst, StackSlot, Value};
pub use function::{ExtFuncDecl, Function, Module, Signature, StackSlotData, ValueDef};
pub use hash::{fnv1a_64, function_structural_hash, module_structural_hash};
pub use instr::{CastOp, CmpOp, InstData, Opcode};
pub use liveness::{Liveness, ValueSet};
pub use loops::{LoopInfo, Loops};
pub use printer::{print_function, print_module};
pub use types::Type;
pub use verify::{verify_function, verify_module, VerifyError};
