//! The bytecode dispatch loop.

use crate::bytecode::{BcFunc, BcOp, Program, BYTECODE_BASE};
use qc_ir::{CastOp, CmpOp, Opcode, Type};
use qc_runtime::RuntimeState;
use qc_target::{crc32c_u64, ExecStats, Trap, CALL_DISPATCH_COST};

fn width_mask(ty: Type) -> u64 {
    match ty.bits() {
        64 | 128 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

fn sext(v: u64, ty: Type) -> i64 {
    let bits = ty.bits().min(64);
    ((v << (64 - bits)) as i64) >> (64 - bits)
}

fn read_mem(addr: u64, ty: Type) -> Result<u64, Trap> {
    if addr < 0x10000 {
        return Err(Trap::BadAccess(addr));
    }
    // SAFETY: same host-memory execution model as the machine emulator.
    unsafe {
        Ok(match ty {
            Type::Bool | Type::I8 => std::ptr::read_unaligned(addr as *const u8) as u64,
            Type::I16 => std::ptr::read_unaligned(addr as *const u16) as u64,
            Type::I32 => std::ptr::read_unaligned(addr as *const u32) as u64,
            _ => std::ptr::read_unaligned(addr as *const u64),
        })
    }
}

fn write_mem(addr: u64, ty: Type, v: u64) -> Result<(), Trap> {
    if addr < 0x10000 {
        return Err(Trap::BadAccess(addr));
    }
    // SAFETY: see `read_mem`.
    unsafe {
        match ty {
            Type::Bool | Type::I8 => std::ptr::write_unaligned(addr as *mut u8, v as u8),
            Type::I16 => std::ptr::write_unaligned(addr as *mut u16, v as u16),
            Type::I32 => std::ptr::write_unaligned(addr as *mut u32, v as u32),
            _ => std::ptr::write_unaligned(addr as *mut u64, v),
        }
    }
    Ok(())
}

fn pair_i128(lo: u64, hi: u64) -> i128 {
    (((hi as u128) << 64) | lo as u128) as i128
}

/// Register files and frames of finished activations. An activation
/// takes one pair and gives it back when it returns, so that once a
/// call depth has been reached, neither an activation nor a re-entry
/// at that depth allocates (a sort comparator is re-entered n log n
/// times).
pub(crate) type Spare = Vec<(Vec<u64>, Vec<u8>)>;

/// Runs bytecode function `fidx` with the given 64-bit argument slots.
///
/// # Errors
/// Returns a [`Trap`] on overflow, division by zero, bad memory access,
/// or runtime errors.
pub(crate) fn run(
    program: &Program,
    state: &mut RuntimeState,
    fidx: usize,
    args: &[u64],
    stats: &mut ExecStats,
    spare: &mut Spare,
) -> Result<[u64; 2], Trap> {
    let func = &program.funcs[fidx];
    // The register file, then the scratch cells `Call` and `Copies`
    // stage their operands in, and the zeroed frame.
    let nregs = func.num_slots.max(args.len());
    let (mut cells, mut frame) = spare.pop().unwrap_or_default();
    cells.clear();
    cells.resize(nregs + func.scratch_slots, 0);
    cells[..args.len()].copy_from_slice(args);
    frame.clear();
    frame.resize(func.frame_size, 0);
    let result = activate(program, state, func, &mut cells, &mut frame, stats, spare);
    spare.push((cells, frame));
    result
}

/// The dispatch loop of one activation of `func`, whose `cells` hold
/// the register file and then the scratch cells.
fn activate(
    program: &Program,
    state: &mut RuntimeState,
    func: &BcFunc,
    cells: &mut [u64],
    frame: &mut [u8],
    stats: &mut ExecStats,
    spare: &mut Spare,
) -> Result<[u64; 2], Trap> {
    let (regs, scratch) = cells.split_at_mut(cells.len() - func.scratch_slots);
    let frame_base = frame.as_mut_ptr() as u64;

    let mut pc = 0usize;
    loop {
        let op = &func.code[pc];
        stats.insts += 1;
        stats.cycles += func.costs[pc];
        pc += 1;
        match op {
            BcOp::ConstI { dst, val } => regs[*dst as usize] = *val,
            BcOp::ConstI128 { dst, val } => {
                regs[*dst as usize] = *val as u64;
                regs[*dst as usize + 1] = ((*val as u128) >> 64) as u64;
            }
            BcOp::Bin { op, ty, dst, a, b } => {
                if *ty == Type::I128 {
                    let x = pair_i128(regs[*a as usize], regs[*a as usize + 1]);
                    let y = pair_i128(regs[*b as usize], regs[*b as usize + 1]);
                    let r = bin_i128(*op, x, y)?;
                    regs[*dst as usize] = r as u64;
                    regs[*dst as usize + 1] = ((r as u128) >> 64) as u64;
                } else {
                    let (x, y) = (regs[*a as usize], regs[*b as usize]);
                    regs[*dst as usize] = bin_narrow(*op, *ty, x, y)?;
                }
            }
            BcOp::Cmp { op, ty, dst, a, b } => {
                let r = if *ty == Type::I128 {
                    let x = pair_i128(regs[*a as usize], regs[*a as usize + 1]);
                    let y = pair_i128(regs[*b as usize], regs[*b as usize + 1]);
                    cmp_i128(*op, x, y)
                } else {
                    cmp_narrow(*op, *ty, regs[*a as usize], regs[*b as usize])
                };
                regs[*dst as usize] = r as u64;
            }
            BcOp::FCmp { op, dst, a, b } => {
                let x = f64::from_bits(regs[*a as usize]);
                let y = f64::from_bits(regs[*b as usize]);
                let r = match op {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    CmpOp::SLt | CmpOp::ULt => x < y,
                    CmpOp::SLe | CmpOp::ULe => x <= y,
                    CmpOp::SGt | CmpOp::UGt => x > y,
                    CmpOp::SGe | CmpOp::UGe => x >= y,
                };
                regs[*dst as usize] = r as u64;
            }
            BcOp::Cast {
                op,
                from,
                to,
                dst,
                src,
            } => {
                cast(*op, *from, *to, *dst, *src, regs)?;
            }
            BcOp::Crc32 { dst, acc, data } => {
                regs[*dst as usize] = crc32c_u64(regs[*acc as usize], regs[*data as usize]);
            }
            BcOp::LMulFold { dst, a, b } => {
                let p = (regs[*a as usize] as u128).wrapping_mul(regs[*b as usize] as u128);
                regs[*dst as usize] = (p as u64) ^ ((p >> 64) as u64);
            }
            BcOp::Select {
                dst,
                cond,
                a,
                b,
                regs: n,
            } => {
                let src = if regs[*cond as usize] != 0 { *a } else { *b };
                for k in 0..*n as usize {
                    regs[*dst as usize + k] = regs[src as usize + k];
                }
            }
            BcOp::Load { ty, dst, ptr, off } => {
                let addr = regs[*ptr as usize].wrapping_add(*off as i64 as u64);
                match ty {
                    Type::I128 | Type::String => {
                        regs[*dst as usize] = read_mem(addr, Type::I64)?;
                        regs[*dst as usize + 1] = read_mem(addr + 8, Type::I64)?;
                    }
                    _ => regs[*dst as usize] = read_mem(addr, *ty)?,
                }
            }
            BcOp::Store { ty, ptr, src, off } => {
                let addr = regs[*ptr as usize].wrapping_add(*off as i64 as u64);
                match ty {
                    Type::I128 | Type::String => {
                        write_mem(addr, Type::I64, regs[*src as usize])?;
                        write_mem(addr + 8, Type::I64, regs[*src as usize + 1])?;
                    }
                    _ => write_mem(addr, *ty, regs[*src as usize])?,
                }
            }
            BcOp::Gep {
                dst,
                base,
                off,
                index,
            } => {
                let mut addr = regs[*base as usize].wrapping_add(*off as u64);
                if let Some((i, scale)) = index {
                    addr = addr.wrapping_add(regs[*i as usize].wrapping_mul(*scale as u64));
                }
                regs[*dst as usize] = addr;
            }
            BcOp::StackAddr { dst, frame_off } => {
                regs[*dst as usize] = frame_base + *frame_off as u64;
            }
            BcOp::Call {
                rt_index,
                args: arg_slots,
                dst,
            } => {
                let vals = &mut scratch[..arg_slots.len()];
                for (v, &s) in vals.iter_mut().zip(arg_slots) {
                    *v = regs[s as usize];
                }
                stats.cycles += CALL_DISPATCH_COST + state.cost(*rt_index, vals);
                let mut cb =
                    |st: &mut RuntimeState, addr: u64, cargs: &[u64]| -> Result<u64, Trap> {
                        if addr >= BYTECODE_BASE {
                            let idx = (addr - BYTECODE_BASE) as usize;
                            if idx >= program.funcs.len() {
                                return Err(Trap::BadJump(addr));
                            }
                            Ok(run(program, st, idx, cargs, stats, spare)?[0])
                        } else {
                            Err(Trap::BadJump(addr))
                        }
                    };
                let r = state.invoke(*rt_index, vals, &mut cb)?;
                if let Some((d, n)) = dst {
                    regs[*d as usize] = r[0];
                    if *n == 2 {
                        regs[*d as usize + 1] = r[1];
                    }
                }
            }
            BcOp::FuncAddr { dst, func } => {
                regs[*dst as usize] = BYTECODE_BASE + *func as u64;
            }
            BcOp::Copies { pairs } => {
                // Parallel semantics: snapshot sources first.
                for (&(s, _, n), vals) in pairs.iter().zip(scratch.chunks_exact_mut(2)) {
                    vals[0] = regs[s as usize];
                    if n == 2 {
                        vals[1] = regs[s as usize + 1];
                    }
                }
                for (&(_, d, n), vals) in pairs.iter().zip(scratch.chunks_exact(2)) {
                    regs[d as usize] = vals[0];
                    if n == 2 {
                        regs[d as usize + 1] = vals[1];
                    }
                }
            }
            BcOp::Jump { target } => pc = *target as usize,
            BcOp::BrIf {
                cond,
                then_pc,
                else_pc,
            } => {
                pc = if regs[*cond as usize] != 0 {
                    *then_pc as usize
                } else {
                    *else_pc as usize
                };
            }
            BcOp::Ret { src } => {
                let mut out = [0u64; 2];
                if let Some((s, n)) = src {
                    out[0] = regs[*s as usize];
                    if *n == 2 {
                        out[1] = regs[*s as usize + 1];
                    }
                }
                return Ok(out);
            }
            BcOp::Unreachable => return Err(Trap::Unreachable),
        }
    }
}

fn bin_narrow(op: Opcode, ty: Type, x: u64, y: u64) -> Result<u64, Trap> {
    // Float operations carry `ty == F64`; handle them before any
    // integer-width computation.
    match op {
        Opcode::FAdd => return Ok((f64::from_bits(x) + f64::from_bits(y)).to_bits()),
        Opcode::FSub => return Ok((f64::from_bits(x) - f64::from_bits(y)).to_bits()),
        Opcode::FMul => return Ok((f64::from_bits(x) * f64::from_bits(y)).to_bits()),
        Opcode::FDiv => return Ok((f64::from_bits(x) / f64::from_bits(y)).to_bits()),
        _ => {}
    }
    let mask = width_mask(ty);
    let bits = ty.bits().min(64);
    let (sx, sy) = (sext(x, ty), sext(y, ty));
    let wrap = |v: i64| (v as u64) & mask;
    let checked = |v: Option<i64>| -> Result<u64, Trap> {
        match v {
            Some(r) if sext(wrap(r), ty) == r => Ok(wrap(r)),
            _ => Err(Trap::Overflow),
        }
    };
    Ok(match op {
        Opcode::Add => wrap(sx.wrapping_add(sy)),
        Opcode::Sub => wrap(sx.wrapping_sub(sy)),
        Opcode::Mul => wrap(sx.wrapping_mul(sy)),
        Opcode::SAddTrap => checked(sx.checked_add(sy))?,
        Opcode::SSubTrap => checked(sx.checked_sub(sy))?,
        Opcode::SMulTrap => checked(sx.checked_mul(sy))?,
        Opcode::SAddOvf => (sx.checked_add(sy).is_none_or(|r| sext(wrap(r), ty) != r)) as u64,
        Opcode::SSubOvf => (sx.checked_sub(sy).is_none_or(|r| sext(wrap(r), ty) != r)) as u64,
        Opcode::SMulOvf => (sx.checked_mul(sy).is_none_or(|r| sext(wrap(r), ty) != r)) as u64,
        Opcode::SDiv => {
            if sy == 0 {
                return Err(Trap::DivByZero);
            }
            match sx.checked_div(sy) {
                Some(r) if sext(wrap(r), ty) == r => wrap(r),
                _ => return Err(Trap::Overflow),
            }
        }
        Opcode::UDiv => {
            if y & mask == 0 {
                return Err(Trap::DivByZero);
            }
            (x & mask) / (y & mask)
        }
        Opcode::SRem => {
            if sy == 0 {
                return Err(Trap::DivByZero);
            }
            wrap(sx.wrapping_rem(sy))
        }
        Opcode::URem => {
            if y & mask == 0 {
                return Err(Trap::DivByZero);
            }
            (x & mask) % (y & mask)
        }
        Opcode::And => x & y & mask,
        Opcode::Or => (x | y) & mask,
        Opcode::Xor => (x ^ y) & mask,
        Opcode::Shl => ((x & mask) << (y as u32 & (bits - 1))) & mask,
        Opcode::LShr => (x & mask) >> (y as u32 & (bits - 1)),
        Opcode::AShr => wrap(sx >> (y as u32 & (bits - 1))),
        Opcode::RotR => {
            let amt = y as u32 & (bits - 1);
            if amt == 0 {
                x & mask
            } else {
                (((x & mask) >> amt) | ((x & mask) << (bits - amt))) & mask
            }
        }
        Opcode::FAdd | Opcode::FSub | Opcode::FMul | Opcode::FDiv => unreachable!(),
    })
}

fn bin_i128(op: Opcode, x: i128, y: i128) -> Result<i128, Trap> {
    Ok(match op {
        Opcode::Add => x.wrapping_add(y),
        Opcode::Sub => x.wrapping_sub(y),
        Opcode::Mul => x.wrapping_mul(y),
        Opcode::SAddTrap => x.checked_add(y).ok_or(Trap::Overflow)?,
        Opcode::SSubTrap => x.checked_sub(y).ok_or(Trap::Overflow)?,
        Opcode::SMulTrap => x.checked_mul(y).ok_or(Trap::Overflow)?,
        Opcode::SAddOvf => x.checked_add(y).is_none() as i128,
        Opcode::SSubOvf => x.checked_sub(y).is_none() as i128,
        Opcode::SMulOvf => x.checked_mul(y).is_none() as i128,
        Opcode::SDiv => {
            if y == 0 {
                return Err(Trap::DivByZero);
            }
            x.checked_div(y).ok_or(Trap::Overflow)?
        }
        Opcode::UDiv => {
            if y == 0 {
                return Err(Trap::DivByZero);
            }
            ((x as u128) / (y as u128)) as i128
        }
        Opcode::SRem => {
            if y == 0 {
                return Err(Trap::DivByZero);
            }
            x.wrapping_rem(y)
        }
        Opcode::URem => {
            if y == 0 {
                return Err(Trap::DivByZero);
            }
            ((x as u128) % (y as u128)) as i128
        }
        Opcode::And => x & y,
        Opcode::Or => x | y,
        Opcode::Xor => x ^ y,
        Opcode::Shl => ((x as u128) << (y as u32 & 127)) as i128,
        Opcode::LShr => ((x as u128) >> (y as u32 & 127)) as i128,
        Opcode::AShr => x >> (y as u32 & 127),
        Opcode::RotR => (x as u128).rotate_right(y as u32 & 127) as i128,
        _ => return Err(Trap::Runtime(0xFE)), // float ops never typed i128
    })
}

fn cmp_narrow(op: CmpOp, ty: Type, x: u64, y: u64) -> bool {
    let mask = width_mask(ty);
    let (ux, uy) = (x & mask, y & mask);
    let (sx, sy) = (sext(x, ty), sext(y, ty));
    match op {
        CmpOp::Eq => ux == uy,
        CmpOp::Ne => ux != uy,
        CmpOp::SLt => sx < sy,
        CmpOp::SLe => sx <= sy,
        CmpOp::SGt => sx > sy,
        CmpOp::SGe => sx >= sy,
        CmpOp::ULt => ux < uy,
        CmpOp::ULe => ux <= uy,
        CmpOp::UGt => ux > uy,
        CmpOp::UGe => ux >= uy,
    }
}

fn cmp_i128(op: CmpOp, x: i128, y: i128) -> bool {
    let (ux, uy) = (x as u128, y as u128);
    match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::SLt => x < y,
        CmpOp::SLe => x <= y,
        CmpOp::SGt => x > y,
        CmpOp::SGe => x >= y,
        CmpOp::ULt => ux < uy,
        CmpOp::ULe => ux <= uy,
        CmpOp::UGt => ux > uy,
        CmpOp::UGe => ux >= uy,
    }
}

fn cast(
    op: CastOp,
    from: Type,
    to: Type,
    dst: u32,
    src: u32,
    regs: &mut [u64],
) -> Result<(), Trap> {
    match op {
        CastOp::Zext => {
            // Values are canonical (zero-extended at width) already.
            regs[dst as usize] = regs[src as usize];
            if to == Type::I128 {
                regs[dst as usize + 1] = 0;
            }
        }
        CastOp::Sext => {
            if from == Type::I128 {
                regs[dst as usize] = regs[src as usize];
                regs[dst as usize + 1] = regs[src as usize + 1];
            } else {
                let s = sext(regs[src as usize], from);
                regs[dst as usize] = (s as u64) & width_mask(to);
                if to == Type::I128 {
                    regs[dst as usize] = s as u64;
                    regs[dst as usize + 1] = (s >> 63) as u64;
                }
            }
        }
        CastOp::Trunc => {
            regs[dst as usize] = regs[src as usize] & width_mask(to);
        }
        CastOp::SiToF => {
            let v = if from == Type::I128 {
                pair_i128(regs[src as usize], regs[src as usize + 1]) as f64
            } else {
                sext(regs[src as usize], from) as f64
            };
            regs[dst as usize] = v.to_bits();
        }
        CastOp::FToSi => {
            let f = f64::from_bits(regs[src as usize]);
            if f.is_nan() || f <= -9.3e18 || f >= 9.3e18 {
                return Err(Trap::Overflow);
            }
            regs[dst as usize] = (f.trunc() as i64 as u64) & width_mask(to);
        }
    }
    Ok(())
}
