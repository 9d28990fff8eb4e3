//! minicc: the bundled C-subset compiler front/middle end.
//!
//! The GCC/C back-end's defining cost (paper Sec. IV-B) is that the
//! query engine must *generate C source text* which the compiler then has
//! to lex and parse again (~13% of compile time), before "gimplifying"
//! into its middle-end IR. This module implements exactly that: a real
//! lexer, a recursive-descent parser with full expression grammar, a
//! symbol-table semantic layer, and SSA (re)construction into the
//! workspace IR — the GIMPLE analog.
//!
//! Gimplification also folds back what the C spelling had to spell out,
//! as a C compiler does at `-O3`: truth tests of a widened compare test
//! the compare, `*(T*)(p + d)` takes `d` as its displacement, `p + i * s
//! + d` is an indexed `gep`, `__sextN` of a zero-extended iN value is one
//! `sext`, and an `if` arm without Φ copies is no block of its own.

use qc_backend::BackendError;
use qc_ir::{
    CastOp, CmpOp, ExtFuncDecl, Function, FunctionBuilder, InstData, Module, Opcode, Signature,
    Type, Value, ValueDef,
};
use std::collections::HashMap;

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Punct(&'static str),
    Kw(&'static str),
    Eof,
}

const KEYWORDS: [&str; 9] = [
    "extern", "void", "i64", "i128", "f64", "u8", "u16", "u32", "goto",
];
const KW2: [&str; 3] = ["if", "else", "return"];

struct Lexer<'s> {
    src: &'s [u8],
    pos: usize,
}

impl Lexer<'_> {
    fn next_tok(&mut self) -> Result<Tok, BackendError> {
        loop {
            while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            // Comments.
            if self.src[self.pos..].starts_with(b"/*") {
                let end = self.src[self.pos..]
                    .windows(2)
                    .position(|w| w == b"*/")
                    .ok_or_else(|| BackendError::new("unterminated comment"))?;
                self.pos += end + 2;
                continue;
            }
            break;
        }
        if self.pos >= self.src.len() {
            return Ok(Tok::Eof);
        }
        let c = self.src[self.pos];
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = self.pos;
            while self.pos < self.src.len()
                && (self.src[self.pos].is_ascii_alphanumeric() || self.src[self.pos] == b'_')
            {
                self.pos += 1;
            }
            let s = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii");
            for k in KEYWORDS.iter().chain(KW2.iter()) {
                if s == *k {
                    return Ok(Tok::Kw(k));
                }
            }
            return Ok(Tok::Ident(s.to_string()));
        }
        if c.is_ascii_digit()
            || (c == b'-' && self.src.get(self.pos + 1).is_some_and(u8::is_ascii_digit))
        {
            let start = self.pos;
            self.pos += 1;
            while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
                self.pos += 1;
            }
            let s = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii");
            return Ok(Tok::Int(s.parse::<i64>().map_err(|_| {
                BackendError::new(format!("bad integer literal `{s}`"))
            })?));
        }
        for p in [
            "<<", ">>", "<=", ">=", "==", "!=", "(", ")", "{", "}", ";", ",", "=", "+", "-", "*",
            "/", "%", "&", "|", "^", "<", ">", "?", ":",
        ] {
            if self.src[self.pos..].starts_with(p.as_bytes()) {
                self.pos += p.len();
                return Ok(Tok::Punct(p));
            }
        }
        Err(BackendError::new(format!(
            "unexpected character `{}` at {}",
            c as char, self.pos
        )))
    }
}

fn lex(src: &str) -> Result<Vec<Tok>, BackendError> {
    let mut l = Lexer {
        src: src.as_bytes(),
        pos: 0,
    };
    let mut out = Vec::new();
    loop {
        let t = l.next_tok()?;
        let eof = t == Tok::Eof;
        out.push(t);
        if eof {
            return Ok(out);
        }
    }
}

/// Parsed expression AST.
#[derive(Debug, Clone)]
enum Expr {
    Int(i64),
    Var(String),
    Bin(&'static str, Box<Expr>, Box<Expr>),
    Cast(&'static str, Box<Expr>), // target type name
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    Load(&'static str, Box<Expr>),
    Call(String, Vec<Expr>),
    AddrOf(String),
}

/// Parsed statements.
#[derive(Debug, Clone)]
enum Stmt {
    Assign(String, Expr),
    Store(&'static str, Expr, Expr), // (ty, addr, value)
    CallVoid(String, Vec<Expr>),
}

#[derive(Debug, Clone)]
enum Term {
    Goto(usize),
    Branch(String, usize, usize),
    Return(Option<String>),
    Unreachable,
}

#[derive(Debug, Default, Clone)]
struct BlockData {
    stmts: Vec<Stmt>,
    term: Option<Term>,
}

struct ParsedFunc {
    name: String,
    ret: &'static str,
    params: Vec<(String, &'static str)>,
    decls: HashMap<String, &'static str>,
    blocks: Vec<BlockData>,
}

struct ParsedUnit {
    externs: HashMap<String, (usize, bool)>,
    funcs: Vec<ParsedFunc>,
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

fn tyname(s: &str) -> Option<&'static str> {
    ["i64", "i128", "f64", "u8", "u16", "u32", "void"]
        .into_iter()
        .find(|t| *t == s)
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos]
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].clone();
        self.pos += 1;
        t
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), BackendError> {
        match self.bump() {
            Tok::Punct(q) if q == p => Ok(()),
            other => Err(BackendError::new(format!("expected `{p}`, got {other:?}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, BackendError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(BackendError::new(format!(
                "expected identifier, got {other:?}"
            ))),
        }
    }

    fn parse_type(&mut self) -> Result<&'static str, BackendError> {
        match self.bump() {
            Tok::Kw(k) => {
                tyname(k).ok_or_else(|| BackendError::new(format!("`{k}` is not a type")))
            }
            other => Err(BackendError::new(format!("expected type, got {other:?}"))),
        }
    }

    fn parse_unit(&mut self) -> Result<ParsedUnit, BackendError> {
        let mut unit = ParsedUnit {
            externs: HashMap::new(),
            funcs: Vec::new(),
        };
        loop {
            match self.peek() {
                Tok::Eof => return Ok(unit),
                Tok::Kw("extern") => {
                    self.bump();
                    let ret = self.parse_type()?;
                    let name = self.expect_ident()?;
                    self.expect_punct("(")?;
                    let mut arity = 0usize;
                    if !matches!(self.peek(), Tok::Punct(")")) {
                        loop {
                            self.parse_type()?;
                            arity += 1;
                            if matches!(self.peek(), Tok::Punct(",")) {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect_punct(")")?;
                    self.expect_punct(";")?;
                    unit.externs.insert(name, (arity, ret != "void"));
                }
                _ => {
                    let f = self.parse_func()?;
                    unit.funcs.push(f);
                }
            }
        }
    }

    fn parse_func(&mut self) -> Result<ParsedFunc, BackendError> {
        let ret = self.parse_type()?;
        let name = self.expect_ident()?;
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !matches!(self.peek(), Tok::Punct(")")) {
            loop {
                let ty = self.parse_type()?;
                let pname = self.expect_ident()?;
                params.push((pname, ty));
                if matches!(self.peek(), Tok::Punct(",")) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect_punct(")")?;
        self.expect_punct("{")?;
        // Declarations.
        let mut decls: HashMap<String, &'static str> = HashMap::new();
        while let Tok::Kw(k) = self.peek() {
            if tyname(k).is_none() {
                break;
            }
            let ty = self.parse_type()?;
            let vname = self.expect_ident()?;
            self.expect_punct(";")?;
            decls.insert(vname, ty);
        }
        for (p, t) in &params {
            decls.insert(p.clone(), t);
        }
        // Body: labels + statements into a block graph.
        let mut blocks: Vec<BlockData> = vec![BlockData::default()];
        let mut labels: HashMap<String, usize> = HashMap::new();
        let mut cur = 0usize;
        let label_of = |labels: &mut HashMap<String, usize>,
                        blocks: &mut Vec<BlockData>,
                        name: &str|
         -> usize {
            *labels.entry(name.to_string()).or_insert_with(|| {
                blocks.push(BlockData::default());
                blocks.len() - 1
            })
        };
        loop {
            match self.peek().clone() {
                Tok::Punct("}") => {
                    self.bump();
                    break;
                }
                Tok::Ident(name)
                    if matches!(self.toks.get(self.pos + 1), Some(Tok::Punct(":"))) =>
                {
                    self.bump();
                    self.bump();
                    // A label opens a new block; alias into the initial
                    // empty entry block for the very first label.
                    if cur == 0
                        && blocks[0].stmts.is_empty()
                        && blocks[0].term.is_none()
                        && labels.is_empty()
                    {
                        labels.insert(name, 0);
                        cur = 0;
                    } else {
                        let b = label_of(&mut labels, &mut blocks, &name);
                        cur = b;
                    }
                }
                _ => {
                    let (stmt, term) = self.parse_stmt(
                        &mut |n: &str, bl: &mut Vec<BlockData>| label_of(&mut labels, bl, n),
                        &mut blocks,
                    )?;
                    if let Some(s) = stmt {
                        blocks[cur].stmts.push(s);
                    }
                    if let Some(t) = term {
                        if blocks[cur].term.is_none() {
                            blocks[cur].term = Some(t);
                        }
                    }
                }
            }
        }
        Ok(ParsedFunc {
            name,
            ret,
            params,
            decls,
            blocks,
        })
    }

    /// Parses one statement; returns (plain stmt, terminator).
    #[allow(clippy::type_complexity)]
    fn parse_stmt(
        &mut self,
        label_of: &mut dyn FnMut(&str, &mut Vec<BlockData>) -> usize,
        blocks: &mut Vec<BlockData>,
    ) -> Result<(Option<Stmt>, Option<Term>), BackendError> {
        match self.peek().clone() {
            Tok::Kw("goto") => {
                self.bump();
                let l = self.expect_ident()?;
                self.expect_punct(";")?;
                Ok((None, Some(Term::Goto(label_of(&l, blocks)))))
            }
            Tok::Kw("return") => {
                self.bump();
                if matches!(self.peek(), Tok::Punct(";")) {
                    self.bump();
                    Ok((None, Some(Term::Return(None))))
                } else {
                    let v = self.expect_ident()?;
                    self.expect_punct(";")?;
                    Ok((None, Some(Term::Return(Some(v)))))
                }
            }
            Tok::Kw("if") => {
                self.bump();
                self.expect_punct("(")?;
                let c = self.expect_ident()?;
                self.expect_punct(")")?;
                // An arm is its Φ edge copies and its `goto`.
                let parse_arm = |p: &mut Parser,
                                 label_of: &mut dyn FnMut(&str, &mut Vec<BlockData>) -> usize,
                                 blocks: &mut Vec<BlockData>|
                 -> Result<BlockData, BackendError> {
                    p.expect_punct("{")?;
                    let mut arm = BlockData::default();
                    loop {
                        if matches!(p.peek(), Tok::Punct("}")) {
                            p.bump();
                            break;
                        }
                        if matches!(p.peek(), Tok::Kw("goto")) {
                            p.bump();
                            let l = p.expect_ident()?;
                            p.expect_punct(";")?;
                            arm.term = Some(Term::Goto(label_of(&l, blocks)));
                        } else {
                            let (s, _) = p.parse_stmt(label_of, blocks)?;
                            if let Some(s) = s {
                                arm.stmts.push(s);
                            }
                        }
                    }
                    Ok(arm)
                };
                let then_arm = parse_arm(self, label_of, blocks)?;
                match self.bump() {
                    Tok::Kw("else") => {}
                    other => {
                        return Err(BackendError::new(format!("expected else, got {other:?}")))
                    }
                }
                let else_arm = parse_arm(self, label_of, blocks)?;
                // An arm with no copies branches straight to its label; it
                // gets a block of its own only when it carries copies or
                // both arms reach one label (a branch has two distinct
                // successors).
                let target = |arm: &BlockData| match arm.term {
                    Some(Term::Goto(l)) if arm.stmts.is_empty() => Some(l),
                    _ => None,
                };
                let one_label = matches!(
                    (&then_arm.term, &else_arm.term),
                    (Some(Term::Goto(a)), Some(Term::Goto(b))) if a == b
                );
                let mut place = |arm: BlockData| match target(&arm) {
                    Some(l) if !one_label => l,
                    _ => {
                        blocks.push(arm);
                        blocks.len() - 1
                    }
                };
                let then_arm = place(then_arm);
                let else_arm = place(else_arm);
                Ok((None, Some(Term::Branch(c, then_arm, else_arm))))
            }
            Tok::Punct("*") => {
                // *(ty*)(addr) = value;
                self.bump();
                self.expect_punct("(")?;
                let ty = self.parse_type()?;
                self.expect_punct("*")?;
                self.expect_punct(")")?;
                self.expect_punct("(")?;
                let addr = self.parse_expr()?;
                self.expect_punct(")")?;
                self.expect_punct("=")?;
                let value = self.parse_expr()?;
                self.expect_punct(";")?;
                Ok((Some(Stmt::Store(ty, addr, value)), None))
            }
            Tok::Ident(name) => {
                self.bump();
                match self.bump() {
                    Tok::Punct("=") => {
                        let e = self.parse_expr()?;
                        self.expect_punct(";")?;
                        if name == "__unreachable_marker" {
                            return Ok((None, Some(Term::Unreachable)));
                        }
                        Ok((Some(Stmt::Assign(name, e)), None))
                    }
                    Tok::Punct("(") => {
                        if name == "__unreachable" {
                            self.expect_punct(")")?;
                            self.expect_punct(";")?;
                            return Ok((None, Some(Term::Unreachable)));
                        }
                        let mut args = Vec::new();
                        if !matches!(self.peek(), Tok::Punct(")")) {
                            loop {
                                args.push(self.parse_expr()?);
                                if matches!(self.peek(), Tok::Punct(",")) {
                                    self.bump();
                                } else {
                                    break;
                                }
                            }
                        }
                        self.expect_punct(")")?;
                        self.expect_punct(";")?;
                        Ok((Some(Stmt::CallVoid(name, args)), None))
                    }
                    other => Err(BackendError::new(format!(
                        "expected `=` or `(` after `{name}`, got {other:?}"
                    ))),
                }
            }
            other => Err(BackendError::new(format!("unexpected token {other:?}"))),
        }
    }

    /// Full expression grammar with precedence climbing.
    fn parse_expr(&mut self) -> Result<Expr, BackendError> {
        let lhs = self.parse_bin(0)?;
        if matches!(self.peek(), Tok::Punct("?")) {
            self.bump();
            let t = self.parse_expr()?;
            self.expect_punct(":")?;
            let f = self.parse_expr()?;
            return Ok(Expr::Ternary(Box::new(lhs), Box::new(t), Box::new(f)));
        }
        Ok(lhs)
    }

    fn parse_bin(&mut self, min_prec: u8) -> Result<Expr, BackendError> {
        let mut lhs = self.parse_unary()?;
        while let Tok::Punct(p) = self.peek() {
            let (op, prec): (&'static str, u8) = match *p {
                "*" | "/" | "%" => (p, 5),
                "+" | "-" => (p, 4),
                "<<" | ">>" => (p, 3),
                "<" | "<=" | ">" | ">=" | "==" | "!=" => (p, 2),
                "&" | "^" | "|" => (p, 1),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.parse_bin(prec + 1)?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, BackendError> {
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            Tok::Punct("&") => {
                self.bump();
                let name = self.expect_ident()?;
                Ok(Expr::AddrOf(name))
            }
            Tok::Punct("*") => {
                // *(ty*)(expr)
                self.bump();
                self.expect_punct("(")?;
                let ty = self.parse_type()?;
                self.expect_punct("*")?;
                self.expect_punct(")")?;
                self.expect_punct("(")?;
                let e = self.parse_expr()?;
                self.expect_punct(")")?;
                Ok(Expr::Load(ty, Box::new(e)))
            }
            Tok::Punct("(") => {
                // Cast or parenthesized expression.
                self.bump();
                if let Tok::Kw(k) = self.peek().clone() {
                    if let Some(t) = tyname(k) {
                        self.bump();
                        self.expect_punct(")")?;
                        let inner = self.parse_unary()?;
                        return Ok(Expr::Cast(t, Box::new(inner)));
                    }
                }
                let e = self.parse_expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Tok::Ident(name) => {
                self.bump();
                if matches!(self.peek(), Tok::Punct("(")) {
                    self.bump();
                    let mut args = Vec::new();
                    if !matches!(self.peek(), Tok::Punct(")")) {
                        loop {
                            args.push(self.parse_expr()?);
                            if matches!(self.peek(), Tok::Punct(",")) {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect_punct(")")?;
                    Ok(Expr::Call(name, args))
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => Err(BackendError::new(format!(
                "unexpected token {other:?} in expr"
            ))),
        }
    }
}

/// Compiles C source text into an IR module ("cc1": lex + parse + sema +
/// gimplify).
///
/// # Errors
/// Returns [`BackendError`] on any lexical, syntactic, or semantic error.
pub fn compile_c(src: &str, trace: &qc_timing::TimeTrace) -> Result<Module, BackendError> {
    let unit = {
        let _t = trace.scope("cc1_parse");
        let toks = lex(src)?;
        let mut parser = Parser { toks, pos: 0 };
        parser.parse_unit()?
    };
    let _t = trace.scope("cc1_gimplify");
    let mut module = Module::new("cgen");
    let fn_index: HashMap<String, usize> = unit
        .funcs
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.clone(), i))
        .collect();
    for f in &unit.funcs {
        module.push_function(gimplify(f, &unit.externs, &fn_index)?);
    }
    Ok(module)
}

fn qty(t: &str) -> Type {
    match t {
        "i128" => Type::I128,
        "f64" => Type::F64,
        _ => Type::I64,
    }
}

struct Gim<'a> {
    b: FunctionBuilder,
    decls: &'a HashMap<String, &'static str>,
    externs: &'a HashMap<String, (usize, bool)>,
    fn_index: &'a HashMap<String, usize>,
    vars: HashMap<String, Value>,
}

fn gimplify(
    f: &ParsedFunc,
    externs: &HashMap<String, (usize, bool)>,
    fn_index: &HashMap<String, usize>,
) -> Result<Function, BackendError> {
    let sig = Signature::new(
        f.params.iter().map(|(_, t)| qty(t)).collect(),
        if f.ret == "void" {
            Type::Void
        } else {
            qty(f.ret)
        },
    );
    let nb = f.blocks.len();
    // Per-block variable liveness (over C variable names).
    let var_ids: HashMap<&str, usize> = f
        .decls
        .keys()
        .enumerate()
        .map(|(i, k)| (k.as_str(), i))
        .collect();
    let nv = var_ids.len();
    let words = nv.div_ceil(64).max(1);
    let mut uses = vec![vec![0u64; words]; nb];
    let mut defs = vec![vec![0u64; words]; nb];
    let succs: Vec<Vec<usize>> = f
        .blocks
        .iter()
        .map(|b| match &b.term {
            Some(Term::Goto(d)) => vec![*d],
            Some(Term::Branch(_, a, b)) => vec![*a, *b],
            _ => Vec::new(),
        })
        .collect();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); nb];
    for (b, ss) in succs.iter().enumerate() {
        for &s in ss {
            preds[s].push(b);
        }
    }
    {
        let mark_use = |set: &mut Vec<u64>, name: &str| {
            if let Some(&i) = var_ids.get(name) {
                set[i / 64] |= 1 << (i % 64);
            }
        };
        for (bi, b) in f.blocks.iter().enumerate() {
            for s in &b.stmts {
                match s {
                    Stmt::Assign(name, e) => {
                        expr_vars(e, &mut |n| {
                            if defs[bi][var_ids[n] / 64] & (1 << (var_ids[n] % 64)) == 0 {
                                mark_use(&mut uses[bi], n);
                            }
                        });
                        if let Some(&i) = var_ids.get(name.as_str()) {
                            defs[bi][i / 64] |= 1 << (i % 64);
                        }
                    }
                    Stmt::Store(_, a, v) => {
                        for e in [a, v] {
                            expr_vars(e, &mut |n| {
                                if defs[bi][var_ids[n] / 64] & (1 << (var_ids[n] % 64)) == 0 {
                                    mark_use(&mut uses[bi], n);
                                }
                            });
                        }
                    }
                    Stmt::CallVoid(_, args) => {
                        for e in args {
                            expr_vars(e, &mut |n| {
                                if defs[bi][var_ids[n] / 64] & (1 << (var_ids[n] % 64)) == 0 {
                                    mark_use(&mut uses[bi], n);
                                }
                            });
                        }
                    }
                }
            }
            let term_use = match &b.term {
                Some(Term::Branch(c, _, _)) => Some(c.clone()),
                Some(Term::Return(Some(v))) => Some(v.clone()),
                _ => None,
            };
            if let Some(n) = term_use {
                if let Some(&i) = var_ids.get(n.as_str()) {
                    if defs[bi][i / 64] & (1 << (i % 64)) == 0 {
                        mark_use(&mut uses[bi], &n);
                    }
                }
            }
        }
    }
    let mut live_in = vec![vec![0u64; words]; nb];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..nb).rev() {
            let mut out = vec![0u64; words];
            for &s in &succs[b] {
                for (w, &x) in out.iter_mut().zip(&live_in[s]) {
                    *w |= x;
                }
            }
            let mut inn = out.clone();
            for w in 0..words {
                inn[w] = (inn[w] & !defs[b][w]) | uses[b][w];
            }
            if inn != live_in[b] {
                live_in[b] = inn;
                changed = true;
            }
        }
    }

    // Emit QIR with conservative Φs at join blocks.
    let mut g = Gim {
        b: FunctionBuilder::new(&f.name, sig),
        decls: &f.decls,
        externs,
        fn_index,
        vars: HashMap::new(),
    };
    for _ in 1..nb {
        g.b.create_block();
    }
    let id_to_name: HashMap<usize, &str> = var_ids.iter().map(|(n, i)| (*i, *n)).collect();
    let mut end_maps: Vec<HashMap<String, Value>> = vec![HashMap::new(); nb];
    let mut phi_fixups: Vec<(usize, String, Value)> = Vec::new(); // (block, var, phi)
                                                                  // Emission order: a single-predecessor block needs its predecessor's
                                                                  // variable map first (label ids are assigned by first reference, so
                                                                  // plain index order is not sufficient).
    let order = {
        let mut emitted = vec![false; nb];
        let mut order = Vec::with_capacity(nb);
        let mut progress = true;
        while progress {
            progress = false;
            for bi in 0..nb {
                if emitted[bi] {
                    continue;
                }
                let ready = bi == 0 || preds[bi].len() != 1 || emitted[preds[bi][0]];
                if ready {
                    emitted[bi] = true;
                    order.push(bi);
                    progress = true;
                }
            }
        }
        if order.len() != nb {
            return Err(BackendError::new("unschedulable block graph"));
        }
        order
    };
    for bi in order {
        let block = qc_ir::Block::new(bi);
        g.b.switch_to(block);
        g.vars.clear();
        if bi == 0 {
            for (i, (name, _)) in f.params.iter().enumerate() {
                let p = g.b.param(i);
                g.vars.insert(name.clone(), p);
            }
        } else if preds[bi].len() == 1 {
            g.vars = end_maps[preds[bi][0]].clone();
        } else if preds[bi].len() >= 2 {
            for (w, &word) in live_in[bi].iter().enumerate().take(words) {
                let mut bits = word;
                while bits != 0 {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let name = id_to_name[&i];
                    let ty = qty(f.decls[name]);
                    let phi = g.b.phi(ty, Vec::new());
                    g.vars.insert(name.to_string(), phi);
                    phi_fixups.push((bi, name.to_string(), phi));
                }
            }
        }
        if preds[bi].is_empty() && bi != 0 {
            // Unreachable block.
            g.b.unreachable();
            end_maps[bi] = g.vars.clone();
            continue;
        }
        let data = f.blocks[bi].clone();
        for s in &data.stmts {
            g.stmt(s)?;
        }
        match &data.term {
            Some(Term::Goto(d)) => g.b.jump(qc_ir::Block::new(*d)),
            Some(Term::Branch(c, t, e)) => {
                let cv = g.read(c)?;
                let cond = g.truth(cv);
                g.b.branch(cond, qc_ir::Block::new(*t), qc_ir::Block::new(*e));
            }
            Some(Term::Return(v)) => {
                let rv = match v {
                    Some(name) => Some(g.read(name)?),
                    None => None,
                };
                g.b.ret(rv);
            }
            Some(Term::Unreachable) | None => g.b.unreachable(),
        }
        end_maps[bi] = g.vars.clone();
    }
    for (bi, name, phi) in phi_fixups {
        for &p in &preds[bi] {
            let v = end_maps[p].get(&name).copied().ok_or_else(|| {
                BackendError::new(format!("variable `{name}` undefined on a path"))
            })?;
            g.b.phi_add_incoming(phi, qc_ir::Block::new(p), v);
        }
    }
    Ok(g.b.finish())
}

fn expr_vars(e: &Expr, f: &mut impl FnMut(&str)) {
    match e {
        Expr::Var(n) => f(n),
        Expr::Int(_) | Expr::AddrOf(_) => {}
        Expr::Bin(_, a, b) => {
            expr_vars(a, f);
            expr_vars(b, f);
        }
        Expr::Cast(_, a) | Expr::Load(_, a) => expr_vars(a, f),
        Expr::Ternary(c, a, b) => {
            expr_vars(c, f);
            expr_vars(a, f);
            expr_vars(b, f);
        }
        Expr::Call(_, args) => args.iter().for_each(|a| expr_vars(a, f)),
    }
}

impl Gim<'_> {
    fn read(&mut self, name: &str) -> Result<Value, BackendError> {
        self.vars
            .get(name)
            .copied()
            .ok_or_else(|| BackendError::new(format!("use of undefined variable `{name}`")))
    }

    /// The narrow `from` value that `v` zero-extends, if `v` is such a
    /// `zext`: what assigning a compare or a narrow load to an `i64`
    /// variable spelled out.
    fn unwidened(&self, v: Value, from: Type) -> Option<Value> {
        match *self.def(v)? {
            InstData::Cast {
                op: CastOp::Zext,
                arg,
                ..
            } if self.b.func().value_type(arg) == from => Some(arg),
            _ => None,
        }
    }

    /// The instruction that defines `v` (`None` for a parameter).
    fn def(&self, v: Value) -> Option<&InstData> {
        let f = self.b.func();
        match f.value_def(v) {
            ValueDef::Inst(i) => Some(f.inst(i)),
            ValueDef::Param(_) => None,
        }
    }

    /// The `Bool` a C truth test of `v` reads (`if (v)`, `v ? a : b`):
    /// `v` itself, the compare `v` widens, or `v != 0`.
    fn truth(&mut self, v: Value) -> Value {
        if self.b.func().value_type(v) == Type::Bool {
            return v;
        }
        if let Some(c) = self.unwidened(v, Type::Bool) {
            return c;
        }
        let zero = self.b.iconst(Type::I64, 0);
        self.b.icmp(CmpOp::Ne, Type::I64, v, zero)
    }

    /// A new `Bool` constant equal to `v`, if `v` is the constant 0 or 1.
    fn flag(&mut self, v: Value) -> Option<Value> {
        match *self.def(v)? {
            InstData::IConst {
                ty: Type::I64,
                imm: imm @ (0 | 1),
            } => Some(self.b.iconst(Type::Bool, imm)),
            _ => None,
        }
    }

    /// `__sextN(v)` for `ty` = iN: one `sext` of the iN value when `v`
    /// zero-extends one, else `trunc` then `sext`.
    fn sext_from(&mut self, v: Value, ty: Type) -> Value {
        let narrow = match self.unwidened(v, ty) {
            Some(n) => n,
            None => self.b.trunc(ty, v),
        };
        self.b.sext(Type::I64, narrow)
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), BackendError> {
        match s {
            Stmt::Assign(name, e) => {
                let want = qty(self
                    .decls
                    .get(name)
                    .ok_or_else(|| BackendError::new(format!("undeclared `{name}`")))?);
                let v = self.expr(e)?;
                let v = self.coerce(v, want)?;
                self.vars.insert(name.clone(), v);
                Ok(())
            }
            Stmt::Store(ty, addr, value) => {
                let (sty, _) = load_ty(ty);
                let (addr, disp) = displaced(addr);
                let a = self.expr(addr)?;
                let v = self.expr(value)?;
                let v = self.coerce_store(v, sty)?;
                self.b.store(sty, a, v, disp);
                Ok(())
            }
            Stmt::CallVoid(name, args) => {
                self.call(name, args, false)?;
                Ok(())
            }
        }
    }

    /// Narrow Bool values to the expected storage type for assignments.
    fn coerce(&mut self, v: Value, want: Type) -> Result<Value, BackendError> {
        let got = self.b.func().value_type(v);
        if got == want {
            return Ok(v);
        }
        match (got, want) {
            (Type::Bool | Type::I8 | Type::I16 | Type::I32, Type::I64) => {
                Ok(self.b.zext(Type::I64, v))
            }
            (Type::Ptr, Type::I64) | (Type::I64, Type::Ptr) => Ok(v), // same register class
            other => Err(BackendError::new(format!(
                "type mismatch in assignment: {other:?}"
            ))),
        }
    }

    fn coerce_store(&mut self, v: Value, sty: Type) -> Result<Value, BackendError> {
        let got = self.b.func().value_type(v);
        if got == sty || (sty.is_int() && got == Type::I64) || sty == Type::Ptr {
            Ok(v)
        } else {
            Err(BackendError::new(format!(
                "store type mismatch {got} vs {sty}"
            )))
        }
    }

    fn call(
        &mut self,
        name: &str,
        args: &[Expr],
        want_ret: bool,
    ) -> Result<Option<Value>, BackendError> {
        let &(arity, has_ret) = self
            .externs
            .get(name)
            .ok_or_else(|| BackendError::new(format!("call to undeclared `{name}`")))?;
        if arity != args.len() {
            return Err(BackendError::new(format!(
                "arity mismatch calling `{name}`: {} vs {arity}",
                args.len()
            )));
        }
        let _ = want_ret;
        let decl = ExtFuncDecl {
            name: name.to_string().into(),
            sig: Signature::new(
                vec![Type::I64; arity],
                if has_ret { Type::I64 } else { Type::Void },
            ),
        };
        let id = self.b.declare_ext_func(decl);
        let mut vals = Vec::new();
        for a in args {
            let v = self.expr(a)?;
            let v = self.coerce(v, Type::I64)?;
            vals.push(v);
        }
        Ok(self.b.call(id, vals))
    }

    #[allow(clippy::too_many_lines)]
    fn expr(&mut self, e: &Expr) -> Result<Value, BackendError> {
        match e {
            Expr::Int(v) => Ok(self.b.iconst(Type::I64, *v as i128)),
            Expr::Var(n) => self.read(n),
            Expr::AddrOf(name) => {
                let idx = name
                    .strip_prefix("__module_fn_")
                    .and_then(|s| s.parse::<usize>().ok())
                    .ok_or_else(|| {
                        BackendError::new(format!("address of unknown function `{name}`"))
                    })?;
                let _ = &self.fn_index;
                Ok(self.b.func_addr(qc_ir::FuncId::new(idx)))
            }
            Expr::Load(ty, addr) => {
                let (lty, _) = load_ty(ty);
                let (addr, disp) = displaced(addr);
                let a = self.expr(addr)?;
                Ok(self.b.load(lty, a, disp))
            }
            Expr::Cast(to, inner) => {
                let v = self.expr(inner)?;
                let from = self.b.func().value_type(v);
                match (*to, from) {
                    ("i128", Type::I64) => Ok(self.b.sext(Type::I128, v)),
                    ("i128", Type::I128) => Ok(v),
                    ("i64", Type::I128) => Ok(self.b.trunc(Type::I64, v)),
                    ("i64", Type::Bool) => Ok(self.b.zext(Type::I64, v)),
                    ("i64", Type::I64 | Type::Ptr) => Ok(v),
                    ("f64", Type::I64) => Ok(self.b.cast(CastOp::SiToF, Type::F64, v)),
                    ("f64", Type::F64) => Ok(v),
                    other => Err(BackendError::new(format!("unsupported cast {other:?}"))),
                }
            }
            Expr::Ternary(c, a, b) => {
                let cv = self.expr(c)?;
                let cond = self.truth(cv);
                let av = self.expr(a)?;
                let bv = self.expr(b)?;
                // `c ? x : 0` over a widened compare (cprint's `&&`)
                // selects the compare itself, and widens once.
                let (x, y) = (
                    self.unwidened(av, Type::Bool),
                    self.unwidened(bv, Type::Bool),
                );
                if x.is_some() || y.is_some() {
                    let x = x.or_else(|| self.flag(av));
                    let y = y.or_else(|| self.flag(bv));
                    if let (Some(x), Some(y)) = (x, y) {
                        let s = self.b.select(Type::Bool, cond, x, y);
                        return Ok(self.b.zext(Type::I64, s));
                    }
                }
                let ty = self.b.func().value_type(av);
                Ok(self.b.select(ty, cond, av, bv))
            }
            Expr::Call(name, args) => self.builtin_or_call(name, args),
            Expr::Bin(op, a, b) => {
                if let Some((base, index, scale, disp)) = indexed_address(e) {
                    let bv = self.expr(base)?;
                    let iv = self.expr(index)?;
                    return Ok(self.b.gep_indexed(bv, disp, iv, scale));
                }
                let av = self.expr(a)?;
                let bv = self.expr(b)?;
                self.binop(op, av, bv)
            }
        }
    }

    fn binop(&mut self, op: &str, av: Value, bv: Value) -> Result<Value, BackendError> {
        // Addresses are plain integers in C.
        let ty = match self.b.func().value_type(av) {
            Type::Ptr => Type::I64,
            ty => ty,
        };
        let cmp = |g: &mut Self, pred: CmpOp, av: Value, bv: Value| {
            if ty == Type::F64 {
                g.b.fcmp(pred, av, bv)
            } else {
                g.b.icmp(pred, ty, av, bv)
            }
        };
        Ok(match op {
            "+" if ty == Type::F64 => self.b.binary(Opcode::FAdd, ty, av, bv),
            "-" if ty == Type::F64 => self.b.binary(Opcode::FSub, ty, av, bv),
            "*" if ty == Type::F64 => self.b.binary(Opcode::FMul, ty, av, bv),
            "/" if ty == Type::F64 => self.b.binary(Opcode::FDiv, ty, av, bv),
            "+" => self.b.binary(Opcode::Add, ty, av, bv),
            "-" => self.b.binary(Opcode::Sub, ty, av, bv),
            "*" => self.b.binary(Opcode::Mul, ty, av, bv),
            "/" => self.b.binary(Opcode::SDiv, ty, av, bv),
            "%" => self.b.binary(Opcode::SRem, ty, av, bv),
            "&" => self.b.binary(Opcode::And, ty, av, bv),
            "|" => self.b.binary(Opcode::Or, ty, av, bv),
            "^" => self.b.binary(Opcode::Xor, ty, av, bv),
            "<<" => self.b.binary(Opcode::Shl, ty, av, bv),
            ">>" => self.b.binary(Opcode::AShr, ty, av, bv),
            "<" => cmp(self, CmpOp::SLt, av, bv),
            "<=" => cmp(self, CmpOp::SLe, av, bv),
            ">" => cmp(self, CmpOp::SGt, av, bv),
            ">=" => cmp(self, CmpOp::SGe, av, bv),
            "==" => cmp(self, CmpOp::Eq, av, bv),
            "!=" => cmp(self, CmpOp::Ne, av, bv),
            other => return Err(BackendError::new(format!("unknown operator `{other}`"))),
        })
    }

    fn builtin_or_call(&mut self, name: &str, args: &[Expr]) -> Result<Value, BackendError> {
        let bin =
            |g: &mut Self, op: Opcode, ty: Type, args: &[Expr]| -> Result<Value, BackendError> {
                let a = g.expr(&args[0])?;
                let b = g.expr(&args[1])?;
                Ok(g.b.binary(op, ty, a, b))
            };
        match name {
            "__i128" => {
                let (Expr::Int(lo), Expr::Int(hi)) = (&args[0], &args[1]) else {
                    return Err(BackendError::new("__i128 requires literals"));
                };
                let v = ((*hi as i128) << 64) | (*lo as u64 as i128);
                Ok(self.b.iconst(Type::I128, v))
            }
            "__f64bits" => {
                let Expr::Int(bits) = &args[0] else {
                    return Err(BackendError::new("__f64bits requires a literal"));
                };
                Ok(self.b.fconst(f64::from_bits(*bits as u64)))
            }
            "__saddtrap_i64" => bin(self, Opcode::SAddTrap, Type::I64, args),
            "__ssubtrap_i64" => bin(self, Opcode::SSubTrap, Type::I64, args),
            "__smultrap_i64" => bin(self, Opcode::SMulTrap, Type::I64, args),
            "__saddtrap_i128" => bin(self, Opcode::SAddTrap, Type::I128, args),
            "__ssubtrap_i128" => bin(self, Opcode::SSubTrap, Type::I128, args),
            "__smultrap_i128" => bin(self, Opcode::SMulTrap, Type::I128, args),
            "__saddovf" => bin(self, Opcode::SAddOvf, Type::I64, args),
            "__ssubovf" => bin(self, Opcode::SSubOvf, Type::I64, args),
            "__smulovf" => bin(self, Opcode::SMulOvf, Type::I64, args),
            "__udiv" => bin(self, Opcode::UDiv, Type::I64, args),
            "__urem" => bin(self, Opcode::URem, Type::I64, args),
            "__lshr" => bin(self, Opcode::LShr, Type::I64, args),
            "__rotr" => bin(self, Opcode::RotR, Type::I64, args),
            "__crc32" => {
                let a = self.expr(&args[0])?;
                let b = self.expr(&args[1])?;
                Ok(self.b.crc32(a, b))
            }
            "__lmulfold" => {
                let a = self.expr(&args[0])?;
                let b = self.expr(&args[1])?;
                Ok(self.b.long_mul_fold(a, b))
            }
            "__ult" => {
                let a = self.expr(&args[0])?;
                let b = self.expr(&args[1])?;
                Ok(self.b.icmp(CmpOp::ULt, Type::I64, a, b))
            }
            "__ule" => {
                let a = self.expr(&args[0])?;
                let b = self.expr(&args[1])?;
                Ok(self.b.icmp(CmpOp::ULe, Type::I64, a, b))
            }
            "__ftosi" => {
                let a = self.expr(&args[0])?;
                Ok(self.b.cast(CastOp::FToSi, Type::I64, a))
            }
            "__sext8" | "__sext16" | "__sext32" => {
                let bits: u32 = name[6..].parse().expect("suffix");
                let ty = match bits {
                    8 => Type::I8,
                    16 => Type::I16,
                    _ => Type::I32,
                };
                let a = self.expr(&args[0])?;
                Ok(self.sext_from(a, ty))
            }
            "__mask8" | "__mask16" | "__mask32" => {
                let bits: u32 = name[6..].parse().expect("suffix");
                let mask = ((1u64 << bits) - 1) as i128;
                let a = self.expr(&args[0])?;
                let m = self.b.iconst(Type::I64, mask);
                Ok(self.b.binary(Opcode::And, Type::I64, a, m))
            }
            "__scmp8" | "__scmp16" | "__scmp32" => {
                let a = self.expr(&args[0])?;
                let b = self.expr(&args[1])?;
                let Expr::Int(code) = &args[2] else {
                    return Err(BackendError::new("__scmp requires a literal code"));
                };
                let bits: u32 = name[6..].parse().expect("suffix");
                let ty = match bits {
                    8 => Type::I8,
                    16 => Type::I16,
                    _ => Type::I32,
                };
                let sa = self.sext_from(a, ty);
                let sb = self.sext_from(b, ty);
                let pred = match code {
                    0 => CmpOp::SLt,
                    1 => CmpOp::SLe,
                    2 => CmpOp::SGt,
                    _ => CmpOp::SGe,
                };
                Ok(self.b.icmp(pred, Type::I64, sa, sb))
            }
            "__unsupported_stackaddr" => {
                Err(BackendError::new("cgen: stack slots are unsupported"))
            }
            _ => self
                .call(name, args, true)?
                .ok_or_else(|| BackendError::new(format!("`{name}` returns void"))),
        }
    }
}

/// `p + i * s + d` with a scale an addressing mode takes (1, 2, 4, 8):
/// cprint's spelling of an indexed `gep`, as (p, i, s, d).
fn indexed_address(e: &Expr) -> Option<(&Expr, &Expr, u8, i64)> {
    let Expr::Bin("+", sum, d) = e else {
        return None;
    };
    let (Expr::Bin("+", base, scaled), Expr::Int(disp)) = (&**sum, &**d) else {
        return None;
    };
    let Expr::Bin("*", index, s) = &**scaled else {
        return None;
    };
    match **s {
        Expr::Int(scale @ (1 | 2 | 4 | 8)) => Some((base, index, scale as u8, *disp)),
        _ => None,
    }
}

/// A load or store address `p + d` with `d` in i32 range, as (p, d) for
/// the access's displacement; any other address as (address, 0).
fn displaced(addr: &Expr) -> (&Expr, i32) {
    if let Expr::Bin("+", p, d) = addr {
        if let Expr::Int(d) = **d {
            if let Ok(d) = i32::try_from(d) {
                return (p, d);
            }
        }
    }
    (addr, 0)
}

fn load_ty(t: &str) -> (Type, bool) {
    match t {
        "u8" => (Type::I8, false),
        "u16" => (Type::I16, false),
        "u32" => (Type::I32, false),
        "i128" => (Type::I128, false),
        "f64" => (Type::F64, false),
        _ => (Type::I64, false),
    }
}
