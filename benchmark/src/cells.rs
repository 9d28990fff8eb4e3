//! Cells: a (back-end, ISA[, morsel workers]) combination a request
//! runs on. Per-cell values get their own per-layer row; an
//! end-to-end value over several cells pools or averages them.

use qc_backend::Backend;
use qc_engine::backends;
use qc_target::Isa;
use std::sync::Arc;

/// Every cell the benchmark knows, in the paper's Table III order
/// (compile time rises left to right within an ISA). A cell's index in
/// this list identifies it in the exact-value ledger.
pub const ALL: [&str; 12] = [
    "interp.tx64",
    "direct.tx64",
    "clift.tx64",
    "lvm_cheap.tx64",
    "lvm_opt.tx64",
    "cgen.tx64",
    "interp.ta64",
    "clift.ta64",
    "lvm_cheap.ta64",
    "lvm_opt.ta64",
    "cgen.ta64",
    "clift.ta64.w2",
];

/// The single-threaded cells: all but the trailing `.w2` one.
pub fn serial() -> &'static [&'static str] {
    &ALL[..11]
}

#[derive(Clone)]
pub struct Cell {
    pub name: &'static str,
    /// Index in [`ALL`].
    pub id: usize,
    pub backend: Arc<dyn Backend>,
    /// Morsel workers (1 = the exact serial path).
    pub workers: usize,
}

impl Cell {
    /// Builds the cell called `name`.
    ///
    /// # Panics
    /// Panics on a name outside [`ALL`]: cell names are constants of
    /// this program, not input.
    pub fn new(name: &str) -> Cell {
        let id = ALL
            .iter()
            .position(|&n| n == name)
            .unwrap_or_else(|| panic!("unknown cell {name}"));
        let mut parts = name.split('.');
        let (backend, isa) = (parts.next(), parts.next());
        let workers = if parts.next() == Some("w2") { 2 } else { 1 };
        let isa = if isa == Some("ta64") {
            Isa::Ta64
        } else {
            Isa::Tx64
        };
        let backend = match backend {
            Some("interp") => backends::interpreter(),
            Some("direct") => backends::direct_emit(),
            Some("clift") => backends::clift(isa),
            Some("lvm_cheap") => backends::lvm_cheap(isa),
            Some("lvm_opt") => backends::lvm_opt(isa),
            _ => backends::cgen(isa),
        };
        Cell {
            name: ALL[id],
            id,
            backend: Arc::from(backend),
            workers,
        }
    }

    pub fn is_serial(&self) -> bool {
        self.workers == 1
    }

    pub fn is_interpreter(&self) -> bool {
        self.name.starts_with("interp.")
    }

    /// `"tx64"` or `"ta64"`.
    pub fn isa(&self) -> &'static str {
        if self.name.contains(".ta64") {
            "ta64"
        } else {
            "tx64"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_builds_the_cell_it_names() {
        for (i, name) in ALL.iter().enumerate() {
            let c = Cell::new(name);
            assert_eq!((c.id, c.name), (i, *name));
            // The interpreter has no ISA of its own: both interpreter
            // cells run one bytecode (Table III lists it per ISA).
            if !c.is_interpreter() {
                assert_eq!(c.backend.isa().name(), c.isa());
            }
        }
        assert_eq!(Cell::new("clift.ta64.w2").workers, 2);
        assert_eq!(Cell::new("direct.tx64").backend.name(), "DirectEmit");
        assert_eq!(Cell::new("cgen.ta64").backend.name(), "GCC/C");
        assert_eq!(serial().len(), 11);
        assert!(serial().iter().all(|n| Cell::new(n).is_serial()));
    }
}
