//! Where the run happens: directories, core count, and the seeded
//! generator that fixes request order and draws.

use std::path::{Path, PathBuf};

/// Directories and host facts of one benchmark process.
#[derive(Debug)]
pub struct Env {
    /// `benchmark/out`: result files and traces.
    pub out_dir: PathBuf,
    /// Scratch space of this process (artifact stores, `TMPDIR` for
    /// `qc-cgen`'s temp-file round trip); removed on drop.
    pub tmp_dir: PathBuf,
    /// File-system type under `tmp_dir`: store and cgen timings depend
    /// on it, so it is recorded with every result.
    pub tmp_fs: String,
    pub nproc: usize,
}

impl Env {
    /// Creates the output and scratch directories inside the benchmark
    /// directory — the harness writes nowhere else — and points
    /// `TMPDIR` at the scratch directory. Call before any thread starts.
    ///
    /// # Errors
    /// Propagates directory-creation errors.
    pub fn init() -> std::io::Result<Env> {
        let out_dir = out_dir();
        let tmp_dir = out_dir.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&tmp_dir)?;
        let tmp_dir = tmp_dir.canonicalize()?;
        std::env::set_var("TMPDIR", &tmp_dir);
        Ok(Env {
            out_dir,
            tmp_fs: fs_type(&tmp_dir),
            tmp_dir,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        })
    }
}

/// `benchmark/out`. `cargo run` exports the manifest directory; a
/// copied binary falls back to the path the documented commands run
/// from (the repo root).
pub fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
        .join("out")
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.tmp_dir);
    }
}

/// File-system type of the mount holding `path`, from `/proc/mounts`
/// (longest mount-point prefix wins); `"unknown"` elsewhere.
fn fs_type(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc`
/// does not provide it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the whole benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`); the modulo bias is below
    /// 2^-50 for the sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let mut c = Rng::new(8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<usize> = (0..100).collect();
        Rng::new(1).shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }
}
