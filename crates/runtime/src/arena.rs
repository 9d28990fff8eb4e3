//! Bump allocation with stable addresses.

/// A chunked bump allocator.
///
/// Allocations are zeroed, 16-byte aligned, and their addresses remain
/// stable for the arena's lifetime (chunks are never reallocated), which
/// is required because generated code holds raw pointers into them.
///
/// Chunks grow geometrically: none until the first allocation, then
/// 64 KB, each later one twice the last up to 1 MB. A query that writes
/// a few KB of rows holds 64 KB, not a cleared megabyte, while a large
/// hash build reaches 1 MB chunks after four steps. A request larger
/// than the next chunk gets a chunk of its own size.
#[derive(Debug, Default)]
pub struct Arena {
    chunks: Vec<Box<[u8]>>,
    /// Offset into the last chunk.
    used: usize,
    total: usize,
}

const FIRST_CHUNK: usize = 64 << 10;
/// The size growth stops at.
const CHUNK_SIZE: usize = 1 << 20;

impl Arena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates `size` zeroed bytes, returning a stable address.
    pub fn alloc(&mut self, size: usize) -> u64 {
        let size = (size + 15) & !15;
        let need_new = match self.chunks.last() {
            None => true,
            Some(c) => self.used + size > c.len(),
        };
        if need_new {
            let next = self
                .chunks
                .last()
                .map_or(FIRST_CHUNK, |c| (2 * c.len()).min(CHUNK_SIZE));
            let cap = next.max(size);
            self.chunks.push(vec![0u8; cap].into_boxed_slice());
            self.used = 0;
        }
        let chunk = self.chunks.last_mut().expect("chunk exists");
        let addr = chunk.as_ptr() as u64 + self.used as u64;
        self.used += size;
        self.total += size;
        addr
    }

    /// Copies `bytes` into the arena, returning their address.
    pub fn alloc_bytes(&mut self, bytes: &[u8]) -> u64 {
        let addr = self.alloc(bytes.len());
        // SAFETY: `addr` points at freshly allocated arena memory of at
        // least `bytes.len()` bytes.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), addr as *mut u8, bytes.len());
        }
        addr
    }

    /// Total bytes allocated so far (after alignment).
    pub fn allocated(&self) -> usize {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_aligned_and_zeroed() {
        let mut a = Arena::new();
        let p1 = a.alloc(10);
        let p2 = a.alloc(1);
        assert_eq!(p1 % 16, 0);
        assert_eq!(p2 % 16, 0);
        assert_eq!(p2 - p1, 16);
        // SAFETY: both pointers reference live arena memory.
        unsafe {
            assert_eq!(std::ptr::read(p1 as *const u64), 0);
        }
    }

    #[test]
    fn addresses_stay_stable_across_chunk_growth() {
        let mut a = Arena::new();
        let first = a.alloc_bytes(b"hello");
        for _ in 0..100 {
            a.alloc(CHUNK_SIZE / 4);
        }
        // SAFETY: `first` is still valid arena memory.
        let back = unsafe { std::slice::from_raw_parts(first as *const u8, 5) };
        assert_eq!(back, b"hello");
        assert!(a.allocated() > CHUNK_SIZE);
    }

    #[test]
    fn oversized_allocations_get_their_own_chunk() {
        let mut a = Arena::new();
        let p = a.alloc(3 * CHUNK_SIZE);
        assert_ne!(p, 0);
        let q = a.alloc(8);
        assert_ne!(q, 0);
    }

    fn chunk_sizes(a: &Arena) -> Vec<usize> {
        a.chunks.iter().map(|c| c.len()).collect()
    }

    #[test]
    fn chunks_start_at_64_kb_and_double_up_to_1_mb() {
        let mut a = Arena::new();
        while a.chunks.len() < 7 {
            a.alloc(4 << 10);
        }
        let kb: Vec<usize> = chunk_sizes(&a).iter().map(|s| s >> 10).collect();
        assert_eq!(kb, [64, 128, 256, 512, 1024, 1024, 1024]);
    }

    #[test]
    fn an_oversized_request_gets_its_own_chunk_and_growth_resumes_at_the_cap() {
        let mut a = Arena::new();
        a.alloc(16);
        let big = a.alloc(3 * CHUNK_SIZE);
        assert_eq!(big, a.chunks[1].as_ptr() as u64, "starts its own chunk");
        a.alloc(16);
        a.alloc(CHUNK_SIZE - 16);
        a.alloc(16);
        assert_eq!(
            chunk_sizes(&a),
            [FIRST_CHUNK, 3 * CHUNK_SIZE, CHUNK_SIZE, CHUNK_SIZE]
        );
    }

    #[test]
    fn earlier_addresses_stay_put_and_new_ones_are_zeroed_across_growth() {
        let mut a = Arena::new();
        let mut marked = Vec::new();
        // Odd sizes, so chunks end with unused tails and growth is hit
        // mid-stream at every size step.
        for i in 0..600u64 {
            let size = 1000 + (i as usize * 37) % 9000;
            let p = a.alloc(size);
            // SAFETY: `p` is a fresh arena allocation of `size` bytes.
            let fresh = unsafe { std::slice::from_raw_parts_mut(p as *mut u8, size) };
            assert!(fresh.iter().all(|&b| b == 0), "allocation {i} not zeroed");
            fresh[..8].copy_from_slice(&i.to_le_bytes());
            marked.push(p);
        }
        assert!(a.chunks.len() >= 5, "{:?}", chunk_sizes(&a));
        for (i, &p) in marked.iter().enumerate() {
            // SAFETY: every marked address is still live arena memory.
            let back = unsafe { std::ptr::read_unaligned(p as *const u64) };
            assert_eq!(back, i as u64);
        }
    }

    #[test]
    fn no_chunk_exists_before_the_first_alloc() {
        let mut a = Arena::new();
        assert!(a.chunks.is_empty());
        let mut parent = crate::RuntimeState::new();
        parent.intern_string("a string too long to be stored inline");
        assert_eq!(parent.arena_mut().chunks.len(), 1);
        let mut fork = parent.fork_worker();
        assert!(fork.arena_mut().chunks.is_empty(), "a fork starts empty");
        a.alloc(1);
        assert_eq!(chunk_sizes(&a), [FIRST_CHUNK]);
    }
}
