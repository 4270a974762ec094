//! The combined CPU model: cache + branch predictor + address space, and
//! the [`Probe`] that feeds it from the real sort kernels.

use crate::branch::BranchPredictor;
use crate::cache::{CacheConfig, CacheSim};
use rowsort_algos::Probe;
use std::cell::{Cell, RefCell};

/// A snapshot of simulation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// L1-D line accesses.
    pub l1_accesses: u64,
    /// L1-D misses (the paper's `L1-dcache-load-misses` analogue).
    pub l1_misses: u64,
    /// Data-dependent conditional branches executed.
    pub branches: u64,
    /// Branch mispredictions (the paper's `branch-misses` analogue).
    pub branch_misses: u64,
}

impl Counters {
    /// Element-wise difference (`self` − `earlier`).
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            l1_accesses: self.l1_accesses - earlier.l1_accesses,
            l1_misses: self.l1_misses - earlier.l1_misses,
            branches: self.branches - earlier.branches,
            branch_misses: self.branch_misses - earlier.branch_misses,
        }
    }
}

/// The simulated CPU: one L1-D cache, one branch predictor, and a bump
/// allocator for laying out simulated arrays in a virtual address space.
///
/// Pass `&SimCpu` as the probe of a `rowsort-algos` kernel (or a
/// `core::strategy` entry) and read the counters off with
/// [`SimCpu::counters`]. Each buffer a kernel announces is mapped to its
/// own [`SimCpu::alloc`] range, so what the cache sees depends on the
/// kernel's input and never on where the host put the buffer.
#[derive(Debug, Clone)]
pub struct SimCpu {
    cache: RefCell<CacheSim>,
    predictor: RefCell<BranchPredictor>,
    next_base: Cell<u64>,
    /// Announced host buffers as `(host address, bytes, simulated base)`,
    /// the most recently announced last.
    buffers: RefCell<Vec<(usize, usize, u64)>>,
}

impl SimCpu {
    /// A CPU with the paper's L1-D geometry and the default predictor.
    pub fn new() -> SimCpu {
        SimCpu::with_cache(CacheConfig::L1D)
    }

    /// A CPU with custom cache geometry.
    pub fn with_cache(config: CacheConfig) -> SimCpu {
        SimCpu {
            cache: RefCell::new(CacheSim::new(config)),
            predictor: RefCell::new(BranchPredictor::new()),
            next_base: Cell::new(1 << 20),
            buffers: RefCell::new(Vec::new()),
        }
    }

    /// Reserve `size` bytes of virtual address space, 1 MiB-aligned so
    /// distinct arrays never share a cache line.
    pub fn alloc(&self, size: usize) -> u64 {
        let base = self.next_base.get();
        let aligned = (size as u64).div_ceil(1 << 20) * (1 << 20);
        self.next_base.set(base + aligned.max(1 << 20));
        base
    }

    /// Current counter values.
    pub fn counters(&self) -> Counters {
        let (cache, predictor) = (self.cache.borrow(), self.predictor.borrow());
        Counters {
            l1_accesses: cache.accesses(),
            l1_misses: cache.misses(),
            branches: predictor.branches(),
            branch_misses: predictor.mispredictions(),
        }
    }

    /// Touch `len` elements of `buf` from element `at` (write-allocate:
    /// loads and stores cost the same).
    fn access<T>(&self, buf: &[T], at: usize, len: usize) {
        let size = std::mem::size_of::<T>();
        if len == 0 {
            return;
        }
        let host = buf.as_ptr() as usize + at * size;
        // The newest announced buffer holding `host`: a stack array
        // announced again in a later frame shadows the dead one it reuses.
        let buffers = self.buffers.borrow();
        let Some(&(start, _, base)) = buffers
            .iter()
            .rev()
            .find(|b| (b.0..b.0 + b.1).contains(&host))
        else {
            panic!("a probed kernel touched a buffer it did not announce");
        };
        self.cache
            .borrow_mut()
            .access_range(base + (host - start) as u64, len * size);
    }
}

impl Default for SimCpu {
    fn default() -> Self {
        SimCpu::new()
    }
}

impl Probe for SimCpu {
    const ON: bool = true;

    /// Map `buf` to a fresh [`SimCpu::alloc`] range — or, announced again
    /// at the same address and length (a stack array of a recurring
    /// frame), to the range it already has.
    fn buffer<T>(&self, buf: &[T]) {
        let key = (buf.as_ptr() as usize, std::mem::size_of_val(buf));
        let mut buffers = self.buffers.borrow_mut();
        let known = buffers.iter().position(|b| (b.0, b.1) == key);
        let entry = match known {
            Some(i) => buffers.remove(i),
            None => (key.0, key.1, self.alloc(key.1)),
        };
        buffers.push(entry);
    }

    fn read<T>(&self, buf: &[T], at: usize, len: usize) {
        self.access(buf, at, len);
    }

    fn write<T>(&self, buf: &[T], at: usize, len: usize) {
        self.access(buf, at, len);
    }

    /// The site id is hashed to a branch address: sites spread over the
    /// predictor's table as instruction addresses do.
    fn branch(&self, site: u32, taken: bool) -> bool {
        let pc = u64::from(site).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52;
        self.predictor.borrow_mut().branch(pc, taken);
        taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_disjoint_and_aligned() {
        let cpu = SimCpu::new();
        let a = cpu.alloc(100);
        let b = cpu.alloc(5 << 20);
        let c = cpu.alloc(1);
        assert_eq!(a % (1 << 20), 0);
        assert!(b >= a + 100);
        assert!(c >= b + (5 << 20));
    }

    #[test]
    fn read_write_and_counters() {
        let cpu = SimCpu::new();
        let buf = [0u32; 1024];
        cpu.buffer(&buf);
        cpu.read(&buf, 0, 1);
        cpu.write(&buf, 0, 1);
        let c = cpu.counters();
        assert_eq!(c.l1_accesses, 2);
        assert_eq!(c.l1_misses, 1, "write hits the line the read loaded");
    }

    #[test]
    fn counters_since() {
        let cpu = SimCpu::new();
        let buf = [0u8; 4096];
        cpu.buffer(&buf);
        cpu.read(&buf, 0, 1);
        let snap = cpu.counters();
        cpu.read(&buf, 64, 1);
        cpu.branch(1, true);
        let delta = cpu.counters().since(&snap);
        assert_eq!(delta.l1_accesses, 1);
        assert_eq!(delta.l1_misses, 1);
        assert_eq!(delta.branches, 1);
    }

    #[test]
    fn buffers_map_to_their_own_line_aligned_ranges() {
        // Two buffers in one host allocation, 8 bytes apart: adjacent on
        // the host, each at the start of its own range here — so a read
        // of each misses, and a line's worth of reads into one misses once.
        let cpu = SimCpu::new();
        let host = [0u8; 256];
        let (a, b) = (&host[..8], &host[8..]);
        cpu.buffer(a);
        cpu.buffer(b);
        cpu.read(a, 0, 8);
        cpu.read(b, 0, 64);
        cpu.read(b, 0, 1);
        assert_eq!(cpu.counters().l1_misses, 2);
        // Announcing `a` again keeps its range: the line is still cached.
        cpu.buffer(a);
        cpu.read(a, 0, 1);
        assert_eq!(cpu.counters().l1_misses, 2);
    }
}
