//! The kernels' instrumentation hook.
//!
//! Every probed kernel takes a `&P: Probe` and reports to it the data it
//! loads and stores and the outcome of each data-dependent branch (a
//! comparison whose result steers control flow). Loop control and other
//! branches that predict near-perfectly are not reported.
//!
//! Sorts that are only timed pass [`NoProbe`]: its methods are empty and
//! inline away, and work done only to feed a probe sits behind
//! `if P::ON`, a constant `false` for it. `rowsort-simcpu`'s `SimCpu` is
//! the probe that counts — the paper's Tables II/III and Figure 10 run
//! the very kernels Figures 2–9 time.

/// What a probed kernel reports. Buffers are named by the slice the
/// kernel holds and positions are in elements of that slice.
pub trait Probe {
    /// `false` for a probe that records nothing.
    const ON: bool;

    /// `buf` is a buffer the kernel is about to touch.
    fn buffer<T>(&self, _buf: &[T]) {}

    /// A load of `len` elements of `buf` from element `at`.
    fn read<T>(&self, _buf: &[T], _at: usize, _len: usize) {}

    /// A store of `len` elements of `buf` from element `at`.
    fn write<T>(&self, _buf: &[T], _at: usize, _len: usize) {}

    /// A conditional branch at static site `site` resolved to `taken`,
    /// which is returned.
    fn branch(&self, _site: u32, taken: bool) -> bool {
        taken
    }

    /// `a < b` as `memcmp` decides it, reported as the word-wise reads
    /// of both keys up to and including the first differing byte.
    fn less_bytes(&self, a: &[u8], b: &[u8]) -> bool {
        if Self::ON {
            let diff = a.iter().zip(b).position(|(x, y)| x != y);
            let touched = diff.map_or(a.len(), |p| ((p + 1).div_ceil(8) * 8).min(a.len()));
            self.read(a, 0, touched);
            self.read(b, 0, touched);
        }
        a < b
    }
}

/// The probe that records nothing: what every timed sort passes.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl Probe for NoProbe {
    const ON: bool = false;
}

/// `is_less(&v[i], &v[j])`, reported as loads of both elements and a
/// branch at `site`.
pub(crate) fn less<T, F, P>(
    v: &[T],
    i: usize,
    j: usize,
    is_less: &mut F,
    probe: &P,
    site: u32,
) -> bool
where
    F: FnMut(&T, &T) -> bool,
    P: Probe,
{
    probe.read(v, i, 1);
    probe.read(v, j, 1);
    probe.branch(site, is_less(&v[i], &v[j]))
}

/// `v.swap(i, j)`, reported as a load and a store of both elements.
pub(crate) fn swap<T, P: Probe>(v: &mut [T], i: usize, j: usize, probe: &P) {
    for k in [i, j] {
        probe.read(v, k, 1);
        probe.write(v, k, 1);
    }
    v.swap(i, j);
}
