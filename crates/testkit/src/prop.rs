//! A mini property-testing harness.
//!
//! The shape follows proptest at a distance: a [`Gen`] produces random
//! values of one type (and knows how to propose *smaller* variants of a
//! value for shrinking); the [`prop!`] macro declares `#[test]` functions
//! whose arguments are drawn from generators; the [`Runner`] drives a
//! configurable number of cases from a deterministic seed and, on failure,
//! greedily shrinks the input (halve numerics, truncate vectors and
//! strings) before reporting the minimal failing value and a re-runnable
//! seed.
//!
//! # Determinism
//!
//! The run seed is `TESTKIT_SEED` if set (decimal or `0x…` hex), otherwise
//! a hash of the property name — so plain `cargo test` is fully
//! deterministic, and a reported failure replays exactly. `TESTKIT_CASES`
//! overrides the per-property case count.
//!
//! ```
//! use rowsort_testkit::prop::{vec_of, Runner};
//!
//! Runner::new("doc_example").cases(64).run(
//!     &vec_of(0u32..100, 0..16),
//!     |v| {
//!         let mut sorted = v.clone();
//!         sorted.sort_unstable();
//!         if sorted.len() == v.len() {
//!             Ok(())
//!         } else {
//!             Err("sort changed the length".to_owned())
//!         }
//!     },
//! );
//! ```

use crate::rng::{splitmix64, Rng, UniformInt};
use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What a property returns: `Err` carries the failure description.
pub type PropResult = Result<(), String>;

/// A generator of random values with optional shrinking.
pub trait Gen {
    /// The generated type.
    type Value: Clone + Debug;

    /// Draw one value.
    fn generate(&self, rng: &mut Rng) -> Self::Value;

    /// Propose strictly "smaller" variants of `v` to try during shrinking,
    /// most aggressive first. An empty list ends shrinking at `v`.
    fn shrink(&self, _v: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

/// A type-erased generator.
pub type BoxedGen<V> = Box<dyn Gen<Value = V>>;

impl<V: Clone + Debug> Gen for BoxedGen<V> {
    type Value = V;
    fn generate(&self, rng: &mut Rng) -> V {
        (**self).generate(rng)
    }
    fn shrink(&self, v: &V) -> Vec<V> {
        (**self).shrink(v)
    }
}

/// Combinator methods available on every generator.
pub trait GenExt: Gen + Sized {
    /// Transform generated values (proptest's `prop_map`; the name avoids
    /// colliding with `Iterator::map` on ranges). The mapping is one-way,
    /// so mapped generators do not shrink.
    fn prop_map<U: Clone + Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F, U> {
        Map {
            inner: self,
            f,
            _marker: PhantomData,
        }
    }

    /// Generate a value, then generate from a dependent generator built
    /// out of it. Like [`GenExt::prop_map`], this does not shrink.
    fn prop_flat_map<G2: Gen, F: Fn(Self::Value) -> G2>(self, f: F) -> FlatMap<Self, F> {
        FlatMap { inner: self, f }
    }

    /// Erase the concrete generator type.
    fn boxed(self) -> BoxedGen<Self::Value>
    where
        Self: 'static,
    {
        Box::new(self)
    }
}

impl<G: Gen + Sized> GenExt for G {}

// ---------------------------------------------------------------------------
// Primitive generators

/// Greedy integer shrink candidates: jump to `target`, then halfway, then
/// one step — all in the order the shrinker should try them.
fn shrink_int<T: UniformInt>(cur: T, target: T) -> Vec<T> {
    let (c, t) = (cur.to_offset(), target.to_offset());
    if c == t {
        return Vec::new();
    }
    let mut out = vec![T::from_offset(t)];
    let mid = if c > t {
        t + (c - t) / 2
    } else {
        t - (t - c) / 2
    };
    if mid != c && mid != t {
        out.push(T::from_offset(mid));
    }
    let step = if c > t { c - 1 } else { c + 1 };
    if step != t && step != mid {
        out.push(T::from_offset(step));
    }
    out
}

impl<T: UniformInt + Clone + Debug> Gen for Range<T> {
    type Value = T;
    fn generate(&self, rng: &mut Rng) -> T {
        rng.range(self.start, self.end)
    }
    fn shrink(&self, v: &T) -> Vec<T> {
        shrink_int(*v, self.start)
    }
}

impl<T: UniformInt + Clone + Debug> Gen for RangeInclusive<T> {
    type Value = T;
    fn generate(&self, rng: &mut Rng) -> T {
        rng.range_inclusive(*self.start(), *self.end())
    }
    fn shrink(&self, v: &T) -> Vec<T> {
        shrink_int(*v, *self.start())
    }
}

/// The full domain of an integer type, shrinking toward zero (like
/// proptest's `any::<T>()`).
pub fn full<T: UniformInt + Default + Clone + Debug>() -> FullInt<T> {
    FullInt(PhantomData)
}

/// See [`full`].
pub struct FullInt<T>(PhantomData<T>);

impl<T: UniformInt + Default + Clone + Debug> Gen for FullInt<T> {
    type Value = T;
    fn generate(&self, rng: &mut Rng) -> T {
        T::from_offset(rng.next_u64())
    }
    fn shrink(&self, v: &T) -> Vec<T> {
        shrink_int(*v, T::default())
    }
}

/// Every `f32` bit pattern — including infinities and NaNs.
pub fn full_f32() -> FullF32 {
    FullF32
}

/// See [`full_f32`].
pub struct FullF32;

impl Gen for FullF32 {
    type Value = f32;
    fn generate(&self, rng: &mut Rng) -> f32 {
        f32::from_bits(rng.next_u32())
    }
    fn shrink(&self, v: &f32) -> Vec<f32> {
        shrink_float_f32(*v)
    }
}

/// Every `f64` bit pattern — including infinities and NaNs.
pub fn full_f64() -> FullF64 {
    FullF64
}

/// See [`full_f64`].
pub struct FullF64;

impl Gen for FullF64 {
    type Value = f64;
    fn generate(&self, rng: &mut Rng) -> f64 {
        f64::from_bits(rng.next_u64())
    }
    fn shrink(&self, v: &f64) -> Vec<f64> {
        shrink_float_f64(*v)
    }
}

fn shrink_float_f64(v: f64) -> Vec<f64> {
    if v == 0.0 {
        return Vec::new();
    }
    if !v.is_finite() {
        return vec![0.0];
    }
    let half = v / 2.0;
    if half == v {
        vec![0.0]
    } else {
        vec![0.0, half]
    }
}

fn shrink_float_f32(v: f32) -> Vec<f32> {
    shrink_float_f64(v as f64)
        .into_iter()
        .map(|f| f as f32)
        .collect()
}

/// A uniform `f64` in `[lo, hi)`, shrinking toward `lo`.
pub fn f64_in(lo: f64, hi: f64) -> F64Range {
    F64Range { lo, hi }
}

/// See [`f64_in`].
pub struct F64Range {
    lo: f64,
    hi: f64,
}

impl Gen for F64Range {
    type Value = f64;
    fn generate(&self, rng: &mut Rng) -> f64 {
        rng.f64_range(self.lo, self.hi)
    }
    fn shrink(&self, v: &f64) -> Vec<f64> {
        if *v == self.lo {
            return Vec::new();
        }
        let mid = self.lo + (*v - self.lo) / 2.0;
        if mid == *v {
            vec![self.lo]
        } else {
            vec![self.lo, mid]
        }
    }
}

/// A fair coin, shrinking `true` → `false`.
pub fn full_bool() -> BoolGen {
    BoolGen { p: 0.5 }
}

/// `true` with probability `p` (proptest's `bool::weighted`).
pub fn bool_weighted(p: f64) -> BoolGen {
    BoolGen { p }
}

/// See [`full_bool`] / [`bool_weighted`].
pub struct BoolGen {
    p: f64,
}

impl Gen for BoolGen {
    type Value = bool;
    fn generate(&self, rng: &mut Rng) -> bool {
        rng.chance(self.p)
    }
    fn shrink(&self, v: &bool) -> Vec<bool> {
        if *v {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// Always the same value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Gen for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut Rng) -> T {
        self.0.clone()
    }
}

/// A uniform choice from a fixed list, shrinking toward earlier items.
pub fn select<T: Clone + Debug + PartialEq>(items: Vec<T>) -> Select<T> {
    assert!(!items.is_empty(), "select over an empty list");
    Select { items }
}

/// See [`select`].
pub struct Select<T> {
    items: Vec<T>,
}

impl<T: Clone + Debug + PartialEq> Gen for Select<T> {
    type Value = T;
    fn generate(&self, rng: &mut Rng) -> T {
        self.items[rng.below(self.items.len() as u64) as usize].clone()
    }
    fn shrink(&self, v: &T) -> Vec<T> {
        match self.items.iter().position(|it| it == v) {
            Some(pos) => self.items[..pos].to_vec(),
            None => Vec::new(),
        }
    }
}

/// A uniform choice among alternative generators of one type.
pub fn one_of<V: Clone + Debug>(gens: Vec<BoxedGen<V>>) -> OneOf<V> {
    assert!(!gens.is_empty(), "one_of over no generators");
    OneOf { gens }
}

/// See [`one_of`].
pub struct OneOf<V> {
    gens: Vec<BoxedGen<V>>,
}

impl<V: Clone + Debug> Gen for OneOf<V> {
    type Value = V;
    fn generate(&self, rng: &mut Rng) -> V {
        self.gens[rng.below(self.gens.len() as u64) as usize].generate(rng)
    }
    fn shrink(&self, v: &V) -> Vec<V> {
        // Any arm may propose candidates; a candidate only survives if it
        // still fails the property, so over-proposing is harmless.
        self.gens.iter().flat_map(|g| g.shrink(v)).collect()
    }
}

/// A weighted choice among alternative generators (proptest's
/// `prop_oneof![w1 => g1, w2 => g2, …]`).
pub fn weighted<V: Clone + Debug>(arms: Vec<(u32, BoxedGen<V>)>) -> Weighted<V> {
    assert!(!arms.is_empty(), "weighted over no generators");
    assert!(arms.iter().any(|(w, _)| *w > 0), "all weights are zero");
    Weighted { arms }
}

/// See [`weighted`].
pub struct Weighted<V> {
    arms: Vec<(u32, BoxedGen<V>)>,
}

impl<V: Clone + Debug> Gen for Weighted<V> {
    type Value = V;
    fn generate(&self, rng: &mut Rng) -> V {
        let total: u64 = self.arms.iter().map(|(w, _)| *w as u64).sum();
        let mut pick = rng.below(total);
        for (w, g) in &self.arms {
            if pick < *w as u64 {
                return g.generate(rng);
            }
            pick -= *w as u64;
        }
        unreachable!("weights sum covers the draw")
    }
    fn shrink(&self, v: &V) -> Vec<V> {
        self.arms.iter().flat_map(|(_, g)| g.shrink(v)).collect()
    }
}

/// An inclusive length range for collection generators; built from
/// `a..b` or `a..=b`.
#[derive(Debug, Clone, Copy)]
pub struct LenRange {
    /// Minimum length (inclusive).
    pub min: usize,
    /// Maximum length (inclusive).
    pub max: usize,
}

impl From<Range<usize>> for LenRange {
    fn from(r: Range<usize>) -> LenRange {
        assert!(r.end > r.start, "empty length range");
        LenRange {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for LenRange {
    fn from(r: RangeInclusive<usize>) -> LenRange {
        LenRange {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

/// A vector of values from `elem`, with a length drawn from `len`.
pub fn vec_of<G: Gen>(elem: G, len: impl Into<LenRange>) -> VecGen<G> {
    VecGen {
        elem,
        len: len.into(),
    }
}

/// See [`vec_of`].
pub struct VecGen<G> {
    elem: G,
    len: LenRange,
}

impl<G: Gen> Gen for VecGen<G> {
    type Value = Vec<G::Value>;
    fn generate(&self, rng: &mut Rng) -> Vec<G::Value> {
        let n = rng.range_inclusive(self.len.min, self.len.max);
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }
    fn shrink(&self, v: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        let mut out = Vec::new();
        // Truncations first (most aggressive): to the minimum, to half,
        // then dropping one element.
        if v.len() > self.len.min {
            out.push(v[..self.len.min].to_vec());
            let half = (v.len() / 2).max(self.len.min);
            if half != self.len.min && half < v.len() {
                out.push(v[..half].to_vec());
            }
            out.push(v[..v.len() - 1].to_vec());
        }
        // Then per-element shrinks, keeping each candidate the element
        // generator proposes (the first may pass while a later one fails).
        for i in 0..v.len() {
            for smaller in self.elem.shrink(&v[i]) {
                let mut copy = v.clone();
                copy[i] = smaller;
                out.push(copy);
            }
        }
        out
    }
}

/// A fixed-length heterogeneous-position vector: one generator per index
/// (proptest implements `Strategy` for `Vec<S>` the same way).
impl<G: Gen> Gen for Vec<G> {
    type Value = Vec<G::Value>;
    fn generate(&self, rng: &mut Rng) -> Vec<G::Value> {
        self.iter().map(|g| g.generate(rng)).collect()
    }
    fn shrink(&self, v: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        let mut out = Vec::new();
        for (i, g) in self.iter().enumerate() {
            for smaller in g.shrink(&v[i]) {
                let mut copy = v.clone();
                copy[i] = smaller;
                out.push(copy);
            }
        }
        out
    }
}

/// A string of chars drawn uniformly from `charset`, shrinking by
/// truncation.
pub fn string_from(charset: &str, len: impl Into<LenRange>) -> StringGen {
    let chars: Vec<char> = charset.chars().collect();
    assert!(!chars.is_empty(), "empty charset");
    StringGen {
        chars,
        len: len.into(),
    }
}

/// Arbitrary Unicode strings of `len` chars (proptest's `".{0,n}"`).
pub fn any_string(len: impl Into<LenRange>) -> AnyString {
    AnyString { len: len.into() }
}

/// See [`string_from`].
pub struct StringGen {
    chars: Vec<char>,
    len: LenRange,
}

fn shrink_string(v: &str, min_chars: usize) -> Vec<String> {
    let n = v.chars().count();
    if n <= min_chars {
        return Vec::new();
    }
    let take = |k: usize| -> String { v.chars().take(k).collect() };
    let mut out = vec![take(min_chars)];
    let half = (n / 2).max(min_chars);
    if half != min_chars && half < n {
        out.push(take(half));
    }
    out.push(take(n - 1));
    out
}

impl Gen for StringGen {
    type Value = String;
    fn generate(&self, rng: &mut Rng) -> String {
        let n = rng.range_inclusive(self.len.min, self.len.max);
        rng.string_from(&self.chars, n)
    }
    fn shrink(&self, v: &String) -> Vec<String> {
        shrink_string(v, self.len.min)
    }
}

/// See [`any_string`].
pub struct AnyString {
    len: LenRange,
}

impl Gen for AnyString {
    type Value = String;
    fn generate(&self, rng: &mut Rng) -> String {
        let n = rng.range_inclusive(self.len.min, self.len.max);
        (0..n).map(|_| rng.any_char()).collect()
    }
    fn shrink(&self, v: &String) -> Vec<String> {
        shrink_string(v, self.len.min)
    }
}

/// `None` a quarter of the time, otherwise `Some` of the inner generator
/// (proptest's `option::of`). Shrinks toward `None`.
pub fn option_of<G: Gen>(inner: G) -> OptionGen<G> {
    OptionGen { inner }
}

/// See [`option_of`].
pub struct OptionGen<G> {
    inner: G,
}

impl<G: Gen> Gen for OptionGen<G> {
    type Value = Option<G::Value>;
    fn generate(&self, rng: &mut Rng) -> Option<G::Value> {
        if rng.chance(0.25) {
            None
        } else {
            Some(self.inner.generate(rng))
        }
    }
    fn shrink(&self, v: &Option<G::Value>) -> Vec<Option<G::Value>> {
        match v {
            None => Vec::new(),
            Some(inner) => {
                let mut out = vec![None];
                out.extend(self.inner.shrink(inner).into_iter().map(Some));
                out
            }
        }
    }
}

/// See [`GenExt::prop_map`].
pub struct Map<G, F, U> {
    inner: G,
    f: F,
    _marker: PhantomData<fn() -> U>,
}

impl<G: Gen, U: Clone + Debug, F: Fn(G::Value) -> U> Gen for Map<G, F, U> {
    type Value = U;
    fn generate(&self, rng: &mut Rng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`GenExt::prop_flat_map`].
pub struct FlatMap<G, F> {
    inner: G,
    f: F,
}

impl<G: Gen, G2: Gen, F: Fn(G::Value) -> G2> Gen for FlatMap<G, F> {
    type Value = G2::Value;
    fn generate(&self, rng: &mut Rng) -> G2::Value {
        let first = self.inner.generate(rng);
        (self.f)(first).generate(rng)
    }
}

// Tuples of generators produce tuples of values; shrinking works one
// component at a time while holding the others fixed.
macro_rules! impl_tuple_gen {
    ($(($($g:ident / $idx:tt),+))+) => {$(
        impl<$($g: Gen),+> Gen for ($($g,)+) {
            type Value = ($($g::Value,)+);
            fn generate(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
            fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for smaller in self.$idx.shrink(&v.$idx) {
                        let mut copy = v.clone();
                        copy.$idx = smaller;
                        out.push(copy);
                    }
                )+
                out
            }
        }
    )+};
}

impl_tuple_gen! {
    (G0/0)
    (G0/0, G1/1)
    (G0/0, G1/1, G2/2)
    (G0/0, G1/1, G2/2, G3/3)
    (G0/0, G1/1, G2/2, G3/3, G4/4)
    (G0/0, G1/1, G2/2, G3/3, G4/4, G5/5)
    (G0/0, G1/1, G2/2, G3/3, G4/4, G5/5, G6/6)
    (G0/0, G1/1, G2/2, G3/3, G4/4, G5/5, G6/6, G7/7)
}

// ---------------------------------------------------------------------------
// The runner

/// Evaluation budget for the shrink loop: total candidate evaluations.
const SHRINK_BUDGET: u32 = 2048;

/// Drives one property: N cases from a deterministic seed, greedy
/// shrinking on failure.
pub struct Runner {
    name: String,
    cases: u32,
    seed: u64,
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

impl Runner {
    /// A runner for the named property. The seed is `TESTKIT_SEED` if set,
    /// otherwise derived from `name`; the default case count is 256.
    pub fn new(name: &str) -> Runner {
        let seed = std::env::var("TESTKIT_SEED")
            .ok()
            .and_then(|v| parse_seed(&v))
            .unwrap_or_else(|| fnv1a(name));
        Runner {
            name: name.to_owned(),
            cases: 256,
            seed,
        }
    }

    /// Set the case count (`TESTKIT_CASES` still overrides at run time).
    pub fn cases(mut self, n: u32) -> Runner {
        self.cases = n;
        self
    }

    /// Run the property over `cases` generated values; panics with the
    /// minimal failing input and a re-runnable seed on the first failure.
    pub fn run<G: Gen>(&self, gen: &G, prop: impl Fn(&G::Value) -> PropResult) {
        let cases = std::env::var("TESTKIT_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(self.cases);
        for case in 0..cases {
            // Every case gets an independent stream keyed by (seed, case).
            let mut mix = self.seed ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut rng = Rng::seed_from_u64(splitmix64(&mut mix));
            let value = gen.generate(&mut rng);
            if let Err(message) = check(&prop, &value) {
                let (minimal, min_message, steps) =
                    shrink_failure(gen, &prop, value.clone(), message);
                panic!(
                    "\nproperty '{name}' failed (case {case} of {cases}, seed {seed:#x})\n\
                     minimal failing input ({steps} shrink steps): {minimal:#?}\n\
                     error: {min_message}\n\
                     original failing input: {value:#?}\n\
                     rerun: TESTKIT_SEED={seed:#x} cargo test {name}\n",
                    name = self.name,
                    seed = self.seed,
                );
            }
        }
    }
}

/// Evaluate the property, converting panics (plain `assert!` in the body)
/// into failures so they shrink like `prop_assert!` failures do.
fn check<V>(prop: impl Fn(&V) -> PropResult, v: &V) -> PropResult {
    match catch_unwind(AssertUnwindSafe(|| prop(v))) {
        Ok(r) => r,
        Err(payload) => Err(panic_message(&payload)),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic (non-string payload)".to_owned()
    }
}

/// Greedy shrink: repeatedly adopt the first proposed candidate that still
/// fails, until no candidate fails or the budget is exhausted.
fn shrink_failure<G: Gen>(
    gen: &G,
    prop: &impl Fn(&G::Value) -> PropResult,
    mut current: G::Value,
    mut message: String,
) -> (G::Value, String, u32) {
    let mut evaluations = 0;
    let mut steps = 0;
    'outer: loop {
        for candidate in gen.shrink(&current) {
            if evaluations >= SHRINK_BUDGET {
                break 'outer;
            }
            evaluations += 1;
            if let Err(m) = check(prop, &candidate) {
                current = candidate;
                message = m;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (current, message, steps)
}

// ---------------------------------------------------------------------------
// Macros

/// Declare property-based `#[test]` functions.
///
/// ```
/// rowsort_testkit::prop! {
///     #![cases(64)]
///
///     fn reverse_twice_is_identity(v in rowsort_testkit::prop::vec_of(0u32..100, 0..32)) {
///         let mut w = v.clone();
///         w.reverse();
///         w.reverse();
///         rowsort_testkit::prop_assert_eq!(v, w);
///     }
/// }
/// ```
#[macro_export]
macro_rules! prop {
    (#![cases($cases:expr)] $($rest:tt)*) => {
        $crate::__prop_fns! { $cases; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__prop_fns! { 256; $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __prop_fns {
    ($cases:expr;) => {};
    ($cases:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $gen:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            let __gen = ($($gen,)+);
            $crate::prop::Runner::new(stringify!($name))
                .cases($cases)
                .run(&__gen, |__value| {
                    #[expect(unused_mut, reason = "a property body may rebind its inputs or leave them be")]
                    let ($(mut $arg,)+) = ::std::clone::Clone::clone(__value);
                    $body
                    ::std::result::Result::Ok(())
                });
        }
        $crate::__prop_fns! { $cases; $($rest)* }
    };
}

/// `assert!` for property bodies: fails the case (and shrinks) instead of
/// aborting the whole run.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err(format!(
                "assertion failed at {}:{}: {}",
                file!(), line!(), stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(format!(
                "assertion failed at {}:{}: {}: {}",
                file!(), line!(), stringify!($cond), format!($($fmt)+)
            ));
        }
    };
}

/// `assert_eq!` for property bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if !(*__a == *__b) {
            return ::std::result::Result::Err(format!(
                "assertion failed at {}:{}: {} == {}\n  left: {:?}\n right: {:?}",
                file!(), line!(), stringify!($a), stringify!($b), __a, __b
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if !(*__a == *__b) {
            return ::std::result::Result::Err(format!(
                "assertion failed at {}:{}: {} == {}: {}\n  left: {:?}\n right: {:?}",
                file!(), line!(), stringify!($a), stringify!($b), format!($($fmt)+), __a, __b
            ));
        }
    }};
}

/// `assert_ne!` for property bodies.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if *__a == *__b {
            return ::std::result::Result::Err(format!(
                "assertion failed at {}:{}: {} != {}\n  both: {:?}",
                file!(), line!(), stringify!($a), stringify!($b), __a
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if *__a == *__b {
            return ::std::result::Result::Err(format!(
                "assertion failed at {}:{}: {} != {}: {}\n  both: {:?}",
                file!(), line!(), stringify!($a), stringify!($b), format!($($fmt)+), __a
            ));
        }
    }};
}

/// Skip the case (counting it as passed) when a precondition fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Ok(());
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        let g = vec_of(0u32..1000, 0..50);
        let mut a = Rng::seed_from_u64(5);
        let mut b = Rng::seed_from_u64(5);
        assert_eq!(g.generate(&mut a), g.generate(&mut b));
    }

    #[test]
    fn ranges_generate_in_bounds() {
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..500 {
            let v = (10i32..20).generate(&mut rng);
            assert!((10..20).contains(&v));
            let w = (0usize..=3).generate(&mut rng);
            assert!(w <= 3);
        }
    }

    #[test]
    fn int_shrink_moves_toward_target() {
        let candidates = shrink_int(100u32, 0);
        assert_eq!(candidates[0], 0);
        assert!(candidates.contains(&50));
        assert!(shrink_int(0u32, 0).is_empty());
        let signed = shrink_int(-100i32, 0);
        assert_eq!(signed[0], 0);
        assert!(signed.contains(&-50));
    }

    #[test]
    fn vec_shrink_truncates_first() {
        let g = vec_of(0u32..100, 0..50);
        let v: Vec<u32> = (0..40).collect();
        let shrunk = g.shrink(&v);
        assert_eq!(shrunk[0], Vec::<u32>::new());
        assert_eq!(shrunk[1].len(), 20);
        assert_eq!(shrunk[2].len(), 39);
    }

    #[test]
    fn runner_shrinks_to_minimal_counterexample() {
        // Property: all values < 10. Failure shrinks to exactly [10].
        let result = std::panic::catch_unwind(|| {
            Runner::new("shrink_to_minimal")
                .cases(256)
                .run(&vec_of(0u32..1000, 0..20), |v| {
                    if v.iter().all(|&x| x < 10) {
                        Ok(())
                    } else {
                        Err("element >= 10".to_owned())
                    }
                });
        });
        let message = panic_message(&*result.expect_err("property must fail"));
        assert!(
            message.contains("minimal failing input") && message.contains("10"),
            "{message}"
        );
        assert!(message.contains("rerun: TESTKIT_SEED="), "{message}");
    }

    #[test]
    fn runner_passes_valid_property() {
        Runner::new("always_true").cases(64).run(&(0u32..50), |v| {
            if *v < 50 {
                Ok(())
            } else {
                Err("out of range".to_owned())
            }
        });
    }

    #[test]
    fn plain_panics_are_caught_and_shrunk() {
        let result = std::panic::catch_unwind(|| {
            Runner::new("panicking_prop")
                .cases(64)
                .run(&(0u32..100), |v| {
                    assert!(*v < 1, "too big");
                    Ok(())
                });
        });
        let message = panic_message(&*result.expect_err("must fail"));
        assert!(message.contains("panic"), "{message}");
    }

    #[test]
    fn weighted_respects_weights() {
        let g = weighted(vec![(1, Just(0u32).boxed()), (9, Just(1u32).boxed())]);
        let mut rng = Rng::seed_from_u64(3);
        let ones = (0..1000).filter(|_| g.generate(&mut rng) == 1).count();
        assert!((820..980).contains(&ones), "{ones}");
    }

    #[test]
    fn select_shrinks_to_earlier_items() {
        let g = select(vec!["a", "b", "c"]);
        assert_eq!(g.shrink(&"c"), vec!["a", "b"]);
        assert!(g.shrink(&"a").is_empty());
    }

    #[test]
    fn option_shrinks_to_none() {
        let g = option_of(0u32..100);
        assert_eq!(g.shrink(&Some(50))[0], None);
        assert!(g.shrink(&None).is_empty());
    }

    #[test]
    fn tuple_generates_and_shrinks_componentwise() {
        let g = (0u32..100, full_bool());
        let mut rng = Rng::seed_from_u64(4);
        let (a, _b) = g.generate(&mut rng);
        assert!(a < 100);
        let shrunk = g.shrink(&(80, true));
        assert!(shrunk.contains(&(0, true)));
        assert!(shrunk.contains(&(80, false)));
    }

    #[test]
    fn string_gen_uses_charset() {
        let g = string_from("ab", 0..=16);
        let mut rng = Rng::seed_from_u64(6);
        for _ in 0..100 {
            let s = g.generate(&mut rng);
            assert!(s.len() <= 16 && s.chars().all(|c| c == 'a' || c == 'b'));
        }
        let shrunk = g.shrink(&"abab".to_owned());
        assert_eq!(shrunk[0], "");
    }

    #[test]
    fn seed_env_parsing() {
        assert_eq!(parse_seed("0x10"), Some(16));
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("zz"), None);
    }

    prop! {
        #![cases(64)]

        fn macro_generated_property(v in vec_of(full::<u32>(), 0..64), cut in 0usize..64) {
            let take = cut.min(v.len());
            crate::prop_assert_eq!(v[..take].len(), take);
        }
    }
}
