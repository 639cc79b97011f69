//! The window scan of an exponentiation allocates nothing per modular
//! product: every product runs through one reused workspace, so a
//! 1024-bit exponent allocates exactly as often as a 64-bit one.
//!
//! Allocations are counted per thread by a counting global allocator,
//! so tests running in parallel do not disturb the count.

use mpint::Natural;
use pubkey::modexp::{mod_exp, ExpCache};
use pubkey::ops::NativeMpn;
use pubkey::space::{ModExpConfig, MulAlgo, Radix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A thread being torn down has no counter left; its allocations
    // are not the test's.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// The system allocator, counting allocations and reallocations.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the count is a
// thread-local `Cell` with a const initializer and no destructor, so
// counting never allocates or reenters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `base^exp mod m` under `cfg` on a fresh provider and cache, with the
/// number of allocations the call made on this thread.
fn counted_mod_exp(
    base: &Natural,
    exp: &Natural,
    m: &Natural,
    cfg: &ModExpConfig,
) -> (Natural, u64) {
    let mut ops = NativeMpn::new();
    let mut cache = ExpCache::new();
    let before = ALLOCATIONS.with(Cell::get);
    let out = mod_exp(&mut ops, base, exp, m, cfg, &mut cache).expect("odd modulus");
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn exponent_length_does_not_change_the_allocation_count() {
    let mut rng = StdRng::seed_from_u64(0x5CA7);
    let mut m = Natural::random_bits(&mut rng, 128);
    if m.is_even() {
        m = &m + &Natural::one();
    }
    let base = Natural::random_below(&mut rng, &m);
    let short = Natural::random_bits(&mut rng, 64);
    let long = Natural::random_bits(&mut rng, 1024);
    for mul in MulAlgo::ALL {
        for radix in Radix::ALL {
            let cfg = ModExpConfig {
                mul,
                radix,
                window: 3,
                ..ModExpConfig::baseline()
            };
            let (short_out, short_allocs) = counted_mod_exp(&base, &short, &m, &cfg);
            let (long_out, long_allocs) = counted_mod_exp(&base, &long, &m, &cfg);
            assert_eq!(short_out, base.pow_mod(&short, &m), "{cfg}");
            assert_eq!(long_out, base.pow_mod(&long, &m), "{cfg}");
            assert_eq!(
                long_allocs, short_allocs,
                "{cfg}: a 1024-bit exponent allocates {long_allocs} times, a 64-bit one {short_allocs}"
            );
        }
    }
}
