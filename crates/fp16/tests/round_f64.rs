//! `F16::round_f64` against the bit-level conversion it shortcuts, and
//! single-rounding binary16 arithmetic (compute in `f64`, round once)
//! against the widening `F16` operators.

use prescaler_fp16::F16;

/// Asserts `F16::round_f64(x)` is bit-identical to `from_f64 → to_f64`.
fn assert_rounds_like_from_f64(x: f64) {
    let got = F16::round_f64(x);
    let want = F16::from_f64(x).to_f64();
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "x = {x:e} ({:#018x}): got {got:e}, want {want:e}",
        x.to_bits()
    );
}

/// SplitMix64: a seeded, dependency-free bit source.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn boundary_values_round_like_from_f64() {
    let p = |e: i32| 2f64.powi(e);
    let cases = [
        0.0,
        p(-25),          // half the smallest subnormal: ties to zero
        3.0 * p(-26),    // three quarters of it: rounds up
        p(-24),          // smallest subnormal
        p(-14) - p(-25), // midpoint of the largest subnormal and 2^-14
        p(-14),          // smallest normal
        1.0 + p(-11),    // tie between 1 and 1 + 2^-10: to even
        2049.0,
        65504.0,
        65519.99,
        65520.0, // overflow threshold: ties to infinity
        65536.0,
        1e300,
        f64::MAX,
        f64::INFINITY,
        f64::MIN_POSITIVE,
        f64::from_bits(1),                     // smallest f64 subnormal
        f64::from_bits(0x000F_FFFF_FFFF_FFFF), // largest f64 subnormal
        f64::NAN,
        f64::from_bits(0x7FF0_0000_0000_0001), // signalling, low payload
        f64::from_bits(0x7FF4_0000_0000_0000), // signalling, high payload
        f64::from_bits(0x7FF8_0000_0000_1234),
        f64::from_bits(0x7FFF_FFFF_FFFF_FFFF),
    ];
    for x in cases {
        assert_rounds_like_from_f64(x);
        assert_rounds_like_from_f64(-x);
    }
}

#[test]
fn every_binary16_value_midpoint_and_neighbour_rounds_like_from_f64() {
    for bits in 0..=0x7BFFu16 {
        let x = F16::from_bits(bits).to_f64();
        let next = F16::from_bits(bits + 1).to_f64();
        let mid = (x + next) / 2.0; // exact in f64
        for v in [
            x,
            mid,
            f64::from_bits(mid.to_bits() - 1),
            f64::from_bits(mid.to_bits() + 1),
        ] {
            assert_rounds_like_from_f64(v);
            assert_rounds_like_from_f64(-v);
        }
    }
}

#[test]
fn seeded_random_values_round_like_from_f64() {
    let mut state = 0x5EED_F16F_u64;
    for _ in 0..1_000_000 {
        // Arbitrary bit patterns: mostly far outside binary16's range.
        assert_rounds_like_from_f64(f64::from_bits(splitmix(&mut state)));
        // Exponents across binary16's subnormal-to-overflow span.
        let r = splitmix(&mut state);
        let exp = 1023 - 30 + (r >> 58) % 48; // 2^-30 ..= 2^17
        let bits = (r & 0x8000_0000_0000_0000) | (exp << 52) | (r & 0x000F_FFFF_FFFF_FFFF);
        assert_rounds_like_from_f64(f64::from_bits(bits));
    }
}

#[test]
fn single_rounding_arithmetic_matches_the_widening_operators() {
    type Pair = (fn(F16, F16) -> F16, fn(f64, f64) -> f64);
    let ops: [Pair; 4] = [
        (|x, y| x + y, |x, y| x + y),
        (|x, y| x - y, |x, y| x - y),
        (|x, y| x * y, |x, y| x * y),
        (|x, y| x / y, |x, y| x / y),
    ];
    let specials = [
        0x0000u16, 0x8000, 0x0001, 0x03FF, 0x0400, 0x3C00, 0x7BFF, 0x7C00, 0xFC00, 0x7E00,
    ];
    let bs: Vec<F16> = (0..=0xFFFFu16)
        .step_by(257)
        .chain(specials)
        .map(F16::from_bits)
        .collect();
    for a in (0..=0xFFFFu16).map(F16::from_bits) {
        for &b in &bs {
            for (widening, exact) in ops {
                let want = widening(a, b);
                let v = exact(a.to_f64(), b.to_f64());
                // NaN results keep the widening path (payloads are
                // unspecified in `f64`); everything else rounds once.
                assert_eq!(v.is_nan(), want.is_nan(), "a={a:?} b={b:?}");
                if !v.is_nan() {
                    assert_eq!(
                        F16::round_f64(v).to_bits(),
                        want.to_f64().to_bits(),
                        "a={:#06x} b={:#06x}",
                        a.to_bits(),
                        b.to_bits()
                    );
                }
            }
        }
    }
}
