//! The JSON float writer prints exactly what `{:?}` prints, and the text
//! parses back to the same bits.
//!
//! `serde_json::write_f64` replaced `write!(out, "{x:?}")` on every float
//! the wire protocol, journals and checkpoints carry, so any byte it
//! changes would change a response, a record or a file.  It is checked
//! here on a million seeded bit patterns and on every boundary class of
//! the shortest round-trip algorithm and of the `{:?}` layout.

/// Asserts the writer's text for `x` equals `{x:?}` and parses back to
/// `x`'s bits (through `str::parse` and through the JSON parser).
fn check(x: f64) {
    let expected = format!("{x:?}");
    let mut text = String::new();
    serde_json::write_f64(&mut text, x);
    assert_eq!(text, expected, "bits {:#018x}", x.to_bits());
    let back: f64 = text.parse().expect("writer text parses");
    assert_eq!(back.to_bits(), x.to_bits(), "{text} did not round-trip");
    let json: f64 = serde_json::from_str(&text).expect("writer text is JSON");
    assert_eq!(json.to_bits(), x.to_bits(), "{text} did not round-trip through JSON");
}

/// `x`, its negation and both neighbours of each.
fn check_around(x: f64) {
    for y in [x, -x] {
        for z in [y.next_down(), y, y.next_up()] {
            if z.is_finite() {
                check(z);
            }
        }
    }
}

/// SplitMix64: a seeded stream of 64-bit patterns.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[test]
fn a_million_random_bit_patterns_print_like_debug() {
    let mut rng = SplitMix(0x5eed_f10a_7000_0001);
    let mut checked = 0;
    while checked < 1_000_000 {
        let x = f64::from_bits(rng.next());
        if x.is_finite() {
            check(x);
            checked += 1;
        }
    }
}

#[test]
fn every_exponent_prints_like_debug() {
    // Uniform bit patterns hit each of the 2046 exponents ~500 times; this
    // walks all of them, with the significand's extremes (including the
    // power of two, whose rounding interval is lopsided) and random ones.
    let mut rng = SplitMix(0x5eed_e000_0000_0002);
    for exponent in 0..2047u64 {
        let significands =
            [0, 1, 2, 3, (1 << 52) - 1, (1 << 52) - 2, 1 << 51, (1 << 51) + 1, (1 << 51) - 1];
        for t in significands.into_iter().chain((0..64).map(|_| rng.next() & ((1 << 52) - 1))) {
            check_around(f64::from_bits(exponent << 52 | t));
        }
    }
}

#[test]
fn zeros_and_subnormals_print_like_debug() {
    check(0.0);
    check(-0.0);
    assert_eq!(format!("{:?}", -0.0), "-0.0");
    check(5e-324);
    // The smallest subnormals have the shortest decimals with the fewest
    // digits, where the digit search is most constrained.
    for t in 1..=20_000u64 {
        check_around(f64::from_bits(t));
    }
    // The top of the subnormal range, up to the first normal.
    for t in (1u64 << 52) - 20_000..(1 << 52) {
        check_around(f64::from_bits(t));
    }
}

#[test]
fn extremes_and_powers_of_ten_print_like_debug() {
    for x in [f64::MIN_POSITIVE, f64::MAX, f64::MIN, f64::EPSILON, 1.0] {
        check_around(x);
    }
    for k in -323..=308 {
        let x: f64 = format!("1e{k}").parse().unwrap();
        check_around(x);
        // A few ulps either side, where the shortest decimal is often the
        // power of ten itself or one digit longer.
        let mut below = x;
        let mut above = x;
        for _ in 0..8 {
            below = below.next_down();
            above = above.next_up();
            check_around(below);
            check_around(above);
        }
    }
}

#[test]
fn both_sides_of_the_layout_switches_print_like_debug() {
    // Positional for 1e-4 <= |x| < 1e16, exponential outside.
    for edge in [1e-4, 1e16] {
        let mut below = edge;
        let mut above = edge;
        check_around(edge);
        for _ in 0..1000 {
            below = below.next_down();
            above = above.next_up();
            check_around(below);
            check_around(above);
        }
    }
    assert_eq!(format!("{:?}", 1e16), "1e16");
    assert_eq!(format!("{:?}", 1e-4), "0.0001");
}

#[test]
fn integers_near_two_to_the_53_print_like_debug() {
    // Past 2^53 integers stop being exact, and just below it the spacing
    // is a fraction whose midpoints are the rounding ties of the digits.
    let two53 = 9_007_199_254_740_992u64;
    for n in two53 - 5000..two53 + 5000 {
        check_around(n as f64);
    }
    for x in [2f64.powi(50), 2f64.powi(51), 2f64.powi(52), 2f64.powi(53), 2f64.powi(54)] {
        let mut y = x;
        for _ in 0..5000 {
            check(y);
            y = y.next_up();
        }
    }
}
