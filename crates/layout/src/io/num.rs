//! Number text for the board format: the bytes `Display` writes, faster.
//!
//! [`push_f64`] appends exactly what `format!("{v}")` gives for an `f64`:
//! the shortest decimal that reads back to the same bits (closest to the
//! value among the shortest, ties away from zero), laid out with no
//! exponent — `56` for 56.0, `0.001`, `-0` for −0.0. The digits come from
//! Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020):
//! three 64×128-bit products against a power of ten decide which of at
//! most four decimal candidates lies in the value's rounding interval.
//! NaN, infinities, subnormals and numbers whose layout would run past
//! [`WINDOW`] bytes (1e40 and up, or small values with more than about
//! twenty leading zeros) are handed to `Display` itself, which is also
//! the oracle the tests hold this to.

/// Longest number layout written here; longer ones go to `Display`.
const WINDOW: usize = 40;

/// Decimal exponents `k` the normal doubles need: `floor(q·log10 2)` over
/// their binary exponents `q ∈ [-1074, 971]`.
const K_MIN: i32 = -324;
const K_MAX: i32 = 292;

/// Limbs of the scratch big integers the power table is computed from:
/// 10^324 and `2^1151 / 10^292` (the widest values) both fit in 1152 bits.
const LIMBS: usize = 18;

type Big = [u64; LIMBS];

/// `G[k - K_MIN]` is `floor(10^-k · 2^-r) + 1`, with `r` chosen so the
/// value lies in `[2^125, 2^126)`: a 126-bit over-approximation of
/// `10^-k`, normalized. Evaluated at compile time.
static G: [u128; (K_MAX - K_MIN + 1) as usize] = pow10_table();

const fn pow10_table() -> [u128; (K_MAX - K_MIN + 1) as usize] {
    let mut g = [0u128; (K_MAX - K_MIN + 1) as usize];
    // k ≤ 0: the integer 10^-k, exactly.
    let mut p: Big = [0; LIMBS];
    p[0] = 1;
    let mut k = 0;
    while k >= K_MIN {
        g[(k - K_MIN) as usize] = top126(&p) + 1;
        mul10(&mut p);
        k -= 1;
    }
    // k > 0: floor(2^1151 / 10^k), one exact division by ten at a time;
    // its top 126 bits are floor(2^-r / 10^k).
    let mut x: Big = [0; LIMBS];
    x[LIMBS - 1] = 1 << 63;
    let mut k = 1;
    while k <= K_MAX {
        div10(&mut x);
        g[(k - K_MIN) as usize] = top126(&x) + 1;
        k += 1;
    }
    g
}

/// The 126 leading bits of `x` (a nonzero value), truncated.
const fn top126(x: &Big) -> u128 {
    let mut top = LIMBS - 1;
    while x[top] == 0 {
        top -= 1;
    }
    let bits = top as u32 * 64 + 64 - x[top].leading_zeros();
    if bits <= 126 {
        ((x[0] as u128) | (x[1] as u128) << 64) << (126 - bits)
    } else {
        let shift = bits - 126;
        let (limb, bit) = ((shift / 64) as usize, shift % 64);
        let mut v = (x[limb] as u128) >> bit | (x[limb + 1] as u128) << (64 - bit);
        if bit > 0 && limb + 2 < LIMBS {
            v |= (x[limb + 2] as u128) << (128 - bit);
        }
        v & ((1 << 126) - 1)
    }
}

const fn mul10(x: &mut Big) {
    let mut carry = 0u128;
    let mut i = 0;
    while i < LIMBS {
        let p = x[i] as u128 * 10 + carry;
        x[i] = p as u64;
        carry = p >> 64;
        i += 1;
    }
}

const fn div10(x: &mut Big) {
    let mut rem = 0u128;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let cur = rem << 64 | x[i] as u128;
        x[i] = (cur / 10) as u64;
        rem = cur % 10;
    }
}

/// `floor(q · log10 2)`, exact for |q| ≤ 5456721.
fn flog10_pow2(q: i32) -> i32 {
    ((q as i64 * 661_971_961_083) >> 41) as i32
}

/// `floor(log10(3/4 · 2^q))`, exact for |q| ≤ 5456721.
fn flog10_three_quarters_pow2(q: i32) -> i32 {
    ((q as i64 * 661_971_961_083 - 274_743_187_321) >> 41) as i32
}

/// `floor(e · log2 10)`, exact for |e| ≤ 1838394.
fn flog2_pow10(e: i32) -> i32 {
    ((e as i64 * 913_124_641_741) >> 38) as i32
}

/// `g · cp / 2^127` rounded to odd: the floor, with its last bit set when
/// the discarded fraction (to 63 bits) is nonzero.
fn round_to_odd(g: u128, cp: u64) -> u64 {
    let lo = (g as u64 as u128) * cp as u128;
    let hi = (g >> 64) * cp as u128;
    let mid = hi + (lo >> 64);
    (mid >> 63) as u64 | ((mid as u64) << 1 != 0) as u64
}

/// The shortest decimal `f · 10^e` that reads back as the positive normal
/// double with biased exponent `biased` and fraction bits `t`.
fn shortest(biased: i32, t: u64) -> (u64, i32) {
    let q = biased - 1075;
    let c = t | 1 << 52;
    // An integer below 2^53 is its own shortest decimal.
    if (-52..0).contains(&q) && c.trailing_zeros() >= q.unsigned_abs() {
        return (c >> -q, 0);
    }
    // The rounding interval, in units of 2^q / 4: [cbl, cbr] around cb,
    // closed when c is even (round-half-even parsing lands there too).
    // At a power of two the interval below is half as wide.
    let out = c & 1;
    let cb = c << 2;
    let cbr = cb + 2;
    let (cbl, k) = if t != 0 || biased == 1 {
        (cb - 2, flog10_pow2(q))
    } else {
        (cb - 1, flog10_three_quarters_pow2(q))
    };
    let h = q + flog2_pow10(-k) + 2;
    let g = G[(k - K_MIN) as usize];
    // v, and the interval ends, in units of 10^k / 4.
    let vb = round_to_odd(g, cb << h);
    let vbl = round_to_odd(g, cbl << h);
    let vbr = round_to_odd(g, cbr << h);
    let s = vb >> 2;
    let t = s + 1;
    // s ≥ 2^52 for a normal double, so a one-digit-shorter candidate
    // (a multiple of 10^(k+1)) can exist; at most one lies in the
    // interval, and it wins if it does. Otherwise s·10^k or t·10^k: the
    // one inside, else the closer. Schubfach breaks an exact tie to even;
    // `Display` rounds it up. Selected without branches: which case
    // applies is a coin flip for arbitrary coordinates.
    let sp10 = s / 10 * 10;
    let tp10 = sp10 + 10;
    let upin = vbl + out <= sp10 << 2;
    let wpin = (tp10 << 2) + out <= vbr;
    let uin = vbl + out <= s << 2;
    let win = (t << 2) + out <= vbr;
    let closer = if vb < (s << 2) + 2 { s } else { t };
    let inside = if uin != win {
        if uin {
            s
        } else {
            t
        }
    } else {
        closer
    };
    let f = if upin != wpin {
        if upin {
            sp10
        } else {
            tp10
        }
    } else {
        inside
    };
    (f, k)
}

/// Appends `v` exactly as `format!("{v}")` writes it.
pub(super) fn push_f64(out: &mut Vec<u8>, v: f64) {
    let bits = v.to_bits();
    let biased = (bits >> 52 & 0x7ff) as i32;
    let negative = bits >> 63 != 0;
    if bits << 1 == 0 {
        out.extend_from_slice(if negative { b"-0" } else { b"0" });
        return;
    }
    if biased == 0 || biased == 0x7ff {
        return push_display(out, v);
    }
    let (f, e) = shortest(biased, bits & ((1 << 52) - 1));
    let before = out.len();
    if negative {
        out.push(b'-');
    }
    // Digits go left-aligned into a window of '0's, then the window is
    // laid out in place and cut to length.
    let start = out.len();
    out.extend_from_slice(&[b'0'; WINDOW]);
    let w = &mut out[start..];
    if e == 0 {
        let n = f.ilog10() as usize + 1;
        put_digits(w, n, f);
        out.truncate(start + n);
        return;
    }
    // Off the integer path, f has 16 or 17 digits. A fraction carries no
    // trailing zeros: count them among the last 16 digits at once.
    let n = 16 + i32::from(f >= 10_u64.pow(16));
    put_digits(w, n as usize, f);
    let mut tail = [0; 16];
    tail.copy_from_slice(&w[n as usize - 16..n as usize]);
    let zeros = (u128::from_le_bytes(tail) ^ u128::from_le_bytes([b'0'; 16])).leading_zeros() / 8;
    let drop = (zeros as i32).min(-e).max(0);
    let (n, e) = (n - drop, e + drop);
    let point = n + e; // digits before the decimal point
    let len = if e >= 0 {
        point
    } else if point > 0 {
        n + 1
    } else {
        2 - point + n
    };
    if len > WINDOW as i32 {
        out.truncate(before);
        return push_display(out, v);
    }
    if e < 0 && point > 0 {
        // At most 16 fraction digits follow `point` (n ≤ 17): shift them
        // one place right to open the slot for '.'.
        let p = point as usize;
        w.copy_within(p..p + 16, p + 1);
        w[p] = b'.';
    } else if e < 0 {
        // `0.` and -point zeros before the digits.
        let (n, z) = (n as usize, (2 - point) as usize);
        let mut digits = [0; 17];
        digits[..n].copy_from_slice(&w[..n]);
        w[..z].fill(b'0');
        w[1] = b'.';
        w[z..z + n].copy_from_slice(&digits[..n]);
    }
    out.truncate(start + len as usize);
}

#[cold]
#[inline(never)]
fn push_display(out: &mut Vec<u8>, v: f64) {
    use std::io::Write as _;
    // Writing to a `Vec` cannot fail.
    let _ = write!(out, "{v}");
}

/// Appends the decimal digits of `v`.
pub(super) fn push_u64(out: &mut Vec<u8>, v: u64) {
    let n = v.checked_ilog10().map_or(1, |l| l as usize + 1);
    let start = out.len();
    out.extend_from_slice(&[b'0'; 20]);
    put_digits(&mut out[start..], n, v);
    out.truncate(start + n);
}

/// `"00" "01" … "99"`.
const PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Writes the digits of `f` so the last lands at `w[end - 1]`.
fn put_digits(w: &mut [u8], mut end: usize, mut f: u64) {
    let pair = |w: &mut [u8], at: usize, d: u32| {
        let d = d as usize * 2;
        w[at..at + 2].copy_from_slice(&PAIRS[d..d + 2]);
    };
    // Eight digits per step, in independent 32-bit halves.
    while f >= 100_000_000 {
        let low = (f % 100_000_000) as u32;
        f /= 100_000_000;
        let (a, b) = (low / 10_000, low % 10_000);
        pair(w, end - 2, b % 100);
        pair(w, end - 4, b / 100);
        pair(w, end - 6, a % 100);
        pair(w, end - 8, a / 100);
        end -= 8;
    }
    let mut f = f as u32;
    while f >= 100 {
        pair(w, end - 2, f % 100);
        f /= 100;
        end -= 2;
    }
    if f >= 10 {
        pair(w, end - 2, f);
    } else {
        w[end - 1] = b'0' + f as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn text(v: f64) -> String {
        let mut out = Vec::new();
        push_f64(&mut out, v);
        String::from_utf8(out).expect("ASCII")
    }

    #[track_caller]
    fn same(v: f64) {
        assert_eq!(text(v), v.to_string(), "bits {:#018x}", v.to_bits());
    }

    #[test]
    fn log_approximations_are_exact_over_the_double_range() {
        // f64 logs are accurate to ~1e-13 here and no product lands that
        // close to an integer except at 0, which is exact.
        for q in -1100..=1100 {
            let l = f64::from(q) * 2f64.log10();
            assert_eq!(flog10_pow2(q), l.floor() as i32, "q={q}");
            let l = l + 0.75f64.log10();
            assert_eq!(flog10_three_quarters_pow2(q), l.floor() as i32, "q={q}");
        }
        for e in -400..=400 {
            let l = f64::from(e) * 10f64.log2();
            assert_eq!(flog2_pow10(e), l.floor() as i32, "e={e}");
        }
    }

    #[test]
    fn power_table_entries_are_normalized() {
        // Every entry is normalized to 126 bits; spot check the first
        // powers either side of 10^0.
        for &g in &G {
            assert!(g >> 125 == 1, "{g:#x}");
        }
        assert_eq!(G[(0 - K_MIN) as usize], (1 << 125) + 1);
        assert_eq!(G[(-1 - K_MIN) as usize], (10 << 122) + 1);
        // k = 1: 10^-1 · 2^129 = 2^128 / 5, whose floor is u128::MAX / 5
        // because 5 divides 2^128 - 1.
        assert_eq!(G[(1 - K_MIN) as usize], u128::MAX / 5 + 1);
    }

    #[test]
    fn edge_classes_match_display() {
        let mut cases = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            56.0,
            0.1,
            0.2,
            0.3,
            1.0 / 3.0,
            2.0 / 3.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MIN_POSITIVE * 2.0,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            9_007_199_254_740_993.0,
            1e15,
            1e16,
            1e17,
            1e21,
            1e22,
            1e23,
            5e-324,
            1e-5,
            1e-6,
            1e-7,
            123.456,
            1234.5678,
            0.000_123_4,
            197.212_298_772_577_98,
            1_533.865_721_432_609,
            -13.635_084_269_215_664,
        ];
        for i in -1074..=1023 {
            cases.push(2f64.powi(i));
            cases.push(-(2f64.powi(i)) * 3.0);
        }
        for i in -330..=310 {
            cases.push(format!("1e{i}").parse().expect("literal"));
            cases.push(format!("9.999999999999999e{i}").parse().expect("literal"));
        }
        // Integers up to 2^53 and just past it.
        for i in 0..=2000u64 {
            cases.push(i as f64);
            cases.push((1u64 << 53) as f64 - i as f64);
            cases.push(((1u64 << 53) + 2 * i) as f64);
        }
        // Neighbours of 1e-5 and 1e16, and their spacing's worth either way.
        for base in [1e-5, 1e16, 1e-21, 1e40, 1e-20, 1e39] {
            let b = f64::to_bits(base);
            for d in 0..64 {
                cases.push(f64::from_bits(b + d));
                cases.push(f64::from_bits(b - d));
            }
        }
        for v in cases {
            same(v);
        }
    }

    #[test]
    fn exact_ties_round_up_like_display() {
        // m / 2^j with an odd 53-bit m sits exactly between two shortest
        // candidates for several j; `Display` takes the upper one.
        let mut rng = StdRng::seed_from_u64(0x71e5);
        for j in 1..=20 {
            for _ in 0..200 {
                let m = (rng.next_u64() >> 11) | 1 | 1 << 52;
                same(m as f64 / f64::from(1u32 << j));
            }
        }
        // 2^50 + 1/4: between …624.2 and …624.3.
        assert_eq!(text(((1u64 << 52) + 1) as f64 / 4.0), "1125899906842624.3");
    }

    #[test]
    fn closed_interval_ends_are_candidates_for_even_significands() {
        // Just above 2^54 the spacing is 4, and the end of an even
        // significand's interval can be the only multiple of ten in it.
        let mut v = (1u64 << 54) as f64;
        for _ in 0..4000 {
            same(v);
            v = f64::from_bits(v.to_bits() + 1);
        }
    }

    /// Random bit patterns plus coordinate-shaped values.
    fn sweep(seed: u64, n: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let r = rng.next_u64();
            let v = match i % 4 {
                0 => f64::from_bits(r),
                // Normal doubles within ±2^70.
                1 => f64::from_bits(r & ((1 << 52) - 1) | (953 + r % 141) << 52),
                // Millimetre coordinates with up to 6 decimals.
                2 => (r % 10_000_000_000) as f64 / 1e6 - 5e3,
                // 17-significant-digit coordinates.
                _ => (r >> 11) as f64 / (1u64 << 53) as f64 * 2000.0,
            };
            same(v);
        }
    }

    #[test]
    fn seeded_sweep_matches_display() {
        sweep(1, 100_000);
    }

    /// Release sweep: `cargo test --release -p meander-layout io:: --
    /// --include-ignored`.
    #[test]
    #[ignore = "10^7 values; run in release"]
    fn release_sweep_matches_display() {
        sweep(2, 10_000_000);
    }

    #[test]
    fn integers_match_display() {
        let mut out = Vec::new();
        for v in [0, 1, 9, 10, 99, 100, 12_345_678, 123_456_789, u64::MAX] {
            out.clear();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string().as_bytes());
        }
    }
}
