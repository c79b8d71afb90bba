//! Noise channels of the simulated LLM.
//!
//! Each channel reproduces a failure mode the paper reports:
//!
//! * **format noise** — "numerical data can be retrieved in different
//!   formats … we normalize every string expressing a numerical value
//!   (say, 1k) into a number" (§4): numbers render as `2,800,000`,
//!   `2.8 million`, `2800k`, …; dates as ISO, US or long form.
//! * **value perturbation** — hallucinated / imprecise stored facts; the
//!   5% relative-error acceptance rule of the evaluation (§5) interacts
//!   with the error scale chosen per model profile.
//! * **alias drift** — entity references surface in different forms ("IT"
//!   vs "ITA"), the reported cause of Galois's join failures (§5).
//! * **hallucinated entities** — fake but plausible names injected into
//!   list answers.

use crate::knowledge::FactValue;
use rand::rngs::StdRng;
use rand::Rng;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a step.
fn fnv_byte(h: u64, b: u8) -> u64 {
    (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
}

/// Folds parts into the hash, each followed by a `0xff` separator byte so
/// ("ab","c") != ("a","bc").
fn fnv_parts<'a>(h: u64, parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    parts.into_iter().fold(h, |h, part| {
        fnv_byte(part.iter().fold(h, |h, b| fnv_byte(h, *b)), 0xff)
    })
}

/// Stable FNV-1a hash used to derive per-(model, entity, attribute) seeds.
/// Written out explicitly so determinism survives toolchain upgrades.
pub fn fnv1a64(parts: &[&str]) -> u64 {
    fnv_parts(FNV_OFFSET, parts.iter().map(|part| part.as_bytes()))
}

/// Mixes a numeric seed into a part list: [`fnv1a64`] of the seed's
/// little-endian bytes as sixteen lower-case hex digits, then the parts.
/// The digits go straight into the fold, with no string built — this runs
/// once per noise draw, over whole prompts. The FNV output is passed
/// through a splitmix64 finalizer: FNV alone has poor avalanche on
/// structured keys ("City1", "City2", …), which visibly biases Bernoulli
/// draws.
pub fn seeded(seed: u64, parts: &[&str]) -> u64 {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut hex = [0u8; 16];
    for (pair, b) in hex.chunks_exact_mut(2).zip(seed.to_le_bytes()) {
        pair[0] = HEX[usize::from(b >> 4)];
        pair[1] = HEX[usize::from(b & 0xf)];
    }
    let parts = parts.iter().map(|part| part.as_bytes());
    splitmix64(fnv_parts(
        FNV_OFFSET,
        std::iter::once(&hex[..]).chain(parts),
    ))
}

/// splitmix64 finalizer (public domain, Vigna).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How a numeric value is rendered in answer text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumberStyle {
    /// `2800000`
    Plain,
    /// `2,800,000`
    Thousands,
    /// `2.8 million`
    SpelledMillions,
    /// `2800k`
    KSuffix,
    /// `about 2,800,000`
    Approximate,
}

/// Renders `v` in the given style. Integral values keep integer rendering
/// where the style allows it.
pub fn render_number(v: f64, style: NumberStyle) -> String {
    match style {
        NumberStyle::Plain => plain(v),
        NumberStyle::Thousands => thousands(v),
        NumberStyle::SpelledMillions => {
            if v.abs() >= 1_000_000.0 {
                let m = v / 1_000_000.0;
                if (m * 10.0).fract().abs() < 1e-9 {
                    format!("{m:.1} million")
                } else {
                    format!("{m:.2} million")
                }
            } else {
                plain(v)
            }
        }
        NumberStyle::KSuffix => {
            if v.abs() >= 10_000.0 && (v / 1000.0).fract() == 0.0 {
                format!("{}k", plain(v / 1000.0))
            } else {
                plain(v)
            }
        }
        NumberStyle::Approximate => format!("about {}", thousands(v)),
    }
}

fn plain(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.2}")
    }
}

fn thousands(v: f64) -> String {
    let base = plain(v);
    let (int_part, frac_part) = match base.split_once('.') {
        Some((i, f)) => (i.to_string(), Some(f.to_string())),
        None => (base, None),
    };
    let negative = int_part.starts_with('-');
    let digits: Vec<char> = int_part.trim_start_matches('-').chars().collect();
    let mut grouped = String::new();
    for (i, c) in digits.iter().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            grouped.push(',');
        }
        grouped.push(*c);
    }
    let mut out = String::new();
    if negative {
        out.push('-');
    }
    out.push_str(&grouped);
    if let Some(f) = frac_part {
        out.push('.');
        out.push_str(&f);
    }
    out
}

/// How a date is rendered in answer text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DateStyle {
    /// `1961-05-08`
    Iso,
    /// `05/08/1961`
    Us,
    /// `May 8, 1961`
    Long,
}

const MONTHS: [&str; 12] = [
    "January",
    "February",
    "March",
    "April",
    "May",
    "June",
    "July",
    "August",
    "September",
    "October",
    "November",
    "December",
];

/// Renders a date in the given style.
pub fn render_date(year: i32, month: u8, day: u8, style: DateStyle) -> String {
    match style {
        DateStyle::Iso => format!("{year:04}-{month:02}-{day:02}"),
        DateStyle::Us => format!("{month:02}/{day:02}/{year:04}"),
        DateStyle::Long => format!(
            "{} {day}, {year}",
            MONTHS[(month.clamp(1, 12) - 1) as usize]
        ),
    }
}

/// Picks a number style with `noise` probability of a non-plain format.
pub fn pick_number_style(rng: &mut StdRng, noise: f64) -> NumberStyle {
    if rng.gen::<f64>() >= noise {
        return NumberStyle::Plain;
    }
    match rng.gen_range(0..4) {
        0 => NumberStyle::Thousands,
        1 => NumberStyle::SpelledMillions,
        2 => NumberStyle::KSuffix,
        _ => NumberStyle::Approximate,
    }
}

/// Picks a date style with `noise` probability of a non-ISO format.
pub fn pick_date_style(rng: &mut StdRng, noise: f64) -> DateStyle {
    if rng.gen::<f64>() >= noise {
        DateStyle::Iso
    } else if rng.gen::<bool>() {
        DateStyle::Us
    } else {
        DateStyle::Long
    }
}

/// Multiplicatively perturbs a numeric value by up to `rel_err` (uniform).
/// Integral inputs stay integral, matching how models misremember rounded
/// figures rather than produce fractional populations.
pub fn perturb_number(v: f64, rel_err: f64, rng: &mut StdRng) -> f64 {
    if rel_err <= 0.0 || v == 0.0 {
        return v;
    }
    let factor = 1.0 + rng.gen_range(-rel_err..rel_err);
    let out = v * factor;
    if v.fract() == 0.0 {
        out.round()
    } else {
        out
    }
}

/// Shifts a date by up to `max_days` days in either direction via its
/// year/month/day parts (approximate calendar arithmetic is fine: the
/// result only needs to be a *different valid-looking* date).
pub fn perturb_date(
    year: i32,
    month: u8,
    day: u8,
    max_days: i64,
    rng: &mut StdRng,
) -> (i32, u8, u8) {
    if max_days == 0 {
        return (year, month, day);
    }
    let shift = rng.gen_range(-max_days..=max_days);
    let mut d = i64::from(day) + shift;
    let mut m = i64::from(month);
    let mut y = i64::from(year);
    while d < 1 {
        m -= 1;
        if m < 1 {
            m = 12;
            y -= 1;
        }
        d += 28;
    }
    while d > 28 {
        d -= 28;
        m += 1;
        if m > 12 {
            m = 1;
            y += 1;
        }
    }
    (y as i32, m as u8, d as u8)
}

/// Generates a plausible-but-fake entity name (hallucination channel).
pub fn fake_name(rng: &mut StdRng) -> String {
    const STARTS: [&str; 10] = [
        "Bel", "Mar", "Tor", "Kal", "Ver", "San", "Nor", "Lan", "Gro", "Por",
    ];
    const MIDS: [&str; 8] = ["a", "o", "e", "ar", "en", "il", "ov", "um"];
    const ENDS: [&str; 10] = [
        "ville", "burg", "ton", "grad", "mouth", "ford", "stad", "field", "port", "ia",
    ];
    format!(
        "{}{}{}",
        STARTS[rng.gen_range(0..STARTS.len())],
        MIDS[rng.gen_range(0..MIDS.len())],
        ENDS[rng.gen_range(0..ENDS.len())]
    )
}

/// Renders a fact value with the given noise dials.
pub fn render_fact(
    value: &FactValue,
    rng: &mut StdRng,
    format_noise: f64,
    resolve_entity: impl Fn(&FactValue) -> Option<String>,
) -> String {
    match value {
        FactValue::Text(s) => s.clone(),
        FactValue::Number(n) => render_number(*n, pick_number_style(rng, format_noise)),
        FactValue::Date { year, month, day } => {
            render_date(*year, *month, *day, pick_date_style(rng, format_noise))
        }
        FactValue::Entity(_) => resolve_entity(value).unwrap_or_else(|| "Unknown".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn fnv_is_stable_and_distinguishes_boundaries() {
        assert_eq!(fnv1a64(&["abc"]), fnv1a64(&["abc"]));
        assert_ne!(fnv1a64(&["ab", "c"]), fnv1a64(&["a", "bc"]));
        assert_ne!(seeded(1, &["x"]), seeded(2, &["x"]));
    }

    /// `seeded` as first written: the seed's hex string prepended to the
    /// part list, hashed by [`fnv1a64`].
    fn seeded_via_hex_string(seed: u64, parts: &[&str]) -> u64 {
        let hex: String = seed
            .to_le_bytes()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        let mut all: Vec<&str> = vec![&hex];
        all.extend_from_slice(parts);
        splitmix64(fnv1a64(&all))
    }

    proptest! {
        #[test]
        fn seeded_equals_the_hex_string_formula(
            seed in any::<u64>(),
            parts in proptest::collection::vec("[a-zA-Z0-9 :'?üж東😀\n]{0,12}", 0..6),
        ) {
            let parts: Vec<&str> = parts.iter().map(String::as_str).collect();
            prop_assert_eq!(seeded(seed, &parts), seeded_via_hex_string(seed, &parts));
        }
    }

    /// Every stable belief of every simulated model hangs off these
    /// values; pinned so neither a toolchain nor a refactor moves them
    /// silently.
    #[test]
    fn seeded_values_are_pinned() {
        let pins: [(u64, &[&str], u64); 3] = [
            (0, &[], 0x94a9_b5b3_5253_4897),
            (42, &["recall", "city", "Rome"], 0x2ff8_edc7_743d_2e66),
            (
                0xfedc_ba98_7654_3210,
                &["fetch", "", "Zürich 東京 😀"],
                0x4f58_22fc_6681_841a,
            ),
        ];
        for (seed, parts, pinned) in pins {
            assert_eq!(seeded(seed, parts), pinned, "{seed} {parts:?}");
            assert_eq!(seeded_via_hex_string(seed, parts), pinned);
        }
    }

    #[test]
    fn number_styles() {
        assert_eq!(render_number(2_800_000.0, NumberStyle::Plain), "2800000");
        assert_eq!(
            render_number(2_800_000.0, NumberStyle::Thousands),
            "2,800,000"
        );
        assert_eq!(
            render_number(2_800_000.0, NumberStyle::SpelledMillions),
            "2.8 million"
        );
        assert_eq!(render_number(500_000.0, NumberStyle::KSuffix), "500k");
        assert_eq!(
            render_number(1_234.0, NumberStyle::Approximate),
            "about 1,234"
        );
        assert_eq!(render_number(2.5, NumberStyle::Plain), "2.50");
        assert_eq!(
            render_number(-1234567.0, NumberStyle::Thousands),
            "-1,234,567"
        );
    }

    #[test]
    fn small_numbers_fall_back_to_plain() {
        assert_eq!(render_number(42.0, NumberStyle::SpelledMillions), "42");
        assert_eq!(render_number(42.0, NumberStyle::KSuffix), "42");
    }

    #[test]
    fn date_styles() {
        assert_eq!(render_date(1961, 5, 8, DateStyle::Iso), "1961-05-08");
        assert_eq!(render_date(1961, 5, 8, DateStyle::Us), "05/08/1961");
        assert_eq!(render_date(1961, 5, 8, DateStyle::Long), "May 8, 1961");
    }

    #[test]
    fn perturbation_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let v = perturb_number(1000.0, 0.05, &mut rng);
            assert!((v - 1000.0).abs() <= 50.0 + 1.0, "{v}");
            assert_eq!(v.fract(), 0.0);
        }
        assert_eq!(perturb_number(1000.0, 0.0, &mut rng), 1000.0);
    }

    #[test]
    fn perturbed_dates_are_plausible() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let (y, m, d) = perturb_date(1961, 5, 8, 400, &mut rng);
            assert!((1..=12).contains(&m));
            assert!((1..=28).contains(&d));
            assert!((1959..=1963).contains(&y));
        }
    }

    #[test]
    fn fake_names_are_nonempty_and_vary() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = fake_name(&mut rng);
        let b = fake_name(&mut rng);
        assert!(!a.is_empty());
        assert_ne!(a, b);
    }

    #[test]
    fn zero_noise_keeps_plain_styles() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            assert_eq!(pick_number_style(&mut rng, 0.0), NumberStyle::Plain);
            assert_eq!(pick_date_style(&mut rng, 0.0), DateStyle::Iso);
        }
    }
}
