//! Deterministic name generation for the synthetic world.
//!
//! The world is fictional on purpose: the simulated LLM "knows" exactly
//! what the knowledge store contains, so using invented places avoids any
//! illusion that real-world coverage is being tested. Name shapes mimic
//! the real ones (countries, cities, people, venues) so prompts read
//! naturally.

use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;

const COUNTRY_STEMS: [&str; 18] = [
    "Vald", "Est", "Mor", "Kest", "Zan", "Thal", "Bren", "Ald", "Cor", "Dray", "Fen", "Gal",
    "Hesp", "Ilm", "Jor", "Kyr", "Lor", "Ner",
];
const COUNTRY_ENDS: [&str; 8] = ["ovia", "land", "mark", "stan", "ania", "ora", "heim", "ia"];

const CITY_STARTS: [&str; 16] = [
    "San", "Port", "New", "East", "West", "North", "South", "Fort", "Lake", "Mont", "Villa",
    "Saint", "Old", "Gran", "Bel", "Stone",
];
const CITY_CORES: [&str; 14] = [
    "brook", "haven", "field", "ridge", "dale", "wood", "mere", "ford", "gate", "crest", "fall",
    "view", "bourne", "march",
];

const FIRST_NAMES: [&str; 20] = [
    "Anna", "Boris", "Clara", "Dario", "Elena", "Felix", "Greta", "Hugo", "Iris", "Jonas", "Karla",
    "Leon", "Mira", "Nadia", "Oskar", "Petra", "Quentin", "Rosa", "Stefan", "Tessa",
];
const LAST_NAMES: [&str; 20] = [
    "Rossi", "Keller", "Novak", "Ivanov", "Berg", "Costa", "Dubois", "Eriksen", "Fischer",
    "Garcia", "Hansen", "Ito", "Jansen", "Kovacs", "Larsen", "Moreau", "Nilsson", "Orlov",
    "Petrov", "Quist",
];

const GENRES: [&str; 6] = ["rock", "pop", "jazz", "folk", "electronic", "classical"];
const PARTIES: [&str; 5] = ["Green", "Liberal", "Labour", "Unity", "Reform"];
const CONTINENTS: [&str; 4] = ["Euralia", "Meridia", "Osterra", "Zephyria"];

/// Unique-name factory over a small name space. A name is drawn as its
/// *index* in the space (`country_id`, `city_id`, …) and only the accepted
/// draw is ever formatted: scaled worlds need many times more names than a
/// space holds (6 720 people from 400 names at x40), so almost every entity
/// spends its whole retry budget on draws that are thrown away.
#[derive(Default)]
pub struct NamePool {
    /// Plain names handed out, by index.
    used: Vec<bool>,
    /// Suffixed names handed out: (index, suffix).
    suffixed: HashSet<(usize, u32)>,
}

impl NamePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws until `draw` yields an unused index, and after `tries`
    /// collisions disambiguates deterministically: fresh draws paired with
    /// a rising numeric suffix (from 2) until the pair is unused. The
    /// caller renders the index and appends `" {suffix}"` when there is one.
    pub fn unique(
        &mut self,
        rng: &mut StdRng,
        tries: usize,
        draw: impl Fn(&mut StdRng) -> usize,
    ) -> (usize, Option<u32>) {
        for _ in 0..tries {
            let id = draw(rng);
            if self.used.len() <= id {
                self.used.resize(id + 1, false);
            }
            if !std::mem::replace(&mut self.used[id], true) {
                return (id, None);
            }
        }
        let mut suffix = 2;
        loop {
            let id = draw(rng);
            if self.suffixed.insert((id, suffix)) {
                return (id, Some(suffix));
            }
            suffix += 1;
        }
    }
}

/// `name`, or `"{name} {suffix}"` for a disambiguated draw.
pub fn suffixed(name: String, suffix: Option<u32>) -> String {
    match suffix {
        Some(i) => format!("{name} {i}"),
        None => name,
    }
}

/// Draws a fictional country name's index.
pub fn country_id(rng: &mut StdRng) -> usize {
    let stem = rng.gen_range(0..COUNTRY_STEMS.len());
    stem * COUNTRY_ENDS.len() + rng.gen_range(0..COUNTRY_ENDS.len())
}

/// The country name with index `id`.
pub fn country_name(id: usize) -> String {
    let (stem, end) = (id / COUNTRY_ENDS.len(), id % COUNTRY_ENDS.len());
    format!("{}{}", COUNTRY_STEMS[stem], COUNTRY_ENDS[end])
}

/// Draws a fictional city name's index.
pub fn city_id(rng: &mut StdRng) -> usize {
    let spaced = usize::from(rng.gen_bool(0.5));
    let start = rng.gen_range(0..CITY_STARTS.len());
    let core = rng.gen_range(0..CITY_CORES.len());
    (spaced * CITY_STARTS.len() + start) * CITY_CORES.len() + core
}

/// The city name with index `id`: "Port Haven" or "Porthaven".
pub fn city_name(id: usize) -> String {
    let (rest, core) = (id / CITY_CORES.len(), CITY_CORES[id % CITY_CORES.len()]);
    let start = CITY_STARTS[rest % CITY_STARTS.len()];
    if rest >= CITY_STARTS.len() {
        format!("{start} {}", capitalize(core))
    } else {
        format!("{start}{core}")
    }
}

/// Draws a fictional person name's index.
pub fn person_id(rng: &mut StdRng) -> usize {
    let first = rng.gen_range(0..FIRST_NAMES.len());
    first * LAST_NAMES.len() + rng.gen_range(0..LAST_NAMES.len())
}

/// The person name with index `id`, with its short form ("Anna Rossi" →
/// "A. Rossi").
pub fn person_name(id: usize) -> (String, String) {
    let first = FIRST_NAMES[id / LAST_NAMES.len()];
    let last = LAST_NAMES[id % LAST_NAMES.len()];
    (
        format!("{first} {last}"),
        format!("{}. {last}", &first[..1]),
    )
}

/// A fictional person name (not necessarily unused), with its short form.
pub fn person(rng: &mut StdRng) -> (String, String) {
    person_name(person_id(rng))
}

/// Derives 2- and 3-letter codes from a country name (uppercased prefix;
/// uniqueness is the caller's concern via [`NamePool`]).
pub fn country_codes(name: &str) -> (String, String) {
    let letters: String = name
        .chars()
        .filter(|c| c.is_ascii_alphabetic())
        .collect::<String>()
        .to_ascii_uppercase();
    let take = |n: usize| letters.chars().take(n).collect::<String>();
    (take(2), take(3))
}

/// A genre for a singer.
pub fn genre(rng: &mut StdRng) -> String {
    GENRES[rng.gen_range(0..GENRES.len())].to_string()
}

/// A political party.
pub fn party(rng: &mut StdRng) -> String {
    PARTIES[rng.gen_range(0..PARTIES.len())].to_string()
}

/// A continent name.
pub fn continent(rng: &mut StdRng) -> String {
    CONTINENTS[rng.gen_range(0..CONTINENTS.len())].to_string()
}

/// All continent names (used to pick IN-list conditions).
pub fn continents() -> Vec<String> {
    CONTINENTS.iter().map(|s| s.to_string()).collect()
}

/// All genres.
pub fn genres() -> Vec<String> {
    GENRES.iter().map(|s| s.to_string()).collect()
}

/// All parties.
pub fn parties() -> Vec<String> {
    PARTIES.iter().map(|s| s.to_string()).collect()
}

/// Draws an airport code's index: three letters, read as base 26.
pub fn airport_code_id(rng: &mut StdRng) -> usize {
    (0..3).fold(0, |id, _| id * 26 + usize::from(rng.gen_range(0..26u8)))
}

/// The airport code (three uppercase letters) with index `id`.
pub fn airport_code(id: usize) -> String {
    [id / 676, id / 26 % 26, id % 26]
        .iter()
        .map(|&letter| (b'A' + letter as u8) as char)
        .collect()
}

/// An airport display name derived from its city.
pub fn airport_name(city: &str, rng: &mut StdRng) -> String {
    if rng.gen_bool(0.4) {
        format!("{city} International Airport")
    } else {
        format!("{city} Airport")
    }
}

const FESTS: [&str; 8] = [
    "Sunset Festival",
    "Harbor Sounds",
    "Echo Nights",
    "Aurora Live",
    "Riverbeat",
    "Skyline Session",
    "Velvet Stage",
    "Northern Lights Tour",
];

/// Draws the index of a concert/venue event name held in `year`.
pub fn concert_id(rng: &mut StdRng, year: i64) -> usize {
    year as usize * FESTS.len() + rng.gen_range(0..FESTS.len())
}

/// The event name with index `id`: "Echo Nights 2019".
pub fn concert_name(id: usize) -> String {
    format!("{} {}", FESTS[id % FESTS.len()], id / FESTS.len())
}

fn capitalize(s: &str) -> String {
    let mut c = s.chars();
    match c.next() {
        Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn pools_generate_unique_names() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut pool = NamePool::new();
        let mut seen = HashSet::new();
        // 600 names from a space of 448: the suffixed fallback runs.
        for _ in 0..600 {
            let (id, suffix) = pool.unique(&mut rng, 64, city_id);
            assert!(seen.insert(suffixed(city_name(id), suffix)));
        }
        assert!(seen.contains("Port Haven") || seen.contains("Porthaven"));
        assert!(seen.iter().any(|name| name.ends_with(" 2")));
    }

    #[test]
    fn person_short_form() {
        let mut rng = StdRng::seed_from_u64(2);
        let (full, short) = person(&mut rng);
        assert!(full.contains(' '));
        assert!(short.contains(". "));
        assert_eq!(&short[..1], &full[..1]);
    }

    #[test]
    fn codes_derive_from_name() {
        let (c2, c3) = country_codes("Valdovia");
        assert_eq!(c2, "VA");
        assert_eq!(c3, "VAL");
    }

    #[test]
    fn generation_is_deterministic() {
        let a: Vec<String> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..10)
                .map(|_| country_name(country_id(&mut rng)))
                .collect()
        };
        let b: Vec<String> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..10)
                .map(|_| country_name(country_id(&mut rng)))
                .collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn airport_codes_are_three_letters() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let c = airport_code(airport_code_id(&mut rng));
            assert_eq!(c.len(), 3);
            assert!(c.chars().all(|ch| ch.is_ascii_uppercase()));
        }
    }
}
