//! The synthetic world: a deterministic, seeded population of countries,
//! cities, mayors, airports, singers, concerts and employees.
//!
//! One `World` value is the single source of truth for an experiment run:
//! it is loaded *losslessly* into the relational engine (ground truth `D`)
//! and *with popularity/alias metadata* into the simulated LLM's knowledge
//! store. This mirrors the paper's setup, where Spider tables approximate
//! knowledge the LLMs have memorised from the web.

use crate::names::{self, NamePool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// A country record.
#[derive(Debug, Clone)]
pub struct Country {
    /// Canonical name (key).
    pub name: String,
    /// Two-letter code (alias slot 0).
    pub code2: String,
    /// Three-letter code (alias slot 1; also the DB-canonical code).
    pub code3: String,
    /// Continent name.
    pub continent: String,
    /// Population.
    pub population: i64,
    /// GDP in trillion credits.
    pub gdp: f64,
    /// Year of independence.
    pub independence_year: i64,
    /// Index of the capital in `World::cities`.
    pub capital: usize,
    /// Popularity in [0, 1].
    pub popularity: f64,
}

/// A city record.
#[derive(Debug, Clone)]
pub struct City {
    /// Canonical name (key).
    pub name: String,
    /// Index into `World::countries`.
    pub country: usize,
    /// Population.
    pub population: i64,
    /// Elevation in metres.
    pub elevation: i64,
    /// Index into `World::mayors`.
    pub mayor: usize,
    /// Popularity in [0, 1].
    pub popularity: f64,
}

/// A mayor record.
#[derive(Debug, Clone)]
pub struct Mayor {
    /// Full name (key).
    pub name: String,
    /// Short surface form ("A. Rossi") — alias slot 0.
    pub short: String,
    /// Birth date (year, month, day).
    pub birth: (i32, u8, u8),
    /// Year elected.
    pub election_year: i64,
    /// Party.
    pub party: String,
    /// Popularity in [0, 1] (mayors are niche entities).
    pub popularity: f64,
}

/// An airport record.
#[derive(Debug, Clone)]
pub struct Airport {
    /// IATA-style code (key; no aliases — the paper notes codes like JFK
    /// are real-world keys LLMs handle well).
    pub code: String,
    /// Display name.
    pub name: String,
    /// Index into `World::cities`.
    pub city: usize,
    /// Index into `World::countries`.
    pub country: usize,
    /// Elevation in metres.
    pub elevation: i64,
    /// Passengers per year.
    pub yearly_passengers: i64,
    /// Number of runways.
    pub runways: i64,
    /// Popularity in [0, 1].
    pub popularity: f64,
}

/// A singer record.
#[derive(Debug, Clone)]
pub struct Singer {
    /// Full name (key).
    pub name: String,
    /// Short surface form — alias slot 0.
    pub short: String,
    /// Index into `World::countries`.
    pub country: usize,
    /// Year of birth.
    pub birth_year: i64,
    /// Genre.
    pub genre: String,
    /// Net worth in million credits.
    pub net_worth: f64,
    /// Popularity in [0, 1].
    pub popularity: f64,
}

/// A concert record.
#[derive(Debug, Clone)]
pub struct Concert {
    /// Event name (key).
    pub name: String,
    /// Index into `World::singers`.
    pub singer: usize,
    /// Year held.
    pub year: i64,
    /// Attendance.
    pub attendance: i64,
    /// Index into `World::cities`.
    pub city: usize,
    /// Popularity in [0, 1].
    pub popularity: f64,
}

/// An employee record — *DB-only* data for the hybrid-querying scenario
/// (paper §1, Figure 2: the DB holds enterprise data the LLM has never
/// seen).
#[derive(Debug, Clone)]
pub struct Employee {
    /// Numeric id (key).
    pub id: i64,
    /// Name.
    pub name: String,
    /// Index into `World::countries` (stored as code3 in the table).
    pub country: usize,
    /// Salary in credits.
    pub salary: f64,
}

/// Size knobs for world generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldConfig {
    /// Number of countries.
    pub countries: usize,
    /// Number of cities.
    pub cities: usize,
    /// Number of airports.
    pub airports: usize,
    /// Number of singers.
    pub singers: usize,
    /// Number of concerts.
    pub concerts: usize,
    /// Number of (DB-only) employees.
    pub employees: usize,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            countries: 24,
            cities: 60,
            airports: 36,
            singers: 28,
            concerts: 40,
            employees: 80,
        }
    }
}

impl WorldConfig {
    /// The default world with every entity count multiplied by `scale`
    /// (clamped to ≥ 1) — the knob behind 10×/100× bench worlds.
    pub fn scaled(scale: usize) -> Self {
        let scale = scale.max(1);
        let base = WorldConfig::default();
        WorldConfig {
            countries: base.countries * scale,
            cities: base.cities * scale,
            airports: base.airports * scale,
            singers: base.singers * scale,
            concerts: base.concerts * scale,
            employees: base.employees * scale,
        }
    }
}

/// The generated world.
#[derive(Debug, Clone)]
pub struct World {
    /// Seed used for generation.
    pub seed: u64,
    /// Countries.
    pub countries: Vec<Country>,
    /// Cities (one mayor each).
    pub cities: Vec<City>,
    /// Mayors, parallel to `cities`.
    pub mayors: Vec<Mayor>,
    /// Airports.
    pub airports: Vec<Airport>,
    /// Singers.
    pub singers: Vec<Singer>,
    /// Concerts.
    pub concerts: Vec<Concert>,
    /// Employees (DB-only).
    pub employees: Vec<Employee>,
}

/// Draws a place, code or event name unused in `pool`: 64 plain draws, then
/// a numeric disambiguator.
fn unique_name(
    pool: &mut NamePool,
    rng: &mut StdRng,
    draw: impl Fn(&mut StdRng) -> usize,
    render: impl Fn(usize) -> String,
) -> String {
    let (id, suffix) = pool.unique(rng, 64, draw);
    names::suffixed(render(id), suffix)
}

/// Draws a person name unused in `pool`, appending a numeric disambiguator
/// once the (bounded) name space is exhausted — scaled worlds need more
/// people than there are first/last-name combinations.
fn unique_person(pool: &mut NamePool, rng: &mut StdRng) -> (String, String) {
    let (id, suffix) = pool.unique(rng, 512, names::person_id);
    let (full, short) = names::person_name(id);
    (
        names::suffixed(full, suffix),
        names::suffixed(short, suffix),
    )
}

/// Re-rolls the tail of a country code until it is unused in `pool`.
/// Once a prefix's letter space saturates the code goes fully random, and
/// it *grows by one letter* every further 512 attempts — large scaled
/// worlds need more codes than any fixed length offers (676 two-letter
/// codes < 2 400 countries at 100×), so termination requires widening.
/// Candidates are re-rolled in place and only the accepted one is stored:
/// past 676 countries most codes spend the whole budget on taken ones.
fn unique_code(pool: &mut HashSet<String>, rng: &mut StdRng, code: &str) -> String {
    let mut code = code.to_string();
    let base_len = code.len();
    let mut attempts = 0usize;
    while pool.contains(&code) {
        attempts += 1;
        let letter = |rng: &mut StdRng| (b'A' + rng.gen_range(0..26u8)) as char;
        if attempts <= 512 {
            // The original re-roll: keep the mnemonic prefix, vary the
            // last letter.
            code.pop();
            code.push(letter(rng));
        } else {
            code.clear();
            code.extend((0..base_len + attempts / 512).map(|_| letter(rng)));
        }
    }
    pool.insert(code.clone());
    code
}

/// Capital per country: its most popular city — the last one among equals,
/// as `Iterator::max_by` would pick — else city 0. One pass over `cities`.
fn capitals(cities: &[City], n_countries: usize) -> Vec<usize> {
    let mut best: Vec<Option<usize>> = vec![None; n_countries];
    for (i, city) in cities.iter().enumerate() {
        let slot = &mut best[city.country];
        if slot.is_none_or(|b| cities[b].popularity.total_cmp(&city.popularity).is_le()) {
            *slot = Some(i);
        }
    }
    best.into_iter().map(|b| b.unwrap_or(0)).collect()
}

impl World {
    /// Generates a world with default sizes.
    pub fn generate(seed: u64) -> World {
        Self::generate_with(seed, WorldConfig::default())
    }

    /// Generates a world `scale`× the default size (10×/100× bench
    /// worlds).
    pub fn generate_scaled(seed: u64, scale: usize) -> World {
        Self::generate_with(seed, WorldConfig::scaled(scale))
    }

    /// Generates a world with explicit sizes.
    pub fn generate_with(seed: u64, cfg: WorldConfig) -> World {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut country_pool = NamePool::new();
        let mut code_pool = HashSet::new();
        let mut city_pool = NamePool::new();
        let mut person_pool = NamePool::new();
        let mut code3s: Vec<String> = Vec::new();

        // Popularity: rank-based with jitter, so every type has a head of
        // famous entities and a long tail (drives Table 1's recall gaps).
        let popularity = |rank: usize, n: usize, rng: &mut StdRng| -> f64 {
            let base = 1.0 - (rank as f64 + 0.5) / n as f64;
            (base * 0.9 + rng.gen_range(0.0..0.1)).clamp(0.02, 0.98)
        };

        let mut countries = Vec::with_capacity(cfg.countries);
        for i in 0..cfg.countries {
            let name = unique_name(
                &mut country_pool,
                &mut rng,
                names::country_id,
                names::country_name,
            );
            let (code2, code3) = names::country_codes(&name);
            // Ensure distinct codes across countries.
            let code2 = unique_code(&mut code_pool, &mut rng, &code2);
            let code3 = unique_code(&mut code_pool, &mut rng, &code3);
            code3s.push(code3.clone());
            // Size correlates with fame: famous countries are the big,
            // rich ones. This is what makes popularity-biased recall
            // *bias* aggregates (AVG/SUM over the recalled subset drifts
            // high, MIN hides in the unpopular tail) — the paper's low
            // aggregate accuracy depends on it.
            let pop_score = popularity(i, cfg.countries, &mut rng);
            countries.push(Country {
                name,
                code2,
                code3,
                continent: names::continent(&mut rng),
                population: (10f64.powf(6.2 + 2.0 * pop_score + rng.gen_range(-0.2..0.2)) as i64
                    / 1000)
                    * 1000,
                gdp: ((0.2 + 24.0 * pop_score.powf(1.5) + rng.gen_range(-0.1..0.1)).max(0.1)
                    * 100.0)
                    .round()
                    / 100.0,
                independence_year: rng.gen_range(1800..2000),
                capital: 0, // fixed up after cities exist
                popularity: pop_score,
            });
        }

        let mut cities = Vec::with_capacity(cfg.cities);
        let mut mayors = Vec::with_capacity(cfg.cities);
        for i in 0..cfg.cities {
            let name = unique_name(&mut city_pool, &mut rng, names::city_id, names::city_name);
            let country = rng.gen_range(0..countries.len());
            let pop = popularity(i, cfg.cities, &mut rng);
            let (full, short) = unique_person(&mut person_pool, &mut rng);
            mayors.push(Mayor {
                name: full,
                short,
                birth: (
                    rng.gen_range(1945..1985),
                    rng.gen_range(1..=12),
                    rng.gen_range(1..=28),
                ),
                election_year: rng.gen_range(2014..2024),
                party: names::party(&mut rng),
                // A mayor is known roughly as well as their city, damped.
                popularity: (pop * 0.6).clamp(0.02, 0.9),
            });
            cities.push(City {
                name,
                country,
                // Big cities are famous cities (size–fame correlation).
                population: (10f64.powf(4.8 + 2.3 * pop + rng.gen_range(-0.25..0.25)) as i64
                    / 1000)
                    * 1000,
                elevation: rng.gen_range(0..2500),
                mayor: i,
                popularity: pop,
            });
        }
        for (country, capital) in countries.iter_mut().zip(capitals(&cities, cfg.countries)) {
            country.capital = capital;
        }

        let mut airport_codes = NamePool::new();
        let mut airports = Vec::with_capacity(cfg.airports);
        for i in 0..cfg.airports {
            let city = rng.gen_range(0..cities.len());
            let code = unique_name(
                &mut airport_codes,
                &mut rng,
                names::airport_code_id,
                names::airport_code,
            );
            // The first airport is always an international hub, so pattern
            // queries over airport names have non-empty ground truth on
            // every seed.
            let name = if i == 0 {
                format!("{} International Airport", cities[city].name)
            } else {
                names::airport_name(&cities[city].name, &mut rng)
            };
            let pop_score = popularity(i, cfg.airports, &mut rng);
            airports.push(Airport {
                code,
                name,
                city,
                country: cities[city].country,
                elevation: cities[city].elevation + rng.gen_range(-50..200),
                // Busy hubs are the well-known ones.
                yearly_passengers: (10f64.powf(5.7 + 2.3 * pop_score + rng.gen_range(-0.2..0.2))
                    as i64
                    / 1000)
                    * 1000,
                runways: 1 + (5.0 * pop_score).round() as i64,
                popularity: pop_score,
            });
        }

        let mut singers = Vec::with_capacity(cfg.singers);
        for i in 0..cfg.singers {
            let (full, short) = unique_person(&mut person_pool, &mut rng);
            let pop_score = popularity(i, cfg.singers, &mut rng);
            singers.push(Singer {
                name: full,
                short,
                country: rng.gen_range(0..countries.len()),
                birth_year: rng.gen_range(1950..2004),
                genre: names::genre(&mut rng),
                // Stars are rich; the tail is not.
                net_worth: ((2.0 + 480.0 * pop_score.powf(1.8) + rng.gen_range(0.0..15.0)) * 10.0)
                    .round()
                    / 10.0,
                popularity: pop_score,
            });
        }

        let mut concert_pool = NamePool::new();
        let mut concerts = Vec::with_capacity(cfg.concerts);
        for i in 0..cfg.concerts {
            let year = rng.gen_range(2015..2024);
            let name = unique_name(
                &mut concert_pool,
                &mut rng,
                |r| names::concert_id(r, year),
                names::concert_name,
            );
            let pop_score = popularity(i, cfg.concerts, &mut rng);
            concerts.push(Concert {
                name,
                singer: rng.gen_range(0..singers.len()),
                year,
                attendance: (10f64.powf(3.2 + 1.9 * pop_score + rng.gen_range(-0.15..0.15)) as i64
                    / 100)
                    * 100,
                city: rng.gen_range(0..cities.len()),
                popularity: pop_score,
            });
        }

        let mut employees = Vec::with_capacity(cfg.employees);
        for i in 0..cfg.employees {
            let (full, _) = names::person(&mut rng);
            employees.push(Employee {
                id: 1000 + i as i64,
                name: full,
                country: rng.gen_range(0..countries.len()),
                salary: (rng.gen_range(20_000.0..150_000.0f64) / 100.0).round() * 100.0,
            });
        }

        World {
            seed,
            countries,
            cities,
            mayors,
            airports,
            singers,
            concerts,
            employees,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = World::generate(42);
        let b = World::generate(42);
        assert_eq!(a.cities.len(), b.cities.len());
        assert_eq!(a.cities[0].name, b.cities[0].name);
        assert_eq!(a.countries[3].code3, b.countries[3].code3);
        assert_eq!(a.mayors[10].birth, b.mayors[10].birth);
    }

    /// Every field of every record, pinned to what the generator that
    /// scanned all cities once per country produced: the one-pass capital
    /// assignment picks the same cities and moves no RNG draw. The digest
    /// is FNV-1a over the world's `Debug` text. The x40 worlds need 6 720
    /// people from 400 names and 2 400 cities from 448, so they walk the
    /// suffix fallbacks; their digests were taken while every draw still
    /// formatted its candidate.
    #[test]
    fn worlds_match_the_per_country_scan_generator() {
        for (seed, scale, want) in [
            (1, 1, 0x5518440643adbe7d_u64),
            (1, 4, 0xe3e420fa5318abc5),
            (7, 1, 0x527797ed8d8258d5),
            (7, 4, 0x02563ac73ae36ff1),
            (42, 1, 0x0b82c9dec54ac35d),
            (42, 4, 0xdd607e47c873426f),
            (1, 40, 0x6fb61064a2d96512),
            (7, 40, 0x5a76371f83a59bdd),
            (42, 40, 0x6d96c5bce44204b3),
        ] {
            let world = World::generate_scaled(seed, scale);
            let digest = galois_llm::noise::fnv1a64(&[&format!("{world:?}")]);
            assert_eq!(digest, want, "seed {seed} at x{scale}");
        }
    }

    #[test]
    fn capital_ties_go_to_the_last_city_like_max_by() {
        let city = |country, popularity| City {
            name: String::new(),
            country,
            population: 0,
            elevation: 0,
            mayor: 0,
            popularity,
        };
        // Country 0 ties at 0.9 (cities 1 and 3), country 1 has one city,
        // country 2 none.
        let cities = [
            city(0, 0.5),
            city(0, 0.9),
            city(1, 0.1),
            city(0, 0.9),
            city(0, 0.2),
        ];
        assert_eq!(capitals(&cities, 3), [3, 2, 0]);
    }

    #[test]
    fn different_seeds_differ() {
        let a = World::generate(1);
        let b = World::generate(2);
        assert_ne!(
            a.cities.iter().map(|c| &c.name).collect::<Vec<_>>(),
            b.cities.iter().map(|c| &c.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sizes_match_config() {
        let w = World::generate_with(
            5,
            WorldConfig {
                countries: 5,
                cities: 12,
                airports: 4,
                singers: 6,
                concerts: 7,
                employees: 9,
            },
        );
        assert_eq!(w.countries.len(), 5);
        assert_eq!(w.cities.len(), 12);
        assert_eq!(w.mayors.len(), 12);
        assert_eq!(w.airports.len(), 4);
        assert_eq!(w.singers.len(), 6);
        assert_eq!(w.concerts.len(), 7);
        assert_eq!(w.employees.len(), 9);
    }

    #[test]
    fn scaled_world_multiplies_every_count() {
        let w = World::generate_scaled(42, 10);
        let base = WorldConfig::default();
        assert_eq!(w.countries.len(), base.countries * 10);
        assert_eq!(w.cities.len(), base.cities * 10);
        assert_eq!(w.airports.len(), base.airports * 10);
        assert_eq!(w.singers.len(), base.singers * 10);
        assert_eq!(w.concerts.len(), base.concerts * 10);
        assert_eq!(w.employees.len(), base.employees * 10);
        // Uniqueness survives name-space exhaustion (600 cities from a
        // ~450-name space forces the disambiguation paths).
        let unique = |v: Vec<&String>| {
            let n = v.len();
            v.into_iter()
                .collect::<std::collections::HashSet<_>>()
                .len()
                == n
        };
        assert!(unique(w.cities.iter().map(|c| &c.name).collect()));
        assert!(unique(w.mayors.iter().map(|m| &m.name).collect()));
        assert!(unique(w.singers.iter().map(|s| &s.name).collect()));
        assert!(unique(
            w.countries
                .iter()
                .flat_map(|c| [&c.code2, &c.code3])
                .collect()
        ));
    }

    #[test]
    fn code_space_saturation_terminates() {
        // 720 countries exceed the 676 two-letter codes (the regime a
        // 30×–100× world hits), so generation must widen codes rather
        // than loop forever.
        let w = World::generate_with(
            5,
            WorldConfig {
                countries: 720,
                cities: 12,
                airports: 4,
                singers: 4,
                concerts: 4,
                employees: 4,
            },
        );
        assert_eq!(w.countries.len(), 720);
        let codes: std::collections::HashSet<&String> =
            w.countries.iter().map(|c| &c.code2).collect();
        assert_eq!(codes.len(), 720);
        assert!(w.countries.iter().all(|c| c.code2.len() >= 2));
    }

    #[test]
    fn scale_one_is_the_default_world() {
        let a = World::generate(42);
        let b = World::generate_scaled(42, 1);
        assert_eq!(a.cities.len(), b.cities.len());
        assert_eq!(a.cities[7].name, b.cities[7].name);
        assert_eq!(a.countries[3].code3, b.countries[3].code3);
    }

    #[test]
    fn keys_are_unique() {
        let w = World::generate(42);
        let unique = |v: Vec<&String>| {
            let n = v.len();
            v.into_iter()
                .collect::<std::collections::HashSet<_>>()
                .len()
                == n
        };
        assert!(unique(w.countries.iter().map(|c| &c.name).collect()));
        assert!(unique(w.cities.iter().map(|c| &c.name).collect()));
        assert!(unique(w.mayors.iter().map(|m| &m.name).collect()));
        assert!(unique(w.airports.iter().map(|a| &a.code).collect()));
        assert!(unique(w.singers.iter().map(|s| &s.name).collect()));
        assert!(unique(w.concerts.iter().map(|c| &c.name).collect()));
        let codes: Vec<&String> = w.countries.iter().map(|c| &c.code3).collect();
        assert!(unique(codes));
    }

    #[test]
    fn references_are_in_bounds() {
        let w = World::generate(42);
        for c in &w.cities {
            assert!(c.country < w.countries.len());
            assert!(c.mayor < w.mayors.len());
        }
        for a in &w.airports {
            assert!(a.city < w.cities.len());
            assert_eq!(a.country, w.cities[a.city].country);
        }
        for c in &w.concerts {
            assert!(c.singer < w.singers.len());
            assert!(c.city < w.cities.len());
        }
        for c in &w.countries {
            assert!(c.capital < w.cities.len());
        }
    }

    #[test]
    fn popularity_in_range_and_head_heavy() {
        let w = World::generate(42);
        for c in &w.cities {
            assert!((0.0..=1.0).contains(&c.popularity));
        }
        // Earlier ranks are more popular on average.
        let head: f64 = w.cities[..10].iter().map(|c| c.popularity).sum();
        let tail: f64 = w.cities[w.cities.len() - 10..]
            .iter()
            .map(|c| c.popularity)
            .sum();
        assert!(head > tail);
    }
}
