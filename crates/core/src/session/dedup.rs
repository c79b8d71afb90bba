//! The case-folded dedup of a run's listed keys.
//!
//! A list page names keys in whatever case the model chose, and two
//! surfaces equal under ASCII case folding are one key. The index holds
//! no key of its own: it maps a hash of a key's folded bytes to positions
//! in the run's key list, chains positions whose hashes are equal, and
//! compares a candidate with each by `eq_ignore_ascii_case` — the verdicts
//! of a set of lower-cased copies, without the copies.

use std::collections::hash_map::{HashMap, RandomState};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

/// Positions into a key list, by folded-key hash. The hash is SipHash
/// keyed at random per index, because keys are model output.
#[derive(Debug, Default)]
pub(super) struct FoldedKeys {
    hasher: RandomState,
    /// Folded-key hash → the newest position with that hash.
    head: HashMap<u64, usize, BuildHasherDefault<Hashed>>,
    /// Position → the next older position with the same hash.
    next: Vec<usize>,
    /// Test-only: hash every key to the same value, so that every lookup
    /// walks one chain.
    #[cfg(test)]
    colliding: bool,
}

/// Hashes a `u64` that is a hash already to itself.
#[derive(Default)]
struct Hashed(u64);

impl Hasher for Hashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // `FoldedKeys::head` hashes `u64`s only; anything else is folded in.
        self.0 = (bytes.iter()).fold(self.0, |h, &b| h.rotate_left(8) ^ u64::from(b));
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// The end of a chain.
const END: usize = usize::MAX;

impl FoldedKeys {
    /// Whether `key` is new to `keys` under ASCII case folding. A new key
    /// is indexed at `keys.len()`, the position the caller then pushes it
    /// to; `keys` is the list every earlier `true` was pushed to, in order.
    pub(super) fn insert(&mut self, keys: &[String], key: &str) -> bool {
        debug_assert_eq!(
            self.next.len(),
            keys.len(),
            "a key list the index did not see grow"
        );
        let hash = self.hash(key);
        let mut at = self.head.get(&hash).copied().unwrap_or(END);
        while at != END {
            if keys[at].eq_ignore_ascii_case(key) {
                return false;
            }
            at = self.next[at];
        }
        self.next
            .push(self.head.insert(hash, keys.len()).unwrap_or(END));
        true
    }

    /// Makes room for `n` more keys.
    pub(super) fn reserve(&mut self, n: usize) {
        self.head.reserve(n);
        self.next.reserve(n);
    }

    /// Hashes `key`'s bytes lower-cased, a stack buffer at a time.
    fn hash(&self, key: &str) -> u64 {
        #[cfg(test)]
        if self.colliding {
            return 0;
        }
        let mut hasher = self.hasher.build_hasher();
        let mut folded = [0u8; 32];
        for chunk in key.as_bytes().chunks(folded.len()) {
            let folded = &mut folded[..chunk.len()];
            folded.copy_from_slice(chunk);
            folded.make_ascii_lowercase();
            hasher.write(folded);
        }
        hasher.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clean::normalise_text;
    use crate::parse::tests::utf8_text;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The dedup as it was before the index: a set of lower-cased copies.
    /// The reference the property compares against.
    fn reference_dedup(surfaces: &[String]) -> Vec<String> {
        let mut seen = HashSet::new();
        let mut keys = Vec::new();
        for surface in surfaces {
            let cleaned = normalise_text(surface);
            if cleaned.is_empty() {
                continue;
            }
            if seen.insert(cleaned.to_ascii_lowercase()) {
                keys.push(cleaned);
            }
        }
        keys
    }

    fn dedup(index: &mut FoldedKeys, surfaces: &[String]) -> Vec<String> {
        let mut keys = Vec::new();
        for surface in surfaces {
            let cleaned = normalise_text(surface);
            if !cleaned.is_empty() && index.insert(&keys, &cleaned) {
                keys.push(cleaned);
            }
        }
        keys
    }

    /// Key surfaces as a list page names them: ASCII case variants of a
    /// few names, non-ASCII ones whose case ASCII folding leaves alone,
    /// names longer than the hash's stack buffer, and surfaces that
    /// normalise to nothing.
    const SURFACES: &[&str] = &[
        "Rome",
        "ROME",
        "rome.",
        " rOmE ",
        "\"Rome\"",
        "Ro me",
        "Ro  me",
        "Österreich",
        "österreich",
        "ÖSTERREICH",
        "東京",
        "İstanbul",
        "istanbul",
        "ß",
        "SS",
        "ss",
        "Saint-Pierre-et-Miquelon, a long name past thirty-two bytes",
        "SAINT-PIERRE-ET-MIQUELON, A LONG NAME PAST THIRTY-TWO BYTES",
        "Saint-Pierre-et-Miquelon, a long name past thirty-two bytez",
        "",
        " ",
        "\"\"",
        "..",
        "';",
        "\t\n",
    ];

    fn surface() -> BoxedStrategy<String> {
        prop_oneof![
            proptest::sample::select(SURFACES.to_vec()).prop_map(str::to_string),
            utf8_text(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn the_index_keeps_what_a_set_of_lower_cased_copies_kept(
            pages in proptest::collection::vec(proptest::collection::vec(surface(), 0..12), 1..4),
        ) {
            // Pages arrive one after another into one index.
            let surfaces: Vec<String> = pages.concat();
            let reference = reference_dedup(&surfaces);
            for colliding in [false, true] {
                let mut index = FoldedKeys { colliding, ..FoldedKeys::default() };
                let kept = dedup(&mut index, &surfaces);
                prop_assert_eq!(&kept, &reference, "{:?}", surfaces);
                // Every kept key is known to the index, under any ASCII case.
                for key in &kept {
                    prop_assert!(!index.insert(&kept, &key.to_ascii_uppercase()));
                    prop_assert!(!index.insert(&kept, &key.to_ascii_lowercase()));
                }
            }
        }
    }
}
