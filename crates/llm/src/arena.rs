//! The storage layout both of the client's caches use: one text arena, a
//! `Vec` of fixed-size entries holding spans into it, and a power-of-two
//! array of `u32` buckets that chains the entries by hash.
//!
//! The prompt cache keeps one per shard (`client::Striped`), the
//! sub-entry store one per column ([`crate::columns`]). Each entry costs
//! its own fixed size plus a bucket or two, however long its text, and
//! the text lies in a few large chunks, so an entry adds no heap block of
//! its own. Positions and span starts are `u32`, strictly below [`NONE`]:
//! an arena that one more entry or span would overflow reports no
//! [`Arena::room`], and its owner stops storing rather than serve a
//! wrong span.

/// "No entry": ends a bucket's chain, and stands in a span's start where
/// an entry has no text yet. Positions and span starts stay strictly
/// below it.
pub(crate) const NONE: u32 = u32::MAX;

/// The fewest buckets an arena that holds an entry has.
const MIN_BUCKETS: usize = 8;

/// The bytes a chunk of text holds before the next one starts, unless a
/// span alone is longer and has a chunk of its own.
const CHUNK: usize = 32 * 1024;

/// A span's start is its chunk's index shifted past these bits and its
/// offset in the chunk below them: every span starts below [`CHUNK`] in
/// its chunk, a longer one at 0 of a chunk of its own.
const OFFSET_BITS: u32 = 16;

/// Chunks an arena may have, so that every span start stays below
/// [`NONE`].
const MAX_CHUNKS: usize = (NONE >> OFFSET_BITS) as usize;

/// A run of an arena's text, or — with `start` [`NONE`] — none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) start: u32,
    pub(crate) len: u32,
}

/// One entry: its value, the low 32 bits of its key's hash and the next
/// entry of its bucket. The hash bits pick a bucket of any arena (there
/// are never more than 2³² of either), re-chain the entries when the
/// buckets double, and pass over most other keys of a bucket without
/// reading their bytes.
struct Slot<E> {
    value: E,
    hash: u32,
    next: u32,
}

/// Text, fixed-size entries in arrival order, and buckets over them.
pub(crate) struct Arena<E> {
    /// The chunk being filled, whose index is `sealed.len()`, kept inline
    /// so that an arena of one chunk reads its text as a plain `String`.
    /// The first chunk doubles up to [`CHUNK`] bytes, so a small arena
    /// stays small; every later one is allocated whole (or at its one
    /// longer span's size).
    text: String,
    /// Full chunks. None grows once the next has started, so a large
    /// arena's text is never copied and leaves no freed blocks of its
    /// growth behind.
    sealed: Vec<String>,
    slots: Vec<Slot<E>>,
    /// Low hash bits → position of the newest entry with them, or
    /// [`NONE`]; a power of two, at least as many as there are entries.
    buckets: Vec<u32>,
}

impl<E> Arena<E> {
    pub(crate) const fn new() -> Self {
        Arena {
            text: String::new(),
            sealed: Vec::new(),
            slots: Vec::new(),
            buckets: Vec::new(),
        }
    }

    pub(crate) fn get(&self, at: usize) -> &E {
        &self.slots[at].value
    }

    pub(crate) fn get_mut(&mut self, at: usize) -> &mut E {
        &mut self.slots[at].value
    }

    /// The text of a span this arena appended.
    pub(crate) fn text(&self, span: Span) -> &str {
        let (chunk, at) = self.locate(span);
        &chunk[at..at + span.len as usize]
    }

    /// [`Arena::text`] as bytes, for a comparison.
    pub(crate) fn bytes(&self, span: Span) -> &[u8] {
        let (chunk, at) = self.locate(span);
        &chunk.as_bytes()[at..at + span.len as usize]
    }

    /// A span's chunk and its offset in it.
    fn locate(&self, span: Span) -> (&str, usize) {
        let index = (span.start >> OFFSET_BITS) as usize;
        let chunk = self.sealed.get(index).unwrap_or(&self.text);
        (chunk, (span.start & ((1 << OFFSET_BITS) - 1)) as usize)
    }

    /// Whether one more entry and two more spans of `bytes` in all keep
    /// every position and span start below [`NONE`].
    pub(crate) fn room(&self, bytes: usize) -> bool {
        self.slots.len() < NONE as usize
            && bytes < NONE as usize
            && self.sealed.len() + 2 < MAX_CHUNKS
    }

    /// Appends `s` to the text; the caller has checked [`Arena::room`].
    /// Every empty span starts at 0.
    pub(crate) fn append(&mut self, s: &str) -> Span {
        let len = s.len() as u32;
        if s.is_empty() {
            return Span { start: 0, len };
        }
        if !self.text.is_empty() && self.text.len() + s.len() > CHUNK {
            let next = String::with_capacity(CHUNK.max(s.len()));
            self.sealed.push(std::mem::replace(&mut self.text, next));
        }
        if self.text.capacity() - self.text.len() < s.len() {
            // The first chunk doubles, up to a chunk's size.
            let capacity = (2 * self.text.capacity()).min(CHUNK);
            let capacity = capacity.max(self.text.len() + s.len());
            self.text.reserve_exact(capacity - self.text.len());
        }
        let start = (self.sealed.len() as u32) << OFFSET_BITS | self.text.len() as u32;
        self.text.push_str(s);
        Span { start, len }
    }

    /// Gives back a span's text when nothing was appended after it to its
    /// chunk; any other span's bytes stay.
    pub(crate) fn release(&mut self, span: Span) {
        let (chunk, at) = self.locate(span);
        if span.len > 0 && at + span.len as usize == chunk.len() {
            let index = (span.start >> OFFSET_BITS) as usize;
            self.sealed
                .get_mut(index)
                .unwrap_or(&mut self.text)
                .truncate(at);
        }
    }

    /// The position of the newest entry whose hash has these low bits and
    /// that `is` accepts.
    pub(crate) fn find(&self, hash: u32, mut is: impl FnMut(&E) -> bool) -> Option<usize> {
        let mut at = if self.buckets.is_empty() {
            NONE
        } else {
            self.buckets[self.bucket(hash)]
        };
        while at != NONE {
            let slot = &self.slots[at as usize];
            if slot.hash == hash && is(&slot.value) {
                return Some(at as usize);
            }
            at = slot.next;
        }
        None
    }

    /// The bucket of a hash; the arena has buckets.
    fn bucket(&self, hash: u32) -> usize {
        hash as usize & (self.buckets.len() - 1)
    }

    /// Puts entry `at` at the head of its bucket's chain.
    fn link(&mut self, at: u32) {
        let bucket = self.bucket(self.slots[at as usize].hash);
        self.slots[at as usize].next = self.buckets[bucket];
        self.buckets[bucket] = at;
    }

    /// Adds an entry; the caller has checked [`Arena::room`]. Returns its
    /// position.
    pub(crate) fn push(&mut self, hash: u32, value: E) -> usize {
        let at = self.slots.len() as u32;
        self.slots.push(Slot {
            value,
            hash,
            next: NONE,
        });
        if self.slots.len() <= self.buckets.len() {
            self.link(at);
        } else {
            // Twice the buckets, every entry re-chained oldest first, so
            // each chain still starts at its newest entry.
            self.buckets = vec![NONE; (2 * self.buckets.len()).max(MIN_BUCKETS)];
            for at in 0..=at {
                self.link(at);
            }
        }
        at as usize
    }

    /// The link that holds position `at`: its bucket, or the `next` of the
    /// entry before it on the chain. Every entry is on its chain.
    fn link_to(&mut self, at: u32) -> &mut u32 {
        let bucket = self.bucket(self.slots[at as usize].hash);
        let mut before = NONE;
        let mut on = self.buckets[bucket];
        while on != at {
            before = on;
            on = self.slots[on as usize].next;
        }
        match before {
            NONE => &mut self.buckets[bucket],
            before => &mut self.slots[before as usize].next,
        }
    }

    /// Takes entry `at` out of its chain and moves the last entry into its
    /// place, so the entries stay dense: a position is valid only until
    /// the next removal. Its text stays unless the caller
    /// [`Arena::release`]s it.
    pub(crate) fn remove(&mut self, at: usize) -> E {
        let next = self.slots[at].next;
        *self.link_to(at as u32) = next;
        let last = self.slots.len() - 1;
        if at != last {
            *self.link_to(last as u32) = at as u32;
        }
        self.slots.swap_remove(at).value
    }

    /// Empties the arena; it keeps the allocations of the chunk being
    /// filled and of its index.
    pub(crate) fn clear(&mut self) {
        self.text.clear();
        self.sealed.clear();
        self.slots.clear();
        self.buckets.clear();
    }

    /// Entries held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Bytes in use: `(text, index)`, the index being the entries and the
    /// buckets.
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> (usize, usize) {
        let index = self.slots.len() * std::mem::size_of::<Slot<E>>()
            + self.buckets.len() * std::mem::size_of::<u32>();
        let text = self.sealed.iter().map(String::len).sum::<usize>() + self.text.len();
        (text, index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An arena whose entries are their keys' spans, every key hashed
    /// alike, so that each entry sits on one chain.
    fn filled(keys: &[&str]) -> Arena<Span> {
        let mut arena = Arena::new();
        for key in keys {
            let span = arena.append(key);
            arena.push(7, span);
        }
        arena
    }

    fn position(arena: &Arena<Span>, key: &str) -> Option<usize> {
        arena.find(7, |&span| arena.text(span) == key)
    }

    #[test]
    fn removal_moves_the_last_entry_and_keeps_every_chain_whole() {
        let keys = ["a", "b", "c", "d"];
        for victim in 0..keys.len() {
            let mut arena = filled(&keys);
            arena.remove(position(&arena, keys[victim]).unwrap());
            assert_eq!(arena.len(), keys.len() - 1);
            for (i, key) in keys.iter().enumerate() {
                let found = position(&arena, key).map(|at| arena.text(*arena.get(at)));
                assert_eq!(found, (i != victim).then_some(*key), "{victim} / {key}");
            }
        }
        // Hashes spread over several buckets, past one doubling.
        let mut arena = Arena::new();
        for i in 0..20u32 {
            let span = arena.append(&i.to_string());
            arena.push(i, span);
        }
        for i in (0..20u32).step_by(3) {
            let at = arena.find(i, |_| true).unwrap();
            arena.remove(at);
        }
        for i in 0..20u32 {
            let found = arena.find(i, |_| true).map(|at| arena.text(*arena.get(at)));
            let kept = i % 3 != 0;
            assert_eq!(found, kept.then(|| i.to_string()).as_deref(), "{i}");
        }
    }

    /// Text past a chunk starts the next one, a span longer than a chunk
    /// has one of its own, and every span reads back as appended, before
    /// and after a clear.
    #[test]
    fn spans_read_back_across_chunks() {
        let texts: Vec<String> = (0..200usize)
            .map(|i| match i % 50 {
                0 => "long ".repeat(CHUNK / 4 + i),
                7 => String::new(),
                _ => format!("text {i} ").repeat(i % 13 + 1) + "é",
            })
            .collect();
        let mut arena: Arena<Span> = Arena::new();
        for round in 0..2 {
            let spans: Vec<Span> = texts.iter().map(|t| arena.append(t)).collect();
            for (span, text) in spans.iter().zip(&texts) {
                assert_eq!(arena.text(*span), text.as_str(), "round {round}");
            }
            assert_eq!(
                arena.footprint().0,
                texts.iter().map(String::len).sum::<usize>()
            );
            // Four long spans of their own, and the rest in several
            // chunks, none allocated past its size or a chunk's.
            assert!(arena.sealed.len() > 6, "{} chunks", arena.sealed.len());
            for chunk in arena.sealed.iter().chain([&arena.text]) {
                assert!(chunk.capacity() <= chunk.len().max(CHUNK));
            }
            arena.clear();
            assert!(arena.sealed.is_empty());
        }
    }

    #[test]
    fn released_text_is_reclaimed_only_at_the_end() {
        let mut arena: Arena<Span> = Arena::new();
        let first = arena.append("first");
        let second = arena.append("second");
        let empty = arena.append("");
        arena.release(first);
        assert_eq!(arena.text(second), "second");
        arena.release(second);
        assert_eq!(arena.footprint().0, "first".len());
        assert_eq!((arena.text(first), arena.text(empty)), ("first", ""));
    }
}
