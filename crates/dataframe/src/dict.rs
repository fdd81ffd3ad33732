//! The dictionary of a string column.
//!
//! A `Str` column stores one `u32` code per row and, once, the distinct
//! strings the codes stand for: a [`StrDict`], all entries back to back in
//! one arena. Entries are distinct and appear in the order they were first
//! interned; nothing depends on that order (every printed order is by
//! count, then by name), so dictionaries built from the same rows in a
//! different order — a CSV parse against the sorted dictionary of an
//! `.edaf` page — describe equal columns.
//!
//! A frozen dictionary is immutable and `Arc`-shared by every window of
//! its column; [`DictBuilder`] is the only way to make one.

use crate::fingerprint::Fnv;
use crate::heap::HeapSize;

/// Distinct strings addressed by code: entry `i` is
/// `bytes[ends[i - 1]..ends[i]]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StrDict {
    bytes: String,
    ends: Vec<usize>,
}

impl StrDict {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the dictionary has no entries.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The string `code` stands for; `None` when there is no such entry.
    #[inline]
    pub fn get(&self, code: u32) -> Option<&str> {
        let i = code as usize;
        let end = *self.ends.get(i)?;
        let start = i.checked_sub(1).and_then(|p| self.ends.get(p)).copied().unwrap_or(0);
        self.bytes.get(start..end)
    }

    /// Every entry, in code order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let entry = self.bytes.get(start..end).unwrap_or_default();
            start = end;
            entry
        })
    }

    fn push(&mut self, entry: &str) {
        self.bytes.push_str(entry);
        self.ends.push(self.bytes.len());
    }
}

impl HeapSize for StrDict {
    fn heap_bytes(&self) -> usize {
        self.bytes.heap_bytes() + self.ends.heap_bytes()
    }
}

/// A slot of the interner's table: the entry's hash in the high half, its
/// code in the low half.
const EMPTY: u64 = u64::MAX;

/// Builds a [`StrDict`] by interning: a string already seen returns the
/// code it got the first time. The lookup is an open-addressing table
/// (linear probing, at most half full) over FNV-1a hashes; a probe
/// compares 32 hash bits before it compares bytes, and growing the table
/// re-places slots without reading a string.
#[derive(Debug, Clone)]
pub struct DictBuilder {
    dict: StrDict,
    slots: Vec<u64>,
}

impl Default for DictBuilder {
    fn default() -> Self {
        DictBuilder::new()
    }
}

fn hash32(s: &str) -> u32 {
    let mut h = Fnv::new();
    h.write(s.as_bytes());
    let h = h.finish();
    (h ^ (h >> 32)) as u32
}

impl DictBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        DictBuilder { dict: StrDict::default(), slots: vec![EMPTY; 16] }
    }

    /// Entries interned so far.
    pub fn len(&self) -> usize {
        self.dict.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.dict.is_empty()
    }

    /// The code of `s`, appending it to the dictionary when it is new.
    ///
    /// # Panics
    /// When the dictionary would exceed `u32::MAX` entries.
    #[inline]
    pub fn intern(&mut self, s: &str) -> u32 {
        let hash = hash32(s);
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        // The table is never full, so the probe ends at an empty slot.
        while let Some(&slot) = self.slots.get(at).filter(|&&slot| slot != EMPTY) {
            if (slot >> 32) as u32 == hash && self.dict.get(slot as u32) == Some(s) {
                return slot as u32;
            }
            at = (at + 1) & mask;
        }
        // `u32::MAX` itself is left out so that no slot equals `EMPTY`.
        let code = u32::try_from(self.dict.len())
            .ok()
            .filter(|&c| c < u32::MAX)
            // Cannot fire: 2^32 distinct strings need a 64 GiB table first.
            .expect("a string column holds fewer than u32::MAX distinct values");
        self.dict.push(s);
        if let Some(slot) = self.slots.get_mut(at) {
            *slot = u64::from(hash) << 32 | u64::from(code);
        }
        if self.dict.len() * 2 > self.slots.len() {
            self.grow();
        }
        code
    }

    fn grow(&mut self) {
        let mut slots = vec![EMPTY; self.slots.len() * 2];
        let mask = slots.len() - 1;
        for &slot in self.slots.iter().filter(|&&slot| slot != EMPTY) {
            let mut at = (slot >> 32) as usize & mask;
            while slots.get(at).is_some_and(|&taken| taken != EMPTY) {
                at = (at + 1) & mask;
            }
            if let Some(free) = slots.get_mut(at) {
                *free = slot;
            }
        }
        self.slots = slots;
    }

    /// Freeze the dictionary.
    pub fn finish(self) -> StrDict {
        self.dict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_first_appearance_order_and_idempotent() {
        let mut b = DictBuilder::new();
        let codes: Vec<u32> = ["b", "a", "", "b", "ß", "a", "İ"].iter().map(|s| b.intern(s)).collect();
        assert_eq!(codes, [0, 1, 2, 0, 3, 1, 4]);
        let dict = b.finish();
        assert_eq!(dict.iter().collect::<Vec<_>>(), ["b", "a", "", "ß", "İ"]);
        assert_eq!(dict.get(3), Some("ß"));
        assert_eq!(dict.get(5), None);
        assert_eq!(dict.len(), 5);
    }

    #[test]
    fn growth_keeps_every_entry_findable() {
        let mut b = DictBuilder::new();
        let words: Vec<String> = (0..5000).map(|i| format!("w{}", i * 7919 % 5000)).collect();
        for (i, w) in words.iter().enumerate() {
            assert_eq!(b.intern(w), i as u32);
        }
        for (i, w) in words.iter().enumerate() {
            assert_eq!(b.intern(w), i as u32, "{w} after growth");
        }
        assert_eq!(b.len(), 5000);
    }

    #[test]
    fn empty_dictionary() {
        let dict = DictBuilder::new().finish();
        assert!(dict.is_empty());
        assert_eq!(dict.get(0), None);
        assert_eq!(dict.iter().count(), 0);
        assert_eq!(dict, StrDict::default());
    }
}
