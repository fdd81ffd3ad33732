//! What a value holds on the heap: the price a task payload charges.
//!
//! The result cache and the trace charge each payload by the bytes it
//! keeps alive, read through [`HeapSize`]: a type without an impl cannot
//! be a payload. Buffers are priced by capacity, and an `Arc`'s
//! allocation only to its sole holder — a window over a shared buffer
//! owns none of it.

use std::collections::HashMap;
use std::mem::size_of;
use std::sync::Arc;

/// The bytes a value owns on the heap, not counting `size_of::<Self>()`
/// itself (which its container — a `Vec` slot, an `Arc` — accounts for).
pub trait HeapSize {
    /// Heap bytes this value keeps alive.
    fn heap_bytes(&self) -> usize;
}

/// Implement [`HeapSize`] as 0 for types that own nothing on the heap.
#[macro_export]
macro_rules! no_heap {
    ($($t:ty),*) => {
        $(impl $crate::HeapSize for $t {
            fn heap_bytes(&self) -> usize {
                0
            }
        })*
    };
}

no_heap!((), bool, u8, u32, u64, usize, i64, f64, crate::DataType);

impl HeapSize for String {
    fn heap_bytes(&self) -> usize {
        self.capacity()
    }
}

impl<T: HeapSize> HeapSize for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * size_of::<T>() + self.iter().map(T::heap_bytes).sum::<usize>()
    }
}

impl<T: HeapSize> HeapSize for Option<T> {
    fn heap_bytes(&self) -> usize {
        self.as_ref().map_or(0, T::heap_bytes)
    }
}

impl<T: HeapSize, E: HeapSize> HeapSize for Result<T, E> {
    fn heap_bytes(&self) -> usize {
        match self {
            Ok(value) => value.heap_bytes(),
            Err(error) => error.heap_bytes(),
        }
    }
}

impl<A: HeapSize, B: HeapSize> HeapSize for (A, B) {
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes() + self.1.heap_bytes()
    }
}

impl<K: HeapSize, V: HeapSize, S> HeapSize for HashMap<K, V, S> {
    fn heap_bytes(&self) -> usize {
        let entries: usize = self.iter().map(|(k, v)| k.heap_bytes() + v.heap_bytes()).sum();
        map_heap_bytes(self.capacity(), size_of::<(K, V)>()) + entries
    }
}

/// The allocation behind an `Arc` — its two counts, the value and what
/// the value owns — when this is its only handle, else nothing: a shared
/// allocation is charged to whoever else holds it.
impl<T: HeapSize> HeapSize for Arc<T> {
    fn heap_bytes(&self) -> usize {
        if Arc::strong_count(self) == 1 {
            2 * size_of::<usize>() + size_of::<T>() + self.as_ref().heap_bytes()
        } else {
            0
        }
    }
}

/// Bytes the table allocation of a std `HashMap` holding `capacity`
/// entries of `entry_bytes` each takes: one slot per bucket, padded to a
/// 16-byte group, plus a control byte per bucket and one group more. The
/// bucket count is a power of two with one slot in eight left free (one
/// slot in a table of fewer than eight buckets), so `capacity`, as
/// `HashMap::capacity` reports it, says how many buckets there are. What
/// the entries own elsewhere is not counted.
fn map_heap_bytes(capacity: usize, entry_bytes: usize) -> usize {
    let buckets = match capacity {
        0 => return 0,
        1..=7 => capacity + 1,
        _ => capacity / 7 * 8,
    };
    (buckets * entry_bytes).next_multiple_of(16) + buckets + 16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_priced_by_capacity() {
        let mut v: Vec<f64> = Vec::with_capacity(10);
        v.push(1.0);
        assert_eq!(v.heap_bytes(), 80);
        let words = vec![String::from("ab"), String::with_capacity(5)];
        assert_eq!(words.heap_bytes(), words.capacity() * size_of::<String>() + 2 + 5);
        assert_eq!(Some(vec![0u32; 3]).heap_bytes(), 12);
        assert_eq!((vec![0u8; 4], 7i64).heap_bytes(), 4);
    }

    #[test]
    fn an_arc_is_charged_to_its_sole_holder() {
        let values = Arc::new(vec![0u64; 8]);
        let own = 2 * size_of::<usize>() + size_of::<Vec<u64>>() + 64;
        assert_eq!(values.heap_bytes(), own);
        let shared = Arc::clone(&values);
        assert_eq!((values.heap_bytes(), shared.heap_bytes()), (0, 0));
        drop(shared);
        assert_eq!(values.heap_bytes(), own);
    }
}
