//! A string dictionary mapping strings to dense 32-bit ids and back.

use crate::value::StrId;
use std::collections::HashMap;

/// Bidirectional string dictionary. One per [`crate::Database`].
#[derive(Debug, Clone, Default)]
pub struct Interner {
    by_str: HashMap<Box<str>, StrId>,
    by_id: Vec<Box<str>>,
}

impl Interner {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning its id (existing or fresh).
    pub fn intern(&mut self, s: &str) -> StrId {
        if let Some(&id) = self.by_str.get(s) {
            return id;
        }
        #[expect(
            clippy::expect_used,
            reason = "2^32 distinct strings exhaust memory before they exhaust the id space"
        )]
        let id = StrId(u32::try_from(self.by_id.len()).expect("interner overflow"));
        let boxed: Box<str> = s.into();
        self.by_id.push(boxed.clone());
        self.by_str.insert(boxed, id);
        id
    }

    /// Looks up the id of an already-interned string.
    pub fn get(&self, s: &str) -> Option<StrId> {
        self.by_str.get(s).copied()
    }

    /// Resolves an id back to its string.
    ///
    /// # Panics
    ///
    /// Panics if the id was not produced by this interner.
    pub fn resolve(&self, id: StrId) -> &str {
        &self.by_id[id.0 as usize]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("HR");
        let b = i.intern("HR");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_strings_get_distinct_ids() {
        let mut i = Interner::new();
        let a = i.intern("HR");
        let b = i.intern("IT");
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "HR");
        assert_eq!(i.resolve(b), "IT");
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert!(i.get("missing").is_none());
        assert!(i.is_empty());
        i.intern("x");
        assert!(i.get("x").is_some());
    }

    #[test]
    fn ids_are_dense_and_ordered_by_insertion() {
        let mut i = Interner::new();
        for k in 0..100 {
            let id = i.intern(&format!("s{k}"));
            assert_eq!(id.0, k);
        }
    }
}
