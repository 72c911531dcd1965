//! Interned symbols.
//!
//! Every variable, parameter, and state in the pipeline is identified by a
//! [`Symbol`] — a small copyable handle into a process-global string
//! interner. This mirrors the shared symbol table of the ObjectMath 4.0
//! compiler (paper Figure 8), which both the transformer and the code
//! generator access directly because they run in one address space.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// A handle to an interned string. Cheap to copy, compare, and hash.
///
/// Symbols are ordered by their interning order, not lexicographically;
/// use [`Symbol::name`] when a stable lexicographic order is required.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    names: Vec<&'static str>,
    lookup: HashMap<&'static str, u32>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            names: Vec::new(),
            lookup: HashMap::new(),
        })
    })
}

impl Symbol {
    /// Intern `name`, returning the canonical handle for it.
    ///
    /// Interning the same string twice yields the same symbol.
    pub fn intern(name: &str) -> Symbol {
        let mut i = interner().lock().expect("symbol interner poisoned");
        if let Some(&id) = i.lookup.get(name) {
            return Symbol(id);
        }
        // Interned names live for the whole process; leaking them lets us
        // hand out `&'static str` without reference counting.
        let stored: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let id = u32::try_from(i.names.len()).expect("too many interned symbols");
        i.names.push(stored);
        i.lookup.insert(stored, id);
        Symbol(id)
    }

    /// The symbol already interned for `name`, if any. Unlike
    /// [`Symbol::intern`] this never grows the interner, so names that
    /// arrive from outside the compiler (a client's state overrides) can
    /// be resolved without living for the rest of the process.
    pub fn lookup(name: &str) -> Option<Symbol> {
        let i = interner().lock().expect("symbol interner poisoned");
        i.lookup.get(name).map(|&id| Symbol(id))
    }

    /// How many names the interner holds.
    pub fn interned() -> usize {
        interner()
            .lock()
            .expect("symbol interner poisoned")
            .names
            .len()
    }

    /// The interned string this symbol refers to.
    pub fn name(self) -> &'static str {
        let i = interner().lock().expect("symbol interner poisoned");
        i.names[self.0 as usize]
    }

    /// The raw interner index. Stable within a process run only.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// A fast, deterministic hasher for [`Symbol`] keys.
///
/// Symbols are dense `u32` interner ids, so the default SipHash is pure
/// overhead in the compiler's hot maps (state indices, substitution
/// rows, dependence sets). This is a Fibonacci-multiply mix with an
/// avalanche shift — two arithmetic ops per key — good enough for ids
/// that are already well distributed and never attacker-controlled.
#[derive(Default, Clone)]
pub struct SymbolHasher(u64);

impl std::hash::Hasher for SymbolHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u32 key parts (tuples, derived structs).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn write_u32(&mut self, n: u32) {
        let h = (self.0 ^ u64::from(n)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

/// A `HashMap` keyed by [`Symbol`] using [`SymbolHasher`].
pub type SymbolMap<V> = HashMap<Symbol, V, std::hash::BuildHasherDefault<SymbolHasher>>;

/// A `HashSet` of [`Symbol`]s using [`SymbolHasher`].
pub type SymbolSet = std::collections::HashSet<Symbol, std::hash::BuildHasherDefault<SymbolHasher>>;

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.name())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("x");
        let b = Symbol::intern("x");
        assert_eq!(a, b);
        assert_eq!(a.name(), "x");
    }

    #[test]
    fn distinct_names_get_distinct_symbols() {
        let a = Symbol::intern("alpha");
        let b = Symbol::intern("beta");
        assert_ne!(a, b);
        assert_eq!(a.name(), "alpha");
        assert_eq!(b.name(), "beta");
    }

    #[test]
    fn lookup_finds_only_interned_names() {
        let a = Symbol::intern("looked_up");
        assert_eq!(Symbol::lookup("looked_up"), Some(a));
        assert_eq!(Symbol::lookup("never_interned"), None);
        assert_eq!(Symbol::lookup("never_interned"), None);
    }

    #[test]
    fn display_prints_the_name() {
        let s = Symbol::intern("BodyW[3].v");
        assert_eq!(s.to_string(), "BodyW[3].v");
    }

    #[test]
    fn symbols_are_usable_across_threads() {
        let a = Symbol::intern("shared");
        let handle = std::thread::spawn(move || {
            assert_eq!(a.name(), "shared");
            Symbol::intern("shared")
        });
        let b = handle.join().unwrap();
        assert_eq!(a, b);
    }
}
