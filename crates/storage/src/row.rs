//! Rows and keys.

use acc_common::{Decimal, Value};
use std::fmt;

/// One tuple: a vector of [`Value`]s, positionally matching a table schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Row(pub Vec<Value>);

impl Row {
    /// The value in column `i`; panics on out-of-range (schema-checked code
    /// never passes a bad index).
    #[inline]
    pub fn get(&self, i: usize) -> &Value {
        &self.0[i]
    }

    /// Integer in column `i`; panics if the column is not an `Int`.
    #[inline]
    pub fn int(&self, i: usize) -> i64 {
        self.0[i].as_int().expect("column is not Int")
    }

    /// String in column `i`; panics if the column is not a `Str`.
    #[inline]
    pub fn str(&self, i: usize) -> &str {
        self.0[i].as_str().expect("column is not Str")
    }

    /// Decimal in column `i`; panics if the column is not a `Decimal`.
    #[inline]
    pub fn decimal(&self, i: usize) -> Decimal {
        self.0[i].as_decimal().expect("column is not Decimal")
    }

    /// True if column `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.0[i].is_null()
    }

    /// Replace the value in column `i`, returning the old value.
    pub fn set(&mut self, i: usize, v: Value) -> Value {
        std::mem::replace(&mut self.0[i], v)
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Project the given columns into a [`Key`].
    pub fn project(&self, cols: &[usize]) -> Key {
        Key(cols.iter().map(|&c| self.0[c].clone()).collect())
    }
}

impl From<Vec<Value>> for Row {
    fn from(v: Vec<Value>) -> Row {
        Row(v)
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// An index key: an ordered tuple of values.
///
/// Keys order lexicographically, which makes prefix range scans natural: all
/// keys beginning with prefix `p` form a contiguous B-tree range.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(pub Vec<Value>);

impl Key {
    /// A key from a list of values.
    pub fn new(vals: Vec<Value>) -> Key {
        Key(vals)
    }

    /// Convenience constructor for all-integer keys (the common case in
    /// TPC-C).
    pub fn ints(vals: &[i64]) -> Key {
        Key(vals.iter().map(|&n| Value::Int(n)).collect())
    }

    /// True if `self` begins with `prefix`.
    pub fn starts_with(&self, prefix: &Key) -> bool {
        self.0.len() >= prefix.0.len() && self.0[..prefix.0.len()] == prefix.0[..]
    }

    /// Number of components.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// An order-preserving 8-byte prefix of this key: `a < b` implies
    /// `a.prefix() <= b.prefix()`, and equal keys have equal prefixes, so
    /// two keys whose prefixes differ compare like their prefixes.
    ///
    /// The prefix is the first 8 bytes, zero-padded and read big-endian, of
    /// a byte encoding that sorts like the key. Each component starts with
    /// a tag byte ordered by type rank (`Null < Bool < Int < Decimal <
    /// Str`, as [`Value`]'s order has it), none of them zero, so a key
    /// sorts before its extensions. An `Int` or a `Decimal` folds its sign
    /// and byte length into the tag and follows it with its minimal
    /// big-endian bytes (of `n` if `n >= 0`, of `!n` otherwise, flipped), so
    /// small numbers take one or two bytes; a string escapes each `0x00` as
    /// `0x00 0xff` and ends with `0x00 0x00`.
    pub fn prefix(&self) -> u64 {
        let mut out = [0u8; 8];
        let mut at = 0;
        let mut put = |b: u8| {
            if at < out.len() {
                out[at] = b;
                at += 1;
            }
            at < out.len()
        };
        for v in &self.0 {
            let more = match v {
                Value::Null => put(0x01),
                Value::Bool(b) => put(0x02) && put(u8::from(*b)),
                Value::Int(n) => put_int(&mut put, 0x10, *n),
                Value::Decimal(d) => put_int(&mut put, 0x30, d.units()),
                Value::Str(s) => {
                    put(0x50)
                        && s.bytes()
                            .all(|b| if b == 0 { put(0) && put(0xff) } else { put(b) })
                        && put(0)
                        && put(0)
                }
            };
            if !more {
                break;
            }
        }
        u64::from_be_bytes(out)
    }
}

/// Encode `n` for [`Key::prefix`] through `put` (which answers whether
/// there is room for more): the tag `base + 9 + len` for `n >= 0`, or
/// `base + 8 - len` for `n < 0`, then the `len` low bytes of `n`, where
/// `len` is the byte length of `n`'s magnitude (of `!n` when negative).
/// Within a tag the bytes sort like `n`, and more bytes mean a larger
/// magnitude, so tags sort like `n` too.
fn put_int(put: &mut impl FnMut(u8) -> bool, base: u8, n: i64) -> bool {
    let magnitude = if n < 0 { !n } else { n } as u64;
    let len = 8 - magnitude.leading_zeros() as usize / 8;
    let tag = if n < 0 {
        base + 8 - len as u8
    } else {
        base + 9 + len as u8
    };
    put(tag) && n.to_be_bytes()[8 - len..].iter().all(|&b| put(b))
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_accessors() {
        let r = Row::from(vec![
            Value::Int(7),
            Value::str("abc"),
            Value::from(Decimal::from_int(3)),
            Value::Null,
        ]);
        assert_eq!(r.int(0), 7);
        assert_eq!(r.str(1), "abc");
        assert_eq!(r.decimal(2), Decimal::from_int(3));
        assert!(r.is_null(3));
        assert_eq!(r.arity(), 4);
    }

    #[test]
    #[should_panic(expected = "column is not Int")]
    fn wrong_type_panics() {
        Row::from(vec![Value::str("x")]).int(0);
    }

    #[test]
    fn set_returns_old() {
        let mut r = Row::from(vec![Value::Int(1)]);
        let old = r.set(0, Value::Int(2));
        assert_eq!(old, Value::Int(1));
        assert_eq!(r.int(0), 2);
    }

    #[test]
    fn project_builds_key() {
        let r = Row::from(vec![Value::Int(1), Value::str("x"), Value::Int(3)]);
        assert_eq!(
            r.project(&[2, 0]),
            Key::new(vec![Value::Int(3), Value::Int(1)])
        );
    }

    #[test]
    fn key_ordering_lexicographic() {
        assert!(Key::ints(&[1, 2]) < Key::ints(&[1, 3]));
        assert!(Key::ints(&[1, 2]) < Key::ints(&[2, 0]));
        // A strict prefix orders before its extensions.
        assert!(Key::ints(&[1]) < Key::ints(&[1, 0]));
    }

    #[test]
    fn key_prefix() {
        let k = Key::ints(&[4, 5, 6]);
        assert!(k.starts_with(&Key::ints(&[4, 5])));
        assert!(k.starts_with(&Key::ints(&[4])));
        assert!(!k.starts_with(&Key::ints(&[5])));
        assert!(!k.starts_with(&Key::ints(&[4, 5, 6, 7])));
    }

    /// A value drawn from a small pool that collides often: mixed types,
    /// integer extremes and byte-length boundaries, negatives, and strings
    /// holding `\0` or high code points (UTF-8 has no `0xff` byte; `\u{ff}`
    /// and `\u{10ffff}` put `0xbf`/`0xf4` bytes in).
    fn value(rng: &mut acc_common::SeededRng) -> Value {
        const INTS: [i64; 14] = [
            i64::MIN,
            i64::MIN + 1,
            -65_536,
            -257,
            -256,
            -255,
            -1,
            0,
            1,
            255,
            256,
            65_535,
            i64::MAX - 1,
            i64::MAX,
        ];
        const STRS: [&str; 9] = [
            "",
            "\0",
            "\0\0",
            "a",
            "a\0",
            "a\0b",
            "ab",
            "\u{ff}",
            "\u{10ffff}\0",
        ];
        match rng.index(6) {
            0 => Value::Null,
            1 => Value::Bool(rng.chance(0.5)),
            2 => Value::Int(INTS[rng.index(INTS.len())]),
            3 => Value::Int(rng.int_range(-300, 300)),
            4 => Value::Decimal(Decimal::from_units(INTS[rng.index(INTS.len())])),
            _ => Value::str(STRS[rng.index(STRS.len())]),
        }
    }

    #[test]
    fn prefix_preserves_key_order() {
        let mut rng = acc_common::SeededRng::new(7);
        let mut keys: Vec<Key> = (0..3000)
            .map(|_| {
                let n = rng.index(4);
                Key((0..n).map(|_| value(&mut rng)).collect())
            })
            .collect();
        // Keys that are prefixes of other keys.
        let extended: Vec<Key> = keys
            .iter()
            .take(500)
            .map(|k| {
                let mut e = k.clone();
                e.0.push(value(&mut rng));
                e
            })
            .collect();
        keys.extend(extended);
        keys.sort();
        for w in keys.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if a == b {
                assert_eq!(a.prefix(), b.prefix(), "{a} == {b}");
            } else {
                assert!(a.prefix() <= b.prefix(), "{a} < {b} but prefixes invert");
            }
        }
        // Sortedness is transitive, so neighbours suffice; spot-check
        // distant pairs anyway, and that prefixes tell keys apart.
        for _ in 0..20_000 {
            let (a, b) = (&keys[rng.index(keys.len())], &keys[rng.index(keys.len())]);
            if a < b {
                assert!(a.prefix() <= b.prefix(), "{a} < {b}");
            }
        }
        let distinct: std::collections::BTreeSet<u64> = keys.iter().map(Key::prefix).collect();
        assert!(distinct.len() > 500, "{} distinct prefixes", distinct.len());
    }

    #[test]
    fn prefix_separates_small_int_keys() {
        // TPC-C's keys are short tuples of small ints: three components fit.
        assert!(Key::ints(&[1, 2, 3]).prefix() < Key::ints(&[1, 2, 4]).prefix());
        assert!(Key::ints(&[-1]).prefix() < Key::ints(&[0]).prefix());
        assert!(Key::ints(&[1]).prefix() < Key::ints(&[1, 0]).prefix());
        assert_eq!(Key(Vec::new()).prefix(), 0);
    }

    #[test]
    fn display() {
        assert_eq!(Key::ints(&[1, 2]).to_string(), "[1, 2]");
        assert_eq!(
            Row::from(vec![Value::Int(1), Value::str("a")]).to_string(),
            "(1, 'a')"
        );
    }
}
