//! Flat configuration snapshots.

use std::collections::BTreeMap;

use crate::value::Value;
use crate::Key;

/// A flat, point-in-time view of an application's live configuration.
///
/// This is what the repair tool's sandbox operates on: each trial executor
/// holds one copy of the live key → value map, patches a cluster rollback
/// into it in place, runs the trial, and restores the previous values that
/// [`ConfigState::set`] and [`ConfigState::remove`] returned, so that trial
/// executions "leave no persistent changes" (§III-B).
///
/// # Examples
///
/// ```
/// use ocasta_ttkv::{ConfigState, Key, Value};
///
/// let mut state = ConfigState::new();
/// state.set(Key::new("mail/mark_seen"), Value::from(true));
/// let mut sandbox = state.clone();
/// sandbox.remove("mail/mark_seen");
/// assert!(state.get("mail/mark_seen").is_some());   // original untouched
/// assert!(sandbox.get("mail/mark_seen").is_none());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConfigState {
    values: BTreeMap<Key, Value>,
}

impl ConfigState {
    /// Creates an empty configuration.
    pub fn new() -> Self {
        ConfigState::default()
    }

    /// Number of live settings.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if no setting is live.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value of `key`, if live.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.values.get(key)
    }

    /// The value of `key` as a bool, if live and boolean.
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        self.get(key).and_then(Value::as_bool)
    }

    /// The value of `key` as an integer, if live and integral.
    pub fn get_int(&self, key: &str) -> Option<i64> {
        self.get(key).and_then(Value::as_int)
    }

    /// The value of `key` as a string, if live and textual.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Value::as_str)
    }

    /// Sets `key` to `value`, returning the previous value if any.
    pub fn set(&mut self, key: Key, value: Value) -> Option<Value> {
        self.values.insert(key, value)
    }

    /// Removes `key`, returning its value if it was live.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.values.remove(key)
    }

    /// `true` if `key` is live.
    pub fn contains(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    /// Iterates over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &Value)> {
        self.values.iter()
    }

    /// Iterates over live keys in key order.
    pub fn keys(&self) -> impl Iterator<Item = &Key> {
        self.values.keys()
    }

    /// Live keys underneath a hierarchical prefix.
    pub fn keys_under<'a>(&'a self, prefix: &'a Key) -> impl Iterator<Item = &'a Key> + 'a {
        self.values.keys().filter(move |k| k.starts_with(prefix))
    }

    /// The set of keys on which `self` and `other` disagree (present in one
    /// but not the other, or present in both with different values).
    pub fn diff_keys(&self, other: &ConfigState) -> Vec<Key> {
        let mut out = Vec::new();
        for (k, v) in self.iter() {
            if other.get(k.as_str()) != Some(v) {
                out.push(k.clone());
            }
        }
        for k in other.keys() {
            if !self.contains(k.as_str()) {
                out.push(k.clone());
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

impl Extend<(Key, Value)> for ConfigState {
    fn extend<I: IntoIterator<Item = (Key, Value)>>(&mut self, iter: I) {
        self.values.extend(iter);
    }
}

impl FromIterator<(Key, Value)> for ConfigState {
    fn from_iter<I: IntoIterator<Item = (Key, Value)>>(iter: I) -> Self {
        ConfigState {
            values: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a ConfigState {
    type Item = (&'a Key, &'a Value);
    type IntoIter = std::collections::btree_map::Iter<'a, Key, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.values.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_getters() {
        let mut s = ConfigState::new();
        s.set(Key::new("b"), Value::from(true));
        s.set(Key::new("i"), Value::from(7));
        s.set(Key::new("s"), Value::from("x"));
        assert_eq!(s.get_bool("b"), Some(true));
        assert_eq!(s.get_int("i"), Some(7));
        assert_eq!(s.get_str("s"), Some("x"));
        assert_eq!(s.get_bool("i"), None);
        assert_eq!(s.get("missing"), None);
    }

    #[test]
    fn set_returns_previous() {
        let mut s = ConfigState::new();
        assert_eq!(s.set(Key::new("k"), Value::from(1)), None);
        assert_eq!(s.set(Key::new("k"), Value::from(2)), Some(Value::from(1)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn diff_keys_is_symmetric_in_membership() {
        let a: ConfigState = vec![
            (Key::new("only_a"), Value::from(1)),
            (Key::new("both_same"), Value::from(2)),
            (Key::new("both_diff"), Value::from(3)),
        ]
        .into_iter()
        .collect();
        let b: ConfigState = vec![
            (Key::new("only_b"), Value::from(9)),
            (Key::new("both_same"), Value::from(2)),
            (Key::new("both_diff"), Value::from(30)),
        ]
        .into_iter()
        .collect();
        let d = a.diff_keys(&b);
        let names: Vec<_> = d.iter().map(|k| k.as_str().to_owned()).collect();
        assert_eq!(names, vec!["both_diff", "only_a", "only_b"]);
        assert_eq!(a.diff_keys(&a), Vec::<Key>::new());
    }
}
