//! Configuration setting keys.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// The name of one configuration setting.
///
/// Keys are hierarchical slash-separated paths, matching how the loggers
/// flatten every supported store (registry paths, GConf paths, file key
/// paths) into names, e.g. `Software/Microsoft/Word/MRU/Max Display`.
///
/// `Key` is a cheaply cloneable shared string: the TTKV, the clustering
/// engine and the repair tool all hold many references to the same key name.
///
/// # Examples
///
/// ```
/// use ocasta_ttkv::Key;
///
/// let key = Key::new("word/MRU/Max Display");
/// assert_eq!(key.leaf(), "Max Display");
/// assert_eq!(key.parent().unwrap().as_str(), "word/MRU");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(Arc<str>);

impl Key {
    /// Creates a key from a path string.
    pub fn new(path: impl AsRef<str>) -> Self {
        Key(Arc::from(path.as_ref()))
    }

    /// The full path of the key.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The final path component (the setting's own name).
    pub fn leaf(&self) -> &str {
        self.0.rsplit('/').next().unwrap_or(&self.0)
    }

    /// The key one level up the hierarchy, if any.
    ///
    /// Hierarchical name structure is what systems like Glean exploit; Ocasta
    /// does not need it for clustering but exposes it for analysis.
    pub fn parent(&self) -> Option<Key> {
        self.0.rfind('/').map(|idx| Key::new(&self.0[..idx]))
    }

    /// Appends a path component, producing a child key.
    pub fn child(&self, component: &str) -> Key {
        Key::new(format!("{}/{}", self.0, component))
    }

    /// `true` if `self` is `other` or lies underneath it in the hierarchy.
    pub fn starts_with(&self, other: &Key) -> bool {
        self.0.as_ref() == other.0.as_ref()
            || (self.0.len() > other.0.len()
                && self.0.starts_with(other.0.as_ref())
                && self.0.as_bytes()[other.0.len()] == b'/')
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Self {
        Key::new(s)
    }
}

impl From<String> for Key {
    fn from(s: String) -> Self {
        Key(Arc::from(s))
    }
}

impl AsRef<str> for Key {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Key {
    fn borrow(&self) -> &str {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn leaf_and_parent() {
        let k = Key::new("a/b/c");
        assert_eq!(k.leaf(), "c");
        assert_eq!(k.parent(), Some(Key::new("a/b")));
        assert_eq!(Key::new("solo").parent(), None);
        assert_eq!(Key::new("solo").leaf(), "solo");
    }

    #[test]
    fn child_composes_with_parent() {
        let k = Key::new("a/b");
        assert_eq!(k.child("c"), Key::new("a/b/c"));
        assert_eq!(k.child("c").parent(), Some(k));
    }

    #[test]
    fn starts_with_respects_component_boundaries() {
        let root = Key::new("app/menu");
        assert!(Key::new("app/menu/items").starts_with(&root));
        assert!(Key::new("app/menu").starts_with(&root));
        assert!(!Key::new("app/menubar").starts_with(&root));
        assert!(!Key::new("app").starts_with(&root));
    }

    #[test]
    fn borrow_enables_str_lookup() {
        let mut map: BTreeMap<Key, i32> = BTreeMap::new();
        map.insert(Key::new("x/y"), 1);
        assert_eq!(map.get("x/y"), Some(&1));
    }

    #[test]
    fn clone_is_shallow() {
        let k = Key::new("some/long/path");
        let k2 = k.clone();
        assert_eq!(k.as_str().as_ptr(), k2.as_str().as_ptr());
    }
}
