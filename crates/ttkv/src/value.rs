//! Configuration setting values.
//!
//! Ocasta abstracts every configuration store (Windows registry, GConf,
//! XML/JSON/INI/PostScript/plain-text files) into key-value pairs. `Value`
//! is the common value type those stores are flattened into.

use std::fmt;
use std::hash::{Hash, Hasher};

/// The value of one configuration setting.
///
/// Values are deliberately simple: scalars plus ordered lists of scalars,
/// which is all the stores the paper supports can express at the leaves once
/// hierarchical names are flattened into key paths.
///
/// `Value` implements `Eq`/`Hash` by comparing floats bitwise, so it can be
/// used in deduplication sets (e.g. screenshot and version dedup).
///
/// # Examples
///
/// ```
/// use ocasta_ttkv::Value;
///
/// let v = Value::from(25);
/// assert_eq!(v.as_int(), Some(25));
/// assert_eq!(v.to_string(), "25");
///
/// let list = Value::List(vec![Value::from("a.doc"), Value::from("b.doc")]);
/// assert_eq!(list.to_string(), "[a.doc, b.doc]");
/// ```
#[derive(Debug, Clone, PartialOrd)]
pub enum Value {
    /// Explicit null (JSON `null`, empty registry value).
    Null,
    /// Boolean flag.
    Bool(bool),
    /// Signed integer (registry DWORD/QWORD, GConf int, …).
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// Text.
    Str(String),
    /// Ordered list of values (registry MULTI_SZ, GConf lists, JSON arrays).
    List(Vec<Value>),
}

impl Value {
    /// Returns the boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the float payload, accepting `Int` as an exact float.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the list payload, if this is a `List`.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// `true` if this is `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// A short name for the value's type, used in diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::List(_) => "list",
        }
    }

    /// Parses a bare token the way the plain-text/INI loggers do: `true`/
    /// `false` become booleans, integers and floats become numbers, anything
    /// else stays a string.
    ///
    /// # Examples
    ///
    /// ```
    /// use ocasta_ttkv::Value;
    ///
    /// assert_eq!(Value::parse_token("true"), Value::Bool(true));
    /// assert_eq!(Value::parse_token("-3"), Value::Int(-3));
    /// assert_eq!(Value::parse_token("2.5"), Value::Float(2.5));
    /// assert_eq!(Value::parse_token("hello"), Value::from("hello"));
    /// ```
    pub fn parse_token(token: &str) -> Value {
        match token {
            "true" => return Value::Bool(true),
            "false" => return Value::Bool(false),
            "null" => return Value::Null,
            _ => {}
        }
        if let Ok(i) = token.parse::<i64>() {
            return Value::Int(i);
        }
        // Only accept float syntax that cannot be confused with plain words
        // ("inf"/"nan" stay strings, matching what config files contain).
        if token
            .chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        {
            if let Ok(f) = token.parse::<f64>() {
                return Value::Float(f);
            }
        }
        Value::Str(token.to_owned())
    }

    /// Approximate in-memory footprint in bytes, used for TTKV size
    /// accounting (Table I's last column).
    pub fn approx_bytes(&self) -> usize {
        match self {
            Value::Null | Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => s.len(),
            Value::List(items) => 8 + items.iter().map(Value::approx_bytes).sum::<usize>(),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::List(a), Value::List(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        core::mem::discriminant(self).hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::List(items) => items.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => f.write_str(s),
            Value::List(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Value::List(iter.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from(5).as_int(), Some(5));
        assert_eq!(Value::from(5).as_float(), Some(5.0));
        assert_eq!(Value::from(2.5).as_float(), Some(2.5));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert!(Value::Null.is_null());
        assert_eq!(Value::from("x").as_int(), None);
    }

    #[test]
    fn parse_token_covers_all_scalars() {
        assert_eq!(Value::parse_token("false"), Value::Bool(false));
        assert_eq!(Value::parse_token("0"), Value::Int(0));
        assert_eq!(Value::parse_token("-1.5e3"), Value::Float(-1500.0));
        assert_eq!(Value::parse_token("null"), Value::Null);
        assert_eq!(Value::parse_token("inf"), Value::from("inf"));
        assert_eq!(Value::parse_token("1.2.3"), Value::from("1.2.3"));
    }

    #[test]
    fn float_equality_is_bitwise() {
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert_ne!(Value::Float(0.0), Value::Float(-0.0));
        assert_ne!(Value::Float(1.0), Value::Int(1));
    }

    #[test]
    fn values_are_hashable() {
        let mut set = HashSet::new();
        set.insert(Value::from(1));
        set.insert(Value::from(1));
        set.insert(Value::from("1"));
        set.insert(Value::Float(1.0));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn display_is_never_empty() {
        for v in [
            Value::Null,
            Value::from(false),
            Value::from(0),
            Value::from(0.0),
            Value::from(""),
            Value::List(vec![]),
        ] {
            if let Value::Str(_) = v {
                // The empty string legitimately renders empty; the Debug
                // representation still identifies it.
                assert_eq!(format!("{v:?}"), "Str(\"\")");
            } else {
                assert!(!v.to_string().is_empty(), "{v:?}");
            }
        }
    }

    #[test]
    fn collect_builds_lists() {
        let v: Value = ["a", "b"].into_iter().collect();
        assert_eq!(v.as_list().unwrap().len(), 2);
        assert_eq!(v.to_string(), "[a, b]");
    }

    #[test]
    fn approx_bytes_is_monotone_in_content() {
        assert!(Value::from("abcdef").approx_bytes() > Value::from("ab").approx_bytes());
        let small = Value::List(vec![Value::from(1)]);
        let big = Value::List(vec![Value::from(1); 10]);
        assert!(big.approx_bytes() > small.approx_bytes());
    }
}
