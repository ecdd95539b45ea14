//! Screenshots: the visible state of an application under a trial.
//!
//! The real tool captures pixel screenshots after every trial execution and
//! discards duplicates (§III-B). In this reproduction a screenshot is a
//! structured set of visible UI elements produced by a deterministic render
//! function; equality plays the role of pixel-identity.

use std::collections::BTreeSet;
use std::fmt;

/// The rendered, user-visible state of an application.
///
/// Elements are short strings such as `"menu_bar"`, `"recent_documents:5"`
/// or `"offline_banner"`. Two screenshots are duplicates iff their element
/// sets are equal.
///
/// # Examples
///
/// ```
/// use ocasta_repair::Screenshot;
///
/// let mut shot = Screenshot::new();
/// shot.add("menu_bar");
/// shot.add(format!("recent_documents:{}", 4));
/// assert!(shot.contains("menu_bar"));
/// assert!(shot.contains_prefix("recent_documents:"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Screenshot {
    elements: BTreeSet<String>,
}

impl Screenshot {
    /// Creates an empty (blank) screenshot.
    pub fn new() -> Self {
        Screenshot::default()
    }

    /// Adds a visible element.
    pub fn add(&mut self, element: impl Into<String>) {
        self.elements.insert(element.into());
    }

    /// Adds a visible element when `condition` holds (the common "this
    /// widget is shown iff a setting is on" pattern).
    pub fn add_if(&mut self, condition: bool, element: impl Into<String>) {
        if condition {
            self.add(element);
        }
    }

    /// `true` if the exact element is visible.
    pub fn contains(&self, element: &str) -> bool {
        self.elements.contains(element)
    }

    /// `true` if any element starts with `prefix`.
    pub fn contains_prefix(&self, prefix: &str) -> bool {
        self.elements
            .range(prefix.to_owned()..)
            .next()
            .is_some_and(|e| e.starts_with(prefix))
    }

    /// The element starting with `prefix`, if any.
    pub fn element_with_prefix(&self, prefix: &str) -> Option<&str> {
        self.elements
            .range(prefix.to_owned()..)
            .next()
            .filter(|e| e.starts_with(prefix))
            .map(String::as_str)
    }

    /// Number of visible elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// `true` if nothing is visible.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Iterates visible elements in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.elements.iter().map(String::as_str)
    }
}

impl fmt::Display for Screenshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.elements.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

impl<S: Into<String>> FromIterator<S> for Screenshot {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        Screenshot {
            elements: iter.into_iter().map(Into::into).collect(),
        }
    }
}

/// The screenshot gallery the user periodically checks: stores only unique
/// screenshots, discarding any that equal the erroneous baseline or an
/// already-recorded shot (§III-B).
#[derive(Debug, Clone, Default)]
pub struct ScreenshotGallery {
    baseline: Option<Screenshot>,
    unique: Vec<Screenshot>,
}

impl ScreenshotGallery {
    /// Creates a gallery with the erroneous screenshot as baseline.
    pub fn with_baseline(baseline: Screenshot) -> Self {
        ScreenshotGallery {
            baseline: Some(baseline),
            unique: Vec::new(),
        }
    }

    /// Records a trial screenshot. Returns `true` if it was new (kept),
    /// `false` if it duplicated the baseline or a previous screenshot.
    pub fn record(&mut self, shot: Screenshot) -> bool {
        if self.baseline.as_ref() == Some(&shot) || self.unique.contains(&shot) {
            return false;
        }
        self.unique.push(shot);
        true
    }

    /// The unique screenshots recorded so far, in recording order.
    pub fn screenshots(&self) -> &[Screenshot] {
        &self.unique
    }

    /// Number of unique screenshots (what the user must examine —
    /// Table IV's `Screens` column).
    pub fn len(&self) -> usize {
        self.unique.len()
    }

    /// `true` if no unique screenshot has been recorded.
    pub fn is_empty(&self) -> bool {
        self.unique.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_ignores_insertion_order() {
        let a: Screenshot = ["x", "y"].into_iter().collect();
        let mut b = Screenshot::new();
        b.add("y");
        b.add("x");
        assert_eq!(a, b);
    }

    #[test]
    fn prefix_queries() {
        let shot: Screenshot = ["recent:5", "menu_bar"].into_iter().collect();
        assert!(shot.contains_prefix("recent:"));
        assert_eq!(shot.element_with_prefix("recent:"), Some("recent:5"));
        assert_eq!(shot.element_with_prefix("toolbar"), None);
        assert!(!shot.contains_prefix("zzz"));
    }

    #[test]
    fn add_if_respects_condition() {
        let mut shot = Screenshot::new();
        shot.add_if(false, "hidden");
        shot.add_if(true, "shown");
        assert!(!shot.contains("hidden"));
        assert!(shot.contains("shown"));
        assert_eq!(shot.len(), 1);
    }

    #[test]
    fn gallery_deduplicates_against_baseline_and_history() {
        let broken: Screenshot = ["window"].into_iter().collect();
        let mut gallery = ScreenshotGallery::with_baseline(broken.clone());
        assert!(
            !gallery.record(broken.clone()),
            "baseline duplicate dropped"
        );
        let healthy: Screenshot = ["window", "menu_bar"].into_iter().collect();
        assert!(gallery.record(healthy.clone()));
        assert!(!gallery.record(healthy), "repeat dropped");
        assert_eq!(gallery.len(), 1);
    }

    #[test]
    fn display_lists_elements() {
        let shot: Screenshot = ["b", "a"].into_iter().collect();
        assert_eq!(shot.to_string(), "[a, b]");
    }
}
