//! Patterns over categorical attributes and the pattern lattice.

/// A pattern over `d` categorical attributes: each position is either a
/// wildcard (`None`, written `X`) or a specific value index into that
/// attribute's domain.
///
/// The lattice is ordered by *generality*: replacing a specified value with
/// a wildcard yields a **parent** (more general, matches a superset of
/// tuples); specifying a wildcard yields a **child**.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pattern(pub Vec<Option<u16>>);

impl Pattern {
    /// The all-wildcard root pattern of dimension `d`.
    pub fn root(d: usize) -> Self {
        Pattern(vec![None; d])
    }

    /// Dimension (number of attributes).
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Number of specified (non-wildcard) positions — the pattern's level
    /// in the lattice.
    pub fn level(&self) -> usize {
        self.0.iter().filter(|x| x.is_some()).count()
    }

    /// True iff `self` matches the given full value assignment.
    pub fn matches(&self, cell: &[u16]) -> bool {
        debug_assert_eq!(cell.len(), self.dim());
        self.0
            .iter()
            .zip(cell)
            .all(|(p, c)| p.is_none_or(|v| v == *c))
    }

    /// True iff `self` is equal to or more general than `other` (i.e.
    /// every tuple matching `other` also matches `self`).
    pub fn generalizes(&self, other: &Pattern) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        self.0.iter().zip(&other.0).all(|(a, b)| match (a, b) {
            (None, _) => true,
            (Some(x), Some(y)) => x == y,
            (Some(_), None) => false,
        })
    }

    /// All parents: each specified position replaced by a wildcard.
    pub fn parents(&self) -> Vec<Pattern> {
        let mut out = Vec::new();
        for (i, v) in self.0.iter().enumerate() {
            if v.is_some() {
                let mut p = self.clone();
                p.0[i] = None;
                out.push(p);
            }
        }
        out
    }

    /// Children obtained by specifying attribute positions **strictly
    /// after** the last specified position (the canonical "rule-based"
    /// expansion of Pattern-Breaker, which generates each pattern exactly
    /// once from a designated parent).
    pub fn canonical_children(&self, cardinalities: &[u16]) -> Vec<Pattern> {
        debug_assert_eq!(cardinalities.len(), self.dim());
        let start = self
            .0
            .iter()
            .rposition(|x| x.is_some())
            .map_or(0, |i| i + 1);
        let mut out = Vec::new();
        for (i, &card) in cardinalities.iter().enumerate().skip(start) {
            for v in 0..card {
                let mut c = self.clone();
                c.0[i] = Some(v);
                out.push(c);
            }
        }
        out
    }

    /// Two patterns are *compatible* if some full assignment matches both
    /// (no position where both specify different values).
    pub fn compatible(&self, other: &Pattern) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| match (a, b) {
            (Some(x), Some(y)) => x == y,
            _ => true,
        })
    }

    /// The most general pattern matching everything both patterns match
    /// (positionwise merge), if they are compatible.
    pub fn merge(&self, other: &Pattern) -> Option<Pattern> {
        if !self.compatible(other) {
            return None;
        }
        Some(Pattern(
            self.0.iter().zip(&other.0).map(|(a, b)| a.or(*b)).collect(),
        ))
    }
}

impl std::fmt::Display for Pattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let parts: Vec<String> = self
            .0
            .iter()
            .map(|p| match p {
                None => "X".to_string(),
                Some(v) => v.to_string(),
            })
            .collect();
        write!(f, "[{}]", parts.join("|"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(spec: &[i32]) -> Pattern {
        Pattern(
            spec.iter()
                .map(|&x| if x < 0 { None } else { Some(x as u16) })
                .collect(),
        )
    }

    #[test]
    fn matches_full_assignments() {
        let pat = p(&[-1, 1, 0]);
        assert!(pat.matches(&[5, 1, 0]));
        assert!(!pat.matches(&[5, 0, 0]));
        assert_eq!(pat.level(), 2);
    }

    #[test]
    fn generalization_order() {
        let gen = p(&[-1, 1, -1]);
        let spec = p(&[0, 1, 1]);
        assert!(gen.generalizes(&spec));
        assert!(!spec.generalizes(&gen));
        assert!(gen.generalizes(&gen));
        // incomparable patterns
        let other = p(&[0, -1, -1]);
        assert!(!gen.generalizes(&other));
        assert!(!other.generalizes(&gen));
    }

    #[test]
    fn parents_strip_one_position() {
        let pat = p(&[0, -1, 2]);
        let ps = pat.parents();
        assert_eq!(ps.len(), 2);
        assert!(ps.contains(&p(&[-1, -1, 2])));
        assert!(ps.contains(&p(&[0, -1, -1])));
        assert!(ps.iter().all(|q| q.generalizes(&pat)));
        assert!(Pattern::root(3).parents().is_empty());
    }

    #[test]
    fn canonical_children_partition_the_lattice() {
        // every non-root pattern is generated exactly once
        let cards = vec![2u16, 2, 2];
        let mut all = vec![Pattern::root(3)];
        let mut frontier = vec![Pattern::root(3)];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for q in &frontier {
                next.extend(q.canonical_children(&cards));
            }
            all.extend(next.iter().cloned());
            frontier = next;
        }
        let total = all.len();
        all.sort();
        all.dedup();
        assert_eq!(total, all.len(), "duplicate generation");
        // lattice size = Π (card_i + 1) = 27
        assert_eq!(total, 27);
    }

    #[test]
    fn compatible_and_merge() {
        let a = p(&[0, -1, -1]);
        let b = p(&[-1, 1, -1]);
        assert!(a.compatible(&b));
        assert_eq!(a.merge(&b), Some(p(&[0, 1, -1])));
        let c = p(&[1, -1, -1]);
        assert!(!a.compatible(&c));
        assert_eq!(a.merge(&c), None);
    }

    #[test]
    fn display_renders_wildcards() {
        assert_eq!(p(&[-1, 3, -1]).to_string(), "[X|3|X]");
    }
}
