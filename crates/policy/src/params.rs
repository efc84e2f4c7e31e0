//! Policy parameters with a canonical, versioned byte encoding and a
//! stable FNV-1a hash.
//!
//! The hash is the *fingerprint contract* of the policy engine: two
//! parameter sets hash equal **iff** their canonical forms are equal
//! (keys sorted, last write per key wins, insertion order irrelevant),
//! so a served answer's `params_hash` changes exactly when a knob that
//! could change the answer changes.

/// Version byte prefixed to the canonical encoding. Bump it whenever
/// the byte layout below changes — old and new hashes must never
/// collide silently across an encoding change.
pub const PARAMS_ENCODING_VERSION: u8 = 1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice — the workspace's standard cheap stable
/// hash (the admission layer hashes tenant names into seed lanes with it).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Continue an FNV-1a hash state over more bytes: hashing a byte
/// string in pieces gives the same value as hashing it whole.
fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// An ordered string→string parameter map for one policy decision.
///
/// Entries are kept sorted by key; [`PolicyParams::with`] replaces an
/// existing key, so the canonical form — and therefore
/// [`PolicyParams::hash`] — is independent of insertion order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PolicyParams {
    /// `(key, value)` pairs, sorted by key, unique keys.
    entries: Vec<(String, String)>,
}

impl PolicyParams {
    /// The empty parameter set (every policy documents its defaults).
    pub fn new() -> Self {
        PolicyParams::default()
    }

    /// Set `key` to `value`, replacing any previous value (builder
    /// style).
    pub fn with(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.set(key, value);
        self
    }

    /// Set `key` to `value`, replacing any previous value.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<String>) {
        let key = key.into();
        let value = value.into();
        match self.entries.binary_search_by(|(k, _)| k.as_str().cmp(&key)) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (key, value)),
        }
    }

    /// The value for `key`, if set.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.entries[i].1.as_str())
    }

    /// The sorted `(key, value)` entries.
    pub fn entries(&self) -> &[(String, String)] {
        &self.entries
    }

    /// True when no parameter is set.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The canonical byte encoding: the version byte, then for each
    /// entry in key order, the key and value each as a little-endian
    /// `u64` length followed by the UTF-8 bytes. Length-delimited, so
    /// `("ab","c")` and `("a","bc")` cannot collide structurally.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = vec![PARAMS_ENCODING_VERSION];
        for (k, v) in &self.entries {
            for s in [k, v] {
                out.extend_from_slice(&(s.len() as u64).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
        out
    }

    /// The canonical FNV-1a hash of this parameter set:
    /// `fnv1a(&self.canonical_bytes())`, streamed over the same
    /// encoding without building it. Stable across processes,
    /// platforms, and insertion orders; changes iff the canonical
    /// entries change.
    pub fn hash(&self) -> u64 {
        let mut h = fnv1a_extend(FNV_OFFSET, &[PARAMS_ENCODING_VERSION]);
        for (k, v) in &self.entries {
            for s in [k, v] {
                h = fnv1a_extend(h, &(s.len() as u64).to_le_bytes());
                h = fnv1a_extend(h, s.as_bytes());
            }
        }
        h
    }

    /// Compact `k=v,k2=v2` rendering for rationale details (`∅` when
    /// empty).
    pub fn render(&self) -> String {
        if self.entries.is_empty() {
            return "∅".to_string();
        }
        let mut out = String::new();
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push('=');
            out.push_str(v);
        }
        out
    }
}

/// Per-site parameter overrides, keyed by [`PolicyId`]: the value a
/// caller configures once (e.g. `PipelineBuilder::with_policy`) and
/// every decision site consults for its params.
///
/// [`PolicyId`]: crate::PolicyId
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PolicySet {
    /// `(site, params)` overrides, sorted by site id, unique sites.
    overrides: Vec<(crate::PolicyId, PolicyParams)>,
}

impl PolicySet {
    /// An empty set: every site runs on its documented defaults.
    pub fn new() -> Self {
        PolicySet::default()
    }

    /// Override `site`'s params (builder style; last write wins).
    pub fn with(mut self, site: crate::PolicyId, params: PolicyParams) -> Self {
        self.set(site, params);
        self
    }

    /// Override `site`'s params (last write wins).
    pub fn set(&mut self, site: crate::PolicyId, params: PolicyParams) {
        match self.overrides.binary_search_by(|(s, _)| s.cmp(&site)) {
            Ok(i) => self.overrides[i].1 = params,
            Err(i) => self.overrides.insert(i, (site, params)),
        }
    }

    /// The params configured for `site`, or the empty params (site
    /// defaults) when not overridden.
    pub fn params_for(&self, site: crate::PolicyId) -> PolicyParams {
        self.overrides
            .binary_search_by(|(s, _)| s.cmp(&site))
            .ok()
            .map(|i| self.overrides[i].1.clone())
            .unwrap_or_default()
    }

    /// True when no site is overridden.
    pub fn is_empty(&self) -> bool {
        self.overrides.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn policy_set_overrides_one_site_only() {
        let set = PolicySet::new().with(
            crate::PolicyId::UNION_RANK,
            PolicyParams::new().with("tie", "key_desc"),
        );
        assert_eq!(
            set.params_for(crate::PolicyId::UNION_RANK).get("tie"),
            Some("key_desc")
        );
        assert!(set.params_for(crate::PolicyId::REDIRECT).is_empty());
        let set = set.with(crate::PolicyId::UNION_RANK, PolicyParams::new());
        assert!(set.params_for(crate::PolicyId::UNION_RANK).is_empty());
    }

    #[test]
    fn hash_is_insertion_order_independent() {
        let a = PolicyParams::new()
            .with("dir", "max")
            .with("tie", "key_asc");
        let b = PolicyParams::new()
            .with("tie", "key_asc")
            .with("dir", "max");
        assert_eq!(a, b);
        assert_eq!(a.hash(), b.hash());
    }

    #[test]
    fn last_write_per_key_wins() {
        let p = PolicyParams::new()
            .with("tie", "key_asc")
            .with("tie", "key_desc");
        assert_eq!(p.get("tie"), Some("key_desc"));
        assert_eq!(p.entries().len(), 1);
        assert_eq!(p.hash(), PolicyParams::new().with("tie", "key_desc").hash());
    }

    #[test]
    fn different_params_hash_differently() {
        let base = PolicyParams::new();
        let asc = PolicyParams::new().with("tie", "key_asc");
        let desc = PolicyParams::new().with("tie", "key_desc");
        assert_ne!(base.hash(), asc.hash());
        assert_ne!(asc.hash(), desc.hash());
    }

    #[test]
    fn encoding_is_length_delimited() {
        let a = PolicyParams::new().with("ab", "c");
        let b = PolicyParams::new().with("a", "bc");
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn encoding_starts_with_the_version_byte() {
        assert_eq!(
            PolicyParams::new().canonical_bytes(),
            vec![PARAMS_ENCODING_VERSION]
        );
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    /// Value fragments for the properties below: empty, plain,
    /// unicode, and the render separators `=` and `,` themselves.
    const FRAGMENTS: [&str; 8] = ["", "a", "dir", "=", ",", "é", "日本", "k=v,x"];

    /// Params from `(key fragment, value fragment, value fragment)`
    /// triples; keys repeat, so last-write-wins is exercised too.
    fn params_from(spec: &[(usize, usize, usize)]) -> PolicyParams {
        let mut p = PolicyParams::new();
        for &(k, v1, v2) in spec {
            p.set(FRAGMENTS[k], format!("{}{}", FRAGMENTS[v1], FRAGMENTS[v2]));
        }
        p
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The streamed hash is FNV-1a over the documented encoding,
        /// and the one-buffer render is the `k=v` pieces joined by `,`.
        #[test]
        fn streamed_hash_and_render_match_the_buffered_forms(
            spec in proptest::collection::vec((0usize..8, 0usize..8, 0usize..8), 0..6),
        ) {
            let p = params_from(&spec);
            prop_assert_eq!(p.hash(), fnv1a(&p.canonical_bytes()));
            let joined = if p.is_empty() {
                "∅".to_string()
            } else {
                p.entries()
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            prop_assert_eq!(p.render(), joined);
        }
    }

    #[test]
    fn render_is_sorted_and_compact() {
        let p = PolicyParams::new()
            .with("tie", "key_desc")
            .with("dir", "min");
        assert_eq!(p.render(), "dir=min,tie=key_desc");
        assert_eq!(PolicyParams::new().render(), "∅");
    }
}
