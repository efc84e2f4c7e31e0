//! Nutritional labels (MithraLabel style).

use rdi_coverage::CoverageAnalyzer;
use rdi_fairness::association::{entropy, table_association};
use rdi_table::{GroupSpec, Role, Table};
use serde::{Json, Serialize};

use crate::fd::fd_violation_rate;
use crate::json_object;
use crate::stats::{profile_table, ColumnProfile};

/// Knobs for label generation.
#[derive(Debug, Clone)]
pub struct LabelConfig {
    /// Coverage threshold τ for the MUP widget.
    pub coverage_threshold: usize,
    /// Association above which a feature is flagged as *biased* (against a
    /// sensitive attribute).
    pub bias_flag: f64,
    /// FD violation rate below which `sensitive → target` is flagged.
    pub fd_flag: f64,
    /// Lift above which a sensitive→target association rule is listed.
    pub rule_lift: f64,
}

impl Default for LabelConfig {
    fn default() -> Self {
        LabelConfig {
            coverage_threshold: 10,
            bias_flag: 0.5,
            fd_flag: 0.05,
            rule_lift: 1.3,
        }
    }
}

/// A dataset nutritional label: the §2 requirements, measured.
#[derive(Debug, Clone)]
pub struct NutritionalLabel {
    /// Rows in the data set.
    pub num_rows: usize,
    /// Per-column profiles.
    pub columns: Vec<ColumnProfile>,
    /// Group fractions per sensitive attribute combination.
    pub group_fractions: Vec<(String, f64)>,
    /// Max − min group fraction (0 = perfect demographic parity of
    /// representation).
    pub representation_disparity: f64,
    /// Normalized entropy of the group distribution (1 = perfectly
    /// diverse).
    pub diversity: f64,
    /// Maximal uncovered patterns at the configured threshold, rendered.
    pub uncovered_patterns: Vec<String>,
    /// Feature associations: (feature, |assoc with target|, max |assoc
    /// with a sensitive attribute|).
    pub feature_associations: Vec<(String, f64, f64)>,
    /// FD violation rate of `sensitive attrs → target` (low = target
    /// nearly determined by group).
    pub sensitive_target_fd_violation: Option<f64>,
    /// High-lift sensitive→target association rules (rendered).
    pub bias_rules: Vec<String>,
    /// Per-attribute diversity over the demographic groups: for each
    /// non-sensitive categorical attribute, the normalized entropy of
    /// group membership *within* its value slices, averaged over values
    /// (1 = every value slice is demographically balanced). MithraLabel's
    /// "most diverse attributes" widget, sorted most diverse first.
    pub attribute_diversity: Vec<(String, f64)>,
    /// Differential missingness: (column, group, group null fraction,
    /// overall null fraction) for every column whose missingness in some
    /// group is at least double the overall rate — the §2.4 signal that a
    /// cleaning choice will hit that group hardest.
    pub differential_missingness: Vec<(String, String, f64, f64)>,
    /// Auto-generated fitness warnings.
    pub warnings: Vec<String>,
    /// Free-form scope-of-use notes supplied by the data collector.
    pub scope_notes: Vec<String>,
}

impl Serialize for NutritionalLabel {
    fn serialize(&self) -> Json {
        json_object([
            ("num_rows", self.num_rows.serialize()),
            ("columns", self.columns.serialize()),
            ("group_fractions", self.group_fractions.serialize()),
            (
                "representation_disparity",
                self.representation_disparity.serialize(),
            ),
            ("diversity", self.diversity.serialize()),
            ("uncovered_patterns", self.uncovered_patterns.serialize()),
            (
                "feature_associations",
                self.feature_associations.serialize(),
            ),
            (
                "sensitive_target_fd_violation",
                self.sensitive_target_fd_violation.serialize(),
            ),
            ("bias_rules", self.bias_rules.serialize()),
            ("attribute_diversity", self.attribute_diversity.serialize()),
            (
                "differential_missingness",
                self.differential_missingness.serialize(),
            ),
            ("warnings", self.warnings.serialize()),
            ("scope_notes", self.scope_notes.serialize()),
        ])
    }
}

impl NutritionalLabel {
    /// Generate a label for a table whose schema carries
    /// [`Role::Sensitive`] / [`Role::Target`] annotations.
    pub fn generate(table: &Table, config: &LabelConfig) -> rdi_table::Result<Self> {
        let columns = profile_table(table)?;
        let sensitive = table.schema().sensitive();
        let targets = table.schema().targets();

        // group representation
        let (group_fractions, representation_disparity, diversity) = if sensitive.is_empty() {
            (Vec::new(), 0.0, 0.0)
        } else {
            let spec = GroupSpec::from_sensitive(table);
            let fr = spec.fractions(table)?;
            let rendered: Vec<(String, f64)> =
                fr.iter().map(|(k, f)| (k.render(&spec), *f)).collect();
            let max = fr.iter().map(|(_, f)| *f).fold(f64::NEG_INFINITY, f64::max);
            let min = fr.iter().map(|(_, f)| *f).fold(f64::INFINITY, f64::min);
            let labels: Vec<String> = (0..table.num_rows())
                .map(|i| spec.key_of(table, i).map(|k| k.to_string()))
                .collect::<rdi_table::Result<_>>()?;
            let h = entropy(&labels);
            let hmax = (fr.len() as f64).ln();
            let diversity = if hmax > 0.0 { h / hmax } else { 1.0 };
            (rendered, max - min, diversity)
        };

        // coverage
        let uncovered_patterns = if sensitive.is_empty() {
            Vec::new()
        } else {
            let analyzer = CoverageAnalyzer::new(table, &sensitive, config.coverage_threshold)?;
            let mups = analyzer.maximal_uncovered_patterns();
            mups.iter().map(|m| analyzer.describe(m)).collect()
        };

        // associations of plain features with target / sensitive
        let mut feature_associations = Vec::new();
        if let Some(target) = targets.first() {
            for f in table.schema().fields() {
                if f.role != Role::Feature {
                    continue;
                }
                let with_target = table_association(table, &f.name, target)?;
                let mut with_sensitive: f64 = 0.0;
                for s in &sensitive {
                    with_sensitive = with_sensitive.max(table_association(table, &f.name, s)?);
                }
                feature_associations.push((f.name.clone(), with_target, with_sensitive));
            }
        }

        // sensitive → target FD
        let sensitive_target_fd_violation = match (sensitive.is_empty(), targets.first()) {
            (false, Some(t)) => Some(fd_violation_rate(table, &sensitive, t)?),
            _ => None,
        };

        // sensitive→target association rules above the lift threshold
        // (only meaningful for low-cardinality targets)
        let target_is_categorical = targets
            .first()
            .map(|t| table.distinct(t).map(|d| d.len() <= 10))
            .transpose()?
            .unwrap_or(false);
        let bias_rules = if sensitive.is_empty() || !target_is_categorical {
            Vec::new()
        } else {
            // gate on statistical significance: high-lift rules on tiny
            // samples are noise, not findings
            let significant = {
                let target = targets[0];
                let xs: Vec<String> = (0..table.num_rows())
                    .map(|i| table.value(i, sensitive[0]).map(|v| v.to_string()))
                    .collect::<rdi_table::Result<_>>()?;
                let ys: Vec<String> = (0..table.num_rows())
                    .map(|i| table.value(i, target).map(|v| v.to_string()))
                    .collect::<rdi_table::Result<_>>()?;
                rdi_fairness::chi_square_test(&xs, &ys).is_some_and(|t| t.p_value < 0.05)
            };
            if significant {
                crate::rules::mine_rules(table, &sensitive, &targets, 0.01, 0.0, config.rule_lift)?
                    .into_iter()
                    .take(5)
                    .map(|r| r.render())
                    .collect()
            } else {
                Vec::new()
            }
        };

        // per-attribute demographic diversity
        let mut attribute_diversity: Vec<(String, f64)> = Vec::new();
        if !sensitive.is_empty() && table.num_rows() > 0 {
            let spec = GroupSpec::from_sensitive(table);
            let num_groups = spec.keys(table)?.len();
            if num_groups > 1 {
                let hmax = (num_groups as f64).ln();
                for f in table.schema().fields() {
                    if f.role != Role::Feature || f.dtype != rdi_table::DataType::Str {
                        continue;
                    }
                    // group-label entropy within each value slice; ordered
                    // slices keep the float sum below bit-stable
                    let col = table.column(&f.name)?;
                    let mut by_value: std::collections::BTreeMap<String, Vec<String>> =
                        std::collections::BTreeMap::new();
                    for i in 0..table.num_rows() {
                        let v = col.value(i);
                        if v.is_null() {
                            continue;
                        }
                        by_value
                            .entry(v.to_string())
                            .or_default()
                            .push(spec.key_of(table, i)?.to_string());
                    }
                    if by_value.is_empty() || by_value.len() > 50 {
                        continue; // high-cardinality attributes are not "slices"
                    }
                    let n_total: usize = by_value.values().map(Vec::len).sum();
                    let avg: f64 = by_value
                        .values()
                        .map(|groups| {
                            let w = groups.len() as f64 / n_total as f64;
                            w * entropy(groups) / hmax
                        })
                        .sum();
                    attribute_diversity.push((f.name.clone(), avg));
                }
                attribute_diversity.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            }
        }

        // differential missingness per group
        let mut differential_missingness = Vec::new();
        if !sensitive.is_empty() && table.num_rows() > 0 {
            let spec = GroupSpec::from_sensitive(table);
            let parts = spec.partition(table)?;
            for f in table.schema().fields() {
                let col = table.column(&f.name)?;
                let overall = col.null_count() as f64 / table.num_rows() as f64;
                if overall == 0.0 {
                    continue;
                }
                for (k, idxs) in &parts {
                    let nulls = idxs.iter().filter(|&&i| col.value(i).is_null()).count();
                    let frac = nulls as f64 / idxs.len().max(1) as f64;
                    if frac >= 2.0 * overall && frac > 0.05 {
                        differential_missingness.push((
                            f.name.clone(),
                            k.render(&spec),
                            frac,
                            overall,
                        ));
                    }
                }
            }
        }

        let mut label = NutritionalLabel {
            num_rows: table.num_rows(),
            columns,
            group_fractions,
            representation_disparity,
            diversity,
            uncovered_patterns,
            feature_associations,
            sensitive_target_fd_violation,
            bias_rules,
            attribute_diversity,
            differential_missingness,
            warnings: Vec::new(),
            scope_notes: Vec::new(),
        };
        label.warnings = label.derive_warnings(config);
        Ok(label)
    }

    fn derive_warnings(&self, config: &LabelConfig) -> Vec<String> {
        let mut w = Vec::new();
        if !self.uncovered_patterns.is_empty() {
            w.push(format!(
                "{} group pattern(s) lack coverage at τ={}: {}",
                self.uncovered_patterns.len(),
                config.coverage_threshold,
                self.uncovered_patterns.join("; ")
            ));
        }
        for (f, _, with_s) in &self.feature_associations {
            if *with_s >= config.bias_flag {
                w.push(format!(
                    "feature `{f}` is strongly associated with a sensitive attribute ({with_s:.2})"
                ));
            }
        }
        if let Some(v) = self.sensitive_target_fd_violation {
            if v <= config.fd_flag {
                w.push(format!(
                    "target is (nearly) functionally determined by sensitive attributes (violation rate {v:.3})"
                ));
            }
        }
        for c in &self.columns {
            let frac = if c.count > 0 {
                c.nulls as f64 / c.count as f64
            } else {
                0.0
            };
            if frac > 0.2 {
                w.push(format!(
                    "column `{}` is {:.0}% missing",
                    c.name,
                    frac * 100.0
                ));
            }
        }
        for rule in &self.bias_rules {
            w.push(format!(
                "association rule links group membership to the target: {rule}"
            ));
        }
        for (col, group, frac, overall) in &self.differential_missingness {
            w.push(format!(
                "column `{col}` is {:.0}% missing for {group} vs {:.0}% overall — cleaning will hit that group hardest",
                frac * 100.0,
                overall * 100.0
            ));
        }
        w
    }

    /// Add a scope-of-use note (collection process, known limitations…).
    pub fn add_scope_note(&mut self, note: impl Into<String>) {
        self.scope_notes.push(note.into());
    }

    /// Render as JSON.
    #[expect(
        clippy::expect_used,
        reason = "serializing an in-memory label of plain scalars cannot fail"
    )]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("label serializes")
    }

    /// Render as markdown.
    pub fn to_markdown(&self) -> String {
        let mut md = String::new();
        md.push_str(&format!("# Nutritional Label ({} rows)\n\n", self.num_rows));
        if !self.scope_notes.is_empty() {
            md.push_str("## Scope of use\n");
            for n in &self.scope_notes {
                md.push_str(&format!("- {n}\n"));
            }
            md.push('\n');
        }
        if !self.warnings.is_empty() {
            md.push_str("## ⚠ Warnings\n");
            for w in &self.warnings {
                md.push_str(&format!("- {w}\n"));
            }
            md.push('\n');
        }
        if !self.group_fractions.is_empty() {
            md.push_str("## Group representation\n");
            md.push_str(&format!(
                "disparity: {:.3}, diversity: {:.3}\n\n",
                self.representation_disparity, self.diversity
            ));
            md.push_str("| group | fraction |\n|---|---|\n");
            for (g, f) in &self.group_fractions {
                md.push_str(&format!("| {g} | {f:.4} |\n"));
            }
            md.push('\n');
        }
        if !self.bias_rules.is_empty() {
            md.push_str("## Bias rules (statistically significant)\n");
            for r in &self.bias_rules {
                md.push_str(&format!("- {r}\n"));
            }
            md.push('\n');
        }
        if !self.attribute_diversity.is_empty() {
            md.push_str("## Attribute diversity over groups\n");
            md.push_str("| attribute | diversity |\n|---|---|\n");
            for (a, d) in &self.attribute_diversity {
                md.push_str(&format!("| {a} | {d:.3} |\n"));
            }
            md.push('\n');
        }
        if !self.feature_associations.is_empty() {
            md.push_str("## Feature associations\n");
            md.push_str("| feature | with target | with sensitive |\n|---|---|---|\n");
            for (f, t, s) in &self.feature_associations {
                md.push_str(&format!("| {f} | {t:.3} | {s:.3} |\n"));
            }
            md.push('\n');
        }
        md.push_str("## Columns\n");
        md.push_str("| column | type | nulls | distinct |\n|---|---|---|---|\n");
        for c in &self.columns {
            md.push_str(&format!(
                "| {} | {} | {} | {} |\n",
                c.name, c.dtype, c.nulls, c.distinct
            ));
        }
        md
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdi_table::{DataType, Field, Schema, Value};

    fn labeled_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("race", DataType::Str).with_role(Role::Sensitive),
            Field::new("x", DataType::Float),
            Field::new("y", DataType::Bool).with_role(Role::Target),
        ]);
        let mut t = Table::new(schema);
        for i in 0..100 {
            let race = if i < 90 { "w" } else { "b" };
            // x is strongly group-determined (biased feature)
            let x = if i < 90 { 1.0 } else { -1.0 };
            let y = i % 2 == 0;
            t.push_row(vec![Value::str(race), Value::Float(x), Value::Bool(y)])
                .unwrap();
        }
        t
    }

    #[test]
    fn label_reports_representation_disparity() {
        let l = NutritionalLabel::generate(&labeled_table(), &LabelConfig::default()).unwrap();
        assert_eq!(l.group_fractions.len(), 2);
        assert!((l.representation_disparity - 0.8).abs() < 1e-9);
        assert!(l.diversity < 0.7);
    }

    #[test]
    fn biased_feature_flagged() {
        let l = NutritionalLabel::generate(&labeled_table(), &LabelConfig::default()).unwrap();
        let x = l
            .feature_associations
            .iter()
            .find(|(f, _, _)| f == "x")
            .unwrap();
        assert!(x.2 > 0.9, "assoc with sensitive = {}", x.2);
        assert!(l
            .warnings
            .iter()
            .any(|w| w.contains("`x`") && w.contains("sensitive")));
    }

    #[test]
    fn coverage_warning_when_group_small() {
        let cfg = LabelConfig {
            coverage_threshold: 20,
            ..LabelConfig::default()
        };
        let l = NutritionalLabel::generate(&labeled_table(), &cfg).unwrap();
        assert!(l.uncovered_patterns.iter().any(|p| p.contains("race=b")));
    }

    #[test]
    fn renderings_contain_key_sections() {
        let mut l = NutritionalLabel::generate(&labeled_table(), &LabelConfig::default()).unwrap();
        l.add_scope_note("Collected from two Chicago hospitals in 2021.");
        let md = l.to_markdown();
        assert!(md.contains("Group representation"));
        assert!(md.contains("Scope of use"));
        let json = l.to_json();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["num_rows"], 100);
    }

    #[test]
    fn attribute_diversity_ranks_balanced_attributes_first() {
        let schema = Schema::new(vec![
            Field::new("race", DataType::Str).with_role(Role::Sensitive),
            Field::new("city", DataType::Str), // balanced across groups
            Field::new("club", DataType::Str), // segregated by group
            Field::new("y", DataType::Bool).with_role(Role::Target),
        ]);
        let mut t = Table::new(schema);
        for i in 0..200 {
            let race = if i % 2 == 0 { "a" } else { "b" };
            let city = ["north", "south"][(i / 2) % 2]; // independent of race
            let club = if race == "a" { "alpha" } else { "beta" }; // race proxy
            t.push_row(vec![
                Value::str(race),
                Value::str(city),
                Value::str(club),
                Value::Bool(i % 3 == 0),
            ])
            .unwrap();
        }
        let l = NutritionalLabel::generate(&t, &LabelConfig::default()).unwrap();
        assert_eq!(l.attribute_diversity.len(), 2);
        assert_eq!(l.attribute_diversity[0].0, "city");
        assert!(l.attribute_diversity[0].1 > 0.95);
        assert_eq!(l.attribute_diversity[1].0, "club");
        assert!(l.attribute_diversity[1].1 < 0.05);
    }

    #[test]
    fn attribute_diversity_is_independent_of_hash_order() {
        // Three value slices: a sum of three weighted entropies rounds
        // differently depending on the order it is taken in.
        let schema = Schema::new(vec![
            Field::new("race", DataType::Str).with_role(Role::Sensitive),
            Field::new("city", DataType::Str),
        ]);
        let mut t = Table::new(schema);
        for i in 0..12 {
            let race = if i < 8 { "a" } else { "b" };
            let city = ["north", "south", "east"][i % 3];
            t.push_row(vec![Value::str(race), Value::str(city)])
                .unwrap();
        }
        let first = NutritionalLabel::generate(&t, &LabelConfig::default()).unwrap();
        for _ in 0..20 {
            let again = NutritionalLabel::generate(&t, &LabelConfig::default()).unwrap();
            assert_eq!(
                again.attribute_diversity[0].1.to_bits(),
                first.attribute_diversity[0].1.to_bits()
            );
        }
    }

    #[test]
    fn bias_rules_gated_on_significance() {
        // strong dependence on a large sample → rule listed
        let schema = Schema::new(vec![
            Field::new("race", DataType::Str).with_role(Role::Sensitive),
            Field::new("y", DataType::Str).with_role(Role::Target),
        ]);
        let mut big = Table::new(schema.clone());
        for i in 0..400 {
            let r = if i % 2 == 0 { "a" } else { "b" };
            let y = if r == "a" { i % 10 != 0 } else { i % 10 < 3 };
            big.push_row(vec![
                Value::str(r),
                Value::str(if y { "yes" } else { "no" }),
            ])
            .unwrap();
        }
        let l = NutritionalLabel::generate(&big, &LabelConfig::default()).unwrap();
        assert!(!l.bias_rules.is_empty());

        // the same apparent pattern on 6 rows → not significant, no rules
        let mut tiny = Table::new(schema);
        for (r, y) in [
            ("a", "yes"),
            ("a", "yes"),
            ("a", "no"),
            ("b", "no"),
            ("b", "no"),
            ("b", "yes"),
        ] {
            tiny.push_row(vec![Value::str(r), Value::str(y)]).unwrap();
        }
        let l = NutritionalLabel::generate(&tiny, &LabelConfig::default()).unwrap();
        assert!(l.bias_rules.is_empty(), "{:?}", l.bias_rules);
    }

    #[test]
    fn differential_missingness_flagged() {
        let schema = Schema::new(vec![
            Field::new("race", DataType::Str).with_role(Role::Sensitive),
            Field::new("x", DataType::Float),
            Field::new("y", DataType::Bool).with_role(Role::Target),
        ]);
        let mut t = Table::new(schema);
        for i in 0..200 {
            let minority = i % 4 == 0;
            let race = if minority { "b" } else { "w" };
            // x missing for 40% of the minority, never for the majority
            let x = if minority && i % 10 < 4 {
                Value::Null
            } else {
                Value::Float(i as f64)
            };
            t.push_row(vec![Value::str(race), x, Value::Bool(i % 2 == 0)])
                .unwrap();
        }
        let l = NutritionalLabel::generate(&t, &LabelConfig::default()).unwrap();
        assert_eq!(l.differential_missingness.len(), 1);
        let (col, group, frac, overall) = &l.differential_missingness[0];
        assert_eq!(col, "x");
        assert!(group.contains("race=b"));
        assert!(*frac > 2.0 * *overall);
        assert!(l
            .warnings
            .iter()
            .any(|w| w.contains("hit that group hardest")));
    }

    #[test]
    fn table_without_roles_still_labels() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let mut t = Table::new(schema);
        t.push_row(vec![Value::Int(1)]).unwrap();
        let l = NutritionalLabel::generate(&t, &LabelConfig::default()).unwrap();
        assert!(l.group_fractions.is_empty());
        assert!(l.feature_associations.is_empty());
        assert!(l.sensitive_target_fd_violation.is_none());
    }
}
