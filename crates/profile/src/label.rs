//! Nutritional labels (MithraLabel style).

use std::collections::BTreeMap;

use rdi_coverage::{CoverageAnalyzer, PatternCounter};
use rdi_fairness::association::{counts_entropy, table_association};
use rdi_table::{ColumnCodes, EncodedColumns, GroupSpec, Role, Table};
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

/// A table's demographic groups under its sensitive attributes, read
/// from their codes. Group ids follow [`rdi_table::GroupKey`] order, and
/// a group is represented by its first row, the key a
/// `GroupKey`-keyed map of the rows would keep.
struct Groups<'a> {
    table: &'a Table,
    spec: GroupSpec,
    /// Per row, its group id.
    of_row: Vec<usize>,
    /// Per group, its first row.
    first: Vec<usize>,
    /// Per group, its row count.
    count: Vec<usize>,
    /// Per group, its key rendered `attr=value, …`.
    rendered: Vec<String>,
    /// Per group, its first row's label (`GroupKey`'s `Display`).
    label: Vec<String>,
    /// The cells of the sensitive `Int` columns: `Int`s equal as `f64`
    /// share a group but not a label.
    ints: Vec<&'a [Option<i64>]>,
}

impl<'a> Groups<'a> {
    fn new(table: &'a Table, codes: &EncodedColumns) -> rdi_table::Result<Self> {
        let spec = GroupSpec::from_sensitive(table);
        let columns = spec
            .attributes
            .iter()
            .map(|a| codes.codes(a))
            .collect::<rdi_table::Result<Vec<_>>>()?;
        // code tuple (null first, as `Value` orders it) -> first-seen id
        let mut ids: BTreeMap<Vec<u32>, usize> = BTreeMap::new();
        let mut firsts: Vec<usize> = Vec::new();
        let mut key: Vec<u32> = Vec::with_capacity(columns.len());
        let mut of_row: Vec<usize> = (0..table.num_rows())
            .map(|i| {
                key.clear();
                key.extend(columns.iter().map(|c| c.codes[i].map_or(0, |x| x + 1)));
                if let Some(&id) = ids.get(key.as_slice()) {
                    return id;
                }
                ids.insert(key.clone(), firsts.len());
                firsts.push(i);
                firsts.len() - 1
            })
            .collect();
        // renumber first-seen ids into key order
        let mut rank = vec![0usize; firsts.len()];
        let first: Vec<usize> = ids
            .into_values()
            .enumerate()
            .map(|(r, id)| {
                rank[id] = r;
                firsts[id]
            })
            .collect();
        let mut count = vec![0usize; first.len()];
        for g in &mut of_row {
            *g = rank[*g];
            count[*g] += 1;
        }
        let mut rendered = Vec::with_capacity(first.len());
        let mut label = Vec::with_capacity(first.len());
        for &i in &first {
            let key = spec.key_of(table, i)?;
            rendered.push(key.render(&spec));
            label.push(key.to_string());
        }
        let ints = spec
            .attributes
            .iter()
            .filter_map(|a| table.column(a).ok()?.as_int_slice())
            .collect();
        Ok(Groups {
            table,
            spec,
            of_row,
            first,
            count,
            rendered,
            label,
            ints,
        })
    }

    /// How many of `rows` carry each row label (`GroupKey`'s `Display`
    /// of the row's own cells), in label order — the counts an entropy
    /// over the rows' labels sums. A row takes its group's label unless
    /// one of its `Int` cells differs from the group's first row.
    fn label_counts(&self, rows: impl Iterator<Item = usize>) -> rdi_table::Result<Vec<f64>> {
        let mut per_group = vec![0usize; self.first.len()];
        let mut own: Vec<String> = Vec::new();
        for i in rows {
            let g = self.of_row[i];
            let f = self.first[g];
            if self.ints.iter().all(|c| c[i] == c[f]) {
                per_group[g] += 1;
            } else {
                own.push(self.spec.key_of(self.table, i)?.to_string());
            }
        }
        let mut counts: BTreeMap<&str, f64> = BTreeMap::new();
        for l in &own {
            *counts.entry(l).or_insert(0.0) += 1.0;
        }
        for (l, &n) in self.label.iter().zip(&per_group) {
            if n > 0 {
                *counts.entry(l).or_insert(0.0) += n as f64;
            }
        }
        Ok(counts.into_values().collect())
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
    ///
    /// Every column is dictionary-encoded once: column profiles, group
    /// representation, coverage, attribute diversity and differential
    /// missingness read the codes, not the cells.
    pub fn generate(table: &Table, config: &LabelConfig) -> rdi_table::Result<Self> {
        let codes = EncodedColumns::of(table);
        let columns = profile_table(table, &codes)?;
        let sensitive = table.schema().sensitive();
        let targets = table.schema().targets();
        let groups = if sensitive.is_empty() {
            None
        } else {
            Some(Groups::new(table, &codes)?)
        };

        // group representation
        let (group_fractions, representation_disparity, diversity) = match &groups {
            None => (Vec::new(), 0.0, 0.0),
            Some(g) => {
                let n = table.num_rows() as f64;
                let fr: Vec<f64> = g
                    .count
                    .iter()
                    .map(|&c| if n > 0.0 { c as f64 / n } else { 0.0 })
                    .collect();
                let max = fr.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let min = fr.iter().copied().fold(f64::INFINITY, f64::min);
                let h = counts_entropy(&g.label_counts(0..table.num_rows())?);
                let hmax = (fr.len() as f64).ln();
                let diversity = if hmax > 0.0 { h / hmax } else { 1.0 };
                (
                    g.rendered.iter().cloned().zip(fr).collect(),
                    max - min,
                    diversity,
                )
            }
        };

        // coverage
        let uncovered_patterns = if sensitive.is_empty() {
            Vec::new()
        } else {
            let counter = PatternCounter::from_codes(table.num_rows(), &sensitive, &codes)?;
            let analyzer = CoverageAnalyzer::from_counter(counter, config.coverage_threshold);
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
            .map(|t| codes.codes(t).map(|c| c.distinct.len() <= 10))
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
        if let Some(g) = groups.as_ref().filter(|_| table.num_rows() > 0) {
            let num_groups = g.count.len();
            if num_groups > 1 {
                let hmax = (num_groups as f64).ln();
                for f in table.schema().fields() {
                    if f.role != Role::Feature || f.dtype != rdi_table::DataType::Str {
                        continue;
                    }
                    // group-label entropy within each value slice, slices
                    // in value order so the float sum below is bit-stable
                    let col = codes.codes(&f.name)?;
                    if col.distinct.is_empty() || col.distinct.len() > 50 {
                        continue; // high-cardinality attributes are not "slices"
                    }
                    let mut slices: Vec<Vec<usize>> = vec![Vec::new(); col.distinct.len()];
                    for (i, code) in col.codes.iter().enumerate() {
                        if let Some(code) = code {
                            slices[*code as usize].push(i);
                        }
                    }
                    let n_total: usize = slices.iter().map(Vec::len).sum();
                    let mut avg = Vec::with_capacity(slices.len());
                    for rows in &slices {
                        let w = rows.len() as f64 / n_total as f64;
                        let h = counts_entropy(&g.label_counts(rows.iter().copied())?);
                        avg.push(w * h / hmax);
                    }
                    attribute_diversity.push((f.name.clone(), avg.into_iter().sum()));
                }
                attribute_diversity.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            }
        }

        // differential missingness per group
        let mut differential_missingness = Vec::new();
        if let Some(g) = groups.as_ref().filter(|_| table.num_rows() > 0) {
            for f in table.schema().fields() {
                let col = codes.codes(&f.name)?;
                let mut nulls = vec![0usize; g.count.len()];
                for (i, code) in col.codes.iter().enumerate() {
                    if code.is_none() {
                        nulls[g.of_row[i]] += 1;
                    }
                }
                let overall = nulls.iter().sum::<usize>() as f64 / table.num_rows() as f64;
                if overall == 0.0 {
                    continue;
                }
                for ((rendered, &size), &nulls) in g.rendered.iter().zip(&g.count).zip(&nulls) {
                    let frac = nulls as f64 / size.max(1) as f64;
                    if frac >= 2.0 * overall && frac > 0.05 {
                        differential_missingness.push((
                            f.name.clone(),
                            rendered.clone(),
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
    use proptest::prelude::*;
    use rdi_fairness::association::entropy;
    use rdi_table::{DataType, Field, Schema, Value};

    /// The column profile as defined before dictionary encoding: a
    /// `Table::distinct` count and a `HashMap<Value, usize>` of cells.
    fn reference_profile(table: &Table, name: &str) -> ColumnProfile {
        let col = table.column(name).unwrap();
        let mut counts: std::collections::HashMap<Value, usize> = Default::default();
        for i in 0..table.num_rows() {
            let v = col.value(i);
            if !v.is_null() {
                *counts.entry(v).or_insert(0) += 1;
            }
        }
        let mut top: Vec<(String, usize)> = counts
            .into_iter()
            .map(|(v, c)| (v.to_string(), c))
            .collect();
        top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        top.truncate(5);
        let mut want = crate::profile_column(table, name).unwrap();
        want.distinct = table.distinct(name).unwrap().len();
        want.top_values = top;
        want
    }

    /// Group fractions, disparity and diversity as defined before: a
    /// `GroupSpec::fractions` pass and the entropy of every row's
    /// `key_of(..).to_string()`.
    fn reference_groups(table: &Table) -> (Vec<(String, f64)>, f64, f64) {
        let spec = GroupSpec::from_sensitive(table);
        let fr = spec.fractions(table).unwrap();
        let rendered: Vec<(String, f64)> = fr.iter().map(|(k, f)| (k.render(&spec), *f)).collect();
        let max = fr.iter().map(|(_, f)| *f).fold(f64::NEG_INFINITY, f64::max);
        let min = fr.iter().map(|(_, f)| *f).fold(f64::INFINITY, f64::min);
        let labels: Vec<String> = (0..table.num_rows())
            .map(|i| spec.key_of(table, i).unwrap().to_string())
            .collect();
        let hmax = (fr.len() as f64).ln();
        let h = entropy(&labels);
        (rendered, max - min, if hmax > 0.0 { h / hmax } else { 1.0 })
    }

    /// Attribute diversity as defined before: per-row value strings and
    /// group labels gathered into a `BTreeMap<String, Vec<String>>`.
    fn reference_attribute_diversity(table: &Table) -> Vec<(String, f64)> {
        let spec = GroupSpec::from_sensitive(table);
        let num_groups = spec.keys(table).unwrap().len();
        let mut out: Vec<(String, f64)> = Vec::new();
        if num_groups <= 1 {
            return out;
        }
        let hmax = (num_groups as f64).ln();
        for f in table.schema().fields() {
            if f.role != Role::Feature || f.dtype != DataType::Str {
                continue;
            }
            let col = table.column(&f.name).unwrap();
            let mut by_value: BTreeMap<String, Vec<String>> = BTreeMap::new();
            for i in 0..table.num_rows() {
                let v = col.value(i);
                if !v.is_null() {
                    by_value
                        .entry(v.to_string())
                        .or_default()
                        .push(spec.key_of(table, i).unwrap().to_string());
                }
            }
            if by_value.is_empty() || by_value.len() > 50 {
                continue;
            }
            let n_total: usize = by_value.values().map(Vec::len).sum();
            let avg: f64 = by_value
                .values()
                .map(|groups| groups.len() as f64 / n_total as f64 * entropy(groups) / hmax)
                .sum();
            out.push((f.name.clone(), avg));
        }
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Differential missingness as defined before: a
    /// `GroupSpec::partition` and a per-row null check.
    fn reference_differential_missingness(table: &Table) -> Vec<(String, String, f64, f64)> {
        let spec = GroupSpec::from_sensitive(table);
        let parts = spec.partition(table).unwrap();
        let mut out = Vec::new();
        for f in table.schema().fields() {
            let col = table.column(&f.name).unwrap();
            let overall = col.null_count() as f64 / table.num_rows() as f64;
            if overall == 0.0 {
                continue;
            }
            for (k, idxs) in &parts {
                let nulls = idxs.iter().filter(|&&i| col.value(i).is_null()).count();
                let frac = nulls as f64 / idxs.len().max(1) as f64;
                if frac >= 2.0 * overall && frac > 0.05 {
                    out.push((f.name.clone(), k.render(&spec), frac, overall));
                }
            }
        }
        out
    }

    fn pick(pool: Vec<Value>) -> impl Strategy<Value = Value> {
        (0..pool.len()).prop_map(move |i| pool[i].clone())
    }

    /// Small tables over two sensitive attributes (an `Int` with 2^53
    /// and 2^53+1, which are equal as `f64`, and ints whose string
    /// order is not their numeric order; a `Str` with `""` and a value
    /// holding `", "`), a categorical feature, a float feature with
    /// both signed zeros, and a boolean target — nulls everywhere.
    fn arb_table() -> impl Strategy<Value = Table> {
        let int = pick(vec![
            Value::Int(9),
            Value::Int(10),
            Value::Int(-1),
            Value::Int(1 << 53),
            Value::Int((1 << 53) + 1),
            Value::Null,
        ]);
        let s = pick(vec![
            Value::str("a"),
            Value::str(""),
            Value::str("a, b"),
            Value::Null,
        ]);
        let feature = pick(vec![
            Value::str("x"),
            Value::str("y"),
            Value::str("z"),
            Value::Null,
        ]);
        let float = pick(vec![
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(2.5),
            Value::Float(10.0),
            Value::Null,
        ]);
        let target = pick(vec![Value::Bool(true), Value::Bool(false), Value::Null]);
        prop::collection::vec((int, s, feature, float, target), 0..40).prop_map(|rows| {
            let mut t = Table::new(Schema::new(vec![
                Field::new("n", DataType::Int).with_role(Role::Sensitive),
                Field::new("s", DataType::Str).with_role(Role::Sensitive),
                Field::new("f", DataType::Str),
                Field::new("x", DataType::Float),
                Field::new("y", DataType::Bool).with_role(Role::Target),
            ]));
            for (n, s, f, x, y) in rows {
                t.push_row(vec![n, s, f, x, y]).unwrap();
            }
            t
        })
    }

    /// Values compared through `Debug`, which tells apart every bit
    /// pattern of the floats these widgets hold (`-0.0`, `0.0`, `-inf`).
    fn bits<T: std::fmt::Debug>(x: &T) -> String {
        format!("{x:?}")
    }

    proptest! {
        /// Every widget the encoded label computes equals its per-row
        /// definition, bit for bit.
        #[test]
        fn encoded_widgets_match_their_per_row_definitions(
            t in arb_table(),
            tau in 1usize..6,
        ) {
            let config = LabelConfig { coverage_threshold: tau, ..LabelConfig::default() };
            let label = NutritionalLabel::generate(&t, &config).unwrap();
            let columns: Vec<ColumnProfile> = ["n", "s", "f", "x", "y"]
                .iter()
                .map(|c| reference_profile(&t, c))
                .collect();
            prop_assert_eq!(bits(&label.columns), bits(&columns));
            let (fractions, disparity, diversity) = reference_groups(&t);
            prop_assert_eq!(bits(&label.group_fractions), bits(&fractions));
            prop_assert_eq!(bits(&label.representation_disparity), bits(&disparity));
            prop_assert_eq!(bits(&label.diversity), bits(&diversity));
            let analyzer = CoverageAnalyzer::new(&t, &["n", "s"], tau).unwrap();
            let uncovered: Vec<String> = analyzer
                .maximal_uncovered_patterns()
                .iter()
                .map(|m| analyzer.describe(m))
                .collect();
            prop_assert_eq!(&label.uncovered_patterns, &uncovered);
            if t.num_rows() > 0 {
                prop_assert_eq!(
                    bits(&label.attribute_diversity),
                    bits(&reference_attribute_diversity(&t))
                );
                prop_assert_eq!(
                    bits(&label.differential_missingness),
                    bits(&reference_differential_missingness(&t))
                );
            }
        }
    }

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
