//! Datasheets for Datasets (Gebru et al., CACM 2021).
//!
//! A datasheet documents a data set's motivation, composition, collection
//! process, preprocessing, uses, distribution, and maintenance through a
//! standard question template. This module carries the template and
//! renders filled sheets; the structured sections keep the document
//! machine-checkable (unanswered questions are visible).

use serde::{Json, Serialize};

use crate::json_object;

/// One datasheet question, optionally answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuestionAnswer {
    /// The question text.
    pub question: String,
    /// The answer, if provided.
    pub answer: Option<String>,
}

/// A datasheet section (e.g. "Motivation").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Section title.
    pub title: String,
    /// Questions in the section.
    pub questions: Vec<QuestionAnswer>,
}

/// A full datasheet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datasheet {
    /// Data set name.
    pub dataset_name: String,
    /// The sections.
    pub sections: Vec<Section>,
}

impl Serialize for QuestionAnswer {
    fn serialize(&self) -> Json {
        json_object([
            ("question", self.question.serialize()),
            ("answer", self.answer.serialize()),
        ])
    }
}

impl Serialize for Section {
    fn serialize(&self) -> Json {
        json_object([
            ("title", self.title.serialize()),
            ("questions", self.questions.serialize()),
        ])
    }
}

impl Serialize for Datasheet {
    fn serialize(&self) -> Json {
        json_object([
            ("dataset_name", self.dataset_name.serialize()),
            ("sections", self.sections.serialize()),
        ])
    }
}

impl Datasheet {
    /// The standard Gebru et al. template (abridged to the questions most
    /// relevant to integration provenance).
    pub fn template(dataset_name: impl Into<String>) -> Self {
        let q = |s: &str| QuestionAnswer {
            question: s.to_string(),
            answer: None,
        };
        Datasheet {
            dataset_name: dataset_name.into(),
            sections: vec![
                Section {
                    title: "Motivation".into(),
                    questions: vec![
                        q("For what purpose was the dataset created?"),
                        q("Who created the dataset and on behalf of which entity?"),
                    ],
                },
                Section {
                    title: "Composition".into(),
                    questions: vec![
                        q("What do the instances represent?"),
                        q("Does the dataset identify any subpopulations (e.g., by age, gender)?"),
                        q("Is any information missing from individual instances?"),
                    ],
                },
                Section {
                    title: "Collection process".into(),
                    questions: vec![
                        q("How was the data associated with each instance acquired?"),
                        q("What was the sampling strategy (e.g., deterministic, probabilistic)?"),
                        q("Over what timeframe was the data collected?"),
                    ],
                },
                Section {
                    title: "Preprocessing / cleaning / labeling".into(),
                    questions: vec![
                        q("Was any preprocessing/cleaning/labeling of the data done?"),
                        q("Was the raw data saved in addition to the cleaned data?"),
                    ],
                },
                Section {
                    title: "Uses".into(),
                    questions: vec![
                        q("What (other) tasks could the dataset be used for?"),
                        q("Are there tasks for which the dataset should not be used?"),
                    ],
                },
            ],
        }
    }

    /// Answer a question by (section, index).
    pub fn answer(&mut self, section: &str, index: usize, answer: impl Into<String>) -> bool {
        for s in &mut self.sections {
            if s.title == section {
                if let Some(qa) = s.questions.get_mut(index) {
                    qa.answer = Some(answer.into());
                    return true;
                }
            }
        }
        false
    }

    /// Number of unanswered questions.
    pub fn unanswered(&self) -> usize {
        self.sections
            .iter()
            .flat_map(|s| &s.questions)
            .filter(|q| q.answer.is_none())
            .count()
    }

    /// True iff every question is answered.
    pub fn complete(&self) -> bool {
        self.unanswered() == 0
    }

    /// Render as markdown (unanswered questions marked).
    pub fn to_markdown(&self) -> String {
        let mut md = format!("# Datasheet: {}\n\n", self.dataset_name);
        for s in &self.sections {
            md.push_str(&format!("## {}\n\n", s.title));
            for q in &s.questions {
                md.push_str(&format!("**{}**\n\n", q.question));
                match &q.answer {
                    Some(a) => md.push_str(&format!("{a}\n\n")),
                    None => md.push_str("_unanswered_\n\n"),
                }
            }
        }
        md
    }

    /// Render as JSON.
    #[expect(
        clippy::expect_used,
        reason = "serializing an in-memory datasheet of plain strings cannot fail"
    )]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("datasheet serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_has_standard_sections() {
        let d = Datasheet::template("chicago-health");
        let titles: Vec<&str> = d.sections.iter().map(|s| s.title.as_str()).collect();
        assert!(titles.contains(&"Motivation"));
        assert!(titles.contains(&"Collection process"));
        assert!(d.unanswered() > 5);
        assert!(!d.complete());
    }

    #[test]
    fn answering_reduces_unanswered() {
        let mut d = Datasheet::template("x");
        let before = d.unanswered();
        assert!(d.answer("Motivation", 0, "Early detection of breast cancer."));
        assert_eq!(d.unanswered(), before - 1);
        assert!(!d.answer("Nonexistent", 0, "nope"));
        assert!(!d.answer("Motivation", 99, "nope"));
    }

    #[test]
    fn markdown_marks_unanswered() {
        let mut d = Datasheet::template("x");
        d.answer("Motivation", 0, "Testing.");
        let md = d.to_markdown();
        assert!(md.contains("Testing."));
        assert!(md.contains("_unanswered_"));
    }

    #[test]
    fn json_roundtrip() {
        let d = Datasheet::template("x");
        let j = d.to_json();
        let back = serde_json::from_str(&j).unwrap();
        assert_eq!(back, d.serialize());
    }
}
