//! Byte pins for the two machine-readable §3.2 outputs: the nutritional
//! label and the datasheet JSON. Downstream tools parse these bytes, so
//! any change to field order, number formatting or null handling must
//! show up here as a deliberate edit.

use rdi_profile::{Datasheet, LabelConfig, NutritionalLabel};
use rdi_table::{DataType, Field, Role, Schema, Table, Value};

fn small_table() -> Table {
    let schema = Schema::new(vec![
        Field::new("race", DataType::Str).with_role(Role::Sensitive),
        Field::new("city", DataType::Str),
        Field::new("income", DataType::Float),
        Field::new("y", DataType::Bool).with_role(Role::Target),
    ]);
    let mut t = Table::new(schema);
    for i in 0..12 {
        let race = if i < 8 { "a" } else { "b" };
        let city = ["north", "south"][(i / 2) % 2];
        let income = if i >= 10 {
            Value::Null
        } else {
            Value::Float(10.0 + 2.5 * i as f64)
        };
        t.push_row(vec![
            Value::str(race),
            Value::str(city),
            income,
            Value::Bool(i % 2 == 0),
        ])
        .unwrap();
    }
    t
}

#[test]
fn label_json_bytes_are_pinned() {
    let cfg = LabelConfig {
        coverage_threshold: 5,
        ..LabelConfig::default()
    };
    let mut label = NutritionalLabel::generate(&small_table(), &cfg).unwrap();
    label.add_scope_note("Synthetic \"pin\" data.");
    assert_eq!(label.to_json(), LABEL);
}

#[test]
fn datasheet_json_bytes_are_pinned() {
    let mut sheet = Datasheet::template("pin");
    assert!(sheet.answer("Motivation", 0, "Byte pinning."));
    assert_eq!(sheet.to_json(), DATASHEET);
}

const LABEL: &str = r#"{
  "num_rows": 12,
  "columns": [
    {
      "name": "race",
      "dtype": "str",
      "count": 12,
      "nulls": 0,
      "distinct": 2,
      "numeric": null,
      "top_values": [
        [
          "a",
          8
        ],
        [
          "b",
          4
        ]
      ]
    },
    {
      "name": "city",
      "dtype": "str",
      "count": 12,
      "nulls": 0,
      "distinct": 2,
      "numeric": null,
      "top_values": [
        [
          "north",
          6
        ],
        [
          "south",
          6
        ]
      ]
    },
    {
      "name": "income",
      "dtype": "float",
      "count": 12,
      "nulls": 2,
      "distinct": 10,
      "numeric": {
        "min": 10.0,
        "max": 32.5,
        "mean": 21.25,
        "std_dev": 7.180703308172536
      },
      "top_values": [
        [
          "10",
          1
        ],
        [
          "12.5",
          1
        ],
        [
          "15",
          1
        ],
        [
          "17.5",
          1
        ],
        [
          "20",
          1
        ]
      ]
    },
    {
      "name": "y",
      "dtype": "bool",
      "count": 12,
      "nulls": 0,
      "distinct": 2,
      "numeric": {
        "min": 0.0,
        "max": 1.0,
        "mean": 0.5,
        "std_dev": 0.5
      },
      "top_values": [
        [
          "false",
          6
        ],
        [
          "true",
          6
        ]
      ]
    }
  ],
  "group_fractions": [
    [
      "race=a",
      0.6666666666666666
    ],
    [
      "race=b",
      0.3333333333333333
    ]
  ],
  "representation_disparity": 0.3333333333333333,
  "diversity": 0.9182958340544894,
  "uncovered_patterns": [
    "race=b"
  ],
  "feature_associations": [
    [
      "city",
      0.0,
      0.0
    ],
    [
      "income",
      0.17407765595569785,
      0.9999999999999998
    ]
  ],
  "sensitive_target_fd_violation": 0.5,
  "bias_rules": [],
  "attribute_diversity": [
    [
      "city",
      0.9182958340544894
    ]
  ],
  "differential_missingness": [
    [
      "income",
      "race=b",
      0.5,
      0.16666666666666666
    ]
  ],
  "warnings": [
    "1 group pattern(s) lack coverage at τ=5: race=b",
    "feature `income` is strongly associated with a sensitive attribute (1.00)",
    "column `income` is 50% missing for race=b vs 17% overall — cleaning will hit that group hardest"
  ],
  "scope_notes": [
    "Synthetic \"pin\" data."
  ]
}"#;

const DATASHEET: &str = r#"{
  "dataset_name": "pin",
  "sections": [
    {
      "title": "Motivation",
      "questions": [
        {
          "question": "For what purpose was the dataset created?",
          "answer": "Byte pinning."
        },
        {
          "question": "Who created the dataset and on behalf of which entity?",
          "answer": null
        }
      ]
    },
    {
      "title": "Composition",
      "questions": [
        {
          "question": "What do the instances represent?",
          "answer": null
        },
        {
          "question": "Does the dataset identify any subpopulations (e.g., by age, gender)?",
          "answer": null
        },
        {
          "question": "Is any information missing from individual instances?",
          "answer": null
        }
      ]
    },
    {
      "title": "Collection process",
      "questions": [
        {
          "question": "How was the data associated with each instance acquired?",
          "answer": null
        },
        {
          "question": "What was the sampling strategy (e.g., deterministic, probabilistic)?",
          "answer": null
        },
        {
          "question": "Over what timeframe was the data collected?",
          "answer": null
        }
      ]
    },
    {
      "title": "Preprocessing / cleaning / labeling",
      "questions": [
        {
          "question": "Was any preprocessing/cleaning/labeling of the data done?",
          "answer": null
        },
        {
          "question": "Was the raw data saved in addition to the cleaned data?",
          "answer": null
        }
      ]
    },
    {
      "title": "Uses",
      "questions": [
        {
          "question": "What (other) tasks could the dataset be used for?",
          "answer": null
        },
        {
          "question": "Are there tasks for which the dataset should not be used?",
          "answer": null
        }
      ]
    }
  ]
}"#;
