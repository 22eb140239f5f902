//! Decoding is construction: a constraint set, a model and a knowledge
//! base decode through their checked constructors, so a decoded value is
//! indexed and valid, and a forged one is refused while decoding.

use pka_contingency::{Assignment, Attribute, ContingencyTable, Schema};
use pka_core::{Acquisition, KnowledgeBase};
use pka_maxent::{ConstraintSet, LogLinearModel};
use serde::{Deserialize, Serialize, Value};

fn paper_kb() -> KnowledgeBase {
    let schema = Schema::new(vec![
        Attribute::new("smoking", ["smoker", "non-smoker", "married-to-smoker"]),
        Attribute::yes_no("cancer"),
        Attribute::yes_no("family-history"),
    ])
    .unwrap()
    .into_shared();
    let counts = vec![130, 110, 410, 640, 62, 31, 580, 460, 78, 22, 520, 385];
    let table = ContingencyTable::from_counts(schema, counts).unwrap();
    Acquisition::with_defaults().run(&table).unwrap().knowledge_base
}

/// The value at `path` (object field names, array indices) inside `value`.
fn at<'a>(value: &'a mut Value, path: &[&str]) -> &'a mut Value {
    path.iter().fold(value, |current, step| match current {
        Value::Object(fields) => {
            fields.iter_mut().find(|(k, _)| k == step).map(|(_, v)| v).unwrap()
        }
        Value::Array(items) => &mut items[step.parse::<usize>().unwrap()],
        other => panic!("cannot step into {} at {step}", other.kind()),
    })
}

/// `value` with the node at `path` replaced by `new`.
fn forged(value: &Value, path: &[&str], new: Value) -> Value {
    let mut forged = value.clone();
    *at(&mut forged, path) = new;
    forged
}

#[test]
fn decoded_values_are_indexed_and_equal_to_the_original() {
    let kb = paper_kb();
    let decoded = KnowledgeBase::deserialize(&Serialize::serialize(&kb)).unwrap();
    assert_eq!(decoded, kb);
    for constraint in kb.significant_constraints() {
        let cell = &constraint.assignment;
        assert_eq!(decoded.constraints().probability_of(cell), Some(constraint.probability));
        assert_eq!(decoded.model().factor_of(cell), kb.model().factor_of(cell));
    }
}

#[test]
fn forged_constraints_are_refused_while_decoding() {
    let set = Serialize::serialize(paper_kb().constraints());
    let decode = |value: &Value| ConstraintSet::deserialize(value);
    assert!(decode(&set).is_ok());
    for p in [1.5, -0.1, f64::NAN] {
        assert!(decode(&forged(&set, &["constraints", "0", "probability"], Value::F64(p))).is_err());
    }
    let outside = Value::Array(vec![Value::U64(9)]);
    assert!(decode(&forged(&set, &["constraints", "0", "assignment", "values"], outside)).is_err());
}

#[test]
fn forged_models_are_refused_while_decoding() {
    let model = Serialize::serialize(paper_kb().model());
    let decode = |value: &Value| LogLinearModel::deserialize(value);
    assert!(decode(&model).is_ok());
    for a0 in [0.0, -1.0] {
        assert!(decode(&forged(&model, &["a0"], Value::F64(a0))).is_err());
    }
    assert!(decode(&forged(&model, &["factors", "0", "1"], Value::F64(-0.5))).is_err());
    let mut duplicated = model.clone();
    let Value::Array(factors) = at(&mut duplicated, &["factors"]) else { panic!("no factors") };
    factors.push(factors[0].clone());
    assert!(decode(&duplicated).unwrap_err().to_string().contains("two multipliers"));
}

#[test]
fn a_knowledge_base_holds_one_schema() {
    let kb = Serialize::serialize(&paper_kb());
    let wider = Value::Str("other".to_string());
    let mut forged = kb.clone();
    let Value::Array(values) = at(&mut forged, &["model", "schema", "attributes", "0", "values"])
    else {
        panic!("no values")
    };
    values.push(wider);
    let error = KnowledgeBase::deserialize(&forged).unwrap_err();
    assert!(error.to_string().contains("share one schema"), "{error}");
    let order3 = Assignment::from_pairs([(0, 0), (1, 0), (2, 1)]);
    assert!(KnowledgeBase::deserialize(&kb).unwrap().probability(&order3) > 0.0);
}
