//! JSON persistence of knowledge bases.
//!
//! The point of the memo's system is to *store* the significant joint
//! probabilities for later use by an expert system, so the knowledge base
//! must round-trip through a durable format.  JSON keeps the artefact
//! human-inspectable.  Loading is construction: the knowledge base's
//! `Deserialize` goes through its checked constructors, so a loaded
//! knowledge base is validated and indexed, and nothing runs after it.

use crate::knowledge_base::KnowledgeBase;
use crate::Result;

/// Serialises a knowledge base to a pretty-printed JSON string.
pub fn to_json(kb: &KnowledgeBase) -> Result<String> {
    Ok(serde_json::to_string_pretty(kb)?)
}

/// Serialises a knowledge base to a compact JSON string.
pub fn to_json_compact(kb: &KnowledgeBase) -> Result<String> {
    Ok(serde_json::to_string(kb)?)
}

/// Restores a knowledge base from JSON produced by [`to_json`] /
/// [`to_json_compact`].
pub fn from_json(text: &str) -> Result<KnowledgeBase> {
    Ok(serde_json::from_str(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acquisition::Acquisition;
    use pka_contingency::{Assignment, Attribute, ContingencyTable, Schema};

    fn paper_table() -> ContingencyTable {
        let schema = Schema::new(vec![
            Attribute::new("smoking", ["smoker", "non-smoker", "married-to-smoker"]),
            Attribute::yes_no("cancer"),
            Attribute::yes_no("family-history"),
        ])
        .unwrap()
        .into_shared();
        ContingencyTable::from_counts(
            schema,
            vec![130, 110, 410, 640, 62, 31, 580, 460, 78, 22, 520, 385],
        )
        .unwrap()
    }

    #[test]
    fn json_roundtrip_preserves_queries() {
        let t = paper_table();
        let kb = Acquisition::with_defaults().run(&t).unwrap().knowledge_base;
        let json = to_json(&kb).unwrap();
        assert!(json.contains("smoking"));
        let restored = from_json(&json).unwrap();
        assert_eq!(restored.sample_size(), kb.sample_size());
        assert_eq!(restored.significant_constraints().len(), kb.significant_constraints().len());
        // Queries after the round trip agree with the original.
        let target = Assignment::single(1, 0);
        let evidence = Assignment::single(0, 0);
        let a = kb.conditional(&target, &evidence).unwrap();
        let b = restored.conditional(&target, &evidence).unwrap();
        assert!((a - b).abs() < 1e-12);
        // Compact form round-trips too.
        let compact = to_json_compact(&kb).unwrap();
        assert!(compact.len() < json.len());
        let restored2 = from_json(&compact).unwrap();
        assert_eq!(restored2.constraints().len(), kb.constraints().len());
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(from_json("{").is_err());
        assert!(from_json("{\"not\": \"a kb\"}").is_err());
    }
}
