//! The adapter framework of paper §5 / Figure 3: "an adapter consists of
//! a model, a schema, and a schema factory. The model is a specification
//! of the physical properties of the data source being accessed. A schema
//! is the definition of the data ... The schema factory component acquires
//! the metadata information from the model and generates a schema."

use rcalcite_backends::json::Json;
use rcalcite_core::catalog::{Catalog, Schema};
use rcalcite_core::error::{CalciteError, Result};
use std::collections::HashMap;
use std::sync::Arc;

/// Creates a [`Schema`] from a model's operand (the JSON fragment that
/// configures one schema entry).
pub trait SchemaFactory: Send + Sync {
    /// Factory name referenced by models (`"factory": "<name>"`).
    fn factory_name(&self) -> &str;

    fn create_schema(&self, operand: &Json) -> Result<Schema>;
}

/// Every adapter is its own schema factory. The operand is advisory:
/// tables come from the backend's own metadata, as with a real JDBC
/// catalog read.
impl<P: crate::Pushdown> SchemaFactory for P {
    fn factory_name(&self) -> &str {
        P::FACTORY
    }

    fn create_schema(&self, _operand: &Json) -> Result<Schema> {
        Ok(self.schema())
    }
}

/// Registry of schema factories available to model loading.
#[derive(Default)]
pub struct FactoryRegistry {
    factories: HashMap<String, Arc<dyn SchemaFactory>>,
}

impl FactoryRegistry {
    pub fn new() -> FactoryRegistry {
        FactoryRegistry::default()
    }

    pub fn register(&mut self, factory: Arc<dyn SchemaFactory>) {
        self.factories
            .insert(factory.factory_name().to_string(), factory);
    }

    pub fn get(&self, name: &str) -> Option<Arc<dyn SchemaFactory>> {
        self.factories.get(name).cloned()
    }

    pub fn names(&self) -> Vec<String> {
        let mut n: Vec<String> = self.factories.keys().cloned().collect();
        n.sort();
        n
    }
}

/// Loads a JSON model into a catalog:
///
/// ```json
/// {
///   "version": "1.0",
///   "defaultSchema": "sales",
///   "schemas": [
///     {"name": "sales", "factory": "jdbc", "operand": {...}},
///     {"name": "logs",  "factory": "splunk", "operand": {...}}
///   ]
/// }
/// ```
pub fn load_model(model_text: &str, registry: &FactoryRegistry, catalog: &Catalog) -> Result<()> {
    let model = Json::parse(model_text)?;
    let schemas = model
        .get("schemas")
        .ok_or_else(|| CalciteError::validate("model has no 'schemas' array"))?;
    let Json::Arr(entries) = schemas else {
        return Err(CalciteError::validate("'schemas' must be an array"));
    };
    for entry in entries {
        let name = entry
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or_else(|| CalciteError::validate("schema entry missing 'name'"))?;
        let factory_name = entry
            .get("factory")
            .and_then(|n| n.as_str())
            .ok_or_else(|| CalciteError::validate("schema entry missing 'factory'"))?;
        let factory = registry.get(factory_name).ok_or_else(|| {
            CalciteError::validate(format!("unknown schema factory '{factory_name}'"))
        })?;
        let default_operand = Json::Obj(Default::default());
        let operand = entry.get("operand").unwrap_or(&default_operand);
        let schema = factory.create_schema(operand)?;
        catalog.add_schema(name, schema);
    }
    if let Some(default) = model.get("defaultSchema").and_then(|d| d.as_str()) {
        catalog.set_default_schema(default);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcalcite_core::catalog::MemTable;
    use rcalcite_core::types::{RowTypeBuilder, TypeKind};

    struct DummyFactory;

    impl SchemaFactory for DummyFactory {
        fn factory_name(&self) -> &str {
            "dummy"
        }
        fn create_schema(&self, operand: &Json) -> Result<Schema> {
            let s = Schema::new();
            if let Some(Json::Arr(tables)) = operand.get("tables") {
                for t in tables {
                    let name = t.as_str().unwrap_or("t");
                    s.add_table(
                        name,
                        MemTable::new(
                            RowTypeBuilder::new().add("x", TypeKind::Integer).build(),
                            vec![],
                        ),
                    );
                }
            }
            Ok(s)
        }
    }

    #[test]
    fn model_loading_end_to_end() {
        let mut reg = FactoryRegistry::new();
        reg.register(Arc::new(DummyFactory));
        let catalog = Catalog::new();
        load_model(
            r#"{
                "version": "1.0",
                "defaultSchema": "a",
                "schemas": [
                    {"name": "a", "factory": "dummy", "operand": {"tables": ["t1", "t2"]}},
                    {"name": "b", "factory": "dummy", "operand": {"tables": ["u"]}}
                ]
            }"#,
            &reg,
            &catalog,
        )
        .unwrap();
        assert_eq!(catalog.schema_names(), vec!["a", "b"]);
        assert!(catalog.resolve(&["t1"]).is_ok()); // default schema is 'a'
        assert!(catalog.resolve(&["b", "u"]).is_ok());
    }

    #[test]
    fn model_errors() {
        let reg = FactoryRegistry::new();
        let catalog = Catalog::new();
        assert!(load_model("{}", &reg, &catalog).is_err());
        assert!(load_model(r#"{"schemas": [{}]}"#, &reg, &catalog).is_err());
        assert!(load_model(
            r#"{"schemas": [{"name": "x", "factory": "nope"}]}"#,
            &reg,
            &catalog
        )
        .is_err());
        assert!(load_model("not json", &reg, &catalog).is_err());
    }

    #[test]
    fn registry_listing() {
        let mut reg = FactoryRegistry::new();
        reg.register(Arc::new(DummyFactory));
        assert_eq!(reg.names(), vec!["dummy"]);
        assert!(reg.get("dummy").is_some());
        assert!(reg.get("other").is_none());
    }
}
