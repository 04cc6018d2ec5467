//! Instances: finite relational structures over `Const ∪ Var` (§2).
//!
//! Tuples live in a [`FactStore`], which keeps each relation in canonical
//! (lexicographic) tuple order, so iteration order is deterministic
//! (constants sort before nulls; see [`crate::Value`]). The store also
//! maintains per-position posting lists incrementally and tracks a
//! generation counter plus a per-round delta — see [`crate::store`]. An
//! instance always carries its [`Schema`] and validates arities on insert.
//!
//! ## Textual format
//!
//! [`Instance::parse`] and the `Display` impl use a round-trippable literal
//! syntax: facts like `P(a,b)` separated by whitespace, commas or
//! semicolons. An argument token consisting of `N` followed by digits
//! denotes the labeled null with that id (e.g. `N3`); every other token is
//! a constant. Constants spelled like `N3` are therefore not expressible —
//! the parser reserves that lexical space for nulls.

use crate::error::SchemaError;
use crate::fact::Fact;
use crate::schema::{RelId, Schema};
use crate::store::{FactStore, TupleId};
use crate::value::{NullId, Value};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A finite instance over a schema, with values in `Const ∪ Var`.
///
/// ```
/// use qi_schema::{Instance, Schema};
///
/// let schema = Schema::parse("P/2 Q/1").unwrap();
/// let i = Instance::parse(&schema, "P(a,b) Q(a) P(a,N1)").unwrap();
/// assert_eq!(i.fact_count(), 3);
/// assert!(!i.is_ground());           // N1 is a labeled null
/// assert_eq!(i.active_domain().len(), 3);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Instance {
    schema: Schema,
    store: FactStore,
}

impl Instance {
    /// The empty instance over `schema`.
    pub fn new(schema: Schema) -> Self {
        let arities: Vec<usize> = schema.rel_ids().map(|r| schema.arity(r)).collect();
        let store = FactStore::new(&arities);
        Instance { schema, store }
    }

    /// The underlying [`FactStore`] (posting lists, delta, generation).
    pub fn store(&self) -> &FactStore {
        &self.store
    }

    /// The store generation: bumped on every successful insert/remove.
    pub fn generation(&self) -> u64 {
        self.store.generation()
    }

    /// Start a new chase round: facts inserted from now on form the new
    /// delta (see [`FactStore::begin_round`]).
    pub fn begin_round(&mut self) {
        self.store.begin_round();
    }

    /// Total number of facts inserted since the last
    /// [`begin_round`](Instance::begin_round).
    pub fn delta_len(&self) -> usize {
        self.store.delta_len()
    }

    /// The schema this instance is over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Insert the tuple `args` into relation `rel`.
    ///
    /// Returns `true` when the fact was new. Fails on arity mismatch.
    pub fn insert(&mut self, rel: RelId, args: Vec<Value>) -> Result<bool, SchemaError> {
        let expected = self.schema.arity(rel);
        if args.len() != expected {
            return Err(SchemaError::ArityMismatch {
                relation: self.schema.name(rel).to_owned(),
                expected,
                got: args.len(),
            });
        }
        Ok(self.store.insert(rel.index(), args))
    }

    /// Insert a [`Fact`].
    pub fn insert_fact(&mut self, fact: Fact) -> Result<bool, SchemaError> {
        self.insert(fact.rel, fact.args)
    }

    /// Convenience: insert a fact by relation name and constant names.
    pub fn insert_consts(&mut self, rel: &str, consts: &[&str]) -> Result<bool, SchemaError> {
        let rel = self.schema.rel_checked(rel)?;
        let args = consts.iter().map(|c| Value::constant(c)).collect();
        self.insert(rel, args)
    }

    /// Does the instance contain the given tuple in `rel`?
    pub fn contains(&self, rel: RelId, args: &[Value]) -> bool {
        self.store.contains(rel.index(), args)
    }

    /// Does the instance contain the fact?
    pub fn contains_fact(&self, fact: &Fact) -> bool {
        self.contains(fact.rel, &fact.args)
    }

    /// Remove a fact; returns whether it was present.
    pub fn remove_fact(&mut self, fact: &Fact) -> bool {
        self.store.remove(fact.rel.index(), &fact.args)
    }

    /// The tuples of one relation, in deterministic order.
    pub fn tuples(&self, rel: RelId) -> impl Iterator<Item = &[Value]> + '_ {
        self.store.tuples(rel.index())
    }

    /// Number of tuples in `rel`.
    pub fn rel_len(&self, rel: RelId) -> usize {
        self.store.rel_len(rel.index())
    }

    /// All facts of the instance, grouped by relation, deterministic order.
    pub fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.schema.rel_ids().flat_map(move |rel| {
            self.store
                .tuples(rel.index())
                .map(move |t| Fact::new(rel, t.to_vec()))
        })
    }

    /// Total number of facts.
    pub fn fact_count(&self) -> usize {
        self.store.len()
    }

    /// True when the instance has no facts.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// True when the instance is *ground* (null-free), the property the
    /// paper requires of source instances.
    pub fn is_ground(&self) -> bool {
        self.values().all(|v| v.is_const())
    }

    /// Iterate over every value occurrence (with repetition).
    pub fn values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.store.num_rels())
            .flat_map(|rel| self.store.tuples(rel))
            .flat_map(|t| t.iter().copied())
    }

    /// The active domain: the set of values occurring in the instance.
    ///
    /// Cached in the store, invalidated by the generation counter; a
    /// repeated call on an unchanged instance is a clone of an `Arc`.
    pub fn active_domain(&self) -> Arc<BTreeSet<Value>> {
        self.store.active_domain()
    }

    /// The nulls occurring in the instance (cached like
    /// [`active_domain`](Instance::active_domain)).
    pub fn nulls(&self) -> Arc<BTreeSet<NullId>> {
        self.store.nulls()
    }

    /// A null id strictly greater than every null in the instance
    /// (`0` when the instance is ground). Used to mint fresh nulls.
    pub fn fresh_null_floor(&self) -> u64 {
        self.nulls().iter().map(|n| n.0 + 1).max().unwrap_or(0)
    }

    /// Is `self` a subinstance of `other` (fact-wise inclusion)?
    pub fn is_subinstance_of(&self, other: &Instance) -> Result<bool, SchemaError> {
        if !self.schema.same_as(&other.schema) {
            return Err(SchemaError::SchemaMismatch);
        }
        Ok(self
            .schema
            .rel_ids()
            .all(|rel| self.tuples(rel).all(|t| other.contains(rel, t))))
    }

    /// The union `self ∪ other` (same schema required).
    ///
    /// This is the witness construction in the proofs of Example 3.10 and
    /// Proposition 3.11: `I₂' = I₁ ∪ I₂`.
    pub fn union(&self, other: &Instance) -> Result<Instance, SchemaError> {
        if !self.schema.same_as(&other.schema) {
            return Err(SchemaError::SchemaMismatch);
        }
        let mut out = self.clone();
        for rel in self.schema.rel_ids() {
            for t in other.tuples(rel) {
                out.store.insert(rel.index(), t.to_vec());
            }
        }
        Ok(out)
    }

    /// A copy of the instance without the given fact.
    pub fn without_fact(&self, fact: &Fact) -> Instance {
        let mut out = self.clone();
        out.remove_fact(fact);
        out
    }

    /// Apply a value map to every value of the instance. The map must be a
    /// function on values; constants are expected to be fixed by callers
    /// that intend `f` to be a homomorphism, but this is not enforced here
    /// (null renamings also use this hook).
    pub fn map_values(&self, mut f: impl FnMut(Value) -> Value) -> Instance {
        let mut out = Instance::new(self.schema.clone());
        for rel in self.schema.rel_ids() {
            for t in self.tuples(rel) {
                out.store
                    .insert(rel.index(), t.iter().map(|&v| f(v)).collect());
            }
        }
        out
    }

    /// Rename every null by adding `offset` to its id (fresh-null hygiene
    /// when combining instances from different chases).
    pub fn shift_nulls(&self, offset: u64) -> Instance {
        self.map_values(|v| match v {
            Value::Null(NullId(n)) => Value::Null(NullId(n + offset)),
            c => c,
        })
    }

    /// Rename nulls through `rho`, dropping every fact that mentions a
    /// null `rho` leaves unmapped; also returns the `(relation index,
    /// tuple id)` of each dropped fact. `rho` must be strictly increasing
    /// on the nulls it maps; then the copy rewrites only the facts `rho`
    /// moves and shares the rest (see [`FactStore::rename_nulls`]).
    pub fn rename_nulls(
        &self,
        rho: impl Fn(NullId) -> Option<NullId>,
    ) -> (Instance, Vec<(usize, TupleId)>) {
        let (store, dropped) = self.store.rename_nulls(rho);
        let renamed = Instance {
            schema: self.schema.clone(),
            store,
        };
        (renamed, dropped)
    }

    /// Parse an instance literal (see module docs for the format).
    pub fn parse(schema: &Schema, text: &str) -> Result<Instance, SchemaError> {
        let mut inst = Instance::new(schema.clone());
        let mut rest = text.trim();
        while !rest.is_empty() {
            // skip separators
            if let Some(stripped) = rest.strip_prefix([',', ';']) {
                rest = stripped.trim_start();
                continue;
            }
            let open = rest
                .find('(')
                .ok_or_else(|| SchemaError::Parse(format!("expected `(` in `{rest}`")))?;
            let name = rest[..open].trim();
            if name.is_empty() {
                return Err(SchemaError::Parse("missing relation name".into()));
            }
            let close = rest
                .find(')')
                .ok_or_else(|| SchemaError::Parse(format!("unclosed fact near `{rest}`")))?;
            if close < open {
                return Err(SchemaError::Parse(format!("misplaced `)` in `{rest}`")))?;
            }
            let rel = schema.rel_checked(name)?;
            let args: Result<Vec<Value>, SchemaError> = rest[open + 1..close]
                .split(',')
                .map(|tok| parse_value(tok.trim()))
                .collect();
            inst.insert(rel, args?)?;
            rest = rest[close + 1..].trim_start();
        }
        Ok(inst)
    }
}

fn parse_value(tok: &str) -> Result<Value, SchemaError> {
    if tok.is_empty() {
        return Err(SchemaError::Parse("empty value token".into()));
    }
    if let Some(digits) = tok.strip_prefix('N') {
        if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
            let id: u64 = digits
                .parse()
                .map_err(|_| SchemaError::Parse(format!("bad null id `{tok}`")))?;
            return Ok(Value::null(id));
        }
    }
    if tok.chars().any(|c| "(),;".contains(c) || c.is_whitespace()) {
        return Err(SchemaError::Parse(format!("bad value token `{tok}`")));
    }
    Ok(Value::constant(tok))
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for fact in self.facts() {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            write!(f, "{}", fact.display(&self.schema))?;
        }
        if first {
            write!(f, "(empty)")?;
        }
        Ok(())
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::parse("P/2 Q/1").unwrap()
    }

    #[test]
    fn insert_and_query() {
        let s = schema();
        let mut i = Instance::new(s.clone());
        let p = s.rel("P").unwrap();
        assert!(i.insert_consts("P", &["a", "b"]).unwrap());
        assert!(!i.insert_consts("P", &["a", "b"]).unwrap());
        assert!(i.contains(p, &[Value::constant("a"), Value::constant("b")]));
        assert_eq!(i.fact_count(), 1);
        assert!(i.is_ground());
    }

    #[test]
    fn arity_checked() {
        let s = schema();
        let mut i = Instance::new(s.clone());
        let p = s.rel("P").unwrap();
        assert!(matches!(
            i.insert(p, vec![Value::constant("a")]),
            Err(SchemaError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn parse_roundtrip() {
        let s = schema();
        let i = Instance::parse(&s, "P(a,b); Q(a), P(a, N3)").unwrap();
        assert_eq!(i.fact_count(), 3);
        assert!(!i.is_ground());
        assert_eq!(i.nulls().len(), 1);
        let text = i.to_string();
        let j = Instance::parse(&s, &text).unwrap();
        assert_eq!(i, j);
    }

    #[test]
    fn parse_rejects_garbage() {
        let s = schema();
        assert!(Instance::parse(&s, "P a,b)").is_err());
        assert!(Instance::parse(&s, "R(a)").is_err());
        assert!(Instance::parse(&s, "P(a,b").is_err());
        assert!(Instance::parse(&s, "P(,b)").is_err());
    }

    #[test]
    fn union_and_subinstance() {
        let s = schema();
        let a = Instance::parse(&s, "P(a,b)").unwrap();
        let b = Instance::parse(&s, "Q(c)").unwrap();
        let u = a.union(&b).unwrap();
        assert_eq!(u.fact_count(), 2);
        assert!(a.is_subinstance_of(&u).unwrap());
        assert!(b.is_subinstance_of(&u).unwrap());
        assert!(!u.is_subinstance_of(&a).unwrap());
    }

    #[test]
    fn union_schema_mismatch() {
        let a = Instance::new(schema());
        let b = Instance::new(Schema::parse("Z/1").unwrap());
        assert!(a.union(&b).is_err());
        assert!(a.is_subinstance_of(&b).is_err());
    }

    #[test]
    fn active_domain_and_nulls() {
        let s = schema();
        let i = Instance::parse(&s, "P(a,N1) Q(N5)").unwrap();
        assert_eq!(i.active_domain().len(), 3);
        assert_eq!(i.fresh_null_floor(), 6);
        assert_eq!(Instance::new(s).fresh_null_floor(), 0);
    }

    #[test]
    fn shift_nulls_disjoint() {
        let s = schema();
        let i = Instance::parse(&s, "P(N0,N1)").unwrap();
        let j = i.shift_nulls(10);
        assert_eq!(j.nulls().iter().map(|n| n.0).collect::<Vec<_>>(), [10, 11]);
    }

    #[test]
    fn map_values_merges_tuples() {
        let s = schema();
        let i = Instance::parse(&s, "P(N1,N2) P(N3,N4)").unwrap();
        let j = i.map_values(|_| Value::constant("a"));
        assert_eq!(j.fact_count(), 1);
    }
}
