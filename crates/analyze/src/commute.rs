//! Commutation analysis: which adjacent operation pairs are independent.
//!
//! Each operation gets a syntactic *footprint* — the set of schema
//! resources it reads and writes, as string tokens:
//!
//! * `ty:<name>` — existence of a type,
//! * `mem:<ty>::<name>` — one member slot (`mem:<ty>::*` = any member of
//!   the type),
//! * `hier:<name>` — the generalization / aggregation / instance-of
//!   neighbourhood of a type,
//! * `extent:<ty>` / `extname:<name>` / `keys:<ty>` — extent and key state,
//! * `attref:<name>` — by-name references to an attribute from key lists
//!   and order-by lists (pruning is by name, across owners),
//! * `mem:*`, `*` — wildcards for operations whose effect cannot be
//!   bounded syntactically (supertype rewiring re-judges inheritance
//!   everywhere; type deletion cascades arbitrarily).
//!
//! Two operations **commute** when neither's writes intersect the other's
//! reads or writes. The analysis is deliberately *conservative*: a pair
//! marked commuting is claimed safe to reorder; an unmarked pair is merely
//! unproven. Everything here is O(1) per operation — footprints never
//! traverse the graph.

use std::collections::BTreeSet;
use sws_core::ModOp;
use sws_odl::DomainType;

/// The read/write sets of one operation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Resources whose state the op's preconditions or effect depend on.
    pub reads: BTreeSet<String>,
    /// Resources the op changes.
    pub writes: BTreeSet<String>,
}

fn token_match(a: &str, b: &str) -> bool {
    if a == "*" || b == "*" {
        return true;
    }
    if let Some(prefix) = a.strip_suffix('*') {
        if b.starts_with(prefix) {
            return true;
        }
    }
    if let Some(prefix) = b.strip_suffix('*') {
        if a.starts_with(prefix) {
            return true;
        }
    }
    a == b
}

fn sets_conflict(xs: &BTreeSet<String>, ys: &BTreeSet<String>) -> bool {
    xs.iter().any(|x| ys.iter().any(|y| token_match(x, y)))
}

/// True when reordering the two operations provably cannot change the
/// outcome: neither's writes touch the other's reads or writes.
pub fn commutes(a: &Footprint, b: &Footprint) -> bool {
    !sets_conflict(&a.writes, &b.writes)
        && !sets_conflict(&a.writes, &b.reads)
        && !sets_conflict(&b.writes, &a.reads)
}

fn ty(name: &str) -> String {
    format!("ty:{name}")
}

fn mem(owner: &str, name: &str) -> String {
    format!("mem:{owner}::{name}")
}

fn hier(name: &str) -> String {
    format!("hier:{name}")
}

fn attref(name: &str) -> String {
    format!("attref:{name}")
}

fn domain_reads(domain: &DomainType, reads: &mut BTreeSet<String>) {
    let mut refs = Vec::new();
    domain.referenced_types(&mut refs);
    for r in refs {
        reads.insert(ty(r));
    }
}

/// Compute the footprint of one operation. Purely syntactic — see the
/// module docs for the conservatism contract.
pub fn footprint(op: &ModOp) -> Footprint {
    let mut f = Footprint::default();
    match op {
        ModOp::AddTypeDefinition { ty: t } => {
            f.writes.insert(ty(t));
        }
        ModOp::DeleteTypeDefinition { .. } => {
            // Cascades may remove relationships, links, and prune lists
            // anywhere in the schema: unbounded syntactically.
            f.writes.insert("*".into());
        }
        ModOp::AddSupertype { ty: t, supertype } => {
            supertype_footprint(&mut f, t, std::slice::from_ref(supertype), &[]);
        }
        ModOp::DeleteSupertype { ty: t, supertype } => {
            supertype_footprint(&mut f, t, &[], std::slice::from_ref(supertype));
        }
        ModOp::ModifySupertype { ty: t, old, new } => {
            supertype_footprint(&mut f, t, new, old);
        }
        ModOp::AddExtentName { ty: t, extent }
        | ModOp::ModifyExtentName {
            ty: t, new: extent, ..
        } => {
            f.reads.insert(ty(t));
            // Extent names are unique across the schema.
            f.writes.insert(format!("extname:{extent}"));
            f.writes.insert(format!("extent:{t}"));
        }
        ModOp::DeleteExtentName { ty: t, extent } => {
            f.reads.insert(ty(t));
            f.writes.insert(format!("extname:{extent}"));
            f.writes.insert(format!("extent:{t}"));
        }
        ModOp::AddKeyList { ty: t, keys } | ModOp::DeleteKeyList { ty: t, keys } => {
            f.reads.insert(ty(t));
            f.writes.insert(format!("keys:{t}"));
            for key in keys {
                for part in &key.0 {
                    f.reads.insert(attref(part));
                    f.reads.insert(hier(t));
                }
            }
        }
        ModOp::ModifyKeyList { ty: t, old, new } => {
            f.reads.insert(ty(t));
            f.writes.insert(format!("keys:{t}"));
            for key in old.iter().chain(new) {
                for part in &key.0 {
                    f.reads.insert(attref(part));
                    f.reads.insert(hier(t));
                }
            }
        }
        ModOp::AddAttribute {
            ty: t,
            domain,
            name,
            ..
        } => {
            member_add_footprint(&mut f, t, name);
            domain_reads(domain, &mut f.reads);
        }
        ModOp::DeleteAttribute { ty: t, name } => {
            f.reads.insert(ty(t));
            f.writes.insert(mem(t, name));
            f.writes.insert(format!("keys:{t}"));
            // Pruning removes by-name references from order-by lists of
            // relationships and links targeting the owner.
            f.writes.insert(attref(name));
        }
        ModOp::ModifyAttribute {
            ty: t,
            name,
            new_ty,
        } => {
            f.reads.insert(ty(t));
            f.reads.insert(ty(new_ty));
            f.reads.insert(hier(t));
            f.reads.insert(hier(new_ty));
            f.writes.insert(mem(t, name));
            f.writes.insert(mem(new_ty, name));
            f.writes.insert(format!("keys:{t}"));
            f.writes.insert(attref(name));
        }
        ModOp::ModifyAttributeType {
            ty: t, name, new, ..
        } => {
            f.reads.insert(ty(t));
            f.writes.insert(mem(t, name));
            domain_reads(new, &mut f.reads);
        }
        ModOp::ModifyAttributeSize { ty: t, name, .. } => {
            f.reads.insert(ty(t));
            f.writes.insert(mem(t, name));
        }
        ModOp::AddRelationship {
            ty: t,
            target,
            path,
            inverse_path,
            order_by,
            ..
        } => {
            member_add_footprint(&mut f, t, path);
            member_add_footprint(&mut f, target, inverse_path);
            for a in order_by {
                f.reads.insert(attref(a));
            }
        }
        ModOp::DeleteRelationship { ty: t, path } => {
            // The inverse end's owner is not in the statement: the delete
            // may clear a member slot on any type.
            f.reads.insert(ty(t));
            f.writes.insert(mem(t, path));
            f.writes.insert("mem:*".into());
        }
        ModOp::ModifyRelationshipTargetType {
            ty: t,
            path,
            old_target,
            new_target,
        } => {
            f.reads.insert(ty(t));
            f.reads.insert(ty(old_target));
            f.reads.insert(ty(new_target));
            f.reads.insert(hier(old_target));
            f.reads.insert(hier(new_target));
            f.writes.insert(mem(t, path));
            f.writes.insert(format!("mem:{old_target}::*"));
            f.writes.insert(format!("mem:{new_target}::*"));
        }
        ModOp::ModifyRelationshipCardinality { ty: t, path, .. } => {
            f.reads.insert(ty(t));
            f.writes.insert(mem(t, path));
        }
        ModOp::ModifyRelationshipOrderBy {
            ty: t, path, new, ..
        } => {
            f.reads.insert(ty(t));
            f.writes.insert(mem(t, path));
            for a in new {
                f.reads.insert(attref(a));
            }
        }
        ModOp::AddOperation {
            ty: t,
            return_type,
            name,
            args,
            ..
        } => {
            member_add_footprint(&mut f, t, name);
            domain_reads(return_type, &mut f.reads);
            for p in args {
                domain_reads(&p.ty, &mut f.reads);
            }
        }
        ModOp::DeleteOperation { ty: t, name } => {
            f.reads.insert(ty(t));
            f.writes.insert(mem(t, name));
        }
        ModOp::ModifyOperation {
            ty: t,
            name,
            new_ty,
        } => {
            f.reads.insert(ty(t));
            f.reads.insert(ty(new_ty));
            f.reads.insert(hier(t));
            f.reads.insert(hier(new_ty));
            f.writes.insert(mem(t, name));
            f.writes.insert(mem(new_ty, name));
        }
        ModOp::ModifyOperationReturnType {
            ty: t, name, new, ..
        } => {
            f.reads.insert(ty(t));
            f.writes.insert(mem(t, name));
            domain_reads(new, &mut f.reads);
        }
        ModOp::ModifyOperationArgList {
            ty: t, name, new, ..
        } => {
            f.reads.insert(ty(t));
            f.writes.insert(mem(t, name));
            for p in new {
                domain_reads(&p.ty, &mut f.reads);
            }
        }
        ModOp::ModifyOperationExceptionsRaised { ty: t, name, .. } => {
            f.reads.insert(ty(t));
            f.writes.insert(mem(t, name));
        }
        ModOp::AddPartOfRelationship {
            ty: t,
            target,
            path,
            inverse_path,
            order_by,
            ..
        }
        | ModOp::AddInstanceOfRelationship {
            ty: t,
            target,
            path,
            inverse_path,
            order_by,
            ..
        } => {
            member_add_footprint(&mut f, t, path);
            member_add_footprint(&mut f, target, inverse_path);
            f.writes.insert(hier(t));
            f.writes.insert(hier(target));
            for a in order_by {
                f.reads.insert(attref(a));
            }
        }
        ModOp::DeletePartOfRelationship { ty: t, path }
        | ModOp::DeleteInstanceOfRelationship { ty: t, path } => {
            f.reads.insert(ty(t));
            f.writes.insert(mem(t, path));
            f.writes.insert(hier(t));
            f.writes.insert("mem:*".into());
            f.writes.insert("hier:*".into());
        }
        ModOp::ModifyPartOfTargetType {
            ty: t,
            path,
            old_target,
            new_target,
        }
        | ModOp::ModifyInstanceOfTargetType {
            ty: t,
            path,
            old_target,
            new_target,
        } => {
            f.reads.insert(ty(t));
            f.reads.insert(ty(old_target));
            f.reads.insert(ty(new_target));
            f.writes.insert(mem(t, path));
            f.writes.insert(format!("mem:{old_target}::*"));
            f.writes.insert(format!("mem:{new_target}::*"));
            f.writes.insert(hier(t));
            f.writes.insert(hier(old_target));
            f.writes.insert(hier(new_target));
        }
        ModOp::ModifyPartOfCardinality { ty: t, path, .. }
        | ModOp::ModifyInstanceOfCardinality { ty: t, path, .. } => {
            f.reads.insert(ty(t));
            f.writes.insert(mem(t, path));
        }
        ModOp::ModifyPartOfOrderBy {
            ty: t, path, new, ..
        }
        | ModOp::ModifyInstanceOfOrderBy {
            ty: t, path, new, ..
        } => {
            f.reads.insert(ty(t));
            f.writes.insert(mem(t, path));
            for a in new {
                f.reads.insert(attref(a));
            }
        }
    }
    f
}

/// Adding a member to `owner` reads the owner's existence and inheritance
/// neighbourhood (member-free and conflict checks walk it) and writes the
/// member slot.
fn member_add_footprint(f: &mut Footprint, owner: &str, name: &str) {
    f.reads.insert(ty(owner));
    f.reads.insert(hier(owner));
    f.writes.insert(mem(owner, name));
}

/// Supertype rewiring re-judges inheritance conflicts across the whole
/// region below the subtype, so it reads every member slot.
fn supertype_footprint(f: &mut Footprint, sub: &str, added: &[String], removed: &[String]) {
    f.reads.insert(ty(sub));
    f.reads.insert("mem:*".into());
    f.writes.insert(hier(sub));
    for s in added.iter().chain(removed) {
        f.reads.insert(ty(s));
        f.writes.insert(hier(s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_adds_commute() {
        let a = footprint(&ModOp::AddTypeDefinition { ty: "A".into() });
        let b = footprint(&ModOp::AddTypeDefinition { ty: "B".into() });
        assert!(commutes(&a, &b));
        let c = footprint(&ModOp::AddTypeDefinition { ty: "A".into() });
        assert!(!commutes(&a, &c));
    }

    #[test]
    fn type_delete_conflicts_with_everything() {
        let del = footprint(&ModOp::DeleteTypeDefinition { ty: "A".into() });
        let other = footprint(&ModOp::AddTypeDefinition { ty: "B".into() });
        assert!(!commutes(&del, &other));
    }

    #[test]
    fn attr_delete_conflicts_with_order_by_naming_it() {
        // delete_attribute prunes by-name references; an order-by list that
        // names the attribute must not be reordered across the delete.
        let del = footprint(&ModOp::DeleteAttribute {
            ty: "T".into(),
            name: "a".into(),
        });
        let set = footprint(&ModOp::ModifyRelationshipOrderBy {
            ty: "S".into(),
            path: "p".into(),
            old: vec![],
            new: vec!["a".into()],
        });
        assert!(!commutes(&del, &set));
    }

    #[test]
    fn supertype_rewire_conflicts_with_member_adds() {
        let sup = footprint(&ModOp::AddSupertype {
            ty: "Sub".into(),
            supertype: "Sup".into(),
        });
        let add = footprint(&ModOp::AddAttribute {
            ty: "Other".into(),
            domain: sws_odl::DomainType::Long,
            size: None,
            name: "n".into(),
        });
        assert!(!commutes(&sup, &add));
    }

    #[test]
    fn unrelated_member_ops_commute() {
        let a = footprint(&ModOp::ModifyAttributeSize {
            ty: "A".into(),
            name: "x".into(),
            old: None,
            new: Some(16),
        });
        let b = footprint(&ModOp::DeleteOperation {
            ty: "B".into(),
            name: "f".into(),
        });
        assert!(commutes(&a, &b));
    }
}
