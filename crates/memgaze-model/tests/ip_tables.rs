//! The annotation file, the source map and the instrumentor's `ptwrite`
//! map are sorted tables keyed by instruction address. Each is held here
//! to a `BTreeMap` fed the same pairs: built by `insert`/`record` and by
//! `collect`, from input with repeated addresses, in and out of order,
//! all must answer every lookup, iterate, count and print exactly as the
//! map does, and the bare table must also change in place and lose
//! pairs as the map does.

use memgaze_model::symbols::{SourceLoc, SourceMap};
use memgaze_model::{AuxAnnotations, FunctionId, Ip, IpAnnot, IpTable, LoadClass};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Debug;

/// `(address slot, value)` pairs over 24 slots, so addresses repeat:
/// as drawn, sorted by address (repeats kept), or strictly increasing.
fn pairs() -> impl Strategy<Value = Vec<(u64, u32)>> {
    (
        prop::collection::vec((0u64..24, 0u32..1 << 20), 0..48),
        0u8..3,
    )
        .prop_map(|(mut pairs, order)| {
            if order > 0 {
                pairs.sort_by_key(|p| p.0);
            }
            if order > 1 {
                pairs.dedup_by_key(|p| p.0);
            }
            pairs
        })
}

fn ip(slot: u64) -> Ip {
    Ip(0x40_0000 + 4 * slot)
}

fn annot(v: u32) -> IpAnnot {
    let class = [
        LoadClass::Constant,
        LoadClass::Strided,
        LoadClass::Irregular,
    ][v as usize % 3];
    IpAnnot {
        implied_const: v,
        ..IpAnnot::of_class(class, FunctionId(v % 7))
    }
}

fn loc(v: u32) -> SourceLoc {
    SourceLoc {
        orig_ip: Ip(u64::from(v)),
        line: v,
    }
}

/// Every question the table answers, asked of `table` and of `model`.
/// Slots 24 and 25 are never filled, and an address between two slots
/// is never an instruction's.
fn same_as_model<T: Debug, V: Copy + Debug + PartialEq>(
    how: &str,
    table: &T,
    model: &BTreeMap<Ip, V>,
    get: impl Fn(&T, Ip) -> Option<V>,
    iter: impl Fn(&T) -> Vec<(Ip, V)>,
    len: usize,
    name: &str,
) -> Result<(), TestCaseError> {
    for slot in 0..26 {
        for probe in [ip(slot), Ip(ip(slot).raw() + 1)] {
            let (got, want) = (get(table, probe), model.get(&probe).copied());
            prop_assert!(got == want, "{how}: at {probe} {got:?}, the map {want:?}");
        }
    }
    let want: Vec<(Ip, V)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    let got = iter(table);
    prop_assert!(got == want, "{how}: {got:?}, the map {want:?}");
    prop_assert!(
        len == model.len(),
        "{how}: {len} pairs, the map {}",
        model.len()
    );
    // A wrapper prints its table as its `map` field; the bare table
    // (`name` empty) prints as the map itself.
    let want = if name.is_empty() {
        format!("{model:?}")
    } else {
        format!("{name} {{ map: {model:?} }}")
    };
    let got = format!("{table:?}");
    prop_assert!(got == want, "{how}: {got}, the map {want}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn annotations_answer_as_a_map(pairs in pairs()) {
        let model: BTreeMap<Ip, IpAnnot> = pairs.iter().map(|&(s, v)| (ip(s), annot(v))).collect();
        let mut inserted = AuxAnnotations::new();
        for &(s, v) in &pairs {
            inserted.insert(ip(s), annot(v));
        }
        let collected: AuxAnnotations = pairs.iter().map(|&(s, v)| (ip(s), annot(v))).collect();
        for (how, table) in [("insert", &inserted), ("collect", &collected)] {
            same_as_model(
                how,
                table,
                &model,
                |t, at| t.get(at).copied(),
                |t| t.iter().map(|(k, v)| (*k, *v)).collect(),
                table.len(),
                "AuxAnnotations",
            )?;
            prop_assert!(table.is_empty() == model.is_empty(), "{how}");
        }
        prop_assert!(inserted == collected, "insert and collect differ");
    }

    #[test]
    fn source_map_answers_as_a_map(pairs in pairs()) {
        let model: BTreeMap<Ip, SourceLoc> = pairs.iter().map(|&(s, v)| (ip(s), loc(v))).collect();
        let mut recorded = SourceMap::new();
        for &(s, v) in &pairs {
            let l = loc(v);
            recorded.record(ip(s), l.orig_ip, l.line);
        }
        let collected: SourceMap = pairs.iter().map(|&(s, v)| (ip(s), loc(v))).collect();
        for (how, table) in [("record", &recorded), ("collect", &collected)] {
            same_as_model(
                how,
                table,
                &model,
                |t, at| t.resolve(at),
                |t| t.iter().map(|(k, v)| (*k, *v)).collect(),
                table.len(),
                "SourceMap",
            )?;
            prop_assert!(table.is_empty() == model.is_empty(), "{how}");
        }
        prop_assert!(recorded == collected, "record and collect differ");
    }

    #[test]
    fn table_edits_as_a_map(pairs in pairs(), edits in prop::collection::vec((0u64..26, 0u8..3, 0u32..1 << 20), 0..32)) {
        let mut model: BTreeMap<Ip, u32> = pairs.iter().map(|&(s, v)| (ip(s), v)).collect();
        let mut table: IpTable<u32> = pairs.iter().map(|&(s, v)| (ip(s), v)).collect();
        for (slot, op, v) in edits {
            let at = ip(slot);
            match op {
                0 => {
                    let (got, want) = (table.remove(at), model.remove(&at));
                    prop_assert!(got == want, "remove at {at}: {got:?}, the map {want:?}");
                }
                1 => {
                    if let Some(x) = table.get_mut(at) {
                        *x = v;
                    }
                    if let Some(x) = model.get_mut(&at) {
                        *x = v;
                    }
                }
                _ => {
                    table.insert(at, v);
                    model.insert(at, v);
                }
            }
        }
        same_as_model(
            "edit",
            &table,
            &model,
            |t, at| t.get(at).copied(),
            |t| t.iter().map(|(k, v)| (*k, *v)).collect(),
            table.len(),
            "",
        )?;
        let keys: Vec<Ip> = table.keys().copied().collect();
        let values: Vec<u32> = table.values().copied().collect();
        prop_assert!(keys == model.keys().copied().collect::<Vec<_>>(), "keys");
        prop_assert!(values == model.values().copied().collect::<Vec<_>>(), "values");
        prop_assert!(table.is_empty() == model.is_empty(), "is_empty");
    }
}
