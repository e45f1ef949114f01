//! Fixture: a structure instantiated over the scheme enum (linted as
//! `crates/structures/src/...`).

fn make(smr: AnySmr) -> Box<dyn Set> {
    Box::new(MichaelList::<u64, AnySmr>::with_smr(smr))
}
