//! The one-line `key=value;key=value` grammar of the conformance oracle's
//! spec strings: `htpb_testkit::Scenario` is its only consumer, and the
//! `conformance` bin reads its `--seed` with [`spec_u64`]. These helpers
//! only split and read numbers; the parser keeps its own keys, defaults
//! and error type.

/// Splits a spec into its `(key, value)` fields, in order. Whitespace
/// around the spec and empty fields (`a=1;;b=2;`) are skipped; a field
/// without `=` is returned as `Err(field)`.
pub fn spec_fields(spec: &str) -> impl Iterator<Item = Result<(&str, &str), &str>> {
    spec.trim()
        .split(';')
        .filter(|field| !field.is_empty())
        .map(|field| field.split_once('=').ok_or(field))
}

/// Reads a `0x`-prefixed hexadecimal or a plain decimal `u64`.
#[must_use]
pub fn spec_u64(value: &str) -> Option<u64> {
    match value.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => value.parse().ok(),
    }
}

/// Reads a `ppm@granularity` rate: a `u32` rate in parts per million and a
/// `u64` window length in cycles.
#[must_use]
pub fn spec_rate(value: &str) -> Option<(u32, u64)> {
    let (ppm, granularity) = value.split_once('@')?;
    let ppm = u32::try_from(spec_u64(ppm)?).ok()?;
    Some((ppm, spec_u64(granularity)?))
}
