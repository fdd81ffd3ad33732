//! Value encodings for `.edaf` column pages.
//!
//! Small, self-describing building blocks: LEB128 varints, zigzag
//! mapping, delta + run-length candidates for integer pages, and
//! LSB-first bit-packing for booleans and validity bitmaps. The writer
//! encodes each candidate and keeps the smallest; the chosen encoding's
//! id byte travels in the footer, so readers never guess.

use eda_dataframe::{DictBuilder, Error, Result, StrDict};
use eda_stats::freq::CodeCounts;

/// Append `v` as a LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read a LEB128 varint from `buf[*pos..]`, advancing `pos`.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or_else(|| truncated(*pos))?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(corrupt("varint overflows u64", *pos));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Map a signed value to an unsigned one with small magnitudes first.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Raw little-endian i64 page.
pub fn encode_i64_raw(values: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Delta page: first value zigzag-varint, then zigzag-varint deltas.
/// Wins on sorted or slowly-varying columns (ids, timestamps).
pub fn encode_i64_delta(values: &[i64]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut prev = 0i64;
    for &v in values {
        write_varint(&mut out, zigzag(v.wrapping_sub(prev)));
        prev = v;
    }
    out
}

/// Run-length page: (varint run, zigzag-varint value) pairs. Wins on
/// low-cardinality columns (flags, codes).
pub fn encode_i64_rle(values: &[i64]) -> Vec<u8> {
    let mut out = Vec::new();
    for run in values.chunk_by(|a, b| a == b) {
        if let Some(&v) = run.first() {
            write_varint(&mut out, run.len() as u64);
            write_varint(&mut out, zigzag(v));
        }
    }
    out
}

/// Decode `count` i64 values from a page with encoding id `enc`,
/// appended to `out` (whose spare capacity they fill first).
///
/// `count` comes from the file's footer, so nothing is allocated for it
/// until the page is known to hold that many values.
pub fn decode_i64(enc: u8, buf: &[u8], count: usize, mut out: Vec<i64>) -> Result<Vec<i64>> {
    match enc {
        super::ENC_RAW => {
            if count.checked_mul(8) != Some(buf.len()) {
                return Err(corrupt("raw i64 page length mismatch", 0));
            }
            out.reserve_exact(count);
            for chunk in buf.chunks_exact(8) {
                let mut b = [0u8; 8];
                b.copy_from_slice(chunk);
                out.push(i64::from_le_bytes(b));
            }
        }
        super::ENC_DELTA => {
            check_count(count, buf)?;
            out.reserve_exact(count);
            let mut pos = 0;
            let mut prev = 0i64;
            for _ in 0..count {
                prev = prev.wrapping_add(unzigzag(read_varint(buf, &mut pos)?));
                out.push(prev);
            }
            if pos != buf.len() {
                return Err(corrupt("trailing bytes after delta page", pos));
            }
        }
        super::ENC_RLE => {
            let mut pos = 0;
            let mut left = count;
            while left > 0 {
                let run = read_varint(buf, &mut pos)?;
                let v = unzigzag(read_varint(buf, &mut pos)?);
                let run = usize::try_from(run)
                    .ok()
                    .filter(|r| *r > 0 && *r <= left)
                    .ok_or_else(|| corrupt("rle run overruns page", pos))?;
                // A run's length is bounded by the footer's count alone,
                // never by the page's size: memory for it may not exist.
                out.try_reserve(run)
                    .map_err(|_| corrupt("rle run exceeds available memory", pos))?;
                out.extend(std::iter::repeat_n(v, run));
                left -= run;
            }
            if pos != buf.len() {
                return Err(corrupt("trailing bytes after rle page", pos));
            }
        }
        other => return Err(corrupt(&format!("unknown i64 encoding {other}"), 0)),
    }
    Ok(out)
}

/// Raw little-endian f64 page (bit-exact, NaN payloads included).
pub fn encode_f64_raw(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out
}

/// Decode a raw f64 page of `count` values, appended to `out`.
pub fn decode_f64(buf: &[u8], count: usize, mut out: Vec<f64>) -> Result<Vec<f64>> {
    if count.checked_mul(8) != Some(buf.len()) {
        return Err(corrupt("raw f64 page length mismatch", 0));
    }
    out.reserve_exact(count);
    for chunk in buf.chunks_exact(8) {
        let mut b = [0u8; 8];
        b.copy_from_slice(chunk);
        out.push(f64::from_bits(u64::from_le_bytes(b)));
    }
    Ok(out)
}

/// LSB-first bit-pack (booleans, validity bitmaps).
pub fn pack_bits<I: IntoIterator<Item = bool>>(bits: I) -> Vec<u8> {
    let mut out = Vec::new();
    let mut byte = 0u8;
    let mut n = 0u32;
    for bit in bits {
        if bit {
            byte |= 1 << (n % 8);
        }
        n += 1;
        if n.is_multiple_of(8) {
            out.push(byte);
            byte = 0;
        }
    }
    if !n.is_multiple_of(8) {
        out.push(byte);
    }
    out
}

/// Unpack `count` LSB-first bits, appended to `out`.
pub fn unpack_bits(buf: &[u8], count: usize, mut out: Vec<bool>) -> Result<Vec<bool>> {
    if buf.len() != count.div_ceil(8) {
        return Err(corrupt("bit page length mismatch", 0));
    }
    out.extend((0..count).map(|i| buf.get(i / 8).is_some_and(|byte| byte & (1 << (i % 8)) != 0)));
    Ok(out)
}

/// Bytes [`write_varint`] takes for `v`.
fn varint_len(v: u64) -> usize {
    (64 - v.max(1).leading_zeros() as usize).div_ceil(7)
}

/// Plain string page: varint length + UTF-8 bytes per value.
fn encode_str_plain(codes: &[u32], dict: &StrDict) -> Vec<u8> {
    let mut out = Vec::new();
    for v in codes.iter().filter_map(|&c| dict.get(c)) {
        write_varint(&mut out, v.len() as u64);
        out.extend_from_slice(v.as_bytes());
    }
    out
}

/// Dictionary page: the distinct values in use, sorted, up front (`sorted`
/// holds their codes in that order), varint indices after (`rank[code]`
/// is a code's position in `sorted`). Wins on low-cardinality columns
/// (categories).
fn encode_str_dict(codes: &[u32], dict: &StrDict, sorted: &[u32], rank: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, sorted.len() as u64);
    for v in sorted.iter().filter_map(|&c| dict.get(c)) {
        write_varint(&mut out, v.len() as u64);
        out.extend_from_slice(v.as_bytes());
    }
    for ix in codes.iter().filter_map(|&c| rank.get(c as usize)) {
        write_varint(&mut out, u64::from(*ix));
    }
    out
}

/// The string page of a dictionary-encoded column — `codes` of its valid
/// rows, into `dict` — in whichever of the two encodings is smaller, with
/// that encoding's id. The page's dictionary is the *sorted* set of the
/// values in use, whatever order (or unused entries) `dict` has, so equal
/// columns write equal bytes. Both sizes follow from the per-entry counts
/// and lengths; only the winner is encoded.
pub fn encode_str(codes: &[u32], dict: &StrDict) -> (u8, Vec<u8>) {
    let mut counts = CodeCounts::new(dict.len());
    codes.iter().for_each(|&c| counts.push(c));
    let text = |code: u32| dict.get(code).unwrap_or_default();
    let mut sorted: Vec<u32> = counts.nonzero().map(|(code, _)| code).collect();
    sorted.sort_unstable_by_key(|&code| text(code));
    let mut rank = vec![0u32; dict.len()];
    let (mut plain, mut with_dict) = (0usize, varint_len(sorted.len() as u64));
    for (ix, &code) in (0u32..).zip(&sorted) {
        if let Some(slot) = rank.get_mut(code as usize) {
            *slot = ix;
        }
        let (n, len) = (counts.count(code) as usize, text(code).len());
        let entry = varint_len(len as u64) + len;
        plain += n * entry;
        with_dict += entry + n * varint_len(u64::from(ix));
    }
    if with_dict < plain {
        (super::ENC_DICT, encode_str_dict(codes, dict, &sorted, &rank))
    } else {
        (super::ENC_RAW, encode_str_plain(codes, dict))
    }
}

/// Decode the `count` strings of a page with encoding id `enc` as a
/// dictionary and one code per string, the codes appended to `codes`. A
/// dictionary page is read as stored — its entries checked (UTF-8,
/// bounds) once each, not once per row — and a plain page is interned
/// value by value; either way the entries come out distinct, so a page
/// that repeats a dictionary entry still decodes to a well-formed column.
pub fn decode_str(
    enc: u8,
    buf: &[u8],
    count: usize,
    mut codes: Vec<u32>,
) -> Result<(StrDict, Vec<u32>)> {
    let mut pos = 0;
    let read_one = |pos: &mut usize| -> Result<&str> {
        let len = read_varint(buf, pos)? as usize;
        let end = pos.checked_add(len).filter(|&e| e <= buf.len()).ok_or_else(|| truncated(*pos))?;
        let s = buf
            .get(*pos..end)
            .and_then(|bytes| std::str::from_utf8(bytes).ok())
            .ok_or_else(|| corrupt("string page is not valid UTF-8", *pos))?;
        *pos = end;
        Ok(s)
    };
    check_count(count, buf)?;
    let mut dict = DictBuilder::new();
    codes.reserve_exact(count);
    match enc {
        super::ENC_RAW => {
            for _ in 0..count {
                codes.push(dict.intern(read_one(&mut pos)?));
            }
        }
        super::ENC_DICT => {
            let dict_len = read_varint(buf, &mut pos)? as usize;
            check_count(dict_len, buf)?;
            let mut entries = Vec::with_capacity(dict_len);
            for _ in 0..dict_len {
                entries.push(dict.intern(read_one(&mut pos)?));
            }
            for _ in 0..count {
                let ix = read_varint(buf, &mut pos)? as usize;
                codes.push(*entries.get(ix).ok_or_else(|| corrupt("dict index out of range", pos))?);
            }
        }
        other => return Err(corrupt(&format!("unknown str encoding {other}"), 0)),
    };
    if pos != buf.len() {
        return Err(corrupt("trailing bytes after string page", pos));
    }
    Ok((dict.finish(), codes))
}

/// Every value of a varint-coded page occupies at least one byte, so a
/// count above the page's length is corrupt — checked before anything is
/// allocated for `count` values.
fn check_count(count: usize, buf: &[u8]) -> Result<()> {
    if count > buf.len() {
        return Err(corrupt("page is too short for its value count", buf.len()));
    }
    Ok(())
}

fn corrupt(message: &str, offset: usize) -> Error {
    Error::Malformed {
        line: 0,
        offset: Some(offset as u64),
        column: None,
        message: format!("corrupt .edaf page: {message}"),
    }
}

fn truncated(offset: usize) -> Error {
    corrupt("unexpected end of page", offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edaf::{ENC_DELTA, ENC_DICT, ENC_RAW, ENC_RLE};

    #[test]
    fn varint_round_trips() {
        let mut buf = Vec::new();
        let samples = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &samples {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &samples {
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn i64_encodings_round_trip() {
        let cases: Vec<Vec<i64>> = vec![
            vec![],
            vec![42],
            (0..1000).collect(),
            vec![7; 500],
            vec![i64::MIN, i64::MAX, 0, -1, 1],
        ];
        for values in cases {
            for (enc, page) in [
                (ENC_RAW, encode_i64_raw(&values)),
                (ENC_DELTA, encode_i64_delta(&values)),
                (ENC_RLE, encode_i64_rle(&values)),
            ] {
                assert_eq!(
                    decode_i64(enc, &page, values.len(), Vec::new()).unwrap(),
                    values,
                    "enc {enc}"
                );
            }
        }
    }

    #[test]
    fn rle_beats_raw_on_runs_delta_beats_raw_on_sorted() {
        let runs = vec![3i64; 10_000];
        assert!(encode_i64_rle(&runs).len() < encode_i64_raw(&runs).len() / 100);
        let sorted: Vec<i64> = (0..10_000).collect();
        assert!(encode_i64_delta(&sorted).len() < encode_i64_raw(&sorted).len() / 3);
    }

    #[test]
    fn f64_pages_are_bit_exact() {
        let values = vec![0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE];
        let decoded = decode_f64(&encode_f64_raw(&values), values.len(), Vec::new()).unwrap();
        for (a, b) in values.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn bit_packing_round_trips_all_lengths() {
        for n in 0..20usize {
            let bits: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let packed = pack_bits(bits.iter().copied());
            assert_eq!(packed.len(), n.div_ceil(8));
            assert_eq!(unpack_bits(&packed, n, Vec::new()).unwrap(), bits);
        }
    }

    /// `values` as a dictionary in first-appearance order plus codes.
    fn coded(values: &[&str]) -> (StrDict, Vec<u32>) {
        let mut dict = DictBuilder::new();
        let codes = values.iter().map(|v| dict.intern(v)).collect();
        (dict.finish(), codes)
    }

    /// Both pages of `values`, whichever `encode_str` would keep.
    fn both_pages(values: &[&str]) -> [(u8, Vec<u8>); 2] {
        let (dict, codes) = coded(values);
        let mut sorted: Vec<u32> = (0..dict.len() as u32).collect();
        sorted.sort_unstable_by_key(|&c| dict.get(c).unwrap());
        let mut rank = vec![0; dict.len()];
        for (ix, &c) in sorted.iter().enumerate() {
            rank[c as usize] = ix as u32;
        }
        [
            (ENC_RAW, encode_str_plain(&codes, &dict)),
            (ENC_DICT, encode_str_dict(&codes, &dict, &sorted, &rank)),
        ]
    }

    fn decoded(enc: u8, page: &[u8], count: usize) -> Vec<String> {
        let (dict, codes) = decode_str(enc, page, count, Vec::new()).unwrap();
        codes.iter().map(|&c| dict.get(c).unwrap().to_string()).collect()
    }

    #[test]
    fn str_encodings_round_trip() {
        let values = vec!["b", "a", "", "b", "naïve,\"quoted\"\nline", "a"];
        for (enc, page) in both_pages(&values) {
            assert_eq!(decoded(enc, &page, values.len()), values, "enc {enc}");
            // Distinct entries either way: four strings, four entries.
            assert_eq!(
                decode_str(enc, &page, values.len(), Vec::new()).unwrap().0.len(),
                4,
                "enc {enc}"
            );
        }
    }

    #[test]
    fn dict_beats_plain_on_low_cardinality() {
        let values: Vec<&str> = (0..5000).map(|i| if i % 2 == 0 { "yes" } else { "no" }).collect();
        let [(_, plain), (_, dict)] = both_pages(&values);
        assert!(dict.len() < plain.len() / 2);
    }

    #[test]
    fn the_smaller_string_page_is_chosen_from_counts_alone() {
        let long: Vec<String> = (0..300).map(|i| format!("value {i} {}", "x".repeat(i % 90 + i / 2))).collect();
        let cases: Vec<Vec<&str>> = vec![
            vec![],
            vec!["only"],
            vec!["", "", ""],
            (0..5000).map(|i| ["yes", "no", "maybe"][i % 3]).collect(),
            long.iter().map(String::as_str).collect(),
            long.iter().chain(&long).map(String::as_str).collect(),
            // 200 distinct values: indices past 127 take two bytes.
            (0..900).map(|i| long[i * 7 % 200].as_str()).collect(),
        ];
        for values in cases {
            let (dict, codes) = coded(&values);
            let (enc, page) = encode_str(&codes, &dict);
            let [plain, with_dict] = both_pages(&values);
            // The first candidate wins a tie, as `pick_smallest` has it.
            let want = if with_dict.1.len() < plain.1.len() { with_dict } else { plain };
            assert_eq!((enc, &page), (want.0, &want.1), "{} values", values.len());
            assert_eq!(decoded(enc, &page, values.len()), values);
        }
        // Entries no row uses, and another entry order, change nothing.
        let mut padded = DictBuilder::new();
        for entry in ["zz unused", "no", "yes", "aa unused"] {
            padded.intern(entry);
        }
        let (tight, tight_codes) = coded(&["yes", "no", "yes"]);
        assert_eq!(encode_str(&[2, 1, 2], &padded.finish()), encode_str(&tight_codes, &tight));
    }

    #[test]
    fn a_repeated_dictionary_entry_decodes_to_distinct_entries() {
        // dict = ["a", "a", "b"], indices 0 1 2 1.
        let page = [3, 1, b'a', 1, b'a', 1, b'b', 0, 1, 2, 1];
        let (dict, codes) = decode_str(ENC_DICT, &page, 4, Vec::new()).unwrap();
        assert_eq!(dict.iter().collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(codes, [0, 0, 1, 0]);
    }

    #[test]
    fn mutated_string_pages_are_corrupt_not_columns() {
        let message =
            |enc: u8, page: &[u8], count: usize| match decode_str(enc, page, count, Vec::new()) {
                Err(Error::Malformed { message, .. }) => message,
                other => panic!("expected a corrupt page, got {other:?}"),
            };
        // dict = ["a", "b"], indices 0 1 0.
        let good = [2, 1, b'a', 1, b'b', 0, 1, 0];
        assert!(decode_str(ENC_DICT, &good, 3, Vec::new()).is_ok());
        let with = |at: usize, byte: u8| {
            let mut page = good.to_vec();
            page[at] = byte;
            page
        };
        assert!(message(ENC_DICT, &with(6, 2), 3).contains("dict index out of range"));
        assert!(message(ENC_DICT, &with(4, 0xff), 3).contains("not valid UTF-8"), "a bad dictionary entry");
        assert!(message(ENC_DICT, &with(7, 0x80), 3).contains("unexpected end of page"), "a truncated varint");
        assert!(message(ENC_DICT, &good[..7], 3).contains("unexpected end of page"));
        let mut long = good.to_vec();
        long.push(0);
        assert!(message(ENC_DICT, &long, 3).contains("trailing bytes"));
        assert!(message(ENC_DICT, &with(1, 9), 3).contains("unexpected end of page"), "an entry longer than the page");
        // The plain page: a bad value, a value cut short, a byte too many.
        let plain = [1, b'a', 2, b'b', b'c'];
        assert!(decode_str(ENC_RAW, &plain, 2, Vec::new()).is_ok());
        assert!(message(ENC_RAW, &[1, b'a', 2, 0xc3, b'c'], 2).contains("not valid UTF-8"));
        assert!(message(ENC_RAW, &plain[..4], 2).contains("unexpected end of page"));
        assert!(message(ENC_RAW, &plain, 1).contains("trailing bytes"));
    }

    #[test]
    fn corrupt_pages_error_not_panic() {
        assert!(decode_i64(ENC_RAW, &[1, 2, 3], 1, Vec::new()).is_err());
        assert!(decode_i64(ENC_RLE, &[], 3, Vec::new()).is_err());
        assert!(decode_i64(99, &[], 0, Vec::new()).is_err());
        assert!(decode_f64(&[0; 7], 1, Vec::new()).is_err());
        assert!(unpack_bits(&[], 9, Vec::new()).is_err());
        assert!(decode_str(ENC_DICT, &[1, 0], 1, Vec::new()).is_err());
        let bad_utf8 = [2u8, 0xff, 0xfe];
        assert!(decode_str(ENC_RAW, &bad_utf8, 1, Vec::new()).is_err());
    }

    #[test]
    fn counts_beyond_the_page_error_before_allocating() {
        // Counts a hostile footer can claim: too many values for memory
        // (`1 << 40`), for `Vec`'s capacity (`1 << 61`), for `count * 8`.
        let page = encode_i64_rle(&[7; 41]);
        for count in [1usize << 40, 1 << 61, usize::MAX] {
            for enc in [ENC_RAW, ENC_DELTA, ENC_RLE] {
                assert!(
                    decode_i64(enc, &page, count, Vec::new()).is_err(),
                    "i64 enc {enc}, count {count}"
                );
            }
            assert!(decode_f64(&[0; 8], count, Vec::new()).is_err());
            for enc in [ENC_RAW, ENC_DICT] {
                assert!(
                    decode_str(enc, &[1, b'a', 0], count, Vec::new()).is_err(),
                    "str enc {enc}"
                );
            }
        }
        // One run as long as the hostile count, and a dictionary that
        // claims 2^56 - 1 entries.
        let mut run = Vec::new();
        write_varint(&mut run, 1 << 61);
        write_varint(&mut run, zigzag(7));
        assert!(decode_i64(ENC_RLE, &run, 1 << 61, Vec::new()).is_err());
        let mut dict = vec![0xff; 7];
        dict.extend([0x7f, 1, b'a', 0]);
        assert!(decode_str(ENC_DICT, &dict, 1, Vec::new()).is_err());
    }
}
