//! Value encodings for `.edaf` column pages.
//!
//! Small, self-describing building blocks: LEB128 varints, zigzag
//! mapping, delta + run-length candidates for integer pages, and
//! LSB-first bit-packing for booleans and validity bitmaps. The writer
//! encodes each candidate and keeps the smallest; the chosen encoding's
//! id byte travels in the footer, so readers never guess.

use eda_dataframe::{Error, Result};

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
    let mut i = 0;
    while i < values.len() {
        let v = values[i];
        let mut run = 1u64;
        while i + (run as usize) < values.len() && values[i + run as usize] == v {
            run += 1;
        }
        write_varint(&mut out, run);
        write_varint(&mut out, zigzag(v));
        i += run as usize;
    }
    out
}

/// Decode `count` i64 values from a page with encoding id `enc`.
///
/// `count` comes from the file's footer, so nothing is allocated for it
/// until the page is known to hold that many values.
pub fn decode_i64(enc: u8, buf: &[u8], count: usize) -> Result<Vec<i64>> {
    let mut out = Vec::new();
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
            while out.len() < count {
                let run = read_varint(buf, &mut pos)?;
                let v = unzigzag(read_varint(buf, &mut pos)?);
                let run = usize::try_from(run)
                    .ok()
                    .filter(|r| *r > 0 && *r <= count - out.len())
                    .ok_or_else(|| corrupt("rle run overruns page", pos))?;
                // A run's length is bounded by the footer's count alone,
                // never by the page's size: memory for it may not exist.
                out.try_reserve(run)
                    .map_err(|_| corrupt("rle run exceeds available memory", pos))?;
                out.extend(std::iter::repeat_n(v, run));
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

/// Decode a raw f64 page.
pub fn decode_f64(buf: &[u8], count: usize) -> Result<Vec<f64>> {
    if count.checked_mul(8) != Some(buf.len()) {
        return Err(corrupt("raw f64 page length mismatch", 0));
    }
    let mut out = Vec::with_capacity(count);
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

/// Unpack `count` LSB-first bits.
pub fn unpack_bits(buf: &[u8], count: usize) -> Result<Vec<bool>> {
    if buf.len() != count.div_ceil(8) {
        return Err(corrupt("bit page length mismatch", 0));
    }
    Ok((0..count).map(|i| buf[i / 8] & (1 << (i % 8)) != 0).collect())
}

/// Plain string page: varint length + UTF-8 bytes per value.
pub fn encode_str_plain(values: &[&str]) -> Vec<u8> {
    let mut out = Vec::new();
    for v in values {
        write_varint(&mut out, v.len() as u64);
        out.extend_from_slice(v.as_bytes());
    }
    out
}

/// Dictionary page: sorted distinct values up front, varint indices
/// after. Wins on low-cardinality columns (categories).
pub fn encode_str_dict(values: &[&str]) -> Vec<u8> {
    let mut dict: Vec<&str> = values.to_vec();
    dict.sort_unstable();
    dict.dedup();
    let mut out = Vec::new();
    write_varint(&mut out, dict.len() as u64);
    for v in &dict {
        write_varint(&mut out, v.len() as u64);
        out.extend_from_slice(v.as_bytes());
    }
    for v in values {
        // Every value is in the dict by construction.
        if let Ok(ix) = dict.binary_search(v) {
            write_varint(&mut out, ix as u64);
        }
    }
    out
}

/// Decode `count` strings from a page with encoding id `enc`.
pub fn decode_str(enc: u8, buf: &[u8], count: usize) -> Result<Vec<String>> {
    let mut pos = 0;
    let read_one = |pos: &mut usize| -> Result<String> {
        let len = read_varint(buf, pos)? as usize;
        let end = pos.checked_add(len).filter(|&e| e <= buf.len()).ok_or_else(|| truncated(*pos))?;
        let s = std::str::from_utf8(&buf[*pos..end])
            .map_err(|_| corrupt("string page is not valid UTF-8", *pos))?
            .to_string();
        *pos = end;
        Ok(s)
    };
    check_count(count, buf)?;
    let out = match enc {
        super::ENC_RAW => {
            let mut out = Vec::with_capacity(count);
            for _ in 0..count {
                out.push(read_one(&mut pos)?);
            }
            out
        }
        super::ENC_DICT => {
            let dict_len = read_varint(buf, &mut pos)? as usize;
            check_count(dict_len, buf)?;
            let mut dict = Vec::with_capacity(dict_len);
            for _ in 0..dict_len {
                dict.push(read_one(&mut pos)?);
            }
            let mut out = Vec::with_capacity(count);
            for _ in 0..count {
                let ix = read_varint(buf, &mut pos)? as usize;
                let v = dict.get(ix).ok_or_else(|| corrupt("dict index out of range", pos))?;
                out.push(v.clone());
            }
            out
        }
        other => return Err(corrupt(&format!("unknown str encoding {other}"), 0)),
    };
    if pos != buf.len() {
        return Err(corrupt("trailing bytes after string page", pos));
    }
    Ok(out)
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
                assert_eq!(decode_i64(enc, &page, values.len()).unwrap(), values, "enc {enc}");
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
        let decoded = decode_f64(&encode_f64_raw(&values), values.len()).unwrap();
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
            assert_eq!(unpack_bits(&packed, n).unwrap(), bits);
        }
    }

    #[test]
    fn str_encodings_round_trip() {
        let values = vec!["b", "a", "", "b", "naïve,\"quoted\"\nline", "a"];
        for (enc, page) in
            [(ENC_RAW, encode_str_plain(&values)), (ENC_DICT, encode_str_dict(&values))]
        {
            let decoded = decode_str(enc, &page, values.len()).unwrap();
            assert_eq!(decoded, values, "enc {enc}");
        }
    }

    #[test]
    fn dict_beats_plain_on_low_cardinality() {
        let values: Vec<&str> = (0..5000).map(|i| if i % 2 == 0 { "yes" } else { "no" }).collect();
        assert!(encode_str_dict(&values).len() < encode_str_plain(&values).len() / 2);
    }

    #[test]
    fn corrupt_pages_error_not_panic() {
        assert!(decode_i64(ENC_RAW, &[1, 2, 3], 1).is_err());
        assert!(decode_i64(ENC_RLE, &[], 3).is_err());
        assert!(decode_i64(99, &[], 0).is_err());
        assert!(decode_f64(&[0; 7], 1).is_err());
        assert!(unpack_bits(&[], 9).is_err());
        assert!(decode_str(ENC_DICT, &[1, 0], 1).is_err());
        let bad_utf8 = [2u8, 0xff, 0xfe];
        assert!(decode_str(ENC_RAW, &bad_utf8, 1).is_err());
    }

    #[test]
    fn counts_beyond_the_page_error_before_allocating() {
        // Counts a hostile footer can claim: too many values for memory
        // (`1 << 40`), for `Vec`'s capacity (`1 << 61`), for `count * 8`.
        let page = encode_i64_rle(&[7; 41]);
        for count in [1usize << 40, 1 << 61, usize::MAX] {
            for enc in [ENC_RAW, ENC_DELTA, ENC_RLE] {
                assert!(decode_i64(enc, &page, count).is_err(), "i64 enc {enc}, count {count}");
            }
            assert!(decode_f64(&[0; 8], count).is_err());
            for enc in [ENC_RAW, ENC_DICT] {
                assert!(decode_str(enc, &[1, b'a', 0], count).is_err(), "str enc {enc}");
            }
        }
        // One run as long as the hostile count, and a dictionary that
        // claims 2^56 - 1 entries.
        let mut run = Vec::new();
        write_varint(&mut run, 1 << 61);
        write_varint(&mut run, zigzag(7));
        assert!(decode_i64(ENC_RLE, &run, 1 << 61).is_err());
        let mut dict = vec![0xff; 7];
        dict.extend([0x7f, 1, b'a', 0]);
        assert!(decode_str(ENC_DICT, &dict, 1).is_err());
    }
}
