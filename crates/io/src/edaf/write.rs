//! `.edaf` writer.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use eda_dataframe::{Column, DataFrame, DataType, Result};

use super::encode::{
    encode_f64_raw, encode_i64_delta, encode_i64_raw, encode_i64_rle, encode_str, pack_bits,
};
use super::{dtype_code, ColumnInfo, EdafInfo, ENC_BITS, ENC_DELTA, ENC_RAW, ENC_RLE, MAGIC, TRAILER_MAGIC, VERSION};

/// One encoded column block, pre-assembly.
struct EncodedColumn {
    name: String,
    dtype: DataType,
    encoding: u8,
    validity: Option<Vec<u8>>,
    page: Vec<u8>,
    valid_count: u64,
}

/// Serialise `frame` to `path`. Picks the smallest candidate encoding
/// per column and records everything a projecting reader needs in the
/// footer. Returns the file-level metadata, including the stored
/// [`content_fingerprint`](DataFrame::content_fingerprint).
pub fn write_edaf<P: AsRef<Path>>(path: P, frame: &DataFrame) -> Result<EdafInfo> {
    let nrows = frame.nrows();
    let mut encoded: Vec<EncodedColumn> = Vec::with_capacity(frame.ncols());
    for name in frame.names() {
        let col = frame.column(name)?;
        encoded.push(encode_column(name, col, nrows));
    }

    let file = File::create(path.as_ref())?;
    let mut w = BufWriter::new(file);
    w.write_all(MAGIC)?;
    w.write_all(&[VERSION])?;
    let mut offset = (MAGIC.len() + 1) as u64;

    let mut infos: Vec<ColumnInfo> = Vec::with_capacity(encoded.len());
    for col in &encoded {
        let start = offset;
        if let Some(bits) = &col.validity {
            w.write_all(bits)?;
            offset += bits.len() as u64;
        }
        w.write_all(&col.page)?;
        offset += col.page.len() as u64;
        infos.push(ColumnInfo {
            name: col.name.clone(),
            dtype: col.dtype,
            encoding: col.encoding,
            has_validity: col.validity.is_some(),
            offset: start,
            byte_len: offset - start,
            valid_count: col.valid_count,
        });
    }

    // The fingerprint the footer advertises is the one a reader will
    // recompute: null slots normalised to type defaults. CSV-built
    // frames already store defaults there, making the round trip
    // bit-identical; frames with other garbage under null slots are
    // normalised by the write.
    let fingerprint = normalized_fingerprint(frame)?;

    let mut footer = Vec::new();
    footer.extend_from_slice(&(infos.len() as u32).to_le_bytes());
    for info in &infos {
        footer.extend_from_slice(&(info.name.len() as u16).to_le_bytes());
        footer.extend_from_slice(info.name.as_bytes());
        footer.push(dtype_code(info.dtype));
        footer.push(info.encoding);
        footer.push(u8::from(info.has_validity));
        footer.extend_from_slice(&info.offset.to_le_bytes());
        footer.extend_from_slice(&info.byte_len.to_le_bytes());
        footer.extend_from_slice(&info.valid_count.to_le_bytes());
    }
    footer.extend_from_slice(&(nrows as u64).to_le_bytes());
    footer.extend_from_slice(&fingerprint.to_le_bytes());

    w.write_all(&footer)?;
    w.write_all(&(footer.len() as u32).to_le_bytes())?;
    w.write_all(TRAILER_MAGIC)?;
    w.flush()?;

    let file_bytes = offset + footer.len() as u64 + 4 + TRAILER_MAGIC.len() as u64;
    Ok(EdafInfo { nrows: nrows as u64, columns: infos, file_bytes, content_fingerprint: fingerprint })
}

fn encode_column(name: &str, col: &Column, nrows: usize) -> EncodedColumn {
    let validity = col
        .validity()
        .map(|_| pack_bits((0..nrows).map(|i| col.is_valid(i))));
    let valid_rows = || (0..nrows).filter(|&i| col.is_valid(i));

    let (encoding, page, valid_count) = if let Some(values) = col.f64_values() {
        let kept: Vec<f64> = valid_rows().filter_map(|i| values.get(i).copied()).collect();
        (ENC_RAW, encode_f64_raw(&kept), kept.len())
    } else if let Some(values) = col.i64_values() {
        let kept: Vec<i64> = valid_rows().filter_map(|i| values.get(i).copied()).collect();
        let candidates = [
            (ENC_RAW, encode_i64_raw(&kept)),
            (ENC_DELTA, encode_i64_delta(&kept)),
            (ENC_RLE, encode_i64_rle(&kept)),
        ];
        let (enc, page) = pick_smallest(candidates);
        (enc, page, kept.len())
    } else if let Some((codes, dict)) = col.str_codes() {
        let kept: Vec<u32> = valid_rows().filter_map(|i| codes.get(i).copied()).collect();
        let (enc, page) = encode_str(&kept, dict);
        (enc, page, kept.len())
    } else {
        let values = col.bool_values().unwrap_or(&[]);
        let kept: Vec<bool> = valid_rows().filter_map(|i| values.get(i).copied()).collect();
        let count = kept.len();
        (ENC_BITS, pack_bits(kept), count)
    };

    EncodedColumn {
        name: name.to_string(),
        dtype: col.dtype(),
        encoding,
        validity,
        page,
        valid_count: valid_count as u64,
    }
}

fn pick_smallest<const N: usize>(candidates: [(u8, Vec<u8>); N]) -> (u8, Vec<u8>) {
    candidates
        .into_iter()
        .min_by_key(|(_, page)| page.len())
        .unwrap_or((ENC_RAW, Vec::new()))
}

/// Fingerprint of `frame` with null slots normalised to type defaults —
/// what decoding this file will reproduce.
fn normalized_fingerprint(frame: &DataFrame) -> Result<u64> {
    if frame.names().iter().all(|n| {
        frame.column(n).is_ok_and(|c| c.validity().is_none())
    }) {
        return Ok(frame.content_fingerprint());
    }
    let mut pairs = Vec::with_capacity(frame.ncols());
    for name in frame.names() {
        let col = frame.column(name)?;
        pairs.push((name.clone(), super::read::normalize_nulls(col)));
    }
    Ok(DataFrame::new(pairs)?.content_fingerprint())
}
