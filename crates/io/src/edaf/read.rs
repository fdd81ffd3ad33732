//! `.edaf` reader: footer-driven, projection-first.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::Arc;

use eda_dataframe::{Bitmap, Column, DataFrame, DataType, Error, Result};

use super::encode::{decode_f64, decode_i64, decode_str, unpack_bits};
use super::{dtype_from_code, ColumnInfo, EdafInfo, MAGIC, TRAILER_MAGIC, VERSION};

/// Read only the footer: file-level metadata without touching any
/// column block. O(footer), independent of data size.
pub fn edaf_info<P: AsRef<Path>>(path: P) -> Result<EdafInfo> {
    let mut file = File::open(path.as_ref())?;
    read_footer(&mut file)
}

/// Read the whole frame back.
pub fn read_edaf<P: AsRef<Path>>(path: P) -> Result<DataFrame> {
    let mut file = File::open(path.as_ref())?;
    let info = read_footer(&mut file)?;
    let names: Vec<&str> = info.columns.iter().map(|c| c.name.as_str()).collect();
    project(&mut file, &info, &names)
}

/// Read only `columns` (in the order given). This is the O(1)-per-column
/// projection path: one footer read plus exactly the requested blocks;
/// unrelated columns are never paged in.
pub fn read_edaf_columns<P: AsRef<Path>>(path: P, columns: &[&str]) -> Result<DataFrame> {
    let mut file = File::open(path.as_ref())?;
    let info = read_footer(&mut file)?;
    project(&mut file, &info, columns)
}

fn project(file: &mut File, info: &EdafInfo, columns: &[&str]) -> Result<DataFrame> {
    let nrows = info.nrows as usize;
    let mut pairs: Vec<(String, Column)> = Vec::with_capacity(columns.len());
    for want in columns {
        let col_info = info
            .columns
            .iter()
            .find(|c| c.name == *want)
            .ok_or_else(|| Error::ColumnNotFound((*want).to_string()))?;
        let mut block = vec![0u8; col_info.byte_len as usize];
        file.seek(SeekFrom::Start(col_info.offset))?;
        file.read_exact(&mut block)?;
        pairs.push((col_info.name.clone(), decode_column(col_info, &block, nrows)?));
    }
    DataFrame::new(pairs)
}

fn decode_column(info: &ColumnInfo, block: &[u8], nrows: usize) -> Result<Column> {
    let valid_count = info.valid_count as usize;
    let (validity, page) = if info.has_validity {
        let (bits, page) = block
            .split_at_checked(nrows.div_ceil(8))
            .ok_or_else(|| corrupt("column block shorter than its validity bitmap", info.offset))?;
        let validity = Bitmap::from_packed(bits.to_vec(), nrows);
        if validity.count_set() != valid_count {
            return Err(corrupt("validity bitmap disagrees with valid_count", info.offset));
        }
        (Some(validity), page)
    } else if valid_count != nrows {
        return Err(corrupt("column without validity must be fully valid", info.offset));
    } else {
        (None, block)
    };

    // A column with nulls decodes its valid values into the front of one
    // vector with room for every row, then spreads them over their rows
    // ([`spread`]). That room is safe to take up front: the bitmap just
    // read holds a bit per row. Without nulls the decoder sizes the
    // vector itself, once the page is known to hold `nrows` values.
    let room = if validity.is_some() { nrows } else { 0 };
    let col = match info.dtype {
        DataType::Float64 => {
            let vals = decode_f64(page, valid_count, Vec::with_capacity(room))?;
            Column::from_f64_validity(spread(vals, validity.as_ref(), 0.0), validity)
        }
        DataType::Int64 => {
            let vals = decode_i64(info.encoding, page, valid_count, Vec::with_capacity(room))?;
            Column::from_i64_validity(spread(vals, validity.as_ref(), 0), validity)
        }
        DataType::Str => {
            // The page's dictionary becomes the column's; no string is
            // built per row.
            let (dict, codes) =
                decode_str(info.encoding, page, valid_count, Vec::with_capacity(room))?;
            Column::from_codes(Arc::new(dict), spread(codes, validity.as_ref(), 0), validity)?
        }
        DataType::Bool => {
            let vals = unpack_bits(page, valid_count, Vec::with_capacity(room))?;
            Column::from_bool_validity(spread(vals, validity.as_ref(), false), validity)
        }
    };
    Ok(col)
}

/// The valid values at the front of `values` moved to the rows
/// `validity` marks valid, `default` under the nulls (what CSV builders
/// store there), in place: back to front, each value moves into a slot
/// that holds a default. `values` holds one value per set bit.
fn spread<T: Copy>(mut values: Vec<T>, validity: Option<&Bitmap>, default: T) -> Vec<T> {
    let Some(validity) = validity else {
        return values;
    };
    let mut next = values.len();
    values.resize(validity.len(), default);
    for row in (0..validity.len()).rev() {
        if validity.get(row) {
            next -= 1;
            values.swap(next, row);
        }
    }
    values
}

/// Rebuild `col` exactly as decoding a written file would: null slots
/// forced to type defaults. Shared with the writer's fingerprint
/// normalisation. A string column is returned as it is: its fingerprint
/// reads a null slot as the empty string whatever code is under it.
pub(super) fn normalize_nulls(col: &Column) -> Column {
    let Some(bitmap) = col.validity() else {
        return col.clone();
    };
    fn zeroed<T: Copy>(values: &[T], validity: &Bitmap, default: T) -> Vec<T> {
        let row = |(i, &v): (usize, &T)| if validity.get(i) { v } else { default };
        values.iter().enumerate().map(row).collect()
    }
    let validity = Some(bitmap.clone());
    if let Some(values) = col.f64_values() {
        Column::from_f64_validity(zeroed(values, bitmap, 0.0), validity)
    } else if let Some(values) = col.i64_values() {
        Column::from_i64_validity(zeroed(values, bitmap, 0), validity)
    } else if let Some(values) = col.bool_values() {
        Column::from_bool_validity(zeroed(values, bitmap, false), validity)
    } else {
        col.clone()
    }
}

fn read_footer(file: &mut File) -> Result<EdafInfo> {
    let file_bytes = file.metadata()?.len();
    let trailer_len = 4 + TRAILER_MAGIC.len() as u64;
    let header_len = MAGIC.len() as u64 + 1;
    if file_bytes < header_len + trailer_len {
        return Err(corrupt("file too small to be .edaf", 0));
    }

    let mut head = [0u8; 5];
    file.read_exact(&mut head)?;
    if &head[..4] != MAGIC {
        return Err(corrupt("bad magic (not an .edaf file)", 0));
    }
    if head[4] != VERSION {
        return Err(corrupt(&format!("unsupported .edaf version {}", head[4]), 4));
    }

    let mut trailer = [0u8; 8];
    file.seek(SeekFrom::Start(file_bytes - trailer_len))?;
    file.read_exact(&mut trailer)?;
    if &trailer[4..] != TRAILER_MAGIC {
        return Err(corrupt("bad trailer magic (truncated file?)", file_bytes - 4));
    }
    let footer_len = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]) as u64;
    let footer_start = (file_bytes - trailer_len)
        .checked_sub(footer_len)
        .filter(|&s| s >= header_len)
        .ok_or_else(|| corrupt("footer length exceeds file", file_bytes))?;
    let mut footer = vec![0u8; footer_len as usize];
    file.seek(SeekFrom::Start(footer_start))?;
    file.read_exact(&mut footer)?;

    parse_footer(&footer, footer_start, file_bytes)
}

fn parse_footer(footer: &[u8], footer_start: u64, file_bytes: u64) -> Result<EdafInfo> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
        let s = (pos.checked_add(n))
            .and_then(|end| footer.get(*pos..end))
            .ok_or_else(|| corrupt("footer truncated", footer_start + *pos as u64))?;
        *pos += n;
        Ok(s)
    };
    let take_u64 = |pos: &mut usize| -> Result<u64> {
        let mut b = [0u8; 8];
        b.copy_from_slice(take(pos, 8)?);
        Ok(u64::from_le_bytes(b))
    };

    let ncols = {
        let mut b = [0u8; 4];
        b.copy_from_slice(take(&mut pos, 4)?);
        u32::from_le_bytes(b) as usize
    };
    let mut columns = Vec::with_capacity(ncols.min(4096));
    for _ in 0..ncols {
        let name_len = {
            let mut b = [0u8; 2];
            b.copy_from_slice(take(&mut pos, 2)?);
            u16::from_le_bytes(b) as usize
        };
        let name = std::str::from_utf8(take(&mut pos, name_len)?)
            .map_err(|_| corrupt("column name is not valid UTF-8", footer_start + pos as u64))?
            .to_string();
        let &[dtype_raw, encoding, has_validity] = take(&mut pos, 3)? else {
            return Err(corrupt("footer truncated", footer_start + pos as u64));
        };
        let has_validity = has_validity != 0;
        let dtype = dtype_from_code(dtype_raw)
            .ok_or_else(|| corrupt(&format!("unknown dtype code {dtype_raw}"), footer_start))?;
        let offset = take_u64(&mut pos)?;
        let byte_len = take_u64(&mut pos)?;
        let valid_count = take_u64(&mut pos)?;
        if offset.checked_add(byte_len).is_none_or(|end| end > footer_start) {
            return Err(corrupt("column block overlaps footer", offset));
        }
        columns.push(ColumnInfo { name, dtype, encoding, has_validity, offset, byte_len, valid_count });
    }
    let nrows = take_u64(&mut pos)?;
    let content_fingerprint = take_u64(&mut pos)?;
    if pos != footer.len() {
        return Err(corrupt("trailing bytes in footer", footer_start + pos as u64));
    }
    Ok(EdafInfo { nrows, columns, file_bytes, content_fingerprint })
}

fn corrupt(message: &str, offset: u64) -> Error {
    Error::Malformed {
        line: 0,
        offset: Some(offset),
        column: None,
        message: format!("corrupt .edaf file: {message}"),
    }
}
