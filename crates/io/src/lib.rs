//! Parallel out-of-core ingestion for dataprep-eda.
//!
//! Two subsystems (DESIGN.md §16):
//!
//! * **Chunked CSV ingestion** ([`chunked`], [`stream`]) — the one CSV
//!   reader (`eda_dataframe::csv::chunk`: boundary scan, schema sample,
//!   per-chunk parse, fold) given byte access ([`source::ByteSource`]:
//!   in-memory, or buffered positional file reads) and a parallel map on
//!   the taskgraph worker pool. One driver scans record boundaries once
//!   (quote-aware), parses the ~1 MiB chunks on the pool and hands them
//!   on in file order: [`chunked`] collects and folds them into a frame
//!   that is bit-identical for every chunking and worker count;
//!   [`stream`] takes them in bounded waves and folds them without ever
//!   materialising the frame — statistics over files larger than RAM.
//! * **`.edaf` binary columnar format** ([`edaf`]) — typed column
//!   pages with null bitmaps, dictionary/varint/RLE encodings and a
//!   footer of per-column offsets, so projecting one column out of a
//!   wide file is O(that column), not O(parse everything).

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing))]
#![cfg_attr(test, allow(clippy::panic, clippy::unreachable))]

pub mod chunked;
pub mod edaf;
pub mod source;
pub mod stream;

pub use chunked::{read_csv_chunked, read_csv_str_chunked, IngestOptions};
pub use edaf::{edaf_info, read_edaf, read_edaf_columns, write_edaf, EdafInfo};
pub use source::ByteSource;
pub use stream::{fold_csv, read_overview, FoldOutcome};
